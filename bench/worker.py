"""One mfzeta command in a fresh interpreter, as a user runs it.

Usage: ``python3 bench/worker.py SPEC.json`` where SPEC holds ``src`` (the
package source directory), ``argv`` (passed to ``mfzeta.cli.main``; null only
imports the package), ``trace`` (install spans first) and ``result`` (where
this process writes its JSON result).  The command runs in the current
directory.  With tracing on, ``spans`` names a file that receives every span
once the command has ended, under the id ``command``.
"""
import json
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """Peak RSS of this process image.

    ``ru_maxrss`` survives ``exec`` on Linux, so it would report the runner's
    size at fork time when that is larger; VmHWM belongs to this image only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mfzeta.cli

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"imported": imported}
    if spec["argv"] is None:
        import mpmath
        import numpy

        result["versions"] = {"numpy": numpy.__version__, "mpmath": mpmath.__version__,
                              "python": sys.version.split()[0]}
    else:
        recorder = None
        if spec["trace"]:
            import tracer

            recorder = tracer.install()
        t0 = time.perf_counter()
        try:
            rc = mfzeta.cli.main(list(spec["argv"]))
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if recorder is not None:
            result["trace"] = tracer.totals(recorder)
            with open(spec["spans"], "w") as fh:
                json.dump({"command": spec["command"], "spans": recorder.spans}, fh)
    result["maxrss_kb"] = peak_rss_kb()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
