"""Write the reference outputs that ``run.py`` checks every command against.

    python3 bench/make_reference.py [--workload NAME ...]

Run this only at a commit whose outputs are known to be right: the files in
``bench/reference/`` define correct output for every later run.  Each command
runs once through ``worker.py``, exactly as in a benchmark pass; the count
commands run once per count seed ``0 .. workloads.COUNT_SEEDS - 1``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys

import check
import run
import workloads


def _commands(workload: str) -> dict[str, workloads.Command]:
    seeds = range(workloads.COUNT_SEEDS) if workload == "count-explicit" else (0,)
    return {cmd.name: cmd for seed in seeds for cmd in workloads.commands(workload, seed)}


def record(workload: str) -> dict[str, dict[str, str]]:
    work = run.WORK / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outputs = {}
    try:
        for name, cmd in _commands(workload).items():
            out_dir = work / name
            out_dir.mkdir()
            if cmd.config is not None:
                (out_dir / workloads.CONFIG).write_text(json.dumps(cmd.config))
            spec = {"src": str(run.SRC), "argv": list(cmd.argv), "trace": False,
                    "result": str(work / f"{name}.result.json"), "spans": None}
            _, result = run.spawn_worker(spec, out_dir, work / f"{name}.spec.json", 600)
            if isinstance(result, str) or result["rc"] != cmd.expect_rc:
                raise RuntimeError(f"{workload}/{name}: {result}")
            outputs[name] = check.read_outputs(out_dir, skip=workloads.CONFIG)
            print(f"{workload}/{name}: {sorted(outputs[name])}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    for workload in args.workload or workloads.WORKLOADS:
        check.save_reference(workload, record(workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
