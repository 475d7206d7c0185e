"""Benchmark of mfzeta's user-facing runs, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every workload, one table

One runner process runs the workload's commands one at a time (a closed loop
with a single client), each in a fresh interpreter (``worker.py``) that calls
``mfzeta.cli.main(argv)``, so no in-program cache carries over between
commands.  Passes over the workload repeat while another whole pass fits in
``--seconds``; there is always at least one (with ``--trace 1``, at least one
untraced and one traced pass).  Every output is checked against the
reference outputs (``check.py``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_build" / "mfzeta-bench"
COMMAND_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no pass starts, and no command runs, past this point
SETUP_SAMPLES = 5  # import-only runs per run, besides the workload's commands

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's import time compares with
    # the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class CommandResult:
    """One command; times are raw seconds."""

    name: str
    ok: bool
    problems: list[str]
    setup_s: float | None = None
    wall_s: float = 0.0
    rows: int = 0
    maxrss_kb: int = 0
    trace: dict = field(default_factory=dict)


@dataclass
class Pass:
    traced: bool
    commands: list[CommandResult]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def rows(self) -> int:
        return sum(c.rows for c in self.commands)


def spawn_worker(spec: dict, cwd: Path, spec_path: Path, timeout: float):
    """Run worker.py on ``spec``; return (spawn time, result dict or problem)."""
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env.pop("MFZETA_THREADS", None)  # the argv alone decides the thread count
    spawned = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), str(spec_path)], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return spawned, f"timed out after {timeout:.0f} s"
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return spawned, f"worker exited {proc.returncode}: {' | '.join(tail)}"
    return spawned, json.loads(result_path.read_text())


def run_command(cmd: workloads.Command, run_dir: Path, reference: dict, traced: bool,
                deadline: float, spans_path: Path | None) -> CommandResult:
    timeout = min(COMMAND_TIMEOUT_S, deadline - _clock())
    if timeout < 1:
        return CommandResult(cmd.name, False, ["not started: run time limit reached"])
    out_dir = run_dir / cmd.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if cmd.config is not None:
        (out_dir / workloads.CONFIG).write_text(json.dumps(cmd.config))
    result_path = run_dir / f"{cmd.name}.result.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "argv": list(cmd.argv), "trace": traced, "command": cmd.name,
            "result": str(result_path), "spans": str(spans_path) if spans_path else None}
    spawned, result = spawn_worker(spec, out_dir, run_dir / f"{cmd.name}.spec.json", timeout)
    if isinstance(result, str):
        return CommandResult(cmd.name, False, [result], wall_s=_clock() - spawned)
    problems = []
    if result.get("error"):
        problems.append("raised: " + result["error"].strip().splitlines()[-1])
    if result["rc"] != cmd.expect_rc:
        problems.append(f"exit code {result['rc']}, expected {cmd.expect_rc}")
    outputs = check.read_outputs(out_dir, skip=workloads.CONFIG)
    problems += check.compare(outputs, reference.get(cmd.name, {}))
    rows = 0 if problems else check.count_rows(cmd.kind, outputs[cmd.primary])
    shutil.rmtree(out_dir)
    return CommandResult(
        cmd.name, not problems, problems, setup_s=result["imported"] - spawned,
        wall_s=result["wall_s"], rows=rows, maxrss_kb=result["maxrss_kb"],
        trace=result.get("trace", {}),
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def verify_checks() -> list[str]:
    report = check.load_reference("verify-all")["verify-all-threads2"]["report.json"]
    return [c["name"] for c in json.loads(report)["checks"]]


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, grouped by layer."""
    units: dict[str, str] = {}
    extra = {
        "ifs_core.check_rational_independence": {
            "ifs_core.independence_checks_per_system": "ratio"},
        "regularity.interval": {
            "regularity.interval.rung64.calls": "count",
            "regularity.interval.rung256.calls": "count",
            "regularity.interval.rung1024.calls": "count",
            "regularity.ambiguous.count": "count",
            "regularity.first_rung_ratio": "ratio"},
        "oracle.group_by_regularity": {"oracle.records": "count"},
        "sequences.counting": {"sequences.log_multiplicity.calls": "count"},
        "zeta.eval_series": {"zeta.eval_series.terms": "count"},
        "spectra.legendre_transform": {"spectra.classes": "count"},
        "dimensions.sample_off_jump_xs": {
            "dimensions.pole_terms": "count",
            "dimensions.pole_lattices_per_zeta": "ratio"},
    }
    for _, _, name, _ in tracer.LAYERS:
        if name == tracer.ROOT:
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units.update(extra.get(name, {}))
    for name in verify_checks():
        units[f"{tracer.CHECK_PREFIX}{name}.s"] = "s"
    units["verify.busy_s"] = "s"
    units["verify.parallel_efficiency"] = "ratio"
    units["cli.main.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0  # 0 when the layer did not run


def layer_values(p: Pass, cmds: list[workloads.Command]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_ratio excluded)."""
    tot: dict[str, float] = {}
    for c in p.commands:
        for key, value in c.trace.items():
            tot[key] = tot.get(key, 0) + value
    pool_s = sum(threads * res.wall_s for cmd, res in zip(cmds, p.commands)
                 if (threads := _threads(cmd)))
    values = {}
    for name in layer_units():
        if name.startswith(tracer.CHECK_PREFIX):
            values[name] = tot.get(name[:-2] + ".wall_s", 0.0)
        else:
            values[name] = tot.get(name, 0)
    values["ifs_core.independence_checks_per_system"] = _ratio(
        tot.get("ifs_core.check_rational_independence.calls", 0),
        tot.get("ifs_core.distinct_systems", 0))
    values["regularity.first_rung_ratio"] = _ratio(
        tot.get("regularity.interval.rung64.calls", 0),
        tot.get("regularity.interval.calls", 0))
    values["dimensions.pole_lattices_per_zeta"] = _ratio(
        tot.get("dimensions.pole_lattices.calls", 0),
        tot.get("dimensions.distinct_zetas", 0))
    values["verify.parallel_efficiency"] = _ratio(tot.get("verify.busy_s", 0.0), pool_s)
    del values["trace.overhead_ratio"]
    return values


def _threads(cmd: workloads.Command) -> int:
    return int(cmd.argv[cmd.argv.index("--threads") + 1]) if "--threads" in cmd.argv else 0


def metrics(passes: list[Pass], cmds: list[workloads.Command], setups: list[float],
            trace: bool) -> dict:
    """Medians over the run's passes."""
    plain = [p for p in passes if not p.traced]
    if not trace:
        setups = setups + [c.setup_s for p in plain for c in p.commands
                           if c.setup_s is not None]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "rows_per_s": statistics.median(_ratio(p.rows, p.wall_s) for p in plain),
            "peak_rss_mb": statistics.median(
                max(c.maxrss_kb for c in p.commands) / 1024 for p in plain),
        }
        units = END_TO_END_UNITS
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_values(p, cmds) for p in traced]
        values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        values["trace.overhead_ratio"] = _ratio(
            statistics.median(p.wall_s for p in traced),
            statistics.median(p.wall_s for p in plain))
        units = layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def machine(versions: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": versions.get("numpy"), "mpmath": versions.get("mpmath"),
            "git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cmds = workloads.commands(name, seed)
    reference = check.load_reference(name)
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    spans_dir = WORK / "traces" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    start = _clock()
    deadline = start + RUN_LIMIT_S
    try:
        # import-only runs; the first is an untimed warm-up that byte-compiles
        # the package, which users do not pay on every run
        setups = []
        for i in range(1 + SETUP_SAMPLES):
            spawned, warm = spawn_worker(
                {"src": str(SRC), "argv": None, "trace": False,
                 "result": str(run_dir / "import.json")},
                run_dir, run_dir / "import.spec.json", COMMAND_TIMEOUT_S)
            if isinstance(warm, str):
                raise RuntimeError(f"cannot import mfzeta: {warm}")
            if i:
                setups.append(warm["imported"] - spawned)
        passes: list[Pass] = []
        longest = 0.0
        while True:
            traced = trace and sum(p.traced for p in passes) < sum(not p.traced for p in passes)
            t0 = _clock()
            results = [
                run_command(cmd, run_dir, reference, traced, deadline,
                            spans_dir / f"{cmd.name}.json" if traced else None)
                for cmd in cmds
            ]
            passes.append(Pass(traced, results))
            now = _clock()
            longest = max(longest, now - t0)
            both = not trace or len({p.traced for p in passes}) == 2
            # another pass starts only if it fits, so a run ends within --seconds
            if now + longest > deadline or (both and now - start + longest > seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = [c for p in passes for c in p.commands]
    failed = [c for c in attempted if not c.ok]
    plain = [p for p in passes if not p.traced]
    return {
        "workload": name, "seed": seed, "trace": trace, "machine": machine(warm["versions"]),
        "passes": len(passes), "attempted": len(attempted), "failed": len(failed),
        "problems": sorted({f"{c.name}: {msg}" for c in failed for msg in c.problems}),
        # each command's own median wall time, so the parts of a workload stay visible
        "commands": {cmd.name: statistics.median(p.commands[i].wall_s for p in plain)
                     for i, cmd in enumerate(cmds)},
        "metrics": metrics(passes, cmds, setups, trace),
    }


def report(res: dict) -> list[str]:
    m = res["machine"]
    note = f"  ({m['nproc']}-core box)" if res["workload"] == "verify-all" else ""
    lines = [
        f"# workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}  "
        f"passes {res['passes']}",
        f"# machine nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"mpmath={m['mpmath']} commit={m['git_commit']} src_sha256={m['src_sha256']}",
    ]
    for problem in res["problems"]:
        lines.append(f"# FAILED {problem}")
    for command, wall_s in res["commands"].items():
        lines.append(f"# command {command:40s} wall_s {wall_s:.6g} s (median){note}")
    for name, metric in res["metrics"].items():
        lines.append(f"{res['workload']:20s} {name:48s} {metric['value']:>14.6g} "
                     f"{metric['unit']}{note}")
    lines.append(f"{res['workload']:20s} {'failed_ratio':48s} "
                 f"{_ratio(res['failed'], res['attempted']):>14.6g} ratio"
                 f"  ({res['failed']}/{res['attempted']} commands){note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mfzeta" / "cli.py").is_file():
        print(f"error: no mfzeta source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (OSError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        print("\n".join(report(res)), flush=True)
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = results[0]["metrics"]
    else:
        summary["metrics"] = {r["workload"]: r["metrics"] for r in results}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
