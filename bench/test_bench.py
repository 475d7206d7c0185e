"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py``.

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a perturbed reference output makes its command count as failed, that a
command past its timeout fails without hanging the run, and that traced self
times never sum to more than the command's wall time.
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import check
import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, name: str) -> workloads.Command:
    return next(c for c in workloads.commands(workload, 0) if c.name == name)


def _run(cmd, reference, traced=False, tmp_path=None):
    deadline = run._clock() + run.RUN_LIMIT_S
    spans = tmp_path / "spans.json" if traced else None
    return run.run_command(cmd, tmp_path, reference, traced, deadline, spans)


def _last_json(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(run.ROOT / "bench" / "run.py"), *argv],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_printed_with_its_unit():
    argv = ["--workload", "spectrum", "--seed", "3", "--seconds", "1"]
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _last_json(argv + ["--trace", str(trace)])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_perturbed_reference_fails(tmp_path):
    cmd = _command("spectrum", "beta0-k64")
    reference = check.load_reference("spectrum")
    assert _run(cmd, reference, tmp_path=tmp_path).ok

    files = reference[cmd.name]
    lines = files["spectrum.csv"].splitlines(keepends=True)
    alpha, rest = lines[5].split(",", 1)
    perturbed = dict(files, **{"spectrum.csv": "".join(
        lines[:5] + [f"{float(alpha) + 1e-9!r},{rest}"] + lines[6:])})
    result = _run(cmd, {cmd.name: perturbed}, tmp_path=tmp_path)
    assert not result.ok and "alpha" in result.problems[0]


def test_tolerances():
    ref = "x,direct,explicit,error\n2.5,1,1.001,0.001\n# manifest: m\n"
    assert check.compare({"c.csv": ref.replace("1.001,", "1.0010000001,")}, {"c.csv": ref}) == []
    assert check.compare({"c.csv": ref.replace("1.001,", "1.00100001,")}, {"c.csv": ref})
    assert check.compare({"c.csv": ref.replace("2.5,", "2.5000000000001,")}, {"c.csv": ref}) == []
    assert check.compare({"c.csv": ref.replace("2.5,", "2.50000000001,")}, {"c.csv": ref})
    assert check.compare({"c.csv": ref.replace(",1,", ",2,")}, {"c.csv": ref})


def test_timeout_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 1.0)
    cmd = _command("spectrum", "beta0-k256")  # ~3.5 s
    start = run._clock()
    result = _run(cmd, check.load_reference("spectrum"), tmp_path=tmp_path)
    assert not result.ok and "timed out" in result.problems[0]
    assert run._clock() - start < 10


def test_traced_self_times_within_wall(tmp_path):
    spectrum = _command("spectrum", "trident-k64")
    verify = dataclasses.replace(  # a threaded command; its report differs from the reference
        _command("verify-all", "verify-all-threads2"),
        argv=("verify", "--suite", "oracle", "--threads", "2", "--out", "report.json"),
        expect_rc=0)
    reference = check.load_reference("spectrum")
    results = {}
    for cmd in (spectrum, verify):
        result = results[cmd.kind] = _run(cmd, reference, traced=True, tmp_path=tmp_path)
        own = sum(v for k, v in result.trace.items() if k.endswith(".self_s"))
        assert 0 < own <= result.wall_s
        assert result.trace["cli.main.calls"] == 1
        assert (tmp_path / "spans.json").exists()
    assert results["spectrum"].ok
    # cli bound these with ``from .x import y``; the spans show they were rebound
    assert results["spectrum"].trace["spectra.spectrum_sweep.calls"] == 1
    assert results["spectrum"].trace["ifs_core.parse_system.calls"] == 1
    assert results["verify"].trace["verify.check.stage-counts-multinomial.calls"] == 1


def test_concurrent_spans_share_time():
    # root 0..10 in one thread; checks 1 (0..6) and 2 (0..5), 3 (5..10) in two others
    spans = [
        (1, None, "a", 0.0, 6.0, 2, None),
        (2, None, "b", 0.0, 5.0, 3, None),
        (3, None, "c", 5.0, 10.0, 3, None),
        (0, None, tracer.ROOT, 0.0, 10.0, 1, None),
    ]
    own = tracer.self_times(spans)
    assert own == {0: 0.0, 1: 3.0, 2: 2.5, 3: 4.5}
    assert sum(own.values()) == 10.0
