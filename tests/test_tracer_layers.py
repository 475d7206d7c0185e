"""The benchmark tracer wraps mfzeta functions by name; each name must resolve.

``bench/tracer.py`` is loaded read-only (its ``install`` is never called), so a
rename inside the package fails here instead of only in a traced benchmark run.
"""
import importlib
import importlib.util
import inspect
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import mfzeta.regularity
from mfzeta.ifs_core import WeightedIFS
from mfzeta.regularity import (
    RegularityValue,
    check_hypothesis_H,
    class_columns,
    prepare,
    primitive_matrix,
)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolves(modname: str, dotted: str) -> bool:
    owner = importlib.import_module(f"mfzeta.{modname}")
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_tracer_layers_and_counters_resolve():
    tracer = _load_tracer()
    names = [(modname, attr) for modname, attr, _, _ in tracer.LAYERS]
    names += [
        (modname, f"{cls}.{meth}")
        for modname, classes, meth, _ in tracer.COUNTERS
        for cls in classes
    ]
    missing = [f"mfzeta.{m}.{a}" for m, a in names if not _resolves(m, a)]
    assert not missing
    assert len(names) == len(tracer.LAYERS) + 5


def test_interval_rung_counter_reads_prec_bits():
    """The tracer's ``rung{N}`` counters read ``prec_bits`` from ``interval``'s
    arguments, positionally or by keyword, so its parameters must stay put."""
    params = list(inspect.signature(RegularityValue.interval).parameters)
    assert params == ["self", "prec_bits"]


CERTIFIED = WeightedIFS(ratios=(F(1, 2), F(1, 3)), probs=(F(1, 3), F(2, 3)))


def _spy_values_equal(monkeypatch) -> list:
    calls = []
    original = mfzeta.regularity.values_equal

    def spy(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(mfzeta.regularity, "values_equal", spy)
    return calls


def test_hypothesis_separations_go_through_values_equal(monkeypatch):
    """The tracer counts ambiguity (``regularity.ambiguous.count``) on
    ``values_equal``, so the separations of a sweep that the float filter
    leaves must be made through it: with float bounds on log p that overlap
    everything, that is every one."""
    calls = _spy_values_equal(monkeypatch)
    monkeypatch.setattr(mfzeta.regularity, "_float_log", lambda p: (-math.inf, math.inf))
    report = check_hypothesis_H(CERTIFIED, 8)
    assert report.holds
    # one call per adjacent pair of the sorted class values
    assert len(calls) == len(report.columns.k) - 1 > 0
    # a pair with a rational side is apart without one: every alpha of this
    # system is the rational (k1 + k2)/(k1 + 2 k2)
    del calls[:]
    rational = WeightedIFS(ratios=(F(1, 2), F(1, 4)), probs=(F(1, 2), F(1, 2)))
    assert check_hypothesis_H(rational, 8).holds
    assert calls == []


def test_only_overlapping_separations_reach_values_equal(monkeypatch):
    """With the float filter on, exactly the adjacent pairs whose float
    enclosures overlap go through ``values_equal``; when one of them cannot
    be separated, the check fails with the ladder's message."""
    calls = _spy_values_equal(monkeypatch)
    log_bounds = mfzeta.regularity._float_log
    # bounds on log p a thousandth wider: 2 of the 80 adjacent pairs overlap
    monkeypatch.setattr(
        mfzeta.regularity,
        "_float_log",
        lambda p: (log_bounds(p)[0] * (1 - 1e-3), log_bounds(p)[1] * (1 + 1e-3)),
    )
    columns = class_columns(prepare(CERTIFIED), primitive_matrix(2, 16))
    ranked = np.argsort(columns.alpha, kind="stable")
    lo, hi = columns.float_enclosures(ranked)
    values = [columns.value(i) for i in ranked.tolist()]
    overlapping = [
        (values[i], values[i + 1])
        for i in range(len(values) - 1)
        if not (hi[i] < lo[i + 1] or hi[i + 1] < lo[i])
    ]
    assert 0 < len(overlapping) < len(values) - 1
    assert check_hypothesis_H(CERTIFIED, 16).holds
    assert calls == overlapping
    # intervals that never separate: the first overlapping pair is ambiguous
    del calls[:]
    monkeypatch.setattr(RegularityValue, "interval", lambda self, prec_bits: (F(-9), F(9)))
    report = check_hypothesis_H(CERTIFIED, 16)
    near = overlapping[0][0].to_float()
    assert not report.holds and report.collisions == [] and report.columns is None
    assert report.ambiguous == [f"cannot separate regularity values near {near!r} at 1024 bits"]
    assert calls == overlapping[:1]
