"""The benchmark tracer wraps mfzeta functions by name; each name must resolve.

``bench/tracer.py`` is loaded read-only (its ``install`` is never called), so a
rename inside the package fails here instead of only in a traced benchmark run.
"""
import importlib
import importlib.util
import inspect
import sys
from fractions import Fraction as F
from pathlib import Path

import mfzeta.regularity
from mfzeta.ifs_core import WeightedIFS
from mfzeta.regularity import RegularityValue, check_hypothesis_H

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


def test_hypothesis_separations_go_through_values_equal(monkeypatch):
    """The tracer counts ambiguity (``regularity.ambiguous.count``) on
    ``values_equal``, so the separations of a sweep must be made through it."""
    calls = []
    original = mfzeta.regularity.values_equal

    def spy(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(mfzeta.regularity, "values_equal", spy)
    system = WeightedIFS(ratios=(F(1, 2), F(1, 3)), probs=(F(1, 3), F(2, 3)))
    report = check_hypothesis_H(system, 8)
    assert report.holds
    # one call per adjacent pair of the sorted class values
    assert len(calls) == len(report.classes) - 1 > 0
