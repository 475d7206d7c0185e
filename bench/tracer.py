"""Spans around mfzeta's public functions, installed from outside the package.

``install()`` wraps every function named in ``LAYERS`` and rebinds the
wrapper in the defining module and in every ``mfzeta`` module that bound the
function with ``from .x import y``; methods are replaced on their class.  No
file of the package changes.  Spans stay in memory (``Recorder.spans``) until
the command ends; ``totals()`` turns one command's spans into per-layer
calls, self times and counts.

Self time is span time minus the time covered by child spans.  Where spans of
different threads overlap (the ``verify`` worker pool), each instant is shared
equally among the spans that are innermost at that instant, so self times of
one command never sum to more than its wall time.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name, info kind); info kinds are read in _INFO.
LAYERS = (
    ("ifs_core", "parse_system", "ifs_core.parse_system", None),
    ("ifs_core", "factorize", "ifs_core.factorize", None),
    ("ifs_core", "collapse_probabilities", "ifs_core.collapse_probabilities", None),
    ("ifs_core", "check_rational_independence", "ifs_core.check_rational_independence",
     "system"),
    ("regularity", "regularity_of", "regularity.regularity_of", None),
    ("regularity", "collapsed_regularity", "regularity.collapsed_regularity", None),
    ("regularity", "check_hypothesis_H", "regularity.check_hypothesis_H", None),
    ("regularity", "values_equal", "regularity.values_equal", None),
    ("regularity", "RegularityValue.interval", "regularity.interval", "rung"),
    ("oracle", "enumerate_stage", "oracle.enumerate_stage", "records"),
    ("oracle", "group_by_regularity", "oracle.group_by_regularity", None),
    ("sequences", "AlphaLengthSequence.counting", "sequences.counting", None),
    ("zeta", "abscissa_closed", "zeta.abscissa_closed", None),
    ("zeta", "closed_form_zeta", "zeta.closed_form_zeta", None),
    ("zeta", "multinomial_zeta", "zeta.multinomial_zeta", None),
    ("zeta", "eval_series", "zeta.eval_series", "terms"),
    ("spectra", "spectrum_sweep", "spectra.spectrum_sweep", "classes"),
    ("spectra", "concave_envelope", "spectra.concave_envelope", None),
    ("spectra", "EnvelopeFunction.__call__", "spectra.envelope_eval", None),
    ("spectra", "solve_b", "spectra.solve_b", None),
    ("spectra", "legendre_transform", "spectra.legendre_transform", None),
    ("dimensions", "pole_lattices", "dimensions.pole_lattices", "lattices"),
    ("dimensions", "counting_explicit", "dimensions.counting_explicit", "trunc"),
    ("dimensions", "build_tapestry", "dimensions.build_tapestry", None),
    ("dimensions", "sample_off_jump_xs", "dimensions.sample_off_jump_xs", None),
    ("cli", "main", "cli.main", None),
)

# Hot boundaries that are counted but not spanned.
COUNTERS = (
    ("sequences", ("MultinomialLaw", "CollapsedLaw", "GeometricLaw", "FloorSumLaw",
                   "ExplicitLaw"), "log_multiplicity", "sequences.log_multiplicity"),
)

ROOT = "cli.main"
CHECK_PREFIX = "verify.check."


def _zeta_key(rz) -> int:
    return hash((tuple(rz.num.coeffs), tuple(rz.den.coeffs), rz.base))


def _trunc(args, kwargs) -> int:
    # counting_explicit(system, key, x, Z=20000, jump_guard=0.02)
    return kwargs["Z"] if "Z" in kwargs else args[3] if len(args) > 3 else 20000


def _rung(args, kwargs) -> int:
    # RegularityValue.interval(self, prec_bits)
    return args[1] if len(args) > 1 else kwargs["prec_bits"]


# info kind -> f(args, kwargs, result); the value is stored on the span.
_INFO = {
    "system": lambda a, k, r: hash(tuple(a[0] if a else k["values"])),
    "rung": lambda a, k, r: _rung(a, k),
    "records": lambda a, k, r: len(r.intervals) + len(r.gaps),
    "terms": lambda a, k, r: r.terms,
    "classes": lambda a, k, r: len(r),
    "lattices": lambda a, k, r: (len(r), _zeta_key(a[0] if a else k["rz"])),
    "trunc": lambda a, k, r: _trunc(a, k),
}


@dataclass
class Recorder:
    """In-memory span store for one command.

    A span is ``(id, parent, name, start, end, thread, info)``; ``info`` is
    the layer's count (or ``{"error": ...}`` when the call raised, or
    ``{"cpu": ...}`` for verify checks).  Ids come from one counter, so they
    are unique across threads.
    """

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    _ids: itertools.count = field(default_factory=itertools.count)
    _local: threading.local = field(default_factory=threading.local)

    def counts(self) -> dict[str, int]:
        # itertools.count hands out 0, 1, ...: the next value is the call count
        return {name: next(c) for name, c in self.counters.items()}

    def span(self, name: str, fn, info=None, cpu: bool = False):
        spans, ids, local = self.spans, self._ids, self._local
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.tid = threading.get_ident()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            c0 = cpu_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, local.tid,
                              {"error": type(exc).__name__}))
                raise
            t1 = clock()
            stack.pop()
            if cpu:
                data = {"cpu": cpu_clock() - c0}
            else:
                data = info(args, kwargs, result) if info else None
            spans.append((sid, parent, name, t0, t1, local.tid, data))
            return result

        return traced

    def counter(self, name: str, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` wherever an mfzeta module bound it."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "mfzeta" or modname.startswith("mfzeta.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install() -> Recorder:
    """Wrap every layer function and verify check; return the span store.

    Raises ``LookupError`` when a named function no longer exists, so a
    renamed layer fails the traced run instead of reading as zero calls.
    """
    rec = Recorder()
    modules = {m: importlib.import_module(f"mfzeta.{m}")
               for m in {layer[0] for layer in LAYERS} | {"verify", "sequences"}}
    for modname, attr, name, kind in LAYERS:
        owner = modules[modname]
        *cls_path, fname = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, fname, None) if owner is not None else None
        if original is None:
            raise LookupError(f"mfzeta.{modname}.{attr} not found")
        wrapper = rec.span(name, original, _INFO.get(kind))
        if cls_path:
            setattr(owner, fname, wrapper)
        else:
            _rebind(original, wrapper)
    for modname, classes, meth, name in COUNTERS:
        for cls_name in classes:
            cls = getattr(modules[modname], cls_name, None)
            if cls is None or not hasattr(cls, meth):
                raise LookupError(f"mfzeta.{modname}.{cls_name}.{meth} not found")
            setattr(cls, meth, rec.counter(name, getattr(cls, meth)))
    verify = modules["verify"]
    verify.CHECKS = tuple(
        (check, suite, rec.span(CHECK_PREFIX + check, fn, cpu=True))
        for check, suite, fn in verify.CHECKS
    )
    return rec


# ---------------------------------------------------------------------------
# Analysis of one command's spans
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time of every span id, sharing overlapping leaves equally.

    A span without a parent that is not the root started in a worker thread
    the command created, so its parent is taken to be the root.
    """
    root = next((s[0] for s in spans if s[2] == ROOT and s[1] is None), None)
    parent = {}
    for sid, par, *_ in spans:
        parent[sid] = root if par is None and sid != root else par
    events = []
    for sid, _, _, t0, t1, *_ in spans:
        # at equal times: ends before starts, inner spans closed first
        events.append((t0, 1, sid))
        events.append((t1, 0, -sid))
    events.sort()
    active_children: dict[int, int] = {}
    active: set[int] = set()
    leaves: set[int] = set()
    self_s = dict.fromkeys(parent, 0.0)
    prev = events[0][0] if events else 0.0
    for t, starting, key in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                self_s[leaf] += share
        prev = t
        sid = key if starting else -key
        par = parent[sid]
        if starting:
            active.add(sid)
            leaves.add(sid)
            if par is not None:
                active_children[par] = active_children.get(par, 0) + 1
                leaves.discard(par)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if par is not None:
                active_children[par] -= 1
                if active_children[par] == 0 and par in active:
                    leaves.add(par)
    return self_s


def totals(rec: Recorder) -> dict[str, float]:
    """Additive per-layer totals of one command, from its spans and counters.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.wall_s`` for every span
    name seen, plus the layer counts that the per-layer ratios are made of.
    """
    spans = rec.spans
    own = self_times(spans)
    out: dict[str, float] = {f"{name}.calls": n for name, n in rec.counts().items()}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    lattices_under: dict[int, int] = {}
    zetas, systems = set(), set()
    for sid, parent, name, t0, t1, _, data in spans:
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", own[sid])
        add(f"{name}.wall_s", t1 - t0)
        if isinstance(data, dict):
            if (name == "regularity.values_equal"
                    and data.get("error") == "AmbiguousRegularityError"):
                add("regularity.ambiguous.count", 1)
            if "cpu" in data:
                add("verify.busy_s", data["cpu"])
        elif data is None:
            continue
        elif name == "regularity.interval":
            add(f"regularity.interval.rung{data}.calls", 1)
        elif name == "oracle.enumerate_stage":
            add("oracle.records", data)
        elif name == "zeta.eval_series":
            add("zeta.eval_series.terms", data)
        elif name == "spectra.spectrum_sweep":
            add("spectra.classes", data)
        elif name == "dimensions.pole_lattices":
            count, zeta = data
            zetas.add(zeta)
            lattices_under[parent] = lattices_under.get(parent, 0) + count
        elif name == "ifs_core.check_rational_independence":
            systems.add(data)
    for sid, _, name, _, _, _, data in spans:
        if name == "dimensions.counting_explicit" and isinstance(data, int):
            add("dimensions.pole_terms", lattices_under.get(sid, 0) * (2 * data + 1))
    out["dimensions.distinct_zetas"] = len(zetas)
    out["ifs_core.distinct_systems"] = len(systems)
    out["trace.spans"] = len(spans)
    return out
