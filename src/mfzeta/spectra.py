"""Multifractal spectra, concave envelopes, and the Legendre pipeline.

The spectrum sweep reports the abscissa of convergence of every primitive
exponent class, working out the alphas and abscissas of all the classes in
one numpy pass that matches the single-class entry points bit for bit.  It
returns a ``SpectrumTable``: alpha and f as sorted float arrays, the class
keys as int columns, and the key and description text built from those
columns a block of rows at a time; ``SpectrumPoint``s are made only when a
caller iterates or indexes the table.  Envelopes are upper concave hulls
read from the sorted columns; the Legendre side solves sum p_i^q r_i^b = 1
and transforms.  The Moran dimension of the ratios rounds out the
comparison toolkit.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .ifs_core import AtomicMeasureSpec, BudgetExceededError, WeightedIFS
from .oracle import enumerate_stage, group_by_regularity
from .regularity import (
    FractionKey,
    InfiniteKey,
    OnePlusLogKey,
    PreparedIFS,
    RegularityKey,
    VectorKey,
    check_hypothesis_H,
    class_columns,
    is_monofractal,
    prepare,
    primitive_matrix,
)
from .zeta import abscissa_descriptions, closed_abscissas


@dataclass(frozen=True)
class SpectrumPoint:
    alpha: float
    f: float
    key: RegularityKey
    alpha_desc: str = ""
    f_desc: str = ""


# rows a table builds text or points for at a time, so that a sweep's text is
# never held whole
ROW_BLOCK = 4096


class SpectrumTable(abc.Sequence):
    """The rows of a sweep, one per class, sorted by (alpha, key string).

    ``alpha`` and ``f`` are float arrays; ``text(lo, hi)`` builds the key,
    alpha_desc and f_desc columns of rows lo..hi-1 as lists of strings, and
    ``keys(lo, hi)`` their keys.  As a sequence the table is its points,
    built on demand a block at a time.  A subclass built from unsorted rows
    sorts them with ``_alpha_order``.
    """

    def __init__(self, alpha: np.ndarray, f: np.ndarray):
        self.alpha, self.f = alpha, f

    def keys(self, lo: int, hi: int) -> list[RegularityKey]:
        raise NotImplementedError

    def text(self, lo: int, hi: int) -> tuple[list[str], list[str], list[str]]:
        raise NotImplementedError

    def points(self, lo: int, hi: int) -> list[SpectrumPoint]:
        _, alpha_desc, f_desc = self.text(lo, hi)
        return list(map(
            SpectrumPoint, self.alpha[lo:hi].tolist(), self.f[lo:hi].tolist(),
            self.keys(lo, hi), alpha_desc, f_desc,
        ))

    def __len__(self) -> int:
        return len(self.alpha)

    def __getitem__(self, i: int) -> SpectrumPoint:
        i = range(len(self))[i]
        return self.points(i, i + 1)[0]

    def __iter__(self):
        for lo in range(0, len(self), ROW_BLOCK):
            yield from self.points(lo, lo + ROW_BLOCK)


class ClassTable(SpectrumTable):
    """An IFS sweep's classes, with their primitive class vectors as the rows
    of the int matrix ``k``; ``multiplicities`` are the maps per slot of a
    folding system, else None."""

    def __init__(self, alpha, f, k: np.ndarray, label: str, multiplicities):
        width = k.shape[1]
        # the str of a VectorKey and of the vector's tuple
        self._key = "(" + ",".join(["%d"] * width) + ")"
        self._desc = f"{label} (" + ", ".join(["%d"] * width) + ("," if width == 1 else "") + ")"
        order = _alpha_order(alpha, lambda i: self._key % tuple(k[i].tolist()))
        super().__init__(alpha[order], f[order])
        self.k, self.multiplicities = k[order], multiplicities

    def keys(self, lo, hi):
        return [VectorKey(tuple(v)) for v in self.k[lo:hi].tolist()]

    def text(self, lo, hi):
        k = self.k[lo:hi]
        vectors = list(map(tuple, k.tolist()))
        key, desc = self._key, self._desc
        return (
            [key % v for v in vectors],
            [desc % v for v in vectors],
            abscissa_descriptions(k, self.multiplicities),
        )


def _atomic_key(num: int, den: int) -> str:
    """The key string of an atomic row: k1/K, or a one-plus-log level (den 0)."""
    return f"{num}/{den}" if den else f"1+log_{{3^{num}}}2"


class AtomicTable(SpectrumTable):
    """An atomic sweep's classes: rows num/den = k1/K in lowest terms, and
    one-plus-log levels num with den 0; ``f_desc`` is that of the k1/K rows."""

    def __init__(self, alpha, f, num: np.ndarray, den: np.ndarray, f_desc: str):
        order = _alpha_order(alpha, lambda i: _atomic_key(num[i], den[i]))
        super().__init__(alpha[order], f[order])
        self.num, self.den, self.f_desc = num[order], den[order], f_desc

    def keys(self, lo, hi):
        return [
            FractionKey(Fraction(n, d)) if d else OnePlusLogKey(n)
            for n, d in zip(self.num[lo:hi].tolist(), self.den[lo:hi].tolist())
        ]

    def text(self, lo, hi):
        rows = list(zip(self.num[lo:hi].tolist(), self.den[lo:hi].tolist()))
        return (
            [_atomic_key(n, d) for n, d in rows],
            [
                (f"k1/K = {n}/{d}" if d > 1 else f"k1/K = {n}") if d else f"1 + log_(3^{n}) 2"
                for n, d in rows
            ],
            [self.f_desc if d else "entire zeta" for _, d in rows],
        )


class PointTable(SpectrumTable):
    """A sweep given as its sorted points: a monofractal system's one point,
    or the oracle fallback's estimates."""

    def __init__(self, points: list[SpectrumPoint]):
        super().__init__(np.array([p.alpha for p in points]), np.array([p.f for p in points]))
        self._given = points

    def keys(self, lo, hi):
        return [p.key for p in self._given[lo:hi]]

    def text(self, lo, hi):
        points = self._given[lo:hi]
        return (
            [str(p.key) for p in points],
            [p.alpha_desc for p in points],
            [p.f_desc for p in points],
        )


@dataclass(frozen=True)
class EnvelopeFunction:
    """Upper concave hull, piecewise linear between breakpoints; ``rows``
    holds the index, in the points it was built from, of the point behind
    each breakpoint."""

    breakpoints: tuple[tuple[float, float], ...]
    rows: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if len(self.breakpoints) < 1:
            raise ValueError("envelope needs at least one breakpoint")

    @cached_property
    def _xs(self) -> tuple[float, ...]:
        # kept on first evaluation, not at construction: most envelopes are
        # only written out, and a sweep's hull can have ~20k vertices
        return tuple(x for x, _ in self.breakpoints)

    def __call__(self, t: float) -> float:
        xs = self._xs
        lo, hi = xs[0], xs[-1]
        if not (lo <= t <= hi):
            raise ValueError(f"t = {t} outside envelope domain [{lo}, {hi}]")
        i = bisect_right(xs, t)
        if i >= len(xs):
            return self.breakpoints[-1][1]
        if i == 0:
            return self.breakpoints[0][1]
        (x0, y0), (x1, y1) = self.breakpoints[i - 1], self.breakpoints[i]
        if x1 == x0:
            return max(y0, y1)
        w = (t - x0) / (x1 - x0)
        return y0 + w * (y1 - y0)

    def segment_slopes(self) -> list[float]:
        out = []
        for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:]):
            out.append((y1 - y0) / (x1 - x0))
        return out

    def endpoint_slopes(self) -> tuple[float, float]:
        """Slopes of the first and last hull segments."""
        slopes = self.segment_slopes()
        if not slopes:
            return math.nan, math.nan
        return slopes[0], slopes[-1]


@dataclass(frozen=True)
class LegendrePipeline:
    q_grid: tuple[float, ...]
    b_values: tuple[float, ...]
    t_values: tuple[float, ...]
    b_star_values: tuple[float, ...]


# ---------------------------------------------------------------------------
# Spectrum sweeps
# ---------------------------------------------------------------------------


def sweep_width(system: PreparedIFS | AtomicMeasureSpec) -> int:
    """Length of the class vectors a sweep enumerates.

    The width of the class space of an IFS (see ``PreparedIFS``); an atomic
    key k1/K is the vector (k1, K - k1).  A sweep to depth K_max enumerates
    at most C(K_max + width, width) candidate vectors.
    """
    if isinstance(system, AtomicMeasureSpec):
        return 2
    return system.width


def _ifs_sweep(ifs: WeightedIFS | PreparedIFS, K_max: int) -> SpectrumTable:
    prepared = prepare(ifs)
    mono = is_monofractal(prepared)
    if mono is not None:
        # f(D) = D exactly: emit one value for both coordinates
        d = mono.to_float()
        return PointTable([
            SpectrumPoint(
                alpha=d,
                f=d,
                key=VectorKey((1,) * prepared.width),
                alpha_desc="common single-map regularity",
                f_desc="Moran dimension of the support (equals alpha)",
            )
        ])
    if prepared.ifs.equal_ratios():
        # independent distinct probabilities make every class distinct
        if prepared.dependence is not None:
            raise ValueError(prepared.dependence)
        columns = class_columns(prepared, primitive_matrix(prepared.width, K_max))
        label = "collapsed class"
    else:
        columns = check_hypothesis_H(prepared, K_max).columns
        if columns is None:
            return PointTable(_oracle_fallback_sweep(prepared, K_max))
        label = "class"
    # mass and length go before the text is made: holding them too raises
    # peak memory
    k, alpha = columns.k, columns.alpha
    del columns
    # a primitive vector is its own key
    return ClassTable(
        alpha, closed_abscissas(prepared, k), k, label,
        prepared.multiplicities if prepared.folds else None,
    )


def _alpha_order(alpha: np.ndarray, key_str) -> list[int]:
    """The row order of a sort by (alpha, key_str(row)): a stable argsort on
    alpha, with key strings compared only within runs of equal alpha."""
    order = np.argsort(alpha, kind="stable")
    a = alpha[order]
    starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))
    ends = np.append(starts[1:], len(a))
    tied = ends - starts > 1
    order = order.tolist()
    for s, e in zip(starts[tied].tolist(), ends[tied].tolist()):
        order[s:e] = sorted(order[s:e], key=key_str)
    return order


def _oracle_fallback_sweep(prepared: PreparedIFS, K_max: int) -> list[SpectrumPoint]:
    """Distinct-regularity hypothesis failed: regroup stages exactly and
    estimate each class abscissa by a root test on its deepest ladder entry.

    The estimates replace closed-form abscissas, so a warning goes to stderr.
    """
    records = []
    depth = 0
    for K in range(1, K_max + 1):
        try:
            stage = enumerate_stage(prepared, K)
        except BudgetExceededError:
            break
        records.extend(stage.all_records())
        depth = K
    groups = group_by_regularity(records)
    # each group's alpha is that of the first record carrying its key hint
    first = {rec.key_hint: rec for rec in reversed(records) if rec.regularity is not None}
    points = []
    for key, entries in groups.items():
        if isinstance(key, InfiniteKey):
            continue
        # merged rungs deeper than the stage cap are incomplete undercounts,
        # so take the best rung rather than the deepest one
        sigma, length = 0.0, entries[0][0]
        for ell, mult in entries:
            if mult > 1:
                est = math.log(mult) / -math.log(ell)
                if est > sigma:
                    sigma, length = est, ell
        points.append(
            SpectrumPoint(
                alpha=first[key].regularity.to_float(),
                f=max(0.0, sigma),
                key=key,
                alpha_desc=f"oracle class to stage {depth}",
                f_desc=f"root test at length {length}",
            )
        )
    points.sort(key=lambda p: (p.alpha, str(p.key)))
    print(
        f"warning: hypothesis H fails up to K_max = {K_max}: each f is a root-test "
        f"estimate from oracle stages 1..{depth}, not a closed-form abscissa",
        file=sys.stderr,
    )
    return points


def _atomic_sweep(spec: AtomicMeasureSpec, K_max: int) -> AtomicTable:
    # the fractions k1/K in lowest terms with K <= K_max
    den, num = np.tril_indices(K_max + 1)
    keep = (num > 0) & (np.gcd(num, den) == 1)
    num, den = num[keep], den[keep]
    alpha = num / den  # correctly rounded, as float(Fraction(k1, K)) is
    if spec.family == "sigma1":
        # and the one-plus-log levels, as rows num = level, den = 0
        levels = np.arange(1, K_max + 1)
        num = np.concatenate((num, levels))
        den = np.concatenate((den, np.zeros_like(levels)))
        alpha = np.concatenate((alpha, 1 + math.log(2) / (levels * math.log(3))))
        f = np.zeros(len(alpha))
        f_desc = "pole of z/(1-z) at s=0"
    else:
        f = alpha * (math.log(spec.m) / math.log(spec.base))
        f_desc = f"(k1/K) log_{spec.base} {spec.m}"
    return AtomicTable(alpha, f, num, den, f_desc)


def spectrum_sweep(
    system: WeightedIFS | PreparedIFS | AtomicMeasureSpec, K_max: int = 64
) -> SpectrumTable:
    """One row per primitive class with stage sum <= K_max, sorted by alpha
    (then by key string)."""
    if isinstance(system, AtomicMeasureSpec):
        return _atomic_sweep(system, K_max)
    if isinstance(system, (WeightedIFS, PreparedIFS)):
        return _ifs_sweep(system, K_max)
    raise TypeError(f"unsupported system {system!r}")


# ---------------------------------------------------------------------------
# Concave envelope
# ---------------------------------------------------------------------------


def concave_envelope(points: Sequence[SpectrumPoint | tuple]) -> EnvelopeFunction:
    """Upper concave hull via monotone chain; alpha ties keep the max f.

    A ``SpectrumTable`` is read from its sorted columns; other points
    (``SpectrumPoint``s or (alpha, f) pairs) are sorted by alpha first.
    """
    if isinstance(points, SpectrumTable):
        order, alpha, f = None, points.alpha, points.f
    else:
        raw = np.array(
            [(p.alpha, p.f) if isinstance(p, SpectrumPoint) else (float(p[0]), float(p[1]))
             for p in points],
            dtype=float,
        ).reshape(-1, 2)
        order = np.argsort(raw[:, 0], kind="stable")
        alpha, f = raw[order, 0], raw[order, 1]
    if len(alpha) < 2:
        raise ValueError("concave envelope needs at least 2 points")
    # one run per distinct alpha, at its max f (the first row holding it)
    starts = np.flatnonzero(np.concatenate(([True], alpha[1:] != alpha[:-1])))
    xs = alpha[starts].tolist()
    ys = np.maximum.reduceat(f, starts).tolist()
    hull: list[int] = []
    for j, (x, y) in enumerate(zip(xs, ys)):
        while len(hull) >= 2:
            x0, y0, x1, y1 = xs[hull[-2]], ys[hull[-2]], xs[hull[-1]], ys[hull[-1]]
            # drop the middle point when it lies on or under the chord;
            # the slack absorbs float noise on exactly collinear sweeps
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) >= -1e-14:
                hull.pop()
            else:
                break
        hull.append(j)
    ends = np.append(starts[1:], len(alpha))
    rows = [
        lo if hi - lo == 1 else lo + int(np.argmax(f[lo:hi]))
        for lo, hi in zip(starts[hull].tolist(), ends[hull].tolist())
    ]
    if order is not None:
        rows = order[rows].tolist()
    return EnvelopeFunction(
        breakpoints=tuple((xs[j], ys[j]) for j in hull), rows=tuple(rows)
    )


# ---------------------------------------------------------------------------
# Legendre pipeline
# ---------------------------------------------------------------------------


# solve_b stops bisecting once |sum p_i^q r_i^b - 1| is this small
SOLVE_B_RESIDUAL_TOL = 1e-13


def solve_b(ifs: WeightedIFS, q):
    """Unique b with sum p_i^q r_i^b = 1, by bisection (decreasing in b): a
    float for a float q, an array for an array of them, bisected at once."""
    qs = np.atleast_1d(np.asarray(q, dtype=float))[:, None]
    logs_p = np.array([math.log(p) for p in ifs.probs])
    logs_r = np.array([math.log(r) for r in ifs.ratios])

    def g(b: np.ndarray) -> np.ndarray:
        # a term past the float range is inf, so its sum is > 1
        with np.errstate(over="ignore"):
            return np.exp(qs * logs_p + b[:, None] * logs_r).sum(axis=1) - 1

    lo, hi = np.full(len(qs), -1.0), np.full(len(qs), 1.0)
    while (low := g(lo) <= 0).any():
        lo[low] *= 2
    while (high := g(hi) >= 0).any():
        hi[high] *= 2
    open_ = np.ones(len(qs), dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        # where the residual stop is met, lo = hi = mid closes the bracket
        lo = np.where(open_ & (val >= -SOLVE_B_RESIDUAL_TOL), mid, lo)
        hi = np.where(open_ & (val <= SOLVE_B_RESIDUAL_TOL), mid, hi)
        open_ &= hi - lo >= 1e-16 * np.maximum(1.0, np.abs(lo))
        if not open_.any():
            break
    b = 0.5 * (lo + hi)
    return float(b[0]) if np.ndim(q) == 0 else b


# the q grid of ``legendre_transform``: -8 to 8 in steps of 0.05
LEGENDRE_Q_GRID = tuple(-8 + 0.05 * i for i in range(round(2 * 8 / 0.05) + 1))


def legendre_transform(ifs: WeightedIFS) -> LegendrePipeline:
    """b, t = -b', b*(t) = t q + b(q), over ``LEGENDRE_Q_GRID`` (b solved at
    once).

    t is exact: differentiating sum w_i = 1 with w_i = p_i^q r_i^b(q) gives
    b'(q) = -sum w_i log p_i / sum w_i log r_i.
    """
    qs = np.array(LEGENDRE_Q_GRID)
    b = solve_b(ifs, qs)
    logs_p = np.array([math.log(p) for p in ifs.probs])
    logs_r = np.array([math.log(r) for r in ifs.ratios])
    w = np.exp(qs[:, None] * logs_p + b[:, None] * logs_r)
    t = (w * logs_p).sum(axis=1) / (w * logs_r).sum(axis=1)
    return LegendrePipeline(
        q_grid=LEGENDRE_Q_GRID,
        b_values=tuple(b.tolist()),
        t_values=tuple(t.tolist()),
        b_star_values=tuple((t * qs + b).tolist()),
    )


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------


def moran_dimension(ratios: Sequence[Fraction]) -> float:
    """Root of sum r_i^s = 1 in [0,1], to 1e-12."""
    logs = [math.log(r) for r in ratios]

    def g(s: float) -> float:
        return math.fsum(math.exp(s * lr) for lr in logs) - 1

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

