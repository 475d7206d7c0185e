"""Multifractal spectra, concave envelopes, and the Legendre pipeline.

The spectrum sweep reports the abscissa of convergence of every primitive
exponent class, working out the alphas and abscissas of all the classes in
one numpy pass that matches the single-class entry points bit for bit;
envelopes are exact upper concave hulls of the sweep; the Legendre side
solves sum p_i^q r_i^b = 1 and transforms.  The Moran dimension of the
ratios rounds out the comparison toolkit.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .ifs_core import AtomicMeasureSpec, WeightedIFS
from .regularity import (
    FractionKey,
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
from .zeta import _abscissa_description, closed_abscissas


@dataclass(frozen=True)
class SpectrumPoint:
    alpha: float
    f: float
    key: RegularityKey
    alpha_desc: str = ""
    f_desc: str = ""


@dataclass(frozen=True)
class EnvelopeFunction:
    """Upper concave hull, piecewise linear between breakpoints."""

    breakpoints: tuple[tuple[float, float], ...]

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
    b_prime_values: tuple[float, ...]
    t_values: tuple[float, ...]
    b_star_values: tuple[float, ...]
    degenerate: bool  # monofractal: t collapses to the single dimension


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


def _ifs_sweep(ifs: WeightedIFS | PreparedIFS, K_max: int) -> list[SpectrumPoint]:
    prepared = prepare(ifs)
    mono = is_monofractal(prepared)
    if mono is not None:
        # f(D) = D exactly: emit one value for both coordinates
        d = mono.to_float()
        return [
            SpectrumPoint(
                alpha=d,
                f=d,
                key=VectorKey((1,) * prepared.width),
                alpha_desc="common single-map regularity",
                f_desc="Moran dimension of the support (equals alpha)",
            )
        ]
    if prepared.ifs.equal_ratios():
        # independent distinct probabilities make every class distinct
        if prepared.dependence is not None:
            raise ValueError(prepared.dependence)
        columns = class_columns(prepared, primitive_matrix(prepared.width, K_max))
        label = "collapsed class"
    else:
        columns = check_hypothesis_H(prepared, K_max).columns
        if columns is None:
            return _oracle_fallback_sweep(prepared, K_max)
        label = "class"
    # mass and length go before the points are made: holding them too raises
    # peak memory
    k, alpha = columns.k, columns.alpha
    del columns
    f = closed_abscissas(prepared, k).tolist()
    K = k.sum(axis=1).tolist()
    c = prepared.multiplicities if prepared.folds else None
    vectors = list(map(tuple, k.tolist()))
    alpha_list = alpha.tolist()
    points = []
    # a primitive vector is its own key
    for i in _alpha_order(alpha, lambda i: str(VectorKey(vectors[i]))):
        v = vectors[i]
        points.append(
            SpectrumPoint(
                alpha=alpha_list[i],
                f=f[i],
                key=VectorKey(v),
                alpha_desc=f"{label} {v}",
                f_desc=_abscissa_description(v, K[i], c),
            )
        )
    return points


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
    from .ifs_core import BudgetExceededError
    from .oracle import enumerate_stage, group_by_regularity
    from .regularity import InfiniteKey

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


def _atomic_sweep(spec: AtomicMeasureSpec, K_max: int) -> list[SpectrumPoint]:
    points = []
    logm_over_logb = math.log(spec.m) / math.log(spec.base)
    for K in range(1, K_max + 1):
        for k1 in range(1, K + 1):
            if math.gcd(k1, K) != 1:
                continue
            q = Fraction(k1, K)
            if spec.family == "sigma1":
                f = 0.0
                desc = "pole of z/(1-z) at s=0"
            else:
                f = float(q) * logm_over_logb
                desc = f"(k1/K) log_{spec.base} {spec.m}"
            points.append(
                SpectrumPoint(
                    alpha=float(q),
                    f=f,
                    key=FractionKey(q),
                    alpha_desc=f"k1/K = {q}",
                    f_desc=desc,
                )
            )
    if spec.family == "sigma1":
        for level in range(1, K_max + 1):
            points.append(
                SpectrumPoint(
                    alpha=1 + math.log(2) / (level * math.log(3)),
                    f=0.0,
                    key=OnePlusLogKey(level),
                    alpha_desc=f"1 + log_(3^{level}) 2",
                    f_desc="entire zeta",
                )
            )
    points.sort(key=lambda p: (p.alpha, str(p.key)))
    return points


def spectrum_sweep(
    system: WeightedIFS | PreparedIFS | AtomicMeasureSpec, K_max: int = 64
) -> list[SpectrumPoint]:
    """One point per primitive class with stage sum <= K_max, sorted by alpha."""
    if isinstance(system, AtomicMeasureSpec):
        return _atomic_sweep(system, K_max)
    if isinstance(system, (WeightedIFS, PreparedIFS)):
        return _ifs_sweep(system, K_max)
    raise TypeError(f"unsupported system {system!r}")


# ---------------------------------------------------------------------------
# Concave envelope
# ---------------------------------------------------------------------------


def concave_envelope(points: Sequence[SpectrumPoint | tuple]) -> EnvelopeFunction:
    """Upper concave hull via monotone chain; alpha ties keep the max f."""
    raw = []
    for p in points:
        if isinstance(p, SpectrumPoint):
            raw.append((p.alpha, p.f))
        else:
            raw.append((float(p[0]), float(p[1])))
    if len(raw) < 2:
        raise ValueError("concave envelope needs at least 2 points")
    best: dict[float, float] = {}
    for x, y in raw:
        if x not in best or y > best[x]:
            best[x] = y
    pts = sorted(best.items())
    if len(pts) == 1:
        return EnvelopeFunction(breakpoints=(pts[0],))
    hull: list[tuple[float, float]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it lies on or under the chord;
            # the slack absorbs float noise on exactly collinear sweeps
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) >= -1e-14:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return EnvelopeFunction(breakpoints=tuple(hull))


# ---------------------------------------------------------------------------
# Legendre pipeline
# ---------------------------------------------------------------------------


# solve_b stops bisecting once |sum p_i^q r_i^b - 1| is this small
SOLVE_B_RESIDUAL_TOL = 1e-13


def solve_b(ifs: WeightedIFS, q: float) -> float:
    """Unique b with sum p_i^q r_i^b = 1, by bisection (decreasing in b)."""
    logs_p = [math.log(p) for p in ifs.probs]
    logs_r = [math.log(r) for r in ifs.ratios]

    def g(b: float) -> float:
        try:
            return math.fsum(math.exp(q * lp + b * lr) for lp, lr in zip(logs_p, logs_r)) - 1
        except OverflowError:
            # a term (or the sum) exceeds the float range, so the sum is > 1
            return math.inf

    lo, hi = -1.0, 1.0
    while g(lo) <= 0:
        lo *= 2
    while g(hi) >= 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) <= SOLVE_B_RESIDUAL_TOL:
            return mid
        if val > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def legendre_transform(
    ifs: WeightedIFS, q_grid: Sequence[float] | None = None
) -> LegendrePipeline:
    """b, b', t = -b', b*(t) = t q + b(q).

    b' is exact: differentiating sum w_i = 1 with w_i = p_i^q r_i^b(q) gives
    b'(q) = -sum w_i log p_i / sum w_i log r_i.
    """
    if q_grid is None:
        n = round(2 * 8 / 0.05)
        q_grid = [-8 + 0.05 * i for i in range(n + 1)]
    q_grid = tuple(float(q) for q in q_grid)
    logs_p = [math.log(p) for p in ifs.probs]
    logs_r = [math.log(r) for r in ifs.ratios]
    b_vals = tuple(solve_b(ifs, q) for q in q_grid)
    b_prime = []
    for q, b in zip(q_grid, b_vals):
        w = [math.exp(q * lp + b * lr) for lp, lr in zip(logs_p, logs_r)]
        b_prime.append(
            -math.fsum(wi * lp for wi, lp in zip(w, logs_p))
            / math.fsum(wi * lr for wi, lr in zip(w, logs_r))
        )
    b_prime = tuple(b_prime)
    t_vals = tuple(-bp for bp in b_prime)
    b_star = tuple(t * q + b for t, q, b in zip(t_vals, q_grid, b_vals))
    degenerate = is_monofractal(ifs) is not None
    return LegendrePipeline(
        q_grid=q_grid,
        b_values=b_vals,
        b_prime_values=b_prime,
        t_values=t_vals,
        b_star_values=b_star,
        degenerate=degenerate,
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

