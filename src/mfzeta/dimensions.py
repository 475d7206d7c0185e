"""Complex-dimension lattices, residues, tapestry assembly, and counting.

Rational lattice zetas in z = base^s have poles along vertical arithmetic
progressions: one lattice per denominator root.  The counting function of
the associated alpha-lengths is recovered two ways: exact direct counting
and a symmetric truncated sum over lattice poles (plus the constant or
double-pole term at s = 0), summed exactly and rounded once.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .ifs_core import AtomicMeasureSpec, FractalStringSpec
from .regularity import FractionKey, RegularityKey
from .sequences import AlphaLengthSequence
from .zeta import Poly, RationalZeta, closed_form_sequence, closed_form_zeta


@dataclass(frozen=True)
class DimensionLattice:
    """Vertical lattice of simple poles real_part + i * period * (j + phase_shift)."""

    real_part: float
    period: float
    phase_shift: float
    residue: complex  # constant along the lattice


@dataclass(frozen=True)
class CountingResult:
    x: float
    direct: int
    explicit_value: float


# ---------------------------------------------------------------------------
# Pole lattices and residues
# ---------------------------------------------------------------------------


class _Root(NamedTuple):
    """One denominator root, with what its lattice needs of num/den that
    does not depend on the base."""

    root: complex
    log_abs: float  # log |root|
    shift: float  # phase shift of the lattice, in [0, 1)
    num_at: complex  # num(root)
    dden_at: complex  # den'(root)


def _pole_roots(num: Poly, den: Poly) -> tuple[_Root, ...]:
    """Denominator roots from companion-matrix eigenvalues with one Newton
    polish step.  Only simple poles have lattices, decided exactly: a
    linear denominator is square-free, a quadratic one is when its
    discriminant is nonzero, and no law of ``closed_form_sequence`` has a
    denominator of higher degree."""
    if den.degree > 2:
        raise ValueError(f"denominator of degree {den.degree}: only degrees 1 and 2 are solved")
    if den.degree == 2 and den.coeffs[1] ** 2 == 4 * den.coeffs[0] * den.coeffs[2]:
        raise ValueError("repeated denominator root: only simple poles have lattices")
    dprime = den.derivative()
    out = []
    for r in np.roots([float(c) for c in reversed(den.coeffs)]):
        r = complex(r)
        dp = dprime(r)
        if abs(dp) > 1e-12:
            r = r - den(r) / dp
        out.append(
            _Root(
                root=r,
                log_abs=math.log(abs(r)),
                shift=(-cmath.phase(r) / (2 * math.pi)) % 1.0,
                num_at=num(r),
                dden_at=dprime(r),
            )
        )
    return tuple(out)


def pole_lattices(rz: RationalZeta) -> list[DimensionLattice]:
    """One lattice per denominator root of the rational zeta: the roots
    (``_pole_roots``) of its polynomials at the log of its base."""
    if rz.den.degree < 1:
        raise ValueError("denominator is constant: the zeta is entire")
    return _lattices(_pole_roots(rz.num, rz.den), math.log(float(rz.base)))


def _lattices(roots: tuple[_Root, ...], log_b: float) -> list[DimensionLattice]:
    """The lattices of ``roots`` at a base of log ``log_b`` (negative): the
    real parts, the period and the residues num(z)/(den'(z) * dz/ds)."""
    period = 2 * math.pi / -log_b
    lattices = [
        DimensionLattice(
            real_part=r.log_abs / log_b + 0.0,  # normalize -0.0
            period=period,
            phase_shift=r.shift,
            residue=r.num_at / (r.dden_at * (r.root * log_b)),
        )
        for r in roots
    ]
    lattices.sort(key=lambda l: (-l.real_part, l.phase_shift))
    return lattices


def residue_numeric(rz: RationalZeta, omega: complex) -> complex:
    """(s - omega) * zeta(s) limit with one Richardson extrapolation step.

    Two extrapolation levels kill the h and h^2 terms, so the step can stay
    large enough that pole-phase roundoff does not dominate, uniformly in
    the base.
    """
    h = 1e-3 / rz.log_unit
    a = h * rz.evaluate(omega + h)
    b = (h / 2) * rz.evaluate(omega + h / 2)
    c = (h / 4) * rz.evaluate(omega + h / 4)
    return (8 * c - 6 * b + a) / 3


# ---------------------------------------------------------------------------
# Tapestry
# ---------------------------------------------------------------------------


def build_tapestry(
    spec: AtomicMeasureSpec, K_max: int
) -> Iterator[tuple[Fraction, DimensionLattice]]:
    """Yield (alpha, lattice) pairs over reduced fractions k1/K with K <= K_max.

    The entire-monomial keys carry no poles and are omitted.  A key's law
    depends on k1 alone and its base on K, so the roots are solved at the
    first key of each law and every key adds only the log of its base.
    Nothing is built before the first pair is asked for.
    """
    if K_max < 1:
        raise ValueError("K_max must be >= 1")
    roots = {}  # law -> its denominator roots
    # the Farey sequence of order K_max, ascending from its first key 1/K_max:
    # the deepest key comes first, so a key too deep for doubles fails
    # before any work
    a, b, k1, K = 0, 1, 1, K_max
    while k1 <= K:
        alpha = Fraction(k1, K)
        key = FractionKey(alpha)
        seq = closed_form_sequence(spec, key)
        if seq.law not in roots:
            roots[seq.law] = _pole_roots(*map(Poly, seq.law.generating_function()))
            if len(roots[seq.law]) != 1:
                raise ValueError(f"expected one lattice for alpha={alpha}")
        yield alpha, *_lattices(roots[seq.law], math.log(float(seq.base_length)))
        step = (K_max + b) // K
        a, b, k1, K = k1, K, step * k1 - a, step * K - b


# ---------------------------------------------------------------------------
# Counting: direct and explicit
# ---------------------------------------------------------------------------


def counting_direct(seq: AlphaLengthSequence, x) -> int:
    """Exact #{i : 1/length_i <= x}, multiplicities included (jumps inclusive)."""
    if x <= 0:
        raise ValueError("x must be positive")
    return seq.counting(x)


def _zero_pole_expansion(rz: RationalZeta) -> tuple[float, float]:
    """Laurent data of zeta at s = 0 when z = 1 is a simple denominator root:
    zeta(s) = res0/s + c0 + O(s)."""
    one = Fraction(1)
    p1 = rz.num(one)
    pp = rz.num.derivative()(one)
    qp = rz.den.derivative()(one)
    qpp = rz.den.derivative().derivative()(one)
    head = p1 / qp
    c0 = head * (Fraction(-1, 2) + pp / p1 - qpp / (2 * qp))
    res0 = float(head) / math.log(float(rz.base))
    return res0, float(c0)


def jump_distance(rz: RationalZeta, x: float) -> float:
    """Distance from x to the nearest counting jump, in log-base units."""
    y = math.log(x) / rz.log_unit
    return min(y - math.floor(y), math.ceil(y) - y)


def _check_jump_guard(guard: float) -> None:
    """Jumps are one log-unit apart, so no x is 0.5 or more away from one."""
    if not 0 <= guard < 0.5:
        raise ValueError(f"jump guard {guard} outside [0, 0.5): jumps are one log-unit apart")


# poles per numpy block: 32 KiB arrays come from the heap, not from fresh
# mmaps, so peak RSS stays below that of a whole-lattice pass
_BLOCK = 4096

# np.frexp exponents of doubles, 0.5 * 2**-1073 up to 2**1024 plus one for a
# doubled term.  A double t is m * 2**(e - 53), m an integer below 2**53.
_EXP_MIN, _EXP_MAX = -1073, 1025
_BINS = _EXP_MAX - _EXP_MIN + 1
_SCALE = 1 << (53 - _EXP_MIN)
# blocks between two flushes of the float bins: 2**26 halves below 2**27 sum
# exactly in doubles
_FLUSH = 2**26 // _BLOCK


def _exact_sum(blocks: Iterable[tuple[np.ndarray, bool]]) -> float:
    """The correctly rounded sum of (terms, paired) blocks of at most
    ``_BLOCK`` terms, a paired block counted twice: ``math.fsum`` of the
    terms written out, from numpy passes alone.

    Each term is split into its frexp exponent e, plus 1 when paired (exact,
    and no overflow), and mantissa m = hi * 2**26 + lo, |hi| < 2**27 and
    |lo| < 2**26.  Both halves are summed per exponent by ``np.bincount``
    into float bins, exact for ``_FLUSH`` blocks, that make one integer N
    with sum = N / 2**1126, rounded once by int/int true division: the small
    superaccumulator of Neal (arXiv:1505.05571, 2015).  A non-finite term
    raises ``ValueError``.
    """
    total = 0
    bins = np.zeros((2, _BINS))
    # an infinite term makes its lo half inf - inf; _flush reports it
    with np.errstate(invalid="ignore"):
        for count, (terms, paired) in enumerate(blocks, 1):
            m, e = np.frexp(terms)
            m *= 2.0**53
            hi = np.trunc(m * 2.0**-26)
            m -= hi * 2.0**26
            e -= _EXP_MIN - paired
            bins[0] += np.bincount(e, weights=hi, minlength=_BINS)
            bins[1] += np.bincount(e, weights=m, minlength=_BINS)
            if count % _FLUSH == 0:
                total += _flush(bins)
    return (total + _flush(bins)) / _SCALE


def _flush(bins: np.ndarray) -> int:
    """The integer the bins hold, in units of 2**-1126; empties them.

    An infinite or nan term leaves a nan bin.
    """
    if not np.isfinite(bins).all():
        raise ValueError("non-finite term in an exact sum")
    total = 0
    for b in np.flatnonzero(bins.any(axis=0)).tolist():
        total += ((int(bins[0, b]) << 26) + int(bins[1, b])) << b
    bins[:] = 0.0
    return total


def _lattice_terms(
    lat: DimensionLattice, Z: int, lnx: float, zero_is_pole: bool
) -> Iterator[tuple[np.ndarray, bool]]:
    """Re(res * x^w / w) for w = real_part + i*period*(j + phase_shift), |j| <= Z,
    as (block, paired) over blocks of consecutive j = 0..Z.

    The lattice is self-conjugate (real residue, shift 0 or 1/2), so pole
    -j - 2*shift has the negated Im w and the same term: every step below
    is even or odd under negation, cos even and sin odd.  All terms are
    paired but j = 0 at shift 0 (its own mirror) and j = Z at shift 1/2.
    A term is CPython's ``res * cmath.exp(w * lnx) / w``: the same libm
    calls and products, and Smith's division branching on |Re w| >= |Im w|,
    while real_part * lnx <= 708.4 (x below about 1e307 here).  The s = 0
    pole of the zero lattice is dropped; it is in the double-pole term.
    """
    wr = lat.real_part
    res = lat.residue.real
    lone = Z if lat.phase_shift else 0  # the one unpaired pole
    first = 1 if zero_is_pole and abs(wr) < 1e-12 and lone == 0 else 0
    l = math.exp(wr * lnx)
    for lo in range(first, Z + 1, _BLOCK):
        hi = min(lo + _BLOCK, Z + 1)
        im = lat.period * (np.arange(lo, hi, dtype=np.float64) + lat.phase_shift)
        arg = im * lnx
        mr = res * (l * np.cos(arg))
        mi = res * (l * np.sin(arg))
        if im[0] > abs(wr):
            ratio = wr / im
            out = (mr * ratio + mi) / (wr * ratio + im)
        else:
            out = np.empty_like(im)
            near = im <= abs(wr)
            far = ~near
            ratio = wr / im[far]
            out[far] = (mr[far] * ratio + mi[far]) / (wr * ratio + im[far])
            ratio = im[near] / wr
            out[near] = (mr[near] + mi[near] * ratio) / (wr + im[near] * ratio)
        if lo <= lone < hi:
            k = lone - lo
            if k:
                yield out[:k], True
            yield out[k:k + 1], False
            out = out[k + 1:]
        if len(out):
            yield out, True


def counting_explicit(
    system: AtomicMeasureSpec | FractalStringSpec,
    key: RegularityKey | None,
    xs: Iterable[float],
    Z: int = 20000,
    jump_guard: float = 0.02,
) -> list[CountingResult]:
    """Symmetric truncated pole sum sum res * x^omega / omega (+ s=0 term),
    one result per x of ``xs``.

    The truncation error is O(x^Re(omega) / (Z * delta)) at log-distance
    delta from the nearest jump; at a jump the series converges to the
    midpoint instead, so such x are rejected by the guard.  The zeta, its
    sequence, its lattices and its s = 0 data are derived once per call,
    for every x.  The pole sum is ``_exact_sum``'s correctly rounded one,
    so it needs no ordering of the terms by |Im|.  Self-conjugate lattices
    (others are refused) give equal mirror terms: Z+1 are evaluated for
    the sum of all 2Z+1.
    """
    if Z < 100:
        raise ValueError("Z must be >= 100")
    _check_jump_guard(jump_guard)
    rz = closed_form_zeta(system, key)
    if rz.entire:
        raise ValueError("entire zeta: no pole expansion (counting is 0 or 1)")
    lattices = pole_lattices(rz)
    for lat in lattices:
        if lat.residue.imag != 0.0 or lat.phase_shift not in (0.0, 0.5):
            raise ValueError("lattice not self-conjugate; explicit sum unsupported")
    sequence = closed_form_sequence(system, key)
    head = int(rz.num(Fraction(0)) / rz.den(Fraction(0)))  # lengths equal to 1
    v0 = rz.value_at_zero()  # zeta(0); None when s = 0 is a pole
    zero_is_pole = v0 is None
    # zeta(s) = res0/s + c0 + O(s) at a pole s = 0; else c0 is zeta(0)
    res0, c0 = _zero_pole_expansion(rz) if zero_is_pole else (None, float(v0))
    results = []
    for x in xs:
        if x <= 1:
            raise ValueError("x must exceed 1")
        if jump_distance(rz, x) < jump_guard:
            raise ValueError(
                f"x = {x} is within {jump_guard} log-units of a jump "
                "(the truncated series converges to the midpoint there)"
            )
        lnx = math.log(x)
        value = _exact_sum(
            b for lat in lattices for b in _lattice_terms(lat, Z, lnx, zero_is_pole)
        ) + (res0 * lnx + c0 if zero_is_pole else c0)
        results.append(CountingResult(
            x=float(x),
            direct=counting_direct(sequence, Fraction(x)) + head,
            explicit_value=value,
        ))
    return results


# Draws that one `sample_off_jump_xs` call may expect to make.  On a 2-vCPU
# Xeon VM a draw takes about 1.5 us, so sampling within the budget ends in
# well under a second.
SAMPLE_DRAW_BUDGET = 250_000


def sample_off_jump_xs(
    rz: RationalZeta,
    count: int = 25,
    lo: float = 2.0,
    hi: float = 1e6,
    guard: float = 0.02,
    seed: int = 7,
) -> list[float]:
    """Deterministic log-uniform samples at least guard away from jumps.

    A range whose accepted share is so small that the samples are expected
    to take more than ``SAMPLE_DRAW_BUDGET`` draws is refused before any
    draw; so is a range where no draw could ever be accepted.
    """
    _check_jump_guard(guard)
    if not 0 < lo < hi:
        raise ValueError(f"sample range [{lo}, {hi}] needs 0 < lo < hi")
    y_lo, y_hi = math.log(lo) / rz.log_unit, math.log(hi) / rz.log_unit

    def accepted(y: float) -> float:
        """The length of the accepted log-units, [m + guard, m + 1 - guard]
        for integers m, below y."""
        m = math.floor(y)
        return m * (1 - 2 * guard) + min(max(y - m - guard, 0.0), 1 - 2 * guard)

    share = (accepted(y_hi) - accepted(y_lo)) / (y_hi - y_lo)
    draws = count / share if share > 0 else math.inf
    if draws > SAMPLE_DRAW_BUDGET:
        raise ValueError(
            f"a share {share:.3g} of [{lo}, {hi}], in log scale, is {guard} log-units "
            f"or more from a jump, so {count} samples would take about {draws:.3g} "
            f"draws, above the budget of {SAMPLE_DRAW_BUDGET:,}"
        )
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        if jump_distance(rz, x) >= guard:
            out.append(x)
    return out
