"""Regularity values of partition intervals, exactly compared.

The regularity of an interval with mass mu and length ell is
alpha = log(mu)/log(ell).  For rational parameters both logs are integer
combinations of logs of primes, so alpha is represented exactly by the
pair of prime exponent vectors (mass product, length product).

Two values are equal exactly when their canonical forms agree: proportional
(mass, length) exponent-vector pairs merge, and a parallel pair is the
rational exponent ratio.  Other pairs are only certified distinct, by a ladder:

1. float filter — each value's outward-rounded double enclosure (every
   product, sum and quotient widened by one ulp, from float bounds of
   log p cut outward from its 64-bit integer bounds); disjoint enclosures
   prove the values distinct, which settles nearly every pair;
2. intervals at 64, then 256, then 1024 bits, from the integer bounds of
   ``log_bounds``, only for pairs whose float enclosures overlap
   (``values_equal``);
3. if the intervals still overlap, ``AmbiguousRegularityError`` is
   raised — values are never silently merged.

Each formula has one form, over columns.  ``ClassColumns`` holds the mass
and length exponents of many values as int64 matrices, built from class
vectors by ``class_columns`` or from values by ``value_columns``;
``alphas_from_exponents`` gives their float alphas, and ``partition`` groups
them into classes of equal values, running the float filter as one numpy
pass.  A single class (``regularity_of``, ``collapsed_regularity``) is a
one-row column.

Facts that every class of one system shares (its class space with the
factorized parameters of each slot and the independence verdict of its
distinct probabilities) live in a ``PreparedIFS``, built once by
``prepare``; every function taking a ``WeightedIFS`` here also takes its
prepared form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ifs_core import (
    PrimeExponentVector,
    WeightedIFS,
    check_rational_independence,
    collapse_probabilities,
    factorize,
)


class AmbiguousRegularityError(RuntimeError):
    """Two regularity values could not be separated at maximum precision."""


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorKey:
    """Primitive class vector of a weighted IFS (see ``PreparedIFS``)."""

    vector: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.vector)) + ")"


@dataclass(frozen=True)
class FractionKey:
    """Rational regularity k1/K in lowest terms (atomic families)."""

    value: Fraction

    def __str__(self) -> str:
        return f"{self.value.numerator}/{self.value.denominator}"


@dataclass(frozen=True)
class OnePlusLogKey:
    """Regularity 1 + log_{3^n} 2 attained by the leftmost stage-n interval."""

    level: int

    def __str__(self) -> str:
        return f"1+log_{{3^{self.level}}}2"


@dataclass(frozen=True)
class InfiniteKey:
    """Zero-mass intervals: regularity +infinity."""

    def __str__(self) -> str:
        return "inf"


RegularityKey = VectorKey | FractionKey | OnePlusLogKey | InfiniteKey


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------

# Interval precisions tried in turn; a pair still overlapping at the last
# rung is ambiguous.
_PREC_LADDER = (64, 256, 1024)


# Extra bits the atanh series are summed at, far more than their counted error.
_GUARD_BITS = 32


def _atanh_floor(a: int, b: int, bits: int) -> tuple[int, int]:
    """(s, err) with s <= 2^bits atanh(a/b) <= s + err, for 0 <= a/b <= 1/3.

    Each power of x = a/b is the floor of the last times x^2, so it is short
    of the true one by under 9/8; each term then loses under 3 units, and the
    series after the first zero power adds under 2.
    """
    power = (a << bits) // b
    total, k = 0, 1
    while power:
        total += power // k
        power = power * a * a // (b * b)
        k += 2
    return total, 3 * (k // 2) + 2


@functools.cache
def log_bounds(p: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits log p <= hi for an integer p >= 1, with
    hi - lo <= 2 for p < 2^64: log p = j log 2 + 2 atanh((p - 2^j)/(p + 2^j))
    with 2^j <= p < 2^(j+1) and log 2 = 2 atanh(1/3) (Brent and Zimmermann,
    Modern Computer Arithmetic, ch. 4), summed with ``_GUARD_BITS`` extra bits."""
    j = p.bit_length() - 1
    log2, err2 = _atanh_floor(1, 3, bits + _GUARD_BITS)
    rest, err = _atanh_floor(p - (1 << j), p + (1 << j), bits + _GUARD_BITS)
    lo = 2 * (j * log2 + rest)
    hi = lo + 2 * (j * err2 + err)
    return lo >> _GUARD_BITS, -(-hi >> _GUARD_BITS)


# An enclosure that overlaps everything: the float filter then decides nothing.
_NO_FILTER = (-math.inf, math.inf)


@functools.cache
def _float_log(p: int) -> tuple[float, float]:
    """The tightest double bounds on the 64-bit ``log_bounds`` of log p: each
    end correctly rounded by int/int division, then stepped out if that went
    in (scaling a double by 2^64 is exact, so the test is too)."""
    lo, hi = log_bounds(p, 64)
    f_lo, f_hi = lo / 2**64, hi / 2**64
    return (
        math.nextafter(f_lo, -math.inf) if f_lo * 2**64 > lo else f_lo,
        math.nextafter(f_hi, math.inf) if f_hi * 2**64 < hi else f_hi,
    )


def _int_form(pev: PrimeExponentVector, bits: int) -> tuple[int, int]:
    """Integers bounding 2^bits times sum e * log p over pev."""
    lo = hi = 0
    for p, e in pev.items():
        bounds = log_bounds(p, bits)
        lp_lo, lp_hi = bounds if e > 0 else bounds[::-1]
        lo += e * lp_lo
        hi += e * lp_hi
    return lo, hi


def _quotient(num: tuple, den: tuple) -> tuple:
    """The least and greatest of n / d over the bounds n of num and d of den,
    or ``_NO_FILTER`` while den brackets 0."""
    if den[0] <= 0 <= den[1]:
        return _NO_FILTER
    quotients = [n / d for n in num for d in den]
    return min(quotients), max(quotients)


# slots: the oracle holds one value per stage record; a per-instance dict
# would add about 250 bytes to each
@dataclass(frozen=True, slots=True)
class RegularityValue:
    """alpha = log(mass)/log(length) as an exact pair of exponent vectors.

    The exact rational alpha of a parallel pair is worked out once, at
    construction; the canonical form and the float on first use.
    """

    mass_pev: PrimeExponentVector
    length_pev: PrimeExponentVector
    _rational: Fraction | None = field(init=False, compare=False, repr=False)
    _canonical: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _float: float | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.length_pev.is_zero():
            raise ValueError("length exponent vector must be nonzero")
        mass, length = self.mass_pev.exponents(), self.length_pev.exponents()
        primes = {**mass, **length}
        ratio = _parallel([mass.get(p, 0) for p in primes], [length.get(p, 0) for p in primes])
        object.__setattr__(self, "_rational", None if ratio is None else Fraction(*ratio))

    def rational_value(self) -> Fraction | None:
        """The exact rational alpha when the two vectors are parallel, else None."""
        return self._rational

    def canonical(self) -> tuple:
        """Hashable canonical form: equal values share it, proportional pairs merge."""
        form = self._canonical
        if form is None:
            form = self._canonical_form()
            object.__setattr__(self, "_canonical", form)
        return form

    def _canonical_form(self) -> tuple:
        q = self._rational
        if q is not None:
            return ("rational", q)
        g = 0
        for _, e in self.mass_pev.items():
            g = math.gcd(g, e)
        for _, e in self.length_pev.items():
            g = math.gcd(g, e)
        if g <= 1:
            # the vectors themselves, compared and hashed by their exponents:
            # a cached form costs one tuple
            return ("pair", self.mass_pev, self.length_pev)
        return ("pair", _divide_pev(self.mass_pev, g), _divide_pev(self.length_pev, g))

    def to_float(self) -> float:
        """alpha as a double: the ``alphas_from_exponents`` row of this value,
        read from the columns that built it or derived here on first use."""
        value = self._float
        if value is None:
            value = value_columns([self]).alpha.item()
            object.__setattr__(self, "_float", value)
        return value

    def interval(self, prec_bits: int) -> tuple[Fraction, Fraction]:
        """Bounds on alpha at one rung (64, 256 or 1024 bits): the extreme
        quotients of the integer ``log_bounds`` forms of mass and length, or
        the infinities while the length form brackets 0."""
        if prec_bits not in _PREC_LADDER:
            raise ValueError(f"precision must be one of {_PREC_LADDER}, got {prec_bits}")
        mass = tuple(map(Fraction, _int_form(self.mass_pev, prec_bits)))
        return _quotient(mass, _int_form(self.length_pev, prec_bits))


def _parallel(mass: Sequence[int], length: Sequence[int]) -> tuple[int, int] | None:
    """(a, b) with b > 0 and b * mass == a * length, when the pair is parallel
    (alpha is then the rational a/b); else None.  length must be nonzero."""
    for a, b in zip(mass, length):
        if b:
            break
    for m, e in zip(mass, length):
        if m * b != e * a:
            return None
    return (-a, -b) if b < 0 else (a, b)


def alphas_from_exponents(
    mass: np.ndarray, length: np.ndarray, logs: Sequence[float]
) -> np.ndarray:
    """alpha = log(mass)/log(length) as a double for each row pair of two
    int64 matrices, the exponents of the two products over primes whose
    ``math.log`` values are ``logs``; every row of ``length`` must be nonzero.

    A parallel row is the rational a/b, which float64 division of the
    exactly converted ints rounds correctly, as ``float(Fraction(a, b))``
    does; any other row is the quotient of the ``row_fsums`` of the products
    e * log p (a zero exponent adds an exact 0.0, which leaves a correctly
    rounded sum unchanged).
    """
    parallel, a, b = _parallel_rows(mass, length)
    # b > 0, as _parallel makes it: a zero a then gives +0.0
    alpha = a / b
    free = ~parallel
    logs = np.asarray(logs)
    alpha[free] = row_fsums(mass[free] * logs) / row_fsums(length[free] * logs)
    return alpha


def _parallel_rows(
    mass: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_parallel`` of each row pair of two int64 matrices: a mask of the
    parallel rows and each row's (a, b), b > 0, read where the mask is set."""
    rows = np.arange(len(length))
    first = (length != 0).argmax(axis=1)
    a, b = mass[rows, first], length[rows, first]
    parallel = (mass * b[:, None] == length * a[:, None]).all(axis=1)
    sign = np.where(b < 0, -1, 1)
    return parallel, a * sign, b * sign


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and its error a + b - s, exact for finite a, b."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def row_fsums(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D float array, bit for bit.

    A TwoSum cascade (Shewchuk, DCG 18, 1997; Ogita, Rump and Oishi, SISC 26,
    2005) runs along each row, keeping the sum s and the exact error of each
    step; a second cascade sums those errors into c, leaving exact errors d.
    The row sum is exactly r + rho + sum d, where r = fl(s + c) and rho is
    its error.  So r is the correctly rounded sum that ``fsum`` returns when
    every d is 0 (r then rounds the exact sum s + c once), or when
    |rho| + sum |d| is at most a quarter of the gap from |r| to the next
    double toward 0 (the sum then lies within half that gap of r; the spare
    half covers the rounding of the bound).  Every other row, and every row
    whose r is 0 or not finite (where ``fsum`` decides the sign or raises),
    is summed by ``math.fsum``.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        s = terms[:, 0]
        c = np.zeros(len(terms))
        left = np.zeros(len(terms))
        for t in terms.T[1:]:
            s, e = _two_sum(s, t)
            c, d = _two_sum(c, e)
            left += np.abs(d)
        r, rho = _two_sum(s, c)
        mag = np.abs(r)
        gap = mag - np.nextafter(mag, 0.0)
        certified = (
            np.isfinite(r) & (r != 0.0) & ((left == 0.0) | (np.abs(rho) + left <= gap / 4))
        )
    for i in np.flatnonzero(~certified).tolist():
        r[i] = math.fsum(terms[i].tolist())
    return r


def _divide_pev(pev: PrimeExponentVector, g: int) -> PrimeExponentVector:
    return PrimeExponentVector({p: e // g for p, e in pev.items()})


def _apart(x: tuple, y: tuple) -> bool:
    return x[1] < y[0] or y[1] < x[0]


def values_equal(a: RegularityValue, b: RegularityValue) -> bool:
    """Exact equality, that is canonical-form equality; for other pairs the
    interval ladder only certifies distinctness, or raises
    ``AmbiguousRegularityError``.  The float filter runs before it, over
    whole columns, in ``ClassColumns.partition``."""
    if a.canonical() == b.canonical():
        return True
    if a._rational is not None or b._rational is not None:
        # distinct rationals differ, and a rational never equals an irrational
        return False
    if any(_apart(a.interval(prec), b.interval(prec)) for prec in _PREC_LADDER):
        return False
    raise AmbiguousRegularityError(
        f"cannot separate regularity values near {a.to_float()!r} at "
        f"{_PREC_LADDER[-1]} bits"
    )


# ---------------------------------------------------------------------------
# Regularity classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityClass:
    """A primitive key with its exact and floating regularity value."""

    key: RegularityKey
    alpha_exact: RegularityValue
    alpha_float: float
    K: int


def reduce_vector(k: Sequence[int]) -> tuple[int, ...]:
    """k divided by the gcd of its parts (the primitive key of its class)."""
    k = tuple(int(x) for x in k)
    if any(x < 0 for x in k) or not any(k):
        raise ValueError("exponent vector must be nonzero with non-negative parts")
    g = math.gcd(*k)
    return tuple(x // g for x in k)


# ---------------------------------------------------------------------------
# Prepared systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PreparedIFS:
    """The facts about one ``WeightedIFS`` that all of its classes share.

    Built once by ``prepare``.  It owns the class space.  With equal ratios,
    all intervals with the same counts of each distinct probability share
    one regularity, so a class vector has one slot per distinct probability,
    in ascending order; otherwise it has one slot per map.  ``slot_of`` sends
    each map to its slot, ``multiplicities`` counts the maps in each slot,
    and ``slot_ratios`` holds each slot's ratio.  The independence verdict
    and its witness refer to the distinct probabilities of an equal-ratio
    system and are trivially true otherwise.

    For the columns, the factorized probabilities and ratios are int64
    matrices over the system's ``primes``: row q of ``P`` and of ``R`` holds
    the exponents of slot q's probability and ratio, so the mass and length
    exponents of class vectors k are ``k @ P`` and ``k @ R``.
    ``log_primes``, ``log_ratios`` and ``log_multiplicities`` hold the
    ``math.log`` of each prime, slot ratio and slot multiplicity.
    """

    ifs: WeightedIFS
    slot_of: tuple[int, ...]
    multiplicities: tuple[int, ...]
    slot_ratios: tuple[Fraction, ...]
    independent: bool
    witness: tuple[int, ...] | None
    primes: tuple[int, ...]
    P: np.ndarray
    R: np.ndarray
    log_primes: tuple[float, ...]
    log_ratios: tuple[float, ...]
    log_multiplicities: tuple[float, ...]

    @property
    def width(self) -> int:
        """The number of slots w of a class vector."""
        return len(self.multiplicities)

    @property
    def folds(self) -> bool:
        """True when some slot holds several maps (w < N)."""
        return self.width < self.ifs.N

    @property
    def dependence(self) -> str | None:
        """Why the slots are not the regularity classes, or None when they are."""
        if self.independent:
            return None
        return f"distinct probabilities are multiplicatively dependent (witness {self.witness})"

    def fold(self, k: Sequence[int]) -> tuple[int, ...]:
        """The class vector of the per-map exponent vector k."""
        out = [0] * self.width
        for slot, ki in zip(self.slot_of, k):
            out[slot] += ki
        return tuple(out)

    def class_vector(self, k: Sequence[int]) -> tuple[int, ...]:
        """The primitive class vector that a given vector names.

        A vector of length w is a class vector; one of length N != w is a
        per-map vector and is folded.
        """
        k = reduce_vector(k)
        if len(k) == self.width:
            return k
        if len(k) == self.ifs.N:
            return reduce_vector(self.fold(k))
        raise ValueError(
            f"vector length {len(k)} matches neither N = {self.ifs.N} nor w = {self.width}"
        )


def prepare(system: WeightedIFS | PreparedIFS) -> PreparedIFS:
    """The prepared form of a system; a prepared form is returned unchanged."""
    if isinstance(system, PreparedIFS):
        return system
    independent, witness = True, None
    if system.equal_ratios():
        collapsed = collapse_probabilities(system)
        probs, slot_of, mult = collapsed.distinct, collapsed.slot_of, collapsed.multiplicities
        ratios = (system.ratios[0],) * collapsed.w
        if collapsed.w > 1:
            independent, witness = check_rational_independence(probs)
    else:
        probs, ratios = system.probs, system.ratios
        slot_of, mult = tuple(range(system.N)), (1,) * system.N
    p_pev = tuple(factorize(p) for p in probs)
    r_pev = tuple(factorize(r) for r in ratios)
    primes = tuple(sorted({p for pev in p_pev + r_pev for p, _ in pev.items()}))
    return PreparedIFS(
        ifs=system,
        slot_of=slot_of,
        multiplicities=mult,
        slot_ratios=ratios,
        independent=independent,
        witness=witness,
        primes=primes,
        P=_exponent_rows(p_pev, primes),
        R=_exponent_rows(r_pev, primes),
        log_primes=tuple(math.log(p) for p in primes),
        log_ratios=tuple(math.log(r) for r in ratios),
        log_multiplicities=tuple(math.log(c) for c in mult),
    )


def _nonzero_vector(k: Sequence[int], length: int, kind: str) -> tuple[int, ...]:
    k = tuple(int(x) for x in k)
    if len(k) != length:
        raise ValueError(f"{kind} vector has length {len(k)}, expected {length}")
    if any(x < 0 for x in k) or not any(k):
        raise ValueError(f"{kind} vector must be nonzero with non-negative parts")
    return k


def regularity_of(ifs: WeightedIFS | PreparedIFS, k: Sequence[int]) -> RegularityClass:
    """Exact regularity of the per-map exponent vector k, keyed by its class
    (convention 0*log0 = 0)."""
    prepared = prepare(ifs)
    k = _nonzero_vector(k, prepared.ifs.N, "exponent")
    return _class_regularity(prepared, prepared.fold(k))


def collapsed_regularity(
    ifs: WeightedIFS | PreparedIFS, kprime: Sequence[int]
) -> RegularityClass:
    """Regularity of the class vector k' of any system.

    alpha(k') = log(prod p'_q^{k'_q}) / log(prod r'_q^{k'_q}) over the slots
    q of the class space; for equal ratios the denominator is K log r.
    """
    prepared = prepare(ifs)
    return _class_regularity(prepared, _nonzero_vector(kprime, prepared.width, "class"))


def _class_regularity(prepared: PreparedIFS, kprime: tuple[int, ...]) -> RegularityClass:
    """The class of a nonzero class vector k' with non-negative parts: the
    one row of its ``ClassColumns``."""
    value = class_columns(prepared, class_row(prepared, kprime)).value(0)
    g = math.gcd(*kprime)
    return RegularityClass(
        key=VectorKey(kprime if g == 1 else tuple(x // g for x in kprime)),
        alpha_exact=value,
        alpha_float=value.to_float(),
        K=sum(kprime),
    )


def class_row(prepared: PreparedIFS, kprime: tuple[int, ...]) -> np.ndarray:
    """The class vector k' as a one-row int64 matrix.

    Int64 columns multiply two exponents (``_parallel_rows``), so a vector
    whose entries, or the exponents of its mass and length products, reach
    2**31 is refused with ``ValueError`` rather than answered from wrapped
    products.  Those exponents are worked out first in Python ints.
    """
    row = np.array([kprime], dtype=object)
    if np.abs(np.hstack((row, row @ prepared.P, row @ prepared.R))).max() >= 2**31:
        raise ValueError(f"class {kprime} is too deep: its entries or exponents reach 2**31")
    return row.astype(np.int64)


def is_monofractal(ifs: WeightedIFS | PreparedIFS) -> RegularityValue | None:
    """The common single-map regularity when all maps share it, else None.

    The rows of ``unit_rows`` must form one class of ``ClassColumns.partition``;
    the common value may be irrational (e.g. the Devil's-staircase system).
    """
    prepared = prepare(ifs)
    columns = class_columns(prepared, unit_rows(prepared))
    return columns.value(0) if columns.partition().max() == 0 else None


def unit_rows(prepared: PreparedIFS) -> np.ndarray:
    """The class vector of each single map, in map order, as int64 rows."""
    rows = np.zeros((prepared.ifs.N, prepared.width), dtype=np.int64)
    rows[np.arange(prepared.ifs.N), prepared.slot_of] = 1
    return rows


# ---------------------------------------------------------------------------
# Primitive vectors and hypothesis (H)
# ---------------------------------------------------------------------------


def vector_matrix(N: int, K_max: int) -> np.ndarray:
    """All k of N non-negative parts with sum(k) <= K_max, the zero vector
    first, in lexicographic order, as the rows of an int64 matrix."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if K_max < 1:
        raise ValueError("K_max must be at least 1")
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([K_max])
    for _ in range(N):
        # each prefix goes on with every part 0..left, in increasing order
        counts = left + 1
        rows = np.repeat(rows, counts, axis=0)
        parts = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack((rows, parts))
        left = np.repeat(left, counts) - parts
    return rows


def primitive_matrix(N: int, K_max: int) -> np.ndarray:
    """The rows of ``vector_matrix`` with gcd 1, that is 1 <= sum(k) <= K_max.

    For N = 1 that is (1,) alone: the one class of a system whose
    probabilities collapse to a single value.
    """
    rows = vector_matrix(N, K_max)
    return rows[np.gcd.reduce(rows, axis=1) == 1]


def primitive_vectors(N: int, K_max: int) -> list[tuple[int, ...]]:
    """The rows of ``primitive_matrix`` as tuples of ints."""
    return list(map(tuple, primitive_matrix(N, K_max).tolist()))


def _float_forms(e: np.ndarray, primes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Float bounds on sum e * log p for each row of an int64 exponent
    matrix over primes, from the bounds ``_float_log`` on each log p, every
    product and sum rounded outward by one ulp and each zero exponent
    skipped.  A row with an exponent beyond 2**53, which would round on its
    way to a double, is left unbounded (``_NO_FILTER``)."""
    lo, hi = np.zeros(len(e)), np.zeros(len(e))
    # with infinite bounds on log p (a filter forced open) a zero exponent
    # makes 0 * inf = nan, which np.where drops
    with np.errstate(invalid="ignore"):
        for col, p in zip(e.T, primes):
            lp_lo, lp_hi = _float_log(p)
            pos, f = col > 0, col.astype(np.float64)
            down = lo + np.nextafter(f * np.where(pos, lp_lo, lp_hi), -np.inf)
            up = hi + np.nextafter(f * np.where(pos, lp_hi, lp_lo), np.inf)
            lo = np.where(col != 0, np.nextafter(down, -np.inf), lo)
            hi = np.where(col != 0, np.nextafter(up, np.inf), hi)
    wide = (np.abs(e) > 2**53).any(axis=1)
    lo[wide], hi[wide] = _NO_FILTER
    return lo, hi


@dataclass(frozen=True, eq=False)
class ClassColumns:
    """Regularity values as rows: the exponents over ``primes`` of each
    row's mass and length products, as int64 matrices, and its float alpha
    (``alphas_from_exponents``).

    Built by ``class_columns`` from nonzero class vectors of one system, the
    rows of ``k``, or by ``value_columns`` from values, with ``k`` None.
    Row i stands for the value ``value(i)``; ``partition`` groups the rows
    into classes of equal values, and builds a value only for a pair that
    the float filter leaves to the interval ladder.
    """

    primes: tuple[int, ...]
    k: np.ndarray | None
    mass: np.ndarray
    length: np.ndarray
    alpha: np.ndarray

    def value(self, i: int) -> RegularityValue:
        """The exact value of row i, its ``to_float`` the row's alpha."""
        value = RegularityValue(
            PrimeExponentVector(dict(zip(self.primes, self.mass[i].tolist()))),
            PrimeExponentVector(dict(zip(self.primes, self.length[i].tolist()))),
        )
        object.__setattr__(value, "_float", self.alpha[i].item())
        return value

    def float_enclosures(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float bounds on the alphas of the given rows: the extreme
        quotients of the ``_float_forms`` of mass and length, widened by one
        ulp, or the infinities where the length bounds bracket 0."""
        n_lo, n_hi = _float_forms(self.mass[rows], self.primes)
        d_lo, d_hi = _float_forms(self.length[rows], self.primes)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.stack((n_lo / d_lo, n_lo / d_hi, n_hi / d_lo, n_hi / d_hi))
            lo = np.nextafter(q.min(axis=0), -np.inf)
            hi = np.nextafter(q.max(axis=0), np.inf)
        brackets_0 = (d_lo <= 0) & (0 <= d_hi)
        lo[brackets_0], hi[brackets_0] = _NO_FILTER
        return lo, hi

    def partition(self) -> np.ndarray:
        """Each row's class number: rows share a class exactly when their
        values are equal, and classes are numbered in first-seen order.

        Rows are bucketed by canonical form: a parallel row by its reduced
        rational (a, b), any other by its mass and length exponents divided
        by their gcd.  One row per bucket is then certified distinct from
        the others.  Sorted by alpha, an adjacent pair is apart when either
        value is rational or their float enclosures are disjoint; only the
        pairs left go through ``values_equal``, which raises
        ``AmbiguousRegularityError`` when it cannot separate them.
        """
        parallel, a, b = _parallel_rows(self.mass, self.length)
        # a leading 0 marks a pair, a leading 1 a rational
        key = np.column_stack((np.zeros(len(self.mass), np.int64), self.mass, self.length))
        key[:, 1:] //= np.gcd.reduce(key[:, 1:], axis=1)[:, None]
        g = np.gcd(a, b)[parallel]
        key[parallel] = 0
        key[parallel, :3] = np.column_stack((np.ones_like(g), a[parallel] // g, b[parallel] // g))
        # a stable sort on every column (np.unique(axis=0) sorts row bytes,
        # several times slower), then a bucket starts at each new key
        order = np.lexsort(key.T[::-1])
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (key[order[1:]] != key[order[:-1]]).any(axis=1)
        bucket = np.empty_like(order)
        bucket[order] = np.cumsum(starts) - 1
        first = order[starts]  # each bucket's first row: the sort is stable
        seen = np.argsort(first)
        number = np.empty_like(seen)
        number[seen] = np.arange(len(seen))
        reps = first[seen]
        ranked = reps[np.argsort(self.alpha[reps], kind="stable")]
        lo, hi = self.float_enclosures(ranked)
        irrational = ~parallel[ranked]
        left = (lo[1:] <= hi[:-1]) & (lo[:-1] <= hi[1:]) & irrational[1:] & irrational[:-1]
        for i in np.flatnonzero(left).tolist():
            if values_equal(self.value(ranked[i]), self.value(ranked[i + 1])):
                raise AmbiguousRegularityError(
                    "distinct canonical forms compare equal through the ladder"
                )
        return number[bucket]


def class_columns(prepared: PreparedIFS, k: np.ndarray) -> ClassColumns:
    """The ``ClassColumns`` of the rows of k, nonzero class vectors of ``prepared``."""
    mass, length = k @ prepared.P, k @ prepared.R
    alpha = alphas_from_exponents(mass, length, prepared.log_primes)
    return ClassColumns(prepared.primes, k, mass, length, alpha)


def _exponent_rows(pevs: Sequence[PrimeExponentVector], primes: Sequence[int]) -> np.ndarray:
    """The exponents over ``primes`` of each vector, as the rows of an int64
    matrix; row i with an exponent that reaches 2**31 is refused with
    ``ValueError``."""
    column = {p: j for j, p in enumerate(primes)}
    out = np.zeros((len(pevs), len(primes)), dtype=np.int64)
    for i, pev in enumerate(pevs):
        for p, e in pev.items():
            if abs(e) >= 2**31:
                raise ValueError(f"value {i} is too deep: its exponents reach 2**31")
            out[i, column[p]] = e
    return out


def value_columns(values: Sequence[RegularityValue]) -> ClassColumns:
    """The ``ClassColumns`` of regularity values, one row each in order,
    over the primes of them all.  A value with an exponent that reaches
    2**31 is refused with ``ValueError``, as ``class_row`` refuses one."""
    primes = sorted(
        {p for v in values for pev in (v.mass_pev, v.length_pev) for p, _ in pev.items()}
    )
    mass = _exponent_rows([v.mass_pev for v in values], primes)
    length = _exponent_rows([v.length_pev for v in values], primes)
    alpha = alphas_from_exponents(mass, length, [math.log(p) for p in primes])
    return ClassColumns(tuple(primes), None, mass, length, alpha)


@dataclass
class HypothesisReport:
    """Result of checking that primitive vectors have pairwise distinct regularity.

    When the hypothesis holds, ``columns`` holds all primitive vectors in
    enumeration order, one class each; otherwise it is None.  A separation
    that stays ambiguous certifies no grouping, so it leaves ``collisions``
    empty.
    """

    holds: bool
    collisions: list[tuple[float, list[tuple[int, ...]]]] = field(default_factory=list)
    ambiguous: list[str] = field(default_factory=list)
    columns: ClassColumns | None = field(default=None, repr=False, compare=False)


def check_hypothesis_H(ifs: WeightedIFS | PreparedIFS, K_max: int) -> HypothesisReport:
    """Group primitive class vectors by exact regularity and certify separations.

    The vectors range over the class space of ``PreparedIFS``: for equal
    ratios, maps with the same probability share a slot, since they make
    per-map vectors collide by construction.  They are grouped as
    ``ClassColumns.partition`` groups them.
    """
    prepared = prepare(ifs)
    if prepared.dependence is not None:
        return HypothesisReport(holds=False, ambiguous=[prepared.dependence])
    columns = class_columns(prepared, primitive_matrix(prepared.width, K_max))
    try:
        number = columns.partition()
    except AmbiguousRegularityError as exc:
        return HypothesisReport(holds=False, ambiguous=[str(exc)])
    shared = np.flatnonzero(np.bincount(number)[number] > 1)
    if not len(shared):
        return HypothesisReport(holds=True, columns=columns)
    # the rows of each shared class, classes in first-seen order
    shared = shared[np.argsort(number[shared], kind="stable")]
    parts = np.split(shared, np.flatnonzero(np.diff(number[shared])) + 1)
    collisions = [
        (float(columns.alpha[part[0]]), list(map(tuple, columns.k[part].tolist())))
        for part in parts
    ]
    collisions.sort(key=lambda item: item[0])
    return HypothesisReport(holds=False, collisions=collisions)
