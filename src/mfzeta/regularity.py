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
   ``log_bounds``, only for pairs whose float enclosures overlap;
3. if the intervals still overlap, ``AmbiguousRegularityError`` is
   raised — values are never silently merged.

``partition_values`` groups values into these classes.  ``ClassColumns``
groups the class vectors of a whole sweep the same way from integer columns,
with the float filter as one numpy pass; it builds values only for the pairs
that the filter leaves to the intervals.

The float alpha of a class is ``alpha_from_exponents``; for a whole matrix
of classes at once, ``alphas_from_exponents`` gives the same doubles, with
``row_fsums`` in place of ``math.fsum``.

Facts that every class of one system shares (its class space with the
factorized parameters of each slot and the independence verdict of its
distinct probabilities) live in a ``PreparedIFS``, built once by
``prepare``; every function taking a ``WeightedIFS`` here also takes its
prepared form.
"""
from __future__ import annotations

import functools
import math
import operator
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


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


# An enclosure that overlaps everything: the float filter then decides nothing.
_NO_FILTER = (-math.inf, math.inf)


@functools.cache
def _float_log(p: int) -> tuple[float, float]:
    """The tightest double bounds on the 64-bit ``log_bounds`` of log p: each
    end correctly rounded by int/int division, then stepped out if that went
    in (scaling a double by 2^64 is exact, so the test is too)."""
    lo, hi = log_bounds(p, 64)
    f_lo, f_hi = lo / 2**64, hi / 2**64
    return _down(f_lo) if f_lo * 2**64 > lo else f_lo, _up(f_hi) if f_hi * 2**64 < hi else f_hi


def _float_form(pev: PrimeExponentVector) -> tuple[float, float]:
    """Float bounds on sum e * log p over pev, each step rounded outward."""
    lo = hi = 0.0
    for p, e in pev.items():
        if abs(e) > 2**53:
            return _NO_FILTER  # e would round on its way to a double
        bounds = _float_log(p)
        lp_lo, lp_hi = bounds if e > 0 else bounds[::-1]
        lo = _down(lo + _down(e * lp_lo))
        hi = _up(hi + _up(e * lp_hi))
    return lo, hi


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


# slots: the oracle holds one value per stage record, and a read of
# HypothesisReport.classes one per class; a per-instance dict would add about
# 250 bytes to each
@dataclass(frozen=True, slots=True)
class RegularityValue:
    """alpha = log(mass)/log(length) as an exact pair of exponent vectors.

    The exact rational alpha of a parallel pair is worked out once, at
    construction; the canonical form, the float and the float enclosure on
    first use.
    """

    mass_pev: PrimeExponentVector
    length_pev: PrimeExponentVector
    _rational: Fraction | None = field(init=False, compare=False, repr=False)
    _canonical: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _float: float | None = field(default=None, init=False, compare=False, repr=False)
    _float_bounds: tuple[float, float] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.length_pev.is_zero():
            raise ValueError("length exponent vector must be nonzero")
        _, mass, length = _aligned(self.mass_pev, self.length_pev)
        ratio = _parallel(mass, length)
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
        value = self._float
        if value is None:
            primes, mass, length = _aligned(self.mass_pev, self.length_pev)
            value = alpha_from_exponents(mass, length, [math.log(p) for p in primes])
            object.__setattr__(self, "_float", value)
        return value

    def float_enclosure(self) -> tuple[float, float]:
        """Float bounds on alpha, every product, sum and quotient widened by
        one ulp; worked out on first use and kept."""
        bounds = self._float_bounds
        if bounds is None:
            lo, hi = _quotient(_float_form(self.mass_pev), _float_form(self.length_pev))
            bounds = _down(lo), _up(hi)
            object.__setattr__(self, "_float_bounds", bounds)
        return bounds

    def interval(self, prec_bits: int) -> tuple[Fraction, Fraction]:
        """Bounds on alpha at one rung (64, 256 or 1024 bits): the extreme
        quotients of the integer ``log_bounds`` forms of mass and length, or
        the infinities while the length form brackets 0."""
        if prec_bits not in _PREC_LADDER:
            raise ValueError(f"precision must be one of {_PREC_LADDER}, got {prec_bits}")
        mass = tuple(map(Fraction, _int_form(self.mass_pev, prec_bits)))
        return _quotient(mass, _int_form(self.length_pev, prec_bits))


def _aligned(
    mass: PrimeExponentVector, length: PrimeExponentVector
) -> tuple[list[int], list[int], list[int]]:
    """The primes of a pair of vectors and the exponents of each over them."""
    mass_e, length_e = mass.exponents(), length.exponents()
    primes = [*length_e, *(p for p in mass_e if p not in length_e)]
    return primes, [mass_e.get(p, 0) for p in primes], [length_e.get(p, 0) for p in primes]


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


def alpha_from_exponents(
    mass: Sequence[int], length: Sequence[int], logs: Sequence[float]
) -> float:
    """alpha = log(mass)/log(length) as a double, from the exponents of the
    two products over primes whose ``math.log`` values are ``logs``.

    A parallel pair is the rational a/b, which int true division rounds
    correctly, as ``float(Fraction(a, b))`` does; any other pair is the
    quotient of the ``fsum``s of the products e * log p (a zero exponent adds
    an exact 0.0, which leaves a correctly rounded sum unchanged).
    """
    ratio = _parallel(mass, length)
    if ratio is not None:
        return ratio[0] / ratio[1]
    num = math.fsum(map(operator.mul, mass, logs))
    return num / math.fsum(map(operator.mul, length, logs))


def alphas_from_exponents(
    mass: np.ndarray, length: np.ndarray, logs: Sequence[float]
) -> np.ndarray:
    """``alpha_from_exponents`` of each row pair of two int64 matrices, bit
    for bit; every row of ``length`` must be nonzero.

    A parallel row is a/b, which float64 division of the exactly converted
    ints rounds correctly; any other row is the quotient of the
    ``row_fsums`` of the same products e * log p.
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
    float filter and interval ladder only certify distinctness, or raise
    ``AmbiguousRegularityError``."""
    if a.canonical() == b.canonical():
        return True
    if a._rational is not None or b._rational is not None:
        # distinct rationals differ, and a rational never equals an irrational
        return False
    if _apart(a.float_enclosure(), b.float_enclosure()):
        return False
    if any(_apart(a.interval(prec), b.interval(prec)) for prec in _PREC_LADDER):
        return False
    raise AmbiguousRegularityError(
        f"cannot separate regularity values near {a.to_float()!r} at "
        f"{_PREC_LADDER[-1]} bits"
    )


def assert_separated(values: Sequence[RegularityValue]) -> None:
    """Certify pairwise distinctness of values with distinct canonical forms.

    Values are sorted; separating each adjacent pair separates all pairs.
    Raises ``AmbiguousRegularityError`` when a pair cannot be separated.
    """
    order = sorted(values, key=lambda v: v.to_float())
    for a, b in zip(order, order[1:]):
        if values_equal(a, b):
            raise AmbiguousRegularityError(
                "distinct canonical forms compare equal through the ladder"
            )


def partition_values(values: Sequence[RegularityValue]) -> list[list[int]]:
    """The indices of ``values`` grouped into classes of equal values.

    Values are bucketed by canonical form, buckets and their indices in
    first-seen order; one representative per bucket then goes through
    ``assert_separated``, so buckets are never merged or split silently.
    """
    buckets: dict[tuple, list[int]] = {}
    for i, value in enumerate(values):
        buckets.setdefault(value.canonical(), []).append(i)
    parts = list(buckets.values())
    assert_separated([values[part[0]] for part in parts])
    return parts


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
    and ``slot_ratios``, ``slot_p_pev`` and ``slot_r_pev`` hold each slot's
    ratio and factorized probability and ratio.  The independence verdict
    and its witness refer to the distinct probabilities of an equal-ratio
    system and are trivially true otherwise.

    For the sweeps, the same factorizations are also integer rows over the
    system's ``primes``: ``p_rows[q]`` and ``r_rows[q]`` hold the pairs
    (j, e) with e != 0 the exponent of ``primes[j]`` in slot q's probability
    and ratio.  ``log_primes``, ``log_ratios`` and ``log_multiplicities``
    hold the ``math.log`` of each prime, slot ratio and slot multiplicity.
    """

    ifs: WeightedIFS
    slot_of: tuple[int, ...]
    multiplicities: tuple[int, ...]
    slot_ratios: tuple[Fraction, ...]
    slot_p_pev: tuple[PrimeExponentVector, ...]
    slot_r_pev: tuple[PrimeExponentVector, ...]
    independent: bool
    witness: tuple[int, ...] | None
    primes: tuple[int, ...]
    p_rows: tuple[tuple[tuple[int, int], ...], ...]
    r_rows: tuple[tuple[tuple[int, int], ...], ...]
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

    def exponents(self, kprime: Sequence[int]) -> tuple[list[int], list[int]]:
        """The exponents over ``primes`` of the mass and length products of
        the class vector k', unchecked."""
        mass, length = [0] * len(self.primes), [0] * len(self.primes)
        for kq, p_row, r_row in zip(kprime, self.p_rows, self.r_rows):
            if kq:
                for j, e in p_row:
                    mass[j] += kq * e
                for j, e in r_row:
                    length[j] += kq * e
        return mass, length

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

    def rows(pevs: tuple[PrimeExponentVector, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple((primes.index(p), e) for p, e in pev.items()) for pev in pevs)

    return PreparedIFS(
        ifs=system,
        slot_of=slot_of,
        multiplicities=mult,
        slot_ratios=ratios,
        slot_p_pev=p_pev,
        slot_r_pev=r_pev,
        independent=independent,
        witness=witness,
        primes=primes,
        p_rows=rows(p_pev),
        r_rows=rows(r_pev),
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
    """The class of a nonzero class vector k' with non-negative parts."""
    mass, length = prepared.exponents(kprime)
    g = math.gcd(*kprime)
    primes = prepared.primes
    alpha_float = alpha_from_exponents(mass, length, prepared.log_primes)
    alpha_exact = RegularityValue(
        PrimeExponentVector(dict(zip(primes, mass))),
        PrimeExponentVector(dict(zip(primes, length))),
    )
    # the same double to_float would give (zero exponents add exact 0.0s),
    # so sorting by it in assert_separated derives no alpha a second time
    object.__setattr__(alpha_exact, "_float", alpha_float)
    return RegularityClass(
        key=VectorKey(kprime if g == 1 else tuple(x // g for x in kprime)),
        alpha_exact=alpha_exact,
        alpha_float=alpha_float,
        K=sum(kprime),
    )


def is_monofractal(ifs: WeightedIFS | PreparedIFS) -> RegularityValue | None:
    """The common unit-vector regularity when all maps share it, else None.

    The unit values must form one ``partition_values`` bucket; the common
    value may be irrational (e.g. the Devil's-staircase system).
    """
    units = unit_values(prepare(ifs))
    return units[0] if len(partition_values(units)) == 1 else None


def unit_values(prepared: PreparedIFS) -> list[RegularityValue]:
    """The regularity of each single map, in map order."""
    N = prepared.ifs.N
    return [
        regularity_of(prepared, tuple(1 if j == i else 0 for j in range(N))).alpha_exact
        for i in range(N)
    ]


# ---------------------------------------------------------------------------
# Primitive vectors and hypothesis (H)
# ---------------------------------------------------------------------------


def primitive_matrix(N: int, K_max: int) -> np.ndarray:
    """All k with gcd 1 and 1 <= sum(k) <= K_max, in lexicographic order, as
    the rows of an int64 matrix.

    For N = 1 that is (1,) alone: the one class of a system whose
    probabilities collapse to a single value.
    """
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
    return rows[np.gcd.reduce(rows, axis=1) == 1]


def primitive_vectors(N: int, K_max: int) -> list[tuple[int, ...]]:
    """The rows of ``primitive_matrix`` as tuples of ints."""
    return list(map(tuple, primitive_matrix(N, K_max).tolist()))


def _exponent_matrix(rows: tuple[tuple[tuple[int, int], ...], ...], n: int) -> np.ndarray:
    """The (j, e) rows of a ``PreparedIFS`` as a dense int64 matrix over n primes."""
    out = np.zeros((len(rows), n), dtype=np.int64)
    for q, row in enumerate(rows):
        for j, e in row:
            out[q, j] = e
    return out


def _float_forms(e: np.ndarray, primes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``_float_form`` of each row of an int64 exponent matrix over primes,
    bit for bit: the same steps in the same prime order, each zero exponent
    skipped as the sparse vector skips it."""
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
    """Nonzero class vectors of one system as the rows of an int64 matrix
    ``k``, with the exponents over ``primes`` of each row's mass and length
    products and its float alpha (``alphas_from_exponents``).

    Built by ``class_columns``.  Row i stands for the value ``value(i)``;
    ``partition`` groups the rows as ``partition_values`` groups those
    values, and builds a value only for a pair that the float filter leaves
    to the interval ladder.
    """

    primes: tuple[int, ...]
    k: np.ndarray
    mass: np.ndarray
    length: np.ndarray
    alpha: np.ndarray

    def value(self, i: int) -> RegularityValue:
        """The exact value of row i."""
        return RegularityValue(
            PrimeExponentVector(dict(zip(self.primes, self.mass[i].tolist()))),
            PrimeExponentVector(dict(zip(self.primes, self.length[i].tolist()))),
        )

    def float_enclosures(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``float_enclosure()`` bounds of the values of the given rows,
        bit for bit: ``_quotient`` of the ``_float_forms``, widened by one ulp."""
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
        values are equal, and classes are numbered in first-seen order, the
        order of ``partition_values``' lists.

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
        key = np.column_stack((np.zeros(len(self.k), np.int64), self.mass, self.length))
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
    n = len(prepared.primes)
    mass = k @ _exponent_matrix(prepared.p_rows, n)
    length = k @ _exponent_matrix(prepared.r_rows, n)
    alpha = alphas_from_exponents(mass, length, prepared.log_primes)
    return ClassColumns(prepared.primes, k, mass, length, alpha)


@dataclass
class HypothesisReport:
    """Result of checking that primitive vectors have pairwise distinct regularity.

    When the hypothesis holds, ``columns`` holds all primitive vectors in
    enumeration order and ``classes`` builds their classes on each read;
    otherwise ``columns`` is None and ``classes`` is empty.  A separation
    that stays ambiguous certifies no grouping, so it leaves ``collisions``
    empty.
    """

    holds: bool
    collisions: list[tuple[float, list[tuple[int, ...]]]] = field(default_factory=list)
    ambiguous: list[str] = field(default_factory=list)
    columns: ClassColumns | None = field(default=None, repr=False, compare=False)

    @property
    def classes(self) -> list[RegularityClass]:
        columns = self.columns
        if columns is None:
            return []
        classes = []
        for i, (k, alpha) in enumerate(zip(columns.k.tolist(), columns.alpha.tolist())):
            value = columns.value(i)
            # the double to_float would derive (zero exponents add exact 0.0s)
            object.__setattr__(value, "_float", alpha)
            classes.append(RegularityClass(VectorKey(tuple(k)), value, alpha, sum(k)))
        return classes


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
