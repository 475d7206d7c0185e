"""Partition zeta functions and classical geometric zeta functions.

A class zeta is the series sum_n m_n (base^n)^s of an ``AlphaLengthSequence``:
a base length and a multiplicity law, evaluated with certified geometric
tail bounds.  ``closed_form_sequence`` is the one table of the string and
atomic classes; their exact rational zetas in z = base^s are the generating
functions of its laws.  Abscissas of convergence come in a closed
(entropy-formula) flavor and a numeric root-test flavor.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .ifs_core import (
    AtomicMeasureSpec,
    FractalStringSpec,
    WeightedIFS,
)
from .regularity import (
    FractionKey,
    OnePlusLogKey,
    PreparedIFS,
    RegularityKey,
    class_columns,
    class_row,
    prepare,
    primitive_matrix,
    row_fsums,
)
from .sequences import (
    AlphaLengthSequence,
    CollapsedLaw,
    ExplicitLaw,
    FloorSumLaw,
    GeometricLaw,
    MultinomialLaw,
    MultiplicityLaw,
)

# an unequal-ratio class must be attained by no other primitive vector up to
# this total count (see ``multinomial_zeta``)
HYPOTHESIS_K_MAX = 12


class DivergenceError(ValueError):
    """Series evaluation requested at or left of the certified region."""


class HypothesisViolationError(ValueError):
    """Distinct-regularity hypothesis fails for the requested class."""


class KeyRangeError(ValueError):
    """A class key too deep to evaluate: its length base would round to 0.0 as
    a double or pass ``LENGTH_BASE_BITS`` bits, or its entries or mass and
    length exponents reach 2**31 (``class_row``)."""


# a positive rational at or below 2**-1075 rounds to the double 0.0
_LOG_ZERO_DOUBLE = -1075 * math.log(2)

# Cap on the bits of a class's exact length base, estimated as the sum of
# e * max(bits of the numerator, bits of the denominator) over its factors
# b**e.  A power of 2**20 bits builds in about 0.05 s on a 2-vCPU Xeon VM; the
# deepest key of any shipped check, test or benchmark has an estimate of 128.
LENGTH_BASE_BITS = 1 << 20


def _length_base(factors: Sequence[tuple[Fraction, int]], key) -> Fraction:
    """prod b**e over the (b, e) factors: the length base of the class ``key``.

    Every consumer takes the log of the base as a double, so a base that would
    round to 0.0 is refused; the logs decide it before any power is built.  So
    is a base of more than ``LENGTH_BASE_BITS`` bits, which a ratio near 1
    reaches long before its double rounds to 0.0.
    """
    if math.fsum(e * math.log(b) for b, e in factors) <= _LOG_ZERO_DOUBLE:
        raise KeyRangeError(f"class {key} is too deep: its length base rounds to 0.0")
    bits = sum(e * max(b.numerator.bit_length(), b.denominator.bit_length()) for b, e in factors)
    if bits > LENGTH_BASE_BITS:
        raise KeyRangeError(
            f"class {key} is too deep: its exact length base has about {bits:,} bits, "
            f"above the cap of {LENGTH_BASE_BITS:,}"
        )
    base = Fraction(1)
    for b, e in factors:
        base *= b**e
    return base


# ---------------------------------------------------------------------------
# Exact polynomials over the rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Polynomial with rational coefficients, ascending order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        if not cs:
            cs = (Fraction(0),)
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def __call__(self, z):
        exact = isinstance(z, (int, Fraction))
        out = Fraction(0) if exact else 0j
        for c in reversed(self.coeffs):
            out = out * z + (c if exact else complex(c))
        return out

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return Poly(tuple(x + y for x, y in zip(a, b)))

    def scale(self, c: Fraction) -> "Poly":
        return Poly(tuple(Fraction(c) * x for x in self.coeffs))

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(1, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        d = other.coeffs
        while len(r) >= len(d) and any(r):
            if r[-1] == 0:
                r.pop()
                continue
            shift = len(r) - len(d)
            factor = r[-1] / d[-1]
            q[shift] = factor
            for i, c in enumerate(d):
                r[i + shift] -= factor * c
            r.pop()
        return Poly(tuple(q)), Poly(tuple(r) if r else (Fraction(0),))

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly((Fraction(0),))
        return Poly(tuple(Fraction(i) * c for i, c in enumerate(self.coeffs) if i))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return Poly((Fraction(1),))
    return a.scale(1 / a.coeffs[-1])


def _canonical_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """gcd-reduced, integer content-free, den constant term positive."""
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, _ = num.divmod(g)
        den, _ = den.divmod(g)
    lcm = 1
    for c in num.coeffs + den.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in num.coeffs] + [int(c * lcm) for c in den.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, abs(v))
    scale = Fraction(lcm, content or 1)
    num, den = num.scale(scale), den.scale(scale)
    if den(Fraction(0)) < 0:
        num, den = num.scale(Fraction(-1)), den.scale(Fraction(-1))
    return num, den


# ---------------------------------------------------------------------------
# Zeta function forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalZeta:
    """zeta(s) = num(z)/den(z) with z = base^s, base a rational in (0,1)."""

    num: Poly
    den: Poly
    base: Fraction
    label: str = ""

    def __post_init__(self):
        if not (0 < self.base < 1):
            raise ValueError("base must lie in (0,1)")
        num, den = _canonical_pair(self.num, self.den)
        if den(Fraction(0)) == 0:
            raise ValueError("denominator must not vanish at z=0")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def entire(self) -> bool:
        return self.den.degree == 0

    @functools.cached_property
    def log_unit(self) -> float:
        """-log(base) as a double: the distance in log x between two jumps of
        the counting function, worked out on first use and kept."""
        return -math.log(float(self.base))

    def z_of(self, s: complex) -> complex:
        return cmath.exp(complex(s) * math.log(self.base))

    def evaluate(self, s: complex) -> complex:
        z = self.z_of(s)
        return self.num(z) / self.den(z)

    def value_at_zero(self) -> Fraction | None:
        """zeta(0) as an exact rational; None when s=0 is a pole (z=1 root)."""
        d = self.den(Fraction(1))
        if d == 0:
            return None
        return self.num(Fraction(1)) / d


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float
    terms: int


@dataclass(frozen=True)
class AbscissaResult:
    value: float
    exact_description: str
    method: str  # "closed_form" | "root_test"


# ---------------------------------------------------------------------------
# Series construction and evaluation
# ---------------------------------------------------------------------------


def multinomial_zeta(ifs: WeightedIFS | PreparedIFS, k: Sequence[int]) -> AlphaLengthSequence:
    """Stage-subsequence zeta of the class of vector k (see ``PreparedIFS.class_vector``).

    For equal ratios the classes are valid when the distinct probabilities
    are multiplicatively independent; otherwise the class must be attained
    by no other primitive vector up to HYPOTHESIS_K_MAX.
    """
    prepared = prepare(ifs)
    kprime = prepared.class_vector(k)
    if prepared.dependence is not None:
        raise HypothesisViolationError(prepared.dependence)
    try:
        # the int64 columns of the hypothesis check multiply two exponents,
        # and building an exact base with that many bits runs past a minute
        row = class_row(prepared, kprime)
    except ValueError as exc:
        raise KeyRangeError(str(exc)) from exc
    base = _length_base(list(zip(prepared.slot_ratios, kprime)), kprime)
    if not prepared.ifs.equal_ratios():
        # the target leads the partition, whatever its K
        rows = primitive_matrix(prepared.width, HYPOTHESIS_K_MAX)
        rows = np.vstack((row, rows[(rows != row).any(axis=1)]))
        number = class_columns(prepared, rows).partition()
        shared = np.flatnonzero(number == number[0])
        if len(shared) > 1:
            raise HypothesisViolationError(
                f"regularity of {kprime} is also attained by {tuple(rows[shared[1]].tolist())}; "
                "the multinomial series undercounts this class"
            )
    if prepared.folds:
        law: MultiplicityLaw = CollapsedLaw(kprime=kprime, c=prepared.multiplicities)
    else:
        law = MultinomialLaw(k=kprime)
    return AlphaLengthSequence.from_law(base, law, label=f"class {kprime}")


def eval_series(
    zeta: AlphaLengthSequence, s: complex, tail_tol: float = 1e-12, max_terms: int = 100000
) -> SeriesValue:
    """Partial sum with a rigorous geometric tail bound <= tail_tol.

    Terms are m_n * l^(n s), computed in the log domain.  Once the term
    ratio is certifiably below q = ratio_sup * l^Re(s) < 1, the tail after
    term N is bounded by |t_N| q/(1-q).
    """
    s = complex(s)
    ln_l = math.log(zeta.base_length)
    ratio_bound, valid_from = zeta.law.ratio_sup()
    q = ratio_bound * float(zeta.base_length) ** s.real
    if q >= 1:
        raise DivergenceError(
            f"Re(s) = {s.real:.6g} is at or left of the certified convergence "
            f"region (term-ratio bound {q:.6g} >= 1)"
        )
    total = 0j
    n = 1
    while n <= max_terms:
        log_m = zeta.law.log_multiplicity(n)
        if log_m == -math.inf:
            term_abs = 0.0
        else:
            term = cmath.exp(log_m + n * s * ln_l)
            total += term
            term_abs = abs(term)
        if n >= valid_from:
            tail = term_abs * q / (1 - q)
            if tail <= tail_tol:
                return SeriesValue(value=total, tail_bound=tail, terms=n)
        n += 1
    raise DivergenceError(
        f"tail bound {tail_tol} not reached within {max_terms} terms (q = {q:.6g})"
    )


# ---------------------------------------------------------------------------
# Abscissas of convergence
# ---------------------------------------------------------------------------


def abscissa_descriptions(k: np.ndarray, multiplicities: Sequence[int] | None) -> list[str]:
    """The exact form of the abscissa of each class vector k' in the rows of
    an int matrix (see ``closed_abscissas``); ``multiplicities`` are the maps
    per slot of a folding system, None for one map per slot."""
    totals = k.sum(axis=1, keepdims=True)
    if multiplicities is not None:
        return [
            f"log_(r^{K})({'*'.join(f'{kq}^{kq}' for kq in kprime if kq)}"
            f" / ({'*'.join(f'{cq}^{kq}' for cq, kq in zip(multiplicities, kprime))}"
            f" * {K}^{K}))"
            for kprime, (K,) in zip(k.tolist(), totals.tolist())
        ]
    # the weights k_i/K in lowest terms, an integer when the denominator is 1
    g = np.gcd(k, totals)
    num = (k // g).ravel().tolist()
    den = np.broadcast_to(totals // g, k.shape).ravel().tolist()
    cells = iter([f"{n}/{d}" if d != 1 else f"{n}" for n, d in zip(num, den)])
    row = (
        "sum (k_i/K) log(k_i/K) / sum (k_i/K) log r_i with k/K = ("
        + ", ".join(["%s"] * k.shape[1]) + ")"
    )
    return [row % weights for weights in zip(*[cells] * k.shape[1])]


def closed_abscissas(prepared: PreparedIFS, k: np.ndarray) -> np.ndarray:
    """The entropy-formula abscissa of each class vector k' in the rows of an
    int64 matrix, clamped at +0.0.

    One map per slot: f = sum (k_i/K) log(k_i/K) / sum (k_i/K) log r_i over
    the nonzero k_i, 0.0 when the numerator is 0.0.  Slots of several maps
    (multiplicities c): f = log_{r^K}(prod k'^k' / (prod c^k' K^K)).  Each
    sum is a ``row_fsums``, and no ``Fraction`` is built: ``k_i / K`` is the
    correctly rounded double.  Every log is a ``math.log`` of a distinct
    value (``np.log`` may differ from it in the last bit).
    """
    K = k.sum(axis=1)
    if prepared.folds:
        # log 1 = 0.0 stands in for the empty slots, whose terms k log k are 0
        num = row_fsums(k * _math_logs(np.maximum(k, 1)))
        num = num - row_fsums(k * np.array(prepared.log_multiplicities))
        num = num - K * _math_logs(K)
        value = num / (K * prepared.log_ratios[0])
    else:
        w = np.where(k > 0, k / K[:, None], 1.0)
        num = row_fsums(np.where(k > 0, w * _math_logs(w), 0.0))
        den = row_fsums(np.where(k > 0, w * np.array(prepared.log_ratios), 0.0))
        # den < 0 on every row: some w > 0, and every log r < 0
        value = np.where(num == 0.0, 0.0, num / den)
    return np.where(value > 0, value, 0.0)


def _math_logs(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry of a positive array, once per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return np.array([math.log(v) for v in values.tolist()])[inverse].reshape(x.shape)


def abscissa_closed(ifs: WeightedIFS | PreparedIFS, k: Sequence[int]) -> AbscissaResult:
    """Closed-form abscissa of the class zeta: the entropy formula of
    ``closed_abscissas`` on the one row of the class vector of k."""
    prepared = prepare(ifs)
    row = class_row(prepared, prepared.class_vector(k))
    desc = abscissa_descriptions(row, prepared.multiplicities if prepared.folds else None)[0]
    return AbscissaResult(closed_abscissas(prepared, row).item(), desc, "closed_form")


def defining_residual(ifs: WeightedIFS | PreparedIFS, k: Sequence[int], sigma: float) -> float:
    """(prod r_q^k'_q)^sigma * K^K * prod c_q^k'_q / prod k'_q^k'_q over the
    slots q of the class vector k' of k, with c the maps per slot; the
    abscissa is its unique root."""
    prepared = prepare(ifs)
    kprime = prepared.class_vector(k)
    K = sum(kprime)
    slots = [
        (kq, r, c)
        for kq, r, c in zip(kprime, prepared.slot_ratios, prepared.multiplicities)
        if kq
    ]
    log_res = sigma * math.fsum(kq * math.log(r) for kq, r, _ in slots)
    log_res += K * math.log(K) + math.fsum(kq * math.log(c) for kq, _, c in slots)
    log_res -= math.fsum(kq * math.log(kq) for kq, _, _ in slots)
    return math.exp(log_res)


def abscissa_root_test(zeta: AlphaLengthSequence, n: int) -> AbscissaResult:
    """Root-test estimate log m_n / (n log(1/l)); error O(log n / n)."""
    if n < 10:
        raise ValueError("root test needs n >= 10")
    log_m = zeta.law.log_multiplicity(n)
    if log_m == -math.inf:
        raise ValueError(f"multiplicity law has no term at n = {n}")
    value = log_m / (n * -math.log(zeta.base_length))
    return AbscissaResult(
        value=value,
        exact_description=f"log(m_{n}) / ({n} log(1/{zeta.base_length}))",
        method="root_test",
    )


# ---------------------------------------------------------------------------
# Lattice closed forms
# ---------------------------------------------------------------------------


def closed_form_sequence(
    system: AtomicMeasureSpec | FractalStringSpec, key: RegularityKey | None = None
) -> AlphaLengthSequence:
    """The base length, multiplicity law and label of a string or atomic class.

    The one table of these classes: ``closed_form_zeta`` is the generating
    function of the law, and ``counting_explicit`` counts its lengths (all
    below 1).
    """
    if isinstance(system, FractalStringSpec):
        if system.family == "cantor":
            b, e, law = Fraction(1, 3), 1, GeometricLaw(1, 2)
        else:
            b, e, law = Fraction(1, 2), 1, FloorSumLaw()
        label = system.family
    elif not isinstance(system, AtomicMeasureSpec):
        raise TypeError(f"no closed-form ladder for {system!r}")
    elif isinstance(key, OnePlusLogKey):
        if system.family != "sigma1":
            raise ValueError(f"one-plus-log classes only occur for sigma1, not {system.family}")
        b, e, law, label = Fraction(1, 3), key.level, ExplicitLaw((1,)), f"entire {key}"
    elif not isinstance(key, FractionKey):
        raise ValueError(f"atomic closed forms need a k1/K or one-plus-log key, got {key}")
    else:
        q = key.value
        if not (0 < q <= 1):
            raise ValueError(f"key {q} is not attained (regularities lie in (0,1])")
        k1, K = q.numerator, q.denominator
        m = system.m
        if system.family == "sigma1":
            b, e, law, label = Fraction(1, 3), K, GeometricLaw(1, 1), f"sigma1 {q}"
        elif q == 1:
            # multiplicity (2m-1) m^(n-1) on lengths lam^n
            b, e, law = system.lam, 1, GeometricLaw(2 * m - 1, m)
            label = f"{system.family} alpha=1"
        else:
            # multiplicity (m-1) m^(k1 n - 1) on lengths lam^(K n)
            b, e, law = system.lam, K, GeometricLaw((m - 1) * m ** (k1 - 1), m**k1)
            label = f"{system.family} {q}"
    return AlphaLengthSequence.from_law(_length_base([(b, e)], key), law, label)


def closed_form_zeta(
    system: AtomicMeasureSpec | FractalStringSpec, key: RegularityKey | None = None
) -> RationalZeta:
    """Exact rational-lattice zeta of a string or atomic class: the
    generating function of the law in ``closed_form_sequence``.

    Strings: the whole geometric zeta.  Atomic families: the class keyed
    by k1/K (or a one-plus-log level for the half-weight leftmost cells,
    an entire monomial).  Every denominator is 1 - g z, 1 - z - z^2 or a
    constant, so every pole is simple.
    """
    seq = closed_form_sequence(system, key)
    num, den = (Poly(c) for c in seq.law.generating_function())
    if isinstance(system, FractalStringSpec) and system.family == "fibonacci":
        num = num + den  # the unit first length, the z^0 term
    return RationalZeta(num=num, den=den, base=seq.base_length, label=seq.label)
