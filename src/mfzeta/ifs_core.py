"""Measure systems and exact rational plumbing.

Defines the three kinds of input systems:

* ``WeightedIFS`` — N contracting similarity maps on [0,1] with rational
  scaling ratios r_i and a rational probability vector p_i, placed as a
  left-justified chain (first map fixes 0, last map fixes 1, leftover
  length split into equal gaps between consecutive images).
* ``AtomicMeasureSpec`` — the purely atomic families: ``sigma1``
  (weight 3^-i at position 3^-i) and ``sigma2``/``generalized`` (strings
  of atoms of weight lambda^j laid end to end, lambda = 1/(2m-1)).
* ``FractalStringSpec`` — the two classical strings (``cantor``,
  ``fibonacci``) used for the geometric zeta function.

All parameters are exact rationals; prime exponent vectors give an exact
multiplicative representation used for regularity comparisons and
rational-independence tests.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

Rational = Fraction


class ConfigError(ValueError):
    """Invalid system configuration; ``field_path`` locates the offender."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its fixed work budget."""


# ---------------------------------------------------------------------------
# Integer factorization: trial division then Pollard rho
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 10**6

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n."""
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize_int(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorize_int requires a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    # wheel over 2,3,5 residues
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    # remaining cofactor: prime, or split recursively with Pollard rho
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


# ---------------------------------------------------------------------------
# Prime exponent vectors
# ---------------------------------------------------------------------------


class PrimeExponentVector:
    """A positive rational written multiplicatively: prod over primes p^e.

    The empty vector represents 1; ``as_fraction`` rebuilds the rational.
    """

    __slots__ = ("_e",)

    def __init__(self, exponents: Mapping[int, int] | None = None):
        self._e = {p: int(e) for p, e in (exponents or {}).items() if e != 0}

    def exponents(self) -> dict[int, int]:
        return dict(self._e)

    def items(self):
        return self._e.items()

    def is_zero(self) -> bool:
        return not self._e

    def as_fraction(self) -> Fraction:
        num = 1
        den = 1
        for p, e in self._e.items():
            if e > 0:
                num *= p**e
            else:
                den *= p**-e
        return Fraction(num, den)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeExponentVector) and self._e == other._e

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._e.items())))

    def __repr__(self) -> str:
        return f"PrimeExponentVector({self._e!r})"


def factorize(x: Rational) -> PrimeExponentVector:
    """Exact factorization of a positive rational into a prime exponent vector."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("factorize requires a positive rational")
    exps = factorize_int(x.numerator)
    for p, e in factorize_int(x.denominator).items():
        exps[p] = exps.get(p, 0) - e
    return PrimeExponentVector(exps)


# ---------------------------------------------------------------------------
# System types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedIFS:
    """Left-justified chain of N similarity maps with probability weights."""

    ratios: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.ratios) != len(self.probs):
            raise ConfigError("probs", "ratios and probs must have equal length")
        if len(self.ratios) < 2:
            raise ConfigError("ratios", "need at least 2 maps")
        for i, r in enumerate(self.ratios):
            if not (0 < r < 1):
                raise ConfigError(f"ratios[{i}]", f"ratio {r} not in (0,1)")
        for i, p in enumerate(self.probs):
            if not (0 < p <= 1):
                raise ConfigError(f"probs[{i}]", f"probability {p} not in (0,1]")
        if sum(self.ratios) > 1:
            raise ConfigError("ratios", f"ratios sum to {sum(self.ratios)} > 1")
        if sum(self.probs) != 1:
            raise ConfigError("probs", f"probabilities sum to {sum(self.probs)}")

    @property
    def N(self) -> int:
        return len(self.ratios)

    @property
    def gap(self) -> Fraction:
        """Length of each of the N-1 equal gaps between consecutive images."""
        return (1 - sum(self.ratios)) / (self.N - 1)

    def equal_ratios(self) -> bool:
        return len(set(self.ratios)) == 1


@dataclass(frozen=True)
class AtomicMeasureSpec:
    """One of the atomic families sigma1, sigma2, generalized(m)."""

    family: str
    m: int = 2

    def __post_init__(self):
        if self.family not in ("sigma1", "sigma2", "generalized"):
            raise ConfigError("family", f"unknown atomic family {self.family!r}")
        if self.family == "generalized" and self.m < 2:
            raise ConfigError("m", "generalized family requires m >= 2")
        if self.family in ("sigma1", "sigma2"):
            object.__setattr__(self, "m", 2)

    @property
    def base(self) -> int:
        """Partition base: intervals at stage n have length base^-n."""
        return 3 if self.family == "sigma1" else 2 * self.m - 1

    @property
    def lam(self) -> Fraction:
        """Atom weight ratio lambda = 1/(2m-1) for the string families."""
        if self.family == "sigma1":
            raise ValueError("sigma1 has no lambda parameter")
        return Fraction(1, 2 * self.m - 1)

    def total_mass(self) -> Fraction:
        return Fraction(1, 2) if self.family == "sigma1" else Fraction(1)


@dataclass(frozen=True)
class FractalStringSpec:
    """A classical fractal string known in closed form."""

    family: str

    def __post_init__(self):
        if self.family not in ("cantor", "fibonacci"):
            raise ConfigError("family", f"unknown string family {self.family!r}")


@dataclass(frozen=True)
class CollapsedProbabilities:
    """Distinct probability values with multiplicities, sorted ascending."""

    distinct: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]
    slot_of: tuple[int, ...]  # original index -> index into distinct

    def __post_init__(self):
        if sum(self.multiplicities) != len(self.slot_of):
            raise ValueError("multiplicities must sum to N")

    @property
    def w(self) -> int:
        return len(self.distinct)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# Numerators and denominators of config rationals stay below 2**64: factorizing
# a 128-bit semiprime runs Pollard rho for hours, a 64-bit one for ~0.15 s.
RATIONAL_BOUND = 2**64
# \d, not [0-9]: Fraction also reads an exponent in other Unicode digits
_EXPONENT = re.compile(r"e[-+]?0*([\d_]*)\s*$", re.IGNORECASE)


def parse_rational(value, path: str) -> Fraction:
    """An integer, or a string that ``Fraction`` reads, within the bounds above."""
    if isinstance(value, bool):
        raise ConfigError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        q = Fraction(value)
    elif isinstance(value, str):
        # an exponent beyond len(value) + 20 puts a factor >= 10**20 > 2**64
        # into the numerator or denominator whatever the mantissa; reject it
        # before Fraction builds 10**exponent
        exponent = _EXPONENT.search(value)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "")
            if len(digits) > 9 or int(digits or 0) > len(value) + 20:
                raise ConfigError(path, f"exponent of {value!r} is out of range")
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(path, f"malformed rational {value!r}") from exc
    else:
        raise ConfigError(
            path, f"expected rational string or integer, got {type(value).__name__}"
        )
    if abs(q.numerator) >= RATIONAL_BOUND or q.denominator >= RATIONAL_BOUND:
        raise ConfigError(path, f"numerator and denominator of {value!r} must be below 2**64")
    return q


def parse_system(config_text) -> WeightedIFS | AtomicMeasureSpec | FractalStringSpec:
    """Parse a JSON system config into one of the three system types.

    Accepts either the JSON text or an already-decoded mapping.  Every
    validation failure raises ``ConfigError`` carrying the field path.
    """
    if isinstance(config_text, (str, bytes)):
        try:
            cfg = json.loads(config_text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<config>", f"invalid JSON: {exc}") from exc
    else:
        cfg = config_text
    if not isinstance(cfg, dict):
        raise ConfigError("<config>", "config must be a JSON object")
    kind = cfg.get("type")
    if kind == "ifs":
        ratios = cfg.get("ratios")
        probs = cfg.get("probs")
        if not isinstance(ratios, list) or not ratios:
            raise ConfigError("ratios", "expected a non-empty list")
        if not isinstance(probs, list) or not probs:
            raise ConfigError("probs", "expected a non-empty list")
        if len(ratios) < 2:
            raise ConfigError("ratios", "need at least 2 maps")
        r = tuple(parse_rational(v, f"ratios[{i}]") for i, v in enumerate(ratios))
        p = tuple(parse_rational(v, f"probs[{i}]") for i, v in enumerate(probs))
        return WeightedIFS(ratios=r, probs=p)
    if kind == "atomic":
        family = cfg.get("family")
        if family not in ("sigma1", "sigma2", "generalized"):
            raise ConfigError("family", f"unknown atomic family {family!r}")
        m = cfg.get("m", 2)
        if family == "generalized":
            if not isinstance(m, int) or isinstance(m, bool) or m < 2:
                raise ConfigError("m", f"generalized family requires integer m >= 2, got {m!r}")
        return AtomicMeasureSpec(family=family, m=m if family == "generalized" else 2)
    if kind == "string":
        family = cfg.get("family")
        if family not in ("cantor", "fibonacci"):
            raise ConfigError("family", f"unknown string family {family!r}")
        return FractalStringSpec(family=family)
    raise ConfigError("type", f"unknown system type {kind!r}")


# ---------------------------------------------------------------------------
# Collapse and rational independence
# ---------------------------------------------------------------------------


def collapse_probabilities(ifs: WeightedIFS) -> CollapsedProbabilities:
    """Group equal probabilities: distinct values p'_q ascending with counts c_q."""
    distinct = sorted(set(ifs.probs))
    index = {v: q for q, v in enumerate(distinct)}
    slot_of = tuple(index[p] for p in ifs.probs)
    mult = [0] * len(distinct)
    for s in slot_of:
        mult[s] += 1
    return CollapsedProbabilities(
        distinct=tuple(distinct), multiplicities=tuple(mult), slot_of=slot_of
    )


def check_rational_independence(
    values: Sequence[Rational],
) -> tuple[bool, tuple[int, ...] | None]:
    """Test multiplicative independence of rationals in (0,1).

    Returns ``(True, None)`` when the prime exponent vectors of the
    values are linearly independent over the rationals (equivalently,
    their logarithms are rationally independent).  Otherwise returns
    ``(False, a)`` with a primitive integer relation
    ``prod values[i]**a[i] == 1``.
    """
    vals = [Fraction(v) for v in values]
    for v in vals:
        if not (0 < v < 1):
            raise ValueError(f"values must lie in (0,1), got {v}")
    pevs = [factorize(v) for v in vals]
    primes = sorted({p for pev in pevs for p, _ in pev.items()})
    # columns = values, rows = primes; find a nontrivial nullspace vector
    rows = [[Fraction(pev.exponents().get(p, 0)) for pev in pevs] for p in primes]
    n = len(vals)
    # Gaussian elimination tracking pivot columns
    pivot_cols: list[int] = []
    mat = [row[:] for row in rows]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    if len(pivot_cols) == n:
        return True, None
    # build a nullspace vector for the first free column
    free = next(c for c in range(n) if c not in pivot_cols)
    coeff = [Fraction(0)] * n
    coeff[free] = Fraction(1)
    for i, c in enumerate(pivot_cols):
        coeff[c] = -mat[i][free]
    lcm = 1
    for x in coeff:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in coeff]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    witness = tuple(x // g for x in ints)
    # normalize sign: first nonzero entry positive
    first = next(x for x in witness if x != 0)
    if first < 0:
        witness = tuple(-x for x in witness)
    return False, witness
