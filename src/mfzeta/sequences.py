"""Alpha-length sequences: geometric length ladders with multiplicity laws.

A sequence assigns to term n >= 1 the length base_length**n with an
integer multiplicity m_n.  The laws cover every family handled in closed
form.  The laws of lattice classes also give their generating function
sum m_n z^n as a ratio of integer polynomials, from which the rational zetas
are built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def multinomial(K: int, ks: Sequence[int]) -> int:
    """Exact multinomial coefficient K! / prod(k_i!) with sum(ks) == K."""
    if sum(ks) != K:
        raise ValueError(f"multinomial parts {ks} do not sum to {K}")
    out = 1
    rem = K
    for k in ks:
        out *= math.comb(rem, k)
        rem -= k
    return out


def fibonacci(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# Multiplicity laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultinomialLaw:
    """m_n = multinomial(nK; n*k_1, ..., n*k_N)."""

    k: tuple[int, ...]

    @property
    def K(self) -> int:
        return sum(self.k)

    def multiplicity(self, n: int) -> int:
        return multinomial(n * self.K, [n * ki for ki in self.k])

    def ratio_sup(self) -> tuple[float, int]:
        """(upper bound on m_{n+1}/m_n, first n it holds from).

        The ratio increases to K^K / prod k_i^k_i, so the limit bounds
        every ratio.
        """
        log_r = self.K * math.log(self.K) - sum(
            ki * math.log(ki) for ki in self.k if ki
        )
        return math.exp(log_r) * (1 + 1e-12), 1

    def log_multiplicity(self, n: int) -> float:
        nK = n * self.K
        return math.lgamma(nK + 1) - sum(math.lgamma(n * ki + 1) for ki in self.k)


@dataclass(frozen=True)
class CollapsedLaw:
    """m_n = multinomial(nK; nk') * prod c_q^{n k'_q} (distinct-probability fold)."""

    kprime: tuple[int, ...]
    c: tuple[int, ...]

    @property
    def K(self) -> int:
        return sum(self.kprime)

    def multiplicity(self, n: int) -> int:
        out = multinomial(n * self.K, [n * kq for kq in self.kprime])
        for cq, kq in zip(self.c, self.kprime):
            out *= cq ** (n * kq)
        return out

    def ratio_sup(self) -> tuple[float, int]:
        log_r = self.K * math.log(self.K) - sum(
            kq * math.log(kq) for kq in self.kprime if kq
        )
        log_r += sum(kq * math.log(cq) for kq, cq in zip(self.kprime, self.c))
        return math.exp(log_r) * (1 + 1e-12), 1

    def log_multiplicity(self, n: int) -> float:
        nK = n * self.K
        out = math.lgamma(nK + 1) - sum(math.lgamma(n * kq + 1) for kq in self.kprime)
        out += sum(n * kq * math.log(cq) for kq, cq in zip(self.kprime, self.c))
        return out


@dataclass(frozen=True)
class GeometricLaw:
    """m_n = a * g^(n-1)."""

    a: int
    g: int

    def multiplicity(self, n: int) -> int:
        return self.a * self.g ** (n - 1)

    def ratio_sup(self) -> tuple[float, int]:
        return float(self.g), 1

    def log_multiplicity(self, n: int) -> float:
        return math.log(self.a) + (n - 1) * math.log(self.g)

    def generating_function(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(num, den) coefficients, ascending in z: a z / (1 - g z)."""
        return (0, self.a), (1, -self.g)


@dataclass(frozen=True)
class FloorSumLaw:
    """m_n = sum_{j<=n/2} C(n-j, j) = F_{n+1} (two-generator chain count)."""

    def multiplicity(self, n: int) -> int:
        return sum(math.comb(n - j, j) for j in range(n // 2 + 1))

    def ratio_sup(self) -> tuple[float, int]:
        # F_{n+2}/F_{n+1} <= 5/3 for n >= 2 (oscillates toward the golden ratio)
        return 5 / 3, 2

    def log_multiplicity(self, n: int) -> float:
        return math.log(self.multiplicity(n))

    def generating_function(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(num, den) coefficients, ascending in z: E / (1 - E) with E = z + z^2."""
        return (0, 1, 1), (1, -1, -1)


@dataclass(frozen=True)
class ExplicitLaw:
    """m_n read from a finite list; zero beyond it (entire-tail sequences)."""

    multiplicities: tuple[int, ...]

    def multiplicity(self, n: int) -> int:
        if 1 <= n <= len(self.multiplicities):
            return self.multiplicities[n - 1]
        return 0

    def ratio_sup(self) -> tuple[float, int]:
        return 0.0, len(self.multiplicities) + 1

    def log_multiplicity(self, n: int) -> float:
        m = self.multiplicity(n)
        return math.log(m) if m else -math.inf

    def generating_function(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(num, den) coefficients, ascending in z: the polynomial sum m_n z^n."""
        return (0, *self.multiplicities), (1,)


MultiplicityLaw = MultinomialLaw | CollapsedLaw | GeometricLaw | FloorSumLaw | ExplicitLaw


# ---------------------------------------------------------------------------
# Sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaLengthSequence:
    """Lengths with multiplicities attaining one regularity value: term n has
    length base_length**n and multiplicity law.multiplicity(n)."""

    base_length: Fraction
    law: MultiplicityLaw
    label: str = ""

    def __post_init__(self):
        if not (0 < self.base_length < 1):
            raise ValueError("base_length must lie in (0,1)")

    @classmethod
    def from_law(cls, base_length: Fraction, law: MultiplicityLaw, label: str = ""):
        return cls(base_length=Fraction(base_length), law=law, label=label)

    def max_index(self, x) -> int:
        """Largest n with base_length**-n <= x (0 when none); exact."""
        x = Fraction(x)
        inv = 1 / self.base_length
        n = 0
        power = inv
        while power <= x:
            n += 1
            power *= inv
        return n

    def counting(self, x) -> int:
        """Exact number of reciprocal lengths <= x, with multiplicity.

        A law with a generating function num/den (den[0] = 1) gives its
        multiplicities by the recurrence m_i = num_i - sum_{j>=1} den_j m_{i-j},
        in Python ints; the multinomial laws sum ``multiplicity``.
        """
        n = self.max_index(x)
        if not hasattr(self.law, "generating_function"):
            return sum(self.law.multiplicity(i) for i in range(1, n + 1))
        num, den = self.law.generating_function()
        m = (list(num) + [0] * n)[: n + 1]
        for i in range(1, n + 1):
            m[i] -= sum(d * m[i - j] for j, d in enumerate(den[1 : i + 1], 1))
        return sum(m[1:])
