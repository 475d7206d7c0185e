"""Multiplicity laws and alpha-length sequences."""
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfzeta.sequences import (
    AlphaLengthSequence,
    CollapsedLaw,
    ExplicitLaw,
    FloorSumLaw,
    GeometricLaw,
    MultinomialLaw,
    fibonacci,
    multinomial,
)
from mfzeta.verify import BETA0, TRIDENT
from mfzeta.zeta import multinomial_zeta


def test_multinomial():
    assert multinomial(5, (3, 2)) == 10
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (4, 0)) == 1
    with pytest.raises(ValueError):
        multinomial(5, (3, 3))


@given(K=st.integers(1, 8), N=st.integers(1, 4))
def test_multinomial_sums_to_power(K, N):
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first, *rest)

    assert sum(multinomial(K, k) for k in compositions(K, N)) == N**K


def test_fibonacci():
    assert [fibonacci(n) for n in range(1, 8)] == [1, 1, 2, 3, 5, 8, 13]


def test_multinomial_law():
    law = MultinomialLaw(k=(3, 2))
    assert law.multiplicity(1) == 10
    assert law.multiplicity(2) == multinomial(10, (6, 4))
    bound, valid_from = law.ratio_sup()
    for n in range(valid_from, valid_from + 5):
        growth = law.multiplicity(n + 1) / law.multiplicity(n)
        assert growth <= bound


def test_collapsed_law():
    law = CollapsedLaw(kprime=(2, 1), c=(2, 1))
    assert law.multiplicity(1) == multinomial(3, (2, 1)) * 4  # 12
    assert law.multiplicity(2) == multinomial(6, (4, 2)) * 16
    bound, valid_from = law.ratio_sup()
    for n in range(valid_from, valid_from + 5):
        assert law.multiplicity(n + 1) / law.multiplicity(n) <= bound


def test_geometric_law():
    law = GeometricLaw(a=3, g=2)
    assert [law.multiplicity(n) for n in (1, 2, 3)] == [3, 6, 12]
    assert law.ratio_sup()[0] == 2.0


def test_floor_sum_law():
    law = FloorSumLaw()
    assert [law.multiplicity(n) for n in range(1, 7)] == [1, 2, 3, 5, 8, 13]
    bound, valid_from = law.ratio_sup()
    assert valid_from == 2
    assert law.multiplicity(2) / law.multiplicity(1) > bound  # why n >= 2 is needed
    for n in range(2, 12):
        assert law.multiplicity(n + 1) / law.multiplicity(n) <= bound


def test_explicit_law():
    law = ExplicitLaw(multiplicities=(4, 0, 7))
    assert [law.multiplicity(n) for n in (1, 2, 3, 4, 9)] == [4, 0, 7, 0, 0]


def test_sequence_exact_counting():
    seq = AlphaLengthSequence.from_law(F(1, 3), GeometricLaw(a=1, g=2))
    # reciprocal lengths 3, 9, 27, ... with multiplicities 1, 2, 4, ...
    assert seq.max_index(10) == 2
    assert seq.max_index(27) == 3
    assert seq.max_index(F(26999, 1000)) == 2
    assert seq.counting(10) == 3
    assert seq.counting(2) == 0
    assert seq.counting(3) == 1


def test_fibonacci_count_sums_the_recurrence(monkeypatch):
    """A law with a generating function counts by its recurrence: at 1e300
    the count is F(n + 3) - 2 with no binomial multiplicity summed."""
    calls = []
    multiplicity = FloorSumLaw.multiplicity
    monkeypatch.setattr(
        FloorSumLaw, "multiplicity", lambda self, n: calls.append(n) or multiplicity(self, n)
    )
    seq = AlphaLengthSequence.from_law(F(1, 2), FloorSumLaw())
    n = seq.max_index(1e300)
    assert n == 996
    assert seq.counting(1e300) == fibonacci(n + 3) - 2
    assert calls == []


def test_multinomial_laws_count_by_summing_multiplicities():
    """A law without a generating function counts by summing its
    multiplicities: the binomial class (1, 1) of BETA0 (ratio 1/2) and the
    collapsed class (1, 1) of TRIDENT (ratio 1/5, c = (2, 1))."""
    beta0 = multinomial_zeta(BETA0, (1, 1))
    assert isinstance(beta0.law, MultinomialLaw) and beta0.base_length == F(1, 4)
    assert beta0.counting(4**5) == 2 + 6 + 20 + 70 + 252 == 350
    trident = multinomial_zeta(TRIDENT, (1, 1))
    assert isinstance(trident.law, CollapsedLaw) and trident.law.c == (2, 1)
    assert trident.base_length == F(1, 25)
    assert trident.counting(25**3) == 4 + 24 + 160 == 188


def test_sequence_base_length_lies_in_the_unit_interval():
    for base in (F(0), F(1), F(3, 2)):
        with pytest.raises(ValueError, match="base_length"):
            AlphaLengthSequence.from_law(base, GeometricLaw(a=1, g=2))


@given(x=st.fractions(min_value=F(1), max_value=F(100000)))
def test_counting_never_overshoots(x):
    seq = AlphaLengthSequence.from_law(F(1, 2), GeometricLaw(a=1, g=1))
    # one length per level: counting(x) = floor(log2 x) exactly
    n = seq.counting(x)
    assert 2**n <= x < 2 ** (n + 1)
