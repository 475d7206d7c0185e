"""Brute-force enumeration against hand-computed stage tables."""
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfzeta import oracle
from mfzeta.ifs_core import AtomicMeasureSpec, BudgetExceededError, WeightedIFS
from mfzeta.oracle import atomic_stage, enumerate_stage, group_by_regularity
from mfzeta.regularity import FractionKey, InfiniteKey, OnePlusLogKey, VectorKey
from mfzeta.sequences import fibonacci

BETA = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
TRIDENT = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(3, 5), F(1, 5)))
ROBY = WeightedIFS(ratios=(F(1, 2), F(1, 4), F(1, 10)), probs=(F(1, 2), F(1, 4), F(1, 4)))
S1 = AtomicMeasureSpec(family="sigma1")
S2 = AtomicMeasureSpec(family="sigma2")
S3 = AtomicMeasureSpec(family="generalized", m=3)


def atomic_cdf(spec: AtomicMeasureSpec, y: F) -> F:
    """F(y) = measure of [0, y), exact: the oracle that ``atomic_stage`` is
    checked against.

    sigma1 sums the geometric tail of atoms 3^-i < y in closed form.  The
    string families walk atom groups: group j holds (m-1)m^(j-1) atoms of
    weight lambda^j at positions (m*lambda)^j + t*lambda^j; groups fully
    below y telescope to (m*lambda)^(j-1).
    """
    y = F(y)
    if y <= 0:
        return F(0)
    if spec.family == "sigma1":
        # smallest index with 3^-i < y, then the full tail below it
        i0 = 1
        power = F(1, 3)
        while power >= y:
            i0 += 1
            power /= 3
        return F(3, 2) * F(1, 3**i0)
    m = spec.m
    b = spec.base  # 2m - 1, lambda = 1/b
    total = F(0)
    j = 1
    while True:
        group_start = F(m ** (j - 1), b ** (j - 1))  # (m*lambda)^(j-1)
        if y > group_start:
            return total + group_start
        n_j = (m - 1) * m ** (j - 1)
        # atoms below y in group j: positions (m^j + t) * lambda^j, t < n_j
        q = y * b**j - m**j
        count = min(n_j, max(0, math.ceil(q)))
        if count > 0:
            total += F(count, b**j)
        j += 1


def stage_ladders(source, depth):
    """group_by_regularity over the records of stages 1..depth."""
    stage = enumerate_stage if isinstance(source, WeightedIFS) else atomic_stage
    return group_by_regularity(
        rec for n in range(1, depth + 1) for rec in stage(source, n).all_records()
    )


def test_beta_stage5_record():
    stage = enumerate_stage(BETA, 5)
    rec = next(r for r in stage.intervals if r.k == (3, 2))
    assert rec.count == 10
    assert rec.mass == F(4, 243)
    assert rec.length == F(1, 243)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_beta_conservation(K):
    stage = enumerate_stage(BETA, K)
    assert sum(r.mass * r.count for r in stage.intervals) == 1
    assert sum(r.length * r.count for r in stage.all_records()) == 1
    assert sum(r.count for r in stage.intervals) == 2**K


def test_trident_stage2_classes():
    stage = enumerate_stage(TRIDENT, 2)
    groups = group_by_regularity(stage.all_records())
    assert groups[VectorKey((1, 0))] == [(F(1, 25), 4)]
    assert groups[VectorKey((1, 1))] == [(F(1, 25), 4)]
    assert groups[VectorKey((0, 1))] == [(F(1, 25), 1)]
    assert groups[InfiniteKey()] == [(F(1, 5), 2), (F(1, 25), 6)]


def _words_by_vector(ifs: WeightedIFS, K: int) -> dict:
    """{k: [mass, length, count]} over all N^K words of length K, each word
    multiplied out symbol by symbol and filed under its count vector k."""
    out = {}
    for word in itertools.product(range(ifs.N), repeat=K):
        mass, length = F(1), F(1)
        for i in word:
            mass *= ifs.probs[i]
            length *= ifs.ratios[i]
        k = tuple(word.count(i) for i in range(ifs.N))
        entry = out.setdefault(k, [mass, length, 0])
        assert entry[:2] == [mass, length]
        entry[2] += 1
    return out


@pytest.mark.parametrize("ifs", [BETA, TRIDENT, ROBY], ids=["beta", "trident", "roby"])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_stage_is_the_aggregate_of_every_word(ifs, K):
    stage = enumerate_stage(ifs, K)
    intervals = [(r.k, r.mass, r.length, r.count) for r in stage.intervals]
    words = _words_by_vector(ifs, K)
    assert intervals == [(k, *words[k]) for k in sorted(words)]
    assert {r.kind for r in stage.intervals} == {"ifs"}
    # the N - 1 gaps under each cell of levels 0 .. K - 1, level by level
    gap = (1 - sum(ifs.ratios)) / (ifs.N - 1)
    expected = [((0,) * ifs.N, F(0), gap, ifs.N - 1)]
    for level in range(1, K):
        cells = _words_by_vector(ifs, level)
        expected += [
            (k, F(0), gap * cells[k][1], cells[k][2] * (ifs.N - 1)) for k in sorted(cells)
        ]
    assert [(r.k, r.mass, r.length, r.count) for r in stage.gaps] == expected
    assert {r.kind for r in stage.gaps} == {"gap"}


def test_gap_lengths_take_no_fraction_powers(monkeypatch):
    """Each gap length is one quotient of integer products, so a stage with
    364 gap records raises no Fraction to a power."""
    calls = []
    power = F.__pow__

    def counted(self, other):
        calls.append(other)
        return power(self, other)

    ifs = WeightedIFS(ratios=(F(1, 2), F(1, 4), F(1, 8)), probs=(F(1, 2), F(1, 3), F(1, 6)))
    monkeypatch.setattr(F, "__pow__", counted)
    stage = enumerate_stage(ifs, 12)
    assert len(stage.gaps) == 364 and calls == []


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(oracle, "STAGE_BUDGET", 15)
    with pytest.raises(BudgetExceededError):
        enumerate_stage(BETA, 4)
    monkeypatch.setattr(oracle, "STAGE_BUDGET", 80)
    with pytest.raises(BudgetExceededError):
        atomic_stage(S2, 4)


def test_sigma1_stage2_table():
    stage = atomic_stage(S1, 2)
    table = {r.k[0]: (r.mass, r.count, r.key_hint) for r in stage.intervals}
    assert table[0] == (F(1, 18), 1, OnePlusLogKey(2))
    assert table[1] == (F(1, 9), 1, FractionKey(F(1)))
    assert table[3] == (F(1, 3), 1, FractionKey(F(1, 2)))
    assert table[2] == (F(0), 6, InfiniteKey())
    assert sum(r.mass * r.count for r in stage.intervals) == F(1, 2)


def test_sigma1_leftmost_mass():
    for n in (1, 3, 5):
        stage = atomic_stage(S1, n)
        leftmost = next(r for r in stage.intervals if r.k == (0,))
        assert leftmost.mass == F(1, 2) * F(1, 3**n)
        assert leftmost.key_hint == OnePlusLogKey(n)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, {"1/1": [(F(1, 3), 3)]}),
        (2, {"1/1": [(F(1, 9), 6)], "1/2": [(F(1, 9), 1)], "inf": [(F(1, 9), 2)]}),
        (
            3,
            {
                "1/1": [(F(1, 27), 12)],
                "1/3": [(F(1, 27), 1)],
                "2/3": [(F(1, 27), 2)],
                "inf": [(F(1, 27), 12)],
            },
        ),
        (
            4,
            {
                "1/1": [(F(1, 81), 24)],
                "1/4": [(F(1, 81), 1)],
                "1/2": [(F(1, 81), 2)],
                "3/4": [(F(1, 81), 4)],
                "inf": [(F(1, 81), 50)],
            },
        ),
    ],
)
def test_sigma2_stage_tables(n, expected):
    groups = group_by_regularity(atomic_stage(S2, n).all_records())
    assert {str(k): v for k, v in groups.items()} == expected


def test_generalized_m3_stage_tables():
    groups = group_by_regularity(atomic_stage(S3, 1).all_records())
    assert {str(k): v for k, v in groups.items()} == {"1/1": [(F(1, 5), 5)]}
    groups = group_by_regularity(atomic_stage(S3, 2).all_records())
    assert {str(k): v for k, v in groups.items()} == {
        "1/1": [(F(1, 25), 15)],
        "1/2": [(F(1, 25), 2)],
        "inf": [(F(1, 25), 8)],
    }


@pytest.mark.parametrize("spec,total", [(S1, F(1, 2)), (S2, F(1)), (S3, F(1))])
def test_atomic_conservation(spec, total):
    for n in (1, 2, 3, 4):
        stage = atomic_stage(spec, n)
        assert sum(r.mass * r.count for r in stage.intervals) == total
        assert sum(r.count for r in stage.intervals) == spec.base**n


def test_atomic_stage_cells_are_cdf_differences():
    """Cell t of stage n holds F((t+1)/b^n) - F(t/b^n), the last cell closed."""
    m5 = AtomicMeasureSpec(family="generalized", m=5)
    for spec, depth in ((S1, 5), (S2, 5), (S3, 5), (m5, 3)):
        for n in range(1, depth + 1):
            cells = spec.base**n
            ends = [atomic_cdf(spec, F(t, cells)) for t in range(cells)] + [spec.total_mass()]
            masses = [hi - lo for lo, hi in zip(ends, ends[1:])]
            stage = atomic_stage(spec, n)
            assert sum(r.count for r in stage.intervals) == cells
            for rec in stage.intervals:
                (first,) = rec.k
                assert masses.index(rec.mass) == first, (spec, n, rec)
                assert masses.count(rec.mass) == rec.count, (spec, n, rec)


@given(
    y1=st.fractions(min_value=F(0), max_value=F(1)),
    y2=st.fractions(min_value=F(0), max_value=F(1)),
)
def test_cdf_monotone(y1, y2):
    lo, hi = min(y1, y2), max(y1, y2)
    assert atomic_cdf(S2, lo) <= atomic_cdf(S2, hi)


def test_cdf_closed_forms():
    assert atomic_cdf(S1, F(1, 3)) == F(1, 6)
    assert atomic_cdf(S1, F(1)) == F(1, 2)
    assert atomic_cdf(S2, F(1)) == 1
    assert atomic_cdf(S2, F(2, 3)) == F(2, 3)  # density one below the top atom
    assert atomic_cdf(S2, F(0)) == 0


def test_sigma2_alpha_one_ladder():
    ladder = stage_ladders(S2, 4)[FractionKey(F(1))]
    assert ladder == [(F(1, 3), 3), (F(1, 9), 6), (F(1, 27), 12), (F(1, 81), 24)]


def test_sigma2_half_ladder():
    assert stage_ladders(S2, 4)[FractionKey(F(1, 2))] == [(F(1, 9), 1), (F(1, 81), 2)]


def test_sigma1_half_ladder():
    assert stage_ladders(S1, 4)[FractionKey(F(1, 2))] == [(F(1, 9), 1), (F(1, 81), 1)]


def test_beta_alpha_ladder():
    # lengths 3^-K with central multinomial multiplicities
    assert stage_ladders(BETA, 4)[VectorKey((1, 1))] == [(F(1, 9), 2), (F(1, 81), 6)]


def test_roby_alpha_one_ladder_is_fibonacci():
    # alpha = 1 holds every class (a, b, 0); the group takes its smallest
    # key hint, (0, 1, 0)
    first = stage_ladders(ROBY, 6)[VectorKey((0, 1, 0))][:6]
    assert first == [(F(1, 2**L), fibonacci(L + 1)) for L in range(1, 7)]


def test_unattained_key_gives_empty_sequence():
    assert FractionKey(F(7, 8)) not in stage_ladders(S2, 3)


def test_gap_records_have_zero_mass_and_fill_string():
    stage = enumerate_stage(TRIDENT, 3)
    assert all(r.mass == 0 for r in stage.gaps)
    assert all(r.key_hint == InfiniteKey() for r in stage.gaps)
    total_gap = sum(r.length * r.count for r in stage.gaps)
    total_cell = sum(r.length * r.count for r in stage.intervals)
    assert total_gap + total_cell == 1
