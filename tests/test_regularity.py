"""Exact regularity values, the equality ladder, and hypothesis checks."""
import math
import sys
import threading
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfzeta import regularity
from mfzeta.ifs_core import PrimeExponentVector, WeightedIFS, factorize
from mfzeta.oracle import enumerate_stage
from mfzeta.regularity import (
    ClassColumns,
    FractionKey,
    InfiniteKey,
    OnePlusLogKey,
    RegularityValue,
    VectorKey,
    _PREC_LADDER,
    check_hypothesis_H,
    class_columns,
    class_row,
    collapsed_regularity,
    is_monofractal,
    log_bounds,
    prepare,
    primitive_matrix,
    primitive_vectors,
    regularity_of,
    row_fsums,
    value_columns,
    values_equal,
)
from mfzeta.sequences import multinomial

BETA = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
BETA0 = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 3), F(2, 3)))
TRIDENT = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(3, 5), F(1, 5)))
RHO = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 2), F(1, 2)))
ROBY = WeightedIFS(ratios=(F(1, 2), F(1, 4), F(1, 10)), probs=(F(1, 2), F(1, 4), F(1, 4)))
THREE_MAP = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(1, 7), F(23, 35)))


def test_beta_values():
    cls = regularity_of(BETA, (3, 2))
    expected = 1 - F(2, 5) * (math.log(2) / math.log(3))
    assert math.isclose(cls.alpha_float, expected, abs_tol=1e-14)
    assert cls.key == VectorKey((3, 2))
    # alpha(k) = 1 - (k2/K) log_3 2 across the whole row
    for k2 in range(6):
        cls = regularity_of(BETA, (5 - k2, k2))
        assert math.isclose(
            cls.alpha_float, 1 - F(k2, 5) * math.log(2) / math.log(3), abs_tol=1e-14
        )


def test_beta0_values():
    # alpha(k) = log_2 3 - k2/K
    for k2 in range(5):
        cls = regularity_of(BETA0, (4 - k2, k2))
        assert math.isclose(
            cls.alpha_float, math.log(3) / math.log(2) - k2 / 4, abs_tol=1e-14
        )


def test_trident_collapsed():
    cls = collapsed_regularity(TRIDENT, (2, 1))
    expected = 1 - F(1, 3) * math.log(3) / math.log(5)
    assert math.isclose(cls.alpha_float, expected, abs_tol=1e-14)
    assert cls.key == VectorKey((2, 1))
    assert cls.K == 3


def test_collapsed_regularity_without_equal_ratios_is_per_map():
    # unequal ratios: one slot per map, so a class vector is a per-map vector
    for k in primitive_vectors(3, 4):
        assert collapsed_regularity(ROBY, k) == regularity_of(ROBY, k)


@given(
    k=st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda k: any(k)),
    c=st.integers(1, 4),
)
def test_scaling_invariance(k, c):
    a = regularity_of(BETA0, k)
    b = regularity_of(BETA0, tuple(c * x for x in k))
    assert values_equal(a.alpha_exact, b.alpha_exact)
    assert a.alpha_exact.canonical() == b.alpha_exact.canonical()
    assert a.key == b.key


@given(k=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)).filter(lambda k: any(k)))
def test_alpha_is_weighted_mean(k):
    cls = regularity_of(ROBY, k)
    pointwise = [
        math.log(p) / math.log(r) for p, r in zip(ROBY.probs, ROBY.ratios)
    ]
    assert min(pointwise) - 1e-12 <= cls.alpha_float <= max(pointwise) + 1e-12


def test_rational_value_detection():
    assert RegularityValue(factorize(F(1, 4)), factorize(F(1, 16))).rational_value() == F(1, 2)
    assert RegularityValue(factorize(F(1, 8)), factorize(F(1, 20))).rational_value() is None
    assert RegularityValue(factorize(F(1, 3)), factorize(F(1, 3))).rational_value() == 1


def test_values_equal_ladder():
    one = RegularityValue(factorize(F(1, 9)), factorize(F(1, 9)))
    one_plus = RegularityValue(factorize(F(1, 18)), factorize(F(1, 9)))
    assert not values_equal(one, one_plus)
    assert values_equal(one, RegularityValue(factorize(F(1, 3)), factorize(F(1, 3))))
    # Roby interchange: map 2 is map 1 squared in both mass and length
    a = regularity_of(ROBY, (0, 1, 2)).alpha_exact
    b = regularity_of(ROBY, (1, 0, 1)).alpha_exact
    assert values_equal(a, b)


def test_interval_brackets_value():
    v = regularity_of(ROBY, (1, 0, 1)).alpha_exact
    lo, hi = v.interval(64)
    assert float(lo) - 1e-12 <= v.to_float() <= float(hi) + 1e-12
    lo2, hi2 = v.interval(256)
    # the 256-bit enclosure nests inside the 64-bit one
    assert lo <= lo2 <= hi2 <= hi
    assert hi2 - lo2 < hi - lo


@pytest.fixture
def interval_rungs(monkeypatch):
    """The prec_bits of every RegularityValue.interval call, in call order."""
    rungs = []
    interval = RegularityValue.interval

    def spy(self, prec_bits):
        rungs.append(prec_bits)
        return interval(self, prec_bits)

    monkeypatch.setattr(RegularityValue, "interval", spy)
    return rungs


def _near_tie(mass_two: int, length_two: int) -> RegularityValue:
    """alpha of (mass 2^-mass_two / 3, length 2^-length_two), near log2(3)."""
    return RegularityValue(
        PrimeExponentVector({2: -mass_two, 3: -1}), PrimeExponentVector({2: -length_two})
    )


def _columns(*values: RegularityValue) -> ClassColumns:
    """The values as rows of ``ClassColumns``, built here without the
    exponent bound of ``value_columns``: the float filter multiplies no
    two exponents."""
    primes = sorted(
        {p for v in values for pev in (v.mass_pev, v.length_pev) for p, _ in pev.items()}
    )

    def matrix(pevs) -> np.ndarray:
        return np.array([[pev.exponents().get(p, 0) for p in primes] for pev in pevs])

    return ClassColumns(
        primes=tuple(primes),
        k=None,
        mass=matrix(v.mass_pev for v in values),
        length=matrix(v.length_pev for v in values),
        alpha=np.zeros(len(values)),
    )


def _overlap(a: RegularityValue, b: RegularityValue) -> bool:
    """Whether the column float enclosures of two values overlap."""
    lo, hi = _columns(a, b).float_enclosures(np.arange(2))
    return not (hi[0] < lo[1] or hi[1] < lo[0])


def test_float_filter_near_ties_fall_through_to_the_ladder(interval_rungs):
    a = RegularityValue(factorize(F(1, 3)), factorize(F(1, 2)))
    # separated by the first integer rung, not by doubles
    b = _near_tie(85137581, 53715834)
    assert _overlap(a, b)
    assert not values_equal(a, b)
    assert set(interval_rungs) == {64}
    # closer still: the 64-bit intervals overlap too
    interval_rungs.clear()
    b2 = _near_tie(10439860591, 6586818671)
    assert _overlap(a, b2)
    assert not values_equal(a, b2)
    assert 256 in interval_rungs


def test_float_filter_defers_what_doubles_cannot_bound(interval_rungs):
    a = RegularityValue(factorize(F(1, 3)), factorize(F(1, 2)))
    # an exponent beyond 2**53 would round on its way to a double
    deep = RegularityValue(
        PrimeExponentVector({3: -(2**60)}), PrimeExponentVector({2: -(2**60) - 1})
    )
    # a length so close to 1 that the float bounds on its log straddle 0
    flat = RegularityValue(factorize(F(1, 2)), factorize(F(2**61 - 1, 2**61)))
    for value in (deep, flat):
        interval_rungs.clear()
        assert not values_equal(a, value)
        assert interval_rungs
    # as rows of class columns, the float filter leaves both unbounded
    columns = ClassColumns(
        primes=(2, 3, 2**61 - 1),
        k=np.ones((2, 1), dtype=np.int64),
        mass=np.array([[0, -(2**60), 0], [-1, 0, 0]]),
        length=np.array([[-(2**60) - 1, 0, 0], [-61, 0, 1]]),
        alpha=np.zeros(2),
    )
    assert [columns.value(i) for i in range(2)] == [deep, flat]
    lo, hi = columns.float_enclosures(np.arange(2))
    assert lo.tolist() == [-math.inf] * 2 and hi.tolist() == [math.inf] * 2


def test_float_filter_separates_a_certified_sweep(interval_rungs):
    system = WeightedIFS(ratios=(F(1, 2), F(1, 3)), probs=(F(1, 3), F(2, 3)))
    assert check_hypothesis_H(system, 32).holds
    assert interval_rungs == []


def test_partition_separates_distinct_values():
    k = np.array([(2 - i, i) for i in range(3)])
    assert class_columns(prepare(BETA), k).partition().tolist() == [0, 1, 2]


def test_monofractal_detection():
    mono = is_monofractal(RHO)
    assert mono is not None
    assert math.isclose(mono.to_float(), math.log(2) / math.log(3), abs_tol=1e-14)
    assert is_monofractal(BETA) is None
    assert is_monofractal(ROBY) is None


def test_primitive_vectors():
    vecs = primitive_vectors(2, 64)
    assert len(vecs) == 1261
    assert all(math.gcd(*v) == 1 for v in vecs)
    assert len(set(vecs)) == len(vecs)
    small = primitive_vectors(2, 3)
    assert set(small) == {(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)}
    assert primitive_vectors(1, 5) == [(1,)]


def test_primitive_matrix_rows_are_the_primitive_vectors():
    k = primitive_matrix(3, 6)
    assert k.dtype == np.int64 and k.shape == (len(primitive_vectors(3, 6)), 3)
    assert primitive_vectors(3, 6) == [tuple(row) for row in k.tolist()]
    # every primitive vector with 1 <= sum <= 6, each once, in lexicographic order
    expected = [
        (a, b, c)
        for a in range(7)
        for b in range(7 - a)
        for c in range(7 - a - b)
        if math.gcd(a, b, c) == 1
    ]
    assert primitive_vectors(3, 6) == expected
    for N, K_max in ((0, 4), (2, 0)):
        with pytest.raises(ValueError):
            primitive_matrix(N, K_max)


# 1 + 2**-53 is a tie that rounds to 1.0; the 2**-110 behind it makes the
# exact sum round up, which the certified path cannot tell, so fsum decides
FALLBACK_ROW = [1.0, 2.0**-53, 2.0**-110]


@st.composite
def fsum_rows(draw) -> list[list[float]]:
    """Rows of one width (1 to 8 terms): magnitudes 2**-60 to 2**60,
    subnormals and signed zeros, and terms that make half-ulp ties with, or
    cancel, a term before them."""
    width = draw(st.integers(1, 8))
    magnitude = st.builds(
        lambda m, e, sign: sign * m * 2.0**e,
        st.floats(1.0, 2.0, exclude_max=True),
        st.integers(-60, 60),
        st.sampled_from([1.0, -1.0]),
    )
    term = st.one_of(
        magnitude,
        st.floats(-(2.0**-1022), 2.0**-1022, allow_subnormal=True),
        st.sampled_from([0.0, -0.0]),
    )

    def row() -> list[float]:
        out = []
        for _ in range(width):
            how = draw(st.sampled_from(["new", "new", "tie", "cancel"])) if out else "new"
            if how == "new":
                out.append(draw(term))
                continue
            t = out[draw(st.integers(0, len(out) - 1))]
            if how == "cancel":
                out.append(-t)
            else:
                out.append(draw(st.sampled_from([1.0, -1.0])) * math.ulp(t) / 2)
        return out

    return [row() for _ in range(draw(st.integers(1, 6)))]


@settings(max_examples=150, deadline=None)
@given(fsum_rows())
@example([FALLBACK_ROW, [1.0, 2.0**-53, 0.0]])
@example([[1.0, -1.0], [-0.0, -0.0], [-0.0, 0.0], [5e-324, -5e-324]])
def test_row_fsums_is_fsum_bit_for_bit(rows):
    got = row_fsums(np.array(rows))
    assert [x.hex() for x in got.tolist()] == [math.fsum(row).hex() for row in rows]


def test_row_fsums_sums_uncertified_rows_by_fsum(monkeypatch):
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda terms: calls.append(terms) or fsum(terms))
    got = row_fsums(np.array([FALLBACK_ROW, [1.0, 2.0**-53, 0.0], [0.5, 0.25, 0.125]]))
    assert got.tolist() == [1.0 + 2.0**-52, 1.0, 0.875]
    assert calls == [FALLBACK_ROW]


def test_hypothesis_h():
    assert check_hypothesis_H(BETA, 8).holds
    assert check_hypothesis_H(RHO, 8).holds  # one distinct probability, one class
    assert check_hypothesis_H(BETA0, 8).holds
    assert check_hypothesis_H(TRIDENT, 8).holds  # collapsed classes are distinct
    report = check_hypothesis_H(ROBY, 4)
    assert not report.holds
    flat = [set(vs) for _, vs in report.collisions]
    assert any({(1, 0, 0), (0, 1, 0)} <= s for s in flat)  # alpha = 1 twice


def test_regularity_of_is_keyed_by_class():
    # per-map vectors of one class share its key and value
    for k in ((2, 0, 1), (1, 0, 2), (3, 0, 0)):
        cls = regularity_of(TRIDENT, k)
        assert cls.key == VectorKey((1, 0))
        assert cls.alpha_exact == collapsed_regularity(TRIDENT, (3, 0)).alpha_exact
    # distinct but unsorted probabilities: the slots are in ascending order
    assert regularity_of(THREE_MAP, (1, 0, 0)).key == VectorKey((0, 1, 0))


def test_hypothesis_h_dependent_probs():
    dep = WeightedIFS(
        ratios=(F(1, 4),) * 3, probs=(F(1, 2), F(1, 4), F(1, 4))
    )  # distinct probs {1/2, 1/4} multiplicatively dependent
    report = check_hypothesis_H(dep, 6)
    assert not report.holds and report.ambiguous


@st.composite
def small_systems(draw) -> WeightedIFS:
    """N = 2-3 maps with ratios 1/d (equal or not) and probabilities w_i/sum(w)."""
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        ratios = (F(1, draw(st.integers(n, 7))),) * n
    else:
        ratios = tuple(F(1, draw(st.integers(n, 9))) for _ in range(n))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return WeightedIFS(ratios=ratios, probs=tuple(F(w, sum(weights)) for w in weights))


@settings(max_examples=40, deadline=None)
@given(system=small_systems(), K=st.integers(1, 5))
def test_stage_records_match_closed_forms(system, K):
    prepared = prepare(system)
    for rec in enumerate_stage(prepared, K).intervals:
        assert rec.count == multinomial(K, rec.k)
        assert rec.mass == math.prod(p**ki for p, ki in zip(system.probs, rec.k))
        value = RegularityValue(factorize(rec.mass), factorize(rec.length))
        assert rec.regularity == value
        assert rec.regularity.canonical() == value.canonical()
        assert rec.regularity.rational_value() == value.rational_value()
        q = value.rational_value()
        direct = float(q) if q is not None else _log(value.mass_pev) / _log(value.length_pev)
        assert rec.regularity.to_float().hex() == direct.hex()
        kprime = prepared.fold(rec.k)
        assert rec.key_hint == VectorKey(tuple(x // math.gcd(*kprime) for x in kprime))


@settings(max_examples=40, deadline=None)
@given(system=small_systems(), K_max=st.integers(1, 8))
def test_hypothesis_h_classes_are_the_enumeration(system, K_max):
    prepared = prepare(system)
    report = check_hypothesis_H(prepared, K_max)
    if report.holds:
        columns = report.columns
        classes = [
            collapsed_regularity(prepared, k) for k in primitive_vectors(prepared.width, K_max)
        ]
        assert [VectorKey(tuple(k)) for k in columns.k.tolist()] == [c.key for c in classes]
        assert [columns.value(i) for i in range(len(classes))] == [c.alpha_exact for c in classes]
        assert columns.alpha.tolist() == [c.alpha_float for c in classes]
    else:
        assert report.columns is None


@settings(max_examples=40, deadline=None)
@given(system=small_systems(), K_max=st.integers(1, 5))
def test_partition_buckets_are_the_equal_values(system, K_max):
    """Columns built from values put two of them in one class exactly when
    ``values_equal`` holds."""
    prepared = prepare(system)
    values = [
        collapsed_regularity(prepared, k).alpha_exact
        for k in primitive_vectors(prepared.width, K_max)
    ]
    bucket = value_columns(values).partition().tolist()
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert (bucket[i] == bucket[j]) == values_equal(values[i], values[j])


@settings(max_examples=40, deadline=None)
@given(system=small_systems(), K_max=st.integers(1, 5))
@example(system=ROBY, K_max=4)  # collisions
@example(system=WeightedIFS(ratios=(F(1, 2), F(1, 4)), probs=(F(1, 2), F(1, 2))), K_max=5)
def test_column_partition_is_the_pairwise_equal_values(system, K_max):
    """``ClassColumns.partition`` numbers the classes in first-seen order and
    puts two rows in one class exactly when ``values_equal`` holds for their
    values; the hypothesis check reports its shared classes."""
    prepared = prepare(system)
    k = primitive_matrix(prepared.width, K_max)
    classes = [collapsed_regularity(prepared, row) for row in k.tolist()]
    number = class_columns(prepared, k).partition().tolist()
    for i in range(len(classes)):
        assert number[i] <= max(number[:i], default=-1) + 1
        for j in range(i + 1, len(classes)):
            equal = values_equal(classes[i].alpha_exact, classes[j].alpha_exact)
            assert (number[i] == number[j]) == equal
    parts = [[i for i, n in enumerate(number) if n == c] for c in range(max(number) + 1)]
    if prepared.dependence is None:
        collisions = [
            (classes[part[0]].alpha_float, [classes[i].key.vector for i in part])
            for part in parts
            if len(part) > 1
        ]
        collisions.sort(key=lambda item: item[0])
        assert check_hypothesis_H(prepared, K_max).collisions == collisions


@settings(max_examples=40, deadline=None)
@given(system=small_systems(), K_max=st.integers(1, 6))
def test_float_enclosure_contains_the_1024_bit_interval(system, K_max):
    """Each column float enclosure contains the value's 1024-bit interval."""
    prepared = prepare(system)
    k = primitive_matrix(prepared.width, K_max)
    columns = class_columns(prepared, k)
    lo, hi = (bounds.tolist() for bounds in columns.float_enclosures(np.arange(len(k))))
    for i in range(len(k)):
        lo_iv, hi_iv = columns.value(i).interval(1024)
        assert lo[i] <= lo_iv <= hi_iv <= hi[i]


@settings(max_examples=40, deadline=None)
@given(system=small_systems(), K_max=st.integers(1, 8))
def test_holding_hypothesis_check_builds_values_only_for_the_ladder(system, K_max):
    """A check that holds builds a value only for each side of a pair that
    its float filter leaves to ``values_equal``."""
    built, pairs = [], []
    value, equal = regularity.RegularityValue, regularity.values_equal
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "RegularityValue", lambda *args: built.append(1) or value(*args))
        mp.setattr(regularity, "values_equal", lambda a, b: pairs.append(1) or equal(a, b))
        report = check_hypothesis_H(system, K_max)
    if report.holds:
        assert len(built) <= 2 * len(pairs)


def test_key_strings():
    assert str(VectorKey((2, 1))) == "(2,1)"
    assert str(FractionKey(F(1, 2))) == "1/2"
    assert str(OnePlusLogKey(2)) == "1+log_{3^2}2"
    assert str(InfiniteKey()) == "inf"


def test_prepare_is_idempotent_and_holds_system_facts():
    prepared = prepare(TRIDENT)
    assert prepare(prepared) is prepared
    assert prepared.ifs is TRIDENT
    # equal ratios: one slot per distinct probability, ascending
    assert prepared.width == 2 and prepared.folds
    assert prepared.slot_of == (0, 1, 0) and prepared.multiplicities == (2, 1)
    # row q of P holds slot q's factorized probability over the primes
    assert prepared.primes == (3, 5)
    for row, p in zip(prepared.P.tolist(), (F(1, 5), F(3, 5)), strict=True):
        assert {q: e for q, e in zip(prepared.primes, row) if e} == dict(factorize(p).items())
    assert prepared.independent and prepared.witness is None
    assert prepared.fold((1, 1, 1)) == (2, 1) and prepared.fold((0, 2, 0)) == (0, 2)
    # a length-N vector is per-map and folds; a length-w vector is a class vector
    assert prepared.class_vector((2, 0, 1)) == prepared.class_vector((3, 0)) == (1, 0)
    with pytest.raises(ValueError, match="matches neither"):
        prepared.class_vector((1, 1, 1, 1))
    # unequal ratios: one slot per map
    roby = prepare(ROBY)
    assert roby.width == 3 and not roby.folds and roby.slot_of == (0, 1, 2)
    assert roby.slot_ratios == ROBY.ratios
    dep = prepare(WeightedIFS(ratios=(F(1, 4),) * 3, probs=(F(1, 2), F(1, 4), F(1, 4))))
    assert not dep.independent and dep.witness == (1, -2)
    assert "dependent" in dep.dependence
    # the prepared form gives the same classes as the system itself
    for k in ((2, 1), (1, 3), (0, 1)):
        assert collapsed_regularity(prepared, k) == collapsed_regularity(TRIDENT, k)


def test_prepare_holds_integer_rows_and_log_tables():
    prepared = prepare(TRIDENT)  # slots 1/5 (two maps) and 3/5, ratio 1/5
    assert prepared.primes == (3, 5)
    assert prepared.P.dtype == prepared.R.dtype == np.int64
    assert prepared.P.tolist() == [[0, -1], [1, -1]]
    assert prepared.R.tolist() == [[0, -1]] * 2
    assert prepared.log_primes == (math.log(3), math.log(5))
    assert prepared.log_ratios == (math.log(0.2),) * 2
    assert prepared.log_multiplicities == (math.log(2), 0.0)
    # mass (1/5)^2 (3/5) = 3 * 5^-3, length (1/5)^3
    columns = class_columns(prepared, class_row(prepared, (2, 1)))
    assert columns.mass.tolist() == [[1, -3]] and columns.length.tolist() == [[0, -3]]


def _log(pev) -> float:
    """The log of a prime exponent vector's rational: fsum of e * log p."""
    return math.fsum(e * math.log(p) for p, e in pev.items())


@settings(max_examples=60, deadline=None)
@given(system=small_systems(), data=st.data())
def test_alpha_float_is_the_float_of_the_exact_value(system, data):
    prepared = prepare(system)
    width = prepared.width
    k = data.draw(st.lists(st.integers(0, 40), min_size=width, max_size=width).filter(any))
    cls = collapsed_regularity(prepared, k)
    value = cls.alpha_exact
    assert cls.alpha_float.hex() == value.to_float().hex()
    q = value.rational_value()
    direct = float(q) if q is not None else _log(value.mass_pev) / _log(value.length_pev)
    assert cls.alpha_float.hex() == direct.hex()


def test_hypothesis_h_checks_independence_once(independence_calls):
    calls = independence_calls
    assert check_hypothesis_H(TRIDENT, 8).holds
    assert len(calls) == 1
    prepared = prepare(BETA0)
    assert len(calls) == 2
    assert check_hypothesis_H(prepared, 8).holds
    assert len(calls) == 2


def test_hypothesis_h_sweep_derives_each_alpha_once(monkeypatch):
    from mfzeta.spectra import spectrum_sweep

    calls = []
    original = regularity.alphas_from_exponents

    def counted(mass, length, logs):
        calls.append(len(mass))
        return original(mass, length, logs)

    monkeypatch.setattr(regularity, "alphas_from_exponents", counted)
    certified = WeightedIFS(ratios=(F(1, 2), F(1, 3)), probs=(F(1, 3), F(2, 3)))
    prepared = prepare(certified)
    report = check_hypothesis_H(prepared, 24)
    assert report.holds
    # one column pass for all the classes
    assert calls == [len(report.columns.k)]
    # the seeded float is the one a value built from the vectors alone derives
    for i, alpha in enumerate(report.columns.alpha.tolist()):
        value = report.columns.value(i)
        fresh = RegularityValue(value.mass_pev, value.length_pev)
        assert value.to_float().hex() == fresh.to_float().hex() == alpha.hex()
    # a sweep takes its alphas from the check's pass; the only other pass is
    # the monofractal check's, over the single-map rows
    del calls[:]
    points = spectrum_sweep(prepared, 24)
    assert calls == [prepared.ifs.N, len(points)]


def test_one_row_calls_refuse_exponents_that_int64_columns_cannot_multiply():
    with pytest.raises(ValueError, match=r"class \(1099511627776, 1\) is too deep"):
        regularity_of(BETA, (2**40, 1))
    with pytest.raises(ValueError, match="reach 2[*][*]31"):
        collapsed_regularity(BETA, (1, 2**31))
    with pytest.raises(ValueError, match="value 1 is too deep"):
        value_columns([_near_tie(1, 1), _near_tie(2**31, 1)])
    # just below the bound the answer is exact
    assert regularity_of(BETA, (2**31 - 2, 1)).key == VectorKey((2**31 - 2, 1))


def _spy(monkeypatch, name: str) -> list:
    """Count calls of the ``mfzeta`` function ``name``, under every module
    name that binds it."""
    import mfzeta

    calls = []
    modules = [m for key, m in sys.modules.items() if key.startswith("mfzeta.")]
    original = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in [mfzeta, *modules]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_stages_and_verify_build_classes_as_columns(monkeypatch):
    """A stage's regularities come from one ``class_columns`` call, and the
    whole verify suite builds no class one row at a time by ``regularity_of``."""
    from mfzeta.verify import run_suite

    single = _spy(monkeypatch, "regularity_of")
    columns = _spy(monkeypatch, "class_columns")
    stage = enumerate_stage(TRIDENT, 6)
    assert len(columns) == 1 and len(columns[0][1]) == len(stage.intervals) == 28
    assert single == []
    results = run_suite("all")
    assert [r.name for r in results if not r.ok] == ["trident-endpoint-slopes"]
    assert single == []


def test_interval_never_sets_global_precision(modules_after_import):
    """interval is integer arithmetic: no precision state, and no mpmath."""
    value = regularity_of(ROBY, (1, 0, 1)).alpha_exact
    expected = [value.interval(bits) for bits in (64, 256, 1024)]
    fresh = regularity_of(ROBY, (1, 0, 1)).alpha_exact
    assert [fresh.interval(bits) for bits in (64, 256, 1024)] == expected
    assert all(isinstance(end, F) for pair in expected for end in pair)
    assert "mpmath" not in modules_after_import("mfzeta.cli")
    with pytest.raises(ValueError, match="precision must be one of"):
        fresh.interval(128)


def test_interval_threads_match_serial():
    """Concurrent comparisons at 64 and 1024 bits give the serial bounds."""
    prepared = prepare(ROBY)
    values = [regularity_of(prepared, k).alpha_exact for k in primitive_vectors(3, 5)]
    values += [regularity_of(ROBY, k).alpha_exact for k in ((1, 0, 1), (2, 1, 3))]
    serial = {bits: [v.interval(bits) for v in values] for bits in (64, 1024)}
    results: dict[int, list] = {}
    errors: list[BaseException] = []
    start = threading.Barrier(4)

    def work(index: int, bits: int) -> None:
        try:
            start.wait(timeout=30)
            for _ in range(5):
                got = [v.interval(bits) for v in values]
                if got != serial[bits]:
                    results[index] = got
                    return
            results[index] = serial[bits]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(i, bits))
            for i, bits in enumerate((64, 1024, 64, 1024))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for i, bits in enumerate((64, 1024, 64, 1024)):
        assert results[i] == serial[bits]


PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_log_bounds_bracket_a_1100_bit_log_within_two_units():
    with mpmath.workprec(1100):
        for p in PRIMES_BELOW_1000:
            log_p = mpmath.log(p)
            for bits in _PREC_LADDER:
                lo, hi = log_bounds(p, bits)
                scaled = mpmath.ldexp(log_p, bits)
                assert lo <= scaled <= hi, (p, bits)
                assert hi - lo <= 2, (p, bits)


def test_float_log_is_never_looser_than_a_64_bit_mpmath_interval():
    """The float bounds of log p that a 64-bit mpmath interval gave, each end
    truncated to a double by ``to_float`` and stepped one ulp outward."""
    from mpmath.ctx_iv import MPIntervalContext
    from mpmath.libmp import to_float

    ctx = MPIntervalContext()
    ctx.prec = 64
    for p in PRIMES_BELOW_1000:
        lo, hi = ctx.ln(p)._mpi_
        f_lo, f_hi = regularity._float_log(p)
        assert math.nextafter(to_float(lo), -math.inf) <= f_lo, p
        assert f_hi <= math.nextafter(to_float(hi), math.inf), p
        # and they bound the 64-bit integer table
        table_lo, table_hi = log_bounds(p, 64)
        assert F(f_lo) <= F(table_lo, 2**64) and F(table_hi, 2**64) <= F(f_hi), p
