"""Zeta forms: series with certified tails, lattice closed forms, abscissas."""
import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfzeta.ifs_core import AtomicMeasureSpec, FractalStringSpec, WeightedIFS
from mfzeta.regularity import (
    FractionKey,
    OnePlusLogKey,
    VectorKey,
    collapsed_regularity,
    prepare,
    regularity_of,
)
from mfzeta.sequences import AlphaLengthSequence, FloorSumLaw, GeometricLaw, fibonacci
from mfzeta.spectra import spectrum_sweep
from mfzeta.zeta import (
    HYPOTHESIS_K_MAX,
    AbscissaResult,
    DivergenceError,
    HypothesisViolationError,
    KeyRangeError,
    Poly,
    RationalZeta,
    abscissa_closed,
    abscissa_root_test,
    closed_form_sequence,
    closed_form_zeta,
    defining_residual,
    eval_series,
    multinomial_zeta,
    poly_gcd,
)

BETA = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
BETA0 = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 3), F(2, 3)))
TRIDENT = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(3, 5), F(1, 5)))
ROBY = WeightedIFS(ratios=(F(1, 2), F(1, 4), F(1, 10)), probs=(F(1, 2), F(1, 4), F(1, 4)))
THREE_MAP = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(1, 7), F(23, 35)))
S1 = AtomicMeasureSpec(family="sigma1")
S2 = AtomicMeasureSpec(family="sigma2")
# a ratio so close to 1 that a class can be deep in it before its base rounds to 0
NEAR_ONE = WeightedIFS(ratios=(F(2**32 - 1, 2**32), F(1, 2**32)), probs=(F(1, 2), F(1, 2)))


# ---- Polynomials ----


def test_poly_arithmetic():
    p = Poly((F(1), F(2)))  # 1 + 2z
    q = Poly((F(0), F(1)))  # z
    assert (p + q).coeffs == (F(1), F(3))
    quot, rem = Poly((F(0), F(1), F(2))).divmod(q)  # z + 2z^2 = pq
    assert quot == p and rem.is_zero()
    assert p(F(2)) == 5
    assert p(1j) == 1 + 2j


def test_poly_gcd():
    p = Poly((F(-1), F(0), F(1)))  # z^2 - 1
    q = Poly((F(1), F(1)))  # z + 1
    g = poly_gcd(p, q)
    assert g.coeffs == (F(1), F(1))


def test_rational_zeta_canonicalization():
    z = RationalZeta(
        num=Poly((F(0), F(2), F(2))), den=Poly((F(2), F(-4))), base=F(1, 2)
    )
    assert z.num.coeffs == (F(0), F(1), F(1))
    assert z.den.coeffs == (F(1), F(-2))
    # denominator constant term forced positive
    z2 = RationalZeta(num=Poly((F(0), F(1)),), den=Poly((F(-1), F(2))), base=F(1, 2))
    assert z2.den.coeffs[0] > 0
    # z(1 - 2z) / ((1 - z)(1 - 2z)): the common factor 1 - 2z is divided out
    z3 = RationalZeta(
        num=Poly((F(0), F(1), F(-2))), den=Poly((F(1), F(-3), F(2))), base=F(1, 2)
    )
    assert z3.num.coeffs == (F(0), F(1)) and z3.den.coeffs == (F(1), F(-1))
    assert all(isinstance(c, F) for p in (z3.num, z3.den) for c in p.coeffs)


# ---- Classical strings ----


def test_cantor_string():
    cs = closed_form_zeta(FractalStringSpec(family="cantor"))
    assert abs(cs.evaluate(1) - 1) < 1e-12  # total gap length of the complement
    assert cs.value_at_zero() == -1
    assert cs.base == F(1, 3)
    assert cs.num.coeffs == (F(0), F(1)) and cs.den.coeffs == (F(1), F(-2))


def test_fibonacci_string():
    fib = closed_form_zeta(FractalStringSpec(family="fibonacci"))
    assert abs(fib.evaluate(2) - F(16, 11)) < 1e-12
    assert fib.den.coeffs == (F(1), F(-1), F(-1))


# ---- Series construction and evaluation ----


def test_multinomial_zeta_shapes():
    mz = multinomial_zeta(BETA, (1, 1))
    assert mz.base_length == F(1, 9) and mz.law.K == 2
    assert mz.law.multiplicity(1) == 2 and mz.law.multiplicity(2) == 6
    tz = multinomial_zeta(TRIDENT, (2, 1))
    assert tz.base_length == F(1, 125) and tz.law.K == 3
    assert tz.law.multiplicity(1) == 12
    unit = multinomial_zeta(BETA, (1, 0))
    assert unit.law.multiplicity(5) == 1  # single-map chain: geometric series


def test_multinomial_zeta_accepts_full_trident_vector():
    assert multinomial_zeta(TRIDENT, (1, 1, 0)) == multinomial_zeta(TRIDENT, (1, 1))


def test_spectrum_keys_round_trip_through_multinomial_labels():
    for system in (TRIDENT, THREE_MAP, BETA):
        for p in spectrum_sweep(system, K_max=4):
            k = p.key.vector
            assert multinomial_zeta(system, k).label == f"class {k}"
            assert abscissa_closed(system, k).value == p.f


def test_hypothesis_violation_refused():
    with pytest.raises(HypothesisViolationError):
        multinomial_zeta(ROBY, (1, 0, 0))


def test_hypothesis_violation_refused_beyond_the_check_depth():
    # K = 13 > HYPOTHESIS_K_MAX, yet alpha = 1 as for (0, 1, 0): the target
    # class is partitioned with the checked vectors whatever its depth
    assert sum((7, 6, 0)) > HYPOTHESIS_K_MAX
    message = r"\(7, 6, 0\) is also attained by \(0, 1, 0\)"
    with pytest.raises(HypothesisViolationError, match=message):
        multinomial_zeta(ROBY, (7, 6, 0))


def test_eval_series_cantor_identity():
    sz = AlphaLengthSequence.from_law(F(1, 3), GeometricLaw(a=1, g=2))
    v = eval_series(sz, 1.0)
    assert abs(v.value - 1) <= v.tail_bound + 1e-15
    cs = closed_form_zeta(FractalStringSpec(family="cantor"))
    for s in (0.8, 1.3, 2.0, 1 + 4j):
        got = eval_series(sz, s, tail_tol=1e-11)
        assert abs(got.value - cs.evaluate(s)) <= got.tail_bound + 1e-10


def test_eval_series_sigma1_geometric():
    sz = AlphaLengthSequence.from_law(F(1, 3), GeometricLaw(a=1, g=1))
    v = eval_series(sz, 1.0)
    assert abs(v.value - 0.5) <= v.tail_bound + 1e-15


def test_eval_series_beta_closed_value():
    # sum C(2n,n) x^n = 1/sqrt(1-4x) - 1 at x = 9^-s
    mz = multinomial_zeta(BETA, (1, 1))
    for s in (0.8, 1.0, 1.5):
        v = eval_series(mz, s, tail_tol=1e-13)
        x = 9.0**-s
        expected = 1 / math.sqrt(1 - 4 * x) - 1
        assert abs(v.value - expected) < 5e-12


def test_eval_series_matches_brute_force():
    mz = multinomial_zeta(BETA, (1, 1))
    v = eval_series(mz, 0.8, tail_tol=1e-13)
    brute = math.fsum(
        float(mz.law.multiplicity(n)) * 9.0 ** (-0.8 * n) for n in range(1, 200)
    )
    assert abs(v.value.real - brute) < 1e-10


def test_eval_series_trident_brute_force():
    tz = multinomial_zeta(TRIDENT, (2, 1))
    v = eval_series(tz, 1.0)
    brute = float(sum(tz.law.multiplicity(n) * F(1, 125) ** n for n in range(1, 60)))
    assert abs(v.value.real - brute) < 1e-11


def test_eval_series_divergence_guard():
    mz = multinomial_zeta(BETA, (1, 1))
    with pytest.raises(DivergenceError):
        eval_series(mz, 0.5)  # left of the abscissa log_3 2


def test_eval_series_monotone_on_reals():
    mz = multinomial_zeta(BETA, (1, 1))
    absc = math.log(2) / math.log(3)
    values = [
        eval_series(mz, absc + d, tail_tol=1e-11).value.real
        for d in (0.1, 0.3, 0.7, 1.2, 2.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_partial_sums_diverge_left_of_abscissa():
    # lattice family with known abscissa: sigma2 alpha=1, D = log_3 2
    law = GeometricLaw(a=3, g=2)
    s = math.log(2) / math.log(3) - 0.05
    total, n = 0.0, 1
    while total <= 1e6 and n <= 10**5:
        total += law.multiplicity(n) * (3.0 ** (-n * s))
        n += 1
    assert total > 1e6


# ---- Abscissas ----


def test_abscissa_closed_values():
    assert abs(abscissa_closed(BETA0, (1, 1)).value - 1.0) < 1e-14
    assert abs(abscissa_closed(BETA, (1, 1)).value - math.log(2) / math.log(3)) < 1e-14
    assert (
        abs(abscissa_closed(TRIDENT, (2, 1)).value - math.log(3) / math.log(5)) < 1e-14
    )
    assert abscissa_closed(BETA, (1, 0)).value == 0.0  # single-map chain
    assert abscissa_closed(TRIDENT, (1, 0)).value == pytest.approx(
        math.log(2) / math.log(5), abs=1e-14
    )


def test_abscissa_closed_folds_per_map_vectors():
    # (2,0,1) and (1,0,0) put every count on the maps of probability 1/5
    assert abscissa_closed(TRIDENT, (2, 0, 1)) == abscissa_closed(TRIDENT, (1, 0))
    assert abscissa_closed(TRIDENT, (1, 0, 0)) == abscissa_closed(TRIDENT, (1, 0))


@given(data=st.data(), system=st.sampled_from([BETA, BETA0, TRIDENT, THREE_MAP]))
def test_abscissa_satisfies_defining_equation(data, system):
    # class vectors (one entry per slot) and per-map vectors, which fold
    length = data.draw(st.sampled_from(sorted({prepare(system).width, system.N})))
    k = data.draw(st.lists(st.integers(0, 8), min_size=length, max_size=length).filter(any))
    res = abscissa_closed(system, k)
    assert abs(defining_residual(system, k, res.value) - 1) < 1e-12


def test_root_test_converges():
    mz = multinomial_zeta(BETA, (1, 1))
    rt = abscissa_root_test(mz, 2000)
    assert rt.method == "root_test"
    assert abs(rt.value - math.log(2) / math.log(3)) < 0.01
    closed = abscissa_closed(BETA, (1, 1))
    assert abs(rt.value - closed.value) < 0.01


def test_root_test_sigma2_style_law():
    # m_n = 2^(k1 n - 1) on lengths 3^(-K n): estimate -> (k1/K) log_3 2
    k1, K = 2, 3
    sz = AlphaLengthSequence.from_law(F(1, 27), GeometricLaw(a=2 ** (k1 - 1), g=2**k1))
    rt = abscissa_root_test(sz, 200)
    assert abs(rt.value - (k1 / K) * math.log(2) / math.log(3)) < 1e-2


def test_root_test_constant_multiplicity():
    sz = AlphaLengthSequence.from_law(F(1, 3), GeometricLaw(a=1, g=1))
    assert abs(abscissa_root_test(sz, 1000).value) < 1e-12


@pytest.mark.parametrize(
    "system, below, at",
    [
        # length exponents of 2: -32 (k1 + k2)
        (NEAR_ONE, (2**26 - 2, 1), (2**26 - 1, 1)),
        (NEAR_ONE, (1, 2**26 - 2), (1, 2**26 - 1)),
        # length exponents of 3: -(k1 + k2)
        (BETA, (2**31 - 2, 1), (2**31 - 1, 1)),
        (BETA, (1, 2**31 - 2), (1, 2**31 - 1)),
    ],
)
def test_every_class_entry_point_shares_one_depth_guard(system, below, at):
    """A class whose exponents reach 2**31 is refused by each entry point
    with one message; one step shallower, each gets past the guard."""
    entry_points = (regularity_of, collapsed_regularity, abscissa_closed, multinomial_zeta)
    messages = set()
    for entry_point in entry_points:
        with pytest.raises(ValueError) as exc:
            entry_point(system, at)
        messages.add(str(exc.value))
    assert messages == {f"class {at} is too deep: its entries or exponents reach 2**31"}
    with pytest.raises(KeyRangeError):
        multinomial_zeta(system, at)
    assert regularity_of(system, below).key == VectorKey(below)
    assert collapsed_regularity(system, below).key == VectorKey(below)
    assert abscissa_closed(system, below).method == "closed_form"
    # the series is then refused for its exact base alone
    with pytest.raises(KeyRangeError, match="length base"):
        multinomial_zeta(system, below)


# ---- Lattice closed forms ----


def test_sigma1_closed_forms():
    z = closed_form_zeta(S1, FractionKey(F(1, 2)))
    assert z.base == F(1, 9)
    assert z.num.coeffs == (F(0), F(1)) and z.den.coeffs == (F(1), F(-1))
    assert abs(z.evaluate(1) - F(1, 8)) < 1e-12
    ent = closed_form_zeta(S1, OnePlusLogKey(2))
    assert ent.entire and ent.base == F(1, 9)
    assert ent.value_at_zero() == 1


def test_sigma2_closed_forms():
    z1 = closed_form_zeta(S2, FractionKey(F(1)))
    assert z1.value_at_zero() == -3
    assert z1.num.coeffs == (F(0), F(3)) and z1.den.coeffs == (F(1), F(-2))
    zh = closed_form_zeta(S2, FractionKey(F(1, 2)))
    assert zh.value_at_zero() == -1
    assert zh.base == F(1, 9)
    assert zh.num.coeffs == (F(0), F(1)) and zh.den.coeffs == (F(1), F(-2))


def test_generalized_closed_forms():
    g3 = closed_form_zeta(AtomicMeasureSpec(family="generalized", m=3), FractionKey(F(1)))
    assert g3.value_at_zero() == F(-5, 2)
    assert g3.base == F(1, 5)
    assert g3.num.coeffs == (F(0), F(5)) and g3.den.coeffs == (F(1), F(-3))
    # m = 2 reduces to the sigma2 forms
    g2 = closed_form_zeta(AtomicMeasureSpec(family="generalized", m=2), FractionKey(F(1)))
    ref = closed_form_zeta(S2, FractionKey(F(1)))
    assert (g2.num, g2.den, g2.base) == (ref.num, ref.den, ref.base)


def test_closed_form_matches_series():
    # sigma2 alpha=1: counts 3*2^(n-1) on lengths 3^-n
    z1 = closed_form_zeta(S2, FractionKey(F(1)))
    sz = AlphaLengthSequence.from_law(F(1, 3), GeometricLaw(a=3, g=2))
    absc = math.log(2) / math.log(3)
    for i in range(20):
        s = absc + 0.1 + 0.15 * i
        got = eval_series(sz, s, tail_tol=1e-12)
        assert abs(got.value - z1.evaluate(s)) <= got.tail_bound + 1e-11


def test_roby_recovery_counts_are_fibonacci():
    # floor-sum law multiplicities equal F_{n+1}, exact big-integer
    law = FloorSumLaw()
    for n in range(1, 31):
        assert law.multiplicity(n) == fibonacci(n + 1)
    # the fibonacci string's zeta 1/(1 - z - z^2) is this series plus the
    # unit first length
    rz = closed_form_zeta(FractalStringSpec(family="fibonacci"))
    assert rz.base == F(1, 2)
    assert rz.num.coeffs == (F(1),) and rz.den.coeffs == (F(1), F(-1), F(-1))
    sz = AlphaLengthSequence.from_law(F(1, 2), law)
    for s in (1.0, 1.5, 2.5):
        got = eval_series(sz, s, tail_tol=1e-12)
        assert abs(got.value + 1 - rz.evaluate(s)) <= got.tail_bound + 1e-10


def test_closed_form_denominators_are_square_free():
    """Every lattice zeta has simple poles only: its denominator shares no
    root with its derivative."""
    zetas = [
        closed_form_zeta(FractalStringSpec(family="cantor")),
        closed_form_zeta(FractalStringSpec(family="fibonacci")),
    ]
    for spec in (S1, S2, AtomicMeasureSpec(family="generalized", m=3),
                 AtomicMeasureSpec(family="generalized", m=5)):
        for K in range(1, 25):
            for k1 in range(1, K + 1):
                if math.gcd(k1, K) == 1:
                    zetas.append(closed_form_zeta(spec, FractionKey(F(k1, K))))
    assert len(zetas) == 2 + 4 * 180  # 180 reduced fractions with K <= 24
    for rz in zetas:
        assert rz.den.degree in (1, 2), rz.label
        assert poly_gcd(rz.den, rz.den.derivative()).degree == 0, rz.label


def test_no_lattice_form_for_multinomial_classes():
    with pytest.raises(ValueError):
        closed_form_zeta(S2, OnePlusLogKey(1))
    with pytest.raises(ValueError):
        closed_form_zeta(S2, FractionKey(F(3, 2)))


# ---- Stored closed forms ----

CLOSED_FORMS = Path(__file__).parent / "data" / "closed_forms.json"


def _closed_form_cases():
    """(name, system, key) for every string and every atomic key K <= 8."""
    yield "cantor", FractalStringSpec(family="cantor"), None
    yield "fibonacci", FractalStringSpec(family="fibonacci"), None
    atomic = [("sigma1", S1), ("sigma2", S2)]
    atomic += [
        (f"generalized{m}", AtomicMeasureSpec(family="generalized", m=m)) for m in (3, 5)
    ]
    for name, spec in atomic:
        for K in range(1, 9):
            for k1 in range(1, K + 1):
                if math.gcd(k1, K) == 1:
                    yield f"{name} {k1}/{K}", spec, FractionKey(F(k1, K))
    for level in (1, 2, 3):
        yield f"sigma1 1+log:{level}", S1, OnePlusLogKey(level)


def _closed_form_record(rz: RationalZeta) -> dict:
    return {
        "label": rz.label,
        "base": str(rz.base),
        "num": [str(c) for c in rz.num.coeffs],
        "den": [str(c) for c in rz.den.coeffs],
    }


def test_closed_forms_match_stored():
    stored = json.loads(CLOSED_FORMS.read_text())
    got = {
        name: _closed_form_record(closed_form_zeta(system, key))
        for name, system, key in _closed_form_cases()
    }
    assert got == stored


def _power_series(num, den, terms: int) -> list[F]:
    """The first coefficients of num(z)/den(z) at z = 0, by exact long division."""
    num, den = [F(c) for c in num], [F(c) for c in den]
    out = []
    for n in range(terms):
        c = (num[n] if n < len(num) else 0) - sum(
            den[j] * out[n - j] for j in range(1, min(n, len(den) - 1) + 1)
        )
        out.append(c / den[0])
    return out


@pytest.mark.parametrize("name, system, key", list(_closed_form_cases()))
def test_closed_form_zeta_is_the_table_generating_function(name, system, key):
    seq = closed_form_sequence(system, key)
    coeffs = _power_series(*seq.law.generating_function(), 31)
    assert coeffs == [0] + [seq.law.multiplicity(n) for n in range(1, 31)]
    rz = closed_form_zeta(system, key)
    assert rz.base == seq.base_length and rz.label == seq.label
    zcoeffs = _power_series(rz.num.coeffs, rz.den.coeffs, 31)
    # only the fibonacci string has a length 1 = base^0: its first interval
    assert zcoeffs[0] == (1 if name == "fibonacci" else 0)
    assert zcoeffs[1:] == coeffs[1:]


if __name__ == "__main__":
    # regenerate the stored closed forms: PYTHONPATH=src python tests/test_zeta.py
    records = {
        name: _closed_form_record(closed_form_zeta(system, key))
        for name, system, key in _closed_form_cases()
    }
    lines = ",\n".join(f" {json.dumps(n)}: {json.dumps(r)}" for n, r in records.items())
    CLOSED_FORMS.write_text("{\n" + lines + "\n}\n")
