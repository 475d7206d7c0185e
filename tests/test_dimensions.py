"""Pole lattices, residues, tapestries, and counting functions."""
import cmath
import dataclasses
import math
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfzeta import dimensions

from mfzeta.ifs_core import AtomicMeasureSpec, FractalStringSpec, WeightedIFS
from mfzeta.regularity import FractionKey, OnePlusLogKey
from mfzeta.zeta import KeyRangeError, Poly, RationalZeta, closed_form_zeta
from mfzeta.dimensions import (
    _BLOCK,
    DimensionLattice,
    _exact_sum,
    _lattice_terms,
    _zero_pole_expansion,
    build_tapestry,
    closed_form_sequence,
    counting_direct,
    counting_explicit,
    jump_distance,
    pole_lattices,
    residue_numeric,
    sample_off_jump_xs,
)

F = Fraction
CANTOR = FractalStringSpec(family="cantor")
FIB = FractalStringSpec(family="fibonacci")
SIGMA1 = AtomicMeasureSpec(family="sigma1")
SIGMA2 = AtomicMeasureSpec(family="sigma2")
M3 = AtomicMeasureSpec(family="generalized", m=3)
LOG3_2 = math.log(2) / math.log(3)
GOLDEN = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# pole lattices
# ---------------------------------------------------------------------------


def test_cantor_lattice():
    lats = pole_lattices(closed_form_zeta(CANTOR))
    assert len(lats) == 1
    lat = lats[0]
    assert lat.real_part == pytest.approx(LOG3_2, abs=1e-12)
    assert lat.period == pytest.approx(2 * math.pi / math.log(3), abs=1e-12)
    assert lat.phase_shift == pytest.approx(0.0, abs=1e-12)
    assert lat.residue == pytest.approx(1 / (2 * math.log(3)), abs=1e-12)


def test_fibonacci_two_lattices_with_half_shift():
    lats = pole_lattices(closed_form_zeta(FIB))
    assert len(lats) == 2
    pos, neg = lats  # sorted by decreasing real part
    d = math.log(GOLDEN) / math.log(2)
    assert pos.real_part == pytest.approx(d, abs=1e-12)
    assert neg.real_part == pytest.approx(-d, abs=1e-12)
    assert pos.phase_shift == pytest.approx(0.0, abs=1e-12)
    assert neg.phase_shift == pytest.approx(0.5, abs=1e-12)
    for lat in lats:
        assert lat.period == pytest.approx(2 * math.pi / math.log(2), abs=1e-12)
    assert pos.residue == pytest.approx(
        GOLDEN / (math.sqrt(5) * math.log(2)), abs=1e-12
    )


@pytest.mark.parametrize(
    "spec, q, real, res",
    [
        (SIGMA1, F(1, 2), 0.0, 1 / (2 * math.log(3))),
        (SIGMA1, F(1), 0.0, 1 / math.log(3)),
        (SIGMA2, F(1), LOG3_2, 3 / (2 * math.log(3))),
        (SIGMA2, F(1, 2), LOG3_2 / 2, 1 / (4 * math.log(3))),
        (M3, F(1), math.log(3) / math.log(5), 5 / (3 * math.log(5))),
    ],
)
def test_atomic_lattices(spec, q, real, res):
    rz = closed_form_zeta(spec, FractionKey(q))
    lats = pole_lattices(rz)
    assert len(lats) == 1
    lat = lats[0]
    assert lat.real_part == pytest.approx(real, abs=1e-12)
    assert lat.residue == pytest.approx(res, abs=1e-12)
    K = q.denominator
    base_log = math.log(3) if spec.family != "generalized" else math.log(5)
    assert lat.period == pytest.approx(2 * math.pi / (K * base_log), abs=1e-12)
    assert lat.phase_shift == pytest.approx(0.0, abs=1e-12)


def test_residue_constant_along_lattice():
    for rz in (
        closed_form_zeta(CANTOR),
        closed_form_zeta(SIGMA2, FractionKey(F(1))),
    ):
        lat = pole_lattices(rz)[0]
        for j in (0, 1, 2):
            w = complex(lat.real_part, lat.period * j)
            assert abs(residue_numeric(rz, w) - lat.residue) < 1e-9


def test_repeated_root_refused():
    # denominator (1 - 2z)^2: a double pole, decided exactly
    rz = RationalZeta(
        num=Poly((F(1),)), den=Poly((F(1), F(-4), F(4))), base=F(1, 3)
    )
    with pytest.raises(ValueError, match="repeated denominator root"):
        pole_lattices(rz)
    # no law has a cubic denominator, (1 - 2z)(1 - z)(1 + z) here: refused
    # unsolved, whatever its roots
    rz = RationalZeta(
        num=Poly((F(1),)), den=Poly((F(1), F(-2), F(-1), F(2))), base=F(1, 3)
    )
    with pytest.raises(ValueError, match="degree 3"):
        pole_lattices(rz)


def test_entire_zeta_has_no_lattices():
    rz = closed_form_zeta(SIGMA1, OnePlusLogKey(2))
    with pytest.raises(ValueError):
        pole_lattices(rz)


def _reference_lattices(rz):
    """The per-key lattice algorithm, run whole for every zeta: roots, one
    Newton polish step, the merge of repeated roots and the analytic residue
    num(z) / (den'(z) * z ln base), with nothing shared between zetas."""
    coeffs = [float(c) for c in rz.den.coeffs]
    roots = list(np.roots(coeffs[::-1]))
    dprime = rz.den.derivative()
    polished = []
    for r in roots:
        r = complex(r)
        dp = dprime(r)
        if abs(dp) > 1e-12:
            r = r - rz.den(r) / dp
        polished.append(r)
    groups = []
    for r in sorted(polished, key=lambda c: (c.real, c.imag)):
        for g in groups:
            if abs(r - g[0]) < 1e-8 * max(1.0, abs(r)):
                g.append(r)
                break
        else:
            groups.append([r])
    log_b = math.log(float(rz.base))
    lattices = []
    for g in groups:
        root = sum(g) / len(g)
        residue = None
        if len(g) == 1:
            dz_ds = root * math.log(float(rz.base))
            residue = rz.num(root) / (rz.den.derivative()(root) * dz_ds)
        lattices.append(
            DimensionLattice(
                real_part=math.log(abs(root)) / log_b + 0.0,
                period=2 * math.pi / -log_b,
                phase_shift=(-cmath.phase(root) / (2 * math.pi)) % 1.0,
                residue=residue,
            )
        )
    lattices.sort(key=lambda l: (-l.real_part, l.phase_shift))
    return lattices


def _bits(lat):
    """Every field of a lattice, floats and complex parts as exact hex."""
    out = []
    for f in dataclasses.fields(lat):
        v = getattr(lat, f.name)
        if isinstance(v, complex):
            v = (v.real.hex(), v.imag.hex())
        elif isinstance(v, float):
            v = v.hex()
        out.append((f.name, v))
    return out


def _lattice_zetas(K_max):
    """The string zetas and every atomic key k1/K with K <= K_max of sigma1,
    sigma2 and sigma(3); for one law polynomial, keys of many bases follow
    one another."""
    yield closed_form_zeta(CANTOR)
    yield closed_form_zeta(FIB)
    for spec in (SIGMA1, SIGMA2, M3):
        for K in range(1, K_max + 1):
            for k1 in range(1, K + 1):
                if math.gcd(k1, K) == 1:
                    yield closed_form_zeta(spec, FractionKey(F(k1, K)))


def test_lattices_are_bit_identical_to_the_per_key_algorithm():
    for rz in _lattice_zetas(24):
        assert [_bits(l) for l in pole_lattices(rz)] == [
            _bits(l) for l in _reference_lattices(rz)
        ], rz.label


# ---------------------------------------------------------------------------
# tapestry
# ---------------------------------------------------------------------------


def test_tapestry_sigma1_on_imaginary_axis():
    tap = list(build_tapestry(SIGMA1, 3))
    assert [a for a, _ in tap] == [F(1, 3), F(1, 2), F(2, 3), F(1)]
    for _, lat in tap:
        assert abs(lat.real_part) <= 1e-12


def test_tapestry_sigma2_real_parts_follow_spectrum():
    tap = list(build_tapestry(SIGMA2, 6))
    assert len(tap) == 12  # sum of phi(K), K <= 6
    for alpha, lat in tap:
        assert lat.real_part == pytest.approx(float(alpha) * LOG3_2, abs=1e-12)


def test_tapestry_generalized_m2_identical_to_sigma2():
    t2 = list(build_tapestry(SIGMA2, 4))
    tg = list(build_tapestry(AtomicMeasureSpec(family="generalized", m=2), 4))
    assert [a for a, _ in t2] == [a for a, _ in tg]
    for (_, l2), (_, lg) in zip(t2, tg):
        assert l2.real_part == lg.real_part
        assert l2.period == lg.period
        assert l2.residue == lg.residue


def test_tapestry_solves_each_law_polynomial_once(monkeypatch):
    roots = np.roots
    root_calls = []
    monkeypatch.setattr(np, "roots", lambda p: root_calls.append(p) or roots(p))
    tap = list(build_tapestry(SIGMA2, 20))
    assert len(tap) == 128  # sum of phi(K), K <= 20
    # one law polynomial per numerator k1 = 1..19, and alpha = 1's own
    assert len(root_calls) == 20
    # a fresh build solves them afresh, to the same lattices
    assert list(build_tapestry(SIGMA2, 20)) == tap
    assert len(root_calls) == 40


def test_tapestry_is_built_as_it_is_read(monkeypatch):
    solve = dimensions._pole_roots
    calls = []
    monkeypatch.setattr(dimensions, "_pole_roots", lambda *pair: calls.append(pair) or solve(*pair))
    pairs = build_tapestry(SIGMA2, 599)
    assert calls == []
    alpha, lat = next(pairs)
    assert alpha == F(1, 599) and len(calls) == 1
    (want,) = pole_lattices(closed_form_zeta(SIGMA2, FractionKey(alpha)))
    assert _bits(lat) == _bits(want)


def test_tapestry_keys_ascend_from_the_deepest(monkeypatch):
    for K_max in (1, 2, 7, 24):
        alphas = [a for a, _ in build_tapestry(M3, K_max)]
        want = sorted(
            {F(k1, K) for K in range(1, K_max + 1) for k1 in range(1, K + 1)}
        )
        assert alphas == want
    # sigma(3) keys at K = 463 have a length base 5**-463 that rounds to 0.0:
    # the first key built is 1/463, so no root is solved first
    calls = []
    monkeypatch.setattr(dimensions, "_pole_roots", lambda *pair: calls.append(pair))
    with pytest.raises(KeyRangeError):
        next(build_tapestry(M3, 463))
    assert calls == []


def test_tapestry_lattices_are_bit_identical_to_each_keys_zeta():
    for spec in (SIGMA1, SIGMA2, M3):
        for alpha, lat in build_tapestry(spec, 24):
            (want,) = pole_lattices(closed_form_zeta(spec, FractionKey(alpha)))
            assert _bits(lat) == _bits(want), (spec, alpha)


def test_tapestry_validates_kmax():
    with pytest.raises(ValueError):
        next(build_tapestry(SIGMA1, 0))


# ---------------------------------------------------------------------------
# counting: direct
# ---------------------------------------------------------------------------


def test_counting_direct_cantor():
    seq = closed_form_sequence(CANTOR)
    assert counting_direct(seq, 10) == 3  # 1 + 2 intervals with 3^n <= 10
    assert counting_direct(seq, F(1, 2)) == 0
    assert counting_direct(seq, 3) == 1  # jump points included
    with pytest.raises(ValueError):
        counting_direct(seq, 0)


def test_counting_direct_sigma1_is_floor_log():
    seq = closed_form_sequence(SIGMA1, FractionKey(F(1, 2)))
    assert counting_direct(seq, 100) == 2  # floor(log_9 100)
    assert counting_direct(seq, 9**5) == 5


def test_counting_direct_sigma2_case1():
    seq = closed_form_sequence(SIGMA2, FractionKey(F(1)))
    assert counting_direct(seq, 10) == 9  # 3 * (2^2 - 1)
    assert counting_direct(seq, 3**4) == 45


def test_counting_direct_one_plus_log_singleton():
    seq = closed_form_sequence(SIGMA1, OnePlusLogKey(2))
    assert counting_direct(seq, 8) == 0
    assert counting_direct(seq, 9) == 1
    assert counting_direct(seq, 10**6) == 1


def test_closed_form_sequence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        closed_form_sequence(SIGMA1, FractionKey(F(3, 2)))
    with pytest.raises(ValueError):
        closed_form_sequence(SIGMA2, OnePlusLogKey(1))
    with pytest.raises(TypeError):
        closed_form_sequence(
            WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
        )


# ---------------------------------------------------------------------------
# counting: explicit formula
# ---------------------------------------------------------------------------


def test_explicit_matches_direct_at_examples():
    (r,) = counting_explicit(SIGMA1, FractionKey(F(1, 2)), [100.0], Z=10000)
    assert r.direct == 2
    assert abs(r.explicit_value - r.direct) <= 0.05

    (r,) = counting_explicit(SIGMA2, FractionKey(F(1)), [10.0], Z=20000)
    assert r.direct == 9
    assert abs(r.explicit_value - r.direct) <= 0.05

    (r,) = counting_explicit(CANTOR, None, [10.0], Z=10000)
    assert r.direct == 3
    assert abs(r.explicit_value - r.direct) <= 0.05

    (r,) = counting_explicit(FIB, None, [5.0], Z=10000)
    assert r.direct == 4
    assert abs(r.explicit_value - r.direct) <= 0.05


# The truncation error scales like x^(Re omega) / (Z * jump distance), so
# for the lattices with large positive real part the x-range is capped where
# rounding is safe even at the 0.02 guard; the flat lattices go to 1e6.
@pytest.mark.parametrize(
    "system, key, hi",
    [
        (CANTOR, None, 1e6),
        (FIB, None, 1e6),
        (SIGMA1, FractionKey(F(1, 2)), 1e6),
        (SIGMA1, FractionKey(F(1)), 1e6),
        (SIGMA2, FractionKey(F(1)), 1e4),
        (SIGMA2, FractionKey(F(2, 3)), 1e6),
        (M3, FractionKey(F(1)), 1e4),
    ],
)
def test_explicit_rounds_to_direct_on_samples(system, key, hi):
    xs = sample_off_jump_xs(closed_form_zeta(system, key), count=6, hi=hi, seed=11)
    results = counting_explicit(system, key, xs, Z=20000)
    assert [r.x for r in results] == xs
    for r in results:
        assert round(r.explicit_value) == r.direct, r


def _explicit_term_by_term(system, key, x, Z):
    """Reference: one cmath.exp and one Python complex division per pole.

    Returns the real parts of the terms by j, lattice by lattice, and the
    value.
    """
    rz = closed_form_zeta(system, key)
    v0 = rz.value_at_zero()
    if v0 is not None:
        const, zero_is_pole = float(v0), False
    else:
        res0, c0 = _zero_pole_expansion(rz)
        const, zero_is_pole = res0 * math.log(x) + c0, True
    lnx = math.log(x)
    per_lattice = []
    for lat in pole_lattices(rz):
        terms = {}
        for j in range(-Z, Z + 1):
            im = lat.period * (j + lat.phase_shift)
            if zero_is_pole and abs(lat.real_part) < 1e-12 and im == 0.0:
                continue
            w = complex(lat.real_part, im)
            terms[j] = (lat.residue * cmath.exp(w * lnx) / w).real
        per_lattice.append((lat, terms))
    value = math.fsum(t for _, terms in per_lattice for t in terms.values()) + const
    return per_lattice, zero_is_pole, value


# cantor: one lattice; fibonacci: two, one shifted by 1/2; sigma1 1/2: the
# zero lattice with the double pole at s = 0; sigma2 1 and m=3 1/2: Re > 0
@pytest.mark.parametrize(
    "system, key",
    [
        (CANTOR, None),
        (FIB, None),
        (SIGMA1, FractionKey(F(1, 2))),
        (SIGMA2, FractionKey(F(1))),
        (M3, FractionKey(F(1, 2))),
    ],
)
def test_explicit_is_bit_identical_to_term_by_term_sum(system, key):
    rz = closed_form_zeta(system, key)
    Z = 4200  # 4201 poles in each lattice's half: two numpy blocks
    for x in sample_off_jump_xs(rz, count=6, hi=1e12, seed=3):
        per_lattice, zero_is_pole, value = _explicit_term_by_term(system, key, x, Z)
        for lat, terms in per_lattice:
            # the premise of the half, in CPython's arithmetic: pole -j - 2*shift
            # gives the same double as pole j
            shift2 = round(2 * lat.phase_shift)
            weight = {}
            for j, t in terms.items():
                mirror = -j - shift2
                if mirror in terms:
                    assert terms[mirror].hex() == t.hex(), (x, lat, j)
                weight[j] = 2 if mirror != j and mirror in terms else 1
            blocks = _lattice_terms(lat, Z, math.log(x), zero_is_pole)
            half = [(t, 1 + paired) for block, paired in blocks for t in block]
            assert half == [(terms[j], weight[j]) for j in range(Z + 1) if j in terms]
        assert counting_explicit(system, key, [x], Z)[0].explicit_value == value, x


def test_numpy_cos_is_even_and_sin_odd_bit_for_bit():
    # the mirror pole's cos/sin argument is the exact negative, at every
    # scale up to 1e300, slow argument reduction past 1e8 included
    rng = np.random.default_rng(20)
    for e in range(0, 301):
        a = rng.uniform(1.0, 10.0, 2000) * 10.0**e
        assert (np.cos(-a).view(np.int64) == np.cos(a).view(np.int64)).all(), e
        assert (np.sin(-a).view(np.int64) == (-np.sin(a)).view(np.int64)).all(), e


@pytest.mark.parametrize(
    "change", [{"residue": complex(0.5, 1e-17)}, {"phase_shift": 0.25}]
)
def test_explicit_refuses_lattices_that_are_not_self_conjugate(monkeypatch, change):
    bad = dataclasses.replace(pole_lattices(closed_form_zeta(CANTOR))[0], **change)
    monkeypatch.setattr(dimensions, "pole_lattices", lambda rz: [bad])
    with pytest.raises(ValueError, match="not self-conjugate"):
        counting_explicit(CANTOR, None, [10.0], Z=1000)


# cantor: one lattice at shift 0; fibonacci: shifts 0 and 1/2; sigma1 1/2:
# the zero lattice, whose s = 0 pole is dropped
@pytest.mark.parametrize(
    "system, key, dropped",
    [(CANTOR, None, 0), (FIB, None, 0), (SIGMA1, FractionKey(F(1, 2)), 1)],
)
def test_explicit_evaluates_half_of_each_lattice(monkeypatch, system, key, dropped):
    Z = 2100
    evaluated, summed = [], []
    cos, exact_sum = np.cos, dimensions._exact_sum

    def counted_cos(arg):
        evaluated.append(len(arg))
        return cos(arg)

    def counted_sum(blocks):
        blocks = list(blocks)
        summed.extend((len(b), paired) for b, paired in blocks)
        return exact_sum(blocks)

    x = sample_off_jump_xs(closed_form_zeta(system, key), count=1, seed=4)[0]
    lattices = len(pole_lattices(closed_form_zeta(system, key)))
    monkeypatch.setattr(np, "cos", counted_cos)
    monkeypatch.setattr(dimensions, "_exact_sum", counted_sum)
    counting_explicit(system, key, [x], Z)
    assert sum(evaluated) == lattices * (Z + 1) - dropped
    # the terms stand for all 2Z+1 poles of each lattice
    assert sum(n * (1 + paired) for n, paired in summed) == lattices * (2 * Z + 1) - dropped


def test_explicit_derives_lattices_once_per_class(monkeypatch):
    """One call counts every x of a class from one derivation of its
    lattices; nothing is kept for the next call."""
    calls = []

    def counted(rz):
        calls.append(rz)
        return pole_lattices(rz)

    monkeypatch.setattr(dimensions, "pole_lattices", counted)
    xs = sample_off_jump_xs(closed_form_zeta(FIB), count=4, seed=5)
    values = [r.explicit_value for r in counting_explicit(FIB, None, xs, Z=1000)]
    assert len(calls) == 1
    assert [r.explicit_value for r in counting_explicit(FIB, None, xs, Z=1000)] == values
    assert len(calls) == 2


# cantor: one lattice; fibonacci: the z^0 head and a shifted lattice; sigma1
# 1/2: the double pole at s = 0
@pytest.mark.parametrize(
    "system, key", [(CANTOR, None), (FIB, None), (SIGMA1, FractionKey(F(1, 2)))]
)
def test_explicit_over_many_x_is_each_x_alone(system, key):
    rz = closed_form_zeta(system, key)
    xs = sample_off_jump_xs(rz, count=8, hi=1e9, seed=13)
    together = counting_explicit(system, key, xs, Z=2000)
    for x, r in zip(xs, together, strict=True):
        (alone,) = counting_explicit(system, key, [x], Z=2000)
        assert (r.x.hex(), r.direct, r.explicit_value.hex()) == (
            alone.x.hex(), alone.direct, alone.explicit_value.hex()
        )
    # an x on a jump is refused alone and among others
    on_jump = math.exp(3 * rz.log_unit)
    for batch in ([on_jump], [*xs, on_jump]):
        with pytest.raises(ValueError, match="log-units of a jump"):
            counting_explicit(system, key, batch, Z=2000)


# ---------------------------------------------------------------------------
# the exact pole sum
# ---------------------------------------------------------------------------


def _blocks(terms, paired=()):
    """Blocks of at most ``_BLOCK`` terms, the i-th flagged ``paired[i]``
    (False past the end of ``paired``)."""
    starts = range(0, len(terms), _BLOCK)
    return [(terms[i:i + _BLOCK], i // _BLOCK < len(paired) and paired[i // _BLOCK])
            for i in starts]


def _written_out(blocks):
    return [t for block, paired in blocks for t in block.tolist() * (1 + paired)]


DBL_MAX = sys.float_info.max


@st.composite
def term_arrays(draw):
    """Random terms over 2**-span .. 2**span (span up to 1000), with zeros,
    subnormals and extreme floats mixed in, some negated copies for exact
    cancellation, and lengths up to three blocks and a bit."""
    n = draw(st.integers(0, 3 * _BLOCK + 7))
    span = draw(st.sampled_from([0, 30, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = np.ldexp(rng.uniform(-1, 1, n), rng.integers(-span, span + 1, n))
    near_half_max = [DBL_MAX / 2, math.nextafter(DBL_MAX / 2, math.inf), DBL_MAX]
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               2.225073858507201e-308, 2.0**1000, -(2.0**1000),
                               *near_half_max, *(-t for t in near_half_max)])
    bounded = st.floats(min_value=-(2.0**1000), max_value=2.0**1000)
    extra = draw(st.lists(special | bounded, max_size=40))
    terms = np.concatenate([terms, extra])
    cancel = draw(st.integers(0, len(terms)))
    terms = np.concatenate([terms, -terms[:cancel]])
    return terms[rng.permutation(len(terms))]


def _correctly_rounded_sum(terms):
    """math.fsum, or, where its partial sums overflow, the exact rational sum
    rounded once; OverflowError when the sum itself is past DBL_MAX."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return float(sum(map(Fraction, terms)))


@settings(max_examples=150, deadline=None)
@given(term_arrays(), st.lists(st.booleans(), max_size=4))
def test_exact_sum_is_fsum_bit_for_bit(terms, paired):
    # a paired block is summed as its terms written out twice
    blocks = _blocks(terms, paired)
    try:
        want = _correctly_rounded_sum(_written_out(blocks)).hex()
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(blocks)
        return
    assert _exact_sum(blocks).hex() == want
    # flushing the float bins after every block gives the same integer
    with mock.patch.object(dimensions, "_FLUSH", 1):
        assert _exact_sum(blocks).hex() == want


def test_exact_sum_of_nothing_and_of_cancelling_terms():
    assert _exact_sum([]).hex() == (0.0).hex()
    terms = np.array([1e300, 1.0, -1e300, 5e-324, -5e-324, -0.0])
    assert _exact_sum(_blocks(terms)) == 1.0
    # the halfway case 1 + 2**-53 rounds to even, as fsum does
    assert _exact_sum(_blocks(np.array([1.0, 2.0**-53]))) == math.fsum([1.0, 2.0**-53]) == 1.0
    assert _exact_sum(_blocks(np.array([1.0, 2.0**-53, 2.0**-106]))) == 1.0 + 2.0**-52
    # a paired DBL_MAX is 2 * DBL_MAX in the bins, not inf
    pair = [(np.array([DBL_MAX]), True), (np.array([-DBL_MAX, -DBL_MAX / 2]), False)]
    assert _exact_sum(pair) == DBL_MAX / 2


@pytest.mark.parametrize(
    "bad",
    [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf], [1e308, math.inf, 1.0]],
)
def test_exact_sum_refuses_non_finite_terms(bad):
    terms = np.array([1.0, 2.5, *bad, -3.0])
    try:
        want = math.fsum(terms.tolist())
    except ValueError:
        want = None
    assert want is None or not math.isfinite(want)
    with pytest.raises(ValueError, match="non-finite"):
        _exact_sum(_blocks(np.concatenate([np.ones(_BLOCK), terms])))


def test_explicit_rejects_jump_proximity():
    with pytest.raises(ValueError, match="jump"):
        counting_explicit(SIGMA2, FractionKey(F(1)), [9.0], Z=1000)
    with pytest.raises(ValueError, match="jump"):
        counting_explicit(CANTOR, None, [27.2], Z=1000)
    # the sampler's guard rule holds for given x too
    for guard in (math.nan, -1.0, math.inf, 0.5):
        with pytest.raises(ValueError, match="jump guard"):
            counting_explicit(CANTOR, None, [3.5], Z=1000, jump_guard=guard)


def test_explicit_validates_arguments():
    with pytest.raises(ValueError):
        counting_explicit(CANTOR, None, [0.5], Z=1000)
    with pytest.raises(ValueError):
        counting_explicit(CANTOR, None, [10.0], Z=50)
    with pytest.raises(ValueError):
        counting_explicit(SIGMA1, OnePlusLogKey(1), [10.0], Z=1000)


def test_cantor_log_periodicity():
    # (N(x)+1)/x^D invariant under x -> 3x: exact for the direct count
    seq = closed_form_sequence(CANTOR)
    d = LOG3_2
    x = 10.0
    ratio1 = (counting_direct(seq, F(x)) + 1) / x**d
    ratio2 = (counting_direct(seq, F(3 * x)) + 1) / (3 * x) ** d
    assert ratio1 == pytest.approx(ratio2, rel=1e-12)
    # and within truncation error for the explicit values
    r1, r2 = counting_explicit(CANTOR, None, [x, 3 * x], Z=20000)
    e1, e2 = r1.explicit_value, r2.explicit_value
    assert (e1 + 1) / x**d == pytest.approx((e2 + 1) / (3 * x) ** d, abs=1e-2)


def test_jump_distance_units():
    rz = closed_form_zeta(CANTOR)
    assert jump_distance(rz, 27.0) == pytest.approx(0.0, abs=1e-12)
    assert jump_distance(rz, 3.0**2.5) == pytest.approx(0.5, abs=1e-12)


def test_sample_off_jump_xs_deterministic():
    rz = closed_form_zeta(SIGMA2, FractionKey(F(1)))
    a = sample_off_jump_xs(rz, count=25)
    b = sample_off_jump_xs(rz, count=25)
    assert a == b
    assert len(a) == 25
    for x in a:
        assert 2.0 <= x <= 1e6
        assert jump_distance(rz, x) >= 0.02
    # no x is 0.5 or more log-units from a jump
    with pytest.raises(ValueError, match="jump guard"):
        sample_off_jump_xs(rz, guard=0.5)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        sample_off_jump_xs(rz, lo=0.0)
    cantor = closed_form_zeta(CANTOR)  # jumps at the powers of 3
    # log-units 0.996..1.004 all lie within 0.02 of the jump at 1: refused
    # before any draw (a looping sampler fails on its 1001st)
    draws = mock.Mock(side_effect=[0.0] * 1000 + [AssertionError("sampler loops")])
    with mock.patch.object(dimensions, "jump_distance", draws):
        with pytest.raises(ValueError, match="from a jump"):
            sample_off_jump_xs(cantor, count=3, lo=2.99, hi=3.01)
    assert draws.call_count == 0
    # 0.97..1.03 keeps a guarded sliver on each side of the jump
    xs = sample_off_jump_xs(cantor, count=5, lo=2.9, hi=3.1)
    assert all(2.9 <= x <= 3.1 and jump_distance(cantor, x) >= 0.02 for x in xs)
