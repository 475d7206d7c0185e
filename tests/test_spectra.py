"""Spectrum sweeps, concave envelopes, Legendre pipeline, dimensions."""
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfzeta.ifs_core import AtomicMeasureSpec, WeightedIFS
from mfzeta.regularity import (
    FractionKey,
    OnePlusLogKey,
    VectorKey,
    check_hypothesis_H,
    collapsed_regularity,
    prepare,
)
from mfzeta.spectra import (
    ROW_BLOCK,
    SOLVE_B_RESIDUAL_TOL,
    ClassTable,
    EnvelopeFunction,
    _alpha_order,
    concave_envelope,
    legendre_transform,
    moran_dimension,
    solve_b,
    spectrum_sweep,
)
from mfzeta.zeta import abscissa_closed

F = Fraction

BETA = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
BETA0 = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 3), F(2, 3)))
RHO = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 2), F(1, 2)))
TRIDENT = WeightedIFS(
    ratios=(F(1, 5), F(1, 5), F(1, 5)), probs=(F(1, 5), F(3, 5), F(1, 5))
)
ROBY = WeightedIFS(
    ratios=(F(1, 2), F(1, 4), F(1, 10)), probs=(F(1, 2), F(1, 4), F(1, 4))
)
THREE_MAP = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(1, 7), F(23, 35)))

LOG3_2 = math.log(2) / math.log(3)
LOG5_2 = math.log(2) / math.log(5)
LOG5_3 = math.log(3) / math.log(5)
T_MAX_BETA0 = math.log(3) / math.log(2)
T_MIN_BETA0 = T_MAX_BETA0 - 1


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ratios, expected",
    [
        ((F(1, 3), F(1, 3)), LOG3_2),
        ((F(1, 5), F(1, 5), F(1, 5)), LOG5_3),
        ((F(1, 2), F(1, 2)), 1.0),
    ],
)
def test_moran_dimension_closed_values(ratios, expected):
    assert moran_dimension(ratios) == pytest.approx(expected, abs=1e-12)


def test_moran_dimension_residual_roby():
    s = moran_dimension(ROBY.ratios)
    res = sum(float(r) ** s for r in ROBY.ratios)
    assert abs(res - 1) < 1e-10
    assert 0 < s < 1


# A class abscissa is the Besicovitch-Eggleston dimension
# sum w_i log w_i / sum w_i log r_i of its frequencies w = k / K.


def _besicovitch(ratios, weights) -> float:
    num = math.fsum(float(w) * math.log(w) for w in weights if w)
    return num / math.fsum(float(w) * math.log(r) for w, r in zip(weights, ratios) if w)


def test_besicovitch_matches_moran_for_uniform_weights():
    assert abscissa_closed(BETA, (1, 1)).value == pytest.approx(LOG3_2, abs=1e-13)


def test_besicovitch_binary_quarter():
    # binary entropy of 1/4 in bits
    expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    got = abscissa_closed(BETA0, (1, 3)).value
    assert got == pytest.approx(expected, abs=1e-13)
    assert got == pytest.approx(0.8112781244591328, abs=1e-12)


def test_besicovitch_uniform_quarters_is_one():
    four = WeightedIFS(ratios=(F(1, 4),) * 4, probs=(F(1, 10), F(2, 10), F(3, 10), F(4, 10)))
    assert abscissa_closed(four, (1, 1, 1, 1)).value == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# solve_b / Legendre
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [-5.0, -1.0, 0.0, 0.3, 1.0, 4.5])
def test_solve_b_uniform_is_one_minus_q(q):
    uniform = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 2), F(1, 2)))
    assert solve_b(uniform, q) == pytest.approx(1 - q, abs=1e-12)


@pytest.mark.parametrize("q", [-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.0])
def test_solve_b_beta0_closed_form(q):
    expected = math.log2((1 / 3) ** q + (2 / 3) ** q)
    assert solve_b(BETA0, q) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("q", [-1000.0, -700.0, 700.0, 1000.0])
def test_solve_b_extreme_q_is_finite(q):
    # sum p_i^q r^b = 1 with a common ratio r: b = -logsumexp(q log p_i) / log r
    logs = [q * math.log(p) for p in BETA.probs]
    top = max(logs)
    expected = -(top + math.log(math.fsum(math.exp(v - top) for v in logs))) / math.log(
        BETA.ratios[0]
    )
    b = solve_b(BETA, q)
    assert math.isfinite(b)
    assert b == pytest.approx(expected, rel=1e-12)


def test_solve_b_residual_invariant_on_grid():
    for system in (BETA, BETA0, TRIDENT, ROBY):
        for q in [-8.0, -2.5, 0.0, 1.0, 3.3, 8.0]:
            b = solve_b(system, q)
            res = math.fsum(
                float(p) ** q * float(r) ** b
                for p, r in zip(system.probs, system.ratios)
            )
            assert abs(res - 1) < 1e-12


def _solve_b_reference(ifs, q):
    """solve_b's bisection for one q, in Python floats with math.fsum."""
    logs = [(math.log(p), math.log(r)) for p, r in zip(ifs.probs, ifs.ratios)]

    def g(b):
        try:
            return math.fsum(math.exp(q * lp + b * lr) for lp, lr in logs) - 1
        except OverflowError:
            return math.inf

    lo, hi = -1.0, 1.0
    while g(lo) <= 0:
        lo *= 2
    while g(hi) >= 0:
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = g(mid)
        if abs(val) <= SOLVE_B_RESIDUAL_TOL:
            return mid
        lo, hi = (mid, hi) if val > 0 else (lo, mid)
        if hi - lo < 1e-16 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def test_solve_b_of_an_array_is_each_q_solved_alone():
    qs = np.concatenate(([-1000.0, -700.0], np.linspace(-8, 8, 321), [700.0, 1000.0]))
    for system in (BETA, BETA0, TRIDENT, ROBY):
        b = solve_b(system, qs)
        assert isinstance(b, np.ndarray) and isinstance(solve_b(system, 0.5), float)
        for q, bq in zip(qs.tolist(), b.tolist()):
            assert bq == pytest.approx(solve_b(system, q), rel=1e-12, abs=1e-12)
            assert bq == pytest.approx(_solve_b_reference(system, q), rel=1e-12, abs=1e-12)
            # each term in one exp: at q = +-1000, p^q or r^b alone leaves the float range
            res = math.fsum(
                math.exp(q * math.log(p) + bq * math.log(r))
                for p, r in zip(system.probs, system.ratios)
            )
            assert abs(res - 1) <= 1e-12, (system, q)


def test_legendre_beta0_pipeline():
    pipe = legendre_transform(BETA0)
    assert len(pipe.q_grid) == 321
    assert pipe.q_grid[0] == pytest.approx(-8.0) and pipe.q_grid[-1] == pytest.approx(8.0)
    for q, b, t in zip(pipe.q_grid, pipe.b_values, pipe.t_values):
        assert b == pytest.approx(math.log2((1 / 3) ** q + (2 / 3) ** q), abs=1e-9)
        # t = -b'(q) = sum p^q log p / (sum p^q log 1/2)
        w = ((1 / 3) ** q, (2 / 3) ** q)
        exact = (w[0] * math.log(1 / 3) + w[1] * math.log(2 / 3)) / (sum(w) * math.log(1 / 2))
        assert t == pytest.approx(exact, abs=1e-12)
    # b strictly decreasing, t within the regularity range
    assert all(b1 < b0 for b0, b1 in zip(pipe.b_values, pipe.b_values[1:]))
    for t in pipe.t_values:
        assert T_MIN_BETA0 - 1e-6 <= t <= T_MAX_BETA0 + 1e-6
    # b(0) = 1, so b*(t(0)) = 1
    i0 = min(range(len(pipe.q_grid)), key=lambda i: abs(pipe.q_grid[i]))
    assert pipe.b_star_values[i0] == pytest.approx(1.0, abs=1e-9)


def test_legendre_trident_peak_is_moran():
    pipe = legendre_transform(TRIDENT)
    peak = max(pipe.b_star_values)
    assert peak == pytest.approx(LOG5_3, abs=1e-8)


def test_legendre_monofractal_degenerates():
    pipe = legendre_transform(RHO)
    for t in pipe.t_values:
        assert t == pytest.approx(LOG3_2, abs=1e-7)
    for bs in pipe.b_star_values:
        assert bs == pytest.approx(LOG3_2, abs=1e-7)


# ---------------------------------------------------------------------------
# spectrum_sweep
# ---------------------------------------------------------------------------


def test_sweep_beta_matches_besicovitch_everywhere():
    points = spectrum_sweep(BETA, K_max=8)
    assert len(points) >= 10
    alphas = [p.alpha for p in points]
    assert alphas == sorted(alphas)
    for p in points:
        assert isinstance(p.key, VectorKey)
        k = p.key.vector
        K = sum(k)
        weights = tuple(F(ki, K) for ki in k)
        assert p.f == pytest.approx(_besicovitch(BETA.ratios, weights), abs=1e-12)
        assert p.alpha == pytest.approx(1 - (k[1] / K) * LOG3_2, abs=1e-12)
        assert 0 <= p.f <= 1 + 1e-12


def test_sweep_trident_collapsed_values():
    points = spectrum_sweep(TRIDENT, K_max=9)
    by_key = {p.key: p for p in points}
    assert by_key[VectorKey((1, 0))].f == pytest.approx(
        LOG5_2, abs=1e-12
    )
    assert by_key[VectorKey((0, 1))].f == pytest.approx(0.0, abs=1e-12)
    assert by_key[VectorKey((2, 1))].f == pytest.approx(
        LOG5_3, abs=1e-12
    )
    assert max(p.f for p in points) == pytest.approx(LOG5_3, abs=1e-12)


def test_sweep_monofractal_single_point():
    points = spectrum_sweep(RHO, K_max=16)
    assert len(points) == 1
    assert points[0].alpha == pytest.approx(LOG3_2, abs=1e-12)
    assert points[0].f == pytest.approx(LOG3_2, abs=1e-12)
    assert points[0].key == VectorKey((1,))


def test_sweep_sigma2_is_a_line():
    spec = AtomicMeasureSpec(family="sigma2")
    points = spectrum_sweep(spec, K_max=12)
    # reduced fractions k1/K with K <= 12: sum of Euler phi = 46
    assert len(points) == 46
    for p in points:
        assert isinstance(p.key, FractionKey)
        assert p.f == pytest.approx(p.alpha * LOG3_2, abs=1e-12)
    assert points[-1].alpha == pytest.approx(1.0)
    env = concave_envelope(points)
    assert len(env.breakpoints) == 2
    lo, hi = env.endpoint_slopes()
    assert lo == pytest.approx(LOG3_2, abs=1e-9)
    assert hi == pytest.approx(LOG3_2, abs=1e-9)


@pytest.mark.parametrize("K", [64, 128])
def test_trident_hull_ends_are_closed_form_chords(K):
    """The hull's end segments join classes (0,1)-(1,K-1) and (K-1,1)-(1,0),
    of slopes +(ln 2K + c)/ln 3 and -(ln(K/2) + c)/ln 3, c = (K-1) ln(K/(K-1))."""
    points = spectrum_sweep(TRIDENT, K_max=K)
    by_key = {p.key.vector: p for p in points}

    def chord(a, b):
        return (by_key[b].f - by_key[a].f) / (by_key[b].alpha - by_key[a].alpha)

    slopes = concave_envelope(points).endpoint_slopes()
    assert slopes == (chord((0, 1), (1, K - 1)), chord((K - 1, 1), (1, 0)))
    c = (K - 1) * math.log(K / (K - 1))
    closed = ((math.log(2 * K) + c) / math.log(3), -(math.log(K / 2) + c) / math.log(3))
    assert slopes == pytest.approx(closed, rel=1e-12)


def test_sweep_sigma1_all_flat():
    spec = AtomicMeasureSpec(family="sigma1")
    points = spectrum_sweep(spec, K_max=12)
    assert len(points) == 46 + 12  # fractions plus the 1+log keys
    assert all(p.f == 0.0 for p in points)
    one_plus = [p for p in points if isinstance(p.key, OnePlusLogKey)]
    assert len(one_plus) == 12
    assert max(p.alpha for p in points) == pytest.approx(1 + LOG3_2, abs=1e-12)


def test_sweep_generalized_m3_slope():
    spec = AtomicMeasureSpec(family="generalized", m=3)
    points = spectrum_sweep(spec, K_max=6)
    for p in points:
        assert p.f == pytest.approx(p.alpha * math.log(3) / math.log(5), abs=1e-12)


def test_sweep_fallback_when_classes_collide():
    points = spectrum_sweep(ROBY, K_max=64)
    assert len(points) >= 5
    at_one = [p for p in points if abs(p.alpha - 1.0) < 1e-12]
    assert len(at_one) == 1
    golden = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
    # root test on a finite ladder converges like O(1/depth)
    assert at_one[0].f == pytest.approx(golden, abs=0.05)
    assert "root test" in at_one[0].f_desc


ROWS = json.loads((Path(__file__).parent / "data" / "spectrum_rows.json").read_text())


CERTIFIED = WeightedIFS(ratios=(F(1, 2), F(1, 3)), probs=(F(1, 3), F(2, 3)))


@pytest.mark.parametrize(
    "name, system, K_max", [("beta0-k32", BETA0, 32), ("ratios-1-2-1-3-k24", CERTIFIED, 24)]
)
def test_sweep_rows_match_stored(name, system, K_max):
    # stored rows: collapsed closed-form path (BETA0) and the certified
    # hypothesis-H path (unequal ratios); floats must match exactly
    got = [
        [p.alpha, p.f, str(p.key), p.alpha_desc, p.f_desc]
        for p in spectrum_sweep(system, K_max=K_max)
    ]
    assert got == ROWS[name]


# class (1,0) of ALPHA_TWO has alpha = log(1/4)/log(1/2) = 2 exactly; every
# alpha of QUARTER_RATIOS is the rational (k1 + k2)/(k1 + 2 k2)
ALPHA_TWO = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 4), F(3, 4)))
QUARTER_RATIOS = WeightedIFS(ratios=(F(1, 2), F(1, 4)), probs=(F(1, 2), F(1, 2)))
# equal-ratio systems whose row sums have 3 or more terms
FOLD_FOUR = WeightedIFS(ratios=(F(1, 5),) * 4, probs=(F(1, 10), F(1, 10), F(3, 10), F(1, 2)))
FOUR_SLOTS = WeightedIFS(ratios=(F(1, 4),) * 4, probs=(F(1, 7), F(1, 5), F(1, 4), F(57, 140)))


def _log(pev) -> float:
    """The log of a prime exponent vector's rational: fsum of e * log p."""
    return math.fsum(e * math.log(p) for p, e in pev.items())


def _reference_row(prepared, k) -> tuple[float, float, str]:
    """alpha from the exact value's exponent vectors and f from Fractions:
    the arithmetic the sweep must reproduce without building either."""
    value = collapsed_regularity(prepared, k).alpha_exact
    q = value.rational_value()
    alpha = float(q) if q is not None else _log(value.mass_pev) / _log(value.length_pev)
    K = sum(k)
    if prepared.folds:
        num = math.fsum(kq * math.log(kq) for kq in k if kq)
        num -= math.fsum(kq * math.log(cq) for kq, cq in zip(k, prepared.multiplicities))
        num -= K * math.log(K)
        return alpha, max(0.0, num / (K * math.log(prepared.slot_ratios[0]))), ""
    ws = [F(kq, K) for kq in k]
    num = math.fsum(float(w) * math.log(w) for w in ws if w)
    den = math.fsum(float(w) * math.log(r) for w, r in zip(ws, prepared.slot_ratios) if w)
    desc = f"({', '.join(str(w) for w in ws)})"
    return alpha, max(0.0, 0.0 if num == 0.0 else num / den), desc


@pytest.mark.parametrize(
    "system, K_max",
    [
        (BETA0, 64),
        (TRIDENT, 32),  # slots of several maps: the folding formula
        (THREE_MAP, 16),
        (CERTIFIED, 24),  # unequal ratios: the hypothesis-H path
        (ALPHA_TWO, 24),
        (QUARTER_RATIOS, 24),
        (FOLD_FOUR, 24),  # 3 slots, one of 2 maps, over the primes 2, 3, 5
        (FOUR_SLOTS, 16),  # 4 slots of one map each, over 5 primes
    ],
)
def test_sweep_rows_are_the_public_entry_points_bit_for_bit(system, K_max):
    prepared = prepare(system)
    points = spectrum_sweep(prepared, K_max=K_max)
    assert len(points) > 1
    for p in points:
        k = p.key.vector
        closed = abscissa_closed(prepared, k)
        assert (p.alpha.hex(), p.f.hex(), p.f_desc) == (
            collapsed_regularity(prepared, k).alpha_float.hex(),
            closed.value.hex(),
            closed.exact_description,
        )
        alpha, f, weights = _reference_row(prepared, k)
        assert (p.alpha.hex(), p.f.hex()) == (alpha.hex(), f.hex())
        assert p.f_desc.endswith(weights)


def test_deep_one_row_abscissa_takes_logs_of_its_distinct_values(monkeypatch):
    """A one-row folding abscissa is the reference formula, bit for bit,
    from a log per distinct count, not a table up to K."""
    prepared = prepare(TRIDENT)
    _, f, _ = _reference_row(prepared, (10**7, 1))
    logs = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: logs.append(x) or log(x))
    assert abscissa_closed(prepared, (10**7, 1)).value.hex() == f.hex()
    assert len(logs) <= 4


@given(
    st.lists(
        st.tuples(st.sampled_from([0.5, -0.0, 0.0, 1.0, 2.0**-1074]), st.text("ab(,)", max_size=3)),
        min_size=1,
        max_size=12,
    )
)
def test_alpha_order_is_the_sort_by_alpha_then_key_string(rows):
    """Ties of alpha, -0.0 against 0.0 among them, are ordered by the key
    string alone, as a sort on (alpha, key string) orders them."""
    alpha = np.array([a for a, _ in rows])
    order = _alpha_order(alpha, lambda i: rows[i][1])
    assert order == sorted(range(len(rows)), key=lambda i: rows[i])


def _old_abscissa_description(k, multiplicities) -> str:
    """The per-row f_desc formula the columns replace."""
    K = sum(k)
    if multiplicities is not None:
        return (
            f"log_(r^{K})({'*'.join(f'{kq}^{kq}' for kq in k if kq)}"
            f" / ({'*'.join(f'{cq}^{kq}' for cq, kq in zip(multiplicities, k))}"
            f" * {K}^{K}))"
        )
    weights = [str(F(kq, K)) for kq in k]
    return f"sum (k_i/K) log(k_i/K) / sum (k_i/K) log r_i with k/K = ({', '.join(weights)})"


_PROBS = st.integers(1, 9).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 12)))


@st.composite
def _small_systems(draw):
    kind = draw(st.sampled_from(["equal", "folding", "unequal", "width-1"]))
    if kind == "width-1":
        # equal probabilities on equal ratios: a single class
        m = draw(st.integers(2, 4))
        n = draw(st.integers(m, 6))
        return WeightedIFS(ratios=(F(1, n),) * m, probs=(F(1, m),) * m)
    a, b = draw(_PROBS)
    if kind == "folding":
        # two maps share a probability below 1/2
        p = F(a, 2 * b)
        return WeightedIFS(ratios=(F(1, 3),) * 3, probs=(p, p, 1 - 2 * p))
    p = F(a, b)
    if kind == "equal":
        r = F(1, draw(st.integers(2, 7)))
        return WeightedIFS(ratios=(r, r), probs=(p, 1 - p))
    ratios = draw(st.sampled_from([(F(1, 2), F(1, 3)), (F(1, 3), F(1, 4)), (F(2, 5), F(1, 7))]))
    return WeightedIFS(ratios=ratios, probs=(p, 1 - p))


@settings(max_examples=40, deadline=None)
@given(_small_systems(), st.integers(1, 14))
def test_table_text_is_the_text_of_its_points(system, K_max):
    """Every text column of a sweep's table is the str or repr of its points
    view, row by row and over any block split, and the envelope read from
    the columns is the envelope of the points."""
    prepared = prepare(system)
    assume(prepared.dependence is None)
    table = spectrum_sweep(prepared, K_max=K_max)
    points = list(table)
    assert len(points) == len(table) and [table[i] for i in range(len(table))] == points
    keys, alpha_desc, f_desc = table.text(0, len(table))
    assert keys == [str(p.key) for p in points]
    assert alpha_desc == [p.alpha_desc for p in points]
    assert f_desc == [p.f_desc for p in points]
    assert list(map(repr, table.alpha.tolist())) == [repr(p.alpha) for p in points]
    assert list(map(repr, table.f.tolist())) == [repr(p.f) for p in points]
    if isinstance(table, ClassTable):
        c = prepared.multiplicities if prepared.folds else None
        for p in points:
            assert p.alpha_desc.endswith(f" {p.key.vector}")
            assert p.f_desc == _old_abscissa_description(p.key.vector, c)
    if len(points) > 1:
        envelope = concave_envelope(table)
        assert envelope == concave_envelope(points)
        assert [(points[i].alpha, points[i].f) for i in envelope.rows] == list(envelope.breakpoints)


def test_table_blocks_join_up():
    table = spectrum_sweep(BETA, K_max=128)
    assert len(table) > ROW_BLOCK
    whole = table.text(0, len(table))
    split = [table.text(lo, lo + ROW_BLOCK) for lo in range(0, len(table), ROW_BLOCK)]
    assert [sum((part[c] for part in split), []) for c in range(3)] == list(whole)
    assert table[ROW_BLOCK] == list(table)[ROW_BLOCK] and table[-1] == list(table)[-1]


def _old_envelope_breakpoints(pairs):
    """The float-keyed merge and sorted monotone chain the columns replace."""
    best = {}
    for x, y in pairs:
        if x not in best or y > best[x]:
            best[x] = y
    hull = []
    for x, y in sorted(best.items()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) >= -1e-14:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return tuple(hull)


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(-2, 2)),
        min_size=2,
        max_size=30,
    )
)
def test_envelope_of_unsorted_pairs_is_the_old_merge_and_chain(pairs):
    envelope = concave_envelope(pairs)
    assert envelope.breakpoints == _old_envelope_breakpoints(pairs)
    assert [pairs[i] for i in envelope.rows] == list(envelope.breakpoints)


def test_sweeps_with_rational_alphas():
    alpha = {p.key.vector: p.alpha for p in spectrum_sweep(ALPHA_TWO, K_max=8)}
    assert alpha[(1, 0)] == 2.0
    assert collapsed_regularity(ALPHA_TWO, (1, 0)).alpha_exact.rational_value() == 2
    report = check_hypothesis_H(QUARTER_RATIOS, 24)
    assert report.holds
    columns = report.columns
    for i, ((k1, k2), alpha) in enumerate(zip(columns.k.tolist(), columns.alpha.tolist())):
        assert columns.value(i).rational_value() == F(k1 + k2, k1 + 2 * k2)
        assert alpha == (k1 + k2) / (k1 + 2 * k2)


def test_sweep_checks_independence_once(independence_calls):
    calls = independence_calls
    for system in (TRIDENT, BETA0, BETA):
        before = len(calls)
        assert len(spectrum_sweep(system, K_max=16)) > 1
        assert len(calls) - before <= 1
    prepared = prepare(TRIDENT)
    before = len(calls)
    spectrum_sweep(prepared, K_max=16)
    assert len(calls) == before


def test_hypothesis_h_classes_are_the_sweep_classes():
    # distinct but unsorted probabilities: both run on the ascending slots
    report = check_hypothesis_H(THREE_MAP, 8)
    assert report.holds
    swept = {p.key: p.alpha for p in spectrum_sweep(THREE_MAP, K_max=8)}
    keys = [VectorKey(tuple(k)) for k in report.columns.k.tolist()]
    assert dict(zip(keys, report.columns.alpha.tolist())) == swept


def test_sweep_rejects_dependent_collapsed_probs():
    bad = WeightedIFS(
        ratios=(F(1, 4), F(1, 4), F(1, 4)), probs=(F(1, 2), F(1, 4), F(1, 4))
    )
    with pytest.raises(ValueError, match="dependent"):
        spectrum_sweep(bad, K_max=4)


# ---------------------------------------------------------------------------
# concave envelope
# ---------------------------------------------------------------------------


def test_envelope_dominates_and_is_concave():
    points = spectrum_sweep(BETA, K_max=16)
    env = concave_envelope(points)
    for p in points:
        assert env(p.alpha) >= p.f - 1e-12
    slopes = env.segment_slopes()
    assert all(s1 <= s0 + 1e-12 for s0, s1 in zip(slopes, slopes[1:]))


def test_envelope_alpha_ties_keep_max_f():
    env = concave_envelope([(0.0, 0.0), (0.0, 0.5), (1.0, 1.0)])
    assert env(0.0) == 0.5


def test_envelope_outside_domain_raises():
    env = concave_envelope([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        env(1.5)
    with pytest.raises(ValueError):
        env(-0.1)


def test_envelope_interpolates_vertices():
    env = concave_envelope([(0.0, 0.0), (0.5, 0.4), (1.0, 0.5)])
    assert env(0.0) == 0.0
    assert env(0.5) == pytest.approx(0.4)
    assert env(0.25) == pytest.approx(0.2)
    assert env.endpoint_slopes() == (pytest.approx(0.8), pytest.approx(0.2))


def test_envelope_needs_two_points():
    with pytest.raises(ValueError):
        concave_envelope([(0.3, 0.3)])


def test_max_f_attains_moran_dimension():
    # two-probability systems peak exactly at the support dimension
    for system, dim in ((BETA0, 1.0), (TRIDENT, LOG5_3), (BETA, LOG3_2)):
        points = spectrum_sweep(system, K_max=12)
        peak = max(p.f for p in points)
        assert peak <= dim + 1e-9
        assert peak == pytest.approx(dim, abs=1e-12)


def test_beta0_envelope_matches_entropy_curve():
    points = spectrum_sweep(BETA0, K_max=64)
    env = concave_envelope(points)

    def g(t):
        x = T_MAX_BETA0 - t
        if x <= 0 or x >= 1:
            return 0.0
        return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))

    lo, hi = T_MIN_BETA0 + 0.05, T_MAX_BETA0 - 0.05
    worst = max(
        abs(env(lo + i * (hi - lo) / 200) - g(lo + i * (hi - lo) / 200))
        for i in range(201)
    )
    assert worst <= 5e-3


def test_beta0_envelope_matches_legendre_transform():
    points = spectrum_sweep(BETA0, K_max=64)
    env = concave_envelope(points)
    pipe = legendre_transform(BETA0)
    lo, hi = T_MIN_BETA0 + 0.05, T_MAX_BETA0 - 0.05
    checked = 0
    for t, bs in zip(pipe.t_values, pipe.b_star_values):
        if lo <= t <= hi:
            assert abs(env(t) - bs) <= 5e-3
            checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# information dimension
# ---------------------------------------------------------------------------
# The diagonal supports the spectrum from above (f(alpha) <= alpha) and
# touches it at the information dimension t1 = -sum p log p / log(1/r): the
# point alpha = f of the class k = (1, 2), which every sweep to K >= 3 holds.


def test_information_dimension_beta0():
    env = concave_envelope(spectrum_sweep(BETA0, K_max=64))
    t1 = -((1 / 3) * math.log(1 / 3) + (2 / 3) * math.log(2 / 3)) / math.log(2)
    assert env(t1) == pytest.approx(t1, abs=1e-12)
    assert all(y <= x + 1e-12 for x, y in env.breakpoints)


def test_information_dimension_beta():
    env = concave_envelope(spectrum_sweep(BETA, K_max=64))
    t1 = -((1 / 3) * math.log(1 / 3) + (2 / 3) * math.log(2 / 3)) / math.log(3)
    assert env(t1) == pytest.approx(t1, abs=1e-12)
    assert all(y <= x + 1e-12 for x, y in env.breakpoints)


def test_envelope_direct_construction_validates():
    with pytest.raises(ValueError):
        EnvelopeFunction(breakpoints=())


def test_envelope_equality_and_repr_see_only_breakpoints():
    bps = ((0.0, 0.0), (0.5, 0.4), (1.0, 0.5))
    env = EnvelopeFunction(breakpoints=bps)
    assert env(0.75) == pytest.approx(0.45)  # evaluation keeps the x-array
    assert env == EnvelopeFunction(breakpoints=bps)
    assert env != EnvelopeFunction(breakpoints=bps[:2])
    assert hash(env) == hash(EnvelopeFunction(breakpoints=bps))
    assert repr(env) == f"EnvelopeFunction(breakpoints={bps!r})"
