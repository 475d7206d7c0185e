"""Self-contained verification suites with deterministic reports.

Each check recomputes a published identity or tolerance from scratch and
reports pass/fail with the measured values.  These checks are the only
implementation of the published identities: the acceptance tests look their
results up by name.  Checks run serially in declaration order and the report
body carries no timings, keeping the output byte-deterministic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ifs_core import AtomicMeasureSpec, FractalStringSpec, WeightedIFS
from .oracle import atomic_stage, enumerate_stage, group_by_regularity
from .regularity import (
    FractionKey,
    VectorKey,
    prepare,
    primitive_vectors,
)
from .sequences import FloorSumLaw, fibonacci, multinomial
from .spectra import (
    concave_envelope,
    legendre_transform,
    moran_dimension,
    spectrum_sweep,
)
from .zeta import (
    abscissa_closed,
    abscissa_root_test,
    closed_form_sequence,
    closed_form_zeta,
    defining_residual,
    eval_series,
    multinomial_zeta,
)
from .dimensions import (
    build_tapestry,
    counting_direct,
    counting_explicit,
    pole_lattices,
    residue_numeric,
    sample_off_jump_xs,
)

F = Fraction
BETA = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
BETA0 = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 3), F(2, 3)))
TRIDENT = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(3, 5), F(1, 5)))
LOG3_2 = math.log(2) / math.log(3)


@dataclass(frozen=True)
class CheckResult:
    name: str
    suite: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------


def _check_stage_counts():
    for label, ifs in (("beta", BETA), ("beta0", BETA0), ("trident", TRIDENT)):
        prepared = prepare(ifs)
        for K in range(1, 13):
            stage = enumerate_stage(prepared, K)
            total_mass = sum(r.mass * r.count for r in stage.all_records())
            if total_mass != 1:
                return False, f"{label} K={K}: total mass {total_mass} != 1"
            for rec in stage.intervals:
                if rec.count != multinomial(K, rec.k):
                    return False, f"{label} K={K} {rec.k}: count {rec.count}"
    return True, "multinomial counts and mass conservation exact, K<=12"


def _check_collapsed_identity():
    trident = prepare(TRIDENT)
    c = trident.multiplicities
    for K in range(1, 11):
        stage = enumerate_stage(trident, K)
        groups = group_by_regularity(stage.all_records())
        for i in range(K + 1):
            kp = (i, K - i)
            # a group is keyed by its primitive class vector
            g = math.gcd(i, K)
            key = VectorKey((i // g, (K - i) // g))
            expected = multinomial(K, kp) * c[0] ** kp[0] * c[1] ** kp[1]
            got = sum(n for _, n in groups.get(key, ()))
            if got != expected:
                return False, f"K={K} k'={kp}: {got} != {expected}"
    return True, "collapsed multiplicity identity exact, K<=10"


def _check_atomic_tables():
    expect = {
        ("sigma2", 2): {F(1): 6, F(1, 2): 1, None: 2},
        ("sigma2", 3): {F(1): 12, F(1, 3): 1, F(2, 3): 2, None: 12},
        ("sigma2", 4): {F(1): 24, F(1, 4): 1, F(1, 2): 2, F(3, 4): 4, None: 50},
    }
    for (family, n), table in expect.items():
        spec = AtomicMeasureSpec(family=family)
        stage = atomic_stage(spec, n)
        groups = group_by_regularity(stage.all_records())
        seen = {}
        for key, entries in groups.items():
            q = key.value if isinstance(key, FractionKey) else None
            seen[q] = sum(cnt for _, cnt in entries)
        if seen != table:
            return False, f"{family} n={n}: {seen} != {table}"
    # generalized m=3 corrects the alpha=1 multiplicity to (2m-1)m^(n-1)
    m3 = AtomicMeasureSpec(family="generalized", m=3)
    for n, count in ((1, 5), (2, 15), (3, 45)):
        stage = atomic_stage(m3, n)
        groups = group_by_regularity(stage.all_records())
        got = sum(cnt for _, cnt in groups[FractionKey(F(1))])
        if got != count:
            return False, f"m=3 n={n}: alpha=1 count {got} != {count}"
    return True, "sigma2 stage tables and sigma(3) alpha=1 ladder exact"


def _check_atomic_conservation():
    for spec in (
        AtomicMeasureSpec(family="sigma1"),
        AtomicMeasureSpec(family="sigma2"),
        AtomicMeasureSpec(family="generalized", m=3),
    ):
        for n in (1, 3, 5):
            stage = atomic_stage(spec, n)
            total = sum(r.mass * r.count for r in stage.all_records())
            if total != spec.total_mass():
                return False, f"{spec.family} n={n}: mass {total}"
    return True, "atomic stage masses sum to the total measure"


# ---------------------------------------------------------------------------
# zeta suite
# ---------------------------------------------------------------------------


def _check_closed_forms():
    cantor = closed_form_zeta(FractalStringSpec(family="cantor"))
    fib = closed_form_zeta(FractalStringSpec(family="fibonacci"))
    for got, want, label in (
        (cantor.evaluate(1.0), 1.0, "cantor@1"),
        (fib.evaluate(2.0), 16 / 11, "fibonacci@2"),
    ):
        if abs(got - want) > 1e-12:
            return False, f"{label}: {got} != {want}"
    # constant terms are rational: compared exactly
    sigma2 = AtomicMeasureSpec(family="sigma2")
    exact = [
        (cantor.value_at_zero(), F(-1), "cantor@0"),
        (closed_form_zeta(sigma2, FractionKey(F(1))).value_at_zero(), F(-3), "sigma2@0"),
    ]
    for k1, K in ((1, 2), (2, 3), (3, 4)):
        rz = closed_form_zeta(sigma2, FractionKey(F(k1, K)))
        exact.append((rz.value_at_zero(), F(2 ** (k1 - 1), 1 - 2**k1), f"sigma2[{k1}/{K}]@0"))
    for got, want, label in exact:
        if got != want:
            return False, f"{label}: {got} != {want}"
    return True, "closed-form values (cantor, fibonacci, sigma2) exact"


def _check_abscissas():
    worst = 0.0
    # all three systems have equal ratios and collapse to two distinct
    # probabilities, so the same primitive 2-vectors index every class
    keys = primitive_vectors(2, 5)[:10]
    if len(keys) != 10:
        return False, f"{len(keys)} primitive keys, expected 10"
    for ifs in (BETA, BETA0, TRIDENT):
        prepared = prepare(ifs)
        for k in keys:
            closed = abscissa_closed(prepared, k)
            zeta = multinomial_zeta(prepared, k)
            root = abscissa_root_test(zeta, 2000)
            worst = max(worst, abs(root.value - closed.value))
            if abs(root.value - closed.value) > 0.01:
                return False, f"{ifs.probs} {k}: root {root.value} vs {closed.value}"
            res = abs(defining_residual(prepared, k, closed.value) - 1)
            if res > 1e-12:
                return False, f"{ifs.probs} {k}: residual {res}"
    return True, f"root test vs closed abscissa, worst gap {worst:.2e} <= 0.01"


def _check_fibonacci_multiplicities():
    law = FloorSumLaw()
    for n in range(1, 31):
        if law.multiplicity(n) != fibonacci(n + 1):
            return False, f"n={n}: {law.multiplicity(n)}"
    return True, "floor-sum multiplicities equal F_(n+1) for n <= 30"


def _check_series_vs_rational():
    cases = [
        (FractalStringSpec(family="cantor"), None, 1.5),
        (AtomicMeasureSpec(family="sigma1"), FractionKey(F(1, 2)), 1.0),
        (AtomicMeasureSpec(family="sigma2"), FractionKey(F(1)), 0.9),
    ]
    for system, key, s in cases:
        rz = closed_form_zeta(system, key)
        val = eval_series(closed_form_sequence(system, key), s)
        want = rz.evaluate(s)
        got = val.value
        if abs(got - want) > max(1e-10, 10 * val.tail_bound):
            return False, f"{system} s={s}: {got} vs {want}"
    return True, "series evaluation matches rational closed forms"


# ---------------------------------------------------------------------------
# spectra suite
# ---------------------------------------------------------------------------


def _check_moran():
    got = moran_dimension((F(1, 3), F(1, 3)))
    ok = abs(got - LOG3_2) <= 1e-12
    return ok, f"moran((1/3,1/3)) = {got!r}, |err| = {abs(got - LOG3_2):.2e}"


def _check_binomial_hull():
    t_max = math.log(3) / math.log(2)
    t_min = t_max - 1
    table = spectrum_sweep(BETA0, K_max=64)
    for (k0, k1), f in zip(table.k.tolist(), table.f.tolist()):
        x = k1 / (k0 + k1)
        want = 0.0
        if 0 < x < 1:
            want = -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
        if abs(f - want) > 1e-12:
            return False, f"point {(k0, k1)}: f={f} vs entropy {want}"
    env = concave_envelope(table)

    def g(t):
        x = t_max - t
        return -(x * math.log2(x) + (1 - x) * math.log2(1 - x))

    lo, hi = t_min + 0.05, t_max - 0.05
    sup = max(
        abs(env(lo + i * (hi - lo) / 400) - g(lo + i * (hi - lo) / 400))
        for i in range(401)
    )
    ok = sup <= 5e-3
    return ok, f"pointwise entropy exact; hull sup-gap {sup:.2e} vs 5e-3"


def _check_trident_max():
    table = spectrum_sweep(TRIDENT, K_max=64)
    peak = table.f.max().item()
    want = math.log(3) / math.log(5)
    (row,) = np.flatnonzero((table.k == (2, 1)).all(axis=1))
    at = table.f[row].item()
    ok = abs(peak - want) <= 1e-9 and abs(at - want) <= 1e-9
    return ok, f"max f = {peak!r} at k'=(2,1), target log_5 3 = {want!r}"


def _check_trident_endpoint_slopes():
    env = concave_envelope(spectrum_sweep(TRIDENT, K_max=64))
    lo, hi = env.endpoint_slopes()
    biggest = max(abs(lo), abs(hi))
    ok = abs(lo) > 10 and abs(hi) > 10
    return ok, (
        f"hull endpoint slopes at K_max=64: {lo:.4f} and {hi:.4f}; "
        f"claim requires |slope| > 10, measured max {biggest:.4f}"
    )


def _check_sigma_spectra():
    s1 = spectrum_sweep(AtomicMeasureSpec(family="sigma1"), K_max=20)
    if (s1.f != 0.0).any():
        return False, "sigma1 spectrum not identically 0"
    for m in (2, 3, 5):
        family = "sigma2" if m == 2 else "generalized"
        spec = AtomicMeasureSpec(family=family, m=m)
        slope = math.log(m) / math.log(2 * m - 1)
        table = spectrum_sweep(spec, K_max=12)
        bad = np.flatnonzero(table.f != table.alpha * slope)  # exact: the same float product
        if bad.size:
            i = bad[0]
            return False, f"m={m} alpha={table.alpha[i].item()}: f={table.f[i].item()}"
    return True, "sigma1 flat through K=20; sigma(m) line exact for m in {2,3,5}"


def _check_legendre():
    pipes = {ifs: legendre_transform(ifs) for ifs in (BETA, BETA0, TRIDENT)}
    for ifs, pipe in pipes.items():
        if pipe.q_grid[0] != -8.0 or pipe.q_grid[-1] != 8.0:
            return False, f"{ifs.probs}: q grid [{pipe.q_grid[0]}, {pipe.q_grid[-1]}]"
        for q, b in zip(pipe.q_grid, pipe.b_values):
            res = abs(
                math.fsum(
                    float(p) ** q * float(r) ** b
                    for p, r in zip(ifs.probs, ifs.ratios)
                )
                - 1
            )
            if res > 1e-12:
                return False, f"{ifs.probs} q={q}: residual {res:.2e}"
    env = concave_envelope(spectrum_sweep(BETA0, K_max=256))
    pipe = pipes[BETA0]
    worst = max(
        abs(env(t) - bs) for t, bs in zip(pipe.t_values, pipe.b_star_values)
    )
    ok = worst <= 5e-3
    return ok, (
        f"residuals <= 1e-12 on the grid; "
        f"beta0 |hull(K=256) - b*| worst {worst:.2e} vs 5e-3"
    )


# ---------------------------------------------------------------------------
# counting suite
# ---------------------------------------------------------------------------


def _check_cantor_counting():
    cantor = FractalStringSpec(family="cantor")
    rz = closed_form_zeta(cantor)
    (lat,) = pole_lattices(rz)
    if abs(lat.real_part - LOG3_2) > 1e-12:
        return False, f"real part {lat.real_part}"
    if abs(lat.period - 2 * math.pi / math.log(3)) > 1e-12:
        return False, f"period {lat.period}"
    if lat.phase_shift != 0.0:
        return False, f"phase shift {lat.phase_shift}"
    if abs(moran_dimension((F(1, 3), F(1, 3))) - LOG3_2) > 1e-12:
        return False, "moran mismatch"
    results = counting_explicit(cantor, None, sample_off_jump_xs(rz, count=25), Z=20000)
    bad = sum(round(r.explicit_value) != r.direct for r in results)
    ok = bad == 0
    return ok, f"lattice exact; explicit rounds to direct at 25/25 - {bad} misses"


def _check_fibonacci_lattices():
    lats = pole_lattices(closed_form_zeta(FractalStringSpec(family="fibonacci")))
    d = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
    pos, neg = lats
    ok = (
        abs(pos.real_part - d) <= 1e-12
        and abs(neg.real_part + d) <= 1e-12
        and abs(neg.phase_shift - 0.5) <= 1e-12
        and abs(pos.phase_shift) <= 1e-12
    )
    return ok, f"real parts {pos.real_part:.12f}/{neg.real_part:.12f}, shifts 0/.5"


def _check_sigma1_counting():
    spec = AtomicMeasureSpec(family="sigma1")
    for K in range(1, 21):
        rz = closed_form_zeta(spec, FractionKey(F(1, K)))
        (lat,) = pole_lattices(rz)
        for j in (0, 1, 2):
            w = complex(0.0, lat.period * j)
            if abs(residue_numeric(rz, w) - 1 / (K * math.log(3))) > 1e-10:
                return False, f"K={K} j={j}: residue off"
    key = FractionKey(F(1, 2))
    seq = closed_form_sequence(spec, key)
    for x in (2, 9, 81, 12345, 10**6):
        level, threshold = 0, 9  # floor(log_9 x), in integers
        while threshold <= x:
            level, threshold = level + 1, threshold * 9
        if counting_direct(seq, F(x)) != level:
            return False, f"direct at {x}"
    rz = closed_form_zeta(spec, key)
    results = counting_explicit(spec, key, sample_off_jump_xs(rz, count=25), Z=20000)
    bad = sum(round(r.explicit_value) != r.direct for r in results)
    ok = bad == 0
    return ok, f"residues 1/(K log 3) to 1e-10 (K<=20); 25-sample explicit, {bad} misses"


def _check_sigma2_counting():
    worst_real = 0.0
    misses = 0
    for m in (2, 3, 5):
        family = "sigma2" if m == 2 else "generalized"
        spec = AtomicMeasureSpec(family=family, m=m)
        slope = math.log(m) / math.log(2 * m - 1)
        for alpha, lat in build_tapestry(spec, 6):
            worst_real = max(worst_real, abs(lat.real_part - float(alpha) * slope))
        if worst_real > 1e-12:
            return False, f"m={m}: tapestry real part off by {worst_real:.2e}"
        for key in (FractionKey(F(1)), FractionKey(F(1, 2))):
            xs = sample_off_jump_xs(closed_form_zeta(spec, key), count=25, hi=1e4)
            results = counting_explicit(spec, key, xs, Z=20000)
            misses += sum(round(r.explicit_value) != r.direct for r in results)
    ok = not misses
    return ok, (
        f"tapestry reals track the spectrum (worst {worst_real:.1e}); "
        f"explicit counting misses: {misses}"
    )


CHECKS = (
    ("stage-counts-multinomial", "oracle", _check_stage_counts),
    ("collapsed-multiplicity-trident", "oracle", _check_collapsed_identity),
    ("atomic-stage-tables", "oracle", _check_atomic_tables),
    ("atomic-mass-conservation", "oracle", _check_atomic_conservation),
    ("closed-form-values", "zeta", _check_closed_forms),
    ("abscissa-root-vs-closed", "zeta", _check_abscissas),
    ("fibonacci-multiplicities", "zeta", _check_fibonacci_multiplicities),
    ("series-vs-rational", "zeta", _check_series_vs_rational),
    ("moran-cantor", "spectra", _check_moran),
    ("binomial-hull-recovery", "spectra", _check_binomial_hull),
    ("trident-spectrum-max", "spectra", _check_trident_max),
    ("trident-endpoint-slopes", "spectra", _check_trident_endpoint_slopes),
    ("sigma-family-spectra", "spectra", _check_sigma_spectra),
    ("legendre-pipeline", "spectra", _check_legendre),
    ("cantor-lattice-and-counting", "counting", _check_cantor_counting),
    ("fibonacci-lattices", "counting", _check_fibonacci_lattices),
    ("sigma1-residues-and-counting", "counting", _check_sigma1_counting),
    ("sigma2-tapestry-and-counting", "counting", _check_sigma2_counting),
)

SUITES = ("oracle", "zeta", "spectra", "counting")


def run_suite(suite: str = "all") -> list[CheckResult]:
    """Run one suite (or all) serially, in declaration order."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    results = []
    for name, st, fn in CHECKS:
        if suite != "all" and st != suite:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name=name, suite=st, ok=ok, detail=detail))
    return results


def report_json(results: list[CheckResult]) -> str:
    """Deterministic report body (no timings, no timestamps)."""
    payload = {
        "checks": [
            {"name": r.name, "suite": r.suite, "ok": r.ok, "detail": r.detail}
            for r in results
        ],
        "passed": sum(r.ok for r in results),
        "failed": sum(not r.ok for r in results),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
