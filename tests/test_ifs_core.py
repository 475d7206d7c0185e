"""System definitions, parsing, exact factorization."""
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfzeta.ifs_core import (
    AtomicMeasureSpec,
    ConfigError,
    FractalStringSpec,
    PrimeExponentVector,
    WeightedIFS,
    check_rational_independence,
    collapse_probabilities,
    factorize,
    factorize_int,
    parse_system,
)
from mfzeta.regularity import _int_form

BETA = WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(2, 3)))
TRIDENT = WeightedIFS(ratios=(F(1, 5),) * 3, probs=(F(1, 5), F(3, 5), F(1, 5)))


def test_factorize_int_small():
    assert factorize_int(1) == {}
    assert factorize_int(2**4 * 3 * 49) == {2: 4, 3: 1, 7: 2}
    assert factorize_int(97) == {97: 1}


def test_factorize_int_large_semiprime():
    n = 1_000_003 * 1_000_033
    assert factorize_int(n) == {1_000_003: 1, 1_000_033: 1}


def test_factorize_fraction():
    pev = factorize(F(4, 243))
    assert pev.exponents() == {2: 2, 3: -5}
    assert pev.as_fraction() == F(4, 243)
    with pytest.raises(ValueError):
        factorize(F(0))
    with pytest.raises(ValueError):
        factorize(F(-1, 2))


@given(
    num=st.integers(min_value=1, max_value=500),
    den=st.integers(min_value=1, max_value=500),
)
def test_pev_log_matches_float_log(num, den):
    q = F(num, den)
    pev = factorize(q)
    # the integer form that the interval rungs use: 2^64 log q within [lo, hi]
    lo, hi = _int_form(pev, 64)
    assert lo <= hi <= lo + 2 * sum(abs(e) for _, e in pev.items())
    for end in (lo, hi):
        assert math.isclose(end / 2**64, math.log(q), rel_tol=0, abs_tol=1e-12)
    assert pev.as_fraction() == q


def test_pev_arithmetic():
    a = factorize(F(1, 3))
    assert a.as_fraction() == F(1, 3) and a.exponents() == {3: -1}
    assert a == factorize(F(2, 6)) and hash(a) == hash(factorize(F(2, 6)))
    assert a != factorize(F(1, 9))
    assert factorize(F(1)).is_zero() and not a.is_zero()


def test_weighted_ifs_validation():
    with pytest.raises(ConfigError):
        WeightedIFS(ratios=(F(1, 2), F(2, 3)), probs=(F(1, 2), F(1, 2)))  # sum r > 1
    with pytest.raises(ConfigError):
        WeightedIFS(ratios=(F(1, 3), F(1, 3)), probs=(F(1, 3), F(1, 3)))  # sum p != 1
    with pytest.raises(ConfigError):
        WeightedIFS(ratios=(F(1, 3),), probs=(F(1, 2), F(1, 2)))  # length mismatch
    with pytest.raises(ConfigError):
        WeightedIFS(ratios=(F(0), F(1, 3)), probs=(F(1, 2), F(1, 2)))


def test_gap_widths():
    assert BETA.gap == F(1, 3)
    assert TRIDENT.gap == F(1, 5)
    full = WeightedIFS(ratios=(F(1, 2), F(1, 2)), probs=(F(1, 3), F(2, 3)))
    assert full.gap == 0


def test_collapse_probabilities():
    c = collapse_probabilities(TRIDENT)
    assert c.distinct == (F(1, 5), F(3, 5))
    assert c.multiplicities == (2, 1)
    assert c.w == 2
    assert c.slot_of == (0, 1, 0)


def test_rational_independence():
    ok, witness = check_rational_independence((F(1, 2), F(1, 4)))
    assert not ok and witness == (2, -1)
    ok, witness = check_rational_independence((F(1, 2), F(1, 3)))
    assert ok and witness is None
    ok, witness = check_rational_independence((F(1, 2), F(1, 3), F(1, 6)))
    assert not ok and witness == (1, 1, -1)
    ok, _ = check_rational_independence((F(1, 5), F(3, 5)))
    assert ok


@given(st.permutations([F(1, 2), F(1, 4), F(1, 8)]))
def test_dependence_witness_is_a_relation(values):
    ok, witness = check_rational_independence(tuple(values))
    assert not ok
    prod = F(1)
    for v, e in zip(values, witness):
        prod *= v**e
    assert prod == 1 and any(witness)


def test_parse_weighted_ifs():
    sys = parse_system('{"type": "ifs", "ratios": ["1/3", "1/3"], "probs": ["1/3", "2/3"]}')
    assert isinstance(sys, WeightedIFS)
    assert sys == BETA


def test_parse_atomic_and_string():
    a = parse_system('{"type": "atomic", "family": "sigma2"}')
    assert isinstance(a, AtomicMeasureSpec)
    assert a.base == 3 and a.lam == F(1, 3) and a.total_mass() == 1
    g = parse_system('{"type": "atomic", "family": "generalized", "m": 3}')
    assert g.base == 5 and g.lam == F(1, 5)
    s1 = parse_system('{"type": "atomic", "family": "sigma1"}')
    assert s1.base == 3 and s1.total_mass() == F(1, 2)
    cs = parse_system('{"type": "string", "family": "cantor"}')
    assert isinstance(cs, FractalStringSpec) and cs.family == "cantor"


def test_parse_errors_carry_field_paths():
    with pytest.raises(ConfigError) as exc:
        parse_system('{"type": "ifs", "ratios": ["1/3"], "probs": ["1/2", "1/2"]}')
    assert "ratios" in str(exc.value) or "probs" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_system('{"type": "nonsense"}')
    with pytest.raises(ConfigError):
        parse_system("not json at all {{")
    with pytest.raises(ConfigError):
        parse_system('{"type": "atomic", "family": "generalized", "m": 1}')


def test_parse_bounds_rational_size():
    def ifs(p0, p1="1"):
        return {"type": "ifs", "ratios": ["1/3", "1/3"], "probs": [p0, p1]}

    top = 2**64 - 1
    assert parse_system(ifs(f"1/{top}", f"{top - 1}/{top}")).probs[0] == F(1, top)
    semiprime = (2**61 - 1) * (2**89 - 1)
    for p0, message in (
        ("1/18446744073709551616", r"below 2\*\*64"),
        (f"1/{semiprime}", r"below 2\*\*64"),
        ("1e-20", r"below 2\*\*64"),
        (2**64, r"below 2\*\*64"),
        ("1e-32000", "exponent"),
        ("1e-10000000", "exponent"),
        ("1e-" + "9" * 5000, "exponent"),
        ("1e-١٠٠٠٠٠٠٠٠", "exponent"),  # Fraction reads Unicode digits too
    ):
        with pytest.raises(ConfigError, match=message) as exc:
            parse_system(ifs(p0))
        assert exc.value.field_path == "probs[0]"


def test_parse_accepts_dict():
    sys = parse_system({"type": "ifs", "ratios": ["1/5", "1/5", "1/5"], "probs": ["1/5", "3/5", "1/5"]})
    assert sys == TRIDENT


_NUMBERS = st.from_regex(r"-?\d{1,3}(/\d{1,3})?([eE]-?\d{1,9})?", fullmatch=True)
_VALUE = _NUMBERS | st.integers(-5, 2**70) | st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=6)
)
_FAMILIES = ["sigma1", "sigma2", "generalized", "cantor", "fibonacci", "other"]
_CONFIGS = st.fixed_dictionaries(
    {"type": st.sampled_from(["ifs", "atomic", "string", "other"])},
    optional={
        "ratios": st.lists(_VALUE, min_size=1, max_size=4) | _VALUE,
        "probs": st.lists(_VALUE, min_size=1, max_size=4) | _VALUE,
        "family": st.sampled_from(_FAMILIES),
        "m": _VALUE,
    },
)


@settings(max_examples=300, deadline=None)
@given(config=_CONFIGS | _CONFIGS.map(json.dumps) | st.text())
def test_parse_system_fails_only_with_config_error(config):
    try:
        parse_system(config)
    except ConfigError:
        pass
