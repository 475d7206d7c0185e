"""CLI subcommands: emission formats, determinism, examples, exit codes."""
import csv
import io
import json
import lzma
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import mfzeta
from mfzeta import cli, dimensions
from mfzeta.cli import ZETA_TERM_CAP, main, parse_alpha_key
from mfzeta.ifs_core import ConfigError, parse_system
from mfzeta.regularity import FractionKey, OnePlusLogKey, VectorKey, primitive_vectors
from mfzeta.spectra import (
    ROW_BLOCK,
    PointTable,
    SpectrumPoint,
    concave_envelope,
    spectrum_sweep,
)
from mfzeta.zeta import SeriesValue

CONFIGS = {
    "cantor": {"type": "string", "family": "cantor"},
    "fibonacci": {"type": "string", "family": "fibonacci"},
    "sigma1": {"type": "atomic", "family": "sigma1"},
    "sigma2": {"type": "atomic", "family": "sigma2"},
    "m2": {"type": "atomic", "family": "generalized", "m": 2},
    "m3": {"type": "atomic", "family": "generalized", "m": 3},
    "beta": {"type": "ifs", "ratios": ["1/3", "1/3"], "probs": ["1/3", "2/3"]},
    "beta0": {"type": "ifs", "ratios": ["1/2", "1/2"], "probs": ["1/3", "2/3"]},
    # two maps share a probability: the slots fold
    "trident": {"type": "ifs", "ratios": ["1/5", "1/5", "1/5"], "probs": ["1/5", "3/5", "1/5"]},
    "rho": {"type": "ifs", "ratios": ["1/3", "1/3"], "probs": ["1/2", "1/2"]},
    "oracle": {"type": "ifs", "ratios": ["1/2", "1/4", "1/8"], "probs": ["1/2", "1/3", "1/6"]},
    "certified": {"type": "ifs", "ratios": ["1/2", "1/3"], "probs": ["1/3", "2/3"]},
    # a ratio so close to 1 that a class can be deep in it before its base rounds to 0
    "near_one": {
        "type": "ifs",
        "ratios": ["4294967295/4294967296", "1/4294967296"],
        "probs": ["1/2", "1/2"],
    },
}


@pytest.fixture
def config(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(CONFIGS[name]))
        return str(path)

    return write


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_alpha_key_parsing():
    assert parse_alpha_key("2,1") == VectorKey((2, 1))
    assert parse_alpha_key("(2,1)") == VectorKey((2, 1))
    assert parse_alpha_key("1/2") == FractionKey(F(1, 2))
    assert parse_alpha_key("1") == FractionKey(F(1))
    assert parse_alpha_key("1+log:3") == OnePlusLogKey(3)
    with pytest.raises(ConfigError):
        parse_alpha_key("one half")


def test_alpha_keys_are_bounded(tmp_path, capsys, config):
    out = tmp_path / "z.json"
    cases = [
        ("zeta", "sigma2", "1e-1000000", "exponent"),
        ("zeta", "sigma2", "1/100000000", "too deep"),
        ("zeta", "sigma2", "1/1000000", "too deep"),
        ("zeta", "sigma1", "1+log:100000000", "too deep"),
        ("zeta", "beta", "100000000,1", "too deep"),
        ("zeta", "certified", "3000,1", "too deep"),
        ("zeta", "certified", "18446744073709551616,1", "below 2**64"),
        ("zeta", "near_one", "8589934592,1", "exponents reach 2**31"),
        ("count", "sigma2", "1/100000000", "too deep"),
    ]
    for command, name, alpha, message in cases:
        argv = [command, "--config", config(name), "--alpha", alpha, "--out", str(out)]
        assert main(argv + (["--s", "2"] if command == "zeta" else [])) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --alpha: ") and message in err[0]
    assert not out.exists() and not (tmp_path / "z.manifest.json").exists()


def test_alpha_keys_refused_for_the_system(tmp_path, capsys, config):
    """A string zeta takes no class key, and a one-plus-log level is at least
    1, on `zeta` and `count` alike: exit 2, one `--alpha` line, no file."""
    out = tmp_path / "a.csv"
    cases = [
        ("cantor", "1/2", "string zetas take no class key"),
        ("fibonacci", "1", "string zetas take no class key"),
        ("sigma1", "1+log:0", "need a one-plus-log level of at least 1, got 0"),
        ("sigma1", "1+log:-2", "need a one-plus-log level of at least 1, got -2"),
    ]
    for command in ("zeta", "count"):
        for name, alpha, message in cases:
            argv = [command, "--config", config(name), "--alpha", alpha, "--out", str(out)]
            assert main(argv + (["--s", "2"] if command == "zeta" else [])) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: --alpha: {message}\n", (command, name, alpha)
            assert not out.exists() and not (tmp_path / "a.manifest.json").exists()


@pytest.mark.parametrize(
    "name, argv, flag",
    [
        ("cantor", ["count", "--trunc", "50", "--x", "10"], "--trunc"),
        ("sigma1", ["count", "--alpha", "1/2", "--trunc", "-3"], "--trunc"),
        ("cantor", ["count", "--x", "0.5"], "--x"),
        ("cantor", ["count", "--x", "10", "--x", "1"], "--x"),
        ("cantor", ["count", "--xmin", "0.1", "--xmax", "0.9"], "--xmin"),
        # a range reaching below 1 is refused whatever the seed would draw
        ("cantor", ["count", "--xmin", "0.5"], "--xmin"),
        ("cantor", ["count", "--xmin", "10", "--xmax", "5"], "--xmin"),
        ("cantor", ["count", "--jump-guard", "0.7"], "--jump-guard"),
        ("fibonacci", ["count", "--jump-guard", "-0.1", "--x", "10"], "--jump-guard"),
        ("cantor", ["zeta", "--s", "2", "--terms", "0"], "--terms"),
        ("beta", ["zeta", "--alpha", "2,1", "--s", "2", "--terms", "-1"], "--terms"),
    ],
)
def test_count_and_zeta_flags_are_refused_by_name(
    tmp_path, capsys, config, monkeypatch, name, argv, flag
):
    """A bad --trunc, --x, --xmin, --jump-guard or --terms is refused before
    any zeta is built: exit 2, one line naming the flag, no file."""

    def built(*args, **kwargs):
        raise AssertionError("a zeta was built")

    for builder in ("closed_form_zeta", "multinomial_zeta"):
        monkeypatch.setattr(cli, builder, built)
    out = tmp_path / "a.csv"
    command, *flags = argv
    assert main([command, "--config", config(name), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}: "), err
    assert not out.exists() and not (tmp_path / "a.manifest.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mfzeta" in capsys.readouterr().out


def test_zeta_closed_form_examples(capsys, config):
    rc, payload = run_json(
        capsys, ["zeta", "--config", config("sigma1"), "--alpha", "1/2", "--s", "1"]
    )
    assert rc == 0
    assert payload["mode"] == "rational"
    assert payload["exact"] == "1/8"
    assert payload["value_re"] == 0.125

    rc, payload = run_json(capsys, ["zeta", "--config", config("cantor"), "--s", "1"])
    assert rc == 0
    assert payload["exact"] == "1" and payload["value_re"] == 1.0

    rc, payload = run_json(capsys, ["zeta", "--config", config("fibonacci"), "--s", "2"])
    assert rc == 0
    assert payload["exact"] == "16/11"
    assert abs(payload["value_re"] - 16 / 11) < 1e-15


def test_zeta_exact_value_is_capped_at_large_integer_s(capsys, config):
    # the exact rational of a deep s would pass the 4,300-digit str limit
    cantor = config("cantor")
    rc, payload = run_json(capsys, ["zeta", "--config", cantor, "--s", str(10**6)])
    assert rc == 0
    assert payload["exact"] is None and payload["value_re"] == 0.0
    for n, want in ((10**8, 0), (-(10**8), 2)):
        start = time.perf_counter()
        rc = main(["zeta", "--config", cantor, f"--s={n}"])
        assert time.perf_counter() - start < 1.0
        assert rc == want
    # far left of the abscissa z = 3^-s has no double: a clear refusal
    assert "error: --s: z = (1/3)^s overflows a double" in capsys.readouterr().err


def test_zeta_takes_the_exact_path_first_at_integer_s(capsys, config):
    # z = 3^6000 overflows a double, but the exact value is a double near -1/2
    rc, payload = run_json(capsys, ["zeta", "--config", config("cantor"), "--s=-6000"])
    assert rc == 0
    exact = F(payload["exact"])
    assert payload["value_re"] == float(exact) == -0.5 and payload["value_im"] == 0.0
    # the cap counts log2(3) bits a power of 1/3, so -6001 (about 2,900
    # digits) is exact as well
    rc, payload = run_json(capsys, ["zeta", "--config", config("cantor"), "--s=-6001"])
    assert rc == 0
    assert payload["exact"] is not None and payload["value_re"] == -0.5
    # one step past the exact cap (7572 log2 3 > 12,000), neither path has the value
    assert main(["zeta", "--config", config("cantor"), "--s=-7572"]) == 2
    assert "overflows a double" in capsys.readouterr().err


def test_zeta_exact_cap_is_the_first_integer_s_past_its_bits(capsys, config):
    # 7571 log2 3 = 11,999.7 bits is within ZETA_EXACT_BITS, 7572 log2 3 is not
    cantor = config("cantor")
    rc, payload = run_json(capsys, ["zeta", "--config", cantor, "--s", "7571"])
    assert rc == 0 and payload["exact"] == f"1/{3**7571 - 2}"
    rc, payload = run_json(capsys, ["zeta", "--config", cantor, "--s", "7572"])
    assert rc == 0 and payload["exact"] is None and payload["value_re"] == 0.0


def test_zeta_refuses_length_bases_past_the_bit_cap(capsys, config):
    # the base (4294967295/4294967296)^33554432 / 4294967296 rounds to a
    # double far from 0.0, but its exact form has about 2^30 bits
    argv = ["zeta", "--config", config("near_one"), "--alpha", "33554432,1", "--s", "3"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --alpha: "), err
    assert "exact length base has about 1,107,296,289 bits" in err[0]


def test_zeta_series_mode(capsys, config):
    rc, payload = run_json(
        capsys, ["zeta", "--config", config("beta"), "--alpha", "2,1", "--s", "2"]
    )
    assert rc == 0
    assert payload["mode"] == "series"
    assert payload["tail_bound"] <= 1e-12
    assert payload["value_re"] > 0

    rc = main(["zeta", "--config", config("beta"), "--alpha", "2,1", "--s", "0.1"])
    assert rc == 2
    assert "convergence" in capsys.readouterr().err


def test_zeta_error_paths(capsys, config):
    # s at a pole of the closed form
    rc = main(["zeta", "--config", config("sigma1"), "--alpha", "1/2", "--s", "0"])
    assert rc == 2
    assert "pole" in capsys.readouterr().err
    # string zetas take no key
    rc = main(["zeta", "--config", config("cantor"), "--alpha", "1/2", "--s", "2"])
    assert rc == 2
    # ifs systems need a vector key
    rc = main(["zeta", "--config", config("beta"), "--alpha", "1/2", "--s", "2"])
    assert rc == 2


@pytest.mark.parametrize(
    "name, argv, flag",
    [
        ("cantor", ["count", "--x", "10", "--x", "inf"], "--x"),
        ("cantor", ["count", "--xmin", "nan"], "--xmin"),
        ("cantor", ["count", "--xmax", "inf"], "--xmax"),
        ("cantor", ["zeta", "--s", "inf"], "--s"),
        ("sigma1", ["zeta", "--alpha", "1/2", "--s", "nan"], "--s"),
        ("beta", ["zeta", "--alpha", "2,1", "--s", "2+infj"], "--s"),
    ],
)
def test_non_finite_numbers_are_refused(tmp_path, capsys, config, name, argv, flag):
    out = tmp_path / "x.csv"
    command, *flags = argv
    full = [command, "--config", config(name), *flags]
    if command == "count":
        full += ["--out", str(out)]
    assert main(full) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}: need a finite value"), err
    assert not out.exists()


def test_zeta_refuses_unreachable_tolerance(capsys, config, monkeypatch):
    def summed(*args, **kwargs):
        raise AssertionError("a series term was summed")

    monkeypatch.setattr("mfzeta.cli.eval_series", summed)
    for tol in ("-1", "0", "nan", "inf"):
        argv = ["zeta", "--config", config("beta"), "--alpha", "2,1", "--s", "2",
                "--tol", tol, "--terms", str(10**9)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --tol: "), err


def test_zeta_refuses_terms_above_the_cap(capsys, config, monkeypatch):
    calls = []

    def summed(zeta, s, tail_tol, max_terms):
        calls.append(max_terms)
        return SeriesValue(value=0j, tail_bound=0.0, terms=1)

    monkeypatch.setattr("mfzeta.cli.eval_series", summed)
    argv = ["zeta", "--config", config("certified"), "--alpha", "1,1",
            "--s", "0.7737066144696414", "--terms"]
    assert main([*argv, str(ZETA_TERM_CAP + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not calls
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --terms: "), err
    assert f"{ZETA_TERM_CAP:,}" in err[0]
    assert main([*argv, str(ZETA_TERM_CAP)]) == 0
    assert calls == [ZETA_TERM_CAP]
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["zeta", "--help"])
    assert f"{ZETA_TERM_CAP:,}" in capsys.readouterr().out


def test_zeta_refuses_runaway_hypothesis_check(tmp_path, capsys):
    # 9 unequal ratios: the class check would cover C(12 + 9, 9) = 293,930 vectors
    cfg = tmp_path / "nine.json"
    cfg.write_text(json.dumps({
        "type": "ifs",
        "ratios": [f"1/{d}" for d in range(10, 19)],
        "probs": ["1/9"] * 9,
    }))
    argv = ["zeta", "--config", str(cfg), "--alpha", ",".join(["1"] * 9), "--s", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ratios: "), err
    assert "C(12 + 9, 9) = 293,930" in err[0]


def test_spectrum_files_and_manifest(tmp_path, capsys, config):
    out = tmp_path / "beta.csv"
    rc = main(["spectrum", "--config", config("beta"), "--kmax", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,f,key,alpha_desc,f_desc"
    assert lines[-1] == "# manifest: beta.manifest.json"
    assert len(lines) == 2 + len(primitive_vectors(2, 8))

    envelope = tmp_path / "beta.envelope.csv"
    assert envelope.exists()
    env_lines = envelope.read_text().splitlines()
    assert env_lines[0] == "alpha,f"

    manifest = json.loads((tmp_path / "beta.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["tool_version"]
    assert manifest["parameters"]["kmax"] == 8
    assert set(manifest["output_paths"]) == {str(out), str(envelope)}


def test_spectrum_bodies_byte_deterministic(tmp_path, capsys, config):
    cfg = config("beta")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        rc = main(["spectrum", "--config", cfg, "--kmax", "6", "--out", str(d / "s.csv")])
        assert rc == 0
    assert (a / "s.csv").read_bytes() == (b / "s.csv").read_bytes()
    assert (a / "s.envelope.csv").read_bytes() == (b / "s.envelope.csv").read_bytes()


def test_spectrum_monofractal_warning(tmp_path, capsys, config):
    out = tmp_path / "rho.csv"
    rc = main(["spectrum", "--config", config("rho"), "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "monofractal" in err and "(D, D)" in err
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header, one point, manifest comment
    assert not (tmp_path / "rho.envelope.csv").exists()


def test_spectrum_oracle_fallback_warning(tmp_path, capsys, config):
    out = tmp_path / "oracle.csv"
    rc = main(["spectrum", "--config", config("oracle"), "--kmax", "6", "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: hypothesis H fails") and "root-test" in err[0]
    assert "root test at length" in out.read_text()
    manifest = json.loads((tmp_path / "oracle.manifest.json").read_text())
    assert set(manifest) == {
        "command", "config_path", "parameters", "tool_version", "timestamp", "output_paths"
    }


def test_spectrum_rejects_string_configs(tmp_path, capsys, config):
    rc = main(
        ["spectrum", "--config", config("cantor"), "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2


def test_spectrum_refuses_bad_input_before_writing(tmp_path, capsys, config):
    out = tmp_path / "s.csv"
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(
        {"type": "ifs", "ratios": ["1/3", "1/3"], "probs": ["1e-32000", "1"]}
    ))
    cases = [
        (str(huge), ["--kmax", "8"], "error: probs[0]: exponent"),
        (config("sigma2"), ["--kmax", "0"], "error: --kmax: need a stage-sum cap"),
        # the smallest refused depths at widths 2 and 3
        (config("beta"), ["--kmax", "591"], "error: --kmax: C(591 + 2, 2)"),
        (config("oracle"), ["--kmax", "100"], "error: --kmax: C(100 + 3, 3)"),
        (config("sigma2"), ["--kmax", "591"], "error: --kmax: C(591 + 2, 2)"),
    ]
    for cfg, flags, prefix in cases:
        capsys.readouterr()
        assert main(["spectrum", "--config", cfg, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix), err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["huge.json", "sigma2.json", "beta.json", "oracle.json"]
    )


def test_tapestry_sigma2(capsys, config):
    rc, rows = run_json(
        capsys, ["tapestry", "--config", config("sigma2"), "--kmax", "2"]
    )
    assert rc == 0
    assert [r["alpha"] for r in rows] == [0.5, 1.0]
    d = math.log(2) / math.log(3)
    assert abs(rows[0]["real_part"] - d / 2) < 1e-12
    assert abs(rows[1]["real_part"] - d) < 1e-12
    assert set(rows[0]) == {"alpha", "real_part", "period", "shift", "residue_re", "residue_im"}
    # --band is gone: it never changed a row
    with pytest.raises(SystemExit) as exc:
        main(["tapestry", "--config", config("sigma2"), "--kmax", "2", "--band", "10"])
    assert exc.value.code == 2


def _tapestry_rows(spec, K_max):
    """The tapestry rows as dicts, built from ``build_tapestry``'s pairs."""
    return [
        {
            "alpha": float(alpha),
            "real_part": lat.real_part,
            "period": lat.period,
            "shift": lat.phase_shift,
            "residue_re": lat.residue.real + 0.0,
            "residue_im": lat.residue.imag + 0.0,
        }
        for alpha, lat in dimensions.build_tapestry(spec, K_max)
    ]


@pytest.mark.parametrize("kmax", [1, 5, 24])
@pytest.mark.parametrize("name", ["sigma1", "sigma2", "m3"])
def test_tapestry_json_is_what_json_dumps_writes(tmp_path, capsys, config, name, kmax):
    system = parse_system(json.dumps(CONFIGS[name]))
    want = json.dumps(_tapestry_rows(system, kmax), indent=2, sort_keys=True)
    argv = ["tapestry", "--config", config(name), "--kmax", str(kmax)]
    assert main(argv) == 0
    assert capsys.readouterr().out == want + "\n"
    out = tmp_path / "tapestry.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == want + "\n"
    if name == "sigma1":
        # the zero real parts print as 0.0, never -0.0
        assert '"real_part": 0.0,' in want and "-0.0" not in want


def test_tapestry_refuses_bad_kmax_before_writing(tmp_path, capsys, config):
    out = tmp_path / "t.json"
    for kmax in ("0", "-3"):
        assert main(["tapestry", "--config", config("sigma2"), "--kmax", kmax, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: --kmax: need a key depth of at least 1, got {kmax}\n"
    # sigma(3)'s first key 1/463 has a length base 5**-463 that rounds to 0.0
    assert main(["tapestry", "--config", config("m3"), "--kmax", "463", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: class 1/463 is too deep: its length base rounds to 0.0\n"


def test_tapestry_m2_matches_sigma2(capsys, config):
    rc1 = main(["tapestry", "--config", config("sigma2"), "--kmax", "3"])
    out1 = capsys.readouterr().out
    rc2 = main(["tapestry", "--config", config("m2"), "--kmax", "3"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_tapestry_rejects_non_atomic(capsys, config):
    assert main(["tapestry", "--config", config("beta")]) == 2
    assert main(["tapestry", "--config", config("cantor")]) == 2


def test_tapestry_refuses_runaway_kmax(tmp_path, capsys, config):
    out = tmp_path / "t.json"
    assert main(["tapestry", "--config", config("sigma2"), "--kmax", "600", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: --kmax: 180,300 candidate keys k1/K exceed the cap of 180,000 per run\n"


def test_count_cantor_fixed_points(tmp_path, capsys, config):
    out = tmp_path / "count.csv"
    rc = main(
        ["count", "--config", config("cantor"), "--x", "10", "--x", "100",
         "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,direct,explicit,error"
    assert lines[-1] == "# manifest: count.manifest.json"
    rows = [line.split(",") for line in lines[1:3]]
    assert [int(r[1]) for r in rows] == [3, 15]
    for r in rows:
        assert round(float(r[2])) == int(r[1])
        assert abs(float(r[3])) < 0.05


def test_count_sampled_rows_round_to_direct(tmp_path, capsys, config):
    out = tmp_path / "s1.csv"
    rc = main(
        ["count", "--config", config("sigma1"), "--alpha", "1/2", "--samples", "6",
         "--out", str(out)]
    )
    assert rc == 0
    for line in out.read_text().splitlines()[1:-1]:
        x, direct, explicit, error = line.split(",")
        assert round(float(explicit)) == int(direct)


REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "count-explicit.json.xz"
BENCH_COUNT_SYSTEMS = [
    ("cantor", {"type": "string", "family": "cantor"}, None),
    ("fibonacci", {"type": "string", "family": "fibonacci"}, None),
    ("sigma1", {"type": "atomic", "family": "sigma1"}, "1/2"),
    ("sigma2", {"type": "atomic", "family": "sigma2"}, "1/2"),
    ("sigma-m3", {"type": "atomic", "family": "generalized", "m": 3}, "1/2"),
]


def test_count_and_tapestry_bodies_equal_the_benchmark_reference(tmp_path, capsys):
    """The count CSVs and the tapestry JSON are byte-identical to the stored
    benchmark outputs, which the benchmark's own check holds only to 1e-9."""
    with lzma.open(REFERENCE, "rt") as fh:
        reference = json.load(fh)
    for name, system, alpha in BENCH_COUNT_SYSTEMS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(system))
        for seed in (2, 7, 21):
            out = tmp_path / "count.csv"
            argv = ["count", "--config", str(path), "--seed", str(seed), "--out", str(out)]
            if alpha is not None:
                argv[3:3] = ["--alpha", alpha]
            assert main(argv) == 0
            assert out.read_text() == reference[f"{name}@seed{seed}"]["count.csv"], (name, seed)
    path = tmp_path / "sigma2.json"
    path.write_text(json.dumps({"type": "atomic", "family": "sigma2"}))
    out = tmp_path / "tapestry.json"
    assert main(["tapestry", "--config", str(path), "--kmax", "64", "--out", str(out)]) == 0
    assert out.read_text() == reference["sigma2-tapestry-k64"]["tapestry.json"]
    capsys.readouterr()


SPECTRUM_REFERENCE = REFERENCE.with_name("spectrum.json.xz")
BENCH_SPECTRUM_COMMANDS = [
    ("beta0-k64", ("1/2,1/2", "1/3,2/3"), 64),
    ("beta0-k256", ("1/2,1/2", "1/3,2/3"), 256),
    ("trident-k64", ("1/5,1/5,1/5", "1/5,3/5,1/5"), 64),
    ("three-map-k32", ("1/5,1/5,1/5", "1/5,1/7,23/35"), 32),
    ("ratios-1-2-1-3-k128", ("1/2,1/3", "1/3,2/3"), 128),
]


def test_spectrum_bodies_equal_the_benchmark_reference(tmp_path, capsys):
    """The spectrum and envelope CSVs of the benchmark's collapsed and
    hypothesis-H sweeps are byte-identical to the stored outputs, which the
    benchmark's own check holds only to 1e-9."""
    with lzma.open(SPECTRUM_REFERENCE, "rt") as fh:
        reference = json.load(fh)
    path = tmp_path / "system.json"
    out = tmp_path / "spectrum.csv"
    for name, (ratios, probs), kmax in BENCH_SPECTRUM_COMMANDS:
        path.write_text(
            json.dumps({"type": "ifs", "ratios": ratios.split(","), "probs": probs.split(",")})
        )
        argv = ["spectrum", "--config", str(path), "--kmax", str(kmax), "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text() == reference[name]["spectrum.csv"], name
        envelope = out.with_suffix(".envelope.csv").read_text()
        assert envelope == reference[name]["spectrum.envelope.csv"], name
    capsys.readouterr()


def _csv_body(rows) -> str:
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows(rows)
    return body.getvalue()


@pytest.mark.parametrize(
    "name, kmax",
    [
        ("sigma1", 40),
        ("sigma2", 40),
        ("rho", 16),  # monofractal: one point, no envelope
        ("trident", 24),  # folding slots
        ("oracle", 6),  # hypothesis H fails: the oracle fallback
        ("beta", 128),  # more rows than one write block
    ],
)
def test_spectrum_bodies_are_the_points_view_written_by_csv(tmp_path, capsys, config, name, kmax):
    """On the sweep kinds the benchmark reference does not cover, the CSV
    and envelope bodies are what ``csv.writer`` makes of the sweep's points."""
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--config", config(name), "--kmax", str(kmax), "--out", str(out)]) == 0
    points = list(spectrum_sweep(parse_system(json.dumps(CONFIGS[name])), K_max=kmax))
    capsys.readouterr()
    if name == "beta":
        assert len(points) > ROW_BLOCK
    header = "alpha,f,key,alpha_desc,f_desc\n"
    rows = [(p.alpha, p.f, str(p.key), p.alpha_desc, p.f_desc) for p in points]
    manifest = "# manifest: s.manifest.json\n"
    assert out.read_text() == header + _csv_body(rows) + manifest
    envelope = tmp_path / "s.envelope.csv"
    if len(points) < 2:
        assert not envelope.exists()
    else:
        vertices = concave_envelope(points).breakpoints
        assert envelope.read_text() == "alpha,f\n" + _csv_body(vertices) + manifest


# cells ``csv.writer`` quotes (a comma, a quote, a newline) and cells it
# leaves as they are (a carriage return, outer spaces, non-ASCII, empty)
AWKWARD_CELLS = [
    "plain", "a,b", '"', '""', 'say "hi"', "two\nlines", "cr\rhere", "\r\n", " padded ",
    "  ", "Hölder α ≤ ½", "", ",", '","',
]


def _csv_file(path: Path, header: str, rows, manifest: str) -> bytes:
    """What ``csv.writer`` writes for rows, framed as the CLI frames a body."""
    with path.open("w", newline="") as fh:
        fh.write(header + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)
        fh.write(f"# manifest: {manifest}\n")
    return path.read_bytes()


def test_quoted_cells_are_what_csv_writer_writes():
    rows = [["x", cell, "y"] for cell in AWKWARD_CELLS]
    rows += [[cell, cell] for cell in AWKWARD_CELLS] + [AWKWARD_CELLS]
    for row in rows:
        reference = io.StringIO()
        csv.writer(reference, lineterminator="\n").writerow(row)
        line = ",".join(map(cli.q, row)) + "\n"
        assert line.encode() == reference.getvalue().encode(), row


class _Key:
    """A key whose text is given, so any text reaches the key column."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


def test_spectrum_lines_of_awkward_text_are_what_csv_writer_writes(tmp_path):
    cells = AWKWARD_CELLS
    points = [
        SpectrumPoint(
            0.1 * i - 0.35, 1 / (i + 3), _Key(cell), cells[-i - 1], cells[3 * i % len(cells)]
        )
        for i, cell in enumerate(cells)
    ]
    vertices = (0, 2, 5, len(points) - 1)
    vertex_lines = []
    header, out, manifest = "alpha,f,key,alpha_desc,f_desc", tmp_path / "s.csv", "s.manifest.json"
    blocks = cli._spectrum_blocks(PointTable(points), vertices, vertex_lines)
    cli._write_csv(out, header, blocks, tmp_path / manifest)
    rows = [(p.alpha, p.f, str(p.key), p.alpha_desc, p.f_desc) for p in points]
    assert out.read_bytes() == _csv_file(tmp_path / "ref.csv", header, rows, manifest)
    cli._write_csv(out, "alpha,f", [vertex_lines], tmp_path / manifest)
    rows = [(points[i].alpha, points[i].f) for i in vertices]
    assert out.read_bytes() == _csv_file(tmp_path / "ref.csv", "alpha,f", rows, manifest)


def test_count_lines_of_a_huge_direct_count_are_what_csv_writer_writes(tmp_path, capsys, config):
    """fibonacci at x = 1e300: the direct count is an int far above 2**64."""
    out = tmp_path / "count.csv"
    argv = ["count", "--config", config("fibonacci"), "--x", "1e300", "--x", "10"]
    argv += ["--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    args = cli.build_parser().parse_args(argv)
    system = parse_system(json.dumps(CONFIGS["fibonacci"]))
    rows = []
    for x in args.x:
        (r,) = dimensions.counting_explicit(
            system, None, [x], Z=args.trunc, jump_guard=args.jump_guard
        )
        rows.append((r.x, r.direct, r.explicit_value, r.explicit_value - r.direct))
    assert rows[0][1] > 2**64
    header = "x,direct,explicit,error"
    assert out.read_bytes() == _csv_file(tmp_path / "ref.csv", header, rows, "count.manifest.json")


def test_ifs_spectrum_is_written_without_points_or_key_strings(tmp_path, config, monkeypatch):
    """An IFS sweep is written from its columns: no SpectrumPoint is built,
    and no VectorKey is turned into its string."""
    calls = []
    init, key_str = SpectrumPoint.__init__, VectorKey.__str__

    def counted_init(self, *args, **kwargs):
        calls.append("SpectrumPoint")
        init(self, *args, **kwargs)

    def counted_str(self):
        calls.append("VectorKey")
        return key_str(self)

    monkeypatch.setattr(SpectrumPoint, "__init__", counted_init)
    monkeypatch.setattr(VectorKey, "__str__", counted_str)
    out = str(tmp_path / "s.csv")
    for name in ("beta0", "certified", "trident"):
        assert main(["spectrum", "--config", config(name), "--kmax", "64", "--out", out]) == 0
    assert calls == []
    # the spies do see the points view
    table = spectrum_sweep(parse_system(json.dumps(CONFIGS["beta0"])), K_max=4)
    str(table[0].key)
    assert calls == ["SpectrumPoint", "VectorKey"]


def test_count_error_paths(tmp_path, capsys, config):
    out = str(tmp_path / "x.csv")
    assert main(["count", "--config", config("beta"), "--out", out]) == 2
    assert main(["count", "--config", config("sigma2"), "--out", out]) == 2
    # x exactly on a counting jump is rejected by the guard
    rc = main(["count", "--config", config("cantor"), "--x", "9", "--out", out])
    assert rc == 2
    assert "jump" in capsys.readouterr().err
    # no x is 0.5 log-units from a jump: rejected up front instead of hanging
    rc = main(["count", "--config", config("cantor"), "--jump-guard", "0.6", "--out", out])
    assert rc == 2
    assert "jump guard" in capsys.readouterr().err
    rc = main(["count", "--config", config("cantor"), "--samples", "0", "--out", out])
    assert rc == 2
    assert "--samples" in capsys.readouterr().err
    # runaway work is refused up front by the pole-term cap
    for flags in (
        ["--trunc", "100000000", "--x", "10"],
        ["--samples", "100000000"],
        ["--trunc", "1" + "0" * 400, "--x", "10"],  # beyond the float range
    ):
        rc = main(["count", "--config", config("cantor"), *flags, "--out", out])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --trunc/--samples")
        assert "pole terms exceeds the cap" in err[0]
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.manifest.json").exists()


def test_count_prices_slow_trig_terms_before_summing(tmp_path, capsys, config, monkeypatch):
    """A pole term whose cos/sin argument |Im w| ln x passes FAST_TRIG_ARG
    counts SLOW_TERM_WEIGHT times against the cap, decided before any sum."""

    class Summed(Exception):
        pass

    def summing(*args, **kwargs):
        raise Summed

    monkeypatch.setattr(cli, "counting_explicit", summing)
    out = str(tmp_path / "x.csv")
    fib = ["count", "--config", config("fibonacci"), "--out", out]
    refused = (
        # within 2e8 plain terms, but about 1.9e8 of them are slow at x = 5
        ["--trunc", "99997999", "--x", "5"],
        # sampled x are priced at --xmax
        ["--trunc", "20000000", "--samples", "1", "--xmax", "1e300"],
    )
    for flags in refused:
        assert main([*fib, *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --trunc/--samples")
        assert "pole terms exceeds the cap" in err[0]
    # the same runs nearer x = 1 have no slow term and fit the cap
    for flags in (
        ["--trunc", "99997999", "--x", "1.1"],
        ["--trunc", "20000000", "--samples", "1", "--xmin", "1.5", "--xmax", "1.6"],
    ):
        with pytest.raises(Summed):
            main([*fib, *flags])
    assert not (tmp_path / "x.csv").exists()


def test_count_refuses_unguardable_ranges_and_guards(tmp_path, capsys, config, monkeypatch):
    """A sampled range with every x within the guard of a jump is refused
    before any draw, and --x values get the sampler's guard rule."""
    original = dimensions.jump_distance
    draws = []

    def bounded(rz, x):
        draws.append(x)
        if len(draws) > 1000:
            raise AssertionError("1000 rejected draws: the sampler is looping")
        return original(rz, x)

    monkeypatch.setattr(dimensions, "jump_distance", bounded)
    out = str(tmp_path / "x.csv")
    cantor = ["count", "--config", config("cantor"), "--out", out]
    # log-units 0.996..1.004 all lie within 0.02 of the jump at x = 3
    assert main([*cantor, "--xmin", "2.99", "--xmax", "3.01", "--samples", "3"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "from a jump" in err[0]
    # 3 and 9 sit on jumps; no guard outside [0, 0.5) lets them through
    for guard in ("nan", "-1", "inf", "0.5"):
        assert main([*cantor, "--x", "3", "--x", "9", "--jump-guard", guard]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --jump-guard: "), guard
    assert not (tmp_path / "x.csv").exists()


def test_count_refuses_ranges_over_the_draw_budget(tmp_path, capsys, config, monkeypatch):
    """A sampled range whose guarded share is tiny but not empty is refused
    before any draw, when its samples would take more than
    SAMPLE_DRAW_BUDGET draws; a range within the budget samples as before."""
    original = dimensions.jump_distance
    draws = []

    def bounded(rz, x):
        draws.append(x)
        if len(draws) > 1000:
            raise AssertionError("1000 rejected draws: the sampler is looping")
        return original(rz, x)

    monkeypatch.setattr(dimensions, "jump_distance", bounded)
    out = str(tmp_path / "x.csv")
    cantor = ["count", "--config", config("cantor"), "--out", out]
    # log-units 0.98 - 1e-12 .. 0.98 are accepted, of a range 0.016 wide:
    # about 5e10 draws for 3 samples
    argv = [*cantor, "--xmin", "2.9348021571842895", "--xmax", "2.99", "--samples", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "draws, above the budget" in err[0]
    assert draws == [] and not (tmp_path / "x.csv").exists()
    # 0.97..1.03 keeps a third of the range on each side of the jump at x = 3
    assert main([*cantor, "--xmin", "2.9", "--xmax", "3.1", "--samples", "3"]) == 0
    assert 3 <= len(draws) <= 1000
    capsys.readouterr()


def test_verify_cli_budget_and_exit_codes(tmp_path, capsys, config):
    rc, payload = run_json(capsys, ["verify", "--suite", "oracle"])
    assert rc == 0
    assert payload["failed"] == 0 and payload["passed"] == 4

    rc = main(["verify", "--suite", "spectra"])
    out = capsys.readouterr().out
    assert rc == 1  # the trident endpoint-slope check fails honestly
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert failed == ["trident-endpoint-slopes"]

    # each check runs at its one stated depth: there is no work-cap option
    for argv in (["--suite", "everything"], ["--budget", "K=6"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2

    # no threads is not a run
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["verify", "--suite", "oracle", "--threads", "0", "--out", str(report)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "at least 1" in err[0]
    assert not report.exists()


def test_verify_report_file(tmp_path, capsys, config):
    report = tmp_path / "report.json"
    rc = main(["verify", "--suite", "zeta", "--threads", "2", "--out", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["failed"] == 0


def test_module_entry_point():
    # the child imports mfzeta from wherever this process did, installed or not
    src = str(Path(mfzeta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mfzeta", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "mfzeta" in proc.stdout
