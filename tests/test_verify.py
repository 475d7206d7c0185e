"""Self-check harness: suite selection, determinism, and the report format."""
import json

import pytest

from mfzeta import verify
from mfzeta.verify import CHECKS, SUITES, report_json, run_suite


def test_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("spectral")


def test_suite_names_cover_all_checks():
    assert set(SUITES) == {suite for _, suite, _ in CHECKS}
    names = [name for name, _, _ in CHECKS]
    assert len(names) == len(set(names))


def test_oracle_suite_passes_in_declaration_order():
    results = run_suite("oracle")
    expected = [name for name, suite, _ in CHECKS if suite == "oracle"]
    assert [r.name for r in results] == expected
    assert all(r.suite == "oracle" for r in results)
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


def test_zeta_suite_passes():
    results = run_suite("zeta")
    assert all(r.ok for r in results), [r.detail for r in results if not r.ok]


def test_spectra_suite_has_exactly_the_slope_failure():
    results = run_suite("spectra")
    failed = [r.name for r in results if not r.ok]
    assert failed == ["trident-endpoint-slopes"]
    slope = next(r for r in results if r.name == "trident-endpoint-slopes")
    assert "measured" in slope.detail


def test_report_is_byte_identical_across_runs():
    first = report_json(run_suite("zeta"))
    second = report_json(run_suite("zeta"))
    assert first.encode() == second.encode()


def test_report_json_shape():
    results = run_suite("oracle")
    payload = json.loads(report_json(results))
    assert set(payload) == {"checks", "passed", "failed"}
    assert payload["passed"] + payload["failed"] == len(results) == len(payload["checks"])
    for row in payload["checks"]:
        assert set(row) == {"name", "suite", "ok", "detail"}


def test_crashed_check_reports_as_failure(monkeypatch):
    def boom():
        raise RuntimeError("deliberate")

    monkeypatch.setattr(verify, "CHECKS", (("boom", "oracle", boom),))
    (result,) = run_suite("oracle")
    assert not result.ok
    assert "deliberate" in result.detail
