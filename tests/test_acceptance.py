"""End-to-end acceptance checks, one test per shipped guarantee.

The published identities are implemented once, as the checks of
``mfzeta.verify``.  Each test claims the checks of its criterion in
``CRITERIA`` and asserts them from one run of the whole suite, with the
check's measured values as the failure message; run with
``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
guarantee.  The trident endpoint-slope bound is known not to hold at the
stated sweep depth and is left failing on purpose.
"""
import json
import time
from pathlib import Path

import pytest

from mfzeta import verify

CRITERIA = {
    1: ("moran-cantor", "cantor-lattice-and-counting"),
    2: ("fibonacci-lattices", "fibonacci-multiplicities"),
    3: (
        "stage-counts-multinomial",
        "collapsed-multiplicity-trident",
        "atomic-stage-tables",
        "atomic-mass-conservation",
    ),
    4: ("abscissa-root-vs-closed", "series-vs-rational"),
    5: ("binomial-hull-recovery",),
    6: ("trident-spectrum-max", "trident-endpoint-slopes"),
    7: ("sigma1-residues-and-counting",),
    8: ("closed-form-values", "sigma-family-spectra", "sigma2-tapestry-and-counting"),
    9: ("legendre-pipeline",),
    10: (),  # the whole suite: wall clock and the report body
}

# the report body of `mfzeta verify --suite all`, recorded at commit 2dd623c;
# report_json is a pure function of it, so equal payloads mean equal bytes
REPORT = Path(__file__).parent / "data" / "verify_report.json"


class SuiteRun:
    """One serial run of every check, with the seconds of each check's call."""

    def __init__(self):
        self.seconds = {}

        def timed(name, fn):
            def call(**kwargs):
                start = time.monotonic()
                try:
                    return fn(**kwargs)
                finally:
                    self.seconds[name] = time.monotonic() - start

            return call

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                verify,
                "CHECKS",
                tuple((name, st, timed(name, fn)) for name, st, fn in verify.CHECKS),
            )
            start = time.monotonic()
            self.results = verify.run_suite("all")
            self.total_seconds = time.monotonic() - start
        self.by_name = {r.name: r for r in self.results}

    def assert_criterion(self, number: int, note: str = "") -> None:
        for name in CRITERIA[number]:
            result = self.by_name[name]
            assert result.ok, f"{name}: {result.detail}{note}"


@pytest.fixture(scope="module")
def suite():
    return SuiteRun()


def test_criterion_01_cantor_dimension_lattice_and_counting(suite):
    suite.assert_criterion(1)
    assert suite.seconds["cantor-lattice-and-counting"] < 10.0


def test_criterion_02_fibonacci_lattices_and_multiplicities(suite):
    suite.assert_criterion(2)


def test_criterion_03_stage_identities_and_mass_conservation(suite):
    suite.assert_criterion(3)


def test_criterion_04_abscissa_root_test_vs_closed_form(suite):
    suite.assert_criterion(4)


def test_criterion_05_binomial_spectrum_recovery(suite):
    suite.assert_criterion(5)


def test_criterion_06_trident_spectrum_max_and_endpoint_slopes(suite):
    suite.assert_criterion(
        6,
        note="; the end segments are the chords (0,1)-(1,K-1) and (K-1,1)-(1,0), "
        "of slopes +(ln 2K + c)/ln 3 and -(ln(K/2) + c)/ln 3 with "
        "c = (K-1) ln(K/(K-1)) -> 1, so both exceed 10 first at K_max = 43,447 "
        "- a sweep of about 9.4e8 candidate vectors, far beyond the stated depth",
    )


def test_criterion_07_sigma1_spectrum_residues_and_counting(suite):
    suite.assert_criterion(7)


def test_criterion_08_sigma_family_spectra_tapestry_and_counting(suite):
    suite.assert_criterion(8)


def test_criterion_09_legendre_pipeline_agreement(suite):
    suite.assert_criterion(9)


def test_criterion_10_verify_suite_wallclock_and_determinism(suite):
    # the run is serial, so the 1-minute bound once set for 8 threads binds it
    assert suite.total_seconds < 60.0, f"suite took {suite.total_seconds:.1f}s"
    # the suite's only red check is the known endpoint-slope shortfall
    assert [r.name for r in suite.results if not r.ok] == ["trident-endpoint-slopes"]
    assert json.loads(verify.report_json(suite.results)) == json.loads(REPORT.read_text())


def test_every_check_is_claimed_by_exactly_one_criterion():
    claimed = sorted(name for names in CRITERIA.values() for name in names)
    assert claimed == sorted(name for name, _, _ in verify.CHECKS)
