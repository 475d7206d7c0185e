"""The three workloads: fixed systems, CLI argv, expected exit codes.

Every input except the ``count --seed`` value is a fixed system: sweep cost
depends on number-theoretic structure (equal ratios, independence of the
probabilities, hypothesis H), which a random draw would change.  Reference
outputs exist for count seeds ``0 .. COUNT_SEEDS - 1``; the benchmark seed
``n`` runs ``count --seed n % COUNT_SEEDS``.
"""
from __future__ import annotations

from dataclasses import dataclass

COUNT_SEEDS = 32


def _ifs(ratios: str, probs: str) -> dict:
    return {"type": "ifs", "ratios": ratios.split(","), "probs": probs.split(",")}


BETA0 = _ifs("1/2,1/2", "1/3,2/3")
TRIDENT = _ifs("1/5,1/5,1/5", "1/5,3/5,1/5")
THREE_MAP = _ifs("1/5,1/5,1/5", "1/5,1/7,23/35")
CERTIFIED = _ifs("1/2,1/3", "1/3,2/3")
ORACLE = _ifs("1/2,1/4,1/8", "1/2,1/3,1/6")
CANTOR = {"type": "string", "family": "cantor"}
FIBONACCI = {"type": "string", "family": "fibonacci"}
SIGMA1 = {"type": "atomic", "family": "sigma1"}
SIGMA2 = {"type": "atomic", "family": "sigma2"}
SIGMA_M3 = {"type": "atomic", "family": "generalized", "m": 3}

CONFIG = "system.json"


@dataclass(frozen=True)
class Command:
    """One CLI run; ``argv`` is what ``mfzeta.cli.main`` receives."""

    name: str
    kind: str  # spectrum | count | tapestry | verify
    argv: tuple[str, ...]
    config: dict | None = None
    expect_rc: int = 0

    @property
    def primary(self) -> str:
        """The output file whose rows the workload counts."""
        return {"spectrum": "spectrum.csv", "count": "count.csv",
                "tapestry": "tapestry.json", "verify": "report.json"}[self.kind]


def _spectrum(name: str, config: dict, kmax: int) -> Command:
    return Command(name, "spectrum", ("spectrum", "--config", CONFIG, "--kmax", str(kmax),
                                      "--out", "spectrum.csv"), config)


def _count(name: str, config: dict, seed: int, alpha: str | None = None) -> Command:
    argv = ["count", "--config", CONFIG]
    if alpha is not None:
        argv += ["--alpha", alpha]
    argv += ["--seed", str(seed % COUNT_SEEDS), "--out", "count.csv"]
    return Command(f"{name}@seed{seed % COUNT_SEEDS}", "count", tuple(argv), config)


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass of ``workload``, in run order."""
    if workload == "spectrum":
        # equal-ratio sweeps on the collapsed closed-form path, then unequal
        # ratios certified by the interval ladder, one of them by the oracle
        return [
            _spectrum("beta0-k64", BETA0, 64),
            _spectrum("beta0-k256", BETA0, 256),
            _spectrum("trident-k64", TRIDENT, 64),
            _spectrum("three-map-k32", THREE_MAP, 32),
            _spectrum("ratios-1-2-1-3-k128", CERTIFIED, 128),
            _spectrum("oracle-fallback-k32", ORACLE, 32),
        ]
    if workload == "count-explicit":
        return [
            _count("cantor", CANTOR, seed),
            _count("fibonacci", FIBONACCI, seed),
            _count("sigma1", SIGMA1, seed, "1/2"),
            _count("sigma2", SIGMA2, seed, "1/2"),
            _count("sigma-m3", SIGMA_M3, seed, "1/2"),
            Command("sigma2-tapestry-k64", "tapestry",
                    ("tapestry", "--config", CONFIG, "--kmax", "64",
                     "--out", "tapestry.json"), SIGMA2),
        ]
    if workload == "verify-all":
        # exit 1 by design: trident-endpoint-slopes is red at its stated bound
        return [Command("verify-all-threads2", "verify",
                        ("verify", "--suite", "all", "--threads", "2",
                         "--out", "report.json"), expect_rc=1)]
    raise KeyError(workload)


WORKLOADS = ("spectrum", "count-explicit", "verify-all")
