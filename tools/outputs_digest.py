"""Digest every output of a fixed list of mfzeta runs, for one source tree.

    python tools/outputs_digest.py SRC > digest.txt

SRC is a package source directory (the ``src`` of a checkout).  Each command
runs as ``python -m mfzeta`` with SRC first on PYTHONPATH, in a fresh
temporary directory that holds only its config.  One line per command is
printed: its name and the sha256 of its exit code, stdout, stderr and every
file it wrote, with the ``timestamp`` line of each run manifest removed.
Runs that are byte-identical in two trees print identical lines, so the
``diff`` of two digests names each command whose outputs differ.

The commands: the six spectrum sweeps of the benchmark, the sigma1 and
sigma2 sweeps to K_max = 40 and 1, a monofractal sweep, ``zeta`` on an IFS
class series, the two strings and atomic classes (exact values at integer s
among them), ``count`` at its defaults on the five string and atomic systems
at seeds 0, 2, 7 and 21, the tapestry JSON of sigma1, sigma2 and sigma(m)
for m = 3 and 5 at several depths, and ``verify --suite all``.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = "system.json"


def _ifs(ratios: str, probs: str) -> dict:
    return {"type": "ifs", "ratios": ratios.split(","), "probs": probs.split(",")}


def _atomic(family: str, m: int | None = None) -> dict:
    return {"type": "atomic", "family": family, **({"m": m} if m else {})}


def commands() -> list[tuple[str, dict | None, list[str]]]:
    """(name, config or None, argv after ``python -m mfzeta``) of every run."""
    runs = []
    spectra = [
        ("beta0", _ifs("1/2,1/2", "1/3,2/3"), (64, 256)),
        ("trident", _ifs("1/5,1/5,1/5", "1/5,3/5,1/5"), (64,)),
        ("three-map", _ifs("1/5,1/5,1/5", "1/5,1/7,23/35"), (32,)),
        ("ratios-1-2-1-3", _ifs("1/2,1/3", "1/3,2/3"), (128,)),
        ("oracle-fallback", _ifs("1/2,1/4,1/8", "1/2,1/3,1/6"), (32,)),
        ("sigma1", _atomic("sigma1"), (1, 40)),
        ("sigma2", _atomic("sigma2"), (1, 40)),
        ("monofractal", _ifs("1/3,1/3", "1/2,1/2"), (16,)),
    ]
    for name, config, depths in spectra:
        for kmax in depths:
            argv = ["spectrum", "--config", CONFIG, "--kmax", str(kmax), "--out", "spectrum.csv"]
            runs.append((f"spectrum-{name}-k{kmax}", config, argv))
    zetas = [
        ("beta-1-1", _ifs("1/3,1/3", "1/3,2/3"), ["--alpha", "1,1", "--s", "1.5"]),
        ("trident-2-1", _ifs("1/5,1/5,1/5", "1/5,3/5,1/5"), ["--alpha", "2,1", "--s", "1+2j"]),
        ("cantor", {"type": "string", "family": "cantor"}, ["--s", "2"]),
        ("cantor-complex", {"type": "string", "family": "cantor"}, ["--s", "0.8+3j"]),
        ("fibonacci", {"type": "string", "family": "fibonacci"}, ["--s", "2"]),
        ("fibonacci-complex", {"type": "string", "family": "fibonacci"}, ["--s", "1.5-1j"]),
        ("sigma1-1-2", _atomic("sigma1"), ["--alpha", "1/2", "--s", "3"]),
        ("sigma1-log", _atomic("sigma1"), ["--alpha", "1+log:2", "--s", "-1"]),
        ("sigma2-1-2", _atomic("sigma2"), ["--alpha", "1/2", "--s", "3"]),
        ("sigma-m3-2-5", _atomic("generalized", 3), ["--alpha", "2/5", "--s", "-4"]),
    ]
    for name, config, args in zetas:
        runs.append((f"zeta-{name}", config, ["zeta", "--config", CONFIG, *args]))
    counts = [
        ("cantor", {"type": "string", "family": "cantor"}, []),
        ("fibonacci", {"type": "string", "family": "fibonacci"}, []),
        ("sigma1", _atomic("sigma1"), ["--alpha", "1/2"]),
        ("sigma2", _atomic("sigma2"), ["--alpha", "1/2"]),
        ("sigma-m3", _atomic("generalized", 3), ["--alpha", "1/2"]),
    ]
    for seed in (0, 2, 7, 21):
        for name, config, alpha in counts:
            argv = ["count", "--config", CONFIG, *alpha, "--seed", str(seed), "--out", "count.csv"]
            runs.append((f"count-{name}-seed{seed}", config, argv))
    tapestries = [
        ("sigma1", _atomic("sigma1"), (1, 5, 24, 64, 200)),
        ("sigma2", _atomic("sigma2"), (1, 5, 24, 64, 200, 599)),
        ("sigma-m3", _atomic("generalized", 3), (1, 5, 24, 64, 200)),
        ("sigma-m5", _atomic("generalized", 5), (1, 5, 24, 64, 200)),
    ]
    for name, config, depths in tapestries:
        for kmax in depths:
            argv = ["tapestry", "--config", CONFIG, "--kmax", str(kmax), "--out", "tapestry.json"]
            runs.append((f"tapestry-{name}-k{kmax}", config, argv))
    runs.append(("verify-all", None, ["verify", "--suite", "all", "--out", "report.json"]))
    return runs


def digest(src: Path, config: dict | None, argv: list[str]) -> str:
    """sha256 of one run's exit code, stdout, stderr and written files."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MFZETA_THREADS", None)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if config is not None:
            (work / CONFIG).write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "mfzeta", *argv], cwd=work, env=env,
            stdin=subprocess.DEVNULL, capture_output=True,
        )
        h = hashlib.sha256()
        for part in (str(proc.returncode).encode(), proc.stdout, proc.stderr):
            h.update(len(part).to_bytes(8, "big") + part)
        for path in sorted(work.rglob("*")):
            if not path.is_file() or path.name == CONFIG:
                continue
            data = path.read_bytes()
            if path.name.endswith(".manifest.json"):
                lines = data.splitlines(keepends=True)
                data = b"".join(l for l in lines if not l.lstrip().startswith(b'"timestamp"'))
            name = path.relative_to(work).as_posix().encode()
            h.update(len(name).to_bytes(8, "big") + name + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/outputs_digest.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "mfzeta" / "__init__.py").is_file():
        print(f"error: {src} holds no mfzeta package", file=sys.stderr)
        return 2
    for name, config, args in commands():
        print(name, digest(src, config, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
