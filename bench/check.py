"""Compare one command's output files with the reference outputs.

References were written by ``make_reference.py`` at the commit that added the
benchmark, one xz-compressed JSON file per workload:
``{command name: {file name: file text}}``.

Rules:
- the set of files written must match;
- exact fields match exactly: CSV headers, keys, descriptions, row order and
  ``direct`` counts; JSON keys; verify check names, suites and ``ok`` flags;
  manifest fields other than the timestamp;
- float fields stay within 1e-12 of the reference (relative above 1);
- the counting ``explicit``/``error`` columns stay within 1e-9, far below
  the method's own truncation error, so a differently ordered sum of the
  same terms is accepted; every row where the reference has
  ``round(explicit) == direct`` must keep it.  Two reference rows miss by
  more than 0.5 at the seed (fibonacci, count seeds 2 and 21, x ~ 5e5);
  there the reference value itself is what is kept.
"""
from __future__ import annotations

import csv
import io
import json
import lzma
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_TOL = 1e-12
COUNT_TOL = 1e-9
COUNT_COLUMNS = {"explicit", "error"}
FLOAT_COLUMNS = {"alpha", "f", "x"} | COUNT_COLUMNS


def load_reference(workload: str) -> dict[str, dict[str, str]]:
    with lzma.open(REFERENCE_DIR / f"{workload}.json.xz", "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, commands: dict[str, dict[str, str]]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    data = json.dumps(commands, indent=0, sort_keys=True).encode()
    # a large window: the envelope CSVs repeat most spectrum rows
    packed = lzma.compress(data, preset=9 | lzma.PRESET_EXTREME)
    (REFERENCE_DIR / f"{workload}.json.xz").write_bytes(packed)


def read_outputs(outdir: Path, skip: str) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(outdir.iterdir())
            if p.is_file() and p.name != skip}


def _close(got: float, ref: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - ref) <= tol * max(1.0, abs(ref))


def _cell(column: str, got: str, ref: str) -> str | None:
    if column not in FLOAT_COLUMNS:
        return None if got == ref else f"{column}: {got!r} != {ref!r}"
    tol = COUNT_TOL if column in COUNT_COLUMNS else FLOAT_TOL
    try:
        ok = _close(float(got), float(ref), tol)
    except ValueError:
        ok = False
    return None if ok else f"{column}: {got} differs from {ref} by more than {tol:g}"


def _rounds_to_direct(header: list[str], row: list[str]) -> bool:
    fields = dict(zip(header, row))
    return round(float(fields["explicit"])) == int(fields["direct"])


def _compare_csv(got: str, ref: str) -> str | None:
    got_rows = list(csv.reader(io.StringIO(got)))
    ref_rows = list(csv.reader(io.StringIO(ref)))
    if len(got_rows) != len(ref_rows):
        return f"{len(got_rows)} lines, reference has {len(ref_rows)}"
    header = ref_rows[0]
    if got_rows[0] != header:
        return f"header {got_rows[0]} != {header}"
    for n, (g, r) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=2):
        if r and r[0].startswith("#"):  # trailing manifest reference
            if g != r:
                return f"line {n}: {g} != {r}"
            continue
        if len(g) != len(r):
            return f"line {n}: {len(g)} fields, reference has {len(r)}"
        for column, gc, rc in zip(header, g, r):
            problem = _cell(column, gc, rc)
            if problem:
                return f"line {n}: {problem}"
        if "explicit" in header and _rounds_to_direct(header, r):
            if not _rounds_to_direct(header, g):
                return f"line {n}: round(explicit) != direct"
    return None


def _compare_json(got, ref, path: str = "$") -> str | None:
    """Same structure and keys; numbers within FLOAT_TOL, other leaves exact."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{path}: keys differ"
        for key in ref:
            problem = _compare_json(got[key], ref[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: list length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            problem = _compare_json(g, r, f"{path}[{i}]")
            if problem:
                return problem
        return None
    if isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return None if _close(float(got), ref, FLOAT_TOL) else f"{path}: {got} != {ref}"
    return None if got == ref and type(got) is type(ref) else f"{path}: {got!r} != {ref!r}"


def _compare_report(got: dict, ref: dict) -> str | None:
    def exact(report):
        return ([(c["name"], c["suite"], c["ok"]) for c in report["checks"]],
                report["passed"], report["failed"])

    if exact(got) != exact(ref):
        return "check names, suites, ok flags or totals differ"
    return None


def _compare_file(name: str, got: str, ref: str) -> str | None:
    try:
        if name.endswith(".manifest.json"):
            g, r = json.loads(got), json.loads(ref)
            g.pop("timestamp", None)
            r.pop("timestamp", None)
            return None if g == r else "manifest differs"
        if name == "report.json":
            return _compare_report(json.loads(got), json.loads(ref))
        if name.endswith(".json"):
            return _compare_json(json.loads(got), json.loads(ref))
        return _compare_csv(got, ref)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable: {exc!r}"


def compare(got: dict[str, str], ref: dict[str, str]) -> list[str]:
    """Problems found in ``got`` (file name -> text); empty when correct."""
    if set(got) != set(ref):
        return [f"files {sorted(got)} != reference {sorted(ref)}"]
    problems = []
    for name in sorted(ref):
        problem = _compare_file(name, got[name], ref[name])
        if problem:
            problems.append(f"{name}: {problem}")
    return problems


def count_rows(kind: str, text: str) -> int:
    """Output rows of a command's primary file."""
    if kind == "verify":
        return len(json.loads(text)["checks"])
    if kind == "tapestry":
        return len(json.loads(text))
    return sum(1 for line in text.splitlines()[1:] if not line.startswith("#"))
