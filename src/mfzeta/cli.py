"""Command-line front end: config ingestion, subcommands, CSV/JSON emission.

Subcommands: ``spectrum`` (sweep + envelope CSVs), ``zeta`` (one value as
JSON), ``tapestry`` (pole-lattice table as JSON), ``count`` (explicit-vs-
direct counting CSV), ``verify`` (self-check report, exit 1 on failure).
File-writing commands record a run manifest next to their outputs; CSV
bodies are byte-deterministic, so only the manifest carries a timestamp.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import sys
from bisect import bisect_left
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dimensions import (
    build_tapestry,
    counting_explicit,
    sample_off_jump_xs,
)
from .ifs_core import (
    RATIONAL_BOUND,
    AtomicMeasureSpec,
    ConfigError,
    FractalStringSpec,
    WeightedIFS,
    parse_rational,
    parse_system,
)
from .regularity import (
    AmbiguousRegularityError,
    FractionKey,
    OnePlusLogKey,
    RegularityKey,
    VectorKey,
    _PREC_LADDER,
    prepare,
)
from .spectra import ROW_BLOCK, ClassTable, concave_envelope, spectrum_sweep, sweep_width
from .verify import report_json, run_suite
from .zeta import (
    HYPOTHESIS_K_MAX,
    DivergenceError,
    HypothesisViolationError,
    KeyRangeError,
    closed_form_zeta,
    eval_series,
    multinomial_zeta,
)

# Work cap of one `count` run, in pole terms: (2*trunc+1 + POLE_TERMS_PER_X)
# per x value, where a term whose cos/sin argument |Im w| ln x passes
# FAST_TRIG_ARG counts SLOW_TERM_WEIGHT times.  libm reduces such arguments
# the slow way (from about 1.05e8): on a 2-vCPU Xeon VM numpy's cos and sin of
# 4,096 take 850-930 us against 210-260 us.  Half the counted poles are
# evaluated (mirror pairs), so for fibonacci, the slowest system, a counted
# term costs 6.6e-8 s at x = 5 (no argument past 1e8) and 3.1e-7 s at
# x = 1e300 (nearly all).  With 0.3 ms fixed cost per x (under 4,000 terms),
# a run within the cap ends in about 13 s (trunc 99,997,999, x = 1.1).  The
# largest argument is period * (trunc + 1) * ln x, x the largest --x or
# --xmax, and each x is priced as if it were that x.
POLE_TERMS_PER_X = 4_000
FAST_TRIG_ARG = 1e8
SLOW_TERM_WEIGHT = 6
POLE_TERM_CAP = 200_000_000

# Work cap of one `spectrum` run, in candidate class vectors C(kmax + w, w),
# w the sweep width; `zeta` applies it to the hypothesis check of an
# unequal-ratio class.  On the same VM both sweep paths, one numpy pass plus
# each row's text, written as preformatted lines a block at a time, cost
# about 0.014-0.018 ms per class, so a sweep within the cap ends in well
# under a minute: measured 2.3-2.5 s (77 MB peak) for 3 unequal ratios at
# kmax 99 (141,211 classes) and 1.5-1.8 s (61 MB) for 2 equal ratios at kmax
# 590 (105,951 classes).  Time would allow a larger cap; peak memory, about
# 0.3-0.35 KB per class above the interpreter's 30 MB, grows with it.
SWEEP_VECTOR_CAP = 175_000

# Work cap of `zeta --terms`, in series terms.  Just right of the convergence
# abscissa the tail bound is never reached, so every allowed term is summed.
# On the same VM a term costs about 4 us for a class vector of 2 slots and up
# to 10 us for 8 slots, so a run within the cap ends in under a minute.
ZETA_TERM_CAP = 5_000_000

# Cap on the bits of `zeta`'s exact value at an integer s = n, estimated as |n|
# times the larger degree of the closed form times log2 of the base's larger
# part: 3,600 digits, under Python's 4,300-digit str limit, with room for the
# coefficients.  Past it `exact` is null.
ZETA_EXACT_BITS = 12_000

# Work cap of one `tapestry` run, in candidate keys k1/K with K <= kmax, that
# is kmax(kmax + 1)/2; about 0.61 of them are reduced, one pole lattice each.
# Roots are solved once per law (one per numerator k1) and each row is written
# as its key is built, so peak memory does not grow with kmax (32 MB at kmax 64
# and at 599) and the cap bounds time only: on the same VM a sigma2 lattice
# (the slowest family) costs about 0.03 ms and a run within the cap ends in
# 3.3-4.3 s.
TAPESTRY_KEY_CAP = 180_000


# ---------------------------------------------------------------------------
# Run manifests and deterministic emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    """Record of one file-writing run; every output file is listed."""

    command: str
    config_path: str
    parameters: dict
    tool_version: str
    timestamp: str
    output_paths: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _write_manifest(out: Path, command: str, config: str, params: dict,
                    outputs: list[Path]) -> Path:
    manifest_path = out.with_suffix(".manifest.json")
    manifest = RunManifest(
        command=command,
        config_path=config,
        parameters=params,
        tool_version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        output_paths=tuple(str(p) for p in outputs),
    )
    manifest_path.write_text(manifest.to_json())
    return manifest_path


def q(cell: str) -> str:
    """A cell as minimal-quoting ``csv.writer(lineterminator="\\n")`` writes it:
    quoted, inner quotes doubled, if it holds ``,``, ``"`` or ``\\n``; else as is."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, header: str, lines, manifest_path: Path) -> None:
    """Header line, body, then a reference to the manifest (its name, never its
    timestamped content).  ``lines`` yields blocks of finished lines, each
    written as it comes, so the body is never held whole."""
    with path.open("w", newline="") as fh:
        fh.write(header + "\n")
        for block in lines:
            fh.writelines(block)
        fh.write(f"# manifest: {manifest_path.name}\n")


def _print_json(payload, out: Path | None) -> None:
    """Indented, key-sorted JSON and a newline, streamed to stdout or out
    without building the whole text."""
    with contextlib.nullcontext(sys.stdout) if out is None else out.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Argument helpers
# ---------------------------------------------------------------------------


def _load_system(args):
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError("<config>", f"cannot read {path}: {exc.strerror}") from exc
    return parse_system(text)


def _key_int(text: str) -> int:
    value = int(text)
    if abs(value) >= RATIONAL_BOUND:
        raise ConfigError("--alpha", f"{text.strip()} is not below 2**64")
    return value


def parse_alpha_key(text: str) -> RegularityKey:
    """Accept ``k1,k2,...`` (exponent vector), ``p/q`` or an integer
    (regularity fraction), or ``1+log:LEVEL`` (half-weight leftmost cells).

    Numbers obey the bounds of config rationals: below 2**64, with no
    out-of-range decimal exponent.
    """
    t = text.strip()
    if t.startswith("1+log:"):
        level = _key_int(t[len("1+log:"):])
        if level < 1:
            raise ConfigError("--alpha", f"need a one-plus-log level of at least 1, got {level}")
        return OnePlusLogKey(level=level)
    body = t[1:-1] if t.startswith("(") and t.endswith(")") else t
    if "," in body:
        return VectorKey(tuple(_key_int(x) for x in body.split(",")))
    return FractionKey(parse_rational(t, "--alpha"))


def _class_key(args, system) -> RegularityKey | None:
    """The --alpha key, if given; a string zeta takes none."""
    key = parse_alpha_key(args.alpha) if args.alpha is not None else None
    if isinstance(system, FractalStringSpec) and key is not None:
        raise ConfigError("--alpha", "string zetas take no class key")
    return key


def _require_finite(flag: str, value) -> None:
    """Refuse an infinite or NaN float or complex option value."""
    if not cmath.isfinite(value):
        raise ConfigError(flag, f"need a finite value, got {value}")


def _class_zeta(build, system, key):
    """build(system, key), naming --alpha when the key is too deep for doubles."""
    try:
        return build(system, key)
    except KeyRangeError as exc:
        raise ConfigError("--alpha", str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    system = _load_system(args)
    if isinstance(system, FractalStringSpec):
        raise ConfigError("type", "spectrum sweeps apply to ifs and atomic systems")
    if args.kmax < 1:
        raise ConfigError("--kmax", f"need a stage-sum cap of at least 1, got {args.kmax}")
    if isinstance(system, WeightedIFS):
        system = prepare(system)
    width = sweep_width(system)
    if math.comb(args.kmax + width, width) > SWEEP_VECTOR_CAP:
        raise ConfigError(
            "--kmax",
            f"C({args.kmax} + {width}, {width}) candidate class vectors exceed "
            f"the cap of {SWEEP_VECTOR_CAP:,} per run",
        )
    table = spectrum_sweep(system, K_max=args.kmax)
    out = Path(args.out)
    envelope_path = out.with_suffix(".envelope.csv")
    envelope = concave_envelope(table) if len(table) > 1 else None
    outputs = [out] if envelope is None else [out, envelope_path]
    manifest_path = _write_manifest(
        out, "spectrum", args.config,
        {"kmax": args.kmax, "precision_bits": _PREC_LADDER[0]}, outputs,
    )
    vertex_lines: list[str] = []
    blocks = _spectrum_blocks(table, envelope.rows if envelope else (), vertex_lines)
    _write_csv(out, "alpha,f,key,alpha_desc,f_desc", blocks, manifest_path)
    if envelope is None:
        p = table[0]
        print(
            f"warning: monofractal system: the spectrum degenerates to the "
            f"single point (D, D) = ({p.alpha!r}, {p.f!r}); no envelope written",
            file=sys.stderr,
        )
        print(f"spectrum: 1 point -> {out}")
        return 0
    _write_csv(envelope_path, "alpha,f", [vertex_lines], manifest_path)
    print(
        f"spectrum: {len(table)} points -> {out}; "
        f"envelope: {len(envelope.breakpoints)} vertices -> {envelope_path}"
    )
    return 0


def _spectrum_blocks(table, vertices, vertex_lines: list):
    """A spectrum CSV body as one line generator per ``ROW_BLOCK`` rows.  Each
    float is formatted once, by ``repr`` (the shortest round-trip decimal);
    the rows whose indices ``vertices`` lists (in increasing order) also go,
    as ``alpha,f`` lines of the same text, to ``vertex_lines``."""
    for lo in range(0, len(table), ROW_BLOCK):
        hi = lo + ROW_BLOCK
        alpha = list(map(repr, table.alpha[lo:hi].tolist()))
        f = list(map(repr, table.f[lo:hi].tolist()))
        vertex_lines.extend(
            f"{alpha[i - lo]},{f[i - lo]}\n"
            for i in vertices[bisect_left(vertices, lo):bisect_left(vertices, hi)]
        )
        yield (
            f"{a},{b},{key},{a_desc},{f_desc}\n"
            for a, b, key, a_desc, f_desc in zip(alpha, f, *_quoted_text(table, lo, hi))
        )


def _quoted_text(table, lo: int, hi: int):
    """The key, alpha_desc and f_desc cells of rows lo..hi-1, each as ``q``
    writes it."""
    if not isinstance(table, ClassTable):
        return [map(q, column) for column in table.text(lo, hi)]
    # a ClassTable column is one template, holding no quote or newline, filled
    # with integers, so its first cell's quoting holds for all
    return [c if q(c[0]) == c[0] else (f'"{x}"' for x in c) for c in table.text(lo, hi)]


def cmd_zeta(args) -> int:
    system = _load_system(args)
    try:
        s = complex(args.s)
    except ValueError:
        raise ConfigError("--s", f"malformed complex number {args.s!r}")
    _require_finite("--s", s)
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError("--tol", f"need a finite tail bound above 0, got {args.tol}")
    if args.terms < 1:
        raise ConfigError("--terms", f"need at least one series term, got {args.terms}")
    if args.terms > ZETA_TERM_CAP:
        raise ConfigError(
            "--terms", f"{args.terms:,} series terms exceed the cap of {ZETA_TERM_CAP:,} per run"
        )
    key = _class_key(args, system)

    if isinstance(system, WeightedIFS):
        if not isinstance(key, VectorKey):
            raise ConfigError(
                "--alpha", "ifs systems need an exponent-vector key, e.g. --alpha 2,1"
            )
        system = prepare(system)
        if not system.ifs.equal_ratios():
            # multinomial_zeta checks the class against every primitive vector
            # up to HYPOTHESIS_K_MAX, like a sweep to that depth
            width = system.width
            candidates = math.comb(HYPOTHESIS_K_MAX + width, width)
            if candidates > SWEEP_VECTOR_CAP:
                raise ConfigError(
                    "ratios",
                    f"the hypothesis check of an unequal-ratio class covers "
                    f"C({HYPOTHESIS_K_MAX} + {width}, {width}) = {candidates:,} "
                    f"candidate class vectors, above the cap of {SWEEP_VECTOR_CAP:,} per run",
                )
        zeta = _class_zeta(multinomial_zeta, system, key.vector)
        sv = eval_series(zeta, s, tail_tol=args.tol, max_terms=args.terms)
        payload = {
            "mode": "series",
            "label": zeta.label,
            "value_re": sv.value.real,
            "value_im": sv.value.imag,
            "tail_bound": sv.tail_bound,
            "terms": sv.terms,
        }
    else:
        rz = _class_zeta(closed_form_zeta, system, key)
        # an integer s takes the exact path first: its value may be a double
        # where z = base^s is not
        exact = value = None
        n, degree = int(s.real), max(rz.num.degree, rz.den.degree, 1)
        bits = abs(n) * degree * math.log2(max(rz.base.numerator, rz.base.denominator))
        if s.imag == 0 and s.real == n and bits <= ZETA_EXACT_BITS:
            zq = rz.base ** n
            exact_den = rz.den(zq)
            if exact_den == 0:
                raise ConfigError("--s", f"s = {args.s} is a pole of the closed form")
            exact_value = rz.num(zq) / exact_den
            exact = str(exact_value)
            # past the double range, the double path decides
            with contextlib.suppress(OverflowError):
                value = complex(exact_value)
        if value is None:
            try:
                z = rz.z_of(s)
            except OverflowError:
                raise ConfigError("--s", f"z = ({rz.base})^s overflows a double at s = {args.s}")
            den = rz.den(z)
            if abs(den) < 1e-15:
                raise ConfigError("--s", f"s = {args.s} is a pole of the closed form")
            value = rz.num(z) / den
        payload = {
            "mode": "rational",
            "label": rz.label,
            "value_re": value.real,
            "value_im": value.imag,
            "exact": exact,
        }
    _print_json(payload, Path(args.out) if args.out else None)
    return 0


# a tapestry row as ``json.dump(rows, indent=2, sort_keys=True)`` writes it,
# after "[" or ","; every value is a finite float, which json writes as its repr
_TAPESTRY_ROW = (
    '%s\n  {\n    "alpha": %r,\n    "period": %r,\n    "real_part": %r,\n'
    '    "residue_im": %r,\n    "residue_re": %r,\n    "shift": %r\n  }'
)


def cmd_tapestry(args) -> int:
    system = _load_system(args)
    if not isinstance(system, AtomicMeasureSpec):
        raise ConfigError("type", "tapestries are built for the atomic families")
    if args.kmax < 1:
        raise ConfigError("--kmax", f"need a key depth of at least 1, got {args.kmax}")
    keys = args.kmax * (args.kmax + 1) // 2
    if keys > TAPESTRY_KEY_CAP:
        raise ConfigError(
            "--kmax",
            f"{keys:,} candidate keys k1/K exceed the cap of {TAPESTRY_KEY_CAP:,} per run",
        )
    lines = (
        _TAPESTRY_ROW % (
            "," if i else "[", float(alpha), lat.period, lat.real_part,
            lat.residue.imag + 0.0, lat.residue.real + 0.0, lat.phase_shift,
        )
        for i, (alpha, lat) in enumerate(build_tapestry(system, K_max=args.kmax))
    )
    # the first key is the deepest: one too deep for doubles is refused here,
    # before --out is opened
    first = next(lines)
    with contextlib.nullcontext(sys.stdout) if not args.out else open(args.out, "w") as fh:
        fh.write(first)
        fh.writelines(lines)
        fh.write("\n]\n")
    return 0


def cmd_count(args) -> int:
    system = _load_system(args)
    if isinstance(system, WeightedIFS):
        raise ConfigError("type", "counting tables exist for string and atomic systems")
    key = _class_key(args, system)
    if isinstance(system, AtomicMeasureSpec) and key is None:
        raise ConfigError("--alpha", "atomic families need a class key, e.g. --alpha 1/2")
    floats = [("--xmin", args.xmin), ("--xmax", args.xmax), *(("--x", x) for x in args.x or ())]
    for flag, value in floats:
        _require_finite(flag, value)
    if args.trunc < 100:
        raise ConfigError("--trunc", f"need a truncation Z of at least 100, got {args.trunc}")
    for x in args.x or ():
        if x <= 1:
            raise ConfigError("--x", f"need x above 1, got {x}")
    if not args.x:
        if args.samples < 1:
            raise ConfigError("--samples", f"need at least one sample, got {args.samples}")
        if not 1 < args.xmin < args.xmax:
            raise ConfigError(
                "--xmin", f"need 1 < xmin < xmax, got xmin {args.xmin} and xmax {args.xmax}"
            )
    if not 0 <= args.jump_guard < 0.5:
        raise ConfigError(
            "--jump-guard",
            f"need a jump guard in [0, 0.5), got {args.jump_guard}: "
            "jumps are one log-unit apart",
        )
    rz = _class_zeta(closed_form_zeta, system, key)
    points = len(args.x) if args.x else args.samples
    # every pole lattice of a class zeta has the period 2 pi / -ln(base)
    period = 2 * math.pi / rz.log_unit
    lnx = math.log(max(args.x or [args.xmax]))  # above 0: every x exceeds 1
    fast = min(args.trunc, int(FAST_TRIG_ARG / (period * lnx)))
    slow = 2 * (args.trunc - fast)  # terms per x past FAST_TRIG_ARG
    terms = (2 * args.trunc + 1 + POLE_TERMS_PER_X + (SLOW_TERM_WEIGHT - 1) * slow) * points
    if terms > POLE_TERM_CAP:
        raise ConfigError(
            "--trunc/--samples",
            f"(2*trunc+1 + {POLE_TERMS_PER_X} + {SLOW_TERM_WEIGHT - 1}*{slow:,} slow) * "
            f"{points} x values = {terms:,} pole terms exceeds the cap of "
            f"{POLE_TERM_CAP:.3g} per run (a slow term has a cos/sin argument "
            f"|Im w| ln x above {FAST_TRIG_ARG:.0e})",
        )
    if args.x:
        xs = list(args.x)
    else:
        xs = sample_off_jump_xs(
            rz, count=args.samples, lo=args.xmin, hi=args.xmax,
            guard=args.jump_guard, seed=args.seed,
        )
    rows = [
        (r.x, r.direct, r.explicit_value, r.explicit_value - r.direct)
        for r in counting_explicit(system, key, xs, Z=args.trunc, jump_guard=args.jump_guard)
    ]
    out = Path(args.out)
    manifest_path = _write_manifest(
        out, "count", args.config,
        {
            "alpha": args.alpha, "trunc": args.trunc, "jump_guard": args.jump_guard,
            "samples": len(xs), "xmin": args.xmin, "xmax": args.xmax, "seed": args.seed,
        },
        [out],
    )
    lines = (f"{x!r},{direct},{explicit!r},{error!r}\n" for x, direct, explicit, error in rows)
    _write_csv(out, "x,direct,explicit,error", [lines], manifest_path)
    worst = max(abs(r[3]) for r in rows)
    print(f"count: {len(rows)} rows -> {out}; max |explicit - direct| = {worst:.3g}")
    return 0


def cmd_verify(args) -> int:
    if args.threads < 1:
        raise ConfigError("--threads", f"need at least 1 thread, got {args.threads}")
    results = run_suite(args.suite)
    report = report_json(results)
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfzeta",
        description="Multifractal spectra and complex dimensions of "
        "self-similar measures via partition zeta functions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="path to a JSON system config")

    spectrum = sub.add_parser(
        "spectrum", help="sweep the multifractal spectrum and its concave envelope"
    )
    add_config(spectrum)
    spectrum.add_argument(
        "--kmax", type=int, default=64,
        help="stage-sum cap (default 64); a run is capped at C(kmax + w, w) <= "
        f"{SWEEP_VECTOR_CAP:,} candidate class vectors, w the sweep width "
        "(distinct probabilities for equal ratios, else the number of maps; 2 for "
        "atomic systems)",
    )
    spectrum.add_argument("--out", required=True, help="spectrum CSV path")
    spectrum.set_defaults(func=cmd_spectrum)

    zeta = sub.add_parser("zeta", help="evaluate one partition zeta function")
    add_config(zeta)
    zeta.add_argument(
        "--alpha", help="class key: k1,k2,... or p/q or 1+log:LEVEL (see docs)"
    )
    zeta.add_argument("--s", required=True, help="evaluation point, e.g. 2 or 1+3j")
    zeta.add_argument(
        "--tol", type=float, default=1e-12, help="series tail bound (default 1e-12)"
    )
    zeta.add_argument(
        "--terms", type=int, default=100000,
        help=f"series term cap (default 100000, at most {ZETA_TERM_CAP:,})",
    )
    zeta.add_argument("--out", help="write the JSON here instead of stdout")
    zeta.set_defaults(func=cmd_zeta)

    tapestry = sub.add_parser(
        "tapestry", help="pole lattices of every class key up to --kmax"
    )
    add_config(tapestry)
    tapestry.add_argument(
        "--kmax", type=int, default=64,
        help="key depth cap (default 64); a run is capped at kmax(kmax + 1)/2 <= "
        f"{TAPESTRY_KEY_CAP:,} candidate keys k1/K",
    )
    tapestry.add_argument("--out", help="write the JSON here instead of stdout")
    tapestry.set_defaults(func=cmd_tapestry)

    count = sub.add_parser(
        "count", help="explicit-formula vs direct counting table"
    )
    add_config(count)
    count.add_argument("--alpha", help="class key for atomic families, e.g. 1/2")
    count.add_argument(
        "--x", action="append", type=float,
        help="evaluate at this x (repeatable); default: sampled off-jump points",
    )
    count.add_argument(
        "--samples", type=int, default=25,
        help="sample count (default 25); see --trunc for the cap",
    )
    count.add_argument("--xmin", type=float, default=2.0, help="sample range low (default 2)")
    count.add_argument("--xmax", type=float, default=1e6, help="sample range high (default 1e6)")
    count.add_argument("--seed", type=int, default=7, help="sampling seed (default 7)")
    count.add_argument(
        "--trunc", type=int, default=20000,
        help="pole-sum truncation Z (default 20000); a run is capped at "
        f"(2Z+1 + {POLE_TERMS_PER_X}) * (number of x) <= {POLE_TERM_CAP:.3g} pole terms, "
        f"each term with |Im w| ln x above {FAST_TRIG_ARG:.0e} counted "
        f"{SLOW_TERM_WEIGHT} times",
    )
    count.add_argument(
        "--jump-guard", type=float, default=0.02,
        help="minimum log-distance from counting jumps (default 0.02)",
    )
    count.add_argument("--out", required=True, help="counting CSV path")
    count.set_defaults(func=cmd_count)

    verify = sub.add_parser("verify", help="run the self-check suites")
    verify.add_argument(
        "--suite", default="all", choices=("oracle", "zeta", "spectra", "counting", "all"),
    )
    verify.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility (must be >= 1); checks always run "
        "serially, since a thread pool made these CPU-bound checks no faster",
    )
    verify.add_argument("--out", help="write the report here instead of stdout")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        AmbiguousRegularityError,
        DivergenceError,
        HypothesisViolationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
