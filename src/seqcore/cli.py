"""Batch command-line front end.

Subcommands: transform, invert, paranorm, basis-residual, dual-check,
class-check, core, core-include, verify.  Inputs come from JSON documents or
generator shorthand ("alternating", "constant:r=2,s=1"); reports are rendered
canonically (sorted keys, 17 significant digits), so identical configurations
produce byte-identical output.

Exit codes: 0 all verdicts hold / inclusion true / computation done, 1 some
verdict fails / inclusion false, 2 inconclusive or nothing verified, 3
unreadable input or schema violation (including invalid generator values,
a generator's integer param (seed, m, k) with a fractional part, sequence
values or dense matrix entries that are not finite numbers, ragged dense
matrices, a number in a JSON document that is not a JSON number (a numeric
string such as "1.5", or an integer beyond double range, in dense entries,
sequence values, r/s/alpha, generator params, p, q, tol or density_tol; a
boolean in a generator param, p, q, tol or density_tol; and a string or a
boolean in an integer field such as the ladder; only a list of numbers,
such as dense rows, sequence values or r/s/alpha, takes true as 1.0), a JSON
document the parser refuses (an integer literal of more than 4300 digits,
arrays nested too deep), non-integer lists, a fractional number in a
ladder, b_ladder, window, directions or grid_n (raised by the library
reader, ladder.truncation_ladder, ladder.witness_ladder or the cores, while
8.0 reads as 8), a band or double_band matrix parameter that is zero or
not finite (BandSystem's rules), a scalar double_band r or s, or one with
fewer values than the largest truncation, non-numeric tolerances, a
core-include tol that is not finite, density tolerances outside (0, 1),
non-positive exponents, exponent lists shorter than the largest
truncation, truncations below 1, core windows outside the sequence,
direction counts outside [4, 1024] (cores.MAX_DIRECTIONS), grid_n
outside [0, 64] (cores.MAX_GRID_N), B ladders that are empty or hold a
B <= 1, cutoffs outside [0, n), sup paranorms with some p_k <= 1e-9, a
missing p or q, an unknown (space, dual) pair, exponents on both sides of 1
where the dual rules split there, and a value that names both an existing
file and a generator), 4 internal evaluation errors (an overflow, or memory
running out).  Each error is one "seqcore: ..." line on stderr.

A caller-argument rule is checked once, by the library function that reads
the argument, which raises ``SchemaError`` (exit 3); this module parses
arguments and config documents into the values those functions take, and
passes config integers on as they are.  It reads no integer itself beyond
argv text and the n it uses for a core spec.
"""

from __future__ import annotations

import argparse
import sys as _sys
import time
from pathlib import Path

from . import acceptance, band_ops, cores, duals, matclass
from .generators import MATRIX_NAMES, SEQUENCE_NAMES, SYSTEM_NAMES
from .io import canonical_dumps, load_json, matrix_from_spec, number, number_list, region_to_csv, seq_from_spec, seq_to_json, system_from_spec
from .ladder import truncation_ladder
from .types import ExponentSeq, SchemaError, coerce_int

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_SCHEMA = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {"holds": EXIT_HOLDS, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}
_GENERATOR_NAMES = frozenset(MATRIX_NAMES + SEQUENCE_NAMES + SYSTEM_NAMES)


def _resolve_spec(text: str):
    """A CLI value is either a JSON document path or generator shorthand, never both."""
    if text is None:
        return None
    if Path(text).exists():
        name = text.partition(":")[0].strip()
        if name in _GENERATOR_NAMES:
            raise SchemaError(
                f"{text!r} is both an existing file and the {name!r} generator; "
                f"write ./{text} for the file or {name}: for the generator"
            )
        return load_json(text)
    return text


def _parse_exponents(text: str, n: int) -> ExponentSeq:
    """A constant or comma-separated exponents, truncated to n: ``ExponentSeq.M`` reads the whole sequence."""
    try:
        vals = [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise SchemaError(f"p must be a number or comma-separated numbers: {text!r}") from exc
    return ExponentSeq.coerce(vals[0] if len(vals) == 1 else vals[:n], n, "p")


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise SchemaError(f"{what} must be comma-separated integers: {text!r}") from exc


def _config_exponents(value, n: int, what: str) -> ExponentSeq:
    """A JSON number or a list of them from a config document, as an exponent sequence of n or more values."""
    return ExponentSeq.coerce(number_list(value, what) if isinstance(value, list) else number(value, what), n, what)


def _parse_window(value, n: int, min_start: int = 0):
    """The ints of a "start,stop" argument, or a config list as it is, for the cores to read; the last three quarters by default."""
    if value is None:
        return max(min_start, n // 4), n
    return _parse_ints(value, "window") if isinstance(value, str) else value


def _emit(doc: dict, out: str | None) -> None:
    rendered = canonical_dumps(doc)
    if out:
        Path(out).write_text(rendered, encoding="utf-8")
    else:
        _sys.stdout.write(rendered)


def _check_config(config: dict, command: str, allowed: set, required: set) -> None:
    if not isinstance(config, dict):
        raise SchemaError(f"{command}: config must be a JSON object")
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise SchemaError(f"{command}: unknown config keys {unknown}")
    missing = sorted(required - set(config))
    if missing:
        raise SchemaError(f"{command}: missing config keys {missing}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_transform(args) -> int:
    """transform (T applied to --x) and invert (T's inverse applied to --y, read into args.x)."""
    x = seq_from_spec(_resolve_spec(args.x), args.n)
    sys = system_from_spec(_resolve_spec(args.system), x.n)
    _emit({"command": args.command, "n": x.n} | seq_to_json(args.apply(x, sys)), args.out)
    return EXIT_HOLDS


def _cmd_paranorm(args) -> int:
    n = args.n
    x = seq_from_spec(_resolve_spec(args.x), n)
    p = _parse_exponents(args.p, x.n)
    doc = {"command": "paranorm", "kind": args.kind, "n": x.n}
    if args.raw:
        doc["value"] = band_ops.maddox_paranorm(x, p, args.kind)
    else:
        sys = system_from_spec(_resolve_spec(args.system), x.n)
        doc["value"] = band_ops.space_paranorm(x, sys, p, args.kind)
    _emit(doc, args.out)
    return EXIT_HOLDS


def _cmd_basis_residual(args) -> int:
    n = args.n
    x = seq_from_spec(_resolve_spec(args.x), n)
    sys = system_from_spec(_resolve_spec(args.system), x.n)
    p = _parse_exponents(args.p, x.n)
    cutoffs = _parse_ints(args.cutoffs, "cutoffs")
    if not all(0 <= c < x.n for c in cutoffs):
        raise SchemaError(f"cutoffs {args.cutoffs!r} invalid for length {x.n} (each in [0, {x.n}))")
    y = band_ops.forward_transform(x, sys)
    rows = [
        {
            "cutoff": c,
            "residual": band_ops.expansion_residual(x, sys, p, c),
            "tail": band_ops.tail_paranorm(y, p, c),
        }
        for c in cutoffs
    ]
    _emit({"command": "basis-residual", "n": x.n, "rows": rows}, args.out)
    return EXIT_HOLDS


_DUAL_KEYS = {"command", "a", "system", "p", "space", "dual", "ladder", "b_ladder", "out"}


def _ladder_config(args, command: str, allowed: set, required: set) -> tuple[dict, list[int]]:
    """The checked config document of a ladder command, with --ladder in place of its ladder, and that ladder."""
    config = load_json(args.config)
    if args.ladder and isinstance(config, dict):  # _check_config rejects the rest
        config = dict(config, ladder=_parse_ints(args.ladder, "ladder"))
    _check_config(config, command, allowed, required | {"ladder"})
    return config, truncation_ladder(config["ladder"])


def _cmd_dual_check(args) -> int:
    config, ladder = _ladder_config(args, "dual-check", _DUAL_KEYS, {"a", "system", "p", "space", "dual"})
    n = ladder[-1]
    a = seq_from_spec(config["a"], n)
    sys = system_from_spec(config["system"], n)
    p = _config_exponents(config["p"], n, "p")
    report = duals.dual_report(a, sys, p, config["space"], config["dual"], ladder, config.get("b_ladder", duals.DEFAULT_B_LADDER))
    _emit(report.to_json(), args.out or config.get("out"))
    return _VERDICT_EXIT[report.aggregate]


_CLASS_KEYS = {"command", "matrix", "system", "class", "p", "q", "ladder", "out"}


def _cmd_class_check(args) -> int:
    config, ladder = _ladder_config(args, "class-check", _CLASS_KEYS, {"matrix", "system", "class"})
    n = ladder[-1]
    matrix = matrix_from_spec(config["matrix"], n)
    sys = system_from_spec(config["system"], n)
    p = _config_exponents(config["p"], n, "p") if "p" in config else None
    q = _config_exponents(config["q"], n, "q") if "q" in config else None
    try:
        report = matclass.class_report(matrix, config["class"], sys, p=p, q=q, ladder=ladder)
    except KeyError as exc:
        raise SchemaError(str(exc)) from exc
    _emit(report.to_json(), args.out or config.get("out"))
    return _VERDICT_EXIT[report.aggregate]


# the core options' defaults, for the core command and core-include specs alike
_CORE_DEFAULTS = {"method": "hull", "directions": cores.DEFAULT_DIRECTIONS, "density_tol": cores.DEFAULT_DENSITY_TOL, "grid_n": cores.DEFAULT_GRID_N}
_CORE_OPTIONS = ("window", *_CORE_DEFAULTS)


def _cmd_core(args) -> int:
    spec = {"kind": args.kind, "x": _resolve_spec(args.x), "n": args.n}
    if args.system is not None:
        spec["system"] = _resolve_spec(args.system)
    spec |= {key: getattr(args, key) for key in _CORE_OPTIONS if getattr(args, key) is not None}
    region = _region_from_config(spec)
    if args.out_csv:
        Path(args.out_csv).write_text(region_to_csv(region), encoding="utf-8")
    _emit({"command": "core", "kind": args.kind} | region.to_json(), args.out)
    return EXIT_HOLDS


_CORE_SPEC_KEYS = {"kind", "x", "system", "n", *_CORE_OPTIONS}
_INCLUDE_KEYS = {"command", "inner", "outer", "tol", "out"}


def _region_from_config(spec: dict) -> cores.RegionEstimate:
    """The region of a core spec: a core-include config's inner or outer, or the core command's options.

    The cores read and check the window, direction count, density tolerance
    and probe grid, each passed on as the spec holds it; grid_n is read for
    every kind, as every kind accepts it.
    """
    _check_config(spec, "core spec", _CORE_SPEC_KEYS, {"kind", "x", "n"})
    spec = _CORE_DEFAULTS | spec
    n = coerce_int(spec["n"], "n")
    x = seq_from_spec(spec["x"], n)
    kind, method = spec["kind"], spec["method"]
    sys = system_from_spec(spec["system"], n) if "system" in spec else None
    if kind == "alpha" and sys is None:
        raise SchemaError("alpha cores need a system")
    window = _parse_window(spec.get("window"), n, 1 if kind == "alpha" else 0)
    directions, grid_n = spec["directions"], cores.check_grid_n(spec["grid_n"])
    density_tol = number(spec["density_tol"], "density_tol")
    if kind == "alpha":
        return cores.alpha_core(x, sys, window, directions)
    if kind == "k":
        if method == "hull":
            return cores.cluster_hull(x, window, directions)
        if method == "disc":
            return cores.disc_core(x, window, n_directions=directions, grid_n=grid_n)
        raise SchemaError(f"unknown core method {method!r} (expected hull or disc)")
    if kind == "st":
        return cores.st_core(x, window, density_tol, n_directions=directions, grid_n=grid_n)
    raise SchemaError(f"unknown core kind {kind!r} (expected alpha, k, or st)")


def _cmd_core_include(args) -> int:
    config = load_json(args.config)
    _check_config(config, "core-include", _INCLUDE_KEYS, {"inner", "outer"})
    inner = _region_from_config(config["inner"])
    outer = _region_from_config(config["outer"])
    tol = number(config.get("tol", args.tol), "tol")
    included, violation = cores.region_included(inner, outer, tol)
    _emit(
        {
            "command": "core-include",
            "included": included,
            "max_violation": violation,
            "tol": tol,
            "inner": inner.to_json(),
            "outer": outer.to_json(),
        },
        args.out or config.get("out"),
    )
    return EXIT_HOLDS if included else EXIT_FAILS


def _cmd_verify(args) -> int:
    if args.select is None:
        ids = list(acceptance.CHECK_IDS)
    else:
        ids = [c for c in args.select.split(",") if c]
    if not ids:
        _sys.stderr.write("nothing verified: empty selection\n")
        return EXIT_INCONCLUSIVE
    try:
        checks = [acceptance.check_function(cid) for cid in ids]
    except KeyError as exc:
        raise SchemaError(str(exc)) from exc
    results, elapsed = [], []
    for check in checks:
        start = time.perf_counter()
        results.append(check())
        elapsed.append(time.perf_counter() - start)
    width = max(len(r.name) for r in results)
    for r, secs in zip(results, elapsed):  # timings go to this line only, never into --out
        flag = "PASS" if r.passed else "FAIL"
        budget = acceptance.BUDGETS_S.get(r.check_id)
        timing = f"{secs:.2f} s" + ("" if budget is None else f" of {budget:g} s budget")
        _sys.stdout.write(f"[{flag}] {r.check_id:>4}  {r.name:<{width}}  {r.detail}  ({timing})\n")
    if args.out:
        doc = {"checks": [r.to_json() for r in results], "all_passed": all(r.passed for r in results)}
        Path(args.out).write_text(canonical_dumps(doc), encoding="utf-8")
    return EXIT_HOLDS if all(r.passed for r in results) else EXIT_FAILS


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are schema errors (exit 3), not argparse's exit 2, which means inconclusive here."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqcore", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, system=True):
        sp.add_argument("--n", type=int, default=256, help="truncation length")
        if system:
            sp.add_argument("--system", help="band system document or shorthand")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")

    for command, flag, apply, text in (
        ("transform", "--x", band_ops.forward_transform, "apply the band transform to a sequence"),
        ("invert", "--y", band_ops.inverse_transform, "invert the band transform"),
    ):
        sp = sub.add_parser(command, help=text)
        sp.add_argument(flag, dest="x", metavar=flag[2:].upper(), required=True)
        add_common(sp)
        sp.set_defaults(fn=_cmd_transform, apply=apply)

    sp = sub.add_parser("paranorm", help="variable-exponent paranorm of a (transformed) sequence")
    sp.add_argument("--x", required=True)
    sp.add_argument("--p", required=True, help="constant or comma-separated exponents")
    sp.add_argument("--kind", choices=("sup", "sum"), default="sup")
    sp.add_argument("--raw", action="store_true", help="skip the band transform")
    add_common(sp)
    sp.set_defaults(fn=_cmd_paranorm)

    sp = sub.add_parser("basis-residual", help="basis expansion residual ladder")
    sp.add_argument("--x", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--cutoffs", required=True, help="comma-separated expansion cutoffs")
    add_common(sp)
    sp.set_defaults(fn=_cmd_basis_residual)

    for command, fn, text in (
        ("dual-check", _cmd_dual_check, "dual-set condition report from a config"),
        ("class-check", _cmd_class_check, "mapping-class condition report from a config"),
    ):
        sp = sub.add_parser(command, help=text)
        sp.add_argument("--config", required=True)
        sp.add_argument("--ladder", help="comma-separated truncations overriding the config")
        sp.add_argument("--out")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("core", help="core region of a sequence")
    sp.add_argument("--kind", choices=("k", "st", "alpha"), required=True)
    sp.add_argument("--method", choices=("hull", "disc"), help="estimator for plain cores (default: %(default)s)")
    sp.add_argument("--x", required=True)
    sp.add_argument("--window", help="start,stop (default: last three quarters)")
    sp.add_argument("--directions", type=int, help=f"support-function directions, 4 to {cores.MAX_DIRECTIONS} (default: %(default)s)")
    sp.add_argument("--density-tol", dest="density_tol", type=float, help="st cores, in (0, 1) (default: %(default)s)")
    sp.add_argument("--grid-n", dest="grid_n", type=int, help=f"probe grid side, 0 to {cores.MAX_GRID_N} (default: %(default)s)")
    sp.add_argument("--out-csv", dest="out_csv", help="write region vertices as CSV")
    add_common(sp)
    sp.set_defaults(fn=_cmd_core, **_CORE_DEFAULTS)

    sp = sub.add_parser("core-include", help="support-function inclusion test of two regions")
    sp.add_argument("--config", required=True)
    sp.add_argument("--tol", type=float, default=0.05)
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_core_include)

    sp = sub.add_parser("verify", help="run the acceptance battery")
    sp.add_argument("--select", help="comma-separated check ids (default: all)")
    sp.add_argument("--out", help="write the JSON verification report here")
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        _sys.stderr.write(f"seqcore: {exc}\n")
        return EXIT_SCHEMA
    except (ValueError, KeyError, IndexError, OverflowError, OSError) as exc:
        _sys.stderr.write(f"seqcore: {exc}\n")
        return EXIT_INTERNAL
    except MemoryError as exc:
        _sys.stderr.write(f"seqcore: out of memory ({exc})\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
