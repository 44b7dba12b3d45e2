"""Command-line front end.

Subcommands:
  analyze    print the line/incidence statistics of a point-set file
  verify     run the inequality checks (all, or those --suite names) on a point-set file
  generate   write a generated configuration in the JSON point format
  constants  tabulate bound-constant enclosures over a range of c

The constants tables only format the per-c records that the scans in
bounds return (built by one record builder per family); no constant
formula is written here.

Exit codes: 0 success; 1 I/O, parse, or domain errors; 2 a verification
check failed (or the cross-check mismatched); 3 a constant scan could
not isolate its argmax at the refinement limit.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import bounds, generators
from .arrangement import Arrangement, PointSet, build_arrangement, max_lines_through_point
from .errors import PointLineError, Unresolved
from .oracle import certify_statistics

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2
EXIT_UNRESOLVED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for check
    # failures here, so route usage problems through the normal error path
    def error(self, message):
        raise _UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a rational: {text!r}") from exc


def _parameters(gen) -> tuple[str, ...]:
    """The names of a generator's parameters, in order (all positional-or-keyword)."""
    return gen.__code__.co_varnames[:gen.__code__.co_argcount]


@functools.cache  # built on the first main call; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="pointline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="line/incidence statistics of a point-set file")
    p_analyze.add_argument("input", help="point-set JSON file")
    p_analyze.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run the inequality checks on a point-set file")
    p_verify.add_argument("input", help="point-set JSON file")
    p_verify.add_argument("--cross-check", action="store_true",
                          help="first certify the lines of 3 or more points that the exact "
                               "loop found, and check the printed statistics against a "
                               "recount from them")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--suite", default=None,
                          help="comma-separated check names to run (default: all)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("generate", help="write a generated point configuration")
    kinds = {kind.replace("_", "-"): gen for kind, gen in generators._GENERATORS.items()}
    p_gen.add_argument("kind", choices=tuple(kinds))
    takes_n = ", ".join(kind for kind, gen in kinds.items() if "n" in _parameters(gen))
    p_gen.add_argument("--n", type=int, help=f"point count ({takes_n})")
    p_gen.add_argument("--w", type=int, help="grid width")
    p_gen.add_argument("--h", type=int, help="grid height")
    p_gen.add_argument("--seed", type=int, help="random generator seed")
    p_gen.add_argument("--bound", type=int, help="random lattice coordinate bound")
    p_gen.add_argument("--out", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_const = sub.add_parser("constants", help="tabulate bound-constant enclosures")
    p_const.add_argument("--family", choices=("wd", "few"), required=True)
    p_const.add_argument("--c-min", type=int, default=None,
                         help="first c of the scan (default: the family's smallest c)")
    p_const.add_argument("--c-max", type=int, default=200)
    p_const.add_argument("--eps", type=_rational, default=None,
                         help="also tabulate the incidence coefficient at this eps in (0, 1/2) (wd only)")
    p_const.add_argument("--cutoff", type=int, default=bounds.DEFAULT_CUTOFF,
                         help=f"last series term summed, 1..{bounds.MAX_CUTOFF}; the rest "
                              "is bracketed, and the cutoff doubles up to "
                              f"{bounds.MAX_CUTOFF} while the argmax is not isolated "
                              f"(default: {bounds.DEFAULT_CUTOFF})")
    p_const.add_argument("--alpha", type=_rational, default=bounds.DEFAULT_CONSTANTS.alpha)
    p_const.add_argument("--beta", type=_rational, default=bounds.DEFAULT_CONSTANTS.beta)
    p_const.add_argument("--format", choices=("text", "json"), default="text")
    p_const.set_defaults(func=cmd_constants)

    return parser


def _dumps(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=1) for dicts with str keys, lists, str, int, bool and None.

    json.dumps takes its pure-Python encoder whenever indent is set; this
    walk lays a report out the same way, escapes each string with the C
    function that json.dumps uses, and recurses only into containers.
    Any other type is a TypeError.
    """
    kind = type(obj)
    if kind is not dict and kind is not list:
        if kind is not str and kind is not int and kind is not bool and obj is not None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return _dumps([obj])[3:-2]  # the one value between "[\n " and "\n]"
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = newline + " "
    if kind is list:
        values = [
            encode_basestring_ascii(v) if type(v) is str else repr(v) if type(v) is int
            else ("true" if v else "false") if type(v) is bool else "null" if v is None
            else _dumps(v, inner)
            for v in obj
        ]
        return "[" + inner + ("," + inner).join(values) + newline + "]"
    items = [
        encode_basestring_ascii(k) + ": " + (
            encode_basestring_ascii(v) if type(v) is str else repr(v) if type(v) is int
            else ("true" if v else "false") if type(v) is bool else "null" if v is None
            else _dumps(v, inner))
        for k, v in obj.items()
    ]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except Unresolved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED
    except (_UsageError, PointLineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _stats_dict(descriptor: str, arr: Arrangement) -> dict:
    idx, count = max_lines_through_point(arr)
    return {
        "input": descriptor,
        "n": arr.n,
        "num_lines": arr.num_lines,
        "incidences": arr.incidences,
        "max_collinear": arr.max_collinear,
        "s": {str(i): count for i, count in arr.size_hist.items()},
        "max_point_lines": {"index": idx, "count": count},
    }


def _print_stats_text(stats: dict) -> None:
    print(f"input: {stats['input']}")
    print(f"n: {stats['n']}")
    print(f"lines: {stats['num_lines']}")
    print(f"incidences: {stats['incidences']}")
    print(f"max_collinear: {stats['max_collinear']}")
    for i, count in stats["s"].items():
        print(f"s[{i}]: {count}")
    mpl = stats["max_point_lines"]
    print(f"max_point_lines: index={mpl['index']} count={mpl['count']}")


def cmd_analyze(args) -> int:
    ps = generators.load_points_file(args.input)
    arr = build_arrangement(ps)
    stats = _stats_dict(args.input, arr)
    if args.format == "json":
        print(_dumps(stats))
    else:
        _print_stats_text(stats)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify(
    ps: PointSet,
    descriptor: str = "<memory>",
    cross_check: bool = False,
    suite: list[str] | None = None,
) -> tuple[int, dict]:
    """Build, optionally cross-check, and run the inequality checks.

    Returns (exit_code, report_dict); the CLI layer only formats it.
    Only the checks the suite names run (default: all).  An empty suite
    or an unknown suite name is an error before any work.

    The cross-check compares the printed size_hist and lines_per_point
    with the recount of oracle.certify_statistics from the lines of 3 or
    more points that the exact loop hands out, which it first certifies
    to be exactly those lines.  The build runs that loop once: on the
    exact path the same run counts the printed statistics, and on the
    int64 path it is an exact recount beside the numpy kernel's.
    """
    if suite is not None:
        bounds.check_suite(suite)
    long_lines = [] if cross_check else None
    arr = build_arrangement(ps, lines=long_lines)
    report = _stats_dict(descriptor, arr)
    report["l"] = arr.max_collinear

    if cross_check:
        agree = certify_statistics(ps, long_lines) == (dict(arr.size_hist), list(arr.lines_per_point))
        report["cross_check"] = "ok" if agree else "mismatch"
        if not agree:
            return EXIT_CHECK_FAILED, report

    checks = bounds.verify_theorems(arr, suite)
    # TheoremCheck's fields in order, with each side as an exact rational string
    report["checks"] = [{"name": name, "applicable": applicable, "relation": relation, "lhs": str(lhs),
                         "rhs": str(rhs), "holds": holds, "note": note}
                        for name, applicable, relation, lhs, rhs, holds, note in checks]
    failed = any(c.holds is False for c in checks)
    return (EXIT_CHECK_FAILED if failed else EXIT_OK), report


def _print_verify_text(report: dict) -> None:
    _print_stats_text(report)
    if "cross_check" in report:
        print(f"cross_check: {report['cross_check']}")
    for c in report.get("checks", []):
        verdict = {True: "holds", False: "FAILED", None: "not-applicable"}[c["holds"]]
        suffix = f"  ({c['note']})" if c["note"] else ""
        print(f"{c['name']}: {c['lhs']} {c['relation']} {c['rhs']} -> {verdict}{suffix}")


def cmd_verify(args) -> int:
    ps = generators.load_points_file(args.input)
    suite = None if args.suite is None else [s.strip() for s in args.suite.split(",")]
    code, report = run_verify(ps, args.input, cross_check=args.cross_check, suite=suite)
    if args.format == "json":
        print(_dumps(report))
    else:
        _print_verify_text(report)
    return code


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    gen = generators._GENERATORS[args.kind.replace("-", "_")]
    takes = _parameters(gen)
    # the generator flags are the parameters of all generators; one that
    # this generator does not take is refused, not ignored
    for other in generators._GENERATORS.values():
        for name in _parameters(other):
            if name not in takes and getattr(args, name, None) is not None:
                raise _UsageError(f"generator {args.kind!r} does not take --{name}")
    params = {}
    # each generator's parameters, in order, are the flags it requires
    for name in takes:
        params[name] = getattr(args, name)
        if params[name] is None:
            raise _UsageError(f"generator {args.kind!r} requires --{name}")
    ps = gen(**params)
    if args.out is None:
        generators.dump_points(ps, sys.stdout)
    else:
        generators.save_points_file(ps, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


_ENCLOSURE_SCALE = 10**15


def _scaled_str(num: int) -> str:
    """num / _ENCLOSURE_SCALE as the string of the reduced Fraction."""
    g = math.gcd(num, _ENCLOSURE_SCALE)
    den = _ENCLOSURE_SCALE // g
    return str(num // g) if den == 1 else f"{num // g}/{den}"


def _enclosure_strs(iv: bounds.Interval) -> tuple[str, str]:
    """Outward-round an enclosure to printable exact rationals.

    Series enclosures carry partial sums in units of 2^-128, and a record
    built from them a denominator of a few hundred bits; printing them
    verbatim is useless.  Rounding lo down and hi up to 15 decimal digits
    (integer floor and ceiling division of numerator * 10^15 by the
    denominator) keeps the pair a true enclosure, far finer than any
    enclosure width that matters here.
    """
    lo, hi = iv
    return (_scaled_str(lo.numerator * _ENCLOSURE_SCALE // lo.denominator),
            _scaled_str(-(-hi.numerator * _ENCLOSURE_SCALE // hi.denominator)))


# exact columns, then enclosure columns (printed as <name>_lo, <name>_hi;
# a None enclosure is left out) of each family's records
_COLUMNS = {"wd": (("h", "x", "y"), ("f", "delta")), "few": (("h", "x", "b"), ("a", "eps"))}


def _row(record, exact, enclosed) -> dict:
    row = {"c": record.c}
    row.update((name, str(getattr(record, name))) for name in exact)
    for name in enclosed:
        iv = getattr(record, name)
        if iv is not None:
            row[f"{name}_lo"], row[f"{name}_hi"] = _enclosure_strs(iv)
    return row


def cmd_constants(args) -> int:
    k = bounds.CrossingConstants(args.alpha, args.beta)
    if args.eps is not None:
        if args.family != "wd":
            raise _UsageError("--eps applies to --family wd only")
        bounds.check_eps(args.eps)  # before the scan, not after it
    if args.family == "wd":
        c_min = bounds.WD_C_MIN if args.c_min is None else args.c_min
        scan = bounds.scan_constants_wd(c_min, args.c_max, k, cutoff=args.cutoff)
    else:
        c_min = bounds.FEW_C_MIN if args.c_min is None else args.c_min
        scan = bounds.scan_constants_few(c_min, args.c_max, k, cutoff=args.cutoff)
    # one record with delta at a time: rows keep only the rounded strings
    rows = [
        _row(p if args.eps is None else p.with_eps(args.eps), *_COLUMNS[args.family])
        for p in scan.records
    ]
    result = {
        "family": args.family,
        "alpha": str(k.alpha),
        "beta": str(k.beta),
        "cutoff": scan.cutoff,
        "argmax_c": scan.argmax_c,
        "rows": rows,
    }
    if args.format == "json":
        print(_dumps(result))
    else:
        print(f"family: {args.family}  alpha: {k.alpha}  beta: {k.beta}  cutoff: {scan.cutoff}")
        for row in rows:
            print("  ".join(f"{key}={value}" for key, value in row.items()))
        print(f"argmax_c: {scan.argmax_c}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
