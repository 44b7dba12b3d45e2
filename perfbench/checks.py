"""Output checks: each returns None when an operation's output is right,
else a one-line reason.  A failed check counts the operation as failed."""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb

# Published optima of the two constant scans and the constants they certify.
ARGMAX = {"wd": 46, "few": 44}
FLOOR = {"wd": ("f_lo", Fraction(1, 26)), "few": ("eps_lo", Fraction(2, 61))}


def check(op, code: int, stdout: str):
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc.msg}"
    try:
        if op.argv[0] == "verify":
            return _check_verify(op, report)
        return _check_constants(op.expect, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"


def _check_verify(op, report: dict):
    expect = op.expect
    n = report["n"]
    if n != expect["n"]:
        return f"n = {n}, expected {expect['n']}"
    hist = {int(size): count for size, count in report["s"].items()}
    if any(size < 2 or count < 1 for size, count in hist.items()):
        return f"histogram has an empty or degenerate entry: {hist}"
    if sum(comb(k, 2) * s for k, s in hist.items()) != comb(n, 2):
        return "sum C(k,2) s_k != C(n,2)"
    if sum(k * s for k, s in hist.items()) != report["incidences"]:
        return "sum k s_k != incidences"
    if sum(hist.values()) != report["num_lines"]:
        return "sum s_k != num_lines"
    if max(hist) != report["max_collinear"]:
        return "max_collinear is not the largest line size"
    if expect["hist"] is not None and hist != expect["hist"]:
        return f"histogram {hist} differs from reference {expect['hist']}"
    if "--cross-check" in op.argv and report.get("cross_check") != "ok":
        return f"cross_check is {report.get('cross_check')!r}"
    failed = [c["name"] for c in report["checks"] if c["holds"] is False]
    if failed:
        return f"checks failed: {failed}"
    return None


def _check_constants(expect: dict, report: dict):
    family = expect["family"]
    if report["family"] != family:
        return f"family {report['family']!r}, expected {family!r}"
    argmax = report["argmax_c"]
    if argmax != ARGMAX[family]:
        return f"argmax_c = {argmax}, expected {ARGMAX[family]}"
    key, floor = FLOOR[family]
    row = {r["c"]: r for r in report["rows"]}[argmax]
    if Fraction(row[key]) < floor:
        return f"{key} at c={argmax} is {row[key]}, below {floor}"
    return None
