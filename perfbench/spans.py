"""Spans around the package's entry points, and the per-layer metrics made from them.

The worker wraps module attributes that the package looks up at call
time, so no file of the package changes.  An entry point that a later
version no longer has is skipped: its span is missing and its metrics
read 0.  Counts are read from the arguments and the result after the
span has closed.
"""
from __future__ import annotations

import importlib
import inspect
from math import comb
from time import perf_counter

# (module, attribute, span name, counts read from the module, the bound
# arguments and the result)
TARGETS = (
    ("generators", "load_points_file", "parse",
     lambda m, a, r: {"points": r.n}),
    ("cli", "build_arrangement", "arrangement",
     lambda m, a, r: {"lines": r.num_lines, "incidences": r.incidences}),
    ("_kern", "group_collinear", "kern",
     lambda m, a, r: {"pairs": comb(len(a["xs"]), 2), "lines": len(r),
                      "compiled": int(m.compiled_kernel_available())}),
    ("bounds", "verify_theorems", "checks",
     lambda m, a, r: {"checks": len(r), "st_thresholds": 2 * (a["arr"].max_collinear - 1)}),
    ("cli", "brute_force_lines", "oracle",
     lambda m, a, r: {"pairs": comb(a["ps"].n, 2), "lines": len(r)}),
    ("bounds", "scan_constants_wd", "scan", lambda m, a, r: _scan_counts(r)),
    ("bounds", "scan_constants_few", "scan", lambda m, a, r: _scan_counts(r)),
    ("bounds", "_suffix_tail_table", "tail_table",
     lambda m, a, r: {"terms": a["cutoff"] - a["c_min"] + 1, "den_bits": _den_bits(r)}),
)


def _scan_counts(result) -> dict:
    iv = dict(result.table)[result.argmax_c]
    return {"cutoff": result.cutoff, "argmax_width": float(iv.hi - iv.lo)}


def _den_bits(table) -> int:
    return max(max(iv.lo.denominator.bit_length(), iv.hi.denominator.bit_length())
               for iv in table.values())


class Tracer:
    """Records spans in memory: name, start, end, parent span, operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    def call(self, name, fn, args, kwargs, counts=None):
        rec = {"name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
        if counts is not None:
            try:
                rec.update(counts(args, kwargs, result))
            except (AttributeError, TypeError, KeyError, ValueError, IndexError):
                pass  # an entry point whose shape changed keeps its span, loses its counts
        return result

    def install(self, package: str) -> None:
        for module_name, attr, name, counts in TARGETS:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(name, module, fn, counts))

    def _wrap(self, name, module, fn, counts):
        sig = inspect.signature(fn)

        def bound_counts(args, kwargs, result):
            return counts(module, sig.bind(*args, **kwargs).arguments, result)

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, bound_counts)

        return wrapper


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

# name -> unit; the traced run reports every one, 0 for an idle layer
PER_LAYER = {
    "generators.parse_s": "s",
    "generators.points": "count",
    "kern.s": "s",
    "kern.pairs": "count",
    "kern.lines": "count",
    "kern.compiled": "flag",
    "arrangement.s": "s",
    "arrangement.self_s": "s",
    "arrangement.lines": "count",
    "arrangement.incidences": "count",
    "bounds.checks_s": "s",
    "bounds.checks": "count",
    "bounds.st_thresholds": "count",
    "oracle.s": "s",
    "oracle.pairs": "count",
    "oracle.lines": "count",
    "oracle.useful_ratio": "ratio",
    "bounds.tail_table_s": "s",
    "bounds.tail_terms": "count",
    "bounds.tail_den_bits": "bits",
    "bounds.scan_s": "s",
    "bounds.scan_self_s": "s",
    "bounds.refinements": "count",
    "bounds.final_cutoff": "count",
    "bounds.argmax_width": "ratio",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced pass (all metrics but trace.overhead)."""
    children: dict[int, list[dict]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec)

    def dur(rec):
        return rec["end"] - rec["start"]

    def self_time(idx):
        return dur(spans[idx]) - sum(dur(c) for c in children.get(idx, ()))

    def of(name):
        return [(i, rec) for i, rec in enumerate(spans) if rec["name"] == name]

    def total(name, key=None):
        return sum(dur(r) if key is None else r.get(key, 0) for _, r in of(name))

    def largest(name, key):
        return max((r.get(key, 0) for _, r in of(name)), default=0)

    oracle_pairs = total("oracle", "pairs")
    return {
        "generators.parse_s": total("parse"),
        "generators.points": total("parse", "points"),
        "kern.s": total("kern"),
        "kern.pairs": total("kern", "pairs"),
        "kern.lines": total("kern", "lines"),
        "kern.compiled": largest("kern", "compiled"),
        "arrangement.s": total("arrangement"),
        "arrangement.self_s": sum(self_time(i) for i, _ in of("arrangement")),
        "arrangement.lines": total("arrangement", "lines"),
        "arrangement.incidences": total("arrangement", "incidences"),
        "bounds.checks_s": total("checks"),
        "bounds.checks": total("checks", "checks"),
        "bounds.st_thresholds": total("checks", "st_thresholds"),
        "oracle.s": total("oracle"),
        "oracle.pairs": oracle_pairs,
        "oracle.lines": total("oracle", "lines"),
        "oracle.useful_ratio": total("oracle", "lines") / oracle_pairs if oracle_pairs else 0,
        "bounds.tail_table_s": total("tail_table"),
        "bounds.tail_terms": total("tail_table", "terms"),
        "bounds.tail_den_bits": largest("tail_table", "den_bits"),
        "bounds.scan_s": total("scan"),
        "bounds.scan_self_s": sum(self_time(i) for i, _ in of("scan")),
        "bounds.refinements": sum(
            max(sum(c["name"] == "tail_table" for c in children.get(i, ())) - 1, 0)
            for i, _ in of("scan")
        ),
        "bounds.final_cutoff": largest("scan", "cutoff"),
        "bounds.argmax_width": largest("scan", "argmax_width"),
        "cli.self_s": sum(self_time(i) for i, _ in of("op")),
    }
