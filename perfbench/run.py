#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pointline CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed fixes every generated input.  Workloads (see
``workloads.py`` for why each was chosen):

  lattice-large  verify on a 30x30 grid, a 2000-point near-pencil and 800
                 random lattice points: the pair kernel and the statistics
  sweep-small    verify on ~560 small sets shaped like the acceptance
                 sweep: parsing, fixed cost per call, the checks
  crosscheck     verify --cross-check on three sets: the brute-force oracle
  constants      the wd and few constant scans: the tail sums only

A pass runs every operation of the workload once, in a fresh worker
process (``worker.py``); workers run one at a time.  Passes repeat for
about S seconds (see ``measure``).  Every operation's output is checked;
a wrong answer counts as a failed operation, reported as the result's
``failed`` out of ``attempted``.

--trace 0 reports the end-to-end metrics, measured with no tracing:

  run_s        sum over the operations of each one's time (see below)
  op_p50_ms    median of those per-operation times
  op_p98_ms    their 98th percentile: on sweep-small 11 operations lie
               beyond it; on the other workloads it is nearly the slowest
  setup_s      median time a fresh interpreter takes to import
               pointline.cli, over three launches before every pass
  peak_rss_mb  the largest ru_maxrss of the run's workers

An operation's time is the median over the run's passes of its wall
time scaled to a fixed machine speed: seconds x PROBE_REF_S / probe, where
probe is the mean of the worker's speed probes just before and after it.
On a 2-core VM shared with other tenants an operation's wall time swings
by up to 2x within seconds as they come and go; the probe sees the same
swings, and scaling by it cut the spread of run_s over ten seeds from
0.12-0.27 to about 0.09 there.  Raw wall times are kept in the results
file.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (spans.PER_LAYER) of the traced ones, plus the tracing overhead
(scaled time of the traced passes over that of the untraced ones).
Per-layer times are raw span durations, the median over traced passes.
The last line of stdout is the result object; the line before it, and a
file in .perfbench_out/, record the seed, the sample counts and the
environment.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"

IMPORTS_PER_PASS = 3
# the worker's probe time on an idle 2-core Xeon VM under CPython 3.11.7;
# it only sets the unit of the scaled times
PROBE_REF_S = 250e-6
WORKER_TIMEOUT_S = 170
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import pointline.cli; "
                 "print(time.perf_counter() - t)")

END_TO_END = {
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p98_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    # workers stay single-threaded whatever numeric library a kernel loads
    threads = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {**os.environ, **threads, "PYTHONPATH": str(SRC)}


def time_import() -> float:
    """Seconds a fresh interpreter takes to import pointline.cli, as every CLI call does.

    Timed inside the child, so interpreter start-up, which the package
    does not control, is left out.
    """
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=_child_env(),
                          check=True, timeout=60, capture_output=True, text=True)
    return float(proc.stdout)


def run_pass(ops: list, workdir: str, trace: bool) -> dict:
    """One worker process runs every operation once; outputs are checked here."""
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as fp:
        json.dump({"trace": trace, "ops": [op.argv for op in ops]}, fp)
    subprocess.run([sys.executable, str(WORKER), plan_path, result_path],
                   env=_child_env(), check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fp:
        result = json.load(fp)
    os.remove(result_path)
    records = []
    probes = result["probes"]
    for i, (op, rec) in enumerate(zip(ops, result["ops"])):
        reason = checks.check(op, rec["code"], rec["stdout"])
        if reason and rec["stderr"]:
            reason += " | stderr: " + rec["stderr"].strip().splitlines()[-1]
        speed = PROBE_REF_S / ((probes[i] + probes[i + 1]) / 2)
        records.append({"label": op.label, "seconds": rec["seconds"],
                        "scaled": rec["seconds"] * speed, "failure": reason})
    return {
        "traced": trace,
        "maxrss_kb": result["maxrss_kb"],
        "ops": records,
        "spans": result["spans"],
    }


def measure(ops: list, workdir: str, seconds: float, trace: bool) -> tuple[list, list]:
    """Passes, and import launches between them, for about `seconds`.

    Another round starts only if a round as long as the longest so far
    still ends within `seconds`; the first always runs.  A traced run
    alternates untraced and traced passes.
    """
    time_import()  # unmeasured: writes the bytecode caches, paid once per install
    passes, imports = [], []
    longest = 0.0
    start = time.monotonic()
    while not passes or time.monotonic() - start + longest <= seconds:
        round_start = time.monotonic()
        if not trace:
            imports += [time_import() for _ in range(IMPORTS_PER_PASS)]
        passes.append(run_pass(ops, workdir, False))
        if trace:
            passes.append(run_pass(ops, workdir, True))
        longest = max(longest, time.monotonic() - round_start)
    return passes, imports


def op_times(passes: list[dict]) -> list[float]:
    """Each operation's median scaled time over the given passes."""
    return [statistics.median(col)
            for col in zip(*([op["scaled"] for op in p["ops"]] for p in passes))]


def end_to_end(passes: list[dict], import_times: list[float]) -> dict:
    times = op_times(passes)
    return {
        "run_s": sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p98_ms": statistics.quantiles(times, n=50, method="inclusive")[48] * 1000,
        "setup_s": statistics.median(import_times),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [spans.layer_metrics(p["spans"]) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = sum(op_times(traced)) / sum(op_times(untraced))
    return metrics


def environment() -> dict:
    """Facts about the run, recorded next to the results (not metrics)."""
    sys.path.insert(0, str(SRC))
    try:
        from pointline import _kern

        compiled = _kern.compiled_kernel_available()
    except (ImportError, AttributeError):
        compiled = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for pattern in ("*.py", "*.pyx")
        for path in SRC.rglob(pattern)
    )
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "compiled_kernel": compiled,
        "POINTLINE_PURE": os.environ.get("POINTLINE_PURE"),
        "numpy": numpy_version,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pointline" / "cli.py").is_file():
        print(f"error: no pointline package under {SRC}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, workdir)
        passes, import_times = measure(ops, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(passes)
        units = spans.PER_LAYER
    else:
        metrics = end_to_end(passes, import_times)
        units = END_TO_END
    records = [op for p in passes for op in p["ops"]]
    failures = [f"{op['label']}: {op['failure']}" for op in records if op["failure"]]
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "op_samples": len(ops),
        "samples_beyond_p98": int(len(ops) * 0.02),
        "import_s": import_times,
        "environment": environment(),
    }
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"info": info, "result": result, "failures": failures,
              "passes": [{k: v for k, v in p.items() if k != "spans" or args.trace}
                         for p in passes]}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
