"""Run one pass of CLI calls in this fresh process and write what happened.

    python3 worker.py PLAN.json RESULT.json

PLAN holds whether to trace and one argv per operation; the point-set
files it names were written by the parent, and the package is found on
PYTHONPATH.  Each operation is ``pointline.cli.main(argv)`` in-process with
its stdout and stderr captured, timed around the call alone.  A probe of
the machine's speed runs before the first operation and after each one.
RESULT gets each operation's exit code, seconds and stdout, the probes,
the process's peak RSS and, when tracing, every span.
"""
from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter


def probe() -> float:
    """Best of three timings of a fixed interpreter loop: how fast the CPU is right now."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(2000):
            acc += i * i % 7
            table[i & 511] = acc
        best = min(best, perf_counter() - start)
    return best


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fp:
        plan = json.load(fp)
    from pointline import cli

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install("pointline")

    ops, probes = [], [probe()]
    for op_id, argv in enumerate(plan["ops"]):
        out, err = io.StringIO(), io.StringIO()
        code = None
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.op = op_id
                    code = tracer.call("op", cli.main, (argv,), {})
            except Exception:  # a crash is a failed operation, not a failed pass
                traceback.print_exc()
            seconds = perf_counter() - start
        ops.append({"code": code, "seconds": seconds,
                    "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
        probes.append(probe())

    result = {
        "ops": ops,
        "probes": probes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as fp:
        json.dump(result, fp)


if __name__ == "__main__":
    main(*sys.argv[1:])
