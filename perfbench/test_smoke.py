"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))


def _hist(points):
    from pointline import PointSet, build_arrangement, point

    ps = PointSet.of(point(Fraction(x), Fraction(y)) for x, y in points)
    return dict(build_arrangement(ps).size_hist)


def _tiny_ops(workdir, wrong_hist=False):
    rng = random.Random(0)
    pencil = workloads.pencil_hist(6)
    if wrong_hist:
        pencil = {**pencil, 2: pencil[2] + 1}
    return [
        workloads._verify("grid 3x4", workloads.grid(3, 4, rng), workloads.grid_hist(3, 4),
                          workdir, ("--format", "json")),
        workloads._verify("near-pencil 6", workloads.near_pencil(6, rng), pencil,
                          workdir, ("--cross-check", "--format", "json")),
        workloads._verify("circle 5", workloads.circle(5, rng), workloads.circle_hist(5),
                          workdir, ("--format", "json")),
    ]


def _names(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_reference_histograms_match_the_package():
    rng = random.Random(3)
    for w in range(2, 8):
        for h in range(2, 8):
            assert _hist(workloads.grid(w, h, rng)) == workloads.grid_hist(w, h)
    for n in range(3, 12):
        assert _hist(workloads.near_pencil(n, rng)) == workloads.pencil_hist(n)
        assert _hist(workloads.circle(n, rng)) == workloads.circle_hist(n)


def test_seed_moves_inputs_but_not_their_shape(tmp_path):
    one, two = tmp_path / "1", tmp_path / "2"
    one.mkdir(), two.mkdir()
    ops_one = workloads.crosscheck(1, str(one))
    ops_two = workloads.crosscheck(2, str(two))
    assert [op.expect for op in ops_one] == [op.expect for op in ops_two]
    for a, b in zip(ops_one, ops_two):
        assert Path(a.argv[1]).read_text() != Path(b.argv[1]).read_text()
    again = tmp_path / "again"
    again.mkdir()
    for a, b in zip(ops_one, workloads.crosscheck(1, str(again))):
        assert Path(a.argv[1]).read_text() == Path(b.argv[1]).read_text()


def test_emitted_metric_names_match_benchmark_json(tmp_path):
    ops = _tiny_ops(str(tmp_path))
    passes, _ = run.measure(ops, str(tmp_path), 0, trace=True)
    assert [p["traced"] for p in passes] == [False, True]
    assert all(op["failure"] is None for p in passes for op in p["ops"])
    assert run.END_TO_END == _names("end_to_end")
    assert set(run.end_to_end(passes, [0.1])) == set(run.END_TO_END)
    assert run.spans.PER_LAYER == _names("per_layer")
    layers = run.per_layer(passes)
    assert set(layers) == set(run.spans.PER_LAYER)
    assert layers["kern.pairs"] == 66 + 15 + 10
    assert layers["oracle.pairs"] == 15
    assert layers["bounds.checks"] == 3 * 8


def test_corrupted_histogram_counts_as_a_failed_operation(tmp_path):
    ops = _tiny_ops(str(tmp_path), wrong_hist=True)
    (p,), imports = run.measure(ops, str(tmp_path), 0, trace=False)
    assert len(imports) == run.IMPORTS_PER_PASS
    failures = [op["failure"] for op in p["ops"]]
    assert failures[0] is None and failures[2] is None
    assert "differs from reference" in failures[1]


@pytest.mark.parametrize("corrupt, reason", [
    (lambda r: r["s"].update({"2": r["s"]["2"] + 1}), "C(k,2)"),
    (lambda r: r.update(incidences=r["incidences"] - 1), "incidences"),
    (lambda r: r.update(num_lines=r["num_lines"] + 1), "num_lines"),
    (lambda r: r.update(cross_check="mismatch"), "cross_check"),
    (lambda r: r["checks"][0].update(holds=False), "checks failed"),
    (lambda r: r.pop("s"), "malformed"),
])
def test_verify_check_rejects_corrupted_output(tmp_path, corrupt, reason):
    op = _tiny_ops(str(tmp_path))[1]
    from pointline import cli
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv) == 0
    assert checks.check(op, 0, out.getvalue()) is None
    assert checks.check(op, 2, out.getvalue()) == "exit code 2"
    report = json.loads(out.getvalue())
    corrupt(report)
    assert reason in checks.check(op, 0, json.dumps(report))


def test_constants_check_rejects_wrong_argmax_and_floor():
    op = workloads.constants(0, "")[0]
    good = {"family": "wd", "argmax_c": 46, "rows": [{"c": 46, "f_lo": "1/25"}]}
    assert checks.check(op, 0, json.dumps(good)) is None
    assert "argmax_c" in checks.check(op, 0, json.dumps({**good, "argmax_c": 45}))
    low = {**good, "rows": [{"c": 46, "f_lo": "1/27"}]}
    assert "below 1/26" in checks.check(op, 0, json.dumps(low))


def test_command_prints_the_result_object_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "constants", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
