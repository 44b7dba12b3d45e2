import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import pointline
from pointline import Unresolved, _kern, arrangement, bounds, cli, generators, load_points_file
from pointline.bounds import TheoremCheck

from conftest import (WITNESS_CORRUPTIONS, WITNESS_GRID, corrupted_grid_witness, exact_tail_table, mutant,
                      pset)


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "g33.json"
    assert cli.main(["generate", "grid", "--w", "3", "--h", "3", "--out", str(path)]) == 0
    return str(path)


def test_generate_then_analyze_text(grid_file, capsys):
    assert cli.main(["analyze", grid_file]) == 0
    out = capsys.readouterr().out
    assert "n: 9" in out
    assert "lines: 20" in out
    assert "incidences: 48" in out
    assert "s[3]: 8" in out


def test_analyze_json_matches_statistics(grid_file, capsys):
    assert cli.main(["analyze", grid_file, "--format", "json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n"] == 9
    assert stats["num_lines"] == 20
    assert stats["s"] == {"2": 12, "3": 8}
    assert stats["max_point_lines"]["count"] == 6
    # deterministic: a second run reproduces the same report
    cli.main(["analyze", grid_file, "--format", "json"])
    assert json.loads(capsys.readouterr().out) == stats


def test_analyze_two_point_file(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text('{"points": [["0", "0"], ["1", "1"]]}')
    assert cli.main(["analyze", str(path)]) == 0
    assert "lines: 1" in capsys.readouterr().out


def test_analyze_missing_file(capsys):
    assert cli.main(["analyze", "/nonexistent/nowhere.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_duplicate_point_file(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"points": [["0", "0"], ["0", "0"]]}')
    assert cli.main(["analyze", str(path)]) == 1
    assert "point 1 duplicates point 0: (0, 0)" in capsys.readouterr().err


def test_analyze_coordinate_past_digit_limit_is_exit_one(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"points": [["1" * 5000, "0"], ["0", "1"]]}))
    assert cli.main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: point 0, field x:")


def test_verify_non_utf8_file_is_invalid_json(tmp_path, capsys):
    # the decode error is raised while json.load reads the file, so it is a JSON error
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"points": [["0", "0"], ["1", "\xff"]]}')
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: invalid JSON: 'utf-8' codec can't decode byte 0xff in "
                            "position 31: invalid start byte\n")


def test_verify_non_ascii_digit_is_not_a_rational_string(tmp_path, capsys):
    # int() accepts the Arabic-Indic digit three; the coordinate pattern does not
    path = tmp_path / "arabic.json"
    path.write_text(json.dumps({"points": [["0", "0"], ["٣", "1"]]}), encoding="utf-8")
    assert int("٣") == 3
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point 1, field x: '٣' is not a rational string\n"


def test_verify_nesting_past_recursion_limit_is_exit_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"points": %s}' % ("[" * 100_000 + "]" * 100_000))
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON:")
    assert captured.err.count("\n") == 1


def test_analyze_single_point_file(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"points": [["0", "0"]]}')
    assert cli.main(["analyze", str(path)]) == 1


def test_verify_grid_exit_zero(grid_file, capsys):
    assert cli.main(["verify", grid_file, "--cross-check"]) == 0
    out = capsys.readouterr().out
    assert "cross_check: ok" in out
    assert "hirzebruch: 18 >= 9 -> holds" in out


def test_cross_check_catches_wrong_printed_statistics(tmp_path, monkeypatch, capsys):
    # the int64 path counts the printed statistics without building lines;
    # the cross-check recounts them from the exact loop's witness
    path = tmp_path / "g55.json"
    assert cli.main(["generate", "grid", "--w", "5", "--h", "5", "--out", str(path)]) == 0
    real = _kern.int64_statistics

    def one_line_too_many(hx, hy, hw):
        size_hist, per_point = real(hx, hy, hw)
        size_hist[2] += 1
        return size_hist, per_point

    monkeypatch.setattr(arrangement, "INT64_MIN_PAIRS", 1)
    monkeypatch.setattr(_kern, "int64_statistics", one_line_too_many)
    assert cli.main(["verify", str(path), "--cross-check"]) == 2
    out = capsys.readouterr().out
    assert "lines: 141" in out
    assert "cross_check: mismatch" in out


@pytest.mark.parametrize(
    "field, key, num_lines", [(0, 2, 141), (1, 0, 140)], ids=["size_hist", "lines_per_point"]
)
def test_cross_check_catches_wrong_printed_statistics_on_the_exact_path(
    tmp_path, monkeypatch, capsys, field, key, num_lines
):
    # grid(5, 5) takes the exact path, whose loop counts the printed
    # statistics and hands out the witness in one run; a miscount there
    # leaves the witness (and so the certificate's recount) intact
    path = tmp_path / "g55.json"
    assert cli.main(["generate", "grid", "--w", "5", "--h", "5", "--out", str(path)]) == 0
    real = _kern.exact_statistics

    def one_too_many(hx, hy, hw, witness=None):
        stats = real(hx, hy, hw, witness)
        stats[field][key] += 1  # size_hist[2] or lines_per_point[0]
        return stats

    monkeypatch.setattr(_kern, "exact_statistics", one_too_many)
    assert cli.main(["verify", str(path), "--cross-check"]) == 2
    out = capsys.readouterr().out
    assert f"lines: {num_lines}" in out
    assert "cross_check: mismatch" in out


# the slope key with the sign of its direction: a line whose first point
# lies between two later ones splits in two there
SIGN_MUTANT = ("key = dy / dx if dx else inf", "key = (dy / dx if dx else inf, dx > 0 or (dx == 0 and dy > 0))")
# every point one line short
INT64_MUTANT = ("per_point[lo:hi] = n - 1 - np.count_nonzero", "per_point[lo:hi] = n - 2 - np.count_nonzero")


def test_cross_check_catches_a_sign_mutant_of_the_exact_loop(tmp_path, monkeypatch, capsys):
    # the sweep's sets are sorted, so no line's first point lies between
    # two later ones, and the mutant counts them right; here point 0 is
    # the middle of y = 0 and of x = 0
    path = tmp_path / "cross.json"
    generators.save_points_file(pset((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 5)), str(path))
    assert cli.main(["verify", str(path), "--cross-check"]) == 0
    honest = capsys.readouterr().out
    assert "cross_check: ok" in honest and "s[3]: 2" in honest

    monkeypatch.setattr(_kern, "exact_statistics", mutant(_kern, "exact_statistics", *SIGN_MUTANT))
    assert cli.main(["verify", str(path)]) == 0
    assert "s[3]" not in capsys.readouterr().out  # plain verify prints the mutant's counts
    assert cli.main(["verify", str(path), "--cross-check"]) == 2
    out = capsys.readouterr().out
    assert "s[3]" not in out
    assert "cross_check: mismatch" in out


def test_cross_check_catches_a_mutant_of_the_int64_loop(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g55.json"
    assert cli.main(["generate", "grid", "--w", "5", "--h", "5", "--out", str(path)]) == 0
    monkeypatch.setattr(arrangement, "INT64_MIN_PAIRS", 1)
    monkeypatch.setattr(_kern, "int64_statistics", mutant(_kern, "int64_statistics", *INT64_MUTANT))
    assert cli.main(["verify", str(path), "--cross-check"]) == 2
    out = capsys.readouterr().out
    assert "lines: 140" not in out  # the mutant's counts are printed
    assert "cross_check: mismatch" in out


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call appends its result to the returned list."""
    real, results = getattr(module, name), []

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return results


def test_cross_check_on_the_int64_statistics_path(tmp_path, monkeypatch, capsys):
    # 529 points give 139,656 pairs >= INT64_MIN_PAIRS, so the printed
    # statistics come from int64_statistics and the build runs no exact
    # loop; only the cross-check runs it, once, for the witness it certifies
    path = tmp_path / "g2323.json"
    assert cli.main(["generate", "grid", "--w", "23", "--h", "23", "--out", str(path)]) == 0
    stats = _counting(monkeypatch, _kern, "int64_statistics")
    exact = _counting(monkeypatch, _kern, "exact_statistics")
    certified = _counting(monkeypatch, cli, "certify_statistics")
    assert cli.main(["verify", str(path)]) == 0
    assert "cross_check:" not in capsys.readouterr().out
    assert (len(stats), len(exact), len(certified)) == (1, 0, 0)
    assert stats[0] is not None

    stats.clear()
    assert cli.main(["verify", str(path), "--cross-check"]) == 0
    assert (len(stats), len(exact), len(certified)) == (1, 1, 1)
    assert stats[0] is not None and certified[0] == stats[0]
    out = capsys.readouterr().out
    assert "n: 529" in out
    assert "cross_check: ok" in out


@pytest.mark.parametrize(
    "kind",
    [["grid", "--w", "6", "--h", "7"], ["circle", "--n", "40"], ["near-pencil", "--n", "60"]],
    ids=["grid", "circle", "near-pencil"],
)
def test_verify_runs_one_exact_loop_on_the_exact_path(tmp_path, monkeypatch, capsys, kind):
    # plain verify counts the statistics in the loop that keeps no line;
    # --cross-check asks the same loop for its witness, so one run counts
    # the printed statistics and hands out the lines it certifies
    path = tmp_path / "points.json"
    assert cli.main(["generate", *kind, "--out", str(path)]) == 0
    stats = _counting(monkeypatch, _kern, "exact_statistics")
    certified = _counting(monkeypatch, cli, "certify_statistics")
    assert cli.main(["verify", str(path)]) == 0
    plain = capsys.readouterr().out
    assert (len(stats), len(certified)) == (1, 0)

    stats.clear()
    assert cli.main(["verify", str(path), "--cross-check"]) == 0
    assert (len(stats), len(certified)) == (1, 1)
    assert certified[0] == stats[0]
    out = capsys.readouterr().out
    assert "cross_check: ok\n" in out
    assert out.replace("cross_check: ok\n", "") == plain


def test_cross_check_keeps_no_line_of_two_points():
    # circle 200 has no three points collinear: a dict of all its lines
    # held its 19,900 2-point lines in 4.6 MB for a line-level certificate,
    # 23 KB per point.  The witness is empty here, and the certificate holds
    # its own n triples, n masks and one row's dict of at most n - 1 slope
    # keys: about 220 bytes per point in all for run_verify (0.04 MB,
    # CPython 3.11).  The bound is that of the statistics-only build in
    # test_arrangement, 1 KB per point
    ps = generators.circle(200)
    tracemalloc.start()
    try:
        code, report = cli.run_verify(ps, cross_check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, report["cross_check"], report["s"]) == (0, "ok", {"2": 200 * 199 // 2})
    assert peak < 1000 * ps.n


@pytest.mark.parametrize(
    "corruption, kernel_path",
    [pytest.param(name, "exact", id=name) for name in WITNESS_CORRUPTIONS]
    + [pytest.param(name, "int64", id=f"{name}-int64") for name in WITNESS_CORRUPTIONS],
)
def test_cross_check_certifies_the_built_lines(tmp_path, monkeypatch, capsys, corruption, kernel_path):
    # grid(6, 6) takes the exact path, where one run of the exact loop
    # counts the printed statistics and builds the lines of 3 or more
    # points; with INT64_MIN_PAIRS at 1 it takes the int64 path, and the
    # exact loop runs beside it for those lines alone.  Either way the
    # cross-check certifies the lines the loop handed out, and the printed
    # statistics stay the true ones
    path = tmp_path / "g66.json"
    generators.save_points_file(WITNESS_GRID, str(path))
    corrupted = corrupted_grid_witness(corruption)
    if kernel_path == "int64":
        monkeypatch.setattr(arrangement, "INT64_MIN_PAIRS", 1)
    assert cli.main(["verify", str(path), "--cross-check"]) == 0
    assert "cross_check: ok" in capsys.readouterr().out

    real = _kern.exact_statistics

    def corrupted_witness(hx, hy, hw, witness=None):
        stats = real(hx, hy, hw, witness)
        witness[:] = corrupted
        return stats

    monkeypatch.setattr(_kern, "exact_statistics", corrupted_witness)
    assert cli.main(["verify", str(path), "--cross-check"]) == 2
    out = capsys.readouterr().out
    assert "lines: 306" in out
    assert "cross_check: mismatch" in out


def test_parser_is_built_once_per_process(grid_file, capsys):
    # the memoised parser must not carry state from one call to the next
    calls = [
        ["verify", grid_file, "--cross-check"],
        ["constants", "--family", "few", "--c-min", "40", "--c-max", "44"],
        ["verify", grid_file],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        code = cli.main(argv)
        fresh.append((code, capsys.readouterr().out))
    cli._build_parser.cache_clear()
    reused = []
    for argv in calls:
        code = cli.main(argv)
        reused.append((code, capsys.readouterr().out))
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh


def test_verify_json_report_shape(grid_file, capsys):
    assert cli.main(["verify", grid_file, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in report["checks"]]
    assert sorted(names) == sorted(
        ["hirzebruch", "st_edges", "st_lines", "point_degree",
         "incidences", "total_lines", "lines_le3", "half_le3"]
    )
    assert len(names) == len(set(names))
    for c in report["checks"]:
        # exact rational strings, never decimals
        assert "." not in c["lhs"] and "." not in c["rhs"]
    assert report["l"] == 3


def test_verify_suite_restriction(grid_file, capsys):
    assert cli.main(["verify", grid_file, "--suite", "hirzebruch,total_lines",
                     "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"]] == ["hirzebruch", "total_lines"]


def test_verify_unknown_suite_name(grid_file, capsys):
    assert cli.main(["verify", grid_file, "--suite", "bogus"]) == 1
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, unknown, extra",
    [
        ("hirzebruch,bogus", ["bogus"], ()),
        ("hirzebruch,bogus", ["bogus"], ("--cross-check",)),
        ("", [""], ()),
        ("", [""], ("--cross-check",)),
    ],
    ids=["plain", "cross-check", "empty-suite-plain", "empty-suite-cross-check"],
)
def test_verify_unknown_suite_name_fails_before_the_build(grid_file, monkeypatch, capsys, suite, unknown, extra):
    # a typo, or an empty --suite, must not wait for the arrangement, nor
    # turn into a cross-check verdict
    def no_build(*args):
        raise AssertionError("the build or a cross-check ran")

    monkeypatch.setattr(cli, "build_arrangement", no_build)
    monkeypatch.setattr(cli, "certify_statistics", no_build)
    assert cli.main(["verify", grid_file, "--suite", suite, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: unknown check name(s) {unknown}; available: "
        f"{sorted(bounds.CHECK_NAMES)}\n"
    )


@pytest.mark.parametrize("cross_check", [False, True])
def test_run_verify_refuses_an_empty_suite_before_the_build(monkeypatch, cross_check):
    # an empty list selects no check; it must not run all eight and pass
    def no_build(*args):
        raise AssertionError("the build or a cross-check ran")

    monkeypatch.setattr(cli, "build_arrangement", no_build)
    monkeypatch.setattr(cli, "certify_statistics", no_build)
    with pytest.raises(pointline.PointLineError, match="empty check suite"):
        cli.run_verify(generators.grid(3, 3), cross_check=cross_check, suite=[])


@pytest.mark.parametrize("extra", [(), ("--cross-check",)], ids=["plain", "cross-check"])
def test_suite_runs_only_the_named_checks(grid_file, monkeypatch, capsys, extra):
    # --suite point_degree runs neither Szemeredi-Trotter scan, and prints
    # what the full run prints for that check, in text and in JSON
    scans = []
    real = bounds._st_check
    monkeypatch.setattr(bounds, "_st_check", lambda *args: scans.append(args) or real(*args))
    outputs = {}
    for suite in (), ("--suite", "point_degree"):
        scans.clear()
        for fmt in "text", "json":
            assert cli.main(["verify", grid_file, *extra, *suite, "--format", fmt]) == 0
            outputs[suite, fmt] = capsys.readouterr().out
        assert len(scans) == (0 if suite else 2 * 2)
    full = json.loads(outputs[(), "json"])
    full["checks"] = [c for c in full["checks"] if c["name"] == "point_degree"]
    assert json.loads(outputs[("--suite", "point_degree"), "json"]) == full
    assert outputs[("--suite", "point_degree"), "json"] == json.dumps(full, indent=1) + "\n"
    # a check's line reads "name: lhs OP rhs -> verdict"
    text = [line for line in outputs[(), "text"].splitlines(keepends=True)
            if " -> " not in line or line.startswith("point_degree: ")]
    assert outputs[("--suite", "point_degree"), "text"] == "".join(text)


def test_verify_exit_two_on_failed_check(grid_file, monkeypatch, capsys):
    failed = TheoremCheck("total_lines", True, ">=", F(1), F(2), False, "")
    monkeypatch.setattr(bounds, "verify_theorems", lambda arr, names=None: [failed])
    assert cli.main(["verify", grid_file]) == 2
    assert "FAILED" in capsys.readouterr().out


# JSON leaves: str over full Unicode (surrogates too), with the characters
# that need escapes made frequent; int of any sign and size; bool and None
_json_leaves = st.one_of(
    st.text(st.one_of(st.characters(blacklist_categories=()), st.sampled_from('"\\\x00\x1f\x7f\ud800')),
            max_size=6),
    st.integers(), st.integers(-1, 1).map(lambda sign: sign * 7 ** 5200), st.booleans(), st.none(),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@given(_json_values)
@example([[], {}, [[]], {"": {}}, [{}, []]])
@example({"s": {"2": 4}, "\udfff\"\\\n": [None, True, False, -0, "\u2028"]})
@example([10 ** 4299, -(10 ** 4299)])
@settings(max_examples=60)
def test_json_writer_lays_out_what_json_dumps_indent_1_does(obj):
    try:
        want = json.dumps(obj, indent=1)
    except ValueError:  # an int past the int-to-string digit limit
        with pytest.raises(ValueError):
            cli._dumps(obj)
    else:
        assert cli._dumps(obj) == want


class _Count(int):
    pass


@pytest.mark.parametrize("value", [1.5, (1, 2), F(1, 2), _Count(3)], ids=repr)
def test_json_writer_refuses_other_types(value):
    for obj in value, [value], {"a": [value]}:
        with pytest.raises(TypeError):
            cli._dumps(obj)
    with pytest.raises(TypeError):
        cli._dumps({1: "a"})


_JSON_REPORTS = [
    ["analyze", "{grid}"],
    ["verify", "{grid}"],
    ["verify", "{grid}", "--cross-check"],
    ["verify", "{grid}", "--failing"],
    ["constants", "--family", "wd", "--c-min", "8", "--c-max", "200", "--eps", "1/26"],
    ["constants", "--family", "few", "--c-min", "29", "--c-max", "200"],
]


@pytest.mark.parametrize("argv", _JSON_REPORTS, ids=" ".join)
def test_every_json_report_round_trips_through_the_stdlib(argv, grid_file, monkeypatch, capsys):
    code = 0
    if "--failing" in argv:
        argv, code = argv[:-1], 2
        failed = TheoremCheck("total_lines", True, ">=", F(1), F(2), False, "")
        monkeypatch.setattr(bounds, "verify_theorems", lambda arr, names=None: [failed])
    argv = [arg.format(grid=grid_file) for arg in argv]
    assert cli.main([*argv, "--format", "json"]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def test_verify_rejects_removed_cutoff_flag(grid_file, capsys):
    assert cli.main(["verify", grid_file, "--cutoff", "-7"]) == 1
    assert "--cutoff" in capsys.readouterr().err


def test_verify_collinear_inapplicable_checks(tmp_path, capsys):
    path = tmp_path / "col.json"
    cli.main(["generate", "collinear", "--n", "5", "--out", str(path)])
    assert cli.main(["verify", str(path)]) == 0
    assert "not-applicable" in capsys.readouterr().out


def test_generate_to_stdout(capsys):
    assert cli.main(["generate", "circle", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["points"][2] == ["-3/5", "4/5"]


def test_generate_random_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "random", "--n", "20", "--seed", "7", "--bound", "15"]
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--out", str(p2)]) == 0
    assert p1.read_text() == p2.read_text()
    assert load_points_file(str(p1)).n == 20


def test_generate_invalid_params(capsys):
    assert cli.main(["generate", "near-pencil", "--n", "2"]) == 1
    capsys.readouterr()
    # the flags a generator requires are its parameters, checked in order
    assert cli.main(["generate", "random", "--n", "5"]) == 1
    assert capsys.readouterr().err == "error: generator 'random' requires --seed\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grid", "--w", "2", "--h", "2", "--n", "7"], "generator 'grid' does not take --n"),
        (["circle", "--n", "3", "--bound", "9"], "generator 'circle' does not take --bound"),
        (["collinear", "--n", "3", "--seed", "1"], "generator 'collinear' does not take --seed"),
        (["near-pencil", "--n", "4", "--h", "2"], "generator 'near-pencil' does not take --h"),
    ],
    ids=["grid-n", "circle-bound", "collinear-seed", "near-pencil-h"],
)
def test_generate_refuses_flags_the_generator_does_not_take(argv, message, capsys):
    assert cli.main(["generate", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_every_generator_parameter_is_a_generate_flag(capsys):
    with pytest.raises(SystemExit):
        cli.main(["generate", "--help"])
    words = capsys.readouterr().out.split()
    assert "{grid,near-pencil,circle,random,collinear}" in words
    for kind, gen in generators._GENERATORS.items():
        for name in inspect.signature(gen).parameters:
            assert f"--{name}" in words, (kind, name)


def test_generate_n_help_names_the_kinds_that_take_n(monkeypatch, capsys):
    def two_rows(n, k):
        raise AssertionError("never built")

    monkeypatch.setitem(generators._GENERATORS, "two_rows", two_rows)
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(["generate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--n N point count (near-pencil, circle, random, collinear, two-rows)" in text


def test_generate_unwritable_path(capsys):
    assert cli.main(["generate", "grid", "--w", "2", "--h", "2",
                     "--out", "/nonexistent/dir/out.json"]) == 1


def test_generate_bad_kind(capsys):
    assert cli.main(["generate", "pentagon", "--n", "5"]) == 1


def test_constants_wd_table(capsys):
    assert cli.main(["constants", "--family", "wd", "--c-min", "44", "--c-max", "48",
                     "--cutoff", "2048", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["argmax_c"] == 46
    row = next(r for r in result["rows"] if r["c"] == 46)
    assert row["h"] == "506/53"
    assert F(row["f_lo"]) > F(1, 26)
    assert F(row["f_lo"]) <= F(row["f_hi"])


def test_constants_wd_with_eps_column(capsys):
    assert cli.main(["constants", "--family", "wd", "--c-min", "46", "--c-max", "46",
                     "--eps", "1/26", "--cutoff", "4096", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    row = result["rows"][0]
    assert F(row["delta_lo"]) >= F(1, 26)


def test_constants_few_table(capsys):
    assert cli.main(["constants", "--family", "few", "--c-min", "36", "--c-max", "44",
                     "--cutoff", "2048", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["argmax_c"] == 44
    row36 = next(r for r in result["rows"] if r["c"] == 36)
    assert row36["b"] == "206/693"
    assert F(row36["a_lo"]) >= F(1, 39)


def test_constants_domain_error(capsys):
    assert cli.main(["constants", "--family", "wd", "--c-min", "5", "--c-max", "10"]) == 1


@pytest.mark.parametrize("cutoff", ["0", "-5"])
def test_constants_cutoff_below_one_is_exit_one(cutoff, capsys):
    assert cli.main(["constants", "--family", "few", "--c-min", "40", "--c-max", "48",
                     "--cutoff", cutoff]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cutoff must be >= 1, got {cutoff}" in captured.err


def test_constants_cutoff_above_max_is_exit_one(capsys):
    # a start cutoff past the refinement limit is refused; the limit itself is not
    argv = ["constants", "--family", "few", "--c-min", "40", "--c-max", "48", "--cutoff"]
    assert cli.main([*argv, "4097"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cutoff must be <= 4096, got 4097" in captured.err
    assert cli.main([*argv, "4096"]) == 0


def test_constants_c_max_above_max_cutoff_is_exit_one(capsys):
    # c_max lifts the start cutoff, so it is held to the same limit
    assert cli.main(["constants", "--family", "few", "--c-max", "4097"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c_max must be <= 4096" in captured.err
    assert "4097" in captured.err


def test_constants_exit_three_when_unresolved(monkeypatch, capsys):
    def raise_unresolved(*args, **kwargs):
        raise Unresolved("overlap")

    monkeypatch.setattr(bounds, "scan_constants_wd", raise_unresolved)
    assert cli.main(["constants", "--family", "wd", "--c-min", "8", "--c-max", "10"]) == 3


def test_constants_exit_three_on_a_near_tie(capsys):
    # beta within 1e-28 of the tie f(45) = f(46) (beta* = 30.7858941683...):
    # no cutoff up to MAX_CUTOFF = 4096 can separate the two enclosures, and
    # the scan gives up there after summing at most 4096 terms a round
    assert cli.main(["constants", "--family", "wd", "--c-min", "45", "--c-max", "46",
                     "--alpha", "103/16", "--beta", "2038012241309377/66199546784903"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argmax not isolated at cutoff 4096: 46 overlaps with [45]" in captured.err


def test_constants_custom_alpha_beta(capsys):
    assert cli.main(["constants", "--family", "wd", "--c-min", "46", "--c-max", "46",
                     "--alpha", "7", "--beta", "30", "--cutoff", "1024",
                     "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["alpha"] == "7"
    assert result["beta"] == "30"


def test_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(pointline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["constants", "--family", "wd", "--c-min", "46", "--c-max", "46"]
    done = subprocess.run([sys.executable, "-m", "pointline.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "argmax_c: 46"


def test_usage_error_is_exit_one(capsys):
    assert cli.main(["constants", "--family", "nope"]) == 1
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    for flag, text in (("--alpha", "foo"), ("--beta", "1/0")):
        assert cli.main(["constants", "--family", "wd", flag, text]) == 1
        assert capsys.readouterr().err == f"error: not a rational: {text!r}\n"

def test_constants_eps_outside_domain_is_exit_one(capsys):
    assert cli.main(["constants", "--family", "wd", "--c-min", "46", "--c-max", "46",
                     "--eps", "3", "--cutoff", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps must lie in (0, 1/2)" in captured.err


def test_constants_eps_outside_domain_fails_before_the_scan(monkeypatch, capsys):
    def no_table(*args):
        raise AssertionError("tail table built before eps was checked")

    monkeypatch.setattr(bounds, "_suffix_tail_table", no_table)
    assert cli.main(["constants", "--family", "wd", "--eps", "3"]) == 1
    assert "eps must lie in (0, 1/2)" in capsys.readouterr().err


def test_constants_eps_with_few_family_is_usage_error(capsys):
    assert cli.main(["constants", "--family", "few", "--c-min", "44", "--c-max", "44",
                     "--eps", "1/26", "--cutoff", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--eps" in captured.err


def _checked_tails(table, cutoffs):
    """table, appending each call's cutoff to cutoffs after asserting what the
    scan guarantees the table and the table no longer checks: a series kind
    of bounds._term, a start of at least 2 and a cutoff no lower than c_max."""

    def counting(kind, c_min, c_max, cutoff):
        assert kind in ("1/i^2", "(i+1)/i^3")
        assert c_min >= 2
        assert cutoff >= c_max
        cutoffs.append(cutoff)
        return table(kind, c_min, c_max, cutoff)

    return counting


@pytest.mark.parametrize("argv", [
    ["--family", "few", "--c-min", "40", "--c-max", "50"],
    ["--family", "wd", "--c-min", "40", "--c-max", "50", "--eps", "1/26"],
    ["--family", "few", "--c-min", "40", "--c-max", "48", "--cutoff", "64"],
    ["--family", "wd", "--c-min", "44", "--c-max", "48", "--eps", "1/30", "--cutoff", "64"],
])
def test_constants_one_tail_pass_per_refinement_round(argv, monkeypatch, capsys):
    cutoffs = []
    monkeypatch.setattr(bounds, "_suffix_tail_table", _checked_tails(bounds._suffix_tail_table, cutoffs))
    assert cli.main(["constants", *argv, "--format", "json"]) == 0
    final = json.loads(capsys.readouterr().out)["cutoff"]
    rounds = [cutoffs[0] * 2**i for i in range(len(cutoffs))]
    assert cutoffs == rounds
    assert cutoffs[-1] == final


# the benchmark's two constants calls, the README's three and its exit-3
# near-tie, --alpha 7 --beta 29 for each family, a start cutoff lifted to
# c_max, and one that refines from 64 to 2048
GATE_CALLS = [
    ["--family", "wd", "--c-min", "8", "--c-max", "200", "--eps", "1/26", "--format", "json"],
    ["--family", "few", "--c-min", "29", "--c-max", "200", "--format", "json"],
    ["--family", "wd", "--c-min", "8", "--c-max", "200"],
    ["--family", "few", "--c-min", "29", "--c-max", "200"],
    ["--family", "wd", "--c-min", "46", "--c-max", "46", "--eps", "1/26"],
    ["--family", "wd", "--c-min", "45", "--c-max", "46", "--beta", "2038012241309377/66199546784903"],
    ["--family", "wd", "--alpha", "7", "--beta", "29"],
    ["--family", "few", "--alpha", "7", "--beta", "29"],
    ["--family", "wd", "--cutoff", "8", "--c-max", "60"],
    ["--family", "wd", "--c-min", "45", "--c-max", "46", "--beta", "26356235/856114", "--cutoff", "64"],
]


@pytest.mark.parametrize("argv", GATE_CALLS, ids=" ".join)
def test_constants_output_matches_the_exact_tail_sums(argv, monkeypatch, capsys):
    # the fixed-point tails widen each enclosure by under 2^-115, far
    # below the 15 printed digits and every separation the scans decide
    shipped = cli.main(["constants", *argv]), capsys.readouterr()
    monkeypatch.setattr(bounds, "_suffix_tail_table", exact_tail_table)
    assert (cli.main(["constants", *argv]), capsys.readouterr()) == shipped


@pytest.mark.parametrize("argv", GATE_CALLS, ids=" ".join)
def test_constants_tail_tables_get_what_the_scan_guarantees(argv, monkeypatch, capsys):
    # the lifted start cutoff and the exit-3 near-tie among them
    cutoffs = []
    monkeypatch.setattr(bounds, "_suffix_tail_table", _checked_tails(bounds._suffix_tail_table, cutoffs))
    cli.main(["constants", *argv])
    capsys.readouterr()
    assert cutoffs


# sha256 of repr((exit code, stdout, stderr)) of each GATE_CALLS call, as
# printed when each record field was still evaluated in Fraction and
# Interval operators: the integer closed forms must not move a byte
GATE_DIGESTS = [
    "e253ddb50a48469739593958b8f9fe67d8ee9f584ed3bf1eeb8f06e7a9ffba18",
    "09f561830156cbd4a4441e9ce1d5094f5ad6cada1b6d21c246d11d0396c4474c",
    "5719ab41258cc17fd6fd8b5722bca2222205b0ae07d6eae1c056145ec9bf1d36",
    "cd06d1679089575263cda24bce454ab4f49b540b69ca823fb0b9233ba2dcc523",
    "04b92fce650f190912da412c4946f865aeacd1339cc3743f4d6b5a65ef7f4cd6",
    "9212d4336246a71ea74113d0ce42e0682bd709b73d84cf5a7d488fdc2e6a833e",
    "9d72a588bd19c2e6588df368bdb9aa74a9b308a1dae8f8f3307480acb2a37e4a",
    "5f1ad71b9a74309458f500bf07ebc205b8f30b51dfe5aeea088f2c81778a8bfa",
    "96a764f0c02c20de0c23c6f6741574a9f59bb68ac5e7e72930b937efdd81304d",
    "982df0cd93b7484c3889ac9315a640f88be8323b557447d24a3f297109be6ad0",
]


@pytest.mark.parametrize("argv, digest", zip(GATE_CALLS, GATE_DIGESTS, strict=True),
                         ids=[" ".join(argv) for argv in GATE_CALLS])
def test_constants_output_bytes_are_unchanged(argv, digest, capsys):
    code = cli.main(["constants", *argv])
    out, err = capsys.readouterr()
    assert hashlib.sha256(repr((code, out, err)).encode()).hexdigest() == digest


def _outward(iv, digits=15):
    scale = 10**digits
    return F(math.floor(iv.lo * scale), scale), F(math.ceil(iv.hi * scale), scale)


def test_constants_rows_are_rounded_api_records(capsys):
    assert cli.main(["constants", "--family", "wd", "--c-min", "44", "--c-max", "48",
                     "--eps", "1/26", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    row = next(r for r in result["rows"] if r["c"] == 46)
    p = bounds.scan_constants_wd(46, 46, cutoff=result["cutoff"]).records[0].with_eps(F(1, 26))
    assert (F(row["delta_lo"]), F(row["delta_hi"])) == _outward(p.delta)
    assert (F(row["f_lo"]), F(row["f_hi"])) == _outward(p.f)
    assert (row["h"], row["x"], row["y"]) == (str(p.h), str(p.x), str(p.y))

    assert cli.main(["constants", "--family", "few", "--c-min", "40", "--c-max", "48",
                     "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    row = next(r for r in result["rows"] if r["c"] == 44)
    p = bounds.scan_constants_few(44, 44, cutoff=result["cutoff"]).records[0]
    assert (F(row["a_lo"]), F(row["a_hi"])) == _outward(p.a)
    assert (F(row["eps_lo"]), F(row["eps_hi"])) == _outward(p.eps)
    assert (row["h"], row["x"], row["b"]) == (str(p.h), str(p.x), str(p.b))


@given(st.lists(st.fractions(), min_size=2, max_size=2).map(sorted))
@example([F(-7), F(3)])
@example([F(1, 3), F(1, 3)])
@example([F(-1, 3), F(1, 2)])
@example([F(2**200 + 1, 2**128), F(2**200 + 3, 2**128)])
def test_enclosure_strs_print_the_outward_rounded_fractions(ends):
    iv = bounds.Interval(*ends)
    assert cli._enclosure_strs(iv) == tuple(map(str, _outward(iv)))


def _modules_loaded(code, names):
    """Which of names a fresh interpreter loads while it runs code.

    Modules that the interpreter loaded before code ran, at start-up, are
    not counted.
    """
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        f"print(' '.join(m for m in {tuple(names)!r} if m in sys.modules and m not in before))\n"
    )
    src = os.path.dirname(os.path.dirname(pointline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def _verify_near_pencil(tmp_path, n):
    """Code that runs verify on near-pencil n, written to tmp_path."""
    path = tmp_path / f"pencil{n}.json"
    assert cli.main(["generate", "near-pencil", "--n", str(n), "--out", str(path)]) == 0
    return f"import pointline.cli as cli\nassert cli.main(['verify', {str(path)!r}]) == 0"


def test_small_verify_does_not_import_numpy(tmp_path):
    # numpy costs ~0.15 s and ~14 MB to import; inputs below the int64
    # path's pair threshold must not pay for it
    assert _modules_loaded(_verify_near_pencil(tmp_path, 200), ["numpy"]) == set()


def test_large_near_pencil_verify_does_not_import_numpy(tmp_path):
    # 2000 points are far above the pair threshold, but one line holds all
    # but one of them, so the build takes the exact kernel
    assert _modules_loaded(_verify_near_pencil(tmp_path, 2000), ["numpy"]) == set()


def test_cli_import_loads_neither_dataclasses_inspect_nor_numpy():
    # each of them costs milliseconds of every fresh process's start-up;
    # numpy (which imports inspect itself) loads only on the int64 path
    assert _modules_loaded("import pointline.cli", ["dataclasses", "inspect", "numpy"]) == set()
    assert _modules_loaded("import pointline.cli\nimport dataclasses", ["dataclasses"]) == {"dataclasses"}
