"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Criterion 3 has one reference clause that exact arithmetic contradicts;
it is implemented faithfully and marked as a strict expected failure --
see the assertion message for the exact value.
"""
import time
from fractions import Fraction as F

import pytest

from pointline import (
    bounds,
    build_arrangement,
    circle,
    cli,
    collinear,
    grid,
    near_pencil,
    random_points,
    scan_constants_few,
    scan_constants_wd,
)

from conftest import contains, encloses, tail
from reference import brute_force_lines

GRID_RANGE = range(2, 13)
PENCIL_RANGE = range(3, 201)
CIRCLE_RANGE = range(3, 101)
COLLINEAR_SIZES = (2, 3, 4, 5, 10, 26, 100, 200)
N_RANDOM_SWEEP = 200
N_RANDOM_ORACLE = 500


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {verdict}{suffix}")


def _random_sweep_configs():
    for seed in range(N_RANDOM_SWEEP):
        n = 5 + (7 * seed) % 56
        bound = 4 + (seed % 13)
        yield random_points(n, seed, bound)


def _random_oracle_configs():
    for seed in range(N_RANDOM_ORACLE):
        n = 3 + seed % 38
        bound = 3 + seed % 15
        yield random_points(n, seed, bound)


def test_criterion_1_constant_scan_argmax():
    t0 = time.monotonic()
    scan = scan_constants_wd(8, 200, cutoff=4096)
    elapsed = time.monotonic() - t0
    f46 = dict(scan.table)[46]
    ok = scan.argmax_c == 46 and f46.lo > F(1, 26) and elapsed < 60
    _report("1 constant scan", ok, f"argmax={scan.argmax_c}, {elapsed:.1f}s")
    assert scan.argmax_c == 46
    assert f46.lo > F(1, 26)
    assert (bounds.WD_C, bounds.WD_DELTA) == (46, F(1, 26))
    assert elapsed < 60


def test_criterion_2_incidence_bound_constants():
    p = scan_constants_wd(46, 46, cutoff=4096).records[0].with_eps(F(1, 26))
    ok = (
        p.delta.lo >= F(1, 26)
        and p.r == F(20803, 8944)
        and p.r >= 2
        and p.delta.hi - p.delta.lo < F(1, 10**6)
    )
    _report("2 incidence constants", ok, f"delta.lo={float(p.delta.lo):.9f}, r={p.r}")
    assert p.delta.lo >= F(1, 26)
    assert p.r == F(20803, 8944) and p.r >= 2
    assert p.delta.hi - p.delta.lo < F(1, 10**6)
    assert (bounds.WD_C, bounds.WD_DELTA, bounds.WD_R) == (46, F(1, 26), 2)


def test_criterion_3_few_lines_constants():
    e44 = scan_constants_few(44, 44, cutoff=4096).records[0].eps
    p36 = scan_constants_few(36, 36, cutoff=4096).records[0]
    ok = e44.lo >= F(2, 61) and p36.a.lo >= F(1, 39) and p36.b == F(206, 693) <= F(1, 3)
    _report(
        "3 few-lines constants",
        ok,
        f"eps44.lo={float(e44.lo):.9f}, A36.lo={float(p36.a.lo):.9f}, B36={p36.b}",
    )
    assert e44.lo >= F(2, 61)
    assert p36.a.lo >= F(1, 39)
    assert p36.b == F(206, 693)
    assert p36.b <= F(1, 3)
    assert (bounds.FEW_C, bounds.FEW_EPS) == (44, F(2, 61))


@pytest.mark.xfail(
    strict=True,
    reason="exact value of 2A(44)/(1+2B(44)) is 1/30.1403... > 1/30.2; "
    "no sound enclosure can satisfy this reference upper bound",
)
def test_criterion_3_eps44_reference_upper_bound():
    e44 = scan_constants_few(44, 44, cutoff=4096).records[0].eps
    _report(
        "3b eps44 <= 1/30.2 reference",
        e44.hi <= F(10, 302),
        f"exact enclosure [{float(e44.lo):.9f}, {float(e44.hi):.9f}] vs 1/30.2={float(F(10, 302)):.9f}",
    )
    assert e44.hi <= F(10, 302), (
        f"enclosure hi = {e44.hi} = {float(e44.hi):.9f} exceeds 1/30.2 = {float(F(10, 302)):.9f}; "
        f"the true value 2A/(1+2B) = 1/{float(2 / e44.lo / 2):.4f} lies above the reference"
    )


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for ps in _random_oracle_configs():
        arr = build_arrangement(ps)
        assert list(arr.lines.values()) == brute_force_lines(ps), (
            f"mismatch on random config n={ps.n}"
        )
        checked += 1
    for w in range(2, 9):
        for h in range(2, 9):
            ps = grid(w, h)
            arr = build_arrangement(ps)
            assert list(arr.lines.values()) == brute_force_lines(ps), (
                f"mismatch on grid {w}x{h}"
            )
            checked += 1
    elapsed = time.monotonic() - t0
    _report("4 oracle equivalence", elapsed < 120, f"{checked} configs, {elapsed:.1f}s")
    assert checked >= 500 + 49
    assert elapsed < 120


def _sweep_corpus():
    for w in GRID_RANGE:
        for h in GRID_RANGE:
            if w <= h:
                yield f"grid {w}x{h}", grid(w, h)
    for n in PENCIL_RANGE:
        yield f"near_pencil {n}", near_pencil(n)
    for n in CIRCLE_RANGE:
        yield f"circle {n}", circle(n)
    for n in COLLINEAR_SIZES:
        yield f"collinear {n}", collinear(n)
    for idx, ps in enumerate(_random_sweep_configs()):
        yield f"random {idx}", ps


def test_criterion_5_inequality_sweep():
    failures = []
    count = 0
    for label, ps in _sweep_corpus():
        code, report = cli.run_verify(ps, label)
        count += 1
        if code != 0:
            bad = [c for c in report["checks"] if c["holds"] is False]
            failures.append((label, bad))
    _report("5 inequality sweep", not failures, f"{count} configurations")
    assert not failures, failures


def test_criterion_5_cli_verify_end_to_end(tmp_path, capsys):
    # the same exit-code contract through the real command line, including
    # the oracle cross-check on the largest grid
    path = tmp_path / "g12.json"
    assert cli.main(["generate", "grid", "--w", "12", "--h", "12", "--out", str(path)]) == 0
    assert cli.main(["verify", str(path), "--cross-check"]) == 0
    path2 = tmp_path / "np100.json"
    assert cli.main(["generate", "near-pencil", "--n", "100", "--out", str(path2)]) == 0
    assert cli.main(["verify", str(path2), "--format", "json"]) == 0
    capsys.readouterr()
    _report("5b CLI verify end-to-end", True)


def test_criterion_6_algebraic_identities():
    for c in range(8, 501):
        h = F(c * (c - 2), 5 * c - 18)
        x = (h + 1) / 2
        assert x == F(c - 1, 2) - 2 * h + 9 * h / c, c
        gamma_max = max(F(i - 1, 2) - 2 * h + 9 * h / i for i in range(5, c + 1))
        assert x >= F(3, 2) and x >= (h + 4) / 4 and x >= 2 - h / 5 and x >= gamma_max, c
        y = c - 5 * h - 2 + 18 * h / (c + 1)
        assert -1 < y < 0, c
        assert y * F(c + 1, c**3) == F(-18 * (c - 2), c**3 * (5 * c - 18)), c
    for c in range(29, 501):
        h = F(c * c - c - 2, 4 * c - 16)
        assert h + 1 == F(c * c + 3 * c - 18, 4 * c - 16), c
        pos = F(c * c - 3 * c - 14, 2 * c * (c - 4))
        assert c - 4 * h + 14 * h / c == pos, c
        assert pos > 0, c
        phi_max = max(F(i * (i - 1), 2) - h * (2 * i - 9) for i in range(5, c + 1))
        assert h + 1 >= 3 * (h + 4) / 4 and h + 1 >= 6 and h + 1 >= phi_max, c
    _report("6 algebraic identities", True, "c in [8,500] and [29,500]")


def test_criterion_7_series_enclosures():
    for kind in ("1/i^2", "(i+1)/i^3"):
        for c in (2, 8, 46, 200):
            for cutoff in (256, 512, 1024, 2048):
                assert encloses(tail(kind, c, cutoff), tail(kind, c, 2 * cutoff))
    iv = tail("1/i^2", 2, 4096)
    assert iv.hi - iv.lo < F(24, 10**5)
    # sum_{i>=2} 1/i^2 = pi^2/6 - 1, to 40 digits
    assert contains(iv, F("0.6449340668482264364724151666460251892189"))
    _report("7 series enclosures", True, f"width at 4096 = {float(iv.hi - iv.lo):.2e}")


def test_criterion_8_coverage_note():
    # The quantified statements hold for every planar point set; finite runs
    # cannot establish them.  What this suite does establish, exactly and
    # with zero tolerance, is: the bound constants reproduce (criteria 1-3),
    # line enumeration agrees with an independent brute force on 549
    # configurations (criterion 4), and every inequality holds on the whole
    # generator corpus (criterion 5).  Those three pillars exercise every
    # formula the package implements.
    corpus_size = sum(1 for _ in _sweep_corpus())
    assert corpus_size >= 66 + 198 + 98 + len(COLLINEAR_SIZES) + N_RANDOM_SWEEP
    _report("8 coverage note", True, f"sweep corpus = {corpus_size} configurations")
