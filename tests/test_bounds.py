import operator
import sys
from collections import Counter
from fractions import Fraction as F
from types import MappingProxyType, SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pointline import bounds as bounds_mod
from pointline import (
    Arrangement,
    CrossingConstants,
    DomainError,
    GraphSize,
    Interval,
    InvalidCutoff,
    TheoremCheck,
    Unresolved,
    build_arrangement,
    circle,
    collinear,
    crossing_lower_bound,
    few_lines_lower_bound,
    grid,
    near_pencil,
    random_points,
    scan_constants_few,
    scan_constants_wd,
    verify_theorems,
)

import reference
from conftest import contains, encloses, exact_tail_table, mutant, tail

ALPHA = F(103, 16)
BETA = F(31827, 1024)


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------


def test_interval_has_no_arithmetic():
    # a tuple base would make + concatenate and * repeat the endpoints into a
    # 4-tuple; every arithmetic form raises TypeError instead of returning one
    returned = {}
    for form in ("iv + 1", "iv + iv", "1 - iv", "iv * 2", "2 * iv", "iv / 2", "-iv", "sum([iv, iv])"):
        try:
            returned[form] = eval(form, {"iv": Interval(F(1), F(2))})
        except TypeError:
            pass
    assert returned == {}


def test_interval_refuses_ordering():
    wide, narrow = Interval(F(0), F(10)), Interval(F(1), F(2))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError, match="not ordered"):
            compare(wide, narrow)
        with pytest.raises(TypeError, match="not ordered"):
            compare((0, 10), narrow)  # a plain tuple does not order them either
    with pytest.raises(TypeError, match="not ordered"):
        max(wide, narrow)
    with pytest.raises(TypeError, match="not ordered"):
        sorted([wide, narrow])
    # equality with a plain tuple and hashing stay
    assert wide == (0, 10) and (1, 2) == narrow and wide != narrow
    assert {wide, Interval(F(0), F(10))} == {wide}


def test_interval_rejects_reversed_endpoints():
    with pytest.raises(DomainError):
        Interval(F(2), F(1))


# ---------------------------------------------------------------------------
# Crossing-number machinery
# ---------------------------------------------------------------------------


def test_crossing_constants_defaults():
    k = CrossingConstants()
    assert (k.alpha, k.beta) == (ALPHA, BETA)
    with pytest.raises(DomainError):
        CrossingConstants(alpha=F(0))


def test_graph_size_validation():
    with pytest.raises(DomainError):
        GraphSize(0, 0)
    with pytest.raises(DomainError):
        GraphSize(4, 7)


def test_crossing_constants_hold_exact_fractions():
    # both floats are dyadic, so they convert to the default pair exactly
    k = CrossingConstants(6.4375, 31.0810546875)
    assert k == bounds_mod.DEFAULT_CONSTANTS
    assert (type(k.alpha), type(k.beta)) == (F, F)
    assert scan_constants_wd(40, 50, k) == scan_constants_wd(40, 50)
    assert type(crossing_lower_bound(GraphSize(16, 103), k)) is F


def test_graph_size_refuses_float_counts():
    for counts in ((16.0, 103), (16, 103.0)):
        with pytest.raises(TypeError):
            GraphSize(*counts)


def test_crossing_lower_bound_at_threshold():
    # m = alpha * n exactly
    assert crossing_lower_bound(GraphSize(16, 103)) == F(1024 * 103**3, 31827 * 256)


def test_crossing_lower_bound_below_threshold():
    assert crossing_lower_bound(GraphSize(100, 100)) == 0
    # K10 has m = 45 < alpha*10, so the premise fails and no bound is claimed
    assert crossing_lower_bound(GraphSize(10, 45)) == 0


def _st_sides(n, hist, e):
    """The lhs, rhs and note of _st_check at the default pair on n points with line sizes hist."""
    arr = SimpleNamespace(n=n, size_hist=hist, max_collinear=max(hist))
    _, note, lhs, rhs = bounds_mod._st_check(arr, e, bounds_mod.DEFAULT_CONSTANTS)
    return F(*lhs), F(*rhs), note


def test_st_bound_edges_small_i():
    assert _st_sides(9, {2: 36}, 2)[1] == max(F(927, 16), F(2577987, 2048)) == F(2577987, 2048)


def test_st_bound_edges_branch_switch():
    # from i = 6 on the quadratic branch is below alpha*n, so the bound is flat
    # there and the smallest threshold of the flat stretch stands for the tie
    assert _st_sides(9, {100: 1}, 2) == (99, F(927, 16), "tightest at i=6 over i in [2, 100]")


def test_st_bound_lines():
    assert _st_sides(9, {3: 12}, 3)[1] == max(F(927, 32), F(2577987, 16384)) == F(2577987, 16384)
    assert _st_sides(9, {2: 36}, 3)[1] == max(ALPHA * 9, BETA * 81 / 2) == F(2577987, 2048)


def test_st_bounds_monotone_in_n():
    # one line of i points: the suffix sum is constant on [2, i], so the
    # tightest threshold's bound is the bound at i
    for i in (2, 3, 7):
        for e in (2, 3):
            assert _st_sides(50, {i: 1}, e)[1] >= _st_sides(10, {i: 1}, e)[1]


# ---------------------------------------------------------------------------
# Hirzebruch
# ---------------------------------------------------------------------------


def hirzebruch_check(arr):
    """The hirzebruch entry of verify_theorems, run alone."""
    (check,) = verify_theorems(arr, ["hirzebruch"])
    return check


def test_hirzebruch_grid33():
    rep = hirzebruch_check(build_arrangement(grid(3, 3)))
    assert rep.applicable and rep.holds
    assert (rep.lhs, rep.rhs) == (18, 9)


def test_hirzebruch_grid44():
    # s = {2: 48, 3: 4, 4: 10}: lhs = 48 + 3 = 51, rhs = 16
    rep = hirzebruch_check(build_arrangement(grid(4, 4)))
    assert rep.applicable and rep.holds
    assert (rep.lhs, rep.rhs) == (51, 16)


def test_hirzebruch_near_pencil_not_applicable():
    arr = build_arrangement(near_pencil(5))
    rep = hirzebruch_check(arr)
    assert not rep.applicable
    assert rep.holds is None
    # the same record verify_theorems reports, note included
    assert rep.note == "needs max_collinear <= n-3, have 4 > 2"
    assert rep == _by_name(verify_theorems(arr))["hirzebruch"]


# ---------------------------------------------------------------------------
# Series enclosures
# ---------------------------------------------------------------------------


# sum_{i>=2} 1/i^2 = pi^2/6 - 1, to 40 digits
PI2_6_MINUS_1 = F("0.6449340668482264364724151666460251892189")


# one unit of the fixed-point tail sums
ULP = F(1, 1 << bounds_mod.TAIL_BITS)


def test_tail_sum_one_term():
    # 1/4, plus the bracket at M = 2: U2 = 1/2 - 1/8 + 1/48 = 19/48, less 1/(30 * 2^5);
    # one term and the bracket, each rounded outward by less than one unit
    exact = Interval(F(619, 960), F(31, 48))
    iv = tail("1/i^2", 2, 2)
    assert encloses(iv, exact)
    assert exact.lo - iv.lo <= 2 * ULP and iv.hi - exact.hi <= 2 * ULP


TAIL_STARTS = (2, 3, 5, 8, 29, 44, 46, 100, 200)
# the series kinds of bounds._term: the few family's, then the wd family's
TAIL_KINDS = ("1/i^2", "(i+1)/i^3")


@pytest.mark.parametrize("kind", TAIL_KINDS)
def test_fixed_point_tails_enclose_the_exact_tails(kind):
    # c..c+39 tries every cutoff near the start, 256..4096 each cutoff a
    # default scan can refine to; one table per large cutoff serves every c
    big = {m: (bounds_mod._suffix_tail_table(kind, 2, 200, m), exact_tail_table(kind, 2, 200, m))
           for m in (256, 512, 1024, 2048, 4096)}
    for c in TAIL_STARTS:
        shipped, exact = {}, {}
        for m in range(c, c + 40):
            shipped[m] = bounds_mod._suffix_tail_table(kind, c, c, m)[c]
            exact[m] = exact_tail_table(kind, c, c, m)[c]
        for m, (ship_table, exact_table) in big.items():
            shipped[m], exact[m] = ship_table[c], exact_table[c]
        for m, iv in shipped.items():
            assert encloses(iv, exact[m]), (c, m)
            slack = (m - c + 2) * ULP
            assert exact[m].lo - iv.lo <= slack and iv.hi - exact[m].hi <= slack, (c, m)
            assert (1 << bounds_mod.TAIL_BITS) % iv.lo.denominator == 0, (c, m)
            assert (1 << bounds_mod.TAIL_BITS) % iv.hi.denominator == 0, (c, m)
            if 2 * m in shipped:
                assert encloses(iv, shipped[2 * m]), (c, m)


def test_tail_sum_contains_reference():
    iv = tail("1/i^2", 2, 4096)
    assert contains(iv, PI2_6_MINUS_1)
    assert contains(tail("1/i^2", 2, 2), PI2_6_MINUS_1)


def test_tail_sum_nesting():
    for kind in TAIL_KINDS:
        for c in (2, 8, 46):
            coarse = tail(kind, c, 64)
            fine = tail(kind, c, 128)
            assert encloses(coarse, fine)


def test_tail_sum_width_shrinks():
    iv = tail("(i+1)/i^3", 46, 4096)
    assert iv.hi - iv.lo < F(1, 10**6)


def _integral_tail_sum(kind, c, cutoff):
    """The reference: exact partial sum plus the integral bracket of the remainder,
    sum_{i>M} 1/i^2 in [1/(M+1), 1/M] and sum_{i>M} 1/i^3 in [1/(2(M+1)^2), 1/(2M^2)]."""
    m = cutoff
    cubes = kind != "1/i^2"
    partial = sum(F(1, i * i) + (F(1, i**3) if cubes else 0) for i in range(c, m + 1))
    lo, hi = F(1, m + 1), F(1, m)
    if cubes:
        lo, hi = lo + F(1, 2 * (m + 1) ** 2), hi + F(1, 2 * m * m)
    return Interval(partial + lo, partial + hi)


@pytest.mark.parametrize("kind", TAIL_KINDS)
def test_default_cutoff_lies_inside_integral_bracket_at_4096(kind):
    assert bounds_mod.DEFAULT_CUTOFF == 256
    for c in (8, 29, 44, 46, 100, 200):
        new = tail(kind, c, 256)
        assert encloses(_integral_tail_sum(kind, c, 4096), new), c
        assert new.hi - new.lo < F(1, 10**13)


def test_default_scan_sums_no_more_than_the_default_cutoff(monkeypatch):
    # a scan that went back to thousands of exact terms would still be
    # right, only many times slower; count the terms it sums
    calls = []
    term = bounds_mod._term

    def counting(kind, i):
        calls.append(i)
        return term(kind, i)

    monkeypatch.setattr(bounds_mod, "_term", counting)
    scan = scan_constants_wd(8, 200)
    assert scan.cutoff == 256
    assert scan.argmax_c == 46
    assert 0 < len(calls) <= 256
    assert max(calls) <= 256


# ---------------------------------------------------------------------------
# Incidence bound constants
# ---------------------------------------------------------------------------


def test_wd_params_h_minimum():
    assert scan_constants_wd(8, 8, cutoff=64).records[0].h == F(24, 11)


def test_wd_params_published_point():
    p = scan_constants_wd(46, 46).records[0].with_eps(F(1, 26))
    assert p.h == F(506, 53)
    assert p.r == F(20803, 8944)
    assert p.r >= 2
    assert p.delta.lo >= F(1, 26)
    assert p.x == (p.h + 1) / 2
    assert -1 < p.y < 0


def test_wd_params_validation():
    with pytest.raises(DomainError):
        scan_constants_wd(7, 7)
    with pytest.raises(DomainError):
        scan_constants_wd(46, 46, cutoff=64).records[0].with_eps(F(1, 2))


def test_wd_identities_sampled():
    for c in range(8, 80):
        h = F(c * (c - 2), 5 * c - 18)
        x = (h + 1) / 2
        # closed form of the per-size coefficient at i = c equals x
        assert x == F(c - 1, 2) - 2 * h + 9 * h / c
        assert x >= F(3, 2) and x >= (h + 4) / 4 and x >= 2 - h / 5
        y = c - 5 * h - 2 + 18 * h / (c + 1)
        assert -1 < y < 0
        assert y == F(-18 * (c - 2), (c + 1) * (5 * c - 18))
        # bridge between the two equivalent series offsets
        assert y * F(c + 1, c**3) == F(-18 * (c - 2), c**3 * (5 * c - 18))


def test_f_wd_published_point():
    assert scan_constants_wd(46, 46).records[0].f.lo > F(1, 26)


def test_f_wd_comparisons():
    f8 = scan_constants_wd(8, 8, cutoff=4096).records[0].f
    f46 = scan_constants_wd(46, 46, cutoff=4096).records[0].f
    assert f8.hi < f46.lo
    coarse = scan_constants_wd(46, 46, cutoff=512).records[0].f
    fine = scan_constants_wd(46, 46, cutoff=1024).records[0].f
    assert encloses(coarse, fine)
    assert fine.hi - fine.lo < coarse.hi - coarse.lo


def test_scan_singleton():
    scan = scan_constants_wd(46, 46, cutoff=512)
    assert scan.argmax_c == 46
    assert len(scan.table) == 1


def test_scan_small_range():
    scan = scan_constants_wd(40, 50, cutoff=2048)
    assert scan.argmax_c == 46


def test_scan_low_range_below_peak():
    scan = scan_constants_wd(8, 20, cutoff=1024)
    best = dict(scan.table)[scan.argmax_c]
    assert best.hi < scan_constants_wd(46, 46, cutoff=1024).records[0].f.lo


# beta close to the f(45) = f(46) tie: f(46) - f(45) is about 2.5e-17, so
# the enclosures of 45 and 46 overlap until the cutoff reaches 2048
NEAR_TIE = CrossingConstants(alpha=ALPHA, beta=F(26356235, 856114))


def test_scan_refinement_resolves():
    scan = scan_constants_wd(45, 46, NEAR_TIE, cutoff=64)
    assert scan.argmax_c == 46
    assert scan.cutoff == 2048


# beta within 1e-28 of the tie: no cutoff up to MAX_CUTOFF separates them
TRUE_TIE = CrossingConstants(alpha=ALPHA, beta=F(2038012241309377, 66199546784903))


def test_scan_unresolved_at_cutoff_limit():
    with pytest.raises(Unresolved, match="at cutoff 4096: 46 overlaps with \\[45\\]"):
        scan_constants_wd(45, 46, TRUE_TIE, cutoff=64)


def test_scan_domain():
    with pytest.raises(DomainError):
        scan_constants_wd(5, 20)


@pytest.mark.parametrize("cutoff", [0, -5, 4097])
def test_scan_rejects_cutoff_below_one_before_any_tail(cutoff, monkeypatch):
    def no_table(*args):
        raise AssertionError("tail table built before the cutoff was checked")

    monkeypatch.setattr(bounds_mod, "_suffix_tail_table", no_table)
    with pytest.raises(InvalidCutoff, match=str(cutoff)):
        scan_constants_few(40, 48, cutoff=cutoff)
    with pytest.raises(InvalidCutoff):
        scan_constants_wd(44, 48, cutoff=cutoff)


def test_scan_rejects_c_max_above_max_cutoff_before_any_tail(monkeypatch):
    def no_table(*args):
        raise AssertionError("tail table built before c_max was checked")

    monkeypatch.setattr(bounds_mod, "_suffix_tail_table", no_table)
    with pytest.raises(InvalidCutoff, match="4097"):
        scan_constants_few(40, 4097)
    with pytest.raises(InvalidCutoff, match="4097"):
        scan_constants_wd(44, 4097, cutoff=64)


def test_scan_lifts_positive_cutoff_to_c_max():
    scan = scan_constants_wd(46, 46, cutoff=1)
    assert scan.argmax_c == 46
    assert scan.cutoff == 46


# ---------------------------------------------------------------------------
# Few-point-line constants
# ---------------------------------------------------------------------------


def test_few_params_published_point():
    p = scan_constants_few(36, 36).records[0]
    assert p.b == F(206, 693)
    assert p.b <= F(1, 3)
    assert p.a.lo >= F(1, 39)


def test_few_params_h_at_29():
    # (29^2 - 29 - 2) / (4*29 - 16) = 810/100
    assert scan_constants_few(29, 29, cutoff=64).records[0].h == F(81, 10)


def test_few_params_validation():
    with pytest.raises(DomainError):
        scan_constants_few(28, 28)


def test_few_identities_sampled():
    for c in range(29, 90):
        h = F(c * c - c - 2, 4 * c - 16)
        x = h + 1
        assert x == F(c * c + 3 * c - 18, 4 * c - 16)
        positivity = F(c * c - 3 * c - 14, 2 * c * (c - 4))
        assert c - 4 * h + 14 * h / c == positivity
        assert positivity > 0
        assert x >= 3 * (h + 4) / 4 and x >= 6
        assert max(F(i * (i - 1), 2) - h * (2 * i - 9) for i in range(5, c + 1)) == x


def test_few_lines_lower_bound_substitution():
    p = scan_constants_few(36, 36).records[0]
    lb = few_lines_lower_bound(100, 10, p)
    assert lb == (p.a.lo * 10**4 - F(206, 693) * 1000, p.a.hi * 10**4 - F(206, 693) * 1000)


FEW_RECORDS = [scan_constants_few(c, c).records[0] for c in (36, 44)]


@given(st.sampled_from(FEW_RECORDS), st.data())
def test_few_lines_lower_bound_is_the_paper_form_at_each_end(p, data):
    n = data.draw(st.integers(2, 10**4))
    l = data.draw(st.integers(2, n))
    lb = few_lines_lower_bound(n, l, p)
    assert type(lb) is Interval
    assert lb == tuple(a * n**2 - p.b * l * n for a in p.a)


def test_few_lines_lower_bound_degenerate_all_collinear():
    p = scan_constants_few(36, 36).records[0]
    lb = few_lines_lower_bound(10, 10, p)
    assert lb.hi <= 0  # vacuous bound


def test_few_lines_lower_bound_grows_with_n():
    p = scan_constants_few(36, 36).records[0]
    assert few_lines_lower_bound(200, 10, p).lo > 4 * few_lines_lower_bound(100, 10, p).lo


def test_few_lines_lower_bound_domain():
    p = scan_constants_few(36, 36, cutoff=64).records[0]
    with pytest.raises(DomainError):
        few_lines_lower_bound(10, 1, p)
    with pytest.raises(DomainError):
        few_lines_lower_bound(10, 11, p)


def test_eps_few_published_point():
    iv = scan_constants_few(44, 44).records[0].eps
    assert iv.lo >= F(2, 61)
    assert iv.hi - iv.lo < F(1, 10**6)
    # exact value is just above 1/30.15
    assert F(1, 31) < iv.lo and iv.hi < F(1, 30)


def test_eps_few_increases_to_44():
    assert scan_constants_few(29, 29).records[0].eps.hi < scan_constants_few(44, 44).records[0].eps.lo


def test_enclosures_contain_independent_zeta_reference():
    """Hurwitz-zeta evaluation is a path-independent oracle for the series.

    sum_{i>=c} 1/i^2 = zeta(2, c) and sum_{i>=c} (i+1)/i^3 = zeta(2, c)
    + zeta(3, c); every enclosure must contain the value computed that
    way at 40 significant digits.
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    alpha, beta = mp.mpf(103) / 16, mp.mpf(31827) / 1024

    def as_fraction(v):
        return F(mp.nstr(v, 35))

    for c in (8, 29, 46, 100):
        h = mp.mpf(c * (c - 2)) / (5 * c - 18)
        off = mp.mpf(-18 * (c - 2)) / (c**3 * (5 * c - 18))
        series = mp.zeta(2, c) + mp.zeta(3, c)
        ref = (1 - beta / 2 * (off + series)) / (h + 1 + alpha)
        assert contains(scan_constants_wd(c, c).records[0].f, as_fraction(ref)), c
    for c in (29, 36, 44):
        off = mp.mpf(c * c - 3 * c - 14) / (2 * c**3 * (c - 4))
        ref = (1 - beta / 2 * (off + mp.zeta(2, c))) * mp.mpf(2 * c - 8) / (c * c + 3 * c - 18)
        (p,) = scan_constants_few(c, c).records
        assert contains(p.a, as_fraction(ref)), c
        b = mp.mpf(2 * c - 8) * alpha / (c * c + 3 * c - 18)
        assert contains(p.eps, as_fraction(2 * ref / (1 + 2 * b))), c


def test_scan_few_small_range():
    scan = scan_constants_few(40, 50, cutoff=2048)
    assert scan.argmax_c == 44


def test_one_c_scan_records_match_the_range_scan():
    # each range scan's record is the one-c scan's at the range's final cutoff
    for scan, c_min, c_max in ((scan_constants_wd, 44, 48), (scan_constants_few, 40, 48)):
        full = scan(c_min, c_max, cutoff=64)
        assert [p.c for p in full.records] == [c for c, _ in full.table] == list(range(c_min, c_max + 1))
        objective = "f" if scan is scan_constants_wd else "eps"
        assert all(getattr(p, objective) == iv for p, (_, iv) in zip(full.records, full.table))
        for p in full.records:
            one = scan(p.c, p.c, cutoff=full.cutoff)
            assert (one.argmax_c, one.cutoff, one.records) == (p.c, full.cutoff, (p,))
            if scan is scan_constants_wd:
                assert one.records[0].with_eps(F(1, 26)) == p.with_eps(F(1, 26))
                assert p.eps is None and p.delta is None  # with_eps returned a new record
    # the family minimum is its own one-c scan, and the c below it is refused
    for scan, c_min in ((scan_constants_wd, 8), (scan_constants_few, 29)):
        full = scan(c_min, c_min + 4, cutoff=64)
        assert scan(c_min, c_min, cutoff=full.cutoff).records[0] == full.records[0]
        with pytest.raises(DomainError):
            scan(c_min - 1, c_min - 1)


def test_one_c_scan_checks_cutoff_and_eps_as_any_scan(monkeypatch):
    # a cutoff below c is lifted to c, as it is to any scan's end
    assert scan_constants_wd(46, 46, cutoff=10) == scan_constants_wd(46, 46, cutoff=46)
    assert scan_constants_few(44, 44, cutoff=1).cutoff == 44
    # a cutoff above MAX_CUTOFF is refused
    with pytest.raises(InvalidCutoff, match="4097"):
        scan_constants_wd(46, 46, cutoff=4097)
    # with_eps checks eps after the tail sum (the CLI checks it before the scan)
    tables = []
    table = bounds_mod._suffix_tail_table
    monkeypatch.setattr(bounds_mod, "_suffix_tail_table", lambda *args: tables.append(args) or table(*args))
    (p,) = scan_constants_wd(46, 46, cutoff=64).records
    assert tables == [("(i+1)/i^3", 46, 46, 64)]
    with pytest.raises(DomainError):
        p.with_eps(3)


def test_with_eps_validation():
    p = scan_constants_wd(46, 46, cutoff=64).records[0].with_eps(F(1, 26))
    for eps in (0, F(1, 2), 3, F(-1, 26)):
        with pytest.raises(DomainError):
            p.with_eps(eps)
    assert p.with_eps(F(1, 30)).delta.lo > p.delta.lo


# the family minimum and the series kind of each record builder
FAMILIES = {"wd": (8, "(i+1)/i^3"), "few": (29, "1/i^2")}
# as the CLI parses them: Fractions (the paper form's beta/2 needs one)
positive = st.builds(F, st.integers(1, 2**70), st.one_of(st.just(1), st.integers(1, 2**70)))


def _assert_records_match_the_paper_form(family, c, k, series, eps):
    """The package's record at c equals the reference's, field by field, and so does with_eps."""
    if family == "wd":
        shipped, paper = bounds_mod._wd_record(c, series, k), reference.wd_record(c, series, k)
        shipped, paper = [shipped, shipped.with_eps(eps)], [paper, reference.with_eps(paper, eps)]
    else:
        shipped, paper = [bounds_mod._few_record(c, series, k)], [reference.few_record(c, series, k)]
    for ours, theirs in zip(shipped, paper):
        assert ours._fields == theirs._fields
        for name, mine, want in zip(ours._fields, ours, theirs):
            assert (type(mine), mine) == (type(want), want), (family, c, name)


@st.composite
def record_inputs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    c_min, kind = FAMILIES[family]
    c = draw(st.integers(c_min, 4096))
    if draw(st.booleans()):
        series = tail(kind, c, draw(st.integers(c, min(4096, c + 300))))
    else:
        series = Interval(*sorted(draw(st.lists(st.fractions(), min_size=2, max_size=2))))
    k = CrossingConstants(draw(positive), draw(positive))
    eps = draw(st.fractions(0, F(1, 2)).filter(lambda v: 0 < v < F(1, 2)))
    return family, c, k, series, eps


@settings(max_examples=150)
@given(record_inputs())
@example(("wd", 46, CrossingConstants(), tail("(i+1)/i^3", 46, 256), F(1, 26)))
@example(("few", 44, CrossingConstants(F(7), F(29)), tail("1/i^2", 44, 4096), F(1, 3)))
def test_records_equal_the_paper_form(inputs):
    _assert_records_match_the_paper_form(*inputs)


@pytest.mark.parametrize("name, old, new", [
    # y without its 18h/(c + 1) term: c - 5h - 2 = -18(c - 2)/(5c - 18)
    ("_wd_record", "Fraction(-18 * (c - 2), (c + 1) * q)", "Fraction(-18 * (c - 2), q)"),
    # the lower end taken at the lower series end
    ("_series_ends", "(series.hi, series.lo)", "(series.lo, series.hi)"),
], ids=["y-term", "series-ends"])
def test_the_paper_form_property_catches_a_mutant(name, old, new, monkeypatch):
    monkeypatch.setattr(bounds_mod, name, mutant(bounds_mod, name, old, new))
    with pytest.raises((AssertionError, DomainError)):
        _assert_records_match_the_paper_form("wd", 46, CrossingConstants(), tail("(i+1)/i^3", 46, 256), F(1, 26))


def _fraction_constructions(call):
    """call() and the number of Fraction.__new__ calls it made, counted with sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is F.__new__.__code__:
            count += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, count


def test_each_record_builds_a_few_fractions():
    # a count, not a timing: each field is one Fraction from integer closed
    # forms (the tail table adds its two enclosure ends per c), where the
    # paper-form operators made 28 (wd), 23 (few) and 9 (with_eps) apiece
    wd, wd_count = _fraction_constructions(lambda: scan_constants_wd(8, 200))
    few, few_count = _fraction_constructions(lambda: scan_constants_few(29, 200))
    assert wd.cutoff == few.cutoff == bounds_mod.DEFAULT_CUTOFF  # one round each
    _, eps_count = _fraction_constructions(lambda: [p.with_eps(F(1, 26)) for p in wd.records])
    assert wd_count <= 12 * len(wd.records)
    assert few_count <= 11 * len(few.records)
    assert eps_count <= 6 * len(wd.records)


@pytest.mark.parametrize(
    "record",
    [
        Interval(F(1), F(2)),
        CrossingConstants(),
        GraphSize(3, 2),
        scan_constants_wd(46, 46, cutoff=64).records[0].with_eps(F(1, 26)),
        scan_constants_few(44, 44, cutoff=64).records[0],
        scan_constants_wd(44, 48, cutoff=64),
        hirzebruch_check(build_arrangement(grid(3, 3))),
    ],
    ids=lambda record: type(record).__name__,
)
def test_records_are_immutable_named_tuples(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == tuple(record)


# ---------------------------------------------------------------------------
# Per-configuration verification
# ---------------------------------------------------------------------------


def _by_name(checks):
    return {c.name: c for c in checks}


def _st_check(name, arr, e, k):
    """The Szemeredi-Trotter check at the crossing pair k, decided as verify_theorems decides it."""
    return bounds_mod._decided(name, "<=", bounds_mod._st_check(arr, e, k))


def test_verify_near_pencil_100():
    checks = _by_name(verify_theorems(build_arrangement(near_pencil(100))))
    assert len(checks) == 8
    pd = checks["point_degree"]
    assert pd.applicable and pd.holds
    assert pd.lhs == 99 and pd.rhs == F(100, 26) + 2
    assert checks["total_lines"].holds
    assert checks["total_lines"].lhs == 100
    assert checks["lines_le3"].lhs == 99
    assert checks["half_le3"].holds
    assert not checks["hirzebruch"].applicable  # 99 collinear > n - 3
    assert all(c.holds is not False for c in checks.values())


@pytest.mark.parametrize("ps", [near_pencil(100), grid(3, 3), collinear(5), circle(3)],
                         ids=["near-pencil", "grid", "collinear", "triangle"])
def test_check_names_are_the_names_verify_theorems_returns(ps):
    # the CLI validates --suite against CHECK_NAMES before it builds anything
    assert tuple(c.name for c in verify_theorems(build_arrangement(ps))) == bounds_mod.CHECK_NAMES


def test_verify_grid33_all_applicable_hold():
    checks = _by_name(verify_theorems(build_arrangement(grid(3, 3))))
    assert checks["lines_le3"].lhs == 20
    assert checks["lines_le3"].rhs == F(9 * 6, 122)
    assert not checks["incidences"].applicable  # 3 collinear > 9/26 + 2
    failed = [c.name for c in checks.values() if c.holds is False]
    assert failed == []


def test_verify_collinear_degenerate():
    checks = _by_name(verify_theorems(build_arrangement(collinear(5))))
    assert not checks["point_degree"].applicable
    assert not checks["incidences"].applicable
    assert not checks["half_le3"].applicable
    assert checks["total_lines"].holds  # 1 >= 0
    assert checks["total_lines"].rhs == 0


def test_verify_triangle_small_n_guard():
    # the 3-point triangle falls below both n >= 5 premises
    checks = _by_name(verify_theorems(build_arrangement(circle(3))))
    assert not checks["point_degree"].applicable
    assert not checks["incidences"].applicable
    assert checks["half_le3"].applicable and checks["half_le3"].holds
    assert all(c.holds is not False for c in checks.values())


def test_verify_circle_incidence_bound_applicable():
    # circle(60): 2 collinear max, well under 60/26 + 2
    checks = _by_name(verify_theorems(build_arrangement(circle(60))))
    inc = checks["incidences"]
    assert inc.applicable and inc.holds
    assert inc.lhs == 60 * 59  # every pair contributes two incidences
    assert all(c.holds is not False for c in checks.values())


def test_verify_detects_violations_with_weak_constants():
    # tiny constants cannot support the Szemeredi-Trotter bounds
    weak = CrossingConstants(alpha=F(1, 1000), beta=F(1, 1000))
    assert _st_check("st_edges", build_arrangement(grid(4, 4)), 2, weak).holds is False


def test_named_constants_are_certified_by_their_scan_records():
    # at the default pair and cutoff, the one record at WD_C (FEW_C) proves
    # WD_DELTA and WD_R (FEW_EPS); slightly stronger constants are not proved
    wd = scan_constants_wd(bounds_mod.WD_C, bounds_mod.WD_C).records[0]
    few = scan_constants_few(bounds_mod.FEW_C, bounds_mod.FEW_C).records[0]
    assert wd.with_eps(bounds_mod.WD_DELTA).delta.lo >= bounds_mod.WD_DELTA
    assert wd.r >= bounds_mod.WD_R
    assert few.eps.lo >= bounds_mod.FEW_EPS
    # negative controls: delta.lo ~ 0.0386560 < 1/25, r = 20803/8944 < 5/2,
    # eps.lo ~ 0.0331782 < 2/60
    assert wd.with_eps(F(1, 25)).delta.lo < F(1, 25)
    assert wd.r == F(20803, 8944) < F(5, 2)
    assert few.eps.lo < F(2, 60)


def _line_and_general_position(n, l):
    """The Arrangement of l collinear points and n - l points in general position, 2 <= l <= n."""
    hist = Counter({2: n * (n - 1) // 2 - l * (l - 1) // 2})
    hist[l] += 1
    hist = {i: c for i, c in sorted(hist.items()) if c}
    per_point = (1 + n - l,) * l + (n - 1,) * (n - l) if l > 2 else (n - 1,) * n
    return Arrangement(n=n, size_hist=MappingProxyType(hist), max_collinear=l,
                       incidences=sum(i * c for i, c in hist.items()), lines_per_point=per_point,
                       num_lines=sum(hist.values()))


def _assert_verify_is_the_paper_form(arr, delta=bounds_mod.WD_DELTA, r=bounds_mod.WD_R,
                                     eps=bounds_mod.FEW_EPS, k=bounds_mod.DEFAULT_CONSTANTS):
    """verify_theorems at these constants equals the reference, check by check and field by field."""
    with mock.patch.multiple(bounds_mod, WD_DELTA=delta, WD_R=r, FEW_EPS=eps, DEFAULT_CONSTANTS=k):
        checks = verify_theorems(arr)
    paper = reference.theorem_checks(arr, delta, r, eps, k)
    assert [c.name for c in paper] == list(bounds_mod.CHECK_NAMES)
    for ours, theirs in zip(checks, paper, strict=True):
        for field, mine, want in zip(TheoremCheck._fields, ours, theirs):
            assert (type(mine), mine) == (type(want), want), (ours.name, field)
    return checks


point_sets = st.one_of(
    st.builds(grid, st.integers(2, 7), st.integers(2, 7)),
    st.builds(near_pencil, st.integers(3, 40)),
    st.builds(circle, st.integers(3, 30)),
    st.builds(collinear, st.integers(2, 30)),
    st.builds(random_points, st.integers(2, 40), st.integers(0, 10**6), st.integers(3, 6)),
)
_unit = st.fractions(0, F(1, 2), max_denominator=200).filter(lambda v: 0 < v < F(1, 2))


@settings(max_examples=60, deadline=None)
@given(point_sets, st.one_of(st.just(bounds_mod.WD_DELTA), _unit),
       st.one_of(st.integers(0, 5), st.fractions(0, 5, max_denominator=12)),
       st.one_of(st.just(bounds_mod.FEW_EPS), _unit),
       st.one_of(st.just(bounds_mod.DEFAULT_CONSTANTS), st.builds(CrossingConstants, _unit, _unit)))
# four collinear points: sum_{j>=i} (j-1) s_j = 3 = alpha*n at every
# threshold, so both Szemeredi-Trotter checks hold with equality
@example(collinear(4), bounds_mod.WD_DELTA, 2, bounds_mod.FEW_EPS, CrossingConstants(F(3, 4), F(1, 1000)))
def test_verify_equals_the_paper_form_check_by_check(ps, delta, r, eps, k):
    _assert_verify_is_the_paper_form(build_arrangement(ps), delta, r, eps, k)


@pytest.mark.parametrize("n, l", [
    (10, 7), (10, 8),  # hirzebruch: max_collinear = n - 3 and n - 2
    (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (5, 5),  # the degree checks' n >= 5
    (26, 3), (26, 4), (52, 4), (52, 5),  # incidences: l = n/26 + 2 and one more
])
def test_verify_at_the_premise_boundaries(n, l):
    checks = _by_name(_assert_verify_is_the_paper_form(_line_and_general_position(n, l)))
    assert checks["hirzebruch"].applicable == (l <= n - 3)
    assert checks["point_degree"].applicable == (l < n and n >= 5)
    assert checks["incidences"].applicable == (l < n and n >= 5 and l <= F(n, 26) + 2)
    assert checks["half_le3"].applicable == (l < n)


@pytest.mark.parametrize("ps", [grid(5, 7), near_pencil(100), circle(60), collinear(5)],
                         ids=["grid", "near-pencil", "circle", "collinear"])
def test_each_check_builds_at_most_two_fractions(ps):
    # a count, not a timing: one Fraction per reported side, where the
    # Fraction operators of the paper form made 36 for the eight checks
    arr = build_arrangement(ps)
    checks, count = _fraction_constructions(lambda: verify_theorems(arr))
    assert len(checks) == 8 and count <= 2 * len(checks)
    assert _fraction_constructions(lambda: verify_theorems(arr, ["point_degree"]))[1] <= 2


def test_verify_runs_only_the_named_checks_in_table_order():
    arr = build_arrangement(grid(4, 4))
    full = verify_theorems(arr)
    named = verify_theorems(arr, ["half_le3", "hirzebruch", "half_le3"])
    assert named == [c for c in full if c.name in ("hirzebruch", "half_le3")]
    with pytest.raises(DomainError, match=r"unknown check name\(s\) \['bogus'\]"):
        verify_theorems(arr, ["hirzebruch", "bogus"])
    with pytest.raises(DomainError, match="empty check suite"):
        verify_theorems(arr, [])


def test_verify_reads_the_named_constants(monkeypatch):
    monkeypatch.setattr(bounds_mod, "WD_DELTA", F(1, 25))
    checks = _by_name(verify_theorems(build_arrangement(near_pencil(100))))
    assert checks["point_degree"].rhs == F(100, 25) + 2
    incid = _by_name(verify_theorems(build_arrangement(grid(5, 7))))["incidences"]
    assert not incid.applicable
    assert incid.note == "needs non-collinear, n >= 5, and max_collinear <= n/25 + 2"


@pytest.mark.parametrize(
    "ps",
    [near_pencil(5), near_pencil(40), grid(4, 4), grid(7, 5), random_points(40, 3, 6)],
    ids=["pencil5", "pencil40", "grid4", "grid7x5", "random40"],
)
@pytest.mark.parametrize(
    "k", [bounds_mod.DEFAULT_CONSTANTS, CrossingConstants(alpha=F(1, 1000), beta=F(1, 1000))],
    ids=["default", "weak"],
)
def test_st_checks_match_resum_reference(ps, k):
    arr = build_arrangement(ps)
    edges = _st_check("st_edges", arr, 2, k)
    lines = _st_check("st_lines", arr, 3, k)
    assert edges == reference.st_check("st_edges", arr, 2, k)
    assert lines == reference.st_check("st_lines", arr, 3, k)
    if k == bounds_mod.DEFAULT_CONSTANTS:
        checks = _by_name(verify_theorems(arr))
        assert (checks["st_edges"], checks["st_lines"]) == (edges, lines)


def test_st_check_ties_keep_the_smallest_threshold():
    # four collinear points: sum_{j>=i} (j-1) s_j = 3 at every threshold, and
    # beta so small that the bound is alpha*n = 4 there, so every threshold
    # has slack 1 and the displayed one is i = 2
    arr = build_arrangement(collinear(4))
    k = CrossingConstants(alpha=F(1), beta=F(1, 1000))
    check = _st_check("st_edges", arr, 2, k)
    assert check.note == "tightest at i=2 over i in [2, 4]"
    assert check.lhs == 3 and check.rhs == 4
    assert check == reference.st_check("st_edges", arr, 2, k)


_positive = st.fractions(min_value=F(1, 1000), max_value=50, max_denominator=1000)


@st.composite
def _st_cases(draw):
    n = draw(st.integers(1, 300))
    alpha = draw(_positive)
    if draw(st.booleans()):
        beta = draw(_positive)
    else:
        # beta*n^2/2 = alpha*n*t^2: the e = 2 bound is flat from i = t + 1 on,
        # and equal to both terms there, so flat stretches span many thresholds
        beta = 2 * alpha * draw(st.integers(1, 12)) ** 2 / n
    # zero counts split an interval of constant suffix sum in two
    hist = draw(st.dictionaries(st.integers(2, 60), st.integers(0, 40), min_size=1, max_size=10))
    arr = SimpleNamespace(n=n, size_hist=dict(sorted(hist.items())), max_collinear=max(hist))
    return arr, CrossingConstants(alpha=alpha, beta=beta)


@given(_st_cases(), st.sampled_from([2, 3]))
@settings(max_examples=400)
@example((SimpleNamespace(n=4, size_hist={4: 1}, max_collinear=4), CrossingConstants(F(1), F(1, 1000))), 2)
@example((SimpleNamespace(n=10, size_hist={2: 5, 9: 1, 20: 0, 30: 2}, max_collinear=30),
          CrossingConstants(F(1), F(2 * 9, 10))), 2)
def test_st_check_visits_present_sizes_like_every_threshold(case, e):
    arr, k = case
    assert _st_check("st", arr, e, k) == reference.st_check("st", arr, e, k)
