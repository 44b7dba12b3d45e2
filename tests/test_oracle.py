from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointline import (
    TooFewPoints,
    _kern,
    build_arrangement,
    certify_lines,
    circle,
    grid,
    near_pencil,
    random_points,
)

from conftest import CERTIFIED_GRID, LINE_CORRUPTIONS, corrupted_grid_lines, line_statistics, pset, rational_sets
from reference import brute_force_lines, orient


def test_two_points_single_line():
    assert brute_force_lines(pset((0, 0), (3, 1))) == [(0, 1)]


def test_four_points_general_position():
    lines = brute_force_lines(pset((0, 0), (1, 0), (0, 1), (2, 3)))
    assert len(lines) == 6
    assert all(len(members) == 2 for members in lines)


def test_requires_two_points():
    with pytest.raises(TooFewPoints):
        brute_force_lines(pset((5, 5)))
    with pytest.raises(TooFewPoints):
        certify_lines(pset((5, 5)), {})


def test_matches_arrangement_on_grid():
    ps = grid(3, 3)
    oracle = brute_force_lines(ps)
    arr = build_arrangement(ps)
    assert len(oracle) == 20
    assert list(arr.lines.values()) == oracle


@pytest.mark.parametrize("n", [8, 120])
def test_matches_arrangement_on_rational_coordinates(n):
    ps = circle(n)
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == brute_force_lines(ps)


def test_collinear_triples_merge():
    lines = brute_force_lines(pset((0, 0), (1, 1), (2, 2), (5, 0)))
    assert (0, 1, 2) in lines
    assert len(lines) == 4


def test_does_not_use_the_line_kernels(monkeypatch):
    # (1/2, 1/3), (1, 2/3), (3/2, 1) lie on y = 2x/3; their clearing
    # must not borrow the kernel's homogenise
    ps = pset(("1/2", "1/3"), (1, "2/3"), ("3/2", 1), (0, "1/5"), ("1/3", 0), ("-1/4", "3/2"))
    arr = build_arrangement(ps)
    expected = list(arr.lines.values())
    assert (0, 1, 2) in expected

    def refuse(*args):
        raise AssertionError("the oracle called a line kernel")

    monkeypatch.setattr(_kern, "homogenise", refuse)
    monkeypatch.setattr(_kern, "group_collinear", refuse)
    monkeypatch.setattr(_kern, "int64_statistics", refuse)
    assert brute_force_lines(ps) == expected
    assert certify_lines(ps, arr.lines) == (dict(arr.size_hist), list(arr.lines_per_point))


def _naive_lines(ps):
    pts = ps.points
    n = len(pts)
    return sorted({
        tuple(r for r in range(n) if orient(pts[i], pts[j], pts[r]) == 0)
        for i in range(n)
        for j in range(i + 1, n)
    })


@given(rational_sets.map(lambda coords: coords[:8]))
@settings(max_examples=80)
def test_homogeneous_predicate_matches_rational_orientation(coords):
    # the naive enumeration tests collinearity in Fractions, without the kernel
    ps = pset(*coords)
    assert brute_force_lines(ps) == _naive_lines(ps)


# halves in [-2, 2]: 81 points, so 16 of them often put collinear runs on
# both sides of a point, and a line's smallest member is rarely its first pair
_HALVES = [Fraction(k, 2) for k in range(-4, 5)]
grid_subsets = st.lists(
    st.tuples(st.sampled_from(_HALVES), st.sampled_from(_HALVES)),
    min_size=2,
    max_size=16,
    unique=True,
)


@given(grid_subsets)
@settings(max_examples=80)
def test_direction_grouping_matches_rational_orientation(coords):
    ps = pset(*coords)
    assert brute_force_lines(ps) == _naive_lines(ps)


def test_coordinates_past_int64():
    # every cleared coordinate and direction is far past 2^63; a reduction
    # or sign step done in fixed width would split or merge these lines
    big = 2**63 + 1
    den = 2**62 + 3
    ps = pset((0, 0), (big, big), (2 * big, 2 * big), (big, 0), (0, big),
              (Fraction(big, 2), Fraction(big, 2)), (Fraction(big, den), 0))
    lines = brute_force_lines(ps)
    assert lines == _naive_lines(ps)
    assert (0, 1, 2, 5) in lines  # y = x
    assert (3, 4, 5) in lines     # x + y = big
    assert (0, 3, 6) in lines     # y = 0
    assert len(lines) == 3 + 9  # 21 pairs, 12 of them on the three lines above


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", LINE_CORRUPTIONS)
def test_certificate_rejects_corrupted_lines(name):
    lines = build_arrangement(CERTIFIED_GRID).lines
    assert certify_lines(CERTIFIED_GRID, lines) is not None
    corrupted = corrupted_grid_lines(name)
    assert corrupted != dict(lines)
    assert certify_lines(CERTIFIED_GRID, corrupted) is None


# each edit keeps every other check passing; the line x = 3 of grid(4, 4)
# is (12, 13, 14, 15), and x + y = 0 holds point 0 alone
@pytest.mark.parametrize("key, members", [
    ((1, 1, 1), ()),                  # a line through no point
    ((1, 1, 0), (0,)),                # a line through one point
    ((1, 0, -3), (-1, 12, 13, 14)),   # -1 standing in for n - 1
    ((1, 0, -3), (12, 13, 14, 16)),   # past the last index
    ((1, 0, -3), (15, 14, 13, 12)),   # descending
], ids=["empty", "one member", "negative index", "index n", "descending"])
def test_certificate_rejects_member_lists_out_of_shape(key, members):
    lines = dict(build_arrangement(CERTIFIED_GRID).lines)
    assert lines[(1, 0, -3)] == (12, 13, 14, 15)
    lines[key] = members
    assert certify_lines(CERTIFIED_GRID, lines) is None


@given(rational_sets)
@settings(max_examples=80)
def test_certificate_counts_what_the_oracle_counts(coords):
    ps = pset(*coords)
    assert certify_lines(ps, build_arrangement(ps).lines) == line_statistics(brute_force_lines(ps), ps.n)


_BIG = 2**63 + 1
# the inputs of the cross-check tests here, in test_cli and in test_acceptance,
# the shapes of the benchmark's crosscheck workload, and a near-pencil
CROSS_CHECK_INPUTS = {
    "grid 3x3": lambda: grid(3, 3),
    "grid 5x5": lambda: grid(5, 5),
    "grid 12x12": lambda: grid(12, 12),
    "grid 23x23": lambda: grid(23, 23),
    "circle 8": lambda: circle(8),
    "circle 80": lambda: circle(80),
    "circle 120": lambda: circle(120),
    "random 150": lambda: random_points(150, 7, 100),
    "near-pencil 100": lambda: near_pencil(100),
    "rationals": lambda: pset(("1/2", "1/3"), (1, "2/3"), ("3/2", 1), (0, "1/5"), ("1/3", 0), ("-1/4", "3/2")),
    "past int64": lambda: pset((0, 0), (_BIG, _BIG), (2 * _BIG, 2 * _BIG), (_BIG, 0), (0, _BIG),
                               (Fraction(_BIG, 2), Fraction(_BIG, 2)), (Fraction(_BIG, 2**62 + 3), 0)),
}


@pytest.mark.parametrize("name", CROSS_CHECK_INPUTS)
def test_certificate_accepts_every_cross_check_input(name):
    ps = CROSS_CHECK_INPUTS[name]()
    arr = build_arrangement(ps)
    oracle = line_statistics(brute_force_lines(ps), ps.n)
    assert oracle == (dict(arr.size_hist), list(arr.lines_per_point))
    assert certify_lines(ps, arr.lines) == oracle
