import pytest

from pointline import TooFewPoints, brute_force_lines, build_arrangement, circle, grid

from conftest import pset


def test_two_points_single_line():
    assert brute_force_lines(pset((0, 0), (3, 1))) == [(0, 1)]


def test_four_points_general_position():
    lines = brute_force_lines(pset((0, 0), (1, 0), (0, 1), (2, 3)))
    assert len(lines) == 6
    assert all(len(members) == 2 for members in lines)


def test_requires_two_points():
    with pytest.raises(TooFewPoints):
        brute_force_lines(pset((5, 5)))


def test_matches_arrangement_on_grid():
    ps = grid(3, 3)
    oracle = brute_force_lines(ps)
    arr = build_arrangement(ps)
    assert len(oracle) == 20
    assert list(arr.lines.values()) == oracle


def test_matches_arrangement_on_rational_coordinates():
    ps = circle(8)
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == brute_force_lines(ps)


def test_collinear_triples_merge():
    lines = brute_force_lines(pset((0, 0), (1, 1), (2, 2), (5, 0)))
    assert (0, 1, 2) in lines
    assert len(lines) == 4
