from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pointline import DomainError, point

from reference import LineKey, line_through, normalize_key, orient

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)
points = st.builds(point, rationals, rationals)


def test_orient_collinear_on_axis():
    assert orient(point(0, 0), point(1, 0), point(2, 0)) == 0


def test_orient_turns():
    assert orient(point(0, 0), point(1, 0), point(0, 1)) == 1
    assert orient(point(0, 0), point(0, 1), point(1, 0)) == -1


def test_line_through_diagonal():
    assert line_through(point(0, 0), point(1, 1)) == LineKey(1, -1, 0)


def test_line_through_y_axis():
    assert line_through(point(0, 0), point(0, 5)) == LineKey(1, 0, 0)


def test_line_through_rational_intercepts():
    # x/(1/2) + y/(1/3) = 1 cleared to 2x + 3y - 1 = 0
    assert line_through(point(Fraction(1, 2), 0), point(0, Fraction(1, 3))) == LineKey(2, 3, -1)


def test_point_coordinates_are_int_exactly_when_integral():
    p = point(Fraction(4, 2), "3/6")
    assert type(p.x) is int and p.x == 2
    assert type(p.y) is Fraction and p.y == Fraction(1, 2)
    # == and hash agree with the all-Fraction form of the same values
    q = (Fraction(2), Fraction(1, 2))
    assert p == q and hash(p) == hash(q) and str(p.x) == str(q[0])


def test_line_through_identical_points_raises():
    with pytest.raises(DomainError):
        line_through(point(2, 3), point(2, 3))


def test_normalize_key_rejects_degenerate():
    with pytest.raises(DomainError):
        normalize_key(Fraction(0), Fraction(0), Fraction(1))


def test_normalize_key_sign_and_content():
    assert normalize_key(Fraction(-2), Fraction(4), Fraction(-6)) == LineKey(1, -2, 3)
    assert normalize_key(Fraction(0), Fraction(-3), Fraction(9)) == LineKey(0, 1, -3)


@given(points, points)
def test_line_through_symmetry(p, q):
    if p != q:
        assert line_through(p, q) == line_through(q, p)


@given(points, points, points)
def test_orient_antisymmetry(p, q, r):
    assert orient(p, q, r) == -orient(q, p, r) == -orient(p, r, q)


@given(points, points, rationals)
def test_collinear_point_same_line(p, q, t):
    """Any r = p + t*(q - p) is collinear and spans the same key."""
    if p == q:
        return
    r = point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    assert orient(p, q, r) == 0
    if r != p:
        assert line_through(p, r) == line_through(p, q)
    key = line_through(p, q)
    assert key.a * r.x + key.b * r.y + key.c == 0


@given(points, points, st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8))
def test_scaling_stability(p, q, lam):
    """Scaling both points by lam > 0 scales only the constant coefficient."""
    if p == q:
        return
    key = line_through(p, q)
    scaled = line_through(point(lam * p.x, lam * p.y), point(lam * q.x, lam * q.y))
    assert scaled == normalize_key(Fraction(key.a), Fraction(key.b), lam * key.c)


@given(points, points)
def test_key_invariants(p, q):
    if p == q:
        return
    from math import gcd

    key = line_through(p, q)
    assert (key.a, key.b) != (0, 0)
    assert gcd(key.a, key.b, key.c) == 1
    assert key.a > 0 or (key.a == 0 and key.b > 0)
    # both defining points satisfy the equation
    for pt in (p, q):
        assert key.a * pt.x + key.b * pt.y + key.c == 0
