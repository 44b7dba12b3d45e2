from fractions import Fraction

from hypothesis import given, strategies as st

from pointline import point

from reference import orient

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=8)
points = st.builds(point, rationals, rationals)


def test_orient_collinear_on_axis():
    assert orient(point(0, 0), point(1, 0), point(2, 0)) == 0


def test_orient_turns():
    assert orient(point(0, 0), point(1, 0), point(0, 1)) == 1
    assert orient(point(0, 0), point(0, 1), point(1, 0)) == -1


def test_point_coordinates_are_int_exactly_when_integral():
    p = point(Fraction(4, 2), "3/6")
    assert type(p.x) is int and p.x == 2
    assert type(p.y) is Fraction and p.y == Fraction(1, 2)
    # == and hash agree with the all-Fraction form of the same values
    q = (Fraction(2), Fraction(1, 2))
    assert p == q and hash(p) == hash(q) and str(p.x) == str(q[0])


@given(points, points, points)
def test_orient_antisymmetry(p, q, r):
    assert orient(p, q, r) == -orient(q, p, r) == -orient(p, r, q)


@given(points, points, rationals)
def test_collinear_point_same_line(p, q, t):
    """Any r = p + t*(q - p) is collinear with p and q."""
    r = point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
    assert orient(p, q, r) == 0
