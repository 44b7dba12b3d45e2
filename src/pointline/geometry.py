"""Exact planar geometry kernel: rational points, orientation, canonical lines.

Every value is an exact rational; no floating point enters any predicate.
A point coordinate is an ``int`` when it is integral and a reduced
``fractions.Fraction`` otherwise.  The two types agree in ``==``, ``hash``
and ``str``, so the form of a value changes no comparison, duplicate
check or printed result, only the cost of the arithmetic.

A line is identified by the integer triple (a, b, c) of its
cleared-denominator equation a*x + b*y + c = 0, normalized so that
gcd(|a|, |b|, |c|) = 1 and a > 0 (or a = 0, b > 0).  Coincident lines
therefore always hash to the same key.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Union

from .errors import IdenticalPoints

# All coordinates and bound values in this package are exact rationals.
Rational = Fraction

RationalLike = Union[Rational, int, str]


class Point(NamedTuple):
    x: Union[int, Rational]
    y: Union[int, Rational]


def coordinate(value: RationalLike) -> Union[int, Rational]:
    """value as an int when it is integral, else as a reduced Fraction."""
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def point(x: RationalLike, y: RationalLike) -> Point:
    """Build a Point; each coordinate is an int when it is integral, else a reduced Fraction."""
    return Point(coordinate(x), coordinate(y))


class LineKey(NamedTuple):
    """Canonical integer form of the line a*x + b*y + c = 0."""

    a: int
    b: int
    c: int


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 for a counter-clockwise turn, -1 for clockwise, 0 iff the three
    points are collinear.  Exact for rational inputs.
    """
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > 0:
        return 1
    if cross < 0:
        return -1
    return 0


def normalize_key(a: Rational, b: Rational, c: Rational) -> LineKey:
    """Normalize a rational line equation to its canonical LineKey.

    Clears denominators, divides out the content, and fixes the sign so
    that a > 0 or (a = 0 and b > 0).  (a, b) must not both be zero.
    """
    if a == 0 and b == 0:
        raise ValueError("degenerate line equation: a = b = 0")
    # ints expose .denominator == 1, so mixed int/Fraction input is fine
    scale = lcm(a.denominator, b.denominator, c.denominator)
    ai = int(a * scale)
    bi = int(b * scale)
    ci = int(c * scale)
    g = gcd(ai, bi, ci)
    if g > 1:
        ai //= g
        bi //= g
        ci //= g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return LineKey(ai, bi, ci)


def line_through(p: Point, q: Point) -> LineKey:
    """Canonical key of the unique line through two distinct points.

    Symmetric in its arguments; any r collinear with p and q satisfies
    a*r.x + b*r.y + c = 0 for the returned key.
    """
    if p == q:
        raise IdenticalPoints(f"no unique line through identical points {p}")
    a = q.y - p.y
    b = p.x - q.x
    c = q.x * p.y - p.x * q.y
    return normalize_key(a, b, c)
