"""Exact rational points.

A point coordinate is an ``int`` when it is integral and a reduced
``fractions.Fraction`` otherwise.  The two types agree in ``==``, ``hash``
and ``str``, so the form of a value changes no comparison, duplicate
check or printed result, only the cost of the arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

# All coordinates and bound values in this package are exact rationals.
Rational = Fraction

RationalLike = Union[Rational, int, str]


class Point(NamedTuple):
    x: Union[int, Rational]
    y: Union[int, Rational]


def coordinate(value: RationalLike) -> Union[int, Rational]:
    """value as an int when it is integral, else as a reduced Fraction.

    The one owner of that rule: point() applies it, and so does the file
    loader to each coordinate string that holds a "/".
    """
    q = value if type(value) is Fraction else Fraction(value)  # a Fraction is already reduced
    return q.numerator if q.denominator == 1 else q


def point(x: RationalLike, y: RationalLike) -> Point:
    """Build a Point; each coordinate is an int when it is integral, else a reduced Fraction."""
    return Point(coordinate(x), coordinate(y))
