"""Exact rational points, duplicate-free sets of them, and their line statistics.

A Point's coordinates follow coordinate(); a PointSet is a tuple of
distinct points.  The statistics are those the verification suite
quantifies over: the histogram of line sizes, the total point-line
incidence count, the maximum collinear count, and per-point line
counts, over every line through at least two of the points.

Large inputs on which no line holds all but at most 3 of the points, and
that fit the guard of _kern.int64_statistics (for integer input,
|coordinate| < 2^25), get their statistics from the vectorised numpy
kernel.  Every other input, near-pencils included, gets them from the
exact big-integer row loop of _kern.exact_statistics, which keeps no
line (the counting identities are stated in its docstring).  Asked for
them, the build hands out the lines of 3 or more points that the exact
loop finds, the witness that oracle.certify_statistics checks.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, islice
from types import MappingProxyType
from typing import Iterable, NamedTuple, Union

from . import _kern
from .errors import DomainError, DuplicatePoint, TooFewPoints

# All coordinates and bound values in this package are exact rationals.
Rational = Fraction

RationalLike = Union[Rational, int, str]

INT64_MIN_PAIRS = 1 << 17


class Point(NamedTuple):
    x: Union[int, Rational]
    y: Union[int, Rational]


def coordinate(value: RationalLike) -> Union[int, Rational]:
    """value as an int when it is integral, else as a reduced Fraction.

    The two types agree in ==, hash and str, so the form of a value changes
    no comparison, duplicate check or printed result, only the cost of the
    arithmetic.  The one owner of that rule: point() applies it, and so
    does the file loader to each coordinate string that holds a "/".
    """
    q = value if type(value) is Fraction else Fraction(value)  # a Fraction is already reduced
    return q.numerator if q.denominator == 1 else q


def point(x: RationalLike, y: RationalLike) -> Point:
    """Build a Point; each coordinate is an int when it is integral, else a reduced Fraction."""
    return Point(coordinate(x), coordinate(y))


class PointSet(namedtuple("PointSet", "points")):
    """Ordered, duplicate-free tuple of exact rational points, built from any iterable of them."""

    __slots__ = ()

    def __new__(cls, points: Iterable[Point]):
        points = tuple(points)  # a tuple comes back as itself, with no copy
        if len(points) < 1:
            raise DomainError("a point set needs at least one point")
        if len(set(points)) != len(points):
            first: dict[Point, int] = {}
            for idx, p in enumerate(points):
                earlier = first.setdefault(p, idx)
                if earlier != idx:
                    raise DuplicatePoint(f"point {idx} duplicates point {earlier}: ({p.x}, {p.y})")
        return super().__new__(cls, points)

    @property
    def n(self) -> int:
        return len(self.points)

    # PointSet.of(points) is PointSet(points), the name perfbench/test_smoke.py still calls
    of = classmethod(__new__)


class Arrangement(namedtuple("Arrangement", "n size_hist max_collinear incidences "
                                             "lines_per_point num_lines")):
    """Line/incidence statistics of a point set, as an immutable named tuple.

    size_hist maps line size i (>= 2) to the number of lines with exactly
    i points, in ascending size; only sizes that occur are stored, behind
    a read-only view.  incidences is the total number of (point, line)
    incidences; max_collinear is the size of the largest collinear
    subset; num_lines counts the determined lines and lines_per_point[v]
    those through point v.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self[:1] + self[2:])  # without size_hist: a mappingproxy has no hash


def build_arrangement(ps: PointSet, lines: list | None = None) -> Arrangement:
    """Compute the statistics of ps, and hand out its lines of 3 or more points if asked.

    The points are cleared to homogeneous integers once, and each kernel
    runs at most once, on those triples.  Inputs below INT64_MIN_PAIRS
    pairs, and those with a line missing at most 3 points, take the exact
    big-integer row loop _kern.exact_statistics, which keeps no line.
    Every other input has its statistics counted by the vectorised numpy
    kernel, when the coordinates fit its guard (for integer input
    |coordinate| < 2^25; stated in full in _kern.int64_statistics); past
    the guard, the exact loop runs.

    Given a list as lines, the build also runs the exact loop with that
    list as its witness: each line of 3 or more points is appended to it
    as the sorted list of its members, for oracle.certify_statistics to
    check.  On the exact path this is the one run that counts the
    statistics; on the numpy path it is an exact recount beside them.
    The counting identities of the exact loop are stated in
    _kern.exact_statistics.

    The threshold keeps numpy out of small runs.  Fresh-process `verify`
    on grids from 23x23 to 40x40 and random lattice points (n = 550-1600,
    bound 2000), min of 5-7 runs, 2-core VM, CPython 3.11.7: at 1.4-5.0 x
    10^5 pairs the exact path took 0.11-0.18 s and the numpy path
    0.20-0.24 s, about 0.1 s of it importing numpy; at 5.9-8.4 x 10^5 the
    numpy path was the faster on grids (0.15-0.16 s against 0.26-0.27 s),
    and at 1.3 x 10^6 on both.  So in a fresh process the break-even lies
    at 5-8 x 10^5 pairs.  Once numpy is imported, its kernel takes a tenth
    of the exact loop's time at 1.5-3.2 x 10^5 pairs (2.8-5.5 ms against
    28-58 ms), so the threshold stays at 2^17.
    """
    n = ps.n
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    if lines is not None and not isinstance(lines, list):
        raise TypeError(f"lines must be a list or None, not {type(lines).__name__}")
    hx, hy, hw = _kern.homogenise(ps.points)
    stats = None
    if n * (n - 1) // 2 >= INT64_MIN_PAIRS and not _line_misses_at_most_three(hx, hy, hw):
        stats = _kern.int64_statistics(hx, hy, hw)
    if stats is None or lines is not None:
        exact = _kern.exact_statistics(hx, hy, hw, lines)
        if stats is None:
            stats = exact
    size_hist, lines_per_point = stats
    return Arrangement(
        n=n,
        size_hist=MappingProxyType(size_hist),
        max_collinear=max(size_hist),
        incidences=sum(i * count for i, count in size_hist.items()),
        lines_per_point=tuple(lines_per_point),
        num_lines=sum(size_hist.values()),
    )


def _line_misses_at_most_three(hx: list, hy: list, hw: list) -> bool:
    """True if one line holds all but at most 3 of the homogeneous points.

    Such a line holds 2 of the first 5 points; each line through two of
    them is walked with exact cross products until its 4th miss.  For
    n > 21 this is exactly when sum (|L| - 1) over the lines L, the most
    pairs the exact kernel evaluates, is at most 4n (proof in the README).
    """
    for i, j in combinations(range(min(len(hx), 5)), 2):
        a = hy[i] * hw[j] - hy[j] * hw[i]
        b = hx[j] * hw[i] - hx[i] * hw[j]
        c = hx[i] * hy[j] - hy[i] * hx[j]
        misses = (1 for x, y, w in zip(hx, hy, hw) if a * x + b * y + c * w)
        if sum(islice(misses, 4)) < 4:
            return True
    return False


def visibility_edge_count(arr: Arrangement, i: int) -> int:
    """Number of point pairs consecutive on lines with at least i points.

    Equals sum_{j >= i} (j - 1) * size_hist[j]; each j-line contributes
    j - 1 consecutive pairs.  Zero for i beyond the longest line.
    """
    if i < 2:
        raise DomainError(f"line size threshold must be >= 2, got {i}")
    return sum((j - 1) * count for j, count in arr.size_hist.items() if j >= i)


def max_lines_through_point(arr: Arrangement) -> tuple[int, int]:
    """Index and count of a point lying on the most determined lines.

    Ties break to the smallest index.
    """
    best = max(arr.lines_per_point)
    return arr.lines_per_point.index(best), best


def lines_with_at_most(arr: Arrangement, c: int) -> int:
    """Number of determined lines containing at most c points."""
    if c < 2:
        raise DomainError(f"line size cap must be >= 2, got {c}")
    return sum(count for i, count in arr.size_hist.items() if i <= c)
