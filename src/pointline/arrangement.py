"""Line arrangements of finite point sets and their incidence statistics.

Computes the statistics the verification suite quantifies over: the
histogram of line sizes, the total point-line incidence count, the
maximum collinear count, and per-point line counts, together with the
lines themselves (every line through at least two of the points).

Large inputs on which no line holds all but at most 3 of the points, and
that fit the guard of _kern.int64_statistics (for integer input,
|coordinate| < 2^25), get their statistics from the vectorised numpy
kernel, and their lines only when asked for.  Every other input,
near-pencils included, goes through the exact big-integer kernel, which
builds the lines and counts the statistics as it finishes them (the
identities are stated in _kern.group_collinear).
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations, islice
from types import MappingProxyType
from typing import Iterable, Mapping

from . import _kern
from .errors import DomainError, DuplicatePoint, TooFewPoints
from .geometry import Point

INT64_MIN_PAIRS = 1 << 17


class PointSet(namedtuple("PointSet", "points")):
    """Ordered, duplicate-free collection of exact rational points, as a named tuple."""

    __slots__ = ()

    def __new__(cls, points: tuple[Point, ...]):
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

    @classmethod
    def of(cls, points: Iterable[Point]) -> "PointSet":
        return cls(tuple(points))


class Arrangement(namedtuple("Arrangement", "n size_hist max_collinear incidences "
                                             "lines_per_point num_lines points")):
    """Full line/incidence structure of a point set, as an immutable named tuple.

    size_hist maps line size i (>= 2) to the number of lines with exactly
    i points, in ascending size; only sizes that occur are stored.
    incidences is the total number of (point, line) incidences;
    max_collinear is the size of the largest collinear subset; num_lines
    counts the determined lines and lines_per_point[v] those through
    point v.

    lines maps each determined line's canonical key (a, b, c) of
    a*x + b*y + c = 0, a plain int tuple with gcd(a, b, c) = 1 and a > 0
    or a = 0 < b, to the sorted indices of its points, as one tuple per
    line; lines come in lexicographic member order.
    It is the exact kernel's own dict behind a read-only view, built from
    points on first access unless build_arrangement already built it.
    Both maps are read-only views.  The class has no __slots__: the
    cached lines lives in the instance dict, and __setattr__ and
    __delattr__ refuse every other write to it.
    """

    def __hash__(self):
        return hash(self[:1] + self[2:])  # without size_hist: a mappingproxy has no hash

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"Arrangement({fields})"  # points left out

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def lines(self) -> Mapping[tuple[int, int, int], tuple[int, ...]]:
        return MappingProxyType(_kern.group_collinear(*_kern.homogenise(self.points))[2])


def build_arrangement(ps: PointSet) -> Arrangement:
    """Enumerate all determined lines of ps and compute its statistics.

    The points are cleared to homogeneous integers once, and each kernel
    runs at most once, on those triples.  Inputs below INT64_MIN_PAIRS
    pairs, and those with a line missing at most 3 points, take the exact
    big-integer kernel, which counts the statistics as it finishes the
    lines (one tuple of sorted members per line, in lexicographic member
    order; the counting identities are stated in _kern.group_collinear),
    and lines is kept.  Every other input has its statistics counted by
    the vectorised numpy kernel, without building any line, when the
    coordinates fit its guard (for integer input |coordinate| < 2^25;
    stated in full in _kern.int64_statistics), and lines is built only if
    it is read.  Past the guard, the exact kernel runs.

    The threshold keeps numpy out of small runs: importing it costs
    0.15-0.19 s and 14 MB of RSS, about what the exact loop spends on
    10^5 integer pairs.
    """
    n = ps.n
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    hx, hy, hw = _kern.homogenise(ps.points)
    stats = lines = None
    if n * (n - 1) // 2 >= INT64_MIN_PAIRS and not _line_misses_at_most_three(hx, hy, hw):
        stats = _kern.int64_statistics(hx, hy, hw)
    if stats is None:
        *stats, lines = _kern.group_collinear(hx, hy, hw)
    size_hist, lines_per_point = stats
    arr = Arrangement(
        n=n,
        size_hist=MappingProxyType(size_hist),
        max_collinear=max(size_hist),
        incidences=sum(i * count for i, count in size_hist.items()),
        lines_per_point=tuple(lines_per_point),
        num_lines=sum(size_hist.values()),
        points=ps.points,
    )
    if lines is not None:
        arr.__dict__["lines"] = MappingProxyType(lines)  # fills the cached_property
    return arr


def _line_misses_at_most_three(hx: list, hy: list, hw: list) -> bool:
    """True if one line holds all but at most 3 of the homogeneous points.

    Such a line holds 2 of the first 5 points; each line through two of
    them is walked with exact cross products until its 4th miss.  For
    n > 21 this is exactly when the exact kernel evaluates at most 4n
    pairs, a near-pencil's cost (the proof is in the README).
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
