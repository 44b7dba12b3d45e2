"""Line arrangements of finite point sets and their incidence statistics.

Computes the statistics the verification suite quantifies over: the
histogram of line sizes, the total point-line incidence count, the
maximum collinear count, and per-point line counts, together with the
lines themselves (every line through at least two of the points).

Large inputs whose homogeneous coordinates fit the int64 guard
(2 * max(|X|, |Y|) * max(W) < 2^31) get their statistics from the
vectorised numpy kernel, and their lines only when asked for; it keys
directions by their exact float64 slope below 2^26 and by gcd-reduced
int64 keys from there up to the guard.  Every other input goes through
the exact big-integer kernel, which builds the lines and the statistics
from them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from . import _kern
from .errors import DomainError, DuplicatePoint, PreconditionViolated, TooFewPoints
from .geometry import Point, Rational

INT64_MIN_PAIRS = 1 << 17


@dataclass(frozen=True)
class PointSet:
    """Ordered, duplicate-free collection of exact rational points."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise DomainError("a point set needs at least one point")
        if len(set(self.points)) != len(self.points):
            seen = set()
            for idx, p in enumerate(self.points):
                if p in seen:
                    raise DuplicatePoint(f"point {idx} duplicates an earlier point: {p}")
                seen.add(p)

    @property
    def n(self) -> int:
        return len(self.points)

    @classmethod
    def of(cls, points: Iterable[Point]) -> "PointSet":
        return cls(tuple(points))


@dataclass(frozen=True)
class Arrangement:
    """Full line/incidence structure of a point set.

    size_hist maps line size i (>= 2) to the number of lines with exactly
    i points, in ascending size; only sizes that occur are stored.
    incidences is the total number of (point, line) incidences;
    max_collinear is the size of the largest collinear subset; num_lines
    counts the determined lines and lines_per_point[v] those through
    point v.

    lines maps each determined line's canonical key (a, b, c), a plain
    int tuple that compares and hashes equal to its LineKey, to the
    sorted indices of its points; lines come in lexicographic member
    order, the order of oracle.brute_force_lines.  It is built from
    points by the exact kernel on first access, unless build_arrangement
    already built it.  Both maps are read-only views.
    """

    n: int
    size_hist: Mapping[int, int] = field(hash=False)  # a mappingproxy has no hash
    max_collinear: int
    incidences: int
    lines_per_point: tuple[int, ...]
    num_lines: int
    points: tuple[Point, ...] = field(repr=False)

    @cached_property
    def lines(self) -> Mapping[tuple[int, int, int], tuple[int, ...]]:
        return _exact_lines(self.points)


@dataclass(frozen=True)
class IncidenceBreakdown:
    """Pair and incidence counts split into small / medium / large line sizes.

    A size i is large when i >= k, small when i <= c (and below k), and
    medium in between.  When k <= c the small and large ranges would
    overlap; large wins and degenerate_k is set.
    """

    c: int
    eps: Rational
    q: int
    k: int
    small_pairs: int
    medium_pairs: int
    large_pairs: int
    small_incidences: int
    medium_incidences: int
    large_incidences: int
    degenerate_k: bool = field(default=False)


def build_arrangement(ps: PointSet) -> Arrangement:
    """Enumerate all determined lines of ps and compute its statistics.

    Two paths give the same statistics.  From INT64_MIN_PAIRS pairs on,
    the vectorised numpy kernel counts them without building any line,
    when the coordinates fit its guard (for integer input |coordinate| <
    2^30); it sorts exact float64 slopes for integer input below 2^25,
    and gcd-reduced int64 keys above.  lines is then built only if it is
    read.  Smaller inputs, and any input past the guard, take the exact
    big-integer kernel, which returns the lines finished (sorted members,
    in lexicographic member order); the statistics are counted from them
    and lines is kept.

    The threshold keeps numpy out of small runs: importing it costs
    0.15-0.19 s and 14 MB of RSS, about what the exact loop spends on
    10^5 integer pairs.
    """
    n = ps.n
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    stats = lines = None
    if n * (n - 1) // 2 >= INT64_MIN_PAIRS:
        hx, hy, hw = _kern.homogenise([p.x for p in ps.points], [p.y for p in ps.points])
        stats = _kern.int64_statistics(hx, hy, hw)
    if stats is None:
        lines = _exact_lines(ps.points)
        stats = _line_statistics(lines.values(), n)
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
        arr.__dict__["lines"] = lines  # fills the cached_property
    return arr


def _line_statistics(lines: Collection[tuple[int, ...]], n: int) -> tuple[dict[int, int], list[int]]:
    """size_hist (ascending sizes) and lines_per_point of the lines given as member tuples."""
    size_hist = dict(sorted(Counter(map(len, lines)).items()))
    per_point = Counter(chain.from_iterable(lines))
    return size_hist, [per_point[v] for v in range(n)]


def _exact_lines(points: tuple[Point, ...]) -> Mapping[tuple[int, int, int], tuple[int, ...]]:
    groups = _kern.group_collinear([p.x for p in points], [p.y for p in points])
    return MappingProxyType({key: tuple(members) for key, members in groups.items()})


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


def compute_k(arr: Arrangement, alpha: Rational, eps: Rational, q: int) -> int:
    """Smallest size threshold k whose visibility edge count is <= alpha*n.

    k is searched over {2, ..., floor(eps*n) + q}; if every count in that
    range exceeds alpha*n the fallback floor(eps*n) + q + 1 is returned.
    """
    _check_eps_q(arr.n, eps, q)
    n = arr.n
    top = int(eps * n) + q
    for k in range(2, top + 1):
        if visibility_edge_count(arr, k) <= alpha * n:
            return k
    return top + 1


def classify_pairs_incidences(
    arr: Arrangement, c: int, eps: Rational, q: int, alpha: Rational
) -> IncidenceBreakdown:
    """Split all point pairs and incidences into small/medium/large sizes.

    Small: i <= c (below k); medium: c < i < k; large: i >= k, where k
    comes from compute_k.  Large takes precedence when k <= c, keeping
    the three groups a true partition; that case sets degenerate_k.
    The pair counts always sum to C(n, 2) and the incidence counts to the
    arrangement total.
    """
    if c < 8:
        raise DomainError(f"small-size cap c must be >= 8, got {c}")
    k = compute_k(arr, alpha, eps, q)
    pairs = [0, 0, 0]  # small, medium, large
    incid = [0, 0, 0]
    for i, count in arr.size_hist.items():
        if i >= k:
            bucket = 2
        elif i <= c:
            bucket = 0
        else:
            bucket = 1
        pairs[bucket] += i * (i - 1) // 2 * count
        incid[bucket] += i * count
    return IncidenceBreakdown(
        c=c,
        eps=Fraction(eps),
        q=q,
        k=k,
        small_pairs=pairs[0],
        medium_pairs=pairs[1],
        large_pairs=pairs[2],
        small_incidences=incid[0],
        medium_incidences=incid[1],
        large_incidences=incid[2],
        degenerate_k=k <= c,
    )


def _check_eps_q(n: int, eps: Rational, q: int) -> None:
    if not 0 <= q <= 3:
        raise DomainError(f"q must be in [0, 3], got {q}")
    if eps * n < 2:
        raise PreconditionViolated(f"eps*n must be >= 2, got {eps} * {n}")
