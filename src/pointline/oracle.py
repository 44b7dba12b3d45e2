"""Independent checks of the line kernels: a brute-force oracle and a certificate.

Both clear each point (p/q, r/s) on its own to the integer triple
(X, Y, W) = (p*s, r*q, q*s), not by the kernels' lcm, and call no
function of _kern.

``brute_force_lines`` enumerates the lines.  For each point i, every
other point r gets the direction D_r = (X_r*W_i - X_i*W_r,
Y_r*W_i - Y_i*W_r), which is W_i*W_r times the affine difference r - i.
D_r is reduced by math.gcd on Python ints and its sign normalised
(dx > 0, or dx = 0 < dy), so two points share a reduced direction from i
iff they lie on one line through i.  Grouping the r by reduced direction
gives every line through i; a line is emitted only in the row of its
smallest member.

What it shares with the kernels: grouping the other points by their
direction from each point, as the vectorised statistics path does too
(that path keys a direction by its float64 slope, not by the reduced
integer direction; see _kern.int64_statistics).
What it does not share: the clearing (its own formula, no lcm), the
integer type (Python ints, no int64, no floats and no numpy), the
(a, b, c) line key (none is built) and any function of _kern.  O(n^2)
gcds; best of 3 calls on a shared 2-core VM with CPython 3.11.7 (load
0.6-0.9): 5 ms for a rational circle of 80 points, 9-14 ms for a 12x12
grid or 150 random lattice points (seed 7, bound 2000); over three
rounds, 0.44-0.65 s for a 30x30 grid and 0.49-0.66 s for 800 random
lattice points (seed 7, bound 2000).

``certify_lines`` enumerates nothing: it checks that a claimed map
{(a, b, c): members} is exactly the set of determined lines, in time
linear in its incidences plus one gcd per line (a certifying check in
the sense of McConnell, Mehlhorn, Näher and Schweitzer, "Certifying
algorithms", Comput. Sci. Rev. 5, 2011).  It checks that
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
the determined lines.  Best of 3 calls on the same VM: 3-8 ms for the
rational circle of 80 points, the 12x12 grid and 150 random lattice
points (seed 7, bound 100), against 8-23 ms for the oracle; 5 ms for a
2000-point near-pencil, against 3.6 s.
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


def brute_force_lines(ps: PointSet) -> list[tuple[int, ...]]:
    """All determined lines of ps as sorted tuples of member indices.

    The result is the same abstract line set as build_arrangement: one
    entry per line through >= 2 points, each entry the sorted indices of
    every point on it, entries sorted for determinism (the order of
    build_arrangement(ps).lines.values()).
    """
    pts = _cleared(ps)
    lines = []
    for i, (xi, yi, wi) in enumerate(pts):
        # reduced direction from i -> [i, then every r on that line, ascending]
        groups: dict[tuple[int, int], list[int]] = {}
        for r, (x, y, w) in enumerate(pts):
            if r == i:
                continue
            dx = x * wi - xi * w
            dy = y * wi - yi * w
            g = gcd(dx, dy)
            if dx < 0 or (dx == 0 and dy < 0):
                g = -g
            groups.setdefault((dx // g, dy // g), [i]).append(r)
        lines.extend(tuple(members) for members in groups.values() if members[1] > i)
    return sorted(lines)


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
