"""Independent brute-force line enumeration used as a cross-check oracle.

Each point (p/q, r/s) is cleared on its own to the integer triple
(X, Y, W) = (p*s, r*q, q*s), not by the kernels' lcm.  For each point i,
every other point r gets the direction D_r = (X_r*W_i - X_i*W_r,
Y_r*W_i - Y_i*W_r), which is W_i*W_r times the affine difference r - i.
D_r is reduced by math.gcd on Python ints and its sign normalised
(dx > 0, or dx = 0 < dy), so two points share a reduced direction from i
iff they lie on one line through i.  Grouping the r by reduced direction
gives every line through i; a line is emitted only in the row of its
smallest member.

What it shares with the kernels: the idea of a reduced direction, which
the vectorised statistics path uses from 2 * max(|X|, |Y|) * max(W) =
2^26 on; below that it keys a direction by its float64 slope instead.
What it does not share: the clearing (its own formula, no lcm), the
integer type (Python ints, no int64, no floats and no numpy), the
(a, b, c) line key (none is built) and any function of _kern.  O(n^2)
gcds, on a 2-core VM with CPython 3.11: 4-7 ms for a rational circle of
80 points, 9-22 ms for a 12x12 grid or 150 random lattice points,
0.4-0.55 s for a 30x30 grid or 800 random lattice points.
"""
from __future__ import annotations

from math import gcd

from .arrangement import PointSet
from .errors import TooFewPoints


def brute_force_lines(ps: PointSet) -> list[tuple[int, ...]]:
    """All determined lines of ps as sorted tuples of member indices.

    The result is the same abstract line set as build_arrangement: one
    entry per line through >= 2 points, each entry the sorted indices of
    every point on it, entries sorted for determinism (the order of
    build_arrangement(ps).lines.values()).
    """
    n = ps.n
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    pts = [(x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
           for x, y in ps.points]
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
