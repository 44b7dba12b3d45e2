"""Independent brute-force line enumeration used as a cross-check oracle.

Each point (p/q, r/s) is cleared on its own to the integer triple
(X, Y, W) = (p*s, r*q, q*s), not by the kernels' lcm.  Point r is on the
line through points i and j iff D_j x D_r = 0 for the directions from i,
D_r = (X_r*W_i - X_i*W_r, Y_r*W_i - Y_i*W_r): that cross product is W_i
times the determinant of the three triples.  Lines are deduplicated by
member sets alone; no direction is reduced and no line key is built, so
neither a clearing nor a key normalisation bug of the arrangement can
hide here.  O(n^3) integer tests: 0.05 s for a rational circle of 80
points, 0.13-0.18 s for a 12x12 grid or 150 random lattice points.
"""
from __future__ import annotations

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
    seen: set[tuple[int, ...]] = set()
    for i, (xi, yi, wi) in enumerate(pts):
        # W_i * W_r * (affine difference r - i); (0, 0) for r = i
        row = [(x * wi - xi * w, y * wi - yi * w) for x, y, w in pts]
        for dxj, dyj in row[i + 1:]:
            seen.add(tuple([r for r, (dx, dy) in enumerate(row) if dxj * dy == dyj * dx]))
    return sorted(seen)
