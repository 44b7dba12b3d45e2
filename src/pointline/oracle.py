"""Independent brute-force line enumeration used as a cross-check oracle.

For every point pair the oracle collects all points collinear with it by
direct sign-of-cross-product evaluation and deduplicates lines by their
member sets alone.  It never builds a canonical line key, so a key
normalization bug in the arrangement module cannot hide here.  O(n^3);
meant for n up to a couple hundred.
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
    # Fractions with denominator 1 collapse to ints so the inner loop
    # runs on machine integers for lattice inputs; exactness is the same.
    xs = [p.x.numerator if p.x.denominator == 1 else p.x for p in ps.points]
    ys = [p.y.numerator if p.y.denominator == 1 else p.y for p in ps.points]

    seen: set[tuple[int, ...]] = set()
    for i in range(n):
        xi = xs[i]
        yi = ys[i]
        for j in range(i + 1, n):
            dx = xs[j] - xi
            dy = ys[j] - yi
            members = [i, j]
            for r in range(n):
                # (q - p) x (r - p) == 0, written out
                if r != i and r != j and dx * (ys[r] - yi) == dy * (xs[r] - xi):
                    members.append(r)
            seen.add(tuple(sorted(members)))
    return sorted(seen)
