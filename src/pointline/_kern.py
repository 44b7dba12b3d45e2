"""The line-grouping kernel: the hot loop of arrangement construction.

``group_collinear`` maps every point pair to the canonical integer key of
its line and collects line memberships.  Coordinates are cleared to
homogeneous integers first, so the whole loop is exact big-integer
arithmetic for ints and Fractions alike, whatever their size.
"""
from __future__ import annotations

from math import gcd, lcm


def group_collinear(xs: list, ys: list) -> dict:
    """Group all point pairs by line: {(a, b, c): list of point indices}.

    Coordinates may be ints or Fractions; each point is cleared to an
    integer homogeneous triple (X, Y, W) once, without Fraction
    arithmetic, so the pair loop is pure integer arithmetic (the line
    through two points is their homogeneous cross product).  Keys follow
    the LineKey normalization (content 1, a > 0 or a = 0 < b).

    A line is stored as [i, j] at its first pair and gains j only in row
    i = members[0]: that row meets every other member, in ascending
    order, and later rows skip the line.  So each member list is sorted
    and the dict is in lexicographic member order, the order of
    oracle.brute_force_lines.
    """
    n = len(xs)
    hx, hy, hw = [], [], []
    for x, y in zip(xs, ys):
        # ints expose .numerator and .denominator == 1, so mixed input is fine
        w = lcm(x.denominator, y.denominator)
        hx.append(x.numerator * (w // x.denominator))
        hy.append(y.numerator * (w // y.denominator))
        hw.append(w)
    groups: dict = {}
    for i in range(n):
        x1 = hx[i]
        y1 = hy[i]
        w1 = hw[i]
        for j in range(i + 1, n):
            w2 = hw[j]
            a = y1 * w2 - hy[j] * w1
            b = hx[j] * w1 - x1 * w2
            c = x1 * hy[j] - y1 * hx[j]
            g = gcd(a, b, c)
            if g > 1:
                a //= g
                b //= g
                c //= g
            if a < 0 or (a == 0 and b < 0):
                a, b, c = -a, -b, -c
            key = (a, b, c)
            members = groups.get(key)
            if members is None:
                groups[key] = [i, j]
            elif members[0] == i:
                members.append(j)
    return groups
