"""A certificate for the exact statistics loop: checks its witness, enumerates no line.

It clears each point (p/q, r/s) on its own to the integer triple
(X, Y, W) = (p*s, r*q, q*s), not by the kernels' lcm, and calls no
function of _kern.  The direction from point a to point u is
D(a, u) = (X_u W_a - X_a W_u, Y_u W_a - Y_a W_u), W_a W_u times the
affine difference u - a, and two directions are parallel iff their
exact cross product is 0.

``certify_statistics`` checks that a claimed list of member lists, the
witness that _kern.exact_statistics hands out, is exactly the set of
lines of 3 or more points, each listed once with all its members, and
then counts the statistics from it (a certifying check in the sense of
McConnell, Mehlhorn, Näher and Schweitzer, "Certifying algorithms",
Comput. Sci. Rev. 5, 2011).  It checks that
  (i) every listed line has at least 3 strictly increasing indices in
      range, and every member u lies on the line through its first two
      members a, b: D(a, u) is parallel to D(a, b);
 (ii) no pair of points lies on two listed lines;
(iii) for every point a, the directions from a to the second member of
      each listed line whose first member is a, and from a to each
      later point u that no listed line shares with a, are pairwise
      non-parallel.
That suffices.  By (i) each listed line lies on a true line.  Take a
true line M and its least point a.  A listed line L through a and a
second point of M lies on M (two points fix a line), so a is its first
member.  Every other point of M is later than a, and either shares a
listed line with a, which then lies on M and starts at a, or shares none
and gives a direction along M in a's row.  Each listed line on M that
starts at a gives one more such direction, so (iii) leaves at most one
of all these.  If M holds 3 or more points, its at least 2 points after
a cannot all be uncovered, so exactly one listed line L starts at a on
M, and it holds every point of M: L = M.  If M holds 2 points, no listed
line lies on it.  Any listed line L' lies on some M of 3 or more points,
and shares a pair with the listed line M unless it is that entry, which
(ii) forbids.  So the listed lines are exactly the lines of 3 or more
points, each once with all its members, and the counts follow by the
two identities stated in _kern.exact_statistics: point v lies on
n - 1 - sum (k - 2) lines, the sum over the listed lines of k points
through v, and the 2-point lines number C(n, 2) - sum C(k, 2) s_k.

(ii) is tested in the walk of (i): v's bitmask holds the members of the
listed lines through v met so far, and must share none with the part of
the line before v.  A second walk ORs the line's mask into each member's,
or shares it when the member has none, beside a count of each point's
uncovered later points; (iii) lists a row's uncovered later points from
one n-bit int by the exact loop's rule, in its own copy; integer input
(every W = 1) forms each direction by subtraction alone.  So the work is
about that of the loop it certifies.  A direction of (iii) is keyed by its slope
dy / dx (inf when dx = 0, None when the quotient raises OverflowError)
in a dict of the row.  On a valid witness no two directions are
parallel, so an equal key can only be two slopes that round to one
double, or two overflows; every hit is confirmed by an exact cross
product with the key's first direction, and one that is not parallel to
it is keyed again by its direction divided by gcd(dx, dy) and by its
sign (dx > 0, or dx = 0 < dy).  Parallel directions have one real slope,
so one key: the second of two meets the first there, or, when the key's
first direction is a third one, both go under one reduced key.  So no
guard on the coordinates is needed.  In process (best of 5, two runs,
2-core VM, CPython 3.11.7) it took 0.9-1.2 times the witness loop:
0.9-1.0 ms on a rational circle of 80 points, 2.6 ms on a 12x12 grid
(898 listed lines), 2.4 ms on 150 random lattice points (seed 7, bound
100; 90), 3.4-4.5 ms on a 2000-point near-pencil (1), 0.11-0.13 s on a
30x30 grid (34,270) and 65 ms on 800 random lattice points (seed 7,
bound 2000; 67); but 1.4-1.6 times (77-81 ms) on a rational circle of
600 points, as clearing each point on its own squares the circle's
denominators.
"""
from __future__ import annotations

from itertools import compress, count
from math import gcd, inf
from typing import Iterable, Sequence

from .arrangement import PointSet
from .errors import TooFewPoints

# bin() digits as the bytes 0 and 1 that compress() selects by
_BITS = bytes.maketrans(b"01", b"\0\1")
# rows with more than 1/_DENSE of their later points uncovered list them from
# bin() in C, sparser rows walk the set bits: 8 was the fastest of 2-32
_DENSE = 8


def _cleared(ps: PointSet) -> list[tuple[int, int, int]]:
    """Each point (p/q, r/s) as the integer triple (p*s, r*q, q*s); TooFewPoints below 2 points."""
    if ps.n < 2:
        raise TooFewPoints(f"need at least 2 points, got {ps.n}")
    return [(x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
            for x, y in ps.points]


def certify_statistics(
    ps: PointSet, long_lines: Iterable[Sequence[int]]
) -> tuple[dict[int, int], list[int]] | None:
    """size_hist and lines_per_point of ps counted from long_lines, or None if they are wrong.

    long_lines holds the member indices of lines, as the witness of
    _kern.exact_statistics does.  Returns None at the first failed check
    of the module docstring's (i)-(iii); otherwise long_lines are exactly
    the lines of 3 or more points of ps, and the result is ({size:
    number of lines}, [lines through point v for each v]) with sizes
    ascending, counted here from the certified lines.
    """
    pts = _cleared(ps)
    n = len(pts)
    integer = all(w == 1 for _, _, w in pts)
    sizes: dict[int, int] = {}
    per_point = [n - 1] * n
    # covered[v]: bit u set when u and v lie on one listed line;
    # left[v]: the points after v that no listed line shares with v
    covered = [0] * n
    left = list(range(n - 1, -1, -1))
    # seconds[a]: the second member of each listed line whose first member is a
    seconds: dict[int, list[int]] = {}
    for members in long_lines:
        k = len(members)
        if k < 3:
            return None
        a, b = members[0], members[1]
        # (ii) for the pair (a, b): b's mask holds the earlier listed lines through b
        if not 0 <= a < b < n or covered[b] >> a & 1:
            return None
        xa, ya, wa = pts[a]
        xb, yb, wb = pts[b]
        dx = xb * wa - xa * wb
        dy = yb * wa - ya * wb
        line = 1 << a | 1 << b  # the members up to v
        last = b
        for v in members[2:]:
            if not last < v < n:
                return None
            x, y, w = pts[v]
            if integer:
                x, y = x - xa, y - ya
            else:
                x, y = x * wa - xa * w, y * wa - ya * w
            # (i) v on the line through a and b; (ii) no earlier member on a listed line with v
            if x * dy != y * dx or covered[v] & line:
                return None
            line |= 1 << v
            last = v
        later = k  # the members after v
        for v in members:
            later -= 1
            mask = covered[v]
            covered[v] = mask | line if mask else line
            per_point[v] -= k - 2
            left[v] -= later
        sizes[k] = sizes.get(k, 0) + 1
        seconds.setdefault(a, []).append(b)
    full = (1 << n) - 1
    for a in range(n):
        xa, ya, wa = pts[a]
        columns = seconds.pop(a, [])  # dropped with the row
        if covered[a]:
            free = (full ^ covered[a]) >> (a + 1)  # bit b: point a + 1 + b is on no listed line with a
            if left[a] * _DENSE > n - 1 - a:
                columns.extend(compress(count(a + 1), bin(free)[:1:-1].encode().translate(_BITS)))
            else:
                while free:
                    low = free & -free
                    columns.append(a + low.bit_length())
                    free ^= low
        else:
            columns.extend(range(a + 1, n))
        first = {}  # slope key, or reduced direction, from a: its column
        for u in columns:
            x, y, w = pts[u]
            if integer:
                dx, dy = x - xa, y - ya
            else:
                dx, dy = x * wa - xa * w, y * wa - ya * w
            try:
                key = dy / dx
            except ZeroDivisionError:
                key = inf
            except OverflowError:
                key = None
            f = first.setdefault(key, u)
            if f != u:
                xf, yf, wf = pts[f]
                if dx * (yf * wa - ya * wf) == dy * (xf * wa - xa * wf):
                    return None  # two directions along one line through a
                g = gcd(dx, dy)
                if dx < 0 or (dx == 0 and dy < 0):
                    g = -g
                if first.setdefault((dx // g, dy // g), u) != u:
                    return None
    two_point = n * (n - 1) // 2 - sum(k * (k - 1) // 2 * count for k, count in sizes.items())
    if two_point:
        sizes[2] = two_point
    return dict(sorted(sizes.items())), per_point
