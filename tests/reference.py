"""Independent references that the tests check the package against.

No command reaches them, so they live beside the tests.  They share no
code with the line kernels (pointline._kern) or with the certificate
(pointline.oracle): each point is cleared here on its own, and only the
package's public records and errors are imported.

``orient`` is the orientation sign of three points in exact rationals.

``brute_force_lines`` enumerates the lines.  It clears each point
(p/q, r/s) on its own to the integer triple (X, Y, W) = (p*s, r*q, q*s),
not by the kernels' lcm.  For each point i, every other point r gets the
direction D_r = (X_r*W_i - X_i*W_r, Y_r*W_i - Y_i*W_r), which is W_i*W_r
times the affine difference r - i.  D_r is reduced by math.gcd on Python
ints and its sign normalised (dx > 0, or dx = 0 < dy), so two points
share a reduced direction from i iff they lie on one line through i.
Grouping the r by reduced direction gives every line through i; a line
is emitted only in the row of its smallest member.

What it shares with the kernels: grouping the other points by their
direction from each point, as both statistics paths do too.
``_kern.exact_statistics`` keys a direction by its slope dy / dx, a
float, from the kernels' lcm clearing and only over the pairs its masks
leave.  It falls back to this key, the gcd-reduced, sign-normalised
integer direction, only past the slope guard, for a direction whose slope
rounds to an earlier one's double without being its direction, or
overflows a double.  Its tests compare it with this reference, on such
collisions too.  The vectorised path keys a direction by its float64
slope.
What it does not share: the clearing (its own formula, no lcm), the
integer type (Python ints, no int64, no floats and no numpy), the
line equation (none is built) and any function of the package.
O(n^2) gcds; best of 3 calls on a shared 2-core VM with CPython 3.11.7
(load 0.6-0.9): 5 ms for a rational circle of 80 points, 9-14 ms for a
12x12 grid or 150 random lattice points (seed 7, bound 2000); over three
rounds, 0.44-0.65 s for a 30x30 grid and 0.49-0.66 s for 800 random
lattice points (seed 7, bound 2000); 3.6 s for a 2000-point near-pencil.

``load_points_per_entry`` is the point-file loader as one Python step per
entry and coordinate: it checks each entry's shape, then each coordinate's
type, pattern and digit count, in file order, and builds each Point as it
goes.  The package's loader checks whole lists at once and walks the
entries only to name an offender; the tests require the two to agree on
every file, value for value and message for message.  It writes the
coordinate pattern and the "int when integral, else reduced Fraction" rule
out again.

``wd_record``, ``few_record`` and ``with_eps`` are the bound-constant
records in the paper's form: each field is the formula of the record's
docstring in Fraction operators (offset + S, times beta/2, subtracted
from 1, divided by h + 1 + alpha, ...).  An enclosure field evaluates its
formula at both ends of its input enclosure and sorts the two values
(``_at_ends``); every such field is monotone in the series value S, so
these are the ends of its enclosure.  The package builds the same exact
rationals from integer closed forms, one Fraction per field or
enclosure end; the tests require the two to agree field by field.

``theorem_checks`` is the eight inequality checks of verify_theorems in
the paper's form: each side and threshold is a Fraction expression
(s_2 + (3/4) s_3, delta*n + r, (eps/2) n(n - l), ...), the verdict a
Fraction comparison, and each Szemeredi-Trotter check re-sums its left
side and evaluates max{alpha*n/(i-1)^(e-2), beta*n^2/(2(i-1)^e)} at every
threshold i in [2, l].  The constants come in as arguments.  The package
holds each side as an integer pair and decides by cross-multiplication,
once per present line size; the tests require the two to agree check by
check.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import IO

from pointline import (Arrangement, BoundParamsFew, BoundParamsWD, CrossingConstants, DomainError,
                       Interval, Point, PointFormatError, PointSet, TheoremCheck, TooFewPoints)


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 for a counter-clockwise turn, -1 for clockwise, 0 iff the three
    points are collinear.  Exact for rational inputs.
    """
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (cross > 0) - (cross < 0)


def _cleared(ps: PointSet) -> list[tuple[int, int, int]]:
    """Each point (p/q, r/s) as the integer triple (p*s, r*q, q*s); TooFewPoints below 2 points."""
    if ps.n < 2:
        raise TooFewPoints(f"need at least 2 points, got {ps.n}")
    return [(x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
            for x, y in ps.points]


def brute_force_lines(ps: PointSet) -> list[tuple[int, ...]]:
    """All determined lines of ps as sorted tuples of member indices.

    One entry per line through >= 2 points, each entry the sorted indices
    of every point on it, entries sorted for determinism.  Its entries of
    3 or more points are the lines that the witness of
    build_arrangement(ps, lines=witness) lists.
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


_COORDINATE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def load_points_per_entry(fp: IO[str]) -> PointSet:
    """The point file in fp as a PointSet, or PointFormatError naming the first offender."""
    try:
        data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise PointFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise PointFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "points" not in data:
        raise PointFormatError('top-level object must have a "points" field')
    raw = data["points"]
    if not isinstance(raw, list) or not raw:
        raise PointFormatError('"points" must be a non-empty list')
    pts = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise PointFormatError(f"point {idx}: expected a pair of strings, got {entry!r}")
        coords = []
        for axis, value in zip("xy", entry):
            if not isinstance(value, str) or not _COORDINATE.fullmatch(value):
                raise PointFormatError(
                    f"point {idx}, field {axis}: {value!r} is not a rational string"
                )
            num, _, den = value.partition("/")
            try:
                q = Fraction(int(num), int(den or "1"))
            except ValueError as exc:  # more digits than the int-conversion limit
                raise PointFormatError(f"point {idx}, field {axis}: {exc}") from exc
            coords.append(q.numerator if q.denominator == 1 else q)
        pts.append(Point(*coords))
    try:
        return PointSet(pts)
    except DomainError as exc:
        raise PointFormatError(str(exc)) from exc


def _at_ends(formula, iv: Interval) -> Interval:
    """The Interval from formula at iv.lo and at iv.hi, sorted; formula is monotone."""
    return Interval(*sorted((formula(iv.lo), formula(iv.hi))))


def wd_record(c: int, series: Interval, k: CrossingConstants) -> BoundParamsWD:
    """The incidence-bound record at c from the series enclosure, in the paper's form."""
    h = Fraction(c * (c - 2), 5 * c - 18)
    offset = Fraction(-18 * (c - 2), c**3 * (5 * c - 18))  # y * (c+1)/c^3 in closed form
    num = _at_ends(lambda s: 1 - (k.beta / 2) * (offset + s), series)
    return BoundParamsWD(
        c=c,
        eps=None,
        h=h,
        x=(h + 1) / 2,
        y=c - 5 * h - 2 + 18 * h / (c + 1),
        delta=None,
        r=(2 * h - 1 + k.alpha) / (h + 1),
        num=num,
        f=_at_ends(lambda v: v / (h + 1 + k.alpha), num),
        k=k,
    )


def with_eps(p: BoundParamsWD, eps: Fraction) -> BoundParamsWD:
    """The record p with delta = (num - eps*alpha)/(h + 1) filled in, eps taken as valid."""
    return p._replace(eps=eps, delta=_at_ends(lambda v: (v - eps * p.k.alpha) / (p.h + 1), p.num))


def few_record(c: int, series: Interval, k: CrossingConstants) -> BoundParamsFew:
    """The few-point-line record at c from the series enclosure, in the paper's form."""
    h = Fraction(c * c - c - 2, 4 * c - 16)
    x = h + 1
    offset = Fraction(c * c - 3 * c - 14, 2 * c**3 * (c - 4))
    a = _at_ends(lambda s: (1 - (k.beta / 2) * (offset + s)) / (2 * x), series)
    b = k.alpha / (2 * x)
    return BoundParamsFew(c=c, h=h, x=x, a=a, b=b, eps=_at_ends(lambda v: 2 * v / (1 + 2 * b), a))


def _fraction_check(name, applicable, relation, lhs, rhs, note="") -> TheoremCheck:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    holds = (lhs <= rhs if relation == "<=" else lhs >= rhs) if applicable else None
    return TheoremCheck(name, applicable, relation, lhs, rhs, holds, note)


def st_check(name: str, arr: Arrangement, e: int, k: CrossingConstants) -> TheoremCheck:
    """sum_{j>=i} (j-1)^(3-e) s_j <= max{alpha*n/(i-1)^(e-2), beta*n^2/(2(i-1)^e)} at every i in [2, l].

    Shown at the smallest slack, the smallest such i on ties.
    """
    worst = None
    all_hold = True
    for i in range(2, arr.max_collinear + 1):
        lhs = Fraction(sum((j - 1) ** (3 - e) * c for j, c in arr.size_hist.items() if j >= i))
        rhs = max(k.alpha * arr.n / Fraction(i - 1) ** (e - 2), k.beta * arr.n**2 / (2 * Fraction(i - 1) ** e))
        all_hold = all_hold and lhs <= rhs
        if worst is None or rhs - lhs < worst[0]:
            worst = (rhs - lhs, i, lhs, rhs)
    _, i, lhs, rhs = worst
    note = f"tightest at i={i} over i in [2, {arr.max_collinear}]"
    return TheoremCheck(name, True, "<=", lhs, rhs, all_hold, note)


def theorem_checks(arr: Arrangement, delta: Fraction, r, eps: Fraction,
                   k: CrossingConstants) -> list[TheoremCheck]:
    """The eight checks of verify_theorems at (delta, r, eps) and the crossing pair k, in Fractions."""
    n, l, s = arr.n, arr.max_collinear, arr.size_hist
    non_collinear = l < n
    degree = max(arr.lines_per_point)
    le3 = sum(c for i, c in s.items() if i <= 3)
    degree_rhs = delta * n + r
    incidences = non_collinear and n >= 5 and l <= degree_rhs
    return [
        _fraction_check("hirzebruch", l <= n - 3, ">=",
                        Fraction(s.get(2, 0)) + Fraction(3, 4) * s.get(3, 0),
                        n + sum((2 * i - 9) * c for i, c in s.items() if i >= 5),
                        "" if l <= n - 3 else f"needs max_collinear <= n-3, have {l} > {n - 3}"),
        st_check("st_edges", arr, 2, k),
        st_check("st_lines", arr, 3, k),
        _fraction_check("point_degree", non_collinear and n >= 5, ">=", degree, degree_rhs,
                        f"witness point {arr.lines_per_point.index(degree)}" if non_collinear and n >= 5
                        else "needs a non-collinear set with n >= 5"),
        _fraction_check("incidences", incidences, ">=", arr.incidences, degree_rhs * n,
                        "" if incidences else f"needs non-collinear, n >= 5, and max_collinear <= n/{1 / delta} + {r}"),
        _fraction_check("total_lines", True, ">=", arr.num_lines, eps / 2 * (n * (n - l))),
        _fraction_check("lines_le3", True, ">=", le3, eps / 4 * (n * (n - l))),
        _fraction_check("half_le3", non_collinear, ">=", le3, Fraction(arr.num_lines, 2),
                        "" if non_collinear else "needs a non-collinear set"),
    ]
