"""Independent references that the tests check the package against.

No command reaches them, so they live beside the tests.  They share no
code with the line kernels (pointline._kern) or with the certificate
(pointline.oracle): each point is cleared here on its own, the canonical
key rule is written out again, and only the package's public records and
errors are imported.

``orient``, ``line_through`` and ``normalize_key`` work in exact
rationals.  A line is identified by the integer triple (a, b, c) of its
cleared-denominator equation a*x + b*y + c = 0, normalized so that
gcd(|a|, |b|, |c|) = 1 and a > 0 (or a = 0, b > 0), so coincident lines
always get the same LineKey.

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
(a, b, c) line key (none is built) and any function of the package.
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
docstring, evaluated in Fraction and Interval operators (offset + S,
times beta/2, subtracted from 1, divided by h + 1 + alpha, ...).  The
package builds the same exact rationals from integer closed forms, one
Fraction per field or enclosure end; the tests require the two to agree
field by field.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import IO, NamedTuple

from pointline import (BoundParamsFew, BoundParamsWD, CrossingConstants, DomainError, Interval,
                       Point, PointFormatError, PointSet, TooFewPoints)


class LineKey(NamedTuple):
    """Canonical integer form of the line a*x + b*y + c = 0."""

    a: int
    b: int
    c: int


def orient(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p).

    +1 for a counter-clockwise turn, -1 for clockwise, 0 iff the three
    points are collinear.  Exact for rational inputs.
    """
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (cross > 0) - (cross < 0)


def normalize_key(a: Fraction, b: Fraction, c: Fraction) -> LineKey:
    """Normalize a rational line equation to its canonical LineKey.

    Clears denominators, divides out the content, and fixes the sign so
    that a > 0 or (a = 0 and b > 0).  (a, b) must not both be zero.
    """
    if a == 0 and b == 0:
        raise DomainError("degenerate line equation: a = b = 0")
    # ints expose .denominator == 1, so mixed int/Fraction input is fine
    scale = lcm(a.denominator, b.denominator, c.denominator)
    ai, bi, ci = int(a * scale), int(b * scale), int(c * scale)
    g = gcd(ai, bi, ci)
    if ai < 0 or (ai == 0 and bi < 0):
        g = -g
    return LineKey(ai // g, bi // g, ci // g)


def line_through(p: Point, q: Point) -> LineKey:
    """Canonical key of the unique line through two distinct points.

    Symmetric in its arguments; any r collinear with p and q satisfies
    a*r.x + b*r.y + c = 0 for the returned key.
    """
    if p == q:
        raise DomainError(f"no unique line through identical points {p}")
    return normalize_key(q.y - p.y, p.x - q.x, q.x * p.y - p.x * q.y)


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
        return PointSet.of(pts)
    except DomainError as exc:
        raise PointFormatError(str(exc)) from exc


def wd_record(c: int, series: Interval, k: CrossingConstants) -> BoundParamsWD:
    """The incidence-bound record at c from the series enclosure, in the paper's form."""
    h = Fraction(c * (c - 2), 5 * c - 18)
    offset = Fraction(-18 * (c - 2), c**3 * (5 * c - 18))  # y * (c+1)/c^3 in closed form
    num = 1 - (k.beta / 2) * (offset + series)
    return BoundParamsWD(
        c=c,
        eps=None,
        h=h,
        x=(h + 1) / 2,
        y=c - 5 * h - 2 + 18 * h / (c + 1),
        delta=None,
        r=(2 * h - 1 + k.alpha) / (h + 1),
        num=num,
        f=num / (h + 1 + k.alpha),
        k=k,
    )


def with_eps(p: BoundParamsWD, eps: Fraction) -> BoundParamsWD:
    """The record p with delta = (num - eps*alpha)/(h + 1) filled in, eps taken as valid."""
    return p._replace(eps=eps, delta=(p.num - eps * p.k.alpha) / (p.h + 1))


def few_record(c: int, series: Interval, k: CrossingConstants) -> BoundParamsFew:
    """The few-point-line record at c from the series enclosure, in the paper's form."""
    h = Fraction(c * c - c - 2, 4 * c - 16)
    x = h + 1
    offset = Fraction(c * c - 3 * c - 14, 2 * c**3 * (c - 4))
    a = (1 - (k.beta / 2) * (offset + series)) / (2 * x)
    b = k.alpha / (2 * x)
    return BoundParamsFew(c=c, h=h, x=x, a=a, b=b, eps=2 * a / (1 + 2 * b))
