"""Point-set generators for the verification corpus, plus file I/O.

All generators are deterministic in their parameters and produce
duplicate-free sets.  The JSON file format (shared with the CLI) is
{"points": [["x", "y"], ...]} with each coordinate a fully reduced
rational string like "-3" or "7/2".
"""
from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import chain, repeat
from typing import IO, NoReturn, Optional, Union

from .arrangement import Point, PointSet, coordinate, point
from .errors import DomainError, PointFormatError

_COORD_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
# a str.translate table that deletes the characters of an integer coordinate
_INT_CHARS = str.maketrans("", "", "-0123456789")


def grid(w: int, h: int) -> PointSet:
    """The w x h integer grid {0..w-1} x {0..h-1}."""
    if w < 2 or h < 2:
        raise DomainError(f"grid needs w >= 2 and h >= 2, got {w} x {h}")
    return PointSet(point(x, y) for x in range(w) for y in range(h))


def near_pencil(n: int) -> PointSet:
    """n-1 collinear points (i, 0) plus the apex (0, 1)."""
    if n < 3:
        raise DomainError(f"near-pencil needs n >= 3, got {n}")
    pts = [point(i, 0) for i in range(n - 1)]
    pts.append(point(0, 1))
    return PointSet(pts)


def circle(n: int) -> PointSet:
    """n rational points on the unit circle, no three collinear.

    Uses t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)) for t = 0, 1, ..., n-1; the
    map is injective so the points are distinct.
    """
    if n < 3:
        raise DomainError(f"circle needs n >= 3, got {n}")
    pts = []
    for t in range(n):
        den = 1 + t * t
        pts.append(point(Fraction(1 - t * t, den), Fraction(2 * t, den)))
    return PointSet(pts)


def random_points(n: int, seed: int, bound: int) -> PointSet:
    """n distinct lattice points uniform in [-bound, bound]^2.

    Draws from a seeded Mersenne Twister (the stdlib random.Random
    stream), rejecting duplicates, so output is reproducible from
    (n, seed, bound).  Lattice coordinates keep accidental collinearity
    frequent enough to exercise lines of 3+ points.
    """
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    capacity = (2 * bound + 1) ** 2
    if not 2 <= n <= capacity:
        raise DomainError(f"need 2 <= n <= {capacity} for bound {bound}, got {n}")
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < n:
        chosen.add((rng.randint(-bound, bound), rng.randint(-bound, bound)))
    return PointSet(point(x, y) for x, y in sorted(chosen))


def collinear(n: int) -> PointSet:
    """n collinear points (0,0) .. (n-1, 0); the degenerate reference case."""
    if n < 2:
        raise DomainError(f"collinear set needs n >= 2, got {n}")
    return PointSet(point(i, 0) for i in range(n))


_GENERATORS = {
    "grid": grid,
    "near_pencil": near_pencil,
    "circle": circle,
    "random": random_points,
    "collinear": collinear,
}


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def dump_points(ps: PointSet, fp: IO[str]) -> None:
    """Write a point set in the JSON file format (reduced rational strings)."""
    data = {"points": [[str(p.x), str(p.y)] for p in ps.points]}
    json.dump(data, fp, indent=1)
    fp.write("\n")


def load_points(fp: IO[str]) -> PointSet:
    """Parse the JSON file format; raises PointFormatError naming the offender.

    A coordinate loads as an int when it is integral ("4/2" as 2) and as a
    reduced Fraction otherwise, the rule of arrangement.coordinate.  The file is
    checked and converted in whole-list passes (entry shapes, coordinate
    types, a character check, the conversion).  When every coordinate holds
    only ASCII digits and "-", int() converts them; otherwise the coordinate
    pattern is checked first.  Only when a pass fails does a walk over the
    entries, in file order, name the first offending point and field.
    """
    try:
        data = json.load(fp)
    except json.JSONDecodeError as exc:
        raise PointFormatError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    # a number literal past the int-conversion digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise PointFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "points" not in data:
        raise PointFormatError('top-level object must have a "points" field')
    raw = data["points"]
    if not isinstance(raw, list) or not raw:
        raise PointFormatError('"points" must be a non-empty list')
    pts = _parse_points(raw)
    if pts is None:
        _raise_first_offender(raw)
    try:
        return PointSet(pts)
    except DomainError as exc:
        raise PointFormatError(str(exc)) from exc


def _parse_points(raw: list) -> Optional[tuple[Point, ...]]:
    """The points of raw, or None when an entry or a coordinate does not parse."""
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {2}:
        return None
    coords = list(chain.from_iterable(raw))
    if set(map(type, coords)) != {str}:
        return None
    if "".join(coords).translate(_INT_CHARS):
        # a "/" or a character no coordinate may hold: the pattern decides
        if not all(map(_COORD_RE.fullmatch, coords)):
            return None
        values = map(_coordinate, coords)
    else:
        # on ASCII digits and "-", int() accepts exactly the strings -?[0-9]+ matches
        values = map(int, coords)
    try:
        # one iterator zipped with itself pairs consecutive values; tuple.__new__
        # builds each Point in C, where Point(x, y) runs a Python __new__
        return tuple(map(tuple.__new__, repeat(Point), zip(values, values)))
    # more digits than the int-conversion limit, or an integer coordinate that is
    # empty, a lone "-" or has a "-" past its first place
    except ValueError:
        return None


def _raise_first_offender(raw: list) -> NoReturn:
    """Raise the PointFormatError of the first entry or coordinate of raw that does not parse."""
    for idx, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise PointFormatError(f"point {idx}: expected a pair of strings, got {entry!r}")
        for axis, value in zip("xy", entry):
            if not isinstance(value, str) or not _COORD_RE.fullmatch(value):
                raise PointFormatError(
                    f"point {idx}, field {axis}: {value!r} is not a rational string"
                )
            try:
                _coordinate(value)
            except ValueError as exc:  # more digits than the int-conversion limit
                raise PointFormatError(f"point {idx}, field {axis}: {exc}") from exc
    raise AssertionError("the whole-list passes refused points that the entry walk accepts")


def _coordinate(text: str) -> Union[int, Fraction]:
    """The value of a string matching _COORD_RE; a Fraction is built only for a "/"."""
    num, _, den = text.partition("/")
    return coordinate(Fraction(int(num), int(den))) if den else int(num)


def save_points_file(ps: PointSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        dump_points(ps, fp)


def load_points_file(path: str) -> PointSet:
    with open(path, "r", encoding="utf-8") as fp:
        return load_points(fp)
