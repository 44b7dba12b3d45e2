from collections import Counter
from fractions import Fraction
from itertools import chain

from hypothesis import strategies as st

from pointline import Interval, PointSet, bounds, build_arrangement, grid, point

from reference import orient


def pset(*coords) -> PointSet:
    """Build a PointSet from (x, y) tuples of ints/Fractions/strings."""
    return PointSet.of(point(Fraction(x), Fraction(y)) for x, y in coords)


def line_statistics(lines, n: int) -> tuple[dict[int, int], list[int]]:
    """size_hist (ascending sizes) and lines_per_point of the lines given as member tuples.

    The plain count over every line, 2-point ones included: the reference
    that the kernels' statistics and oracle.certify_lines are compared with.
    """
    size_hist = dict(sorted(Counter(map(len, lines)).items()))
    per_point = Counter(chain.from_iterable(lines))
    return size_hist, [per_point[v] for v in range(n)]


def contains(iv: Interval, value) -> bool:
    """The enclosure iv holds value."""
    return iv.lo <= value <= iv.hi


def encloses(outer: Interval, inner: Interval) -> bool:
    """The enclosure outer holds every value of inner."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def tail(kind: str, c: int, cutoff: int) -> Interval:
    """The shipped enclosure of the series tail from c, summed to cutoff."""
    return bounds._suffix_tail_table(kind, c, c, cutoff)[c]


def exact_tail_table(kind: str, c_min: int, c_max: int, cutoff: int) -> dict[int, Interval]:
    """bounds._suffix_tail_table with exact rational sums: no term and no bracket end rounded.

    The reference the fixed-point table is checked against: each of its
    enclosures must hold this one.  The arguments are taken as valid.
    """
    t_lo, t_hi = bounds._tail_bounds(kind, cutoff)
    acc = sum(Fraction(*bounds._term(kind, i)) for i in range(c_max, cutoff + 1))
    partials = {c_max: acc}
    for i in range(c_max - 1, c_min - 1, -1):
        acc += Fraction(*bounds._term(kind, i))
        partials[i] = acc
    return {c: Interval(p + t_lo, p + t_hi) for c, p in partials.items()}


# p/q with mixed denominators 1..4: lines of 3+ points occur, unlike the
# rational circles, and clearing to homogeneous integers is exercised
rational_sets = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4)),
    min_size=2,
    max_size=12,
    unique=True,
)


# Corruptions of the lines of grid(4, 4), which has 4-, 3- and 2-point
# lines.  Each edits a dict copy in place so that it is no longer the set
# of determined lines; oracle.certify_lines must reject every one.
CERTIFIED_GRID = grid(4, 4)


def _key_of_size(lines, size, skip=0):
    return [key for key, members in lines.items() if len(members) == size][skip]


def _drop_member(lines):
    # members and key stay valid: only the pair count sees it
    key = _key_of_size(lines, 4)
    lines[key] = lines[key][:1] + lines[key][2:]


def _extra_member(lines):
    key = _key_of_size(lines, 2)
    i, j = lines[key]
    pts = CERTIFIED_GRID.points
    off = next(v for v in range(CERTIFIED_GRID.n) if orient(pts[i], pts[j], pts[v]) != 0)
    lines[key] = tuple(sorted((i, j, off)))


def _duplicate_member(lines):
    # (a, b, c, d) -> (a, b, b, d): the size and so the pair count stay
    key = _key_of_size(lines, 4)
    a, b, _, d = lines[key]
    lines[key] = (a, b, b, d)


def _split_line(lines):
    # (a, b, c, d) -> (a, b, c) and (b, c, d) under the negated key: 3 + 3
    # pairs, as many as the line had
    key = _key_of_size(lines, 4)
    members = lines[key]
    lines[key] = members[:3]
    lines[tuple(-t for t in key)] = members[1:]


def _merge_lines(lines):
    # the first two lines both pass through point 0
    first, second = list(lines)[:2]
    lines[first] = tuple(sorted(set(lines[first]) | set(lines.pop(second))))


def _negate_key(lines):
    key = _key_of_size(lines, 2)
    lines[tuple(-t for t in key)] = lines.pop(key)


def _scale_key(lines):
    key = _key_of_size(lines, 2)
    lines[tuple(2 * t for t in key)] = lines.pop(key)


def _key_off_members(lines):
    # two 4-point lines swap keys: every key canonical, every size kept
    one, two = _key_of_size(lines, 4), _key_of_size(lines, 4, skip=1)
    lines[one], lines[two] = lines[two], lines[one]


def _drop_two_point_line(lines):
    del lines[_key_of_size(lines, 2)]


LINE_CORRUPTIONS = {
    "dropped member": _drop_member,
    "extra off-line member": _extra_member,
    "duplicated member": _duplicate_member,
    "line split under two keys": _split_line,
    "two lines merged": _merge_lines,
    "negated key": _negate_key,
    "key scaled by 2": _scale_key,
    "key off its members": _key_off_members,
    "missing 2-point line": _drop_two_point_line,
}


def corrupted_grid_lines(name: str) -> dict:
    """The lines of CERTIFIED_GRID with the corruption of that name applied."""
    lines = dict(build_arrangement(CERTIFIED_GRID).lines)
    LINE_CORRUPTIONS[name](lines)
    return lines
