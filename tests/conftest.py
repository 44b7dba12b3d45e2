import inspect
import sys
import textwrap
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain

from hypothesis import strategies as st

from pointline import Interval, PointSet, bounds, build_arrangement, grid, point

from reference import orient


def pset(*coords) -> PointSet:
    """Build a PointSet from (x, y) tuples of ints/Fractions/strings."""
    return PointSet(point(Fraction(x), Fraction(y)) for x, y in coords)


def line_statistics(lines, n: int) -> tuple[dict[int, int], list[int]]:
    """size_hist (ascending sizes) and lines_per_point of the lines given as member tuples.

    The plain count over every line, 2-point ones included: the reference
    that the kernels' statistics and the certificate are compared with.
    """
    size_hist = dict(sorted(Counter(map(len, lines)).items()))
    per_point = Counter(chain.from_iterable(lines))
    return size_hist, [per_point[v] for v in range(n)]


def mutant(module, name: str, old: str, new: str):
    """module.<name> compiled again from its source with old replaced by new."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


@contextmanager
def line_runs(function, *lines: str):
    """Count in runs[k] how often lines[k] of function runs while the block runs.

    Each line is matched stripped, at its first occurrence in the source
    of function, and a line tracer counts its runs in function's frames.
    """
    code = function.__code__
    source, start = inspect.getsourcelines(function)
    stripped = [text.strip() for text in source]
    targets = [start + stripped.index(line) for line in lines]
    runs = [0] * len(lines)

    def count_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in targets:
            runs[targets.index(frame.f_lineno)] += 1
        return count_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code is code else None)
    try:
        yield runs
    finally:
        sys.settrace(previous)


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


# Corruptions of a witness: the member lists of the lines of 3 or more
# points that the exact statistics loop hands out, written for grid(6, 6)
# and its 6-, 5-, 4- and 3-point lines.  Each edits a copy in place so that
# it is no longer exactly the lines of 3 or more points of ps, each once
# with all its members; oracle.certify_statistics must refuse every one.
# On another set each takes the first line of the size named, or failing
# that the first longer one, so it applies to any witness with two lines
# and a line of 6 or more points.
WITNESS_GRID = grid(6, 6)


def _line_of_size(witness, size):
    sizes = [len(members) for members in witness]
    return sizes.index(size) if size in sizes else next(i for i, k in enumerate(sizes) if k > size)


def _w_drop_member(witness, ps):
    i = _line_of_size(witness, 6)
    witness[i] = witness[i][:2] + witness[i][3:]


def _w_drop_last_member(witness, ps):
    # only the row of the line's first point sees the dropped point along
    # the listed line, beside its second member
    i = _line_of_size(witness, 6)
    witness[i] = witness[i][:-1]


def _w_extra_member(witness, ps):
    i = _line_of_size(witness, 3)
    a, b = witness[i][:2]
    pts = ps.points
    off = next(v for v in range(ps.n) if orient(pts[a], pts[b], pts[v]) != 0)
    witness[i] = sorted(witness[i] + [off])


def _w_duplicate_member(witness, ps):
    # (a, b, c, d, ...) -> (a, b, b, d, ...): the size stays
    i = _line_of_size(witness, 4)
    witness[i][2] = witness[i][1]


def _w_merge_lines(witness, ps):
    # on grid(6, 6) the first two lines both start at point 0
    witness[0] = sorted(set(witness[0]) | set(witness.pop(1)))


def _w_drop_line(witness, ps):
    del witness[_line_of_size(witness, 3)]


def _w_split_line(witness, ps):
    # a 6-point line listed as two disjoint lines of 3 or more: no pair is shared
    i = _line_of_size(witness, 6)
    members = witness[i]
    witness[i] = members[:3]
    witness.append(members[3:])


def _w_share_pair(witness, ps):
    # (a, b, c, d) -> (a, b, c) and (b, c, d): each on the true line
    i = _line_of_size(witness, 4)
    members = witness[i]
    witness[i] = members[:3]
    witness.append(members[1:])


def _w_share_inner_pair(witness, ps):
    # (a, b, c, d, e, f) -> (a, b, d, e) and (c, d, e, f): the lines share
    # exactly the pair (d, e), which holds neither first member, so check
    # (ii) finds it at e, from the bit of the earlier member d in e's mask
    i = _line_of_size(witness, 6)
    members = witness[i]
    witness[i] = members[:2] + members[3:5]
    witness.append(members[2:6])


def _w_duplicate_line(witness, ps):
    witness.append(list(witness[_line_of_size(witness, 5)]))


def _w_two_members(witness, ps):
    i = _line_of_size(witness, 3)
    witness[i] = witness[i][:2]


def _w_descending(witness, ps):
    i = _line_of_size(witness, 4)
    witness[i] = witness[i][::-1]


def _w_index_n(witness, ps):
    i = _line_of_size(witness, 3)
    witness[i] = witness[i][:2] + [ps.n]


def _w_negative_index(witness, ps):
    # the last member moved to the front as its negative alias, last - n
    # (on grid(6, 6) -1, standing in for the last point, n - 1)
    ends = (i for i, members in enumerate(witness) if members[-1] == ps.n - 1)
    i = next(ends, 0)
    witness[i] = [witness[i][-1] - ps.n] + witness[i][:-1]


WITNESS_CORRUPTIONS = {
    "dropped member": _w_drop_member,
    "dropped last member": _w_drop_last_member,
    "extra off-line member": _w_extra_member,
    "duplicated member": _w_duplicate_member,
    "two lines merged": _w_merge_lines,
    "missing line": _w_drop_line,
    "line split in two": _w_split_line,
    "two lines sharing a pair": _w_share_pair,
    "two lines sharing an inner pair": _w_share_inner_pair,
    "duplicated line": _w_duplicate_line,
    "2-member line": _w_two_members,
    "descending": _w_descending,
    "index n": _w_index_n,
    "negative index": _w_negative_index,
}


def grid_witness() -> list:
    """The witness of WITNESS_GRID, as the build hands it out."""
    witness = []
    build_arrangement(WITNESS_GRID, lines=witness)
    return witness


def corrupted_grid_witness(name: str) -> list:
    """The witness of WITNESS_GRID with the corruption of that name applied."""
    return corrupted_witness(WITNESS_GRID, grid_witness(), name)


def corrupted_witness(ps: PointSet, witness: list, name: str) -> list:
    """A copy of the witness of ps with the corruption of that name applied."""
    witness = [list(members) for members in witness]
    WITNESS_CORRUPTIONS[name](witness, ps)
    return witness
