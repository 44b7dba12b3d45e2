from collections import Counter
from fractions import Fraction
from itertools import chain
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pointline import (
    DomainError,
    DuplicatePoint,
    TooFewPoints,
    build_arrangement,
    circle,
    collinear,
    grid,
    lines_with_at_most,
    max_lines_through_point,
    near_pencil,
    random_points,
    visibility_edge_count,
)
from pointline import _kern, arrangement
from pointline.arrangement import INT64_MIN_PAIRS, PointSet

from conftest import line_statistics, pset, rational_sets
from reference import brute_force_lines, line_through

@pytest.fixture(scope="module")
def grid33():
    return build_arrangement(grid(3, 3))


@pytest.fixture(scope="module")
def pencil5():
    return build_arrangement(near_pencil(5))


def test_grid33_statistics(grid33):
    assert dict(grid33.size_hist) == {2: 12, 3: 8}
    assert grid33.num_lines == 20
    assert grid33.incidences == 48
    assert grid33.max_collinear == 3


def test_near_pencil5_statistics(pencil5):
    assert dict(pencil5.size_hist) == {2: 4, 4: 1}
    assert pencil5.num_lines == 5
    assert pencil5.incidences == 12
    assert pencil5.max_collinear == 4


def test_three_collinear_points():
    arr = build_arrangement(pset((0, 0), (1, 0), (2, 0)))
    assert dict(arr.size_hist) == {3: 1}
    assert arr.num_lines == 1
    assert arr.incidences == 3
    assert max_lines_through_point(arr) == (0, 1)


def test_build_requires_two_points():
    with pytest.raises(TooFewPoints):
        build_arrangement(pset((0, 0)))


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePoint, match=r"^point 2 duplicates point 0: \(0, 0\)$"):
        pset((0, 0), (1, 1), (0, 0))


def test_duplicate_point_named_by_its_reduced_coordinates():
    with pytest.raises(DuplicatePoint, match=r"^point 2 duplicates point 1: \(1/2, 1\)$"):
        pset((0, 0), ("1/2", 1), ("2/4", "3/3"))


def test_build_is_deterministic(grid33):
    again = build_arrangement(grid(3, 3))
    assert again == grid33
    assert list(again.lines.items()) == list(grid33.lines.items())
    # lines come in lexicographic member order, each one tuple
    assert list(grid33.lines.values()) == sorted(grid33.lines.values())
    assert all(type(members) is tuple for members in grid33.lines.values())
    _, _, groups = _kern.group_collinear(*_triples(grid(3, 3)))
    assert all(type(members) is tuple for members in groups.values())


def test_visibility_edge_count(grid33):
    assert visibility_edge_count(grid33, 2) == 28
    assert visibility_edge_count(grid33, 3) == 16
    assert visibility_edge_count(grid33, 4) == 0  # beyond the longest line
    with pytest.raises(DomainError):
        visibility_edge_count(grid33, 1)


def test_max_lines_through_point(grid33, pencil5):
    # apex of the near-pencil is the last point and lies on all 4 short lines
    assert max_lines_through_point(pencil5) == (4, 4)
    assert max_lines_through_point(grid33)[1] == 6


def test_max_lines_tie_breaks_to_smallest_index():
    arr = build_arrangement(pset((0, 0), (1, 0), (0, 1), (1, 1)))
    assert max_lines_through_point(arr) == (0, 3)


def test_lines_with_at_most(grid33, pencil5):
    assert lines_with_at_most(grid33, 3) == 20
    assert lines_with_at_most(pencil5, 3) == 4
    assert lines_with_at_most(pencil5, 4) == pencil5.num_lines
    with pytest.raises(DomainError):
        lines_with_at_most(grid33, 1)


def test_kernels_agree_on_lattice_input():
    # int-typed and Fraction-typed copies of the same coordinates take the
    # same path and group identically
    ps = grid(5, 7)
    xs = [p.x for p in ps.points]
    ys = [p.y for p in ps.points]
    assert all(type(v) is int for v in xs + ys)
    as_fractions = _kern.homogenise([(Fraction(x), Fraction(y)) for x, y in ps.points])
    as_ints = _kern.group_collinear(*_kern.homogenise(ps.points))
    assert _kern.group_collinear(*as_fractions) == as_ints
    _, _, lines = as_ints
    assert sum(len(m) * (len(m) - 1) // 2 for m in lines.values()) == 35 * 34 // 2


def test_huge_coordinates_keep_exact_statistics():
    # a grid scaled by 2^40 has products far past 64 bits; the statistics
    # are scale-invariant and the big-integer kernel keeps them exact
    scale = 1 << 40
    pts = [(x * scale, y * scale) for x in range(3) for y in range(3)]
    arr = build_arrangement(pset(*pts))
    assert dict(arr.size_hist) == {2: 12, 3: 8}


def test_rational_coordinates_use_exact_path():
    arr = build_arrangement(circle(7))
    assert dict(arr.size_hist) == {2: 21}


# ---------------------------------------------------------------------------
# Properties over random lattice configurations
# ---------------------------------------------------------------------------

lattice_sets = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    min_size=2,
    max_size=12,
    unique=True,
)


@given(lattice_sets)
@settings(max_examples=120)
def test_pair_partition_identity(coords):
    arr = build_arrangement(pset(*coords))
    n = arr.n
    assert sum(i * (i - 1) // 2 * c for i, c in arr.size_hist.items()) == n * (n - 1) // 2


@given(lattice_sets)
@settings(max_examples=120)
def test_incidence_double_counting(coords):
    arr = build_arrangement(pset(*coords))
    assert sum(arr.lines_per_point) == sum(i * c for i, c in arr.size_hist.items())
    assert arr.incidences == sum(i * c for i, c in arr.size_hist.items())
    assert arr.num_lines == sum(arr.size_hist.values())
    assert arr.max_collinear == max(arr.size_hist)


@given(lattice_sets)
@settings(max_examples=80)
def test_oracle_equivalence_small_sets(coords):
    _assert_statistics_match_oracle(pset(*coords))


@given(rational_sets)
@settings(max_examples=80)
def test_oracle_equivalence_mixed_denominators(coords):
    _assert_statistics_match_oracle(pset(*coords))


def _assert_statistics_match_oracle(ps):
    """The lines and, counted from the long lines alone, the statistics are the oracle's."""
    arr = build_arrangement(ps)
    oracle = brute_force_lines(ps)
    assert list(arr.lines.values()) == oracle
    assert (dict(arr.size_hist), list(arr.lines_per_point)) == line_statistics(oracle, ps.n)
    return arr


@pytest.mark.parametrize(
    "ps, hist",
    [
        # one line of n points: C(n, 2) - C(n, 2) 2-point lines, no key 2 past n = 2
        *[(collinear(n), {n: 1}) for n in range(2, 7)],
        (pset(("1/2", 0), (2, "1/3"), (-1, 1)), {2: 3}),
        # at n = 3 the base is itself a 2-point line
        (near_pencil(3), {2: 3}),
        (near_pencil(4), {2: 3, 3: 1}),
        (near_pencil(5), {2: 4, 4: 1}),
        (pset(*[(p.x * (1 << 40), p.y * (1 << 40)) for p in grid(12, 12).points]), None),
    ],
    ids=[*(f"collinear-{n}" for n in range(2, 7)), "triangle", "near-pencil-3", "near-pencil-4",
         "near-pencil-5", "grid-12x12-scaled-2^40"],
)
def test_statistics_from_long_lines_edge_cases(ps, hist):
    # the exact kernel counts only its lines of 3 or more points, and its
    # counts equal the plain count over all of its lines
    arr = _assert_statistics_match_oracle(ps)
    _assert_kernel_counts_its_lines(ps)
    if hist is not None:
        assert dict(arr.size_hist) == hist


@given(rational_sets)
@settings(max_examples=80)
def test_exact_kernel_counts_the_lines_it_returns(coords):
    _assert_kernel_counts_its_lines(pset(*coords))


def _assert_kernel_counts_its_lines(ps):
    """group_collinear's size_hist and lines_per_point are line_statistics of its own lines."""
    size_hist, per_point, lines = _kern.group_collinear(*_triples(ps))
    want_hist, want_per_point = line_statistics(list(lines.values()), ps.n)
    assert list(size_hist.items()) == list(want_hist.items())  # sizes ascending too
    assert per_point == want_per_point


# ---------------------------------------------------------------------------
# The int64 statistics kernel against the exact kernel
# ---------------------------------------------------------------------------


def _triples(ps):
    """The homogeneous integer triples (hx, hy, hw) the kernels take."""
    return _kern.homogenise(ps.points)


def _exact_statistics(ps):
    """(size_hist, lines_per_point) counted from the exact kernel's lines."""
    _, _, groups = _kern.group_collinear(*_triples(ps))
    hist = dict(sorted(Counter(map(len, groups.values())).items()))
    per_point = Counter(chain.from_iterable(groups.values()))
    return hist, [per_point[v] for v in range(ps.n)]


def _int64_statistics(ps):
    return _kern.int64_statistics(*_triples(ps))


def _assert_int64_exact(ps):
    got = _int64_statistics(ps)
    assert got is not None
    hist, per_point = got
    want_hist, want_per_point = _exact_statistics(ps)
    assert list(hist.items()) == list(want_hist.items())
    assert per_point == want_per_point
    # plain ints in ascending size, as the exact path gives them
    assert all(type(v) is int for v in chain(hist, hist.values(), per_point))
    assert list(hist) == sorted(hist)
    return hist


@given(lattice_sets)
@settings(max_examples=80)
def test_int64_statistics_match_exact_on_integers(coords):
    _assert_int64_exact(pset(*coords))


@given(rational_sets)
@settings(max_examples=80)
def test_int64_statistics_match_exact_on_rationals(coords):
    _assert_int64_exact(pset(*coords))


# small dense lattices: most rows end in a run of equal keys
dense_sets = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=16, unique=True
)


@given(st.one_of(dense_sets, rational_sets), st.integers(1, 48))
@example([(i, 0) for i in range(5)], 10)
@example([(x, y) for x in range(4) for y in range(4)], 48)
@settings(max_examples=150)
def test_int64_statistics_in_blocks_of_short_rows(coords, block_elements):
    # a block of about block_elements / n rows: a run of equal neighbours
    # ends in one row's last column right before the next row's first
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kern, "_BLOCK_ELEMENTS", block_elements)
        _assert_int64_exact(pset(*coords))


@pytest.mark.parametrize(
    "build, w, hist",
    [
        (lambda: collinear(600), 1, {600: 1}),
        (lambda: near_pencil(600), 1, {2: 599, 599: 1}),
        # W = 2 takes the multiply form of the difference step
        (lambda: pset(*[(p.x / 2, p.y / 2) for p in grid(23, 23).points]), 2, None),
    ],
    ids=["collinear-600", "near-pencil-600", "grid-23-halves"],
)
def test_int64_statistics_above_the_pair_threshold(build, w, hist):
    ps = build()
    assert ps.n * (ps.n - 1) // 2 >= INT64_MIN_PAIRS
    assert max(_triples(ps)[2]) == w
    got = _assert_int64_exact(ps)
    assert hist is None or got == hist


# the largest integer coordinate the guard 2 * M * max(W) < 2^26 admits
EDGE = (1 << 25) - 1
# X = 1 - 2^24 at W = 2: 2 * |X| * W = 2^26 - 4, inside the guard
HALF_EDGE = Fraction(1 - (1 << 24), 2)

_inside_coordinates = [-EDGE, 1 - EDGE, -1, 0, 1, EDGE - 1, EDGE]


def _coordinate_sets(values):
    coordinate = st.sampled_from(values)
    return st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12, unique=True)


@given(st.one_of(_coordinate_sets(_inside_coordinates),
                 _coordinate_sets(_inside_coordinates + [-EDGE - 1, EDGE + 1])))
@settings(max_examples=100)
def test_int64_statistics_exact_at_the_guard(coords):
    # directions such as (2M, 1 - 2M) are 2^26 - 2 wide and coprime; a
    # coordinate +-2^25 is past the guard
    if all(abs(v) <= EDGE for v in chain.from_iterable(coords)):
        _assert_int64_exact(pset(*coords))
    else:
        assert _int64_statistics(pset(*coords)) is None


@pytest.mark.parametrize(
    "inside, past",
    [
        # integers: 2 * M < 2^26
        ([(EDGE, 0), (-EDGE, EDGE), (0, -EDGE), (0, 0), (EDGE, -EDGE)],
         [(EDGE + 1, 0), (-EDGE, EDGE), (0, -EDGE), (0, 0), (EDGE, -EDGE)]),
        ([(-EDGE, -EDGE), (EDGE, EDGE), (0, 0), (1, 0), (EDGE, 1 - EDGE)],
         [(-EDGE - 1, -EDGE), (EDGE, EDGE), (0, 0), (1, 0), (EDGE, 1 - EDGE)]),
        # W = 2: X = 2^24 - 1 gives 2^26 - 4; X = 2^24 gives exactly 2^26
        ([(Fraction((1 << 24) - 1, 2), "1/2"), (0, 0), (1, "-1/2"), (-3, 5), (HALF_EDGE, "-1/2")],
         [(1 << 23, "1/2"), (0, 0), (1, "-1/2"), (-3, 5), (HALF_EDGE, "-1/2")]),
    ],
    ids=["integers", "negative-integers", "halves"],
)
def test_int64_guard_boundary(inside, past):
    _assert_int64_exact(pset(*inside))
    assert _int64_statistics(pset(*past)) is None


# ---------------------------------------------------------------------------
# The switch in build_arrangement: slope key inside the guard, exact kernel past it
# ---------------------------------------------------------------------------

# a 6 x 6 grid clear of the boundary coordinates: no line holds all but 3 of
# its points, so with INT64_MIN_PAIRS at 0 build_arrangement reaches the switch
SWITCH_PAD = [(x, y) for x in range(3, 9) for y in range(3, 9)]


def _build_at_the_switch(coords, mp):
    """Build pad + coords on the large-input path; True if the slope key counted it."""
    ps = pset(*coords, *SWITCH_PAD)
    want = brute_force_lines(ps)
    mp.setattr(arrangement, "INT64_MIN_PAIRS", 0)
    order = []
    int64_calls = _spy(mp, "int64_statistics", order)
    exact_calls = _spy(mp, "group_collinear", order)
    arr = build_arrangement(ps)
    assert order[0] == "int64_statistics"  # before any exact run
    assert len(int64_calls) == 1 and len(exact_calls) == (int64_calls[0] is None)
    assert list(arr.size_hist.items()) == list(Counter(sorted(map(len, want))).items())
    per_point = Counter(chain.from_iterable(want))
    assert arr.lines_per_point == tuple(per_point[v] for v in range(ps.n))
    assert list(arr.lines.values()) == want
    return int64_calls[0] is not None


@given(st.lists(st.tuples(st.sampled_from(_inside_coordinates + [-EDGE - 1, EDGE + 1]),
                          st.sampled_from(_inside_coordinates + [-EDGE - 1, EDGE + 1])),
                min_size=2, max_size=12, unique=True))
@settings(max_examples=60)
def test_int64_statistics_exact_at_the_switch(coords):
    # on either side of the guard the build's statistics equal the oracle's
    with pytest.MonkeyPatch.context() as mp:
        used = _build_at_the_switch(coords, mp)
    assert used == all(abs(v) <= EDGE for v in chain.from_iterable(coords))


@pytest.mark.parametrize(
    "inside, past",
    [
        ([(EDGE, 0), (-EDGE, EDGE), (0, -EDGE), (0, 0), (EDGE, -EDGE)],
         [(EDGE + 1, 0), (-EDGE, EDGE), (0, -EDGE), (0, 0), (EDGE, -EDGE)]),
        ([(-EDGE, -EDGE), (EDGE, EDGE), (0, 0), (1, 0), (EDGE, 1 - EDGE)],
         [(-EDGE - 1, -EDGE), (EDGE, EDGE), (0, 0), (1, 0), (EDGE, 1 - EDGE)]),
        ([(Fraction((1 << 24) - 1, 2), "1/2"), (0, 0), (1, "-1/2"), (-3, 5), (HALF_EDGE, "-1/2")],
         [(1 << 23, "1/2"), (0, 0), (1, "-1/2"), (-3, 5), (HALF_EDGE, "-1/2")]),
    ],
    ids=["integers", "negative-integers", "halves"],
)
def test_slope_key_switch(inside, past, monkeypatch):
    assert _build_at_the_switch(inside, monkeypatch)
    monkeypatch.undo()
    assert not _build_at_the_switch(past, monkeypatch)


# ---------------------------------------------------------------------------
# The float64 slope key: distinct fractions, signed zeros and infinities
# ---------------------------------------------------------------------------

N = 1 << 26
# the largest |numerator| and |denominator| of a slope the float key takes
SLOPE_MAX = N - 1
slope_ints = st.integers(-SLOPE_MAX, SLOPE_MAX)


@st.composite
def close_fractions(draw):
    """(p, q, r, s) with r/s within 2/|s| of p/q, often equal or Farey neighbours."""
    q = draw(slope_ints.filter(bool))
    s = draw(slope_ints.filter(bool))
    p = draw(slope_ints)
    r = p * s // q + draw(st.integers(-1, 1))
    return p, q, max(-SLOPE_MAX, min(SLOPE_MAX, r)), s


@given(close_fractions())
# Farey neighbours next to 2^26: p*s - r*q = +-1 with the largest admitted terms
@example((N - 1, N - 2, N - 2, N - 3))
@example((N - 2, N - 1, N - 3, N - 2))
@example((1, N - 1, 1, N - 2))
@example((N - 1, N - 2, -(N - 2), -(N - 3)))
@example((-(N - 1), N - 2, N - 2, -(N - 3)))
@example((N - 1, 1, N - 2, 1))
@example((N - 2, N - 4, N // 2 - 1, N // 2 - 2))  # equal
@settings(max_examples=300)
def test_float_slopes_separate_distinct_fractions(fractions):
    """The lemma the slope key rests on: p*s != r*q iff float64 p/q != r/s."""
    p, q, r, s = fractions
    a, b = np.divide(np.array([p, r], dtype=np.float64), np.array([q, s], dtype=np.float64))
    assert (a == b) == (p * s == r * q)


@pytest.mark.parametrize(
    "coords",
    [
        # (0, 0) sees (-1, 0) at slope 0 / -1 = -0.0 and (1, 0) at +0.0
        [(-1, 0), (0, 0), (1, 0), (0, 5)],
        # (0, 0) sees (0, -1) at -1 / 0 = -inf and (0, 1) at +inf
        [(0, -1), (0, 0), (0, 1), (3, 0)],
        # both through (0, 0), beside a second horizontal and vertical line
        [(-1, 0), (0, 0), (1, 0), (0, -1), (0, 1), (0, 3), (2, 2), (2, -3), (-4, 2)],
        # both through (0, 1/2), with W = 2
        [("-1/2", "1/2"), (0, "1/2"), ("3/2", "1/2"), (0, "-1/2"), (0, "5/2"), ("1/2", 1)],
    ],
    ids=["horizontal", "vertical", "both", "both-halves"],
)
def test_slope_key_signed_zero_and_infinity(coords):
    _assert_int64_exact(pset(*coords))


@pytest.fixture(scope="module")
def grid23():
    ps = grid(23, 23)
    assert ps.n * (ps.n - 1) // 2 >= INT64_MIN_PAIRS
    return ps


def _spy(monkeypatch, name, order=None):
    """Record the results of _kern.<name>, and the name in order if given."""
    calls = []
    real = getattr(_kern, name)

    def spy(*args, **kwargs):
        if order is not None:
            order.append(name)
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(_kern, name, spy)
    return calls


def test_large_input_builds_lines_only_when_read(grid23, monkeypatch):
    int64_calls = _spy(monkeypatch, "int64_statistics")
    exact_calls = _spy(monkeypatch, "group_collinear")
    arr = build_arrangement(grid23)
    assert len(int64_calls) == 1 and int64_calls[0] is not None
    assert exact_calls == []
    lines = arr.lines
    assert arr.lines is lines and len(exact_calls) == 1
    assert all(type(members) is tuple for members in lines.values())
    assert all(type(members) is tuple for members in exact_calls[0][2].values())
    assert arr.num_lines == len(lines)
    assert dict(arr.size_hist) == dict(sorted(Counter(map(len, lines.values())).items()))
    per_point = Counter(chain.from_iterable(lines.values()))
    assert arr.lines_per_point == tuple(per_point[v] for v in range(arr.n))
    assert list(lines.values()) == sorted(lines.values())


@pytest.mark.parametrize("scale", [1 << 21, 1 << 30], ids=["scale-2^21", "scale-2^30"])
def test_large_input_past_the_guard_keeps_exact_statistics(scale, grid23, monkeypatch):
    big = pset(*[(p.x * scale, p.y * scale) for p in grid23.points])
    int64_calls = _spy(monkeypatch, "int64_statistics")
    exact_calls = _spy(monkeypatch, "group_collinear")
    arr = build_arrangement(big)
    assert int64_calls == [None]
    assert len(exact_calls) == 1
    # kept from the build's one run, not built again
    assert list(arr.lines.values()) == list(exact_calls[0][2].values())
    assert len(exact_calls) == 1
    hist, per_point = _exact_statistics(grid23)
    assert list(arr.size_hist.items()) == list(hist.items())
    assert arr.lines_per_point == tuple(per_point)


def test_arrangement_maps_are_read_only(grid33, grid23):
    lazy = build_arrangement(grid23)
    for arr in (grid33, lazy):
        with pytest.raises(TypeError):
            arr.size_hist[2] = 99
        key = next(iter(arr.lines))
        with pytest.raises(TypeError):
            arr.lines[key] = (0, 1)
        with pytest.raises(TypeError):
            del arr.lines[key]
        assert hash(arr) == hash(build_arrangement(PointSet(arr.points)))
        # the record itself: no field, new attribute or cached lines can be
        # set, and no attribute deleted
        for name, value in [("n", 1), ("size_hist", {}), ("extra", 1), ("lines", {})]:
            with pytest.raises(AttributeError):
                setattr(arr, name, value)
        for name in ("n", "lines", "extra"):
            with pytest.raises(AttributeError):
                delattr(arr, name)
        assert arr.lines is arr.lines  # still cached
        assert "points=" not in repr(arr) and repr(arr).startswith(f"Arrangement(n={arr.n}, size_hist=")
    ps = PointSet(grid33.points)
    with pytest.raises(AttributeError):
        ps.points = ()
    with pytest.raises(AttributeError):
        ps.extra = 1


@given(lattice_sets)
@settings(max_examples=60)
def test_visibility_counts_non_increasing(coords):
    arr = build_arrangement(pset(*coords))
    counts = [visibility_edge_count(arr, i) for i in range(2, arr.max_collinear + 2)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


def test_line_records_match_membership():
    arr = build_arrangement(grid(4, 4))
    for members in arr.lines.values():
        assert len(members) >= 2
        assert list(members) == sorted(members)
    # every member satisfies its line equation, no non-member does
    ps = grid(4, 4)
    for (a, b, c), members in list(arr.lines.items())[:10]:
        on_line = {idx for idx, p in enumerate(ps.points) if a * p.x + b * p.y + c == 0}
        assert on_line == set(members)


@pytest.mark.parametrize(
    "ps",
    [
        grid(5, 4),
        circle(9),
        pset((0, 0), ("1/2", 0), (1, "1/3"), ("-1/2", "1/4"), (2, "-1/3"), ("1/3", "1/2"),
             (-1, -1), ("1/4", "1/4")),
    ],
    ids=["grid", "circle", "mixed-denominators"],
)
def test_kernel_keys_match_line_through(ps):
    # the kernel normalizes keys inline; they must equal the reference's LineKey
    arr = build_arrangement(ps)
    for key, members in arr.lines.items():
        expected = line_through(ps.points[members[0]], ps.points[members[1]])
        assert key == expected
        assert hash(key) == hash(expected)
        assert arr.lines[expected] == members


def test_pointset_requires_a_point():
    with pytest.raises(DomainError):
        PointSet.of([])


# ---------------------------------------------------------------------------
# The exact kernel skips the pairs of lines an earlier row finished
# ---------------------------------------------------------------------------


def _assert_lines_match_oracle(ps):
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == brute_force_lines(ps)
    for key, members in arr.lines.items():
        assert key == line_through(ps.points[members[0]], ps.points[members[1]])


# up to 20 points of the 5x5 integer grid or of the halves grid in [-2, 2]^2:
# long lines cross at shared points, in any point order
_HALVES = [Fraction(k, 2) for k in range(-4, 5)]
collinear_heavy_sets = st.one_of(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=20, unique=True),
    st.lists(st.tuples(st.sampled_from(_HALVES), st.sampled_from(_HALVES)),
             min_size=2, max_size=20, unique=True),
)


@given(collinear_heavy_sets)
@settings(max_examples=150)
def test_oracle_equivalence_collinear_heavy_sets(coords):
    _assert_lines_match_oracle(pset(*coords))


@pytest.mark.parametrize(
    "ps",
    [
        near_pencil(200),
        grid(12, 12),
        # y = 0 and x + y = 3, six points each, crossing at (3, 0)
        pset(*[(x, 0) for x in range(6)], *[(x, 3 - x) for x in range(-1, 5) if x != 3]),
        pset(*[(p.x * (1 << 40), p.y * (1 << 40)) for p in near_pencil(200).points]),
        # x = 50 (rows 0-19 and 120-139) and y = 0 (rows 20-119) cross at
        # (50, 0), row 70, an inner member of both: its 140-bit mask is
        # OR-ed at the end of row 0 and again at the end of row 20
        pset(*[(50, y) for y in range(-20, 0)], *[(x, 0) for x in range(100)],
             *[(50, y) for y in range(1, 21)], (3, 7)),
    ],
    ids=["near-pencil-200", "grid-12x12", "two-crossing-6-lines", "near-pencil-scaled-2^40",
         "crossing-long-lines-141"],
)
def test_oracle_equivalence_long_lines(ps):
    _assert_lines_match_oracle(ps)


def _count_gcd(monkeypatch):
    """Count the exact kernel's gcd calls, one per evaluated pair: calls[0]."""
    calls = [0]
    real = _kern.gcd

    def counting_gcd(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(_kern, "gcd", counting_gcd)
    return calls


def _gcd_calls(monkeypatch, ps):
    calls = _count_gcd(monkeypatch)
    _kern.group_collinear(*_triples(ps))
    return calls[0]


def test_kernel_skips_pairs_of_finished_lines(monkeypatch):
    # C(199, 2) of the 19,900 pairs lie on the long line, found in its first row
    assert _gcd_calls(monkeypatch, near_pencil(200)) <= 2 * 200


@pytest.mark.parametrize("n", [29, 30, 31, 32, 59, 60, 61, 62, 64, 65, 91])
@pytest.mark.parametrize("apex", ["first", "middle", "last"])
def test_row_listing_across_int_digit_boundaries(n, apex, monkeypatch):
    # a row lists its columns from the set bits of an n-bit int, and CPython
    # stores an int in 30-bit digits: these n put the top column, and the
    # columns around the apex, on either side of a digit boundary
    coords = [(x, 0) for x in range(n - 1)]
    coords.insert({"first": 0, "middle": n // 2, "last": n - 1}[apex], (0, 1))
    ps = pset(*coords)
    calls = _count_gcd(monkeypatch)
    _, _, groups = _kern.group_collinear(*_triples(ps))
    assert calls[0] <= 2 * n
    assert list(groups.values()) == brute_force_lines(ps)


def test_kernel_evaluates_every_pair_without_three_collinear(monkeypatch):
    assert _gcd_calls(monkeypatch, circle(50)) == 50 * 49 // 2


# ---------------------------------------------------------------------------
# Large inputs with a line that misses at most 3 points take the exact path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1, 1 << 40], ids=["integers", "scaled-2^40"])
def test_large_near_pencil_takes_the_exact_path(scale, monkeypatch):
    ps = pset(*[(p.x * scale, p.y * scale) for p in near_pencil(600).points])
    assert ps.n * (ps.n - 1) // 2 >= INT64_MIN_PAIRS
    int64_calls = _spy(monkeypatch, "int64_statistics")
    gcd_calls = _count_gcd(monkeypatch)
    arr = build_arrangement(ps)
    assert int64_calls == []
    assert gcd_calls[0] <= 2 * ps.n
    assert "lines" in arr.__dict__  # kept from the build
    assert dict(arr.size_hist) == {2: 599, 599: 1}
    assert arr.lines_per_point == (2,) * 599 + (599,)


def _line_plus_off_points(n, k):
    """n - k points on y = 0 and k off it, shuffled; the odd-numbered off
    points lie on y = x, with the line point (0, 0), the even ones on a
    line of their own."""
    off = [(t, t) if t % 2 else (3 * t, 7 * t + 1) for t in range(1, k + 1)]
    coords = [(x, 0) for x in range(n - k)] + off
    Random(1000 * n + k).shuffle(coords)
    return pset(*coords)


@pytest.mark.parametrize("n", [22, 600])
@pytest.mark.parametrize("k", range(7))
def test_line_missing_at_most_three_points_iff_within_4n_pairs(n, k, monkeypatch):
    ps = _line_plus_off_points(n, k)
    gcd_calls = _count_gcd(monkeypatch)
    _kern.group_collinear(*_triples(ps))
    near = arrangement._line_misses_at_most_three(*_triples(ps))
    assert near == (k <= 3) == (gcd_calls[0] <= 4 * n)


@pytest.mark.parametrize(
    "ps",
    [
        grid(30, 30),
        random_points(800, 1, 2000),
        # the first 5 points on one row: each of the 10 lines walks the row
        pset(*[(x, 0) for x in range(1000)], *[(x, 1) for x in range(1000)]),
    ],
    ids=["grid-30x30", "random-800", "two-rows-1000"],
)
def test_no_line_misses_at_most_three_points(ps):
    assert not arrangement._line_misses_at_most_three(*_triples(ps))


@pytest.mark.parametrize(
    "coords",
    [
        [(0, 0), (1, 2)],
        [(0, 0), (1, 0), (0, 1)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(x, 3 * x - 1) for x in range(5)],
    ],
    ids=["2-points", "3-points", "4-points", "5-collinear"],
)
def test_tiny_inputs_past_the_pair_threshold(coords, monkeypatch):
    ps = pset(*coords)
    want = brute_force_lines(ps)
    monkeypatch.setattr(arrangement, "INT64_MIN_PAIRS", 0)
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == want
    assert list(arr.size_hist.items()) == list(Counter(sorted(map(len, want))).items())
    per_point = Counter(chain.from_iterable(want))
    assert arr.lines_per_point == tuple(per_point[v] for v in range(ps.n))
