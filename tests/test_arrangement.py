import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations
from math import lcm
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pointline import (
    DomainError,
    DuplicatePoint,
    TooFewPoints,
    build_arrangement,
    certify_statistics,
    circle,
    collinear,
    grid,
    lines_with_at_most,
    max_lines_through_point,
    near_pencil,
    point,
    random_points,
    visibility_edge_count,
)
from pointline import _kern, arrangement
from pointline.arrangement import INT64_MIN_PAIRS, PointSet

from conftest import WITNESS_CORRUPTIONS, corrupted_witness, line_runs, line_statistics, pset, rational_sets
from reference import brute_force_lines

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
    witness, again_witness = [], []
    assert build_arrangement(grid(3, 3), lines=witness) == grid33
    assert build_arrangement(grid(3, 3), lines=again_witness) == grid33
    assert witness == again_witness
    assert sorted(witness) == _long_lines(brute_force_lines(grid(3, 3)))


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


def _cleared_by_the_lcm(points):
    """(X, Y, W) lists of the general rule: W = lcm of the two denominators, X = xW, Y = yW."""
    triples = []
    for x, y in points:
        w = lcm(Fraction(x).denominator, Fraction(y).denominator)
        triples.append((int(x * w), int(y * w), w))
    return tuple(map(list, zip(*triples)))


_integers = st.integers(-2**70, 2**70)


@given(st.lists(st.tuples(_integers, _integers), min_size=2, max_size=20)
       | st.lists(st.tuples(_integers | st.fractions(max_denominator=50), _integers), min_size=2, max_size=20))
@example([(0, 1), (Fraction(3), 2)])  # an integral Fraction is not an int: the lcm path
@example([(1, 2), (True, 0)])  # nor is a bool
def test_homogenise_gives_the_triples_of_the_general_rule(points):
    # an all-int set skips the lcm clearing; mixed sets take it
    triples = _kern.homogenise(points)
    assert triples == _cleared_by_the_lcm(points)
    assert all(type(v) is int for column in triples for v in column)


def test_kernels_agree_on_lattice_input():
    # int-typed and Fraction-typed copies of the same coordinates take the
    # same path and group identically
    ps = grid(5, 7)
    xs = [p.x for p in ps.points]
    ys = [p.y for p in ps.points]
    assert all(type(v) is int for v in xs + ys)
    as_fractions = _kern.homogenise([(Fraction(x), Fraction(y)) for x, y in ps.points])
    int_witness, fraction_witness = [], []
    as_ints = _kern.exact_statistics(*_kern.homogenise(ps.points), int_witness)
    assert _kern.exact_statistics(*as_fractions, fraction_witness) == as_ints
    assert fraction_witness == int_witness
    oracle = brute_force_lines(ps)
    assert sorted(int_witness) == _long_lines(oracle)
    assert as_ints == line_statistics(oracle, ps.n)
    hist, _ = as_ints
    assert sum(k * (k - 1) // 2 * count for k, count in hist.items()) == 35 * 34 // 2


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


def _long_lines(lines):
    """The lines of 3 or more points among the reference's, as a sorted witness lists them."""
    return [list(members) for members in lines if len(members) >= 3]


def _assert_statistics_match_oracle(ps):
    """The witness and, counted from the long lines alone, the statistics are the oracle's."""
    witness = []
    arr = build_arrangement(ps, lines=witness)
    oracle = brute_force_lines(ps)
    assert sorted(witness) == _long_lines(oracle)
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
    # the exact loop counts only lines of 3 or more points, and its counts
    # equal the plain count over all of the reference's lines
    arr = _assert_statistics_match_oracle(ps)
    _assert_kernel_counts_its_lines(ps)
    if hist is not None:
        assert dict(arr.size_hist) == hist


def _scaled(ps, scale):
    return pset(*[(p.x * scale, p.y * scale) for p in ps.points])


# random lattice, grid, rational circle, mixed-denominator and near-pencil
# sets, as they are and scaled by 2^40, past the int64 guard
statistics_sets = st.builds(
    _scaled,
    st.one_of(
        lattice_sets.map(lambda coords: pset(*coords)),
        st.builds(grid, st.integers(2, 7), st.integers(2, 7)),
        st.builds(circle, st.integers(3, 30)),
        rational_sets.map(lambda coords: pset(*coords)),
        st.builds(near_pencil, st.integers(3, 40)),
    ),
    st.sampled_from([1, 1 << 40]),
)


@given(statistics_sets)
@settings(max_examples=150)
def test_exact_kernel_counts_the_lines_it_returns(ps):
    _assert_kernel_counts_its_lines(ps)


def _assert_kernel_counts_its_lines(ps):
    """exact_statistics' size_hist and lines_per_point are line_statistics of the
    reference's lines, and its witness is the reference's lines of 3 or more points."""
    oracle = brute_force_lines(ps)
    want_hist, want_per_point = line_statistics(oracle, ps.n)
    witness = []
    hist, counts = _kern.exact_statistics(*_triples(ps), witness)
    assert list(hist.items()) == list(want_hist.items())  # sizes ascending too
    assert counts == want_per_point
    assert all(type(v) is int for v in chain(hist, hist.values(), counts))
    assert sorted(witness) == _long_lines(oracle)


# ---------------------------------------------------------------------------
# The int64 statistics kernel against the reference
# ---------------------------------------------------------------------------


def _triples(ps):
    """The homogeneous integer triples (hx, hy, hw) the kernels take."""
    return _kern.homogenise(ps.points)


def _exact_statistics(ps):
    """(size_hist, lines_per_point) counted from the reference's lines."""
    return line_statistics(brute_force_lines(ps), ps.n)


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
    """Build pad + coords on the large-input path; True if the slope key counted it.

    Past the guard the exact statistics loop runs in the build.  Asked
    for a witness, the build hands out the reference's lines of 3 or more
    points.
    """
    ps = pset(*coords, *SWITCH_PAD)
    want = brute_force_lines(ps)
    mp.setattr(arrangement, "INT64_MIN_PAIRS", 0)
    order = []
    int64_calls = _spy(mp, "int64_statistics", order)
    stats_calls = _spy(mp, "exact_statistics", order)
    arr = build_arrangement(ps)
    assert order[0] == "int64_statistics"  # before any exact run
    assert len(int64_calls) == 1 and len(stats_calls) == (int64_calls[0] is None)
    assert list(arr.size_hist.items()) == list(Counter(sorted(map(len, want))).items())
    per_point = Counter(chain.from_iterable(want))
    assert arr.lines_per_point == tuple(per_point[v] for v in range(ps.n))
    witness = []
    build_arrangement(ps, lines=witness)
    assert sorted(witness) == _long_lines(want)
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


def test_statistics_build_keeps_no_line():
    # circle 200 has no three points collinear: 19,900 2-point lines, which
    # a dict of all lines held in 4.8 MB, 24 KB per point.  Without them the
    # build holds O(n) objects: 3n homogeneous coordinates, n counts, n
    # masks (all 0 here) and one row's dict of at most n - 1 slope keys, a
    # float each, about 200 bytes per point in all (0.04 MB, CPython 3.11).
    # 1 KB per point leaves room for other allocators and versions, and is
    # still 1/24 of the lines; the margin grows with n, as the lines take
    # n/2 tuples per point.
    ps = circle(200)
    tracemalloc.start()
    try:
        arr = build_arrangement(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict(arr.size_hist) == {2: 200 * 199 // 2}
    assert peak < 1000 * ps.n


@pytest.mark.parametrize("scale", [1 << 21, 1 << 30], ids=["scale-2^21", "scale-2^30"])
def test_large_input_past_the_guard_keeps_exact_statistics(scale, grid23, monkeypatch):
    big = _scaled(grid23, scale)
    oracle = brute_force_lines(grid23)
    hist, per_point = line_statistics(oracle, grid23.n)
    int64_calls = _spy(monkeypatch, "int64_statistics")
    stats_calls = _spy(monkeypatch, "exact_statistics")
    arr = build_arrangement(big)
    assert int64_calls == [None]
    # the build runs the statistics loop, which keeps no line
    assert len(stats_calls) == 1
    assert list(arr.size_hist.items()) == list(hist.items())
    assert arr.lines_per_point == tuple(per_point)

    # asked for its lines of 3 or more points, the build runs the
    # statistics loop once, with a witness
    int64_calls.clear(), stats_calls.clear()
    witness = []
    held = build_arrangement(big, lines=witness)
    assert int64_calls == [None] and len(stats_calls) == 1 and held == arr
    assert sorted(witness) == _long_lines(oracle)


def test_arrangement_maps_are_read_only(grid33, grid23):
    for ps, arr in ((grid(3, 3), grid33), (grid23, build_arrangement(grid23))):
        with pytest.raises(TypeError):
            arr.size_hist[2] = 99
        assert hash(arr) == hash(build_arrangement(PointSet(ps.points)))
        # the record itself: no field, new attribute or lines can be set,
        # and no attribute deleted
        for name, value in [("n", 1), ("size_hist", {}), ("extra", 1), ("lines", {})]:
            with pytest.raises(AttributeError):
                setattr(arr, name, value)
        for name in ("n", "lines", "extra"):
            with pytest.raises(AttributeError):
                delattr(arr, name)
        assert "points=" not in repr(arr) and repr(arr).startswith(f"Arrangement(n={arr.n}, size_hist=")
    ps = PointSet(grid(3, 3).points)
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


def test_pointset_requires_a_point():
    with pytest.raises(DomainError):
        PointSet([])
    with pytest.raises(DomainError):
        PointSet(p for p in ())


def test_pointset_keeps_a_tuple_of_any_iterable():
    pts = [point(0, 0), point(1, 0), point(0, Fraction(1, 2))]
    from_tuple = PointSet(tuple(pts))
    for ps in (PointSet(pts), PointSet(p for p in pts), PointSet.of(iter(pts))):
        assert type(ps.points) is tuple
        assert ps == from_tuple and hash(ps) == hash(from_tuple)
    # a tuple is kept as it is
    assert PointSet(from_tuple.points).points is from_tuple.points
    # the caller's list is copied: appending to it changes neither the set nor its statistics
    ps = PointSet(pts)
    pts.append(point(2, 0))
    assert ps.n == 3 and build_arrangement(ps).size_hist == {2: 3}
    with pytest.raises(AttributeError):
        ps.points.append(point(2, 0))


# ---------------------------------------------------------------------------
# The exact kernel skips the pairs of lines an earlier row finished
# ---------------------------------------------------------------------------


def _assert_lines_match_oracle(ps):
    witness = []
    arr = build_arrangement(ps, lines=witness)
    oracle = brute_force_lines(ps)
    # the loop skips the pairs of counted lines and still counts every line
    assert (dict(arr.size_hist), list(arr.lines_per_point)) == line_statistics(oracle, ps.n)
    assert sorted(witness) == _long_lines(oracle)


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
    """Count the exact loop's gcd calls: calls[0]."""
    calls = [0]
    real = _kern.gcd

    def counting_gcd(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(_kern, "gcd", counting_gcd)
    return calls


def _pairs_evaluated():
    """Count in evaluated[0] the pairs exact_statistics evaluates while the block runs.

    The exact loop runs its line ``f = first.setdefault(key, j)`` once for
    each column a row evaluates, on integer input and on the products of
    homogeneous input alike, whatever its key, and no other time.  Neither
    a gcd call (the loop makes one only on a slope collision past the
    guard) nor a read of hw (integer input reads none, and past the guard
    the loop also reads the first column of each equal slope) marks
    exactly one pair.
    """
    return line_runs(_kern.exact_statistics, "f = first.setdefault(key, j)")


def _evaluated(ps):
    with _pairs_evaluated() as evaluated:
        _kern.exact_statistics(*_triples(ps))
    return evaluated[0]


def test_kernel_skips_pairs_of_finished_lines():
    # C(199, 2) of the 19,900 pairs lie on the long line, found in its first row
    assert _evaluated(near_pencil(200)) <= 2 * 200
    assert _evaluated(near_pencil(600)) <= 2 * 600


@pytest.mark.parametrize("n", [29, 30, 31, 32, 59, 60, 61, 62, 64, 65, 91])
@pytest.mark.parametrize("apex", ["first", "middle", "last"])
def test_row_listing_across_int_digit_boundaries(n, apex):
    # a row lists its columns from the set bits of an n-bit int, and CPython
    # stores an int in 30-bit digits: these n put the top column, and the
    # columns around the apex, on either side of a digit boundary
    coords = [(x, 0) for x in range(n - 1)]
    coords.insert({"first": 0, "middle": n // 2, "last": n - 1}[apex], (0, 1))
    ps = pset(*coords)
    witness = []
    with _pairs_evaluated() as evaluated:
        stats = _kern.exact_statistics(*_triples(ps), witness)
    assert evaluated[0] <= 2 * n
    oracle = brute_force_lines(ps)
    assert stats == line_statistics(oracle, ps.n)
    assert sorted(witness) == _long_lines(oracle)
    assert certify_statistics(ps, witness) == stats


# the lines that list a row in C and that walk its set bits, in each loop
_LISTINGS = {
    _kern.exact_statistics: (
        "columns = compress(count(i + 1), bin(free)[:1:-1].encode().translate(_BITS))",
        "low = free & -free",
    ),
    certify_statistics: (
        "columns.extend(compress(count(a + 1), bin(free)[:1:-1].encode().translate(_BITS)))",
        "low = free & -free",
    ),
}


def _assert_listed_rows_checked(ps):
    """Check both loops on ps against the reference, and count how each listed its rows.

    The exact loop's statistics and witness must be the reference's, and
    the certificate must accept that witness and refuse each corruption of
    it.  Returns, for the exact loop and then the certificate, the pair
    (rows listed in C, rows walked).
    """
    listings = []
    witness = []
    with line_runs(_kern.exact_statistics, *_LISTINGS[_kern.exact_statistics]) as runs:
        stats = _kern.exact_statistics(*_triples(ps), witness)
    listings.append(tuple(runs))
    oracle = brute_force_lines(ps)
    assert stats == line_statistics(oracle, ps.n)
    assert sorted(witness) == _long_lines(oracle)
    with line_runs(certify_statistics, *_LISTINGS[certify_statistics]) as runs:
        assert certify_statistics(ps, witness) == stats
    listings.append(tuple(runs))
    for name in WITNESS_CORRUPTIONS:
        corrupted = corrupted_witness(ps, witness, name)
        assert corrupted != witness, name
        assert certify_statistics(ps, corrupted) is None, name
    return listings


_DIGIT_BOUNDARY_N = [29, 30, 31, 32, 59, 60, 61, 62, 63, 64, 65, 91]
# w x h in _DIGIT_BOUNDARY_N, both sides at least 2
_GRID_SHAPES = [(5, 6), (4, 8), (6, 10), (2, 31), (7, 9), (8, 8), (5, 13), (7, 13)]


@pytest.mark.parametrize(
    "ps",
    [pytest.param(grid(*shape), id=f"grid-{shape[0]}x{shape[1]}") for shape in _GRID_SHAPES]
    # 29-32 of the 49 lattice points in [-3, 3]^2, 59-65 of 81, 91 of 121
    + [pytest.param(random_points(n, n, 3 if n <= 32 else 4 if n <= 65 else 5), id=f"random-{n}")
       for n in _DIGIT_BOUNDARY_N],
)
def test_dense_row_listing_across_int_digit_boundaries(ps):
    # rows with many clear columns list them from bin() in C; these n put
    # the top column on either side of a 30-bit digit boundary
    for in_c, _ in _assert_listed_rows_checked(ps):
        assert in_c > 0


@pytest.mark.parametrize("k", [3, 6, 12, 24, 26, 48, 96])
def test_row_listing_on_a_line_plus_k_off_points(k):
    # a row of the 200-point line that lies past its first member has about
    # k (200 - i) / 200 columns clear, so it is walked while 8k < 200 and
    # listed in C past that: k = 25 is the switch
    ps = _line_plus_off_points(200, k)
    for in_c, walked in _assert_listed_rows_checked(ps):
        if k <= 12:
            assert walked > 0
        if k >= 48:
            assert in_c > 0


def test_kernel_evaluates_every_pair_without_three_collinear():
    # also the count's own negative control: it reads C(50, 2) - 1, not 0;
    # row 48 has one column, so it cannot start a line and is skipped
    assert _evaluated(circle(50)) == 50 * 49 // 2 - 1
    # and past the slope guard, where each equal slope is confirmed
    assert _evaluated(_scaled(circle(50), 1 << 40)) == 50 * 49 // 2 - 1


@pytest.mark.parametrize("n", [200, 600])
def test_near_pencil_rows_past_the_first_cost_nothing(n):
    # rows 1 .. n - 2 have one clear column, the apex, and row n - 1 none,
    # so only row 0 opens its dict of directions.  The exact loop evaluates
    # its n - 1 pairs; the certificate's row 0 keys two directions, to the
    # line's second member and to the apex (walk (i) checks the others)
    ps = near_pencil(n)
    witness = []
    with line_runs(_kern.exact_statistics, "f = first.setdefault(key, j)",
                   "first = {}  # slope key, or reduced direction, from i: its first column") as runs:
        _kern.exact_statistics(*_triples(ps), witness)
    assert runs == [n - 1, 1]
    with line_runs(certify_statistics, "f = first.setdefault(key, u)",
                   "first = {}  # slope key, or reduced direction, from a: its column") as runs:
        assert certify_statistics(ps, witness) is not None
    assert runs == [2, 1]


# ---------------------------------------------------------------------------
# Large inputs with a line that misses at most 3 points take the exact path
# ---------------------------------------------------------------------------


def test_exact_loop_holds_o_n_memory_on_a_near_pencil():
    # each member of the long line held its own mask of the members after it
    # until its row, n^2 / 2 bits in all: a 9.25 MB tracemalloc peak at
    # n = 8000.  One mask per counted line, shared by its members, held
    # 0.76 MB (CPython 3.11.7)
    triples = _triples(near_pencil(8000))
    tracemalloc.start()
    try:
        stats = _kern.exact_statistics(*triples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == ({2: 7999, 7999: 1}, [2] * 7999 + [7999])
    assert peak < 2_000_000


@pytest.mark.parametrize("scale", [1, 1 << 40], ids=["integers", "scaled-2^40"])
def test_large_near_pencil_takes_the_exact_path(scale, monkeypatch):
    ps = pset(*[(p.x * scale, p.y * scale) for p in near_pencil(600).points])
    assert ps.n * (ps.n - 1) // 2 >= INT64_MIN_PAIRS
    int64_calls = _spy(monkeypatch, "int64_statistics")
    with _pairs_evaluated() as evaluated:
        stats_calls = _spy(monkeypatch, "exact_statistics")
        arr = build_arrangement(ps)
    assert int64_calls == [] and len(stats_calls) == 1
    assert evaluated[0] <= 2 * ps.n
    assert dict(arr.size_hist) == {2: 599, 599: 1}
    assert arr.lines_per_point == (2,) * 599 + (599,)
    assert line_statistics(brute_force_lines(ps), ps.n) == (dict(arr.size_hist),
                                                            list(arr.lines_per_point))


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
def test_line_missing_at_most_three_points_iff_within_4n_pairs(n, k):
    # the exact loop evaluates at most sum (|L| - 1) over the lines L,
    # incidences - num_lines: each row it skips drops a 2-point line's pair
    ps = _line_plus_off_points(n, k)
    near = arrangement._line_misses_at_most_three(*_triples(ps))
    arr = build_arrangement(ps)
    pairs = arr.incidences - arr.num_lines
    assert near == (k <= 3) == (pairs <= 4 * n)
    assert _evaluated(ps) <= pairs


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
    witness = []
    arr = build_arrangement(ps, lines=witness)
    assert sorted(witness) == _long_lines(want)
    assert list(arr.size_hist.items()) == list(Counter(sorted(map(len, want))).items())
    per_point = Counter(chain.from_iterable(want))
    assert arr.lines_per_point == tuple(per_point[v] for v in range(ps.n))


# ---------------------------------------------------------------------------
# The exact statistics loop keys by slope: collisions past the guard
# ---------------------------------------------------------------------------


def _assert_statistics_match_reference(ps):
    """exact_statistics, and the build, count what the brute-force lines give."""
    want_hist, want_per_point = line_statistics(brute_force_lines(ps), ps.n)
    hist, per_point = _kern.exact_statistics(*_triples(ps))
    assert list(hist.items()) == list(want_hist.items()) and per_point == want_per_point
    witness = []
    arr = build_arrangement(ps, lines=witness)
    assert list(arr.size_hist.items()) == list(want_hist.items())
    assert arr.lines_per_point == tuple(want_per_point)
    # and the certificate takes the witness of the same loop
    assert certify_statistics(ps, witness) == (want_hist, want_per_point)
    return want_hist


def test_witness_lists_every_long_line_once():
    # point 0 is the middle of two lines, and the near-pencil's long line
    # starts at its first point: each line goes on the witness as its
    # sorted members, when the row of its first member ends
    ps = pset((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 5), (3, 0))
    witness = []
    assert _kern.exact_statistics(*_triples(ps), witness) == _kern.exact_statistics(*_triples(ps))
    assert witness == [[0, 1, 2, 6], [0, 3, 4]]
    # the old flag is refused, not taken for a request
    with pytest.raises(TypeError, match="lines must be a list or None, not bool"):
        build_arrangement(ps, lines=True)


def _two_lines_through_the_origin(u, v):
    """The origin with u, 2u and v, 2v: a 3-point line in each direction."""
    (a, b), (c, d) = u, v
    return [(0, 0), (a, b), (2 * a, 2 * b), (c, d), (2 * c, 2 * d)]


def _in_every_order(coords):
    return [pset(*order) for order in permutations(coords)]


def _farey_neighbour_lines():
    """Two 3-point lines through the origin whose slopes round to one double.

    p/q and r/s with ps - qr = 1 differ by 1/(qs), about 2^-62, far below
    the 2^-53 spacing of doubles near 3/4: one double, two directions.
    """
    q = (1 << 31) - 1
    p = 3 * q // 4
    s = pow(p, -1, q)
    r = (p * s - 1) // q
    assert p * s - q * r == 1 and s > 1 << 30
    assert p / q == r / s
    return _two_lines_through_the_origin((q, p), (s, r))


def test_farey_neighbour_slopes_that_round_to_one_double_are_two_lines(monkeypatch):
    coords = _farey_neighbour_lines()
    gcd_calls = _count_gcd(monkeypatch)
    for ps in _in_every_order(coords):
        assert not _kern._within_slope_guard(*_triples(ps))
        assert _assert_statistics_match_reference(ps) == {2: 4, 3: 2}
    # each order met the collision and keyed one direction by its reduced form
    assert gcd_calls[0] >= 120


def test_directions_whose_slopes_overflow_are_two_lines():
    # dy / dx past the largest double raises OverflowError; both directions
    # take the key None, and the cross product tells them apart
    big = 10**400
    with pytest.raises(OverflowError):
        big / 1
    for v in [(1, big + 1), (-1, big)]:
        coords = _two_lines_through_the_origin((1, big), v)
        for ps in _in_every_order(coords):
            assert _assert_statistics_match_reference(ps) == {2: 4, 3: 2}


def test_slopes_that_underflow_to_zero_are_not_the_horizontal_line():
    # 1 / 10^400 and -1 / 10^400 round to 0.0 and -0.0, the key of y = 0
    big = 10**400
    assert 1 / big == 0.0 == -1 / big
    coords = [(0, 0), (1, 0), (2, 0), (big, 1), (2 * big, 2), (big, -1), (2 * big, -2)]
    for ps in _in_every_order(coords)[::29]:
        assert _assert_statistics_match_reference(ps) == {2: 12, 3: 3}


@st.composite
def _sets_of_extent(draw, m):
    """Integer sets whose largest |coordinate| is m: points anywhere in the
    square, points near its diagonal (their slopes from the origin differ
    by about 1/m^2), and 3-point runs, in any order."""
    coords = {(0, 0), draw(st.sampled_from([(m, 0), (-m, m), (0, -m), (m, m - 1)]))}
    third = m // 3
    for kind in draw(st.lists(st.sampled_from(["any", "diagonal", "run"]), max_size=8)):
        if kind == "any":
            coords.add((draw(st.integers(-m, m)), draw(st.integers(-m, m))))
        elif kind == "diagonal":
            k = draw(st.integers(0, 5))
            coords.update({(m - k, m - k - 1), (-(m - k), -(m - k - 2))})
        else:
            x, y, dx, dy = (draw(st.integers(-third, third)) for _ in range(4))
            coords.update((x + t * dx, y + t * dy) for t in range(3))
    return pset(*draw(st.permutations(sorted(coords))))


@pytest.mark.parametrize(
    "m, inside",
    [((1 << 25) - 1, True), (1 << 25, False), ((1 << 62) - 1, False)],
    ids=["2MW=2^26-2", "2MW=2^26", "m=2^62-1"],
)
@given(data=st.data())
@settings(max_examples=60)
def test_statistics_on_either_side_of_the_slope_guard(m, inside, data):
    # integer input has W = 1, so 2 * M * W is even: 2^26 - 2 is the
    # largest extent inside the guard and 2^26 the smallest past it
    ps = data.draw(_sets_of_extent(m))
    assert _kern._within_slope_guard(*_triples(ps)) is inside
    _assert_statistics_match_reference(ps)


@pytest.mark.parametrize(
    "ps",
    [grid(12, 12), near_pencil(200), circle(50), random_points(150, 7, 2000),
     _scaled(grid(9, 9), ((1 << 25) - 1) // 8)],
    ids=["grid-12x12", "near-pencil-200", "circle-50", "random-150", "grid-9x9-at-the-guard"],
)
def test_no_gcd_inside_the_slope_guard(ps, monkeypatch):
    assert _kern._within_slope_guard(*_triples(ps))
    gcd_calls = _count_gcd(monkeypatch)
    _kern.exact_statistics(*_triples(ps))
    assert gcd_calls[0] == 0
    # the spy's negative control: past the guard, two directions whose
    # slopes round to one double make the same loop call gcd
    _kern.exact_statistics(*_triples(pset(*_farey_neighbour_lines())))
    assert gcd_calls[0] > 0
