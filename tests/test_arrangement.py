from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pointline import (
    DomainError,
    DuplicatePoint,
    PreconditionViolated,
    TooFewPoints,
    brute_force_lines,
    build_arrangement,
    circle,
    classify_pairs_incidences,
    compute_k,
    grid,
    line_through,
    lines_with_at_most,
    max_lines_through_point,
    near_pencil,
    visibility_edge_count,
)
from pointline import _kern
from pointline.arrangement import INT64_MIN_PAIRS, PointSet

from conftest import pset, rational_sets

ALPHA = Fraction(103, 16)


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
    with pytest.raises(DuplicatePoint):
        pset((0, 0), (1, 1), (0, 0))


def test_build_is_deterministic(grid33):
    again = build_arrangement(grid(3, 3))
    assert again == grid33
    assert list(again.lines.items()) == list(grid33.lines.items())
    # lines come in lexicographic member order
    assert list(grid33.lines.values()) == sorted(grid33.lines.values())


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


def test_compute_k_grid(grid33):
    # |E(G_2)| = 28 <= alpha*9 already
    assert compute_k(grid33, ALPHA, Fraction(1, 4), 2) == 2


def test_compute_k_fallback(pencil5):
    # alpha = 0 keeps every count in range positive; falls back past the range
    assert compute_k(pencil5, Fraction(0), Fraction(2, 5), 2) == 5


def test_compute_k_single_line():
    arr = build_arrangement(pset((0, 0), (1, 0)))
    assert compute_k(arr, Fraction(1), Fraction(1), 0) == 2


def test_compute_k_preconditions(grid33):
    with pytest.raises(PreconditionViolated):
        compute_k(grid33, ALPHA, Fraction(1, 10), 2)  # eps*n < 2
    with pytest.raises(DomainError):
        compute_k(grid33, ALPHA, Fraction(1, 4), 4)


def test_classify_degenerate_k(grid33):
    # k = 2 <= c, so every size is large; large takes precedence over small
    bd = classify_pairs_incidences(grid33, 8, Fraction(1, 4), 2, ALPHA)
    assert bd.k == 2
    assert bd.degenerate_k
    assert (bd.small_pairs, bd.medium_pairs, bd.large_pairs) == (0, 0, 36)
    assert (bd.small_incidences, bd.medium_incidences, bd.large_incidences) == (0, 0, 48)


def test_classify_near_pencil9():
    arr = build_arrangement(near_pencil(9))
    bd = classify_pairs_incidences(arr, 8, Fraction(1, 3), 2, ALPHA)
    assert bd.small_pairs + bd.medium_pairs + bd.large_pairs == 36
    assert bd.small_incidences + bd.medium_incidences + bd.large_incidences == arr.incidences


def test_classify_all_small():
    # alpha = 0 pushes k past the longest line, so every size is small
    arr = build_arrangement(circle(6))
    bd = classify_pairs_incidences(arr, 8, Fraction(1, 2), 0, Fraction(0))
    assert bd.k == 3
    assert bd.k > arr.max_collinear
    assert (bd.small_pairs, bd.medium_pairs, bd.large_pairs) == (15, 0, 0)


def test_classify_requires_c_at_least_8(grid33):
    with pytest.raises(DomainError):
        classify_pairs_incidences(grid33, 7, Fraction(1, 4), 2, ALPHA)


def test_kernels_agree_on_lattice_input():
    # int-typed and Fraction-typed copies of the same coordinates take the
    # same path and group identically
    ps = grid(5, 7)
    xs = [p.x for p in ps.points]
    ys = [p.y for p in ps.points]
    assert all(isinstance(v, Fraction) for v in xs + ys)
    as_ints = _kern.group_collinear([int(x) for x in xs], [int(y) for y in ys])
    assert _kern.group_collinear(xs, ys) == as_ints
    assert sum(len(m) * (len(m) - 1) // 2 for m in as_ints.values()) == 35 * 34 // 2


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
    ps = pset(*coords)
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == brute_force_lines(ps)


@given(rational_sets)
@settings(max_examples=80)
def test_oracle_equivalence_mixed_denominators(coords):
    ps = pset(*coords)
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == brute_force_lines(ps)


# ---------------------------------------------------------------------------
# The int64 statistics kernel against the exact kernel
# ---------------------------------------------------------------------------


def _exact_statistics(ps):
    """(size_hist, lines_per_point) counted from the exact kernel's lines."""
    groups = _kern.group_collinear([p.x for p in ps.points], [p.y for p in ps.points])
    hist = dict(sorted(Counter(map(len, groups.values())).items()))
    per_point = Counter(chain.from_iterable(groups.values()))
    return hist, [per_point[v] for v in range(ps.n)]


def _int64_statistics(ps):
    return _kern.int64_statistics(*_kern.homogenise([p.x for p in ps.points], [p.y for p in ps.points]))


def _assert_int64_exact(ps):
    got = _int64_statistics(ps)
    assert got is not None
    hist, per_point = got
    want_hist, want_per_point = _exact_statistics(ps)
    assert list(hist.items()) == list(want_hist.items())
    assert per_point == want_per_point


@given(lattice_sets)
@settings(max_examples=80)
def test_int64_statistics_match_exact_on_integers(coords):
    _assert_int64_exact(pset(*coords))


@given(rational_sets)
@settings(max_examples=80)
def test_int64_statistics_match_exact_on_rationals(coords):
    _assert_int64_exact(pset(*coords))


# the largest integer coordinate the guard 2 * M * max(W) < 2^31 admits
EDGE = (1 << 30) - 1


edge_coordinates = st.sampled_from([-EDGE, 1 - EDGE, -1, 0, 1, EDGE - 1, EDGE])


@given(st.lists(st.tuples(edge_coordinates, edge_coordinates), min_size=2, max_size=12, unique=True))
@settings(max_examples=60)
def test_int64_statistics_exact_at_the_guard(coords):
    # directions such as (2M, 1 - 2M) are 2^31 - 2 wide and coprime
    _assert_int64_exact(pset(*coords))


@pytest.mark.parametrize(
    "inside, past",
    [
        # integers: 2 * M < 2^31
        ([(EDGE, 0), (-EDGE, EDGE), (0, -EDGE), (0, 0)],
         [(EDGE + 1, 0), (-EDGE, EDGE), (0, -EDGE), (0, 0)]),
        # W = 2: X = 2^29 - 1 gives 2^31 - 4; X = 2^29 gives exactly 2^31
        ([(Fraction((1 << 29) - 1, 2), "1/2"), (0, 0), (1, "-1/2"), (-3, 5)],
         [(1 << 28, "1/2"), (0, 0), (1, "-1/2"), (-3, 5)]),
    ],
    ids=["integers", "halves"],
)
def test_int64_guard_boundary(inside, past):
    _assert_int64_exact(pset(*inside))
    assert _int64_statistics(pset(*past)) is None


# ---------------------------------------------------------------------------
# The float64 slope key below 2 * M * max(W) < 2^26 and the switch to gcd keys
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


# the largest integer coordinate the slope key admits: 2 * M < 2^26
SWITCH = (1 << 25) - 1


switch_coordinates = st.sampled_from(
    [-SWITCH - 1, -SWITCH, 1 - SWITCH, -1, 0, 1, SWITCH - 1, SWITCH, SWITCH + 1]
)


@given(st.lists(st.tuples(switch_coordinates, switch_coordinates), min_size=2, max_size=12, unique=True))
@settings(max_examples=80)
def test_int64_statistics_exact_at_the_switch(coords):
    # at +-SWITCH the float key runs, a coordinate +-2^25 takes the gcd key
    _assert_int64_exact(pset(*coords))


# X = 1 - 2^24 at W = 2: 2 * |X| * W = 2^26 - 4, inside the slope key
HALF_EDGE = Fraction(1 - (1 << 24), 2)


class GcdCalled(Exception):
    pass


def _forbid_gcd(monkeypatch):
    """Make numpy.gcd raise: of the two keys, only the gcd key calls it."""

    def gcd(*args, **kwargs):
        raise GcdCalled

    monkeypatch.setattr(np, "gcd", gcd)


@pytest.mark.parametrize(
    "inside, past",
    [
        # integers: 2 * M < 2^26
        ([(SWITCH, 0), (-SWITCH, SWITCH), (0, -SWITCH), (0, 0), (SWITCH, -SWITCH)],
         [(SWITCH + 1, 0), (-SWITCH, SWITCH), (0, -SWITCH), (0, 0), (SWITCH, -SWITCH)]),
        ([(-SWITCH, -SWITCH), (SWITCH, SWITCH), (0, 0), (1, 0), (SWITCH, 1 - SWITCH)],
         [(-SWITCH - 1, -SWITCH), (SWITCH, SWITCH), (0, 0), (1, 0), (SWITCH, 1 - SWITCH)]),
        # W = 2: X = 2^24 - 1 gives 2^26 - 4; X = 2^24 gives exactly 2^26
        ([(Fraction((1 << 24) - 1, 2), "1/2"), (0, 0), (1, "-1/2"), (-3, 5), (HALF_EDGE, "-1/2")],
         [(1 << 23, "1/2"), (0, 0), (1, "-1/2"), (-3, 5), (HALF_EDGE, "-1/2")]),
    ],
    ids=["integers", "negative-integers", "halves"],
)
def test_slope_key_switch(inside, past, monkeypatch):
    _assert_int64_exact(pset(*inside))
    _assert_int64_exact(pset(*past))
    _forbid_gcd(monkeypatch)
    _assert_int64_exact(pset(*inside))
    with pytest.raises(GcdCalled):
        _int64_statistics(pset(*past))


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
def test_slope_key_signed_zero_and_infinity(coords, monkeypatch):
    _forbid_gcd(monkeypatch)
    _assert_int64_exact(pset(*coords))


@pytest.fixture(scope="module")
def grid23():
    ps = grid(23, 23)
    assert ps.n * (ps.n - 1) // 2 >= INT64_MIN_PAIRS
    return ps


def _spy(monkeypatch, name):
    calls = []
    real = getattr(_kern, name)

    def spy(*args):
        calls.append(real(*args))
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
    assert arr.num_lines == len(lines)
    assert dict(arr.size_hist) == dict(sorted(Counter(map(len, lines.values())).items()))
    per_point = Counter(chain.from_iterable(lines.values()))
    assert arr.lines_per_point == tuple(per_point[v] for v in range(arr.n))
    assert list(lines.values()) == sorted(lines.values())


def test_large_input_past_the_guard_keeps_exact_statistics(grid23, monkeypatch):
    scale = 1 << 30
    big = pset(*[(p.x * scale, p.y * scale) for p in grid23.points])
    int64_calls = _spy(monkeypatch, "int64_statistics")
    exact_calls = _spy(monkeypatch, "group_collinear")
    arr = build_arrangement(big)
    assert int64_calls == [None] and len(exact_calls) == 1
    arr.lines  # kept from the build, not built again
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


@given(lattice_sets)
@settings(max_examples=60)
def test_visibility_counts_non_increasing(coords):
    arr = build_arrangement(pset(*coords))
    counts = [visibility_edge_count(arr, i) for i in range(2, arr.max_collinear + 2)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 0


@given(
    lattice_sets,
    st.integers(8, 20),
    st.integers(0, 3),
    st.fractions(min_value=0, max_value=7, max_denominator=4),
)
@settings(max_examples=80)
def test_breakdown_sum_identities(coords, c, q, alpha):
    ps = pset(*coords)
    arr = build_arrangement(ps)
    eps = Fraction(2, arr.n) + Fraction(1, 8)  # guarantees eps*n >= 2
    bd = classify_pairs_incidences(arr, c, eps, q, alpha)
    n = arr.n
    assert bd.small_pairs + bd.medium_pairs + bd.large_pairs == n * (n - 1) // 2
    assert bd.small_incidences + bd.medium_incidences + bd.large_incidences == arr.incidences
    assert bd.degenerate_k == (bd.k <= c)


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
    # the kernel normalizes keys inline; they must equal geometry's LineKey
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
    ],
    ids=["near-pencil-200", "grid-12x12", "two-crossing-6-lines", "near-pencil-scaled-2^40"],
)
def test_oracle_equivalence_long_lines(ps):
    _assert_lines_match_oracle(ps)


def _gcd_calls(monkeypatch, ps):
    calls = 0
    real = _kern.gcd

    def counting_gcd(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(_kern, "gcd", counting_gcd)
    _kern.group_collinear([p.x for p in ps.points], [p.y for p in ps.points])
    return calls


def test_kernel_skips_pairs_of_finished_lines(monkeypatch):
    # C(199, 2) of the 19,900 pairs lie on the long line, found in its first row
    assert _gcd_calls(monkeypatch, near_pencil(200)) <= 2 * 200


def test_kernel_evaluates_every_pair_without_three_collinear(monkeypatch):
    assert _gcd_calls(monkeypatch, circle(50)) == 50 * 49 // 2
