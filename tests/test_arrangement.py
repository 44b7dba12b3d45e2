from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from pointline.arrangement import PointSet

from conftest import pset

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


# p/q with mixed denominators 1..4: lines of 3+ points occur, unlike the
# rational circles, and clearing to homogeneous integers is exercised
rational_sets = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4)),
    min_size=2,
    max_size=12,
    unique=True,
)


@given(rational_sets)
@settings(max_examples=80)
def test_oracle_equivalence_mixed_denominators(coords):
    ps = pset(*coords)
    arr = build_arrangement(ps)
    assert list(arr.lines.values()) == brute_force_lines(ps)


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
