import ast
import inspect
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pointline import (
    TooFewPoints,
    _kern,
    build_arrangement,
    certify_statistics,
    circle,
    grid,
    near_pencil,
    oracle,
    random_points,
)

from conftest import (
    WITNESS_CORRUPTIONS,
    WITNESS_GRID,
    corrupted_grid_witness,
    grid_witness,
    line_runs,
    line_statistics,
    pset,
    rational_sets,
)
from reference import brute_force_lines, orient


def test_two_points_single_line():
    assert brute_force_lines(pset((0, 0), (3, 1))) == [(0, 1)]


def test_four_points_general_position():
    lines = brute_force_lines(pset((0, 0), (1, 0), (0, 1), (2, 3)))
    assert len(lines) == 6
    assert all(len(members) == 2 for members in lines)


def test_requires_two_points():
    with pytest.raises(TooFewPoints):
        brute_force_lines(pset((5, 5)))
    with pytest.raises(TooFewPoints):
        certify_statistics(pset((5, 5)), [])


def _assert_matches_arrangement(ps, oracle):
    """The build's witness is oracle's lines of 3 or more points, and its statistics oracle's."""
    witness = []
    arr = build_arrangement(ps, lines=witness)
    assert sorted(witness) == [list(members) for members in oracle if len(members) >= 3]
    assert (dict(arr.size_hist), list(arr.lines_per_point)) == line_statistics(oracle, ps.n)


def test_matches_arrangement_on_grid():
    ps = grid(3, 3)
    oracle = brute_force_lines(ps)
    assert len(oracle) == 20
    _assert_matches_arrangement(ps, oracle)


@pytest.mark.parametrize("n", [8, 120])
def test_matches_arrangement_on_rational_coordinates(n):
    ps = circle(n)
    _assert_matches_arrangement(ps, brute_force_lines(ps))


def test_collinear_triples_merge():
    lines = brute_force_lines(pset((0, 0), (1, 1), (2, 2), (5, 0)))
    assert (0, 1, 2) in lines
    assert len(lines) == 4


def test_does_not_use_the_line_kernels(monkeypatch):
    # (1/2, 1/3), (1, 2/3), (3/2, 1) lie on y = 2x/3; their clearing
    # must not borrow the kernel's homogenise
    ps = pset(("1/2", "1/3"), (1, "2/3"), ("3/2", 1), (0, "1/5"), ("1/3", 0), ("-1/4", "3/2"))
    witness = []
    arr = build_arrangement(ps, lines=witness)
    stats = (dict(arr.size_hist), list(arr.lines_per_point))
    assert witness == [[0, 1, 2]]

    def refuse(*args):
        raise AssertionError("the oracle called a line kernel")

    monkeypatch.setattr(_kern, "homogenise", refuse)
    monkeypatch.setattr(_kern, "exact_statistics", refuse)
    monkeypatch.setattr(_kern, "int64_statistics", refuse)
    lines = brute_force_lines(ps)
    assert [list(members) for members in lines if len(members) >= 3] == witness
    assert line_statistics(lines, ps.n) == stats
    assert certify_statistics(ps, witness) == stats


def _kern_references(source):
    """The nodes of source that import _kern, or name it as a variable or attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", ""), getattr(node, "attr", "")]
        if any("_kern" in name.split(".") for name in names):
            found.append(node)
    return found


def test_names_nothing_from_the_line_kernels():
    # the certificate keeps its own copy of the exact loop's row listing and
    # integer rule: a helper shared with _kern could hide one bug from the
    # check that is meant to catch it
    assert _kern_references(inspect.getsource(oracle)) == []
    for source in ["from . import _kern", "from ._kern import homogenise", "import pointline._kern",
                   "from .arrangement import _kern", "x = arrangement._kern.gcd", "_kern.inf"]:
        assert _kern_references(source), source


def _naive_lines(ps):
    pts = ps.points
    n = len(pts)
    return sorted({
        tuple(r for r in range(n) if orient(pts[i], pts[j], pts[r]) == 0)
        for i in range(n)
        for j in range(i + 1, n)
    })


@given(rational_sets.map(lambda coords: coords[:8]))
@settings(max_examples=80)
def test_homogeneous_predicate_matches_rational_orientation(coords):
    # the naive enumeration tests collinearity in Fractions, without the kernel
    ps = pset(*coords)
    assert brute_force_lines(ps) == _naive_lines(ps)


# halves in [-2, 2]: 81 points, so 16 of them often put collinear runs on
# both sides of a point, and a line's smallest member is rarely its first pair
_HALVES = [Fraction(k, 2) for k in range(-4, 5)]
grid_subsets = st.lists(
    st.tuples(st.sampled_from(_HALVES), st.sampled_from(_HALVES)),
    min_size=2,
    max_size=16,
    unique=True,
)


@given(grid_subsets)
@settings(max_examples=80)
def test_direction_grouping_matches_rational_orientation(coords):
    ps = pset(*coords)
    assert brute_force_lines(ps) == _naive_lines(ps)


def test_coordinates_past_int64():
    # every cleared coordinate and direction is far past 2^63; a reduction
    # or sign step done in fixed width would split or merge these lines
    big = 2**63 + 1
    den = 2**62 + 3
    ps = pset((0, 0), (big, big), (2 * big, 2 * big), (big, 0), (0, big),
              (Fraction(big, 2), Fraction(big, 2)), (Fraction(big, den), 0))
    lines = brute_force_lines(ps)
    assert lines == _naive_lines(ps)
    assert (0, 1, 2, 5) in lines  # y = x
    assert (3, 4, 5) in lines     # x + y = big
    assert (0, 3, 6) in lines     # y = 0
    assert len(lines) == 3 + 9  # 21 pairs, 12 of them on the three lines above


_BIG = 2**63 + 1
# the inputs of the cross-check tests here, in test_cli and in test_acceptance,
# the shapes of the benchmark's crosscheck workload, and a near-pencil
CROSS_CHECK_INPUTS = {
    "grid 3x3": lambda: grid(3, 3),
    "grid 5x5": lambda: grid(5, 5),
    "grid 12x12": lambda: grid(12, 12),
    "grid 23x23": lambda: grid(23, 23),
    "circle 8": lambda: circle(8),
    "circle 80": lambda: circle(80),
    "circle 120": lambda: circle(120),
    "random 150": lambda: random_points(150, 7, 100),
    "near-pencil 100": lambda: near_pencil(100),
    "rationals": lambda: pset(("1/2", "1/3"), (1, "2/3"), ("3/2", 1), (0, "1/5"), ("1/3", 0), ("-1/4", "3/2")),
    "past int64": lambda: pset((0, 0), (_BIG, _BIG), (2 * _BIG, 2 * _BIG), (_BIG, 0), (0, _BIG),
                               (Fraction(_BIG, 2), Fraction(_BIG, 2)), (Fraction(_BIG, 2**62 + 3), 0)),
}


@pytest.mark.parametrize("name", CROSS_CHECK_INPUTS)
def test_certificate_accepts_every_cross_check_input(name):
    ps = CROSS_CHECK_INPUTS[name]()
    witness = []
    arr = build_arrangement(ps, lines=witness)
    lines = brute_force_lines(ps)
    oracle = line_statistics(lines, ps.n)
    assert oracle == (dict(arr.size_hist), list(arr.lines_per_point))
    assert sorted(witness) == [list(members) for members in lines if len(members) >= 3]
    assert certify_statistics(ps, witness) == oracle


# ---------------------------------------------------------------------------
# the certificate of the exact statistics loop
# ---------------------------------------------------------------------------


def _scaled(ps, factor):
    return pset(*((x * factor, y * factor) for x, y in ps.points))


def _farey_collision():
    # the origin with two 3-point lines whose slopes p/q and r/s, ps - qr = 1,
    # differ by about 2^-62 and round to one double
    q = (1 << 31) - 1
    p = 3 * q // 4
    s = pow(p, -1, q)
    r = (p * s - 1) // q
    assert p * s - q * r == 1 and p / q == r / s
    return pset((0, 0), (s, r), (q, p), (2 * s, 2 * r), (2 * q, 2 * p))


_WITNESSED_SETS = st.one_of(
    st.builds(grid, st.integers(2, 7), st.integers(2, 7)),
    st.builds(circle, st.integers(3, 40)),
    st.builds(random_points, st.integers(2, 40), st.integers(0, 99), st.integers(3, 9)),
    st.builds(near_pencil, st.integers(3, 40)),
    rational_sets.map(lambda coords: pset(*coords)),
)


@given(_WITNESSED_SETS, st.sampled_from([1, 1 << 21, 1 << 40]))
@example(_farey_collision(), 1)
@example(CROSS_CHECK_INPUTS["past int64"](), 1)
@example(pset((0, 0), (1, 10**400), (2, 2 * 10**400), (1, 10**400 + 1), (2, 2 * 10**400 + 2)), 1)
@settings(max_examples=120, deadline=None)
def test_statistics_certificate_accepts_the_true_witness(ps, scale):
    # scaled by 2^21 most sets, and by 2^40 all, lie past the slope guard;
    # the examples collide in a double, pass 2^63 and overflow a double
    ps = _scaled(ps, scale)
    witness = []
    arr = build_arrangement(ps, lines=witness)
    oracle = line_statistics(brute_force_lines(ps), ps.n)
    assert certify_statistics(ps, witness) == oracle == (dict(arr.size_hist), list(arr.lines_per_point))
    assert sorted(witness) == [list(m) for m in brute_force_lines(ps) if len(m) >= 3]


@pytest.mark.parametrize("name", WITNESS_CORRUPTIONS)
def test_statistics_certificate_refuses_a_wrong_witness(name):
    witness = grid_witness()
    assert certify_statistics(WITNESS_GRID, witness) is not None
    corrupted = corrupted_grid_witness(name)
    assert corrupted != witness
    assert certify_statistics(WITNESS_GRID, corrupted) is None


# each edit keeps every other check passing; the line x = 5 of grid(6, 6) is
# the witness's last entry, [30, 31, 32, 33, 34, 35]
@pytest.mark.parametrize("members", [
    [],                                # a line through no point
    [0],                               # a line through one point
    [-1, 30, 31, 32, 33, 34],          # -1 standing in for n - 1
    [30, 31, 32, 33, 34, 36],          # past the last index
    [35, 34, 33, 32, 31, 30],          # descending
], ids=["empty", "one member", "negative index", "index n", "descending"])
def test_certificate_rejects_member_lists_out_of_shape(members):
    witness = grid_witness()
    assert witness[-1] == [30, 31, 32, 33, 34, 35]
    if len(members) < 3:
        witness.append(members)
    else:
        witness[-1] = members
    assert certify_statistics(WITNESS_GRID, witness) is None


@given(rational_sets)
@settings(max_examples=80)
def test_certificate_counts_what_the_oracle_counts(coords):
    ps = pset(*coords)
    witness = []
    build_arrangement(ps, lines=witness)
    assert certify_statistics(ps, witness) == line_statistics(brute_force_lines(ps), ps.n)


def test_statistics_certificate_refuses_three_points_off_one_line():
    # no three points of a circle are collinear, so only (i) sees it
    ps = circle(8)
    assert certify_statistics(ps, []) == line_statistics(brute_force_lines(ps), ps.n)
    assert certify_statistics(ps, [[0, 1, 2]]) is None


def _centred(u, v):
    """The origin between u and -u and between v and -v: two 3-point lines."""
    (a, b), (c, d) = u, v
    return [(0, 0), (a, b), (-a, -b), (c, d), (-c, -d)]


_FAREY = [tuple(p) for p in _farey_collision().points[1:3]]
_HUGE = 10**400


@pytest.mark.parametrize("coords", [_centred(*_FAREY), _centred((1, _HUGE), (1, _HUGE + 1))],
                         ids=["farey", "overflow"])
def test_statistics_certificate_refuses_a_missing_line_whose_slope_collides(coords):
    # the directions of the missing line, on both sides of the origin, meet
    # a listed line's slope (one double, or an overflow) and must still be
    # told apart from it, and from each other only by their reduced,
    # sign-normalised direction
    for order in permutations(coords):
        ps = pset(*order)
        witness = []
        build_arrangement(ps, lines=witness)
        assert len(witness) == 2
        assert certify_statistics(ps, witness) == line_statistics(brute_force_lines(ps), ps.n)
        for dropped in range(2):
            assert certify_statistics(ps, witness[:dropped] + witness[dropped + 1:]) is None



def test_certificate_holds_o_n_memory_on_a_near_pencil():
    # each member of the long line held its own mask of the members after it
    # until its row, n^2 / 2 bits in all: a 9.6 MB tracemalloc peak at
    # n = 8000.  One mask per listed line, shared by its members, held
    # 1.2 MB, the n triples of the clearing among it (CPython 3.11.7)
    ps = near_pencil(8000)
    witness = []
    arr = build_arrangement(ps, lines=witness)
    tracemalloc.start()
    try:
        stats = certify_statistics(ps, witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == (dict(arr.size_hist), list(arr.lines_per_point))
    assert peak < 2_000_000


def _certificate_pairs(ps):
    """The directions the certificate's row loop keys while it accepts the true witness of ps."""
    witness = []
    build_arrangement(ps, lines=witness)
    with line_runs(certify_statistics, "f = first.setdefault(key, u)") as evaluated:
        assert certify_statistics(ps, witness) is not None
    return evaluated[0]


@pytest.mark.parametrize("scale", [1, 1 << 40], ids=["plain", "scaled-2^40"])
def test_certificate_skips_pairs_of_listed_lines(scale):
    assert _certificate_pairs(_scaled(near_pencil(200), scale)) <= 2 * 200
    assert _certificate_pairs(_scaled(near_pencil(600), scale)) <= 2 * 600
    # the count's negative control: no three points of a circle are collinear
    assert _certificate_pairs(_scaled(circle(50), scale)) == 50 * 49 // 2


@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=2, max_size=40, unique=True),
    st.integers(2, 12),
    st.sampled_from([1, 1 << 26]),
)
@settings(max_examples=60, deadline=None)
def test_integer_input_agrees_with_the_same_set_divided(coords, d, scale):
    # x -> x / d keeps every line and every index, so the integer path (every
    # W = 1) and the products of homogeneous input must give one witness, one
    # count and one certificate; scaled by 2^26 both lie past the slope guard
    whole = pset(*((x * scale, y * scale) for x, y in coords))
    divided = pset(*((Fraction(x * scale, d), Fraction(y * scale, d)) for x, y in coords))
    assume(max(_kern.homogenise(divided.points)[2]) > 1)
    results = []
    for ps in (whole, divided):
        triples = _kern.homogenise(ps.points)
        assert _kern._within_slope_guard(*triples) == (scale == 1)
        witness = []
        stats = _kern.exact_statistics(*triples, witness)
        results.append((witness, stats, certify_statistics(ps, witness)))
    assert results[0] == results[1]
    assert results[0][2] == results[0][1]
