import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from pointline import (
    DomainError,
    Point,
    PointFormatError,
    build_arrangement,
    circle,
    collinear,
    dump_points,
    generators,
    grid,
    load_points,
    max_lines_through_point,
    near_pencil,
    point,
    random_points,
)
from pointline.generators import _COORD_RE

from reference import load_points_per_entry


def test_grid_33():
    ps = grid(3, 3)
    assert ps.n == 9
    assert build_arrangement(ps).max_collinear == 3


def test_grid_22_all_two_point_lines():
    arr = build_arrangement(grid(2, 2))
    assert dict(arr.size_hist) == {2: 6}


def test_grid_requires_both_dimensions():
    with pytest.raises(DomainError):
        grid(1, 2)
    with pytest.raises(DomainError):
        grid(3, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 17, 100, 200])
def test_near_pencil_closed_form(n):
    arr = build_arrangement(near_pencil(n))
    expected = {2: n - 1}
    expected[n - 1] = expected.get(n - 1, 0) + 1
    assert dict(arr.size_hist) == expected
    assert arr.max_collinear == n - 1
    if n > 3:
        # apex (last point) lies on all n-1 short lines
        assert max_lines_through_point(arr) == (n - 1, n - 1)


def test_near_pencil_rejects_small_n():
    with pytest.raises(DomainError):
        near_pencil(2)


def test_circle_first_points():
    ps = circle(3)
    assert ps.points[0] == point(1, 0)
    assert ps.points[1] == point(0, 1)
    assert ps.points[2] == point(F(-3, 5), F(4, 5))
    with pytest.raises(DomainError, match="circle needs n >= 3"):
        circle(2)


@pytest.mark.parametrize("n", [3, 5, 12, 40])
def test_circle_no_three_collinear(n):
    arr = build_arrangement(circle(n))
    assert dict(arr.size_hist) == {2: n * (n - 1) // 2}
    assert arr.max_collinear == 2


def test_circle_points_on_unit_circle():
    for p in circle(25).points:
        assert p.x * p.x + p.y * p.y == 1


def test_circle_degree():
    arr = build_arrangement(circle(10))
    assert max_lines_through_point(arr)[1] == 9


def test_random_points_deterministic():
    a = random_points(5, 42, 10)
    b = random_points(5, 42, 10)
    assert a == b
    assert random_points(5, 43, 10) != a


def test_random_points_range_and_uniqueness():
    ps = random_points(10, 7, 2)
    assert len(set(ps.points)) == 10
    for p in ps.points:
        assert -2 <= p.x <= 2 and -2 <= p.y <= 2


def test_random_points_capacity():
    with pytest.raises(DomainError):
        random_points(26, 1, 2)  # (2*2+1)^2 = 25 slots
    assert random_points(25, 1, 2).n == 25  # exactly fills the lattice
    with pytest.raises(DomainError, match="bound must be >= 1"):
        random_points(5, 1, 0)  # no lattice at all


def test_collinear_sets():
    arr = build_arrangement(collinear(5))
    assert dict(arr.size_hist) == {5: 1}
    assert build_arrangement(collinear(2)).num_lines == 1
    with pytest.raises(DomainError):
        collinear(1)


def test_closed_forms_exhaustive():
    """Both structured families match their closed-form histograms on [3, 200]."""
    for n in range(3, 201):
        hist = dict(build_arrangement(near_pencil(n)).size_hist)
        expected = {2: n - 1}
        expected[n - 1] = expected.get(n - 1, 0) + 1
        assert hist == expected, f"near_pencil({n})"
    for n in range(3, 201):
        hist = dict(build_arrangement(circle(n)).size_hist)
        assert hist == {2: n * (n - 1) // 2}, f"circle({n})"


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _roundtrip(ps):
    buf = io.StringIO()
    dump_points(ps, buf)
    buf.seek(0)
    return load_points(buf)


def test_roundtrip_lattice():
    ps = grid(3, 4)
    assert _roundtrip(ps) == ps


def test_roundtrip_rational_coordinates():
    ps = circle(9)
    assert _roundtrip(ps) == ps


def test_dump_emits_reduced_rational_strings():
    buf = io.StringIO()
    dump_points(circle(3), buf)
    data = json.loads(buf.getvalue())
    assert data["points"][2] == ["-3/5", "4/5"]


def _load(text: str):
    return load_points(io.StringIO(text))


def test_load_rejects_bad_json():
    with pytest.raises(PointFormatError, match="line 1"):
        _load("{not json")


def test_load_rejects_missing_points_field():
    with pytest.raises(PointFormatError, match="points"):
        _load('{"rows": []}')


def test_load_rejects_empty_list():
    with pytest.raises(PointFormatError):
        _load('{"points": []}')


def test_load_rejects_malformed_entries():
    with pytest.raises(PointFormatError, match="point 1"):
        _load('{"points": [["0", "0"], ["1"]]}')


def test_load_rejects_non_rational_strings():
    for bad in ('1.5', '1/0', '+3', 'x', '3/-2', ''):
        with pytest.raises(PointFormatError, match="field"):
            _load(json.dumps({"points": [["0", "0"], [bad, "1"]]}))


def test_load_rejects_numbers():
    with pytest.raises(PointFormatError, match="field x"):
        _load('{"points": [[1, 2]]}')


def test_load_rejects_coordinates_past_digit_limit():
    huge = "1" * 5000
    for entry, where in (([huge, "0"], "field x"), (["0", f"1/{huge}"], "field y")):
        with pytest.raises(PointFormatError, match=f"point 1, {where}"):
            _load(json.dumps({"points": [["0", "1"], entry]}))


def test_load_rejects_number_literal_past_digit_limit():
    with pytest.raises(PointFormatError, match="invalid JSON"):
        _load('{"points": [[%s, "0"]]}' % ("1" * 5000))


def test_load_rejects_nesting_past_recursion_limit():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(PointFormatError, match="invalid JSON: "):
        _load('{"points": %s}' % deep)


def test_load_rejects_duplicates():
    with pytest.raises(PointFormatError, match=r"^point 1 duplicates point 0: \(1, 2\)$"):
        _load('{"points": [["1", "2"], ["2/2", "4/2"]]}')
    with pytest.raises(PointFormatError, match=r"^point 2 duplicates point 1: \(1/2, 1\)$"):
        _load('{"points": [["0", "0"], ["1/2", "1"], ["2/4", "1"]]}')


def test_load_names_an_unreduced_duplicate_by_its_integer_value():
    with pytest.raises(PointFormatError) as info:
        _load('{"points": [["2", "0"], ["4/2", "0"]]}')
    assert str(info.value) == "point 1 duplicates point 0: (2, 0)"


def test_load_accepts_unreduced_and_negative():
    ps = _load('{"points": [["-4/2", "0"], ["3", "9/3"]]}')
    assert ps.points[0] == point(-2, 0)
    assert ps.points[1] == point(3, 3)


@st.composite
def _digit_strings(draw, first):
    """Digit strings, short or around the 4300-digit int-conversion limit."""
    length = draw(st.one_of(st.integers(1, 5), st.integers(4298, 4302)))
    tail = draw(st.text("0123456789", min_size=1, max_size=5))
    return (draw(st.sampled_from(first)) + tail * length)[:length]


coordinate_strings = st.builds(
    lambda sign, num, den: sign + num + ("/" + den if den else ""),
    st.sampled_from(["", "-"]),
    _digit_strings("0123456789"),
    st.one_of(st.none(), _digit_strings("123456789")),
)


@given(coordinate_strings)
@example("007")
@example("-0")
@example("4/6")
@example("-12/8")
@example("4/2")
@example("0/7")
@example("-" + "9" * 4300)
@example("0" * 4299 + "1/1" + "0" * 4300)
@settings(max_examples=150)
def test_load_parses_coordinates_as_fraction_does(value):
    # the value Fraction parses, as an int exactly when it is integral
    assert _COORD_RE.fullmatch(value)
    try:
        want = F(value)
    except ValueError as exc:  # the same text int() raises past the digit limit
        with pytest.raises(PointFormatError) as info:
            _load(json.dumps({"points": [[value, "0"]]}))
        assert str(info.value) == f"point 0, field x: {exc}"
    else:
        (got, _), = _load(json.dumps({"points": [[value, "0"]]})).points
        assert type(got) is (int if want.denominator == 1 else F) and got == want


# coordinates the file format admits, in six classes of equal values, so
# that duplicates such as "2" against "4/2" are frequent
_small_values = st.sampled_from(["0", "-0", "0/7", "2", "4/2", "1/2", "2/4", "-3", "-12/8", "007"])
# strings that int() refuses although they hold only ASCII digits and "-",
# and strings int() would accept that the pattern refuses
_bad_integers = ["-", "1-2", "--1", "-1-", "1_0", "1 ", "0x1", "1e3", "-" + "1" * 4301]
_invalid_values = st.one_of(
    st.sampled_from(["1\n2", "1\n", "\u0663", "\uff11", "+3", " 1", "", "1/0", "3/-2", "1.5",
                     "1" * 4301, "1/" + "1" * 4301, *_bad_integers]),
    st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False), st.none(),
    st.booleans(), st.lists(st.sampled_from(["0", "1"]), max_size=2),
)


@st.composite
def _point_files(draw):
    """The "points" list of a file: mostly valid pairs, with a few faulty values or entries.

    One valid value in eight is a signed digit string of up to about 4300
    digits, on either side of the int-conversion limit.
    """
    def valid():
        return draw(coordinate_strings if draw(st.integers(0, 7)) == 0 else _small_values)

    entries = []
    for _ in range(draw(st.integers(0, 6))):
        fault = draw(st.integers(0, 9))
        if fault == 0:  # an entry of 1 or 3 elements, or not a list
            entries.append(draw(st.sampled_from([[valid()], [valid(), valid(), valid()],
                                                 "0", 0, None, {"x": "0"}])))
        else:
            pair = [valid(), valid()]
            if fault == 1:
                pair[draw(st.integers(0, 1))] = draw(_invalid_values)
            entries.append(pair)
    return entries


@given(_point_files())
@example([["0", "0"], ["\u0663", "1"]])
@example([["2", "0"], ["4/2", "0"]])
@example([["0", "0"], ["1", "0"], ["2"]])
@example([["1/2", "0"], ["0", "1/" + "1" * 4301]])
@example([["0", "0"], ["1", 2.0]])
@example([["007", "-0"], ["-1", "2"]])
@example([["0", "0"], ["1", "-"]])
@example([["0", "0"], ["1", "1-2"]])
@example([["0", "0"], ["1", "--1"]])
@example([["0", "0"], ["1", "-1-"]])
@example([["0", "0"], ["1", "1_0"]])
@example([["0", "0"], ["1", "1 "]])
@example([["0", "0"], ["1", "0x1"]])
@example([["0", "0"], ["1", "1e3"]])
@example([["0", "0"], ["1", "-" + "1" * 4301]])
@settings(max_examples=300, deadline=None)
def test_load_agrees_with_the_per_entry_reference(entries):
    text = json.dumps({"points": entries})
    try:
        want = load_points_per_entry(io.StringIO(text))
    except PointFormatError as exc:
        with pytest.raises(PointFormatError) as info:
            _load(text)
        assert type(info.value) is PointFormatError and str(info.value) == str(exc)
    else:
        got = _load(text)
        assert got == want
        for p in got.points:
            assert type(p) is Point
            assert all(type(v) is (int if F(v).denominator == 1 else F) for v in p)


def _spy_walk(monkeypatch):
    """Record each call of the loader's per-entry walk, by the length of the list it walks."""
    calls = []
    real = generators._raise_first_offender

    def spy(raw):
        calls.append(len(raw))
        real(raw)

    monkeypatch.setattr(generators, "_raise_first_offender", spy)
    return calls


def _near_pencil_file(last):
    data = {"points": [[str(i), "0"] for i in range(1999)] + [last]}
    return json.dumps(data)


def test_a_valid_file_never_walks_its_entries(monkeypatch):
    calls = _spy_walk(monkeypatch)
    assert _load(_near_pencil_file(["0", "1"])).n == 2000
    with pytest.raises(PointFormatError, match="^point 1999 duplicates point 0: "):
        _load(_near_pencil_file(["0", "0"]))  # a duplicate is found after the parse
    assert calls == []


class _CountingPattern:
    """A stand-in for the loader's coordinate pattern that counts its fullmatch calls."""

    def __init__(self, real):
        self.real, self.calls = real, 0

    def fullmatch(self, text):
        self.calls += 1
        return self.real.fullmatch(text)


def test_an_integer_file_skips_the_coordinate_pattern(monkeypatch):
    spy = _CountingPattern(generators._COORD_RE)
    monkeypatch.setattr(generators, "_COORD_RE", spy)
    assert _load(_near_pencil_file(["0", "1"])).n == 2000
    assert spy.calls == 0
    buf = io.StringIO()
    dump_points(circle(50), buf)
    assert _load(buf.getvalue()).n == 50
    assert spy.calls >= 100


@pytest.mark.parametrize("last, message", [
    (["0"], "point 1999: expected a pair of strings, got ['0']"),
    (["0", 1], "point 1999, field y: 1 is not a rational string"),
    (["0", "1.5"], "point 1999, field y: '1.5' is not a rational string"),
    (["1/" + "1" * 4301, "1"], "point 1999, field x: Exceeds the limit (4300 digits) for integer "
                               "string conversion: value has 4301 digits; use "
                               "sys.set_int_max_str_digits() to increase the limit"),
], ids=["shape", "type", "pattern", "digit-limit"])
def test_an_invalid_file_walks_its_entries_once(monkeypatch, last, message):
    calls = _spy_walk(monkeypatch)
    with pytest.raises(PointFormatError) as info:
        _load(_near_pencil_file(last))
    assert str(info.value) == message
    assert calls == [2000]
