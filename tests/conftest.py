from fractions import Fraction

from hypothesis import strategies as st

from pointline import PointSet, point


def pset(*coords) -> PointSet:
    """Build a PointSet from (x, y) tuples of ints/Fractions/strings."""
    return PointSet.of(point(Fraction(x), Fraction(y)) for x, y in coords)


# p/q with mixed denominators 1..4: lines of 3+ points occur, unlike the
# rational circles, and clearing to homogeneous integers is exercised
rational_sets = st.lists(
    st.tuples(st.fractions(-3, 3, max_denominator=4), st.fractions(-3, 3, max_denominator=4)),
    min_size=2,
    max_size=12,
    unique=True,
)
