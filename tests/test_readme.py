"""The README's Library examples, run as a doctest, and the facts it states."""
import doctest
import re
from pathlib import Path

from pointline import _kern, arrangement, generators

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 14


def test_docs_state_the_guard_of_the_vectorised_kernel():
    # 2 * |coordinate| * W < _SLOPE_BOUND with W = 1 for integer input
    k = _kern._SLOPE_BOUND.bit_length() - 2
    for text in (README.read_text(), arrangement.__doc__, arrangement.build_arrangement.__doc__):
        figures = re.findall(r"\|coordinate\| < 2\^(\d+)", " ".join(text.split()))
        assert figures and set(figures) == {str(k)}, figures


def test_readme_states_the_coordinate_pattern_the_loader_uses():
    patterns = re.findall(r"rational string matching `([^`]+)`", README.read_text())
    assert patterns == [generators._COORD_RE.pattern]
