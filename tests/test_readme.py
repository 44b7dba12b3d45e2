"""The README's Library examples, run as a doctest, and the facts it states."""
import doctest
import re
import shlex
from pathlib import Path

from pointline import _kern, arrangement, bounds, cli, generators

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 14


def test_docs_state_the_guard_of_the_vectorised_kernel():
    # 2 * |coordinate| * W < _SLOPE_BOUND with W = 1 for integer input; the
    # exact statistics loop takes its slope key as it is inside the same guard
    k = _kern._SLOPE_BOUND.bit_length() - 2
    for text in (README.read_text(), arrangement.__doc__, arrangement.build_arrangement.__doc__,
                 _kern.exact_statistics.__doc__):
        figures = re.findall(r"\|coordinate\| < 2\^(\d+)", " ".join(text.split()))
        assert figures and set(figures) == {str(k)}, figures


def test_readme_states_the_coordinate_pattern_the_loader_uses():
    patterns = re.findall(r"rational string matching `([^`]+)`", README.read_text())
    assert patterns == [generators._COORD_RE.pattern]


def test_deleted_line_map_is_named_only_in_the_migration_note():
    # the package keeps one exact loop; the deleted line kernel and line
    # certificate are named only where the README tells users what replaced them
    gone = ("group_collinear", "certify_lines")
    src = Path(arrangement.__file__).parent
    assert [(path.name, name) for path in sorted(src.glob("*.py"))
            for name in gone if name in path.read_text(encoding="utf-8")] == []
    naming = [paragraph for paragraph in README.read_text().split("\n\n")
              if any(name in paragraph for name in gone)]
    assert naming and all(paragraph.startswith("**Migration.**") for paragraph in naming)


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # every command of the CLI section's bash block, in file order, so that
    # generate writes grid.json before the commands that read it
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pointline ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        capsys.readouterr()
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
        argmax = re.search(r"# argmax c=(\d+)", line)
        if argmax:
            assert f"argmax_c: {argmax.group(1)}" in capsys.readouterr().out, line


def test_readme_names_the_checks_in_table_order():
    # the CLI section's sentence on --suite lists every check name, in the
    # order verify_theorems runs them
    sentence = " ".join(README.read_text().split("`verify --suite` takes", 1)[1].split(", and runs")[0].split())
    assert tuple(re.findall(r"`(\w+)`", sentence)) == bounds.CHECK_NAMES
