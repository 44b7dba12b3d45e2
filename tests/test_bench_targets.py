"""The benchmark's tracer wraps package attributes by name; each must exist.

perfbench/spans.py is loaded by path (it is not a package) and only read.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.TARGETS]


# Targets whose span is absent on purpose; the tracer skips a missing
# attribute.  The CLI certifies its lines and runs no oracle, so the
# oracle span on cli.brute_force_lines never fires; the package keeps one
# exact loop, exact_statistics, so the kern span on the deleted line
# kernel _kern.group_collinear never fires either.
RETIRED = {("cli", "brute_force_lines"), ("_kern", "group_collinear")}


@pytest.mark.parametrize("module_name, attr", _targets())
def test_span_target_resolves(module_name, attr):
    module = importlib.import_module(f"pointline.{module_name}")
    if (module_name, attr) in RETIRED:
        assert getattr(module, attr, None) is None, f"pointline.{module_name}.{attr} is back"
    else:
        assert callable(getattr(module, attr, None)), f"pointline.{module_name}.{attr} is gone"
