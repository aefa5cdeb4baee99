"""The benchmark's tracer wraps qme names by (module, attribute); each must
still exist, or a traced benchmark run fails before it starts."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _fixed_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FIXED_TARGETS


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in _fixed_targets()])
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
