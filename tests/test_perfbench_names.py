"""The names the benchmark's tracer patches exist in the package.

``perfbench/tracing.py`` looks each traced function up by name when
``--trace 1`` installs it, so a function renamed or removed here would
break the traced run only there; this checks every name it reaches.
"""
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in _tracing().TRACED_FUNCTIONS.items() for n in names],
)
def test_each_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"statedisc.{module}"), name))


def test_each_traced_class_member_exists():
    from statedisc import measurement, states

    assert isinstance(measurement.Povm, type)
    assert isinstance(states.DensityMatrix.__dict__["pure"], classmethod)
