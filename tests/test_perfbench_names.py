"""The names and signatures the benchmark reaches exist in the package.

``perfbench/tracing.py`` looks each traced function up by name when
``--trace 1`` installs it, and each workload in ``perfbench/workloads.py``
first runs its warm-up code, which calls builders and oracles positionally.
A function renamed or removed here, or a signature changed, would break
only the benchmark run; this checks every name the tracer reaches and runs
every warm-up.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # The workloads' dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in _load("tracing").TRACED_FUNCTIONS.items() for n in names],
)
def test_each_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"statedisc.{module}"), name))


def test_each_traced_class_member_exists():
    from statedisc import measurement, states

    assert isinstance(measurement.Povm, type)
    assert isinstance(states.DensityMatrix.__dict__["pure"], classmethod)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_warm_up_runs(workload):
    code = "import statedisc\n" + WORKLOADS[workload].warmup_code
    exec(compile(code, f"<{workload} warm-up>", "exec"), {})
