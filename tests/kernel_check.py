"""Run tier-1 under other CPU kernels and list what fails.

The goldens hold on the kernel ``golden_kernel.json`` records.  This
script runs the whole suite once per setting below, each in a child
process whose environment alone carries the setting, and prints each
failing test, marked ``bit-layer`` (a golden or demo test) or ``other``,
and whether its message names both kernels (``goldens.same`` and
``goldens.check_chunks`` open with them).  The target is that only
bit-layer tests fail, each naming its kernel.

    PYTHONPATH=src python3 tests/kernel_check.py [pytest args...]

Extra arguments go to every pytest run, for example a few test files.
Each setting takes one tier-1 run, about a minute on a 2-core host.  Not
collected by pytest: it is a script, not a test module.
"""
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Each setting's name and the environment variables it sets.
SETTINGS = [
    ("default", {}),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_NUM_THREADS=1", {"OPENBLAS_NUM_THREADS": "1"}),
    ("NPY_DISABLE_CPU_FEATURES=AVX512_SPR,AVX512_ICL,X86_V4",
     {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4"}),
    ("NPY_DISABLE_CPU_FEATURES=AVX512_SPR,AVX512_ICL,X86_V4,X86_V3",
     {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR,AVX512_ICL,X86_V4,X86_V3"}),
]


def bit_layer(test_id: str) -> bool:
    """Whether a test pins bits that one kernel produced: a golden or demo test."""
    module = test_id.split("::")[0].rsplit("/", 1)[-1]
    return module.startswith("test_golden") or module == "test_demos.py"


def failures(report: Path) -> tuple:
    """The count of tests run, and (test id, message) of each failure or error."""
    root = ET.parse(report).getroot()
    run, failed = 0, []
    for case in root.iter("testcase"):
        run += 1
        for problem in [*case.iter("failure"), *case.iter("error")]:
            path = case.get("classname", "").replace(".", "/") + ".py"
            failed.append((f"{path}::{case.get('name')}",
                           (problem.get("message") or "") + "\n" + (problem.text or "")))
    return run, failed


def check(name: str, env: dict, args: list) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.xml"
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   f"--junitxml={report}", *args]
        subprocess.run(command, cwd=ROOT, env={**os.environ, **env},
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        run, failed = failures(report) if report.exists() else (0, [("(no report)", "")])
    bits = sum(bit_layer(test) for test, _ in failed)
    print(f"{name}: {len(failed)} failed of {run} ({bits} bit-layer, "
          f"{len(failed) - bits} other)")
    for test, message in failed:
        layer = "bit-layer" if bit_layer(test) else "other"
        names = "names both kernels" if "golden kernel:" in message else "names no kernel"
        print(f"  {layer:9}  {names:18}  {test}")
    sys.stdout.flush()


if __name__ == "__main__":
    for name, env in SETTINGS:
        check(name, env, sys.argv[1:])
