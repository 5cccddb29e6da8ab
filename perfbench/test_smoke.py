"""The benchmark's own test: the smoke mode must pass.

Run from the repository root with ``python3 -m pytest -q perfbench/test_smoke.py``.
"""
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode_emits_every_metric_and_matches_references():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("smoke: ok")
