"""The demos print what they printed when ``golden_demos.json`` was captured.

Each demo runs in-process (``runpy``) with stdout captured, and the sha256
of that text is compared with the stored one.  The demos are seeded, so
their output is fixed; a demo that prints differently has changed what
the library computes or how it formats it.
"""
import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"
GOLDEN = json.loads((Path(__file__).parent / "golden_demos.json").read_text())


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[name]
