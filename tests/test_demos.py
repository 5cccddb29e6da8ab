"""The demos print what they printed when ``golden_demos.json`` was captured.

Each demo runs in-process (``runpy``) with stdout captured, and the sha256
of that text is compared with the stored one.  The demos are seeded, so
their output is fixed; a demo that prints differently has changed what
the library computes or how it formats it.
"""
import runpy

import goldens
import pytest

DEMOS = goldens.HERE.parent / "demos"
GOLDEN = goldens.load("golden_demos.json")


def test_every_demo_is_pinned():
    assert sorted(GOLDEN) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output(name):
    _, out, _ = goldens.captured(runpy.run_path, str(DEMOS / name), run_name="__main__")
    goldens.same(goldens.sha(out), GOLDEN[name], f"the {name} stdout sha256")
