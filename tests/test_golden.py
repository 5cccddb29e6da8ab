"""Outputs that must stay byte-identical across refactors.

``golden.json`` was captured from the package before the scheme registry
and the pure-state confusion kernel existed.  Per scheme kind it holds
the CLI flags used, the ``params_to_json`` dict, the sha256 of ``dump``
stdout, and the parsed ``simulate`` JSON (n = 10^5, seed 20151206) for 1
and 4 shards.  Floats round-trip through JSON exactly, so comparing
parsed values is comparing bytes.
"""
import hashlib
import json
from pathlib import Path

import pytest

from statedisc import cli, serialize

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# The --<param> flags of the command line before the registry derived them.
PARENT_PARAM_KEYS = {
    "gamma", "alpha", "x0", "x1", "overlap",
    "c_plus", "c_minus", "g01", "g12", "g20",
}


def _cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_dump_bytes_and_params(capsys, kind):
    ref = GOLDEN[kind]
    out = _cli(capsys, ["dump", "--scheme", kind, *ref["flags"]])
    assert hashlib.sha256(out.encode()).hexdigest() == ref["dump_sha256"]
    scheme = serialize.scheme_from_json(json.loads(out))
    assert serialize.params_to_json(scheme.params) == ref["params_json"]


@pytest.mark.parametrize("shards", ["1", "4"])
@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_simulate_tallies(capsys, kind, shards):
    ref = GOLDEN[kind]
    argv = ["simulate", "--scheme", kind, *ref["flags"],
            "--n", "100000", "--seed", "20151206", "--shards", shards]
    assert json.loads(_cli(capsys, argv)) == ref["simulate"][shards]


def test_param_flags_match_the_parent_set():
    args = vars(cli._build_parser().parse_args(["run"]))
    common = {"command", "config", "scheme", "priors", "allow_trivial",
              "output", "format"}
    assert set(args) - common == PARENT_PARAM_KEYS


def test_readme_tests_section_names_every_golden_file():
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("\n## Tests\n")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `tests/golden"):
            rows[cells[0].strip("`")] = cells[-1].strip("`")
    for path in sorted((root / "tests").glob("golden*.json")):
        name = f"tests/{path.name}"
        assert name in rows, f"README's Tests section leaves out {name}"
        # The test the row names reads the file.
        assert path.name in (root / rows[name]).read_text(), name
