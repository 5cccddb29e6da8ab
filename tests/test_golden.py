"""Outputs that must stay byte-identical across refactors.

``golden.json`` was captured before the scheme registry and the pure-state
confusion kernel existed.  Per scheme kind it holds the CLI flags, the
``params_to_json`` dict, the sha256 of ``dump`` stdout, and the parsed
``simulate`` JSON (n = 10^5, seed 20151206) for 1 and 4 shards; floats
round-trip through JSON exactly.  ``golden_branches.json``, captured
before the four coupled builders shared one recipe, holds the same but
the params for each branch of that recipe: the ``r = 0`` snap of the
mixed coupling (``|c| = 1``, from ``gamma = +-1/sqrt(2)`` or a general
pair on the realizability boundary), ``c = 0``, ``alpha >= gamma^2`` and
``alpha < 0``, rra's failure amplitude of modulus 1, and the unambiguous
family's ``x0 = gamma^2``, ``x0 = 0`` and ``x0 = 1`` corners.
"""
import ast
import json
from pathlib import Path

import goldens
import pytest

from statedisc import cli, serialize

INPUTS = goldens.dump_inputs()

# The --<param> flags of the command line before the registry derived them.
PARENT_PARAM_KEYS = {
    "gamma", "alpha", "x0", "x1", "overlap",
    "c_plus", "c_minus", "g01", "g12", "g20",
}


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_dump_bytes_and_params(case):
    flags, ref = INPUTS[case]
    out, _ = goldens.ok(["dump", *flags])
    goldens.same(goldens.sha(out), ref["dump_sha256"], f"the {case} dump sha256")
    # The dump reloads into a scheme that passes the pipeline check again.
    scheme = serialize.scheme_from_json(json.loads(out))
    if "params_json" in ref:
        assert serialize.params_to_json(scheme.params) == ref["params_json"]


@pytest.mark.parametrize("shards", ["1", "4"])
@pytest.mark.parametrize("case", sorted(INPUTS))
def test_simulate_tallies(case, shards):
    flags, ref = INPUTS[case]
    out, _ = goldens.ok(["simulate", *flags, "--n", "100000", "--seed", "20151206",
                         "--shards", shards])
    goldens.same(json.loads(out), ref["simulate"][shards], f"the {case} tallies")


def test_param_flags_match_the_parent_set():
    args = vars(cli._build_parser().parse_args(["run"]))
    common = {"command", "config", "scheme", "priors", "allow_trivial",
              "output", "format"}
    assert set(args) - common == PARENT_PARAM_KEYS


def _code_strings(tree: ast.AST) -> set:
    """The string constants of ``tree``'s code: docstrings and comments are
    not code."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docs}


def loaded_files(source: str, harness: str) -> set:
    """The names a test module's code holds, directly or in the code of a
    ``goldens`` function it reaches, ``harness`` being ``goldens.py``'s text."""
    functions = {node.name: node for node in ast.parse(harness).body
                 if isinstance(node, ast.FunctionDef)}
    tree = ast.parse(source)
    names = _code_strings(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "goldens" and node.attr in functions):
            names |= _code_strings(functions[node.attr])
    return names


def test_a_docstring_or_comment_names_no_loaded_file():
    harness = (goldens.HERE / "goldens.py").read_text()
    module = '"""Checks ``golden_a.json``."""\n# golden_b.json\nX = goldens.load("golden_c.json")\n'
    assert loaded_files(module, harness) == {"golden_c.json"}
    # A harness function counts by its code, not by its docstring.
    files = {path.name for path in goldens.HERE.glob("golden*.json")}
    assert not loaded_files("goldens.declared", harness) & files
    assert len(loaded_files("goldens.dump_inputs()", harness) & files) == 2


def test_readme_tests_section_names_every_golden_file():
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text()
    harness = (goldens.HERE / "goldens.py").read_text()
    section = readme.split("\n## Tests\n")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `tests/golden"):
            rows[cells[0].strip("`")] = cells[-1].strip("`")
    for path in sorted((root / "tests").glob("golden*.json")):
        name = f"tests/{path.name}"
        assert name in rows, f"README's Tests section leaves out {name}"
        # The test the row names loads the file, not only mentions it.
        loaded = loaded_files((root / rows[name]).read_text(), harness)
        assert path.name in loaded, f"{rows[name]} does not load {name}"
