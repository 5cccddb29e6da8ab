"""Every numerical threshold of the package is a row of ``statedisc.tol``."""
import ast
import pathlib

from statedisc import tol

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "statedisc"
TREES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
TOL_LINES = (SRC / "tol.py").read_text().splitlines()


def _is_eps(node) -> bool:
    """``<...>.finfo(...).eps``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "eps"
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", getattr(node.value.func, "id", None))
        == "finfo"
    )


def _table_rows() -> dict[str, int]:
    """Row name -> line number of every assignment in tol.py."""
    return {
        t.id: node.lineno
        for node in TREES["tol.py"].body
        if isinstance(node, ast.Assign)
        for t in node.targets
    }


def test_no_threshold_written_outside_the_table():
    found = []
    for name, tree in TREES.items():
        if name == "tol.py":
            continue
        for node in ast.walk(tree):
            small = (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) < 1e-3
            )
            eps_factor = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mult)
                and (_is_eps(node.left) or _is_eps(node.right))
            )
            if small or eps_factor:
                found.append(f"{name}:{node.lineno}")
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for t in targets:
                if isinstance(t, ast.Name) and "TOL" in t.id.upper():
                    found.append(f"{name}:{node.lineno} defines {t.id}")
    assert found == []


def test_every_row_is_read_and_every_read_is_a_row():
    rows = _table_rows()
    reads = {
        node.attr
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tol"
    }
    assert sorted(set(rows) - reads) == []
    assert sorted(reads - set(rows)) == []


def test_table_imports_nothing_and_comments_each_row():
    tree = TREES["tol.py"]
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(n, (ast.Assign, ast.Expr)) for n in tree.body)
    for name, line in _table_rows().items():
        assert "  # " in TOL_LINES[line - 1], name


def test_zero_aux_psd_gate_stays_behind_its_constraint_gate():
    # build_zero_aux passes its modulus gate (|g12|, |g20| <= 1) and its
    # constraint gate (|conj(g12 g20) - g01| <= tol.OVERLAP) only for an
    # exact Gram matrix moved by at most tol.OVERLAP in one conjugate pair
    # of entries, whose least eigenvalue stays above -tol.OVERLAP.  The PSD
    # gate that linalg.psd_cholesky then applies to that matrix at -tol.PSD
    # is unreachable for zero-aux inputs while this order holds.
    assert tol.OVERLAP < tol.PSD
