"""Run tier-1 under a line tracer and list the package statements no test ran.

The suite runs in this process under ``sys.settrace`` and
``threading.settrace``, which trace only frames whose code lies in
``src/statedisc``.  Every statement of the package, found with ``ast``, that
no test executed is printed with its function and first line.  Docstrings,
``def``, ``class``, imports and ``nonlocal`` are not counted.  A statement
in ``ALLOWED`` is printed with the reason no test reaches it; the script
exits 1 if any other statement is left, if an ``ALLOWED`` entry names a
statement that ran or that no longer exists, or if a test fails.

    PYTHONPATH=src python3 tests/line_check.py [pytest args...]

Extra arguments go to the pytest run.  The traced run takes about 1.7
times as long as an untraced tier-1 run.  Not collected by pytest: it is a
script, not a test module.
"""
import ast
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "statedisc"
#: (function, first line of the statement, why no tier-1 test runs it).
ALLOWED = [
    ("__main__", 'if __name__ == "__main__":',
     "python -m statedisc, which the CLI tests spawn as a subprocess"),
    ("__main__", "sys.exit(main())",
     "python -m statedisc, which the CLI tests spawn as a subprocess"),
    ("cli", "sys.exit(main())",
     "python -m statedisc.cli, which the CLI tests spawn as a subprocess"),
    ("montecarlo._workers", "cores = os.cpu_count() or 1",
     "the fallback for a platform without os.sched_getaffinity"),
    ("linalg.isometry_completion",
     'raise InvariantViolationError("orthonormal completion did not reach dim")',
     "completing with every canonical basis vector in turn always reaches dim"),
    ("linalg.isometry_completion",
     'raise InvariantViolationError(f"action residual {act:.3e} > {tol.ACTION}")',
     "the Gram and norm gates before it bound how far u misses an image"),
    ("measurement.pure_confusion",
     'raise InvariantViolationError(f"state norms {norms!r} differ from 1")',
     "callers pass an ensemble's states, checked to unit norm, or those "
     "states times a coupling checked unitary"),
    ("measurement.pure_confusion",
     'raise InvariantViolationError(f"outcome probabilities sum to {sums!r}")',
     "a POVM checked complete sums to 1 on unit states within roundoff"),
    ("schemes.build_zero_aux",
     'raise InvariantViolationError("measurement vectors failed to orthogonalize")',
     "the conditioning gate before it bounds this overlap by tol.ORTHOGONAL"),
    ("schemes.separable_decomposition",
     'raise InvariantViolationError(f"{name} part trace {tr!r} differs from 1")',
     "both parts are built with unit trace in closed form"),
    ("schemes.separable_decomposition", "raise InvariantViolationError(",
     "the decomposition residual: the closed form is exact to roundoff"),
]
#: Statements that are not counted: they run no code of their own.
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom, ast.Nonlocal)


def statements(path: Path):
    """(function, own lines, first line text) of each counted statement.

    A compound statement's own lines are its header, up to its first
    child statement; a ``try`` has no code there, and counts as run when
    its body does.
    """
    text = path.read_text()
    lines = text.splitlines()
    module = path.stem

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
            elif isinstance(child, ast.stmt):
                if not isinstance(child, SKIPPED) and not is_docstring(child):
                    inner = [n.lineno for n in ast.iter_child_nodes(child)
                             if isinstance(n, ast.stmt)]
                    if isinstance(child, ast.Try):
                        own = {child.body[0].lineno}
                    else:
                        end = min(inner) - 1 if inner else child.end_lineno
                        own = set(range(child.lineno, max(end, child.lineno) + 1))
                    yield scope, own, lines[child.lineno - 1].strip()
                yield from walk(child, scope)

    yield from walk(ast.parse(text), module)


def is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def traced_run(args: list) -> tuple:
    """Run pytest with the tracer on: its exit code, and the lines run by
    file name."""
    ran = defaultdict(set)
    mine: dict = {}  # code object -> whether it lies in the package

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in mine:
            mine[code] = code.co_filename.startswith(str(SRC))
        return local if mine[code] else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(args: list) -> int:
    start = time.perf_counter()
    code, ran = traced_run(args)
    elapsed = time.perf_counter() - start
    allowed = {(function, text): why for function, text, why in ALLOWED}
    matched, missed, left = set(), 0, 0
    for path in sorted(SRC.glob("*.py")):
        hits = ran.get(str(path), set())
        for function, own, text in statements(path):
            if own & hits:
                continue
            missed += 1
            why = allowed.get((function, text))
            matched.add((function, text))
            left += why is None
            mark = f"allowed: {why}" if why else "NOT RUN"
            print(f"{path.relative_to(ROOT)}:{min(own)}: {function}: {text}\n    {mark}")
    stale = [key for key in allowed if key not in matched]
    for function, text in stale:
        print(f"allow-list entry matches no statement left unrun: {function}: {text}")
    print(f"{missed} statements not run, {left} outside the allow-list, "
          f"{len(stale)} stale allow-list entries; pytest exit code {code}, "
          f"traced run {elapsed:.1f} s")
    return 1 if left or stale or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
