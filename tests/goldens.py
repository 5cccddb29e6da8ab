"""The golden harness: every golden test runs, hashes, decodes and reports here.

The ``tests/golden*.json`` files pin bits that one CPU kernel produced,
which ``golden_kernel.json`` records as ``kernel()`` reads it: numpy's
version, the SIMD targets it dispatches to over its baseline, and the
OpenBLAS core.  Another kernel may round complex products, ``eigh`` or
float sums differently, so a bit-level miss (``same``, ``check_chunks``)
first names the kernel the goldens were captured on and the one running
now.  No check is skipped or loosened on any kernel.  A golden outcome
moves only by a rule stated here (``declared``), which the stream's test
and its writer both apply.

``python3 tests/goldens.py`` prints this host's kernel in the record's form.
"""
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import random
import warnings
from pathlib import Path

import numpy as np

from statedisc import cli, errors, serialize
from statedisc.schemes import SCHEME_KINDS

HERE = Path(__file__).parent
#: Inputs per digest of a stream's outcomes.
CHUNK = 256


def load(name: str):
    """The parsed golden file ``tests/<name>``."""
    return json.loads((HERE / name).read_text())


def sha(*pieces) -> str:
    """The sha256 hex digest of ``pieces`` in turn, bytes or text (as UTF-8)."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode() if isinstance(piece, str) else piece)
    return digest.hexdigest()


def captured(call, *args, **kwargs) -> tuple:
    """``call(*args, **kwargs)`` with the stdout and stderr text it wrote.
    The streams are redirected, so this works with or without ``capsys``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = call(*args, **kwargs)
    return result, out.getvalue(), err.getvalue()


def run(argv) -> tuple:
    """``cli.main``'s exit code, stdout and stderr for ``argv``."""
    return captured(cli.main, list(argv))


def ok(argv) -> tuple:
    """The stdout and stderr of ``argv``, which must exit 0."""
    code, out, err = run(argv)
    assert code == 0, err
    return out, err


def dump_inputs() -> dict:
    """The flags and entry of every input of ``golden.json``, by kind (its
    flags then name the kind), and of ``golden_branches.json``, by branch."""
    inputs = {k: (["--scheme", k, *ref["flags"]], ref)
              for k, ref in load("golden.json").items()}
    inputs.update((k, (ref["flags"], ref)) for k, ref in load("golden_branches.json").items())
    return inputs


#: The type of each builder input, read off its builder's signature: ``cli``
#: derives its flag converters from the same ``SCHEME_KINDS`` types.
INPUT_TYPES = cli._INPUT_TYPES


def decode(values: dict) -> dict:
    """A draw's builder inputs from their JSON, complex ones from pairs."""
    return {k: serialize.complex_from_json(v) if INPUT_TYPES[k] is complex else v
            for k, v in values.items()}


#: The window each real builder input is drawn from, in both seeded streams.
WINDOWS = {"gamma": (-1.0, 1.0), "alpha": (-1.0, 1.0), "x0": (-0.2, 1.2),
           "x1": (-0.2, 1.2), "overlap": (-1.1, 1.1)}


def near_values(rng: random.Random, kind: str) -> dict:
    """Builder inputs near ones that build, drawn from ``rng``."""
    u = [rng.uniform(0.6, 1.3) for _ in range(3)]
    if kind == "rra":  # overlap = c_plus c_minus
        c_plus, c_minus = 0.7 * u[0] * rng.choice((1, -1)), 0.4 * u[1]
        return {"overlap": c_plus * c_minus, "c_plus": c_plus, "c_minus": c_minus}
    if kind == "zero-aux":  # g01 = conj(g12 g20)
        g12 = 0.3 * u[0] * complex(1.0, rng.uniform(-0.3, 0.3))
        g20 = 0.2 * u[1] * complex(1.0, rng.uniform(-0.3, 0.3))
        return {"g01": (g12 * g20).conjugate(), "g12": g12, "g20": g20}
    base = {"gamma": 0.5, "alpha": 0.2, "x0": 0.6, "x1": 0.6}
    return {k: base[k] * u[i] for i, k in enumerate(SCHEME_KINDS[kind].inputs)}


def _openblas_core() -> str:
    """The core OpenBLAS picked, read from the library numpy ships, or ``unknown``."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return (corename() or b"unknown").decode()
    return "unknown"


def kernel() -> dict:
    """The kernel running now, in the form of ``golden_kernel.json``."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:
        baseline = simd = ["unknown"]
    else:
        baseline = list(__cpu_baseline__)
        simd = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return {"numpy": np.__version__, "simd_baseline": baseline, "simd": simd,
            "openblas_core": _openblas_core()}


def _describe(k: dict) -> str:
    return (f"numpy {k['numpy']}, SIMD {' '.join(k['simd']) or '-'} over "
            f"{' '.join(k['simd_baseline'])}, OpenBLAS {k['openblas_core']}")


def kernel_lines() -> str:
    """Two lines: the kernel the goldens were captured on, and this one."""
    return (f"golden kernel: {_describe(load('golden_kernel.json'))}\n"
            f"this kernel:   {_describe(kernel())}")


def same(got, want, what: str):
    """Assert that ``got`` is the pinned ``want``; a miss names both kernels first."""
    if got != want:
        raise AssertionError(f"{kernel_lines()}\n{what} moved: {got!r} != pinned {want!r}")


def chunk_sha256(outcomes: list, size: int = CHUNK) -> list:
    """One digest of the JSON of each run of ``size`` outcomes."""
    return [sha(json.dumps(outcomes[i : i + size])) for i in range(0, len(outcomes), size)]


def check_chunks(name: str, want: list, outcomes: list, report, size: int = CHUNK):
    """Each chunk of ``outcomes`` against its digest in ``want``.  The first
    that moved fails with both kernels, the stream ``name`` and the chunk,
    then ``report(i)`` (input i and its outcome now) for each input in it."""
    for k, (digest, got) in enumerate(zip(want, chunk_sha256(outcomes, size))):
        if got != digest:
            lines = map(report, range(k * size, min((k + 1) * size, len(outcomes))))
            raise AssertionError(f"{kernel_lines()}\n{name} chunk {k} moved:\n"
                                 + "\n".join(lines))


#: The declared moves of ``golden_error_stream.json``, each (the outcome an
#: input it covers must have now, the outcome the file pins for it).  First,
#: a 0 x 0 overlap matrix: linalg.hermitian_eig rejects it before numpy's
#: raw ValueError can escape; a 1 x 0 or 0 x 1 one fails the square check
#: first, as it did.
EMPTY_GRAM = (
    ("DimensionMismatchError", "expected a non-empty matrix, got (0, 0)"),
    ("ValueError", "zero-size array to reduction operation minimum which has no identity"),
)
#: Second, a POVM whose first element, of the shape named, is not square:
#: Povm checks that shape before it compares the others with it.  The
#: [np.ones((dim, dim + 1))] stacks move, and the dumps cut by a row of it.
NON_SQUARE_POVM = (
    ("DimensionMismatchError", "POVM element {} is not square"),
    ("DimensionMismatchError", "POVM elements differ in dimension"),
)
#: Third, an entry near the float maximum.  The file was captured while it
#: overflowed h - h^dag, its norm or the mean (h + h^dag) / 2 with a
#: RuntimeWarning, which ``_overflow`` replays.  Now an overflowed residual
#: is inf and fails; a mean is taken by halves, and the input raises the
#: domain error that follows: not PSD, diagonal or completeness.
OVERFLOW = (
    ("NotHermitianError", "Hermiticity residual inf exceeds 1e-09"),
    ("RuntimeWarning", "overflow encountered in {}"),
)


def _matrices(stream: str, arg) -> list:
    """The matrices an input's Hermiticity check may take, or none."""
    if stream == "states_from_gram":
        return [arg[1]]
    if stream == "Povm" and arg[1] and len(arg[1]) == len(arg[2]):
        return arg[1]
    return []


def _huge(stream: str, inputs: list) -> list:
    """Whether each input holds an entry part of modulus 1e308 or more."""
    mats = [[np.ravel(m) for m in _matrices(stream, arg)] for arg in inputs]
    flat = [m for ms in mats for m in ms]
    if not flat:
        return [False] * len(inputs)
    parts = np.concatenate(flat).astype(np.complex128).view(np.float64)
    seen = np.concatenate(([0], np.cumsum(np.abs(parts) >= 1e308)))
    ends = 2 * np.cumsum([sum(m.size for m in ms) for ms in mats])
    return (seen[ends] > seen[np.concatenate(([0], ends[:-1]))]).tolist()


def _overflow(stream: str, arg):
    """The ``OVERFLOW[1]`` outcome the file pins for an input, or None: the
    RuntimeWarning of the first of h - h^dag, its norm (dot products for an
    overlap matrix, ``np.linalg.norm`` for a POVM stack) and h + h^dag to
    overflow, on the matrices the Hermiticity check took."""
    if stream == "states_from_gram":
        norm = lambda d: sum(x.ravel().dot(x.ravel()) for x in (d.real, d.imag))  # noqa: E731
    else:
        norm = lambda d: np.linalg.norm(d, axis=(1, 2))  # noqa: E731
    mats = [np.asarray(m, dtype=np.complex128) for m in _matrices(stream, arg)]
    if any(m.ndim != 2 or not np.isfinite(m).all() for m in mats):
        return None
    shape = mats[0].shape
    if shape[0] != shape[1] or shape[0] == 0:
        return None
    stack = np.array(list(itertools.takewhile(lambda m: m.shape == shape, mats)))
    if not (np.abs(stack.view(np.float64)) >= 1e308).any():
        return None
    adjoint = stack.conj().transpose(0, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            norm(stack - adjoint)
            stack + adjoint
        except RuntimeWarning as exc:
            return ("RuntimeWarning", str(exc))
    return None


def _first_povm_shape(stream: str, arg):
    """The shape of the first POVM element a Povm input or cut dump holds."""
    if stream == "Povm" and arg[1]:
        return np.shape(arg[1][0])
    if stream == "scheme_from_json" and arg[1] == "cut povm.element":
        return np.shape(json.loads(arg[2])["povm"]["elements"][0])[:2]
    return None


def declared(stream: str, inputs: list, outcomes: list, text) -> list:
    """The outcomes ``golden_error_stream.json`` pins for ``stream``: each
    input a rule covers must have the rule's outcome now, and is given the
    one the file was captured with.  A 0 x 0 overlap matrix must have
    ``EMPTY_GRAM[0]``; ``NON_SQUARE_POVM[0]`` must name the input's first
    POVM element's shape; where ``_overflow`` names an overflow of the
    residual the input must have ``OVERFLOW[0]``, and of the mean another
    domain error.  ``text(arg)`` shows an input that breaks a rule."""
    pinned = []
    for arg, outcome, huge in zip(inputs, outcomes, _huge(stream, inputs)):
        if stream == "states_from_gram" and np.shape(arg[1]) == (0, 0):
            assert outcome == EMPTY_GRAM[0], f"{text(arg)} -> {outcome}"
            outcome = EMPTY_GRAM[1]
        if (outcome[0] == NON_SQUARE_POVM[0][0] and outcome[1]
                == NON_SQUARE_POVM[0][1].format(_first_povm_shape(stream, arg))):
            outcome = NON_SQUARE_POVM[1]
        replayed = _overflow(stream, arg) if huge else None
        if replayed == (OVERFLOW[1][0], OVERFLOW[1][1].format("add")):
            assert outcome != OVERFLOW[0] and issubclass(
                getattr(errors, outcome[0], type(None)), errors.DiscriminationError
            ), f"{text(arg)} -> {outcome}"
        elif replayed is not None:
            assert outcome == OVERFLOW[0], f"{text(arg)} -> {outcome}"
        pinned.append(replayed or outcome)
    return pinned


if __name__ == "__main__":
    print(json.dumps(kernel(), indent=1))
