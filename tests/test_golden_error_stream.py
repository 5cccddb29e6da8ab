"""Exception class and message, or built bytes, over seeded input streams.

``golden_error_stream.json`` was captured from the package while the
flagged layouts' POVMs and the POVM completeness check were still cached
by their bytes, and is never re-captured.  It pins the library entry
points below the command line; ``golden_cli_stream.json`` pins
``cli.main``.  One seeded stream per entry point:

- ``build:<kind>``, 1,024 calls of ``SCHEME_KINDS[kind].build`` per kind:
  inputs near one that builds, mixed with wild ones (NaN, +-inf, huge and
  subnormal numbers, values outside each window, complex values for real
  inputs), priors that do not sum to 1, hold a wild entry or have the
  wrong count, and ``allow_trivial`` either way;
- ``scheme_from_json``, 1,280 tampered dumps of schemes built from
  ``golden_build_stream.json`` draws: a key dropped, a label changed, an
  entry moved by 1e-9 or 1e-6, an array transposed or cut short, a field
  given the wrong type;
- ``states_from_gram``, 6,144 overlap matrices: realizable ones, and ones
  moved off Hermitian, off a unit diagonal or below PSD, non-finite,
  non-square or of the wrong rank, with good and bad priors;
- ``Povm``, 6,144 labeled stacks: complete ones, and ones moved off
  Hermitian, off PSD or off completeness, non-finite, of mixed dimensions
  (after an element that fails its own check, too), empty, or with the
  wrong number of labels.

Each call runs with every warning raised as an error.  Per input the
outcome is the exception's class and message, or ``ok`` and the sha256
of what it built: a scheme's ``scheme_to_json`` text, an ensemble's state
stack and priors, a POVM's element stack, labels and completeness
residual.  Outcomes move only by the rules ``goldens.declared`` states.
The file pins, per stream, one sha256 over its inputs, one digest of the
outcomes of each chunk of 256 inputs and the count of each outcome class,
and lists each class of ``errors.py`` that neither this file nor the CLI
stream reaches, and why.

Write the file with ``PYTHONPATH=src python3 tests/test_golden_error_stream.py``.
"""
import copy
import functools
import json
import math
import random
import warnings
from collections import Counter

import goldens
import numpy as np

from statedisc import errors, serialize
from statedisc.measurement import OutcomeLabel, Povm
from statedisc.schemes import SCHEME_KINDS
from statedisc.states import states_from_gram

PATH = goldens.HERE / "golden_error_stream.json"
SEED = 2022
PER_KIND = 1024
LOADS = 1280
GRAMS = 6144
POVMS = 6144
#: Realizable overlap matrices and complete POVMs drawn per size, which
#: the inputs of their streams start from.
POOL = 32

#: The domain error classes that no input of either stream reaches, and why.
UNREACHED = {
    "Discrimination": "the base class; only its subclasses are raised",
    "GramMismatch": "raised only by linalg.isometry_completion, whose "
                    "inputs each builder's gates keep consistent; "
                    "scheme_from_json does not call it",
    "HypothesisViolated": "raised only by schemes.separable_decomposition, "
                          "which no stream calls",
    "InvalidGamma": "raised only by analysis.max_unambiguous_symmetric_grid, "
                    "which no stream calls",
}

NAN, INF = float("nan"), float("inf")
WILD_REAL = [NAN, INF, -INF, 1e308, -1e308, 5e-324, -5e-324,
             2.2250738585072014e-308, 1e-320, 1e16, -1e-16, 2.0, -3.0,
             1.0000000000000002, -0.9999999999999999, 0.0, -0.0, 1.0, -1.0,
             2 ** -0.5, 0.7071067811865477]
WILD_COMPLEX = [complex(NAN, NAN), complex(INF, 0.0), 0.5j, 0.3 + 0.4j,
                complex(1e308, 1e308), 5e-324j, -0.6 - 0.8j, 1 + 0j, 1j,
                0.99999999999999 + 0j, complex(0.3, NAN)]
#: Complex values handed to a real input.
COMPLEX_FOR_REAL = [0.5 + 0j, 0.3j, 0.5 + 1e-17j, complex(NAN, 0.0), -0.2 + 0j]


# -- builders -----------------------------------------------------------------

def _real(rng: random.Random, lo: float, hi: float):
    roll = rng.random()
    if roll < 0.25:
        return rng.choice(WILD_REAL)
    if roll < 0.3:
        return rng.choice(COMPLEX_FOR_REAL)
    if roll < 0.4:
        return rng.choice((lo, hi, 0.0, 0.5, 2 ** -0.5, -(2 ** -0.5)))
    if roll < 0.5:
        return round(rng.uniform(lo, hi), 2)
    return rng.uniform(lo, hi)


def _complex(rng: random.Random, radius: float):
    roll = rng.random()
    if roll < 0.2:
        return rng.choice(WILD_COMPLEX + WILD_REAL)
    r, t = rng.uniform(0, radius), rng.uniform(-3.2, 3.2)
    if roll < 0.4:
        return r * rng.choice((-1.0, 1.0))
    return complex(r * math.cos(t), r * math.sin(t))


def _priors(rng: random.Random, count: int) -> list:
    roll = rng.random()
    if roll < 0.1:
        count += rng.choice((-1, 1))
    raw = [rng.random() + 1e-9 for _ in range(max(count, 0))]
    priors = [p / sum(raw) for p in raw]
    if not priors:
        return priors
    if roll < 0.25:
        priors[rng.randrange(len(priors))] = rng.choice(WILD_REAL + [-0.1, 1e-17])
    elif roll < 0.35:
        scale = rng.choice((1.0 + 1e-7, 1.0 + 1e-11, 1.01, 0.5, -1.0))
        priors = [p * scale for p in priors]
    elif roll < 0.45:
        priors = [round(p, 2) for p in priors]
    elif roll < 0.5 and len(priors) > 1:
        priors[rng.randrange(len(priors))] = 0.0
        priors = [p / sum(priors) for p in priors]
    return priors


def build_inputs(kind: str) -> list:
    rng = random.Random(f"{SEED}:build:{kind}")
    spec = SCHEME_KINDS[kind]
    inputs = []
    for _ in range(PER_KIND):
        roll = rng.random()
        if roll < 0.05:  # corners: zero and tiny inputs, a prior of 1 or 0
            values = {k: rng.choice((0.0, -0.0, 5e-324, 1e-300, 1e-160))
                      for k in spec.inputs}
            priors = list(rng.choice(((1.0, 0.0), (0.0, 1.0)) if spec.n_priors == 2
                                     else ((0.5, 0.5, 0.0), (1.0, 0.0, 0.0),
                                           (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))))
        elif roll < 0.2:
            values = goldens.near_values(rng, kind)
            if rng.random() < 0.3:
                key = rng.choice(sorted(values))
                values[key] = rng.choice(WILD_REAL + WILD_COMPLEX)
            raw = [rng.uniform(0.6, 1.4) * p for p in
                   ((0.6, 0.4) if spec.n_priors == 2 else (0.3, 0.3, 0.4))]
            priors = [p / sum(raw) for p in raw]
            if rng.random() < 0.2:
                priors = _priors(rng, spec.n_priors)
        else:
            values = {
                k: _complex(rng, 1.2 if k.startswith("c_") else 0.5)
                if goldens.INPUT_TYPES[k] is complex else _real(rng, *goldens.WINDOWS[k])
                for k in spec.inputs
            }
            priors = _priors(rng, spec.n_priors)
        inputs.append((values, priors, rng.random() < 0.3))
    return inputs


def build_outcome(kind: str, arg) -> str:
    values, priors, trivial = arg
    scheme = SCHEME_KINDS[kind].build(dict(values), list(priors), trivial)
    return goldens.sha(json.dumps(serialize.scheme_to_json(scheme)))


# -- scheme_from_json ---------------------------------------------------------

def _base_dumps() -> list:
    """The parsed dump of every eighth ``golden_build_stream.json`` draw per kind."""
    golden = goldens.load("golden_build_stream.json")
    dumps = []
    for kind in sorted(golden):
        for ref in golden[kind][::8]:
            scheme = SCHEME_KINDS[kind].build(goldens.decode(ref["values"]), ref["priors"],
                                              ref["allow_trivial"])
            dumps.append(json.loads(json.dumps(serialize.scheme_to_json(scheme))))
    return dumps


_ARRAYS = ("coupling", "povm.elements", "ensemble.states", "ensemble.priors",
           "povm.labels")
_KEYS = ("ensemble", "ancilla_dim", "coupling", "povm", "analytic_success",
         "params", "branch_note", "ensemble.states", "ensemble.priors",
         "povm.elements", "povm.labels", "params.kind", "params.0")


def _own(holder, key):
    """``holder[key]``, replaced by a copy of it first: a tampered dump shares
    with its base only what it leaves as it is."""
    holder[key] = value = copy.copy(holder[key])
    return value


def _walk(data: dict, path: str):
    """The container that holds ``path``'s last part, owned, and that part."""
    *head, last = path.split(".")
    for key in head:
        data = _own(data, key)
    if last == "0":  # the first field of params after its kind
        last = [k for k in data if k != "kind"][0]
    return data, last


def _tamper(rng: random.Random, data: dict) -> str:
    """Change ``data`` in place one way; return what was done."""
    op = rng.choice(("drop", "drop", "label", "move", "move", "move", "transpose",
                     "cut", "cut", "type"))
    if op == "drop":
        path = rng.choice(_KEYS)
        holder, key = _walk(data, path)
        del holder[key]
        return f"drop {path}:{key}"
    if op == "label":
        labels = _own(_own(data, "povm"), "labels")
        k = rng.randrange(len(labels))
        new = rng.choice(("identify:5", "inconclusive", "identify:01", "Identify:0",
                          "identify:-1", "identify: 1", 0, None, labels[k - 1],
                          "identify:99999999999999999999"))
        labels[k] = new
        return f"label {k} = {new!r}"
    if op == "move":
        path = rng.choice(("coupling", "povm.elements", "ensemble.states",
                           "ensemble.priors", "analytic_success"))
        holder, key = _walk(data, path)
        delta = rng.choice((1e-9, -1e-9, 1e-6, -1e-6))
        if path == "analytic_success":
            holder[key] += delta
            return f"move {path} {delta!r}"
        spot = rng.choice(list(np.ndindex(np.shape(holder[key]))))
        leaf = _own(holder, key)
        for i in spot[:-1]:
            leaf = _own(leaf, i)
        leaf[spot[-1]] += delta
        return f"move {path}{list(spot)} {delta!r}"
    if op == "transpose":
        path = rng.choice(("coupling", "povm.elements"))
        holder, key = _walk(data, path)
        if path == "coupling":
            holder[key] = [list(col) for col in zip(*holder[key])]
            return "transpose coupling"
        k = rng.randrange(len(holder[key]))
        _own(holder, key)[k] = [list(col) for col in zip(*holder[key][k])]
        return f"transpose povm.elements[{k}]"
    if op == "cut":
        path = rng.choice(_ARRAYS + ("coupling.row", "povm.element", "pair"))
        if path == "coupling.row":
            _own(_own(data, "coupling"), -1).pop()
        elif path == "povm.element":
            _own(_own(_own(data, "povm"), "elements"), 0).pop()
        elif path == "pair":
            _own(_own(_own(data, "coupling"), 0), 0).pop()
        else:
            holder, key = _walk(data, path)
            target = _own(holder, key)
            (_own(target, -1) if path == "ensemble.states" else target).pop()
        return f"cut {path}"
    path = rng.choice(("ancilla_dim", "analytic_success", "params.kind",
                       "params.0", "ensemble.priors", "coupling"))
    holder, key = _walk(data, path)
    new = rng.choice((2.0, "2", True, None, [1], {"re": 1}, 1, 3, "mixed",
                      float("nan")))
    holder[key] = new
    return f"type {path}:{key} = {new!r}"


class _Dump(str):
    """A tampered dump's JSON text, which the input digest reads, holding as
    ``data`` the tree it was written from, which the loader reads."""


def load_inputs() -> list:
    rng = random.Random(f"{SEED}:load")
    bases = _base_dumps()
    inputs = []
    for _ in range(LOADS):
        k = rng.randrange(len(bases))
        data = dict(bases[k])
        what = _tamper(rng, data)
        dump = _Dump(json.dumps(data))
        dump.data = data
        inputs.append((k, what, dump))
    return inputs


def load_outcome(arg) -> str:
    scheme = serialize.scheme_from_json(arg[2].data)
    return goldens.sha(json.dumps(serialize.scheme_to_json(scheme)))


# -- states_from_gram ---------------------------------------------------------

def _unit(rng: random.Random, dim: int) -> np.ndarray:
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)])
    return v / np.linalg.norm(v)


def _gram(rng: random.Random, n: int) -> np.ndarray:
    """A realizable overlap matrix of ``n`` states in at most ``n`` dims."""
    dim = rng.choice(range(1, n + 1)) if rng.random() < 0.3 else n
    vs = np.array([_unit(rng, dim) for _ in range(n)])
    g = vs.conj() @ vs.T
    np.fill_diagonal(g, 1.0)
    if rng.random() < 0.4:
        g = g.real + 0j
        g = (g + g.T) / 2
        np.fill_diagonal(g, 1.0)
    return g


def gram_inputs() -> list:
    rng = random.Random(f"{SEED}:gram")
    pool = {n: [_gram(rng, n) for _ in range(POOL)] for n in (1, 2, 3, 4)}
    inputs = []
    for _ in range(GRAMS):
        n = rng.choice((1, 2, 3, 3, 3, 4))
        g = rng.choice(pool[n]).copy()
        roll = rng.random()
        what = "realizable"
        if roll < 0.15 and n > 1:
            i, j = rng.sample(range(n), 2)
            g[i, j] += rng.choice((1e-9, 1e-6, 1e-3, 1j * 1e-6))
            what = "off Hermitian"
        elif roll < 0.3:
            i = rng.randrange(n)
            g[i, i] += rng.choice((1e-9, 1e-6, 1e-3, -0.5))
            what = "off the diagonal"
        elif roll < 0.45 and n > 1:
            i, j = rng.sample(range(n), 2)
            g[i, j] = g[j, i] = rng.choice((1.0 + 1e-6, 1.5, -1.0001, 0.99))
            what = "large overlap"
        elif roll < 0.55:
            i, j = rng.randrange(n), rng.randrange(n)
            g[i, j] = rng.choice(WILD_COMPLEX + WILD_REAL)
            what = "wild entry"
        elif roll < 0.65:
            g = rng.choice((g[:, :-1], g[:-1], g[0], g[None], np.zeros((0, 0)),
                            g.real.astype(np.float32)))
            what = "shape"
        priors = _priors(rng, n) if rng.random() < 0.5 else [1.0 / n] * n
        inputs.append((what, g, priors))
    return inputs


def gram_outcome(arg) -> str:
    _, g, priors = arg
    ens = states_from_gram(g, priors)
    rows = np.array(ens.states)
    return goldens.sha(rows.tobytes(), ens.priors.tobytes())


# -- Povm ---------------------------------------------------------------------

def _complete(rng: random.Random, dim: int) -> list:
    """A complete stack: a basis's projectors, some split into two parts."""
    basis = np.linalg.qr(np.array([_unit(rng, dim) for _ in range(dim)]))[0]
    elements = []
    for b in basis.T:
        m = np.outer(b, b.conj())
        if rng.random() < 0.3:
            w = rng.random()
            elements += [w * m, (1 - w) * m]
        else:
            elements.append(m)
    return elements


#: Labels are values; each stack shares them.
_identify = functools.cache(OutcomeLabel.identify)
_INCONCLUSIVE = OutcomeLabel.inconclusive()


def povm_inputs() -> list:
    rng = random.Random(f"{SEED}:povm")
    pool = {d: [_complete(rng, d) for _ in range(POOL)] for d in (1, 2, 3, 4, 5, 6)}
    inputs = []
    for _ in range(POVMS):
        dim = rng.choice((1, 2, 3, 4, 6))
        elements = list(rng.choice(pool[dim]))
        k = rng.randrange(len(elements))
        roll = rng.random()
        what = "complete"
        if roll < 0.15 and dim > 1:
            m = elements[k].copy()
            m[0, 1] += rng.choice((1e-9, 1e-6, 1e-3, 1e-6j))
            elements[k] = m
            what = "off Hermitian"
        elif roll < 0.3:
            elements[k] = elements[k] * rng.choice((1.0 + 1e-9, 1.0 + 1e-6, 1.01, 0.0))
            what = "off completeness"
        elif roll < 0.42:
            v = _unit(rng, dim)
            eps = rng.choice((1e-9, 1e-6, 0.1))
            elements[k] = elements[k] - eps * np.outer(v, v.conj())
            elements.append(eps * np.outer(v, v.conj()))
            what = "off PSD"
        elif roll < 0.5:
            m = elements[k].copy()
            m[rng.randrange(dim), rng.randrange(dim)] = rng.choice(WILD_COMPLEX + WILD_REAL)
            elements[k] = m
            what = "wild entry"
        elif roll < 0.62:
            bad = rng.choice(pool[rng.choice((1, 2, 3, 5))])[0]
            if rng.random() < 0.5:  # an earlier element fails on its own
                elements[0] = elements[0] + rng.choice((1e-3j, -0.5)) * np.eye(dim)
            elements.insert(rng.randrange(1, len(elements) + 1), bad)
            what = "mixed dims"
        elif roll < 0.68:
            elements = rng.choice(([], [elements[0][0]], [np.ones((dim, dim + 1))]))
            what = "shape"
        labels = [_identify(i) if rng.random() < 0.7 else _INCONCLUSIVE
                  for i in range(len(elements))]
        if rng.random() < 0.05:
            labels = labels[:-1] if labels and rng.random() < 0.5 else labels * 2
            what += ", label count"
        inputs.append((what, elements, labels))
    return inputs


def povm_outcome(arg) -> str:
    _, elements, labels = arg
    povm = Povm(tuple(elements), tuple(labels))
    tail = repr((list(map(str, povm.labels)), povm.completeness_residual))
    return goldens.sha(povm.elements.tobytes(), tail)


# -- the streams --------------------------------------------------------------

def _plain(value):
    """``value`` with arrays as lists and labels as text, for ``repr``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, OutcomeLabel):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def input_text(arg) -> str:
    return repr(_plain(arg))


@functools.cache
def _header(dtype: str, shape: tuple) -> bytes:
    return repr((dtype, shape)).encode()


def _pieces(items, out: list) -> list:
    """``out`` with the digest pieces of the list or tuple ``items`` added:
    its items in brackets, an array by its dtype, shape and bytes, a list
    or tuple in turn by its items, and anything else by its repr, a label
    by the repr of its text."""
    out.append(b"[")
    for item in items:
        if isinstance(item, np.ndarray):
            out += (_header(item.dtype.str, item.shape), item.tobytes())
        elif isinstance(item, (list, tuple)):
            _pieces(item, out)
        else:
            out.append(repr(str(item) if isinstance(item, OutcomeLabel) else item))
    out.append(b"]")
    return out


def inputs_sha256(inputs: list) -> str:
    return goldens.sha(*_pieces(inputs, []))


def streams() -> dict:
    """Each stream's inputs and the outcome of one input, by name."""
    out = {f"build:{kind}": (build_inputs(kind),
                             lambda arg, kind=kind: build_outcome(kind, arg))
           for kind in SCHEME_KINDS}
    out["scheme_from_json"] = (load_inputs(), load_outcome)
    out["states_from_gram"] = (gram_inputs(), gram_outcome)
    out["Povm"] = (povm_inputs(), povm_outcome)
    return out


def run_stream(name: str, call, inputs: list) -> list:
    """The outcome the file pins for each input, warnings raised as errors."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in inputs:
            try:
                out.append(("ok", call(arg)))
            except Exception as exc:  # every class is an outcome to pin
                out.append((type(exc).__name__, str(exc)))
    return goldens.declared(name, inputs, out, input_text)


def summarize(inputs: list, outcomes: list) -> dict:
    return {
        "inputs_sha256": inputs_sha256(inputs),
        "chunk_sha256": goldens.chunk_sha256(outcomes),
        "outcomes": dict(sorted(Counter(o[0] for o in outcomes).items())),
    }


def _domain_codes() -> set:
    return {name[:-5] if name.endswith("Error") else name
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.DiscriminationError)}


def capture() -> dict:
    golden = {"seed": SEED, "streams": {}}
    for name, (inputs, call) in streams().items():
        golden["streams"][name] = summarize(inputs, run_stream(name, call, inputs))
    golden["unreached"] = UNREACHED
    return golden


def test_error_stream():
    golden = json.loads(PATH.read_text())
    assert golden["seed"] == SEED
    total = 0
    for name, (inputs, call) in streams().items():
        want = golden["streams"][name]
        total += len(inputs)
        outcomes = run_stream(name, call, inputs)
        now = summarize(inputs, outcomes)
        goldens.same(now["inputs_sha256"], want["inputs_sha256"], f"the {name} inputs")
        goldens.check_chunks(name, want["chunk_sha256"], outcomes,
                             lambda i: f"{input_text(inputs[i])} -> {outcomes[i]}")
        goldens.same(now, want, f"the {name} summary")
    cli = goldens.load("golden_cli_stream.json")
    assert total + sum(cli["exit_codes"].values()) >= 20000
    reached = set(cli["error_codes"])
    for stream in golden["streams"].values():
        reached |= {c[:-5] for c in stream["outcomes"] if c.endswith("Error")}
    assert golden["unreached"] == UNREACHED
    assert sorted(reached & _domain_codes()) == sorted(_domain_codes() - set(UNREACHED))


if __name__ == "__main__":
    PATH.write_text(json.dumps(capture(), indent=1) + "\n")
