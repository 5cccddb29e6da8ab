"""Exit codes and output bytes of ``cli.main`` over a seeded argv stream.

``golden_cli_stream.json`` was captured from the package while every
subcommand still shared one parser holding every flag, and is never
re-captured.  The stream below holds 1,536 seeded argv, 256 for each of
the six subcommands in turn.  Each argv passes only flags its command and
scheme kind read, spelled in full, with in-domain values mixed with wild
ones: NaN, +-inf, huge and subnormal numbers, values outside each window,
a wrong prior count, complex text for a real flag, and text that is no
number at all.  Half the scheme argv start from inputs near one that
builds, so that the flags read after the build are reached too.  A
required flag is sometimes left out.

Per argv the outcome is the exit code and the sha256 of stdout and of
stderr.  The file pins one sha256 over the argv of the whole stream, one
digest of the outcomes of each chunk of 256 argv, the count of each exit
code, and the count of each ``error: <Code>`` line.

Write the file with ``PYTHONPATH=src python3 tests/test_golden_cli_stream.py``.
"""
import json
import random
from collections import Counter

import goldens

from statedisc.schemes import SCHEME_KINDS

PATH = goldens.HERE / "golden_cli_stream.json"
SEED = 2026
PER_COMMAND = 256
#: Wild text for any number flag.
WILD_REAL = ["nan", "NaN", "inf", "-inf", "Infinity", "1e308", "-1e308", "1e999",
             "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-320", "2", "-3",
             "1.0000000000000002", "-0.9999999999999999", "0.5+0j", "1j", "abc",
             "", " 0.5 ", "1_0", "0x10", "1e-16", "-0.0"]
WILD_COMPLEX = ["nan+nanj", "inf", "(0.3+0.4j)", "0.3 + 0.4j", "1e308+1e308j",
                "5e-324j", "-0.6-0.8j", "(1+0j)", "j", "0.99999999999999+0j"]
WILD_INT = ["0", "-1", "1e3", "nan", "18446744073709551616", "18446744073709551615",
            "1.5", "", "0x10", "1_000", " 7 ", "99999999999999999999999"]
ACTIONS = ("validate", "run", "dump", "simulate", "sweep", "compare")


def _near(rng: random.Random, kind: str) -> dict:
    """Inputs near one that builds, from which a wild value may stand out."""
    values = goldens.near_values(rng, kind)
    centre = (0.6, 0.4) if SCHEME_KINDS[kind].n_priors == 2 else (0.3, 0.3, 0.4)
    raw = [rng.uniform(0.6, 1.4) * p for p in centre]
    text = {k: repr(v) for k, v in values.items()}
    text["priors"] = ",".join(repr(p / sum(raw)) for p in raw)
    if rng.random() < 0.2:
        key = rng.choice(sorted(text))
        text[key] = rng.choice(WILD_REAL + WILD_COMPLEX)
    return text


def _real(rng: random.Random, lo: float, hi: float) -> str:
    roll = rng.random()
    if roll < 0.2:
        return rng.choice(WILD_REAL)
    if roll < 0.3:
        return repr(rng.choice((lo, hi, 0.0, 0.5, 2 ** -0.5, -(2 ** -0.5))))
    if roll < 0.4:
        return f"{rng.uniform(lo, hi):.2f}"
    return repr(rng.uniform(lo, hi))


def _complex(rng: random.Random, radius: float) -> str:
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(WILD_COMPLEX + WILD_REAL)
    r, t = rng.uniform(0, radius), rng.uniform(-3.2, 3.2)
    if roll < 0.4:
        return repr(r * rng.choice((-1.0, 1.0)))
    z = complex(r * (1 - t * t / 2), r * t / 3)
    return repr(z) if roll < 0.8 else f"{z.real:.3f}{z.imag:+.3f}j"


def _input(rng: random.Random, key: str) -> str:
    if goldens.INPUT_TYPES[key] is complex:
        return _complex(rng, 1.2 if key.startswith("c_") else 0.5)
    lo, hi = {"gamma": (-1.0, 1.0), "alpha": (-1.0, 1.0), "x0": (-0.2, 1.2),
              "x1": (-0.2, 1.2), "overlap": (-1.1, 1.1)}[key]
    return _real(rng, lo, hi)


def _priors(rng: random.Random, count: int) -> str:
    roll = rng.random()
    if roll < 0.08:
        count += rng.choice((-1, 1))
    raw = [rng.random() + 1e-9 for _ in range(max(count, 1))]
    priors = [repr(p / sum(raw)) for p in raw]
    if roll < 0.2 and count > 0:
        priors[rng.randrange(len(priors))] = rng.choice(WILD_REAL + ["-0.1", "1"])
    elif roll < 0.4:
        priors = [f"{float(p):.2f}" for p in priors]
    return ",".join(priors)


def _int(rng: random.Random, lo: int, hi: int) -> str:
    return rng.choice(WILD_INT) if rng.random() < 0.15 else str(rng.randint(lo, hi))


def _range(rng: random.Random, lo: float, hi: float, most: int) -> str:
    if rng.random() < 0.15:
        parts = [_real(rng, lo, hi) for _ in range(3)]
        return ":".join(parts[: rng.choice((1, 2, 3, 3, 3))])
    start = rng.uniform(lo, hi)
    step = rng.choice((0.05, 0.1, 0.125, 0.2, 1e-3, 0.5))
    stop = start + step * rng.randint(-1, most - 1)
    return f"{start:.3f}:{stop:.3f}:{step!r}"


def _flag(argv: list, key: str, value: str, rng: random.Random):
    name = "--" + key.replace("_", "-")
    if rng.random() < 0.15 or value.startswith("-"):
        argv.append(f"{name}={value}")
    else:
        argv += [name, value]


def _scheme_flags(rng: random.Random, argv: list, kind: str, skip=()):
    spec = SCHEME_KINDS[kind]
    if rng.random() < 0.5:
        near = _near(rng, kind)
        optional = [(k, v) for k, v in near.items() if k not in skip]
    else:
        optional = [("priors", _priors(rng, spec.n_priors))]
        optional += [(k, _input(rng, k)) for k in spec.inputs if k not in skip]
    rng.shuffle(optional)
    if rng.random() < 0.08:
        optional.pop()  # leave a required flag out
    for key, value in optional:
        _flag(argv, key, value, rng)
    if spec.trivial and rng.random() < 0.3:
        argv.append("--allow-trivial")


def make_argv(rng: random.Random, command: str) -> list:
    argv = [command]
    if command == "compare":
        theorem = rng.choice(("2.1", "3.1", "2.1", "3.1", "2.2"))
        _flag(argv, "theorem", theorem, rng)
        _flag(argv, "gamma_grid", _range(rng, -0.1, 1.0, 4), rng)
        if rng.random() < 0.8:
            step = rng.choice(("0.5", "0.25", "0.2", "0.125", "0.1", "0.3", "0",
                               "1e-300", "nan", "-0.5", "1", "5e-324"))
            _flag(argv, "prior_step", step, rng)
        if rng.random() < 0.4:
            _flag(argv, "p2_min", _real(rng, -0.1, 1.0), rng)
    elif command == "sweep":
        sweepable = [k for k, v in SCHEME_KINDS.items() if v.sweepable]
        kind = rng.choice(sweepable * 4 + list(SCHEME_KINDS))
        _flag(argv, "scheme", kind, rng)
        params = SCHEME_KINDS[kind].sweepable or SCHEME_KINDS[kind].inputs
        param = rng.choice(params) if rng.random() < 0.92 else "alpha"
        _scheme_flags(rng, argv, kind, skip=(param,))
        _flag(argv, "grid", f"{param}={_range(rng, -1.0, 1.0, 4)}", rng)
    else:
        kind = rng.choice(list(SCHEME_KINDS)) if rng.random() < 0.97 else "mixed"
        _flag(argv, "scheme", kind, rng)
        _scheme_flags(rng, argv, kind if kind in SCHEME_KINDS else "mixed-special")
        if command == "simulate":
            _flag(argv, "n", _int(rng, 1, 500), rng)
            if rng.random() < 0.7:
                _flag(argv, "seed", _int(rng, 0, 2**64 - 1), rng)
            if rng.random() < 0.4:
                _flag(argv, "shards", _int(rng, 1, 5), rng)
    if command not in ("validate", "dump") and rng.random() < 0.3:
        _flag(argv, "format", rng.choice(("csv", "json", "json", "xml")), rng)
    if rng.random() < 0.05:
        _flag(argv, "output", "-", rng)
    return argv


def stream() -> list:
    rng = random.Random(SEED)
    return [make_argv(rng, command)
            for _ in range(PER_COMMAND) for command in ACTIONS]


def summarize(argvs: list, results: list) -> dict:
    """The file's summary of ``argvs`` and their ``goldens.run`` results."""
    codes = Counter(str(code) for code, _, _ in results)
    errors = Counter(err.split(":")[1].strip() for code, _, err in results if code == 2)
    return {
        "seed": SEED,
        "argv_sha256": goldens.sha(json.dumps(argvs)),
        "chunk_sha256": goldens.chunk_sha256(_pinned(results)),
        "exit_codes": dict(sorted(codes.items())),
        "error_codes": dict(sorted(errors.items())),
    }


def _pinned(results: list) -> list:
    """Each result as the file pins it: exit code, stdout and stderr sha256."""
    return [(code, goldens.sha(out), goldens.sha(err)) for code, out, err in results]


def test_cli_stream():
    golden = goldens.load(PATH.name)
    argvs = stream()
    assert len(argvs) >= 1500
    goldens.same(goldens.sha(json.dumps(argvs)), golden["argv_sha256"], "the argv stream")
    results = [goldens.run(argv) for argv in argvs]
    goldens.check_chunks("the CLI stream", golden["chunk_sha256"], _pinned(results),
                         lambda i: f"{argvs[i]} -> {results[i][0]} {results[i][2]!r}")
    goldens.same(summarize(argvs, results), golden, "the CLI stream summary")


if __name__ == "__main__":
    argvs = stream()
    PATH.write_text(json.dumps(summarize(argvs, [goldens.run(a) for a in argvs]), indent=1)
                    + "\n")
