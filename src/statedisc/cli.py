"""Command-line front end.

Subcommands: ``validate`` (rebuild a scheme and print its residuals),
``run`` (emit a scheme's success probabilities and confusion matrix),
``sweep`` (one builder parameter over a range), ``simulate`` (seeded
Monte-Carlo trials), ``compare`` (inequality sweeps with a verdict
summary), ``dump`` (full scheme JSON).

Exit codes: 0 success, 1 usage error, 2 domain error.  Domain errors
print a single machine-readable line ``error: <Code>: <message>``.
File output is atomic (temp file plus rename); ``-`` means stdout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile
from collections import Counter
from typing import Optional

import numpy as np

from . import serialize, tol
from .analysis import _compare_priors, compare_columns, simplex_size
from .errors import DiscriminationError, EmptyGridError
from .montecarlo import brute_force_success, simulate
from .schemes import SCHEME_KINDS, Scheme

#: Most (gamma, priors) points, and prior triples, one ``compare`` run may
#: hold.  Points are compared and written ``_BLOCK`` at a time, so this is a
#: time limit: about 5 us per point for CSV and 10 us for JSON on a 2-core
#: Xeon, or 1.5 and 3 minutes at the bound.  The one term still held whole
#: is the prior lattice, a float64 array of 24 B per triple (0.4 GB at 2^24).
MAX_COMPARE_POINTS = 2**24
#: Points ``compare`` compares, formats and writes at a time.
_BLOCK = 1 << 10


#: Every --<param> flag, first use first, with the type its builder takes,
#: which is its converter.
_INPUT_TYPES = {k: t for kind in SCHEME_KINDS.values() for k, t in kind.types.items()}

#: Every one-value flag with its converter and choices; a builder input is
#: kept under ``params``, and a config value for a ``str`` flag must be text.
_SCALAR_FLAGS = {
    **{key: (convert, None) for key, convert in _INPUT_TYPES.items()},
    "scheme": (str, tuple(SCHEME_KINDS)),
    "output": (str, None),
    "format": (str, ("csv", "json")),
    "n": (int, None),
    "seed": (int, None),
    "shards": (int, None),
    "theorem": (str, ("2.1", "3.1")),
    "prior_step": (float, None),
    "p2_min": (float, None),
}
#: The metavar of each flag whose value is text to parse.
_METAVARS = {"config": "PATH", "output": "PATH", "priors": "P0,P1[,P2]",
             "grid": "PARAM=MIN:MAX:STEP", "gamma_grid": "MIN:MAX:STEP"}
#: The flags each command reads; ``scheme`` stands for ``--scheme``, every
#: builder input, ``--priors`` and ``--allow-trivial``, narrowed by kind.
_COMMAND_FLAGS = {
    "validate": ("config", "scheme", "output"),
    "run": ("config", "scheme", "output", "format"),
    "dump": ("config", "scheme", "output"),
    "simulate": ("config", "scheme", "output", "format", "n", "seed", "shards"),
    "sweep": ("config", "scheme", "output", "format", "grid"),
    "compare": ("config", "output", "format", "theorem", "gamma_grid",
                "prior_step", "p2_min"),
}


class UsageError(Exception):
    """Bad flags, malformed values, missing required arguments."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag is read only as spelled in full
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _add_flag(parser: _Parser, key: str):
    convert, choices = _SCALAR_FLAGS.get(key, (str, None))
    parser.add_argument("--" + key.replace("_", "-"), metavar=_METAVARS.get(key),
                        type=None if convert is str else convert, choices=choices,
                        default=None)


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every command, or of ``command`` alone: it parses alike."""
    scheme = _Parser(add_help=False)
    for key in ("scheme", *_INPUT_TYPES, "priors"):
        _add_flag(scheme, key)
    scheme.add_argument("--allow-trivial", action="store_true", default=False)
    parser = _Parser(prog="statedisc", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in [command] if command else _COMMAND_FLAGS:
        flags = _COMMAND_FLAGS[name]
        cmd = sub.add_parser(name, parents=[scheme] if "scheme" in flags else [])
        for key in flags:
            if key != "scheme":
                _add_flag(cmd, key)
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    return data


def _not_bool(value):
    """A config value that is not a JSON boolean, which is never a number."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return value


def _config_value(key: str, value, convert, choices=None):
    """A config-file value read with its flag's converter and choices; a
    complex value may also be the ``[re, im]`` pair that ``dump`` writes,
    and a whole number a float such as ``1e3``, but never ``1.9``."""
    try:
        if convert is str and not isinstance(value, str):
            raise TypeError(f"{type(value).__name__} is not text")
        if convert is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if convert is int and type(value) not in (int, str):
            raise TypeError(f"{type(value).__name__} is not a whole number")
        if convert is complex and isinstance(value, list):
            value = serialize.complex_from_json(list(map(_not_bool, value)))
        value = convert(_not_bool(value))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"config {key}: bad value {value!r} ({exc})") from exc
    if choices is not None and value not in choices:
        raise UsageError(f"config {key}: {value!r} is not one of {choices}")
    return value


def _read_config(data: dict, flags) -> dict:
    """A loaded config, each value read the way its flag in ``flags`` reads
    it.  A null counts as absent; a flag the command lacks is not read, nor
    is ``params`` without the scheme flags or ``grid`` without a grid flag."""
    cfg = {k: v for k, v in data.items() if v is not None}
    params = cfg["params"] = (_config_value("params", cfg.get("params") or {}, dict)
                              if "scheme" in flags else {})
    for key, (convert, choices) in _SCALAR_FLAGS.items():
        where = params if key in _INPUT_TYPES else cfg
        if key in flags and where.get(key) is not None:
            where[key] = _config_value(key, where[key], convert, choices)
    if "priors" in flags and "priors" in cfg:
        cfg["priors"] = _config_value("priors", cfg["priors"], _parse_priors)
    grid = cfg.get("grid", {}) if {"grid", "gamma_grid"} & flags.keys() else {}
    if not isinstance(grid, dict):
        raise UsageError("config grid must be a JSON object")
    if "allow_trivial" in flags and not isinstance(cfg.get("allow_trivial", False), bool):
        raise UsageError("config allow_trivial must be true or false")
    return cfg


def _merge_config(args, loaded: dict) -> dict:
    """The optional config file and the flags in one request map; a flag
    wins over its value in the file, read unless ``loaded`` holds it."""
    path = args.config
    cfg = _read_config(loaded.get(path) or _load_config(path), vars(args)) if path else {}
    params = cfg.setdefault("params", {})
    for key in _SCALAR_FLAGS:
        val = getattr(args, key, None)
        if val is not None:
            (params if key in _INPUT_TYPES else cfg)[key] = val
    if getattr(args, "priors", None) is not None:
        cfg["priors"] = _parse_priors(args.priors)
    if getattr(args, "allow_trivial", False):
        cfg["allow_trivial"] = True
    if getattr(args, "grid", None) is not None:
        cfg.setdefault("grid", {}).update(_parse_grid_text(args.grid))
    if getattr(args, "gamma_grid", None) is not None:
        cfg.setdefault("grid", {})["gamma"] = _parse_range_text(args.gamma_grid)
    return cfg


def _parse_priors(value) -> list[float]:
    """Priors from ``--priors`` text, or a config file's text or list."""
    if isinstance(value, list):
        return [float(_not_bool(p)) for p in value]
    if not isinstance(value, str):
        raise TypeError(f"{type(value).__name__} is not text or a list")
    try:
        return [float(tok) for tok in value.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad priors {value!r}: comma-separated numbers") from exc


def _parse_range_text(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad range {text!r}: expected MIN:MAX:STEP")
    try:
        lo, hi, step = (float(t) for t in parts)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}") from exc
    return {"min": lo, "max": hi, "step": step}


def _parse_grid_text(text: str) -> dict:
    name, eq, rng = text.partition("=")
    if not eq:
        raise UsageError(f"bad grid {text!r}: expected PARAM=MIN:MAX:STEP")
    return {name.strip(): _parse_range_text(rng)}


def _range_spec(rng: dict, what: str) -> tuple[float, float, int]:
    """``(min, step, count)`` of a MIN:MAX:STEP grid, without listing it."""
    try:
        lo, hi, step = (float(_not_bool(rng[k])) for k in ("min", "max", "step"))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what} grid: need min, max, step") from exc
    if not all(np.isfinite((lo, hi, step))):
        raise UsageError(f"{what} grid bounds and step must be finite")
    if step <= 0.0:
        raise UsageError(f"{what} grid step must be positive")
    # (hi - lo) / step can overflow to an infinity of either sign.
    count = max(np.floor((hi - lo) / step + tol.GRID_STEPS) + 1, 0.0)
    if not count <= sys.maxsize:
        raise UsageError(f"{what} grid has too many values to list")
    return lo, step, int(count)


def _range_values(rng: dict, what: str):
    """Grid values one at a time, at most ``MAX_COMPARE_POINTS`` of them;
    ``min + k step`` is rounded to 12 decimals only to undo its roundoff."""
    lo, step, count = _range_spec(rng, what)
    if count > MAX_COMPARE_POINTS:
        raise UsageError(f"{what} grid has more than {MAX_COMPARE_POINTS} values")

    def value(k):
        v = lo + k * step
        r = round(v, 12)
        return r if abs(r - v) <= tol.GRID_ROUNDOFF * (abs(lo) + k * step) else v

    return map(value, range(count))


def _need(cfg: dict, key: str, command: str):
    if cfg.get(key) is None:
        raise UsageError(f"{command} requires --{key.replace('_', '-')}")
    return cfg[key]


def _need_priors(cfg: dict, count: int, scheme: str) -> list[float]:
    priors = _need(cfg, "priors", f"scheme {scheme}")
    if len(priors) != count:
        raise UsageError(f"scheme {scheme} takes {count} priors, got {len(priors)}")
    return priors


def _build_scheme(cfg: dict) -> Scheme:
    scheme = cfg.get("scheme")
    if scheme is None:
        raise UsageError("missing --scheme")
    kind = SCHEME_KINDS[scheme]  # the flag and the config reader check the name
    params = cfg["params"]  # a dump's params name their kind
    unread = [k for k in params
              if k not in kind.inputs and (k, params[k]) != ("kind", scheme)]
    if cfg.get("allow_trivial") and not kind.trivial:
        unread.append("allow_trivial")
    if unread:
        raise UsageError(f"scheme {scheme} takes no --{unread[0].replace('_', '-')}")
    priors = _need_priors(cfg, kind.n_priors, scheme)
    values = {k: _need(params, k, f"scheme {scheme}") for k in kind.inputs}
    return kind.build(values, priors, bool(cfg.get("allow_trivial", False)))


def _write_output(pieces, path: Optional[str]):
    """Write text pieces to stdout as they come, or atomically to ``path``."""
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
        return
    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".statedisc-")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as f:
            f.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write --output {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_validate(cfg: dict) -> int:
    scheme = _build_scheme(cfg)
    delta = abs(brute_force_success(scheme) - scheme.analytic_success)
    lines = [
        f"scheme: {cfg['scheme']}",
        f"unitarity_residual: {scheme.unitarity_residual:.3e}",
        f"povm_completeness_residual: {scheme.povm.completeness_residual:.3e}",
        f"pipeline_vs_analytic: {delta:.3e}",
        f"analytic_success: {serialize.format_float(scheme.analytic_success)}",
        "ok",
    ]
    _write_output(["\n".join(lines) + "\n"], cfg.get("output"))
    return 0


def _cmd_run(cfg: dict) -> int:
    scheme = _build_scheme(cfg)
    labels = [str(lab) for lab in scheme.povm.labels]
    conf = scheme.confusion.tolist()
    if cfg.get("format", "json") == "csv":
        lines = ["state," + ",".join(labels)]
        lines += [
            ",".join([str(i), *map(serialize.format_float, row)])
            for i, row in enumerate(conf)
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text({
            "scheme": cfg["scheme"],
            "params": serialize.params_to_json(scheme.params),
            "priors": [float(p) for p in scheme.ensemble.priors],
            "ancilla_dim": scheme.ancilla_dim,
            "analytic_success": scheme.analytic_success,
            "brute_force_success": brute_force_success(scheme),
            "branch_note": scheme.branch_note,
            "outcome_labels": labels,
            "confusion_matrix": conf,
        })
    _write_output([text], cfg.get("output"))
    return 0


def _cmd_dump(cfg: dict) -> int:
    scheme = _build_scheme(cfg)
    _write_output([_json_text(serialize.scheme_to_json(scheme))], cfg.get("output"))
    return 0


def _cmd_simulate(cfg: dict) -> int:
    scheme = _build_scheme(cfg)
    n = _need(cfg, "n", "simulate")
    result = simulate(scheme, n, cfg.get("seed", 0), shards=cfg.get("shards", 1))
    if cfg.get("format", "json") == "csv":
        lines = ["state,outcome,count"]
        lines += [f"{i},{x},{c}" for (i, x), c in np.ndenumerate(result.counts)]
        _write_output(["\n".join(lines) + "\n"], cfg.get("output"))
    else:
        _write_output([_json_text(serialize.sim_result_to_json(result))], cfg.get("output"))
    return 0


def _cmd_sweep(cfg: dict) -> int:
    scheme_id = _need(cfg, "scheme", "sweep")
    sweepable = {k: v.sweepable for k, v in SCHEME_KINDS.items() if v.sweepable}
    if scheme_id not in sweepable:
        raise UsageError(f"sweep supports {sorted(sweepable)}; got {scheme_id!r}")
    grid = cfg.get("grid") or {}
    if len(grid) != 1:
        raise UsageError("sweep requires exactly one --grid PARAM=MIN:MAX:STEP")
    (param, rng), = grid.items()
    if param not in sweepable[scheme_id]:
        raise UsageError(
            f"scheme {scheme_id} sweeps over {sweepable[scheme_id]}, not {param!r}"
        )
    if param in cfg["params"]:
        raise UsageError(f"sweep over {param} takes no --{param}")
    values = _range_values(rng, param)
    if not _range_spec(rng, param)[2]:  # before anything is written
        raise UsageError(f"empty {param} grid")
    priors = _need_priors(cfg, SCHEME_KINDS[scheme_id].n_priors, scheme_id)
    if cfg.get("format", "csv") == "json":  # the bytes of json.dumps(rows, indent=2)
        first, sep, end, empty = "[\n", ",\n", "\n]\n", "[]\n"

        def text(v, a, b):
            return json.dumps([{"param": param, "value": v, "priors": priors,
                                "analytic_success": a, "brute_force_success": b}],
                              indent=2)[2:-2]
    else:
        first = f"{param},p0,p1,p2,analytic_success,brute_force_success\n"
        sep, end, empty = "", "", first

        def text(v, a, b):
            return ",".join(map(serialize.format_float, (v, *priors, a, b))) + "\n"
    tally = Counter()

    def pieces():  # each row as its point is built; the header goes with the first
        lead = first
        for v in values:
            try:
                scheme = _build_scheme({**cfg, "params": {**cfg["params"], param: v}})
            except DiscriminationError:
                tally["skipped"] += 1
                continue
            tally["points"] += 1
            yield lead + text(v, scheme.analytic_success, brute_force_success(scheme))
            lead = sep
        yield end if tally["points"] else empty

    _write_output(pieces(), cfg.get("output"))
    print(f"points: {tally['points']}  skipped: {tally['skipped']}", file=sys.stderr)
    return 0


def _compare_blocks(theorem: str, gammas, rows: np.ndarray):
    """The comparison of ``gammas x rows``, gamma-major, ``_BLOCK`` points at
    a time; a block ends inside a gamma's row when ``rows`` is longer."""
    per_block, width = max(1, _BLOCK // len(rows)), min(len(rows), _BLOCK)
    while chunk := list(itertools.islice(gammas, per_block)):
        for j in range(0, len(rows), width):
            yield compare_columns(theorem, chunk, rows[j : j + width])


def _cmd_compare(cfg: dict) -> int:
    theorem = _need(cfg, "theorem", "compare")
    grid = cfg.get("grid") or {}
    unread = [key for key in grid if key != "gamma"]
    if unread:
        raise UsageError(f"compare takes no grid {unread[0]}")
    if "gamma" not in grid:
        raise UsageError("compare requires --gamma-grid MIN:MAX:STEP")
    n_gammas = _range_spec(grid["gamma"], "gamma")[2]
    prior_step = cfg.get("prior_step", 0.05)
    p2_min = cfg.get("p2_min", 1.0 / 3.0 if theorem == "2.1" else 0.0)

    # Both sizes are counted before their arrays are built.
    if simplex_size(prior_step) > MAX_COMPARE_POINTS:
        raise UsageError(
            f"prior step {prior_step!r} gives more than {MAX_COMPARE_POINTS} "
            "prior triples"
        )
    rows = _compare_priors(theorem, prior_step)
    rows = rows[rows[:, 2] >= p2_min - tol.BOUNDARY]
    if not len(rows):
        raise UsageError(f"no prior triples with p2 >= {p2_min}")

    if n_gammas * len(rows) > MAX_COMPARE_POINTS:
        raise UsageError(
            f"{n_gammas} gammas x {len(rows)} prior triples is more "
            f"than {MAX_COMPARE_POINTS} points"
        )
    if not n_gammas:
        raise EmptyGridError("empty parameter grid")
    gammas = _range_values(grid["gamma"], "gamma")

    points = failures = 0
    min_margin = np.inf
    skip_counts = Counter()

    def tables():  # each block's compared points, summed into the summary
        nonlocal points, failures, min_margin
        for block in _compare_blocks(theorem, gammas, rows):
            table = block.select(block.code == 0)
            points += len(table)
            failures += int(np.count_nonzero(~table.verdict))
            min_margin = min(min_margin, table.margin.min(initial=np.inf))
            skip_counts.update(block.skip_counts())
            yield table

    if cfg.get("format", "csv") == "json":
        _write_output(serialize.comparison_json_pieces(tables()), cfg.get("output"))
    else:
        _write_output(serialize.comparison_csv_pieces(tables()), cfg.get("output"))
    min_margin = serialize.format_float(min_margin) if points else "n/a"
    summary = (
        f"points: {points}  failures: {failures}  "
        f"min margin: {min_margin}  skipped: {sum(skip_counts.values())}"
    )
    if skip_counts:
        codes = sorted(skip_counts.items())
        summary += " (" + ", ".join(f"{c}: {n}" for c, n in codes) + ")"
    print(summary, file=sys.stderr)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "dump": _cmd_dump,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def _command_from_config(argv: list[str]) -> tuple[list[str], dict]:
    """Allow ``statedisc --config FILE``: the file's command, and ``{FILE: data}``."""
    if argv[:1] == ["--config"] and len(argv) >= 2:
        path = argv[1]
    elif argv and argv[0].startswith("--config="):
        path = argv[0][len("--config=") :]
    else:
        return argv, {}
    data = _load_config(path)
    if not data.get("command"):
        raise UsageError("config file names no command and none was given")
    return [str(data["command"])] + argv, {path: data}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, loaded = _command_from_config(argv)
        command = argv[0] if argv and argv[0] in _COMMAND_FLAGS else None
        args = _build_parser(command).parse_args(argv)
        if args.command is None:
            raise UsageError("missing command; see --help")
        cfg = _merge_config(args, loaded)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DiscriminationError as exc:
        message = " ".join(str(exc).split())
        print(f"error: {exc.code}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
