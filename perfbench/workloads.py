"""The four benchmark workloads and their output checks.

Each workload is a closed loop with one client: a repetition runs its
CLI commands one subprocess at a time and its library calls one after
another.  Inputs and reference outputs come from ``reference/*.json``
(written once by ``capture.py`` from the seed code); the workload seed
selects the variant or the order of the inputs.

A repetition returns a dict with at least ``wall`` (seconds).  Library
and CLI work happens first; checks against the references come after
the timed part and, in a traced run, after the span snapshot.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import re
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from statedisc import analysis, cli, measurement, montecarlo, schemes, serialize, states
from statedisc.errors import DiscriminationError

# Pipeline values agree with the reference to the package's own
# closed-form-versus-pipeline tolerance (schemes.TOL_PIPELINE).
TOL = 1e-9
# Criterion 05: the symmetric grid oracle stays within 1e-3 of the
# piecewise maximum.
ORACLE_GRID_TOL = 1e-3
UNAMBIGUOUS_KINDS = ("rra", "unambiguous-special")
CLI_TIMEOUT_S = 170

COMPARE_SUMMARY = re.compile(
    r"points: (\d+)\s+failures: (\d+)\s+min margin: \S+\s+skipped: (\d+)"
)
SWEEP_SUMMARY = re.compile(r"points: (\d+)\s+skipped: (\d+)")


def load_reference(bench_dir: Path, name: str, smoke: bool):
    with open(bench_dir / "reference" / f"{name}.json", encoding="utf-8") as f:
        return json.load(f)["smoke" if smoke else "full"]


# -- accounting --------------------------------------------------------------
@dataclass
class Accounting:
    """Operations attempted, completed, rejected per error code, and failed.

    An operation is one distinct input or CLI command of the run, named by
    an id.  A run executes an operation once per repetition that reaches it
    and checks every execution; the operation counts as failed if any
    execution failed.  So ``attempted`` and ``failed`` depend on the inputs
    only, not on how many repetitions fit in the run's time.

    A failure on a non-finite input is kept apart: the seed code has known
    defects there (ROADMAP item 5), so they count as failed without making
    the run's outputs incorrect.
    """

    executions: int = 0
    ops: dict = field(default_factory=dict)  # id -> (nonfinite, set of outcomes)

    def _record(self, op: str, outcome: str, nonfinite: bool):
        self.executions += 1
        self.ops.setdefault(op, (nonfinite, set()))[1].add(outcome)

    def complete(self, op: str):
        self._record(op, "ok", False)

    def reject(self, op: str, code: str):
        self._record(op, "reject:" + code, False)

    def fail(self, op: str, reason: str, nonfinite: bool = False):
        self._record(op, "fail:" + ("nonfinite:" if nonfinite else "") + reason, nonfinite)

    def _count_failed(self, nonfinite: Optional[bool] = None) -> int:
        return sum(
            1 for nf, outs in self.ops.values()
            if any(o.startswith("fail:") for o in outs)
            and (nonfinite is None or nf == nonfinite)
        )

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return self._count_failed()

    @property
    def failed_finite(self) -> int:
        return self._count_failed(False)

    def as_dict(self) -> dict:
        rejected, failures, completed = {}, {}, 0
        for _, outs in self.ops.values():
            fails = sorted(o[5:] for o in outs if o.startswith("fail:"))
            for reason in fails:
                failures[reason] = failures.get(reason, 0) + 1
            if fails:
                continue
            codes = sorted(o[7:] for o in outs if o.startswith("reject:"))
            for code in codes:
                rejected[code] = rejected.get(code, 0) + 1
            completed += not codes
        return {
            "attempted": self.attempted,
            "executions": self.executions,
            "completed": completed,
            "rejected": dict(sorted(rejected.items())),
            "failed": self.failed,
            "failed_finite": self.failed_finite,
            "failed_nonfinite": self._count_failed(True),
            "failures": dict(sorted(failures.items())),
        }


# -- CLI runs ----------------------------------------------------------------
@dataclass
class Context:
    root: Path
    env: dict
    tracer: Optional[object] = None  # set while a traced repetition runs

    def snapshot(self):
        return self.tracer.snapshot() if self.tracer is not None else None


@dataclass
class CliRun:
    wall: float
    rc: Optional[int]
    out: bytes
    err: str


def run_cli(ctx: Context, argv) -> CliRun:
    """One CLI command: a subprocess, or ``cli.main`` in-process when traced."""
    if ctx.tracer is not None:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except Exception:  # a traceback is a failed operation
                traceback.print_exc()
                rc = None
        return CliRun(perf_counter() - t0, rc, out.getvalue().encode(), err.getvalue())
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "statedisc", *argv],
        capture_output=True,
        env=ctx.env,
        cwd=ctx.root,
        timeout=CLI_TIMEOUT_S,
    )
    return CliRun(
        perf_counter() - t0, proc.returncode, proc.stdout,
        proc.stderr.decode("utf-8", "replace"),
    )


def check_exit(acct: Accounting, op: str, run: CliRun) -> bool:
    if "Traceback" in run.err:
        acct.fail(op, "traceback")
        return False
    if run.rc != 0:
        acct.fail(op, f"exit_code_{run.rc}")
        return False
    return True


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- compare-grid ------------------------------------------------------------
def cli_gamma_values(lo: float, hi: float, step: float) -> list[float]:
    """The gamma grid as ``compare`` expands ``--gamma-grid lo:hi:step``."""
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return [round(lo + k * step, 12) for k in range(max(count, 0))]


def cli_prior_triples(theorem: str, prior_step: float) -> list[tuple]:
    """The prior triples ``compare`` sweeps, with its default ``--p2-min``."""
    triples = analysis.simplex_grid(prior_step)
    if theorem == "3.1":
        triples = sorted(set(tuple(sorted(p)) for p in triples))
    p2_min = 1.0 / 3.0 if theorem == "2.1" else 0.0
    return [p for p in triples if p[2] >= p2_min - 1e-12]


class CompareGrid:
    """CLI ``compare``: theorem 2.1 on the dense grid (CSV), then 3.1 (JSON)."""

    name = "compare-grid"
    in_process = False
    warmup_code = ""
    min_reps = 1

    def __init__(self, ctx: Context, seed: int, ref):
        self.variant = seed % len(ref)
        self.commands = ref[self.variant]["commands"]

    def rep(self, ctx: Context, acct: Accounting) -> dict:
        t0 = perf_counter()
        runs = [run_cli(ctx, cmd["argv"]) for cmd in self.commands]
        wall = perf_counter() - t0
        snap = ctx.snapshot()
        points = 0
        for cmd, run in zip(self.commands, runs):
            points += cmd["points"] + cmd["skipped"]
            op = cmd["label"]
            if not check_exit(acct, op, run):
                continue
            if sha256(run.out) != cmd["sha256"]:
                acct.fail(op, "output_mismatch")
                continue
            text = run.out.decode()
            if cmd["format"] == "csv":
                rows = text.count("\n") - 1
                false_verdicts = text.count(",false\n")
            else:
                rows = text.count('"verdict":')
                false_verdicts = text.count('"verdict": false')
            m = COMPARE_SUMMARY.search(run.err)
            summary = tuple(int(x) for x in m.groups()) if m else None
            expected = (cmd["points"], cmd["failures"], cmd["skipped"])
            if summary != expected or (rows, false_verdicts) != expected[:2]:
                acct.fail(op, "summary_mismatch")
                continue
            acct.complete(op)
        return {
            "wall": wall,
            "snapshot": snap,
            "points": points,
            "commands": len(runs),
            "cmd_walls": {c["label"]: r.wall for c, r in zip(self.commands, runs)},
            "stdout_bytes": sum(len(r.out) for r in runs),
        }

    def supplement(self, ctx: Context):
        """Direct calls of the checks ``sweep`` reaches through its private table."""
        check = {"2.1": analysis.theorem21_check, "3.1": analysis.theorem31_check}
        for cmd in self.commands:
            fn = check[cmd["theorem"]]
            triples = cli_prior_triples(cmd["theorem"], cmd["prior_step"])
            for g in cli_gamma_values(*cmd["gamma_grid"]):
                for p in triples:
                    try:
                        fn(g, p)
                    except DiscriminationError:
                        pass


# -- build-verify ------------------------------------------------------------
def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def build(kind: str, a: dict):
    """Call the builder for ``kind`` on the stored inputs."""
    if kind == "rra":
        ov = a["overlap"]
        c, s = math.sqrt((1.0 + ov) / 2.0), math.sqrt((1.0 - ov) / 2.0)
        return schemes.build_rra(
            states.Ket(np.array([c, s])), states.Ket(np.array([c, -s])),
            a["priors"], a["c_plus"], a["c_minus"],
        )
    if kind == "mixed-special":
        return schemes.build_mixed_special(a["gamma"], a["priors"])
    if kind == "mixed-general":
        return schemes.build_mixed_general(a["gamma"], a["alpha"], a["priors"])
    if kind == "unambiguous-special":
        return schemes.build_unambiguous_special(
            a["gamma"], a["x0"], a["x1"], a["priors"]
        )
    if kind == "zero-aux":
        return schemes.build_zero_aux(
            _cx(a["g01"]), _cx(a["g12"]), _cx(a["g20"]), a["priors"]
        )
    raise ValueError(f"unknown kind {kind!r}")


def round_trip(kind: str, a: dict) -> tuple:
    """Build, verify through the operator pipeline, write JSON text, reload."""
    s = build(kind, a)
    brute = montecarlo.brute_force_success(s)
    conf = schemes.scheme_confusion(s)
    unamb = None
    if kind in UNAMBIGUOUS_KINDS:
        unamb = measurement.unambiguity_check(schemes.coupled_ensemble(s), s.povm)
    text = json.dumps(serialize.scheme_to_json(s))
    reloaded = serialize.scheme_from_json(json.loads(text))
    return s, brute, conf, unamb, reloaded


def round_trip_values(result: tuple) -> dict:
    """The checked values of a round trip (reloaded brute force included)."""
    s, brute, conf, unamb, reloaded = result
    return {
        "analytic": float(s.analytic_success),
        "brute": float(brute),
        "confusion": [[float(x) for x in row] for row in conf],
        "unambiguity": None if unamb is None else [bool(unamb[0]), float(unamb[1])],
        "reload_analytic": float(reloaded.analytic_success),
        "reload_brute": float(montecarlo.brute_force_success(reloaded)),
    }


def values_match(got: dict, ref: dict) -> bool:
    for key in ("analytic", "brute", "reload_analytic", "reload_brute"):
        if not abs(got[key] - ref[key]) <= TOL:
            return False
    a, b = np.array(got["confusion"]), np.array(ref["confusion"])
    if a.shape != b.shape or not np.all(np.abs(a - b) <= TOL):
        return False
    if (got["unambiguity"] is None) != (ref["unambiguity"] is None):
        return False
    if got["unambiguity"] is not None:
        ok, cross = got["unambiguity"]
        if ok != ref["unambiguity"][0] or not abs(cross - ref["unambiguity"][1]) <= TOL:
            return False
    return True


def pipeline_gap(values: dict) -> float:
    return max(
        abs(values["brute"] - values["analytic"]),
        abs(values["reload_brute"] - values["reload_analytic"]),
    )


BUILD_WARMUP = """
import json
import numpy as np
from statedisc import (Ket, brute_force_success, build_mixed_general,
    build_mixed_special, build_rra, build_unambiguous_special, build_zero_aux,
    scheme_confusion)
from statedisc.serialize import scheme_from_json, scheme_to_json
p = (0.3, 0.3, 0.4)
for s in (build_mixed_special(0.5, p), build_mixed_general(0.5, 0.2, p),
          build_unambiguous_special(0.5, 0.6, 0.6, p),
          build_zero_aux(0.06, 0.3, 0.2, p),
          build_rra(Ket(np.array([0.8, 0.6])), Ket(np.array([0.8, -0.6])),
                    (0.5, 0.5), 0.7, 0.4)):
    brute_force_success(s)
    scheme_confusion(s)
    scheme_from_json(json.loads(json.dumps(scheme_to_json(s))))
"""


class BuildVerify:
    """Seeded in-process stream over the five builders, plus one CLI sweep."""

    name = "build-verify"
    in_process = True
    warmup_code = BUILD_WARMUP

    def __init__(self, ctx: Context, seed: int, ref):
        rng = np.random.default_rng(seed)
        blocks = [
            [{**item, "id": f"{item['kind']}:{b}:{i}"} for i, item in enumerate(block)]
            for b, block in enumerate(ref["blocks"])
        ]
        self.blocks = [
            [blocks[b][i] for i in rng.permutation(len(blocks[b]))]
            for b in rng.permutation(len(blocks))
        ]
        self.blocks_per_rep = ref["blocks_per_rep"]
        # Every input is reached at least once, so attempted and failed
        # are the same in every run.
        self.min_reps = -(-len(blocks) // self.blocks_per_rep)
        self.variant = seed % len(ref["sweeps"])
        self.sweep = ref["sweeps"][self.variant]
        self.next_block = 0

    def rep(self, ctx: Context, acct: Accounting) -> dict:
        items = []
        for _ in range(self.blocks_per_rep):
            items.extend(self.blocks[self.next_block % len(self.blocks)])
            self.next_block += 1
        outcomes = []
        t0 = perf_counter()
        for item in items:
            t = perf_counter()
            try:
                if item["expect"] == "ok":
                    out = round_trip(item["kind"], item["args"])
                else:
                    out = build(item["kind"], item["args"])
                exc = None
            except Exception as e:  # classified below; the stream keeps going
                out, exc = None, e
            outcomes.append((item, out, exc, perf_counter() - t))
        stream_s = perf_counter() - t0
        sweep_run = run_cli(ctx, self.sweep["argv"])
        wall = perf_counter() - t0
        snap = ctx.snapshot()

        item_times, gaps = [], []
        for item, out, exc, dt in outcomes:
            op, nonfinite = item["id"], item["nonfinite"]
            if exc is not None:
                if not isinstance(exc, DiscriminationError):
                    acct.fail(op, type(exc).__name__, nonfinite)
                elif exc.code == "InvariantViolation":
                    acct.fail(op, "InvariantViolation", nonfinite)
                elif item["expect"] == "ok":
                    acct.fail(op, f"unexpected_rejection:{exc.code}", nonfinite)
                else:
                    acct.reject(op, exc.code)
                continue
            if item["expect"] != "ok":
                acct.fail(op, "accepted_out_of_domain", nonfinite)
                continue
            values = round_trip_values(out)
            if not values_match(values, item["ref"]):
                acct.fail(op, "reference_mismatch", nonfinite)
                continue
            acct.complete(op)
            item_times.append(dt)
            gaps.append(pipeline_gap(values))
        self._check_sweep(acct, sweep_run)
        return {
            "wall": wall,
            "snapshot": snap,
            "stream_s": stream_s,
            "completed": len(item_times),
            "item_times": item_times,
            "gaps": gaps,
            "commands": 1,
            "cmd_walls": {self.sweep["label"]: sweep_run.wall},
            "stdout_bytes": len(sweep_run.out),
        }

    def _check_sweep(self, acct: Accounting, run: CliRun):
        """Analytic columns must match exactly, the brute-force column to TOL."""
        op = self.sweep["label"]
        if not check_exit(acct, op, run):
            return
        ref = self.sweep
        lines = run.out.decode().splitlines()
        m = SWEEP_SUMMARY.search(run.err)
        summary = tuple(int(x) for x in m.groups()) if m else None
        if summary != (ref["points"], ref["skipped"]) or len(lines) != len(ref["rows"]):
            acct.fail(op, "summary_mismatch")
            return
        for got, want in zip(lines, ref["rows"]):
            g_head, _, g_brute = got.rpartition(",")
            w_head, _, w_brute = want.rpartition(",")
            if g_head != w_head or not (
                w_brute == g_brute or abs(float(g_brute) - float(w_brute)) <= TOL
            ):
                acct.fail(op, "output_mismatch")
                return
        acct.complete(op)


# -- simulate ----------------------------------------------------------------
class Simulate:
    """CLI ``simulate`` on mixed-special and zero-aux, plus one sharded run."""

    name = "simulate"
    in_process = False
    warmup_code = ""
    min_reps = 1

    def __init__(self, ctx: Context, seed: int, ref):
        self.variant = seed % len(ref)
        self.commands = ref[self.variant]["commands"]

    def rep(self, ctx: Context, acct: Accounting) -> dict:
        t0 = perf_counter()
        runs = [run_cli(ctx, cmd["argv"]) for cmd in self.commands]
        wall = perf_counter() - t0
        snap = ctx.snapshot()
        for cmd, run in zip(self.commands, runs):
            op = cmd["label"]
            if not check_exit(acct, op, run):
                continue
            if sha256(run.out) != cmd["sha256"]:
                acct.fail(op, "output_mismatch")
                continue
            acct.complete(op)
        return {
            "wall": wall,
            "snapshot": snap,
            "trials": sum(cmd["n"] for cmd in self.commands),
            "commands": len(runs),
            "cmd_walls": {c["label"]: r.wall for c, r in zip(self.commands, runs)},
            "stdout_bytes": sum(len(r.out) for r in runs),
        }


# -- oracle ------------------------------------------------------------------
ORACLE_WARMUP = """
from statedisc import (max_unambiguous_symmetric_grid,
    optimize_unambiguous_special, xu_max_unambiguous)
p = (0.2, 0.3, 0.5)
xu_max_unambiguous(0.5, p)
max_unambiguous_symmetric_grid(0.5, p, step=1e-3, refine=True)
optimize_unambiguous_special(0.4, p, grid_step=1e-3)
"""


class Oracle:
    """Both grid oracles at criterion-05 settings, one stratified point each."""

    name = "oracle"
    in_process = True
    warmup_code = ORACLE_WARMUP
    min_reps = 1

    def __init__(self, ctx: Context, seed: int, ref):
        rng = np.random.default_rng(seed)
        # One point per stratum per repetition keeps the work per repetition
        # level: the optimizer's guard grid shrinks as gamma grows.
        strata = [
            [{**pt, "id": f"oracle:{k}:{i}"} for i, pt in enumerate(s)]
            for k, s in enumerate(ref["strata"])
        ]
        self.strata = [[s[i] for i in rng.permutation(len(s))] for s in strata]
        self.next_index = int(rng.integers(len(self.strata[0])))

    def rep(self, ctx: Context, acct: Accounting) -> dict:
        points = [s[self.next_index % len(s)] for s in self.strata]
        self.next_index += 1
        outcomes = []
        t0 = perf_counter()
        for pt in points:
            t = perf_counter()
            try:
                xu = schemes.xu_max_unambiguous(pt["gamma"], pt["priors"])
                grid = analysis.max_unambiguous_symmetric_grid(
                    pt["gamma"], pt["priors"], step=1e-3, refine=True
                )
                opt = analysis.optimize_unambiguous_special(
                    pt["gamma_t21"], pt["priors"], grid_step=1e-3
                )
                out, exc = (xu, grid, opt), None
            except Exception as e:  # classified below
                out, exc = None, e
            outcomes.append((pt, out, exc, perf_counter() - t))
        wall = perf_counter() - t0
        snap = ctx.snapshot()

        item_times, gaps = [], []
        for pt, out, exc, dt in outcomes:
            if exc is not None:
                code = exc.code if isinstance(exc, DiscriminationError) else None
                acct.fail(pt["id"], code or type(exc).__name__)
                continue
            xu, grid, opt = out
            ref = pt["ref"]
            if not (
                xu.case == ref["xu_case"]
                and abs(xu.value - ref["xu_value"]) <= TOL
                and abs(grid - ref["xu_value"]) <= ORACLE_GRID_TOL
                and abs(opt.value - ref["opt_value"]) <= TOL
            ):
                acct.fail(pt["id"], "reference_mismatch")
                continue
            acct.complete(pt["id"])
            item_times.append(dt)
            gaps.append(abs(xu.value - grid))
        return {
            "wall": wall,
            "snapshot": snap,
            "checks": 2 * len(item_times),
            "item_times": item_times,
            "gaps": gaps,
            "commands": 0,
            "cmd_walls": {},
            "stdout_bytes": 0,
        }


WORKLOADS = {w.name: w for w in (CompareGrid, BuildVerify, Simulate, Oracle)}
