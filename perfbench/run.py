"""statedisc benchmark: four workloads, end-to-end metrics, and a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload compare-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process
    python3 perfbench/run.py --smoke                 # tiny sizes, asserts the output

``--trace 0`` measures with tracing off and ends with one JSON line whose
``metrics`` hold the end-to-end metrics of ``BENCHMARK.json``; the lines
before it report every end-to-end metric of the workload, the run record
and the failure accounting.  ``--trace 1`` runs the same inputs untraced
and traced in turn and reports the per-layer metrics instead.  See
``perfbench/README.md`` for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("compare-grid", "build-verify", "simulate", "oracle")
# Metrics gated in BENCHMARK.json: the ones every workload has and that
# are never zero.  The rest of the end-to-end set is reported per workload.
GATED = ("setup_s", "wall_s", "peak_rss_mb")
# Set-up samples per untraced run; setup_s is their median.
SETUP_SAMPLES = 11
COMMON = (*GATED, "error_rate")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "points_per_s": "1/s", "schemes_per_s": "1/s",
    "trials_per_s": "1/s", "oracle_checks_per_s": "1/s", "item_p50_ms": "ms",
    "item_tail_ms": "ms", "peak_rss_mb": "MB", "error_rate": "ratio",
    "max_pipeline_gap": "abs", "max_oracle_gap": "abs",
}
WORKLOAD_METRICS = {
    "compare-grid": ("points_per_s",),
    "build-verify": ("schemes_per_s", "item_p50_ms", "item_tail_ms", "max_pipeline_gap"),
    "simulate": ("trials_per_s",),
    "oracle": ("oracle_checks_per_s", "item_p50_ms", "item_tail_ms", "max_oracle_gap"),
}
BUILDERS = ("rra", "mixed_special", "mixed_general", "unambiguous_special", "zero_aux")
# (span name, metrics); each metric is per traced repetition.
SPAN_METRICS = (
    ("linalg.isometry_completion", ("calls", "busy_s", "p50_us")),
    ("linalg.hermitian_eig", ("calls",)),
    ("states.states_from_gram", ("calls", "busy_s")),
    ("states.DensityMatrix.pure", ("calls",)),
    ("measurement.Povm", ("calls", "busy_s")),
    ("measurement.confusion_matrix", ("calls", "busy_s", "p50_us")),
    ("measurement.unambiguity_check", ("busy_s",)),
    *((f"schemes.build_{b}", ("calls", "busy_s", "p50_us")) for b in BUILDERS),
    ("schemes.scheme_confusion", ("busy_s", "p50_us")),
    ("schemes.xu_max_unambiguous", ("calls", "busy_s")),
    ("analysis.theorem21_check", ("calls", "busy_s", "p50_us")),
    ("analysis.theorem31_check", ("calls", "busy_s", "p50_us")),
    ("analysis.simplex_grid", ("busy_s",)),
    ("analysis.max_unambiguous_symmetric_grid", ("calls", "busy_s", "p50_us")),
    ("analysis.optimize_unambiguous_special", ("calls", "busy_s", "p50_us")),
    ("montecarlo.sweep", ("busy_s", "records", "skipped", "skip_share", "us_per_point")),
    ("montecarlo.brute_force_success", ("calls", "busy_s", "p50_us")),
    ("montecarlo.simulate", ("calls", "busy_s", "ns_per_trial")),
    ("serialize.scheme_to_json", ("busy_s",)),
    ("serialize.scheme_from_json", ("busy_s", "p50_us")),
    ("serialize.comparison_records_to_csv", ("busy_s", "bytes")),
    ("serialize.comparison_record_to_json", ("busy_s",)),
    ("cli.main.compare", ("calls", "busy_s")),
    ("cli.main.sweep", ("calls", "busy_s")),
    ("cli.main.simulate", ("calls", "busy_s")),
)
SPAN_UNITS = {
    "calls": "count", "busy_s": "s", "p50_us": "us", "records": "count",
    "skipped": "count", "skip_share": "ratio", "us_per_point": "us",
    "ns_per_trial": "ns", "bytes": "B",
}
CLI_COMMANDS = (
    "compare-2.1", "compare-3.1", "sweep-mixed-general",
    "simulate-mixed-special", "simulate-zero-aux", "simulate-shards4",
)
EXTRA_LAYER_UNITS = {
    "cli.self_s": "s", "cli.stdout_bytes": "B", "setup.import_s": "s",
    "trace_overhead": "ratio", "trace_coverage": "ratio",
    **{f"cli.cmd.{c}.wall_s": "s" for c in CLI_COMMANDS},
}


def per_layer_units() -> dict:
    units = {
        f"{span}.{m}": SPAN_UNITS[m] for span, metrics in SPAN_METRICS for m in metrics
    }
    units.update(EXTRA_LAYER_UNITS)
    return units


def prepare() -> dict:
    """Cap BLAS threads, put ``src`` first on the path, and import statedisc.

    Returns the environment for child processes.  Exits with code 1 when
    the checkout holds no ``src/statedisc`` to benchmark.
    """
    if not (SRC / "statedisc" / "__init__.py").is_file():
        print(f"error: no statedisc package under {SRC}", file=sys.stderr)
        sys.exit(1)
    threads = str(os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import statedisc

    if Path(statedisc.__file__).resolve().parent != SRC / "statedisc":
        print(f"error: imported statedisc from {statedisc.__file__}", file=sys.stderr)
        sys.exit(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


# -- measurement helpers -----------------------------------------------------
def median(values):
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value."""
    import numpy as np

    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(values, pct))
    return 100.0, float(max(values)) if values else 0.0


def measure_setup(ctx, warmup_code: str, count: int) -> list[float]:
    """Process spawn until ``import statedisc`` (and any warm-up) returns."""
    code = (
        "import statedisc\n" + warmup_code
        + "\nimport sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()\n"
    )
    times = []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            env=ctx.env, cwd=ctx.root,
        )
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with code {proc.returncode}")
        times.append(t1 - t0)
    return times


def peak_rss_mb(in_process: bool) -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if in_process else 0
    return max(children, own) / 1024.0


def run_record(args, workload, setup_times) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "variant": getattr(workload, "variant", None),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit, "setup_samples": len(setup_times),
    }


# -- metrics -----------------------------------------------------------------
def end_to_end(name, reps, setup_times, acct, in_process) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit, samples)."""
    setup = median(setup_times)
    walls = [r["wall"] for r in reps]
    out = {
        "setup_s": (setup, len(setup_times)),
        "wall_s": (median(walls), len(walls)),
        "peak_rss_mb": (peak_rss_mb(in_process), 1),
        "error_rate": (acct.failed / max(acct.attempted, 1), acct.attempted),
    }
    if name == "compare-grid":
        rates = [r["points"] / (r["wall"] - r["commands"] * setup) for r in reps]
        out["points_per_s"] = (median(rates), len(rates))
    elif name == "simulate":
        rates = [r["trials"] / (r["wall"] - r["commands"] * setup) for r in reps]
        out["trials_per_s"] = (median(rates), len(rates))
    elif name == "build-verify":
        rates = [r["completed"] / r["stream_s"] for r in reps]
        out["schemes_per_s"] = (median(rates), len(rates))
        gaps = [g for r in reps for g in r["gaps"]]
        out["max_pipeline_gap"] = (max(gaps, default=0.0), len(gaps))
    elif name == "oracle":
        rates = [r["checks"] / r["wall"] for r in reps]
        out["oracle_checks_per_s"] = (median(rates), len(rates))
        gaps = [g for r in reps for g in r["gaps"]]
        out["max_oracle_gap"] = (max(gaps, default=0.0), len(gaps))
    if name in ("build-verify", "oracle"):
        items = [t * 1e3 for r in reps for t in r["item_times"]]
        pct, value = tail(items)
        out["item_p50_ms"] = (median(items), len(items))
        out["item_tail_ms"] = (value, len(items), f"p{pct:g}")
    return {
        k: {"value": float(v[0]), "unit": END_TO_END_UNITS[k], "samples": v[1],
            **({"percentile": v[2]} if len(v) > 2 else {})}
        for k, v in out.items()
    }


def per_layer(traced, untraced, supplement, import_times) -> dict:
    """Per-layer metrics from the span snapshots of the traced repetitions."""
    snaps = [r["snapshot"] for r in traced]
    values = {}
    for span, metrics in SPAN_METRICS:
        per_rep = [s["spans"].get(span) for s in snaps]
        if not any(per_rep) and supplement is not None:
            per_rep = [supplement["spans"].get(span)]
        present = [x for x in per_rep if x]
        durations = [d for x in present for d in x["durations"]]
        inclusive = median([sum(x["durations"]) if x else 0.0 for x in per_rep])

        def counter(key):
            return median([x["counters"].get(key, 0.0) if x else 0.0 for x in per_rep])

        for m in metrics:
            if m == "calls":
                v = median([x["calls"] if x else 0 for x in per_rep])
            elif m == "busy_s":
                v = median([x["self_s"] if x else 0.0 for x in per_rep])
            elif m == "p50_us":
                v = median(durations) * 1e6
            elif m == "skip_share":
                total = counter("records") + counter("skipped")
                v = counter("skipped") / total if total else 0.0
            elif m == "us_per_point":
                total = counter("records") + counter("skipped")
                v = inclusive / total * 1e6 if total else 0.0
            elif m == "ns_per_trial":
                trials = counter("trials")
                v = inclusive / trials * 1e9 if trials else 0.0
            else:
                v = counter(m)
            values[f"{span}.{m}"] = v
    values["cli.self_s"] = median([
        sum(x["self_s"] for k, x in s["spans"].items() if k.startswith("cli.main."))
        for s in snaps
    ])
    values["cli.stdout_bytes"] = median([r["stdout_bytes"] for r in traced])
    values["setup.import_s"] = median(import_times)
    traced_wall = median([r["wall"] for r in traced])
    values["trace_overhead"] = traced_wall / median([r["wall"] for r in untraced]) - 1.0
    values["trace_coverage"] = median([s["top_s"] / r["wall"] for s, r in zip(snaps, traced)])
    for c in CLI_COMMANDS:
        values[f"cli.cmd.{c}.wall_s"] = median(
            [r["cmd_walls"][c] for r in untraced if c in r["cmd_walls"]]
        )
    units = per_layer_units()
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


# -- running -----------------------------------------------------------------
def run_workload(args, env) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    import workloads as wl
    from tracing import Tracer

    cls = wl.WORKLOADS[args.workload]
    ctx = wl.Context(root=ROOT, env=env)
    ref = wl.load_reference(BENCH, cls.name.replace("-", "_"), args.smoke)
    workload = cls(ctx, args.seed, ref)
    if cls.warmup_code:
        exec(compile(cls.warmup_code, "<warm-up>", "exec"), {})
    acct = wl.Accounting()
    lines = []
    seconds = 0.0 if args.smoke else args.seconds
    setup_count = 1 if args.smoke else (3 if args.trace else SETUP_SAMPLES)
    setup_times = measure_setup(ctx, cls.warmup_code, setup_count if args.trace else 1)
    start = perf_counter()
    deadline = start + seconds

    if not args.trace:
        reps = []
        while len(reps) < workload.min_reps or perf_counter() < deadline:
            reps.append(workload.rep(ctx, acct))
            # Set-up samples are spread over the run, so they see the same
            # host as the repetitions do.
            due = 1 + int((setup_count - 1) * (perf_counter() - start) / max(seconds, 1e-9))
            if len(setup_times) < min(due, setup_count):
                setup_times += measure_setup(ctx, cls.warmup_code, 1)
        setup_times += measure_setup(ctx, cls.warmup_code, setup_count - len(setup_times))
        metrics = end_to_end(cls.name, reps, setup_times, acct, cls.in_process)
        for k, m in metrics.items():
            extra = f" {m['percentile']}" if "percentile" in m else ""
            lines.append(f"e2e {cls.name} {k} = {m['value']!r} {m['unit']}"
                         f" (samples={m['samples']}{extra})")
        lines.append(f"samples {cls.name} wall_s " + json.dumps([r["wall"] for r in reps]))
        lines.append(f"samples {cls.name} setup_s " + json.dumps(setup_times))
        gated = {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                 for k in GATED}
    else:
        import_times = measure_setup(ctx, "", setup_count)
        tracer = Tracer()
        untraced, traced, supplement = [], [], None
        while len(traced) < workload.min_reps or perf_counter() < deadline:
            untraced.append(workload.rep(ctx, acct))
            tracer.install()
            ctx.tracer = tracer
            try:
                tracer.reset()
                traced.append(workload.rep(ctx, acct))
                if supplement is None and hasattr(workload, "supplement"):
                    tracer.reset()
                    workload.supplement(ctx)
                    supplement = tracer.snapshot()
            finally:
                ctx.tracer = None
                tracer.uninstall()
        gated = per_layer(traced, untraced, supplement, import_times)
        for k, m in gated.items():
            lines.append(f"layer {cls.name} {k} = {m['value']!r} {m['unit']}")
        for edge, calls in sorted(traced[0]["snapshot"]["edges"].items()):
            lines.append(f"span {cls.name} {edge} calls={calls}")
        lines.append(f"traced repetitions: {len(traced)}, untraced: {len(untraced)}")
    record = run_record(args, workload, setup_times)
    lines.insert(0, "run " + json.dumps(record, sort_keys=True))
    lines.append(f"accounting {cls.name} " + json.dumps(acct.as_dict(), sort_keys=True))
    result = {
        "correct": acct.failed_finite == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": gated,
    }
    return result, lines


def smoke(args, env) -> int:
    """Every workload at a tiny size: metric names, units and references."""
    failures = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            result, lines = run_workload(sub, env)
            print("\n".join(lines))
            want = per_layer_units() if trace else {k: END_TO_END_UNITS[k] for k in GATED}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace={trace}: metrics {sorted(got)}")
            if not trace:
                reported = {ln.split()[2]: ln.split()[5] for ln in lines if ln.startswith("e2e ")}
                expected = {k: END_TO_END_UNITS[k]
                            for k in (*COMMON, *WORKLOAD_METRICS[name])}
                if reported != expected:
                    failures.append(f"{name}: reported {reported}")
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: outputs differ from the reference")
    for f in failures:
        print("smoke failure:", f, file=sys.stderr)
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    env = prepare()
    if args.smoke:
        return smoke(args, env)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines = run_workload(
            argparse.Namespace(**{**vars(args), "workload": name}), env
        )
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if len(names) == 1:
            combined["metrics"] = result["metrics"]
        else:
            combined["metrics"].update(
                {f"{name}.{k}": m for k, m in result["metrics"].items()}
            )
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
