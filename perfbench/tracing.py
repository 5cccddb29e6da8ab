"""Span recorder for the traced run.

Spans are recorded from outside the package: :meth:`Tracer.install`
rebinds selected public functions of the ``statedisc`` modules (in every
module namespace that imported them) to timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  Private names are
never patched, so a public function reached only through a private table
(``montecarlo._CHECKS``) is not traced there; the workload calls it
directly instead.

Spans are aggregated as they close: per span name the call count, the
self time (duration minus the time covered by child spans), and every
inclusive duration; per (parent, child) pair the call count.  The span
of ``cli.main`` is named after its subcommand, e.g. ``cli.main.compare``.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# Public functions wrapped in each module: the ones the per-layer metrics
# name.  Hot scalar helpers (``format_float``, ``as_cmatrix``, ``dag``) are
# left out: a wrapper on them would cost more than the work they do.
TRACED_FUNCTIONS = {
    "linalg": ("isometry_completion", "hermitian_eig"),
    "states": ("states_from_gram",),
    "measurement": ("confusion_matrix", "unambiguity_check"),
    "schemes": (
        "build_rra",
        "build_mixed_special",
        "build_mixed_general",
        "build_unambiguous_special",
        "build_zero_aux",
        "scheme_confusion",
        "xu_max_unambiguous",
    ),
    "analysis": (
        "theorem21_check",
        "theorem31_check",
        "simplex_grid",
        "max_unambiguous_symmetric_grid",
        "optimize_unambiguous_special",
    ),
    "montecarlo": ("sweep", "brute_force_success", "simulate"),
    "serialize": (
        "scheme_to_json",
        "scheme_from_json",
        "comparison_records_to_csv",
        "comparison_record_to_json",
    ),
    "cli": ("main",),
}

MODULES = ("linalg", "states", "measurement", "schemes", "analysis",
           "montecarlo", "serialize", "cli")


class SpanStats:
    __slots__ = ("calls", "self_s", "durations", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


def _count_sweep(stats, args, kwargs, result):
    stats.counters["records"] += len(result.records)
    stats.counters["skipped"] += len(result.skipped)


def _count_simulate(stats, args, kwargs, result):
    stats.counters["trials"] += result.n


def _count_csv(stats, args, kwargs, result):
    stats.counters["bytes"] += len(result)


_COUNTERS = {
    "montecarlo.sweep": _count_sweep,
    "montecarlo.simulate": _count_simulate,
    "serialize.comparison_records_to_csv": _count_csv,
}


class Tracer:
    """Collects spans while installed; :meth:`reset` starts a new window."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        # Time inside the outermost spans below the CLI layer: the share of
        # a repetition attributed to library modules.
        self.top_s = 0.0
        self._stack: list[list] = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, namer=None):
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            frame = [span, 0.0]
            stack = self._stack  # reset() replaces it; look it up per call
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st = self.stats[span]
                st.calls += 1
                st.self_s += dur - frame[1]
                st.durations.append(dur)
                parent = stack[-1][0] if stack else None
                self.edges[(parent or "-", span)] += 1
                if stack:
                    stack[-1][1] += dur
                if not span.startswith("cli.") and (
                    parent is None or parent.startswith("cli.")
                ):
                    self.top_s += dur
            if counter is not None:
                counter(st, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        pkg = importlib.import_module("statedisc")
        mods = [importlib.import_module(f"statedisc.{m}") for m in MODULES]
        for modname, names in TRACED_FUNCTIONS.items():
            home = importlib.import_module(f"statedisc.{modname}")
            for fname in names:
                original = getattr(home, fname)
                namer = _cli_span_name if modname == "cli" else None
                wrapped = self._wrap(f"{modname}.{fname}", original, namer)
                for ns in (pkg, *mods):
                    if getattr(ns, fname, None) is original:
                        self._patches.append((ns, fname, original))
                        setattr(ns, fname, wrapped)
        measurement = importlib.import_module("statedisc.measurement")
        states = importlib.import_module("statedisc.states")
        povm_init = measurement.Povm.__init__
        self._patches.append((measurement.Povm, "__init__", povm_init))
        measurement.Povm.__init__ = self._wrap("measurement.Povm", povm_init)
        pure = states.DensityMatrix.__dict__["pure"]
        self._patches.append((states.DensityMatrix, "pure", pure))
        states.DensityMatrix.pure = classmethod(
            self._wrap("states.DensityMatrix.pure", pure.__func__)
        )

    def uninstall(self):
        for ns, fname, original in reversed(self._patches):
            setattr(ns, fname, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-span totals of the current window, plus the call tree."""
        spans = {
            name: {
                "calls": st.calls,
                "self_s": st.self_s,
                "durations": list(st.durations),
                "counters": dict(st.counters),
            }
            for name, st in self.stats.items()
        }
        return {
            "spans": spans,
            "edges": {f"{p} > {c}": n for (p, c), n in self.edges.items()},
            "top_s": self.top_s,
        }
