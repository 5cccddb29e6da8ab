"""Write ``reference/*.json``: benchmark inputs plus the outputs the seed code gives.

Run once, from the repository root, on the code the references should
pin down:

    python3 perfbench/capture.py

Inputs are drawn from fixed master seeds, so a re-run on the same code
rewrites identical files.  The script refuses to write a reference when
the code under it does not behave as the benchmark expects: every
in-domain input builds, every finite out-of-domain input raises a domain
error code, and the CLI summaries agree with the counts the grids imply.
"""
from __future__ import annotations

import json
import math
import sys

import run  # sets thread caps and the import path before numpy loads

ENV = run.prepare()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from statedisc import analysis, schemes  # noqa: E402
from statedisc.errors import DiscriminationError  # noqa: E402

HALF_SQRT2 = math.sqrt(0.5)
NAN, INF = float("nan"), float("inf")


def fmt(x: float) -> str:
    return repr(round(float(x), 6))


def priors_text(p) -> str:
    return ",".join(repr(float(x)) for x in p)


def dirichlet(rng, n: int) -> list[float]:
    return [float(x) for x in rng.dirichlet(np.ones(n))]


def cli_once(ctx, argv):
    res = wl.run_cli(ctx, argv)
    if res.rc != 0 or "Traceback" in res.err:
        sys.exit(f"capture: {argv} exited {res.rc}: {res.err}")
    return res


def summary(pattern, err: str) -> tuple:
    m = pattern.search(err)
    if not m:
        sys.exit(f"capture: no summary in {err!r}")
    return tuple(int(x) for x in m.groups())


# -- compare-grid ------------------------------------------------------------
def compare_command(ctx, theorem, lo, hi, step, prior_step, fmt_out, label):
    grid = f"{fmt(lo)}:{fmt(hi)}:{fmt(step)}"
    argv = ["compare", "--theorem", theorem, "--gamma-grid", grid,
            "--prior-step", fmt(prior_step)]
    if fmt_out == "json":
        argv += ["--format", "json"]
    res = cli_once(ctx, argv)
    points, failures, skipped = summary(wl.COMPARE_SUMMARY, res.err)
    gamma_grid = [float(t) for t in grid.split(":")]
    gammas = wl.cli_gamma_values(*gamma_grid)
    triples = wl.cli_prior_triples(theorem, float(fmt(prior_step)))
    if theorem == "2.1":
        inside = [g for g in gammas if 0.0 < abs(g) <= HALF_SQRT2 + 1e-12]
    else:
        inside = [g for g in gammas if 0.0 <= g < 1.0]
    implied = (len(inside) * len(triples), (len(gammas) - len(inside)) * len(triples))
    if (points, skipped) != implied:
        sys.exit(f"capture: {argv} reports {(points, skipped)}, grid implies {implied}")
    if theorem == "3.1":
        cases = {schemes.xu_max_unambiguous(g, p).case for g in inside for p in triples}
        if cases != {"1", "2", "3", "4", "1-limit"}:
            sys.exit(f"capture: {argv} reaches xu cases {sorted(cases)} only")
    return {
        "label": label, "argv": argv, "theorem": theorem, "format": fmt_out,
        "gamma_grid": gamma_grid, "prior_step": float(fmt(prior_step)),
        "sha256": wl.sha256(res.out), "points": points, "skipped": skipped,
        "failures": failures,
    }


def capture_compare(ctx, smoke: bool):
    if smoke:
        return [{"commands": [
            compare_command(ctx, "2.1", 0.65, 0.73, 0.01, 0.05, "csv", "compare-2.1"),
            compare_command(ctx, "3.1", 0.0, 0.95, 0.05, 0.1, "json", "compare-3.1"),
        ]}]
    variants = []
    for v in range(8):
        # Every fourth gamma of the dense 0.01 grid at the dense prior step:
        # 19 gammas, the last past 1/sqrt(2) and skipped (5.3%).
        lo21 = 0.01 + 0.001 * v
        lo31 = 0.005 * v
        variants.append({"commands": [
            compare_command(ctx, "2.1", lo21, lo21 + 0.72, 0.04, 0.01, "csv",
                            "compare-2.1"),
            compare_command(ctx, "3.1", lo31, lo31 + 0.95, 0.05, 0.04, "json",
                            "compare-3.1"),
        ]})
    return variants


# -- simulate ----------------------------------------------------------------
def capture_simulate(ctx, smoke: bool):
    n = 10**5 if smoke else 10**7
    rng = np.random.default_rng(4242)
    # Fixed priors: the largest prior sets the size of the per-state
    # temporaries, so varying it would move peak_rss_mb with the seed.
    p_ms, p_za = "0.3,0.3,0.4", "0.35,0.25,0.4"
    variants = []
    for v in range(1 if smoke else 8):
        gamma = 0.3 + 0.05 * v
        g12, g20 = (float(x) for x in rng.uniform(0.1, 0.6, size=2))
        seed = 1000 + v
        common = ["--n", str(n), "--seed", str(seed)]
        specs = [
            ("simulate-mixed-special",
             ["simulate", "--scheme", "mixed-special", "--gamma", fmt(gamma),
              "--priors", p_ms, *common]),
            ("simulate-zero-aux",
             ["simulate", "--scheme", "zero-aux", "--g01", repr(g12 * g20),
              "--g12", repr(g12), "--g20", repr(g20), "--priors", p_za, *common]),
            ("simulate-shards4",
             ["simulate", "--scheme", "mixed-special", "--gamma", fmt(gamma),
              "--priors", p_ms, *common, "--shards", "4"]),
        ]
        commands = []
        for label, argv in specs:
            res = cli_once(ctx, argv)
            commands.append({"label": label, "argv": argv, "n": n,
                             "sha256": wl.sha256(res.out)})
        variants.append({"commands": commands})
    return variants


# -- build-verify ------------------------------------------------------------
def gen_rra(rng):
    ov = float(rng.uniform(-0.9, 0.9))
    t = float(rng.uniform(abs(ov) + 0.05 * (1.0 - abs(ov)), 0.99))
    return {"overlap": ov, "c_plus": t, "c_minus": ov / t, "priors": dirichlet(rng, 2)}


def gen_mixed_special(rng):
    return {"gamma": float(rng.uniform(0.02, 0.70)), "priors": dirichlet(rng, 3)}


def gen_mixed_general(rng, side: int):
    gamma = float(rng.uniform(0.1, 0.9))
    g2 = gamma * gamma
    if side == 0:  # alpha below gamma^2, down to the PSD edge 2 gamma^2 - 1
        alpha = float(rng.uniform(max(2.0 * g2 - 1.0, -0.99) + 0.01, g2 - 0.01))
        if abs(alpha) < 1e-3:
            alpha = 1e-3
    else:
        alpha = float(rng.uniform(g2 + 0.01, 0.99))
    return {"gamma": gamma, "alpha": alpha, "priors": dirichlet(rng, 3)}


def gen_unambiguous_special(rng):
    gamma = float(rng.uniform(0.05, 0.7))
    s = float(rng.uniform(2.0, 1.0 / gamma**2 - 0.01))
    t0 = 1.0 + float(rng.uniform()) * (s - 2.0)
    return {"gamma": gamma, "x0": 1.0 / t0, "x1": 1.0 / (s - t0),
            "priors": dirichlet(rng, 3)}


def gen_zero_aux(rng):
    r12, r20 = rng.uniform(0.05, 0.9, size=2)
    th12, th20 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    g12 = complex(r12 * np.exp(1j * th12))
    g20 = complex(r20 * np.exp(1j * th20))
    g01 = (g12 * g20).conjugate()
    return {"g01": [g01.real, g01.imag], "g12": [g12.real, g12.imag],
            "g20": [g20.real, g20.imag], "priors": dirichlet(rng, 3)}


def in_domain(kind, rng, j):
    if kind == "rra":
        return gen_rra(rng)
    if kind == "mixed-special":
        return gen_mixed_special(rng)
    if kind == "mixed-general":
        return gen_mixed_general(rng, j % 2)
    if kind == "unambiguous-special":
        return gen_unambiguous_special(rng)
    return gen_zero_aux(rng)


def _stretch(a, key):
    """Scale zero-aux overlap ``key`` to modulus 1 + 1e-6, g01 kept consistent."""
    g = complex(*a[key])
    g = g / abs(g) * (1.0 + 1e-6)
    other = complex(*a["g20" if key == "g12" else "g12"])
    g01 = (g * other).conjugate()
    return {**a, key: [g.real, g.imag], "g01": [g01.real, g01.imag]}


# Finite inputs just past each builder's documented edges.
OUT_OF_DOMAIN = {
    "rra": [
        lambda a: {**a, "c_plus": 1.0 + 1e-6, "c_minus": a["overlap"] / (1.0 + 1e-6)},
        lambda a: {**a, "c_minus": a["c_minus"] + 1e-6},
    ],
    "mixed-special": [
        lambda a: {**a, "gamma": HALF_SQRT2 + 1e-6},
        lambda a: {**a, "gamma": -(HALF_SQRT2 + 1e-6)},
        lambda a: {**a, "gamma": 0.0},
    ],
    "mixed-general": [
        lambda a: {**a, "alpha": 2.0 * a["gamma"] ** 2 - 1.0 - 1e-6},
        lambda a: {**a, "alpha": 1.0 + 1e-6},
        lambda a: {**a, "gamma": 1.0 + 1e-9},
    ],
    "unambiguous-special": [
        lambda a: {**a, "x0": a["gamma"] ** 2 - 1e-6},
        lambda a: {**a, "x0": 2.0 * a["gamma"] ** 2 * (1.0 - 1e-6),
                   "x1": 2.0 * a["gamma"] ** 2 * (1.0 - 1e-6)},
        lambda a: {**a, "gamma": HALF_SQRT2 + 1e-6, "x0": 1.0, "x1": 1.0},
    ],
    "zero-aux": [
        lambda a: _stretch(a, "g12"),
        lambda a: {**a, "g01": [a["g01"][0] + 1e-6, a["g01"][1]]},
        lambda a: _stretch(a, "g20"),
    ],
}


def _nan_prior(a, i):
    p = list(a["priors"])
    p[i] = NAN
    return {**a, "priors": p}


# Non-finite inputs; the seed code mishandles most of them (ROADMAP item 5).
NON_FINITE = {
    "rra": [lambda a: {**a, "c_plus": NAN}, lambda a: {**a, "c_minus": INF}],
    "mixed-special": [
        lambda a: {**a, "gamma": NAN},
        lambda a: _nan_prior(a, 0),
        lambda a: {**a, "gamma": INF},
    ],
    "mixed-general": [
        lambda a: {**a, "alpha": NAN},
        lambda a: {**a, "gamma": NAN},
        lambda a: _nan_prior(a, 1),
    ],
    "unambiguous-special": [
        lambda a: {**a, "x0": NAN},
        lambda a: {**a, "gamma": NAN},
        lambda a: _nan_prior(a, 2),
    ],
    "zero-aux": [
        lambda a: {**a, "g12": [NAN, 0.0]},
        lambda a: {**a, "g20": [NAN, 0.0]},
        lambda a: _nan_prior(a, 0),
    ],
}

KINDS = ("rra", "mixed-special", "mixed-general", "unambiguous-special", "zero-aux")


def seed_outcome(kind, args) -> str:
    try:
        wl.build(kind, args)
    except DiscriminationError as exc:
        return f"error:{exc.code}"
    except Exception as exc:  # recorded as found; the benchmark counts it failed
        return f"exception:{type(exc).__name__}"
    return "accepted"


def capture_blocks(smoke: bool):
    rng = np.random.default_rng(2718)
    n_in, n_ood, n_blocks = (2, 1, 2) if smoke else (16, 3, 6)
    blocks = []
    for b in range(n_blocks):
        block = []
        for kind in KINDS:
            for j in range(n_in):
                args = in_domain(kind, rng, j)
                try:
                    ref = wl.round_trip_values(wl.round_trip(kind, args))
                except Exception as exc:
                    sys.exit(f"capture: in-domain {kind} {args} raised {exc!r}")
                block.append({"kind": kind, "args": args, "expect": "ok",
                              "nonfinite": False, "ref": ref})
            for j in range(n_ood):
                make = OUT_OF_DOMAIN[kind][(b * n_ood + j) % len(OUT_OF_DOMAIN[kind])]
                args = make(in_domain(kind, rng, j))
                outcome = seed_outcome(kind, args)
                if not outcome.startswith("error:") or outcome == "error:InvariantViolation":
                    sys.exit(f"capture: out-of-domain {kind} {args} gave {outcome}")
                block.append({"kind": kind, "args": args, "expect": "reject",
                              "nonfinite": False, "seed_outcome": outcome})
            make = NON_FINITE[kind][b % len(NON_FINITE[kind])]
            args = make(in_domain(kind, rng, 0))
            block.append({"kind": kind, "args": args, "expect": "reject",
                          "nonfinite": True, "seed_outcome": seed_outcome(kind, args)})
        blocks.append(block)
    return blocks


def capture_sweeps(ctx, smoke: bool):
    rng = np.random.default_rng(1618)
    alphas = [0.3] if smoke else [0.3, 0.1, -0.2, 0.5, 0.2, 0.4, -0.1, 0.6]
    sweeps = []
    for alpha in alphas:
        edge = math.sqrt((1.0 + alpha) / 2.0)  # PSD edge: 1 + alpha >= 2 gamma^2
        lo, hi = (edge - 0.05, edge + 0.03) if smoke else (edge - 0.6, edge + 0.06)
        grid = f"gamma={round(lo, 2)}:{round(hi, 2)}:0.01"
        argv = ["sweep", "--scheme", "mixed-general", "--alpha", repr(alpha),
                "--priors", priors_text(dirichlet(rng, 3)), "--grid", grid]
        res = cli_once(ctx, argv)
        points, skipped = summary(wl.SWEEP_SUMMARY, res.err)
        gammas = wl.cli_gamma_values(round(lo, 2), round(hi, 2), 0.01)
        outside = sum(1 for g in gammas if 1.0 + alpha - 2.0 * g * g < 0.0)
        if (points, skipped) != (len(gammas) - outside, outside) or outside == 0:
            sys.exit(f"capture: {argv} reports {(points, skipped)}, "
                     f"grid implies {(len(gammas) - outside, outside)}")
        sweeps.append({"label": "sweep-mixed-general", "argv": argv,
                       "points": points, "skipped": skipped,
                       "rows": res.out.decode().splitlines()})
    return sweeps


# -- oracle ------------------------------------------------------------------
def capture_oracle(smoke: bool):
    rng = np.random.default_rng(505)
    n_strata, per = (2, 1) if smoke else (16, 16)
    lo, hi = 0.05, HALF_SQRT2
    strata = []
    for k in range(n_strata):
        points = []
        for _ in range(per):
            gamma = float(rng.uniform(0.05, 0.9))  # criterion 05's range
            g21 = float(rng.uniform(lo + (hi - lo) * k / n_strata,
                                    lo + (hi - lo) * (k + 1) / n_strata))
            priors = dirichlet(rng, 3)
            xu = schemes.xu_max_unambiguous(gamma, priors)
            grid = analysis.max_unambiguous_symmetric_grid(gamma, priors, step=1e-3)
            opt = analysis.optimize_unambiguous_special(g21, priors, grid_step=1e-3)
            if abs(grid - xu.value) > wl.ORACLE_GRID_TOL:
                sys.exit(f"capture: grid oracle off by {abs(grid - xu.value)}")
            points.append({"gamma": gamma, "gamma_t21": g21, "priors": priors,
                           "ref": {"xu_value": xu.value, "xu_case": xu.case,
                                   "grid_value": grid, "opt_value": opt.value}})
        strata.append(points)
    return {"strata": strata}


def write(name: str, data: dict):
    path = run.BENCH / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main() -> int:
    ctx = wl.Context(root=run.ROOT, env=ENV)
    write("oracle", {m: capture_oracle(m == "smoke") for m in ("smoke", "full")})
    write("build_verify", {
        m: {"blocks": capture_blocks(m == "smoke"),
            "blocks_per_rep": 1 if m == "smoke" else 2,
            "sweeps": capture_sweeps(ctx, m == "smoke")}
        for m in ("smoke", "full")
    })
    write("simulate", {m: capture_simulate(ctx, m == "smoke") for m in ("smoke", "full")})
    write("compare_grid", {m: capture_compare(ctx, m == "smoke") for m in ("smoke", "full")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
