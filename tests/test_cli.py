import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from goldens import load, ok, run

from statedisc import cli, measurement, serialize
from statedisc.cli import main
from statedisc.schemes import SCHEME_KINDS

MIXED = [
    "--scheme",
    "mixed-special",
    "--gamma",
    "0.5",
    "--priors",
    "0.3,0.3,0.4",
]
#: ``sweep`` takes no value for the parameter it sweeps.
SWEEP_MIXED = ["sweep", "--scheme", "mixed-special", "--priors", "0.3,0.3,0.4"]


#: The flags of each kind's input in ``golden.json``.
GOLDEN_FLAGS = {kind: ref["flags"] for kind, ref in load("golden.json").items()}


def test_validate_reports_residuals():
    out, err = ok(["validate"] + MIXED)
    lines = out.splitlines()
    assert lines[0] == "scheme: mixed-special"
    assert lines[1].startswith("unitarity_residual:")
    assert lines[2].startswith("povm_completeness_residual:")
    assert lines[3].startswith("pipeline_vs_analytic:")
    assert lines[4] == "analytic_success: 0.7"
    assert lines[5] == "ok"


def test_run_json_payload():
    out, _ = ok(["run"] + MIXED)
    payload = json.loads(out)
    assert payload["scheme"] == "mixed-special"
    assert payload["analytic_success"] == pytest.approx(0.7, abs=1e-12)
    assert payload["brute_force_success"] == pytest.approx(0.7, abs=1e-9)
    assert payload["outcome_labels"] == [
        "identify:0",
        "identify:1",
        "identify:2",
        "inconclusive",
    ]
    conf = payload["confusion_matrix"]
    assert len(conf) == 3 and len(conf[0]) == 4
    assert conf[2][2] == pytest.approx(1.0, abs=1e-12)


def test_run_csv_confusion_table():
    out, _ = ok(["run", "--format", "csv"] + MIXED)
    lines = out.splitlines()
    assert lines[0] == "state,identify:0,identify:1,identify:2,inconclusive"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"
    assert lines[1].split(",")[1] == "0.5"


def test_domain_error_exit_2():
    code, out, err = run(
        ["run", "--scheme", "mixed-special", "--gamma", "0.9", "--priors", "0.3,0.3,0.4"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: GammaOutOfRange: ")
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--scheme", "mixed-special", "--gamma", "0.5",
         "--priors", "0.5,0.6,-0.1"],
        ["validate", "--scheme", "mixed-special", "--gamma", "0.5",
         "--priors", "nan,0.5,0.5"],
        ["validate", "--scheme", "rra", "--overlap", "2", "--c-plus", "0.7",
         "--c-minus", "0.4", "--priors", "0.6,0.4"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.2:0.1",
         "--prior-step", "0"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.2:0.1",
         "--prior-step", "0.6"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.2:0.1",
         "--prior-step", "5e-324"],
        ["simulate"] + MIXED + ["--n", "10", "--seed", str(2**64)],
        ["simulate"] + MIXED + ["--n", "10", "--seed", "-1"],
    ],
    ids=["negative-prior", "nan-prior", "rra-overlap-2", "prior-step-0",
         "prior-step-0.6", "prior-step-denormal", "seed-2^64", "seed-negative"],
)
def test_out_of_domain_inputs_exit_2(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParamOutOfRange: ")


def test_trial_count_beyond_the_bound_exits_2(monkeypatch):
    # Rejected before any stream is made, so it cannot run for years.
    monkeypatch.setattr("numpy.random.Generator", None)
    code, out, err = run(
        ["simulate"] + MIXED + ["--n", "1000000000000000000"]
    )
    assert code == 2 and out == ""
    assert err == (
        "error: ParamOutOfRange: trial count 1000000000000000000 outside "
        "[1, 17179869184]\n"
    )


def test_usage_errors_exit_1():
    for argv in (
        [],
        ["frobnicate"],
        ["validate", "--scheme", "mixed-special", "--priors", "0.3,0.3,0.4"],
        ["run", "--scheme", "mixed-special", "--gamma", "0.5", "--priors", "x,y,z"],
        SWEEP_MIXED + ["--grid", "gamma=0.1:0.7"],
        ["dump", "--format", "csv"] + MIXED,
        # Non-finite grid bounds and steps.
        ["compare", "--theorem", "2.1", "--gamma-grid", "0:nan:0.1"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "nan:0.5:0.1"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "0:inf:0.1"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.5:inf"],
        SWEEP_MIXED + ["--grid", "gamma=0:nan:0.1"],
        # Grids too large to list, or to compare in memory.
        ["compare", "--theorem", "2.1", "--gamma-grid", "0:1e300:1e-300"],
        ["compare", "--theorem", "2.1", "--gamma-grid=-1e308:1e308:1"],
        SWEEP_MIXED + ["--grid", "gamma=0:1e300:1e-300"],
        ["compare", "--theorem", "2.1", "--gamma-grid", "0:0.7:1e-9"],
        ["compare", "--theorem", "3.1", "--gamma-grid", "0.1:0.2:0.1",
         "--prior-step", "1e-4"],
    ):
        code, out, err = run(argv)
        assert code == 1, argv
        assert err.startswith("usage error: "), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--scheme", "mixed-special", "--gamma", "0.5", "--priors", "0.5,0.5"],
         "scheme mixed-special takes 3 priors, got 2"),
        (["run", "--gamma", "0.5", "--priors", "0.3,0.3,0.4"], "missing --scheme"),
        (["sweep", "--scheme", "zero-aux", "--g01", "0.06", "--g12", "0.3",
          "--g20", "0.2", "--priors", "0.3,0.3,0.4", "--grid", "g12=0.1:0.2:0.1"],
         "sweep supports"),
        (SWEEP_MIXED, "sweep requires exactly one --grid"),
        (SWEEP_MIXED + ["--grid", "alpha=0.1:0.2:0.1"],
         "scheme mixed-special sweeps over ('gamma',), not 'alpha'"),
        (SWEEP_MIXED + ["--grid", "gamma=0.5:0.1:0.1"], "empty gamma grid"),
        (["compare", "--theorem", "2.1"], "compare requires --gamma-grid"),
        (["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.2:0.1",
          "--p2-min", "2"], "no prior triples with p2 >= 2.0"),
        # Counted against the compare bound before any value is made.
        (SWEEP_MIXED + ["--grid", "gamma=0:1e12:1"],
         "gamma grid has more than 16777216 values"),
    ],
)
def test_request_errors_are_one_usage_line(argv, message):
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("usage error: " + message), err


PRIORS_ERROR = "error: ParamOutOfRange: priors must be non-negative and sum to 1\n"


def _run_priors_subprocess(priors):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "statedisc", "run",
         "--scheme", "mixed-special", "--gamma", "0.5", "--priors", priors],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_infinite_priors_print_only_the_error_line():
    # inf + -inf used to print NumPy's RuntimeWarning before the error line.
    proc = _run_priors_subprocess("inf,-inf,1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == PRIORS_ERROR


def test_overflowing_priors_print_only_the_error_line():
    # Finite priors whose sum overflows to inf used to print NumPy's
    # overflow RuntimeWarning before the error line, and to raise it in
    # process under an error filter.
    priors = "0,8.988465674311579e+307,8.98846567431158e+307"
    proc = _run_priors_subprocess(priors)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == PRIORS_ERROR
    code, out, err = run(["run"] + MIXED[:4] + ["--priors", priors])
    assert code == 2 and out == "" and err == PRIORS_ERROR


def test_rra_at_overlap_minus_one_with_unit_amplitudes():
    # |c_minus|^2 rounds to 1 - 4e-13; the +/- amplitude snaps to 0 instead
    # of leaving a 6e-7 component that made the pair look independent.
    argv = ["--scheme", "rra", "--overlap", "-1", "--c-plus", "1.0000000000002",
            "--c-minus", "-0.9999999999998", "--priors", "0.5,0.5"]
    _, err = ok(["run"] + argv)
    out, err = ok(["dump"] + argv)
    scheme = serialize.scheme_from_json(json.loads(out))
    assert scheme.params.kind == "rra"
    assert scheme.analytic_success == pytest.approx(0.0, abs=1e-12)


def test_mixed_general_near_gamma_one_names_the_lost_conditioning():
    # The cancellation in (v0 - gamma v2)/sqrt(1 - gamma^2) after the
    # Cholesky cutoff dropped 1 - alpha = 4e-13 used to surface as a Gram
    # gap of 1.0 inside the coupling's completion.
    argv = ["validate", "--scheme", "mixed-general", "--gamma", "0.9999999999999",
            "--alpha", "0.9999999999995999", "--priors", "0.3,0.3,0.4"]
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ParamOutOfRange: conditioning lost: "), err
    assert " over 1 - gamma^2 = " in err, err  # the +/- amplitude snaps to 0


def test_mixed_general_near_an_alpha_edge_names_the_lost_conditioning():
    # psi0 and psi1 are nearly dependent here, and their residual norm
    # magnified the synthesis error into a GramMismatch that named no cause.
    argv = ["run", "--scheme", "mixed-general", "--gamma", "0.5",
            "--alpha", "0.99999999999", "--priors", "0.3,0.3,0.4"]
    code, out, err = run(argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: ParamOutOfRange: conditioning lost: "), err
    assert "sqrt(1 - c^4)" in err, err


COMPLEX_FLAGS = {
    "rra complex": ["--overlap", "-1", "--c-plus=-0.9460456088348339+0.32403349518889013j",
                    "--c-minus=0.9460456088348338-0.3240334951888901j",
                    "--priors", "0.5,0.5"],
    "zero-aux complex": ["--g01=-0.06j", "--g12", "0.3j", "--g20", "(0.2+0j)",
                         "--priors", "0.3,0.3,0.4"],
}


@pytest.mark.parametrize("case", [*sorted(GOLDEN_FLAGS), *COMPLEX_FLAGS])
def test_dumped_params_reload_as_a_config(tmp_path, case):
    kind = case.split()[0]
    flags = GOLDEN_FLAGS.get(case) or COMPLEX_FLAGS[case]
    dumped, err = ok(["dump", "--scheme", kind, *flags])
    data = json.loads(dumped)
    params = data["params"]  # complex values are the [re, im] pairs
    if kind == "rra":  # the overlap is an input, not a params field
        params["overlap"] = float(flags[flags.index("--overlap") + 1])
    job = {"command": "dump", "scheme": kind, "params": params,
           "priors": data["ensemble"]["priors"]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    out, err = ok(["--config", str(path)])
    assert out == dumped


def test_complex_inputs_read_like_dump_writes_them():
    out, _ = ok(["dump", "--scheme", "zero-aux", *COMPLEX_FLAGS["zero-aux complex"]])
    assert json.loads(out)["params"] == {
        "kind": "zero-aux", "g01": [0.0, -0.06], "g12": [0.0, 0.3], "g20": [0.2, 0.0],
    }
    # The overlap and the real parameters stay floats.
    for argv in (["--scheme", "rra", "--overlap", "0.36+0j", "--c-plus", "0.6",
                  "--c-minus", "0.6", "--priors", "0.5,0.5"],
                 ["--scheme", "mixed-special", "--gamma", "0.5+0j",
                  "--priors", "0.3,0.3,0.4"]):
        code, _, err = run(["run", *argv])
        assert code == 1 and "invalid float value" in err


def test_simulate_json_is_deterministic():
    argv = ["simulate"] + MIXED + ["--n", "50000", "--seed", "42"]
    out, _ = ok(argv)
    assert ok(argv)[0] == out
    payload = json.loads(out)
    assert payload["n"] == 50000 and payload["seed"] == 42
    assert sum(sum(row) for row in payload["counts"]) == 50000
    assert abs(payload["empirical_success"] - 0.7) < 0.01


def test_simulate_csv_counts():
    argv = ["simulate", "--format", "csv"] + MIXED + ["--n", "1000", "--seed", "7"]
    out, _ = ok(argv)
    lines = out.splitlines()
    assert lines[0] == "state,outcome,count"
    assert len(lines) == 1 + 3 * 4
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 1000


def test_sweep_csv_and_summary():
    argv = SWEEP_MIXED + ["--grid", "gamma=0.1:0.7:0.1"]
    out, err = ok(argv)
    lines = out.splitlines()
    assert lines[0] == "gamma,p0,p1,p2,analytic_success,brute_force_success"
    assert len(lines) == 8
    first = lines[1].split(",")
    assert first[0] == "0.1" and first[4] == "0.988"
    assert err.strip() == "points: 7  skipped: 0"


def test_sweep_json_rows_match_csv_rows():
    argv = ["sweep", "--scheme", "mixed-general", "--gamma", "0.5",
            "--priors", "0.3,0.3,0.4", "--grid", "alpha=0.0:0.6:0.05"]
    csv_out, csv_err = ok(argv)
    code, json_out, json_err = run(argv + ["--format", "json"])
    assert code == 0 and json_err == csv_err
    rows = json.loads(json_out)
    lines = csv_out.splitlines()
    assert lines[0] == "alpha,p0,p1,p2,analytic_success,brute_force_success"
    assert len(rows) == len(lines) - 1 > 0
    for row, line in zip(rows, lines[1:]):
        assert row["param"] == "alpha" and row["priors"] == [0.3, 0.3, 0.4]
        values = [row["value"], *row["priors"], row["analytic_success"],
                  row["brute_force_success"]]
        assert ",".join(map(serialize.format_float, values)) == line


def test_sweep_skips_out_of_domain_points():
    argv = SWEEP_MIXED + ["--grid", "gamma=0.5:0.9:0.1"]
    out, err = ok(argv)
    assert err.strip() == "points: 3  skipped: 2"
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_writes_each_row_as_it_is_built(monkeypatch, fmt):
    built, seen = [], []
    brute = cli.brute_force_success
    monkeypatch.setattr(cli, "brute_force_success",
                        lambda s: built.append(1) or brute(s))

    def write(pieces, path):  # when each piece arrives, how many points built
        for piece in pieces:
            seen.append((len(built), piece))

    monkeypatch.setattr(cli, "_write_output", write)
    argv = SWEEP_MIXED + ["--grid", "gamma=0.5:0.9:0.1", "--format", fmt]
    code, _, err = run(argv)
    assert code == 0 and err.strip() == "points: 3  skipped: 2"
    # Row k goes out once point k is built, before point k + 1 is.
    assert [n for n, _ in seen] == [1, 2, 3, 3]
    text = "".join(piece for _, piece in seen)
    monkeypatch.undo()
    assert run(argv)[1] == text


@pytest.mark.parametrize("fmt, empty", [("csv", "gamma,p0,p1,p2,analytic_success,"
                                         "brute_force_success\n"), ("json", "[]\n")])
def test_sweep_of_only_skipped_points_writes_the_empty_table(fmt, empty):
    argv = SWEEP_MIXED + ["--grid", "gamma=0.8:0.9:0.1", "--format", fmt]
    assert run(argv) == (0, empty, "points: 0  skipped: 2\n")


@pytest.mark.parametrize("extra", [[], ["--format", "json"]])
def test_empty_sweep_grid_writes_nothing(tmp_path, extra):
    out = tmp_path / "rows.csv"
    argv = SWEEP_MIXED + ["--grid", "gamma=0.5:0.1:0.1"] + extra
    code, stdout, err = run(argv)
    assert (code, stdout, err) == (1, "", "usage error: empty gamma grid\n")
    code, _, _ = run(argv + ["--output", str(out)])
    assert code == 1 and not out.exists() and os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, missing", [
    (["--scheme", "mixed-special", "--grid", "gamma=0.1:0.3:0.1"],
     "scheme mixed-special requires --priors"),
    (["--scheme", "mixed-general", "--priors", "0.3,0.3,0.4",
      "--grid", "alpha=0.1:0.3:0.1"], "scheme mixed-general requires --gamma"),
])
def test_sweep_missing_an_input_writes_nothing(argv, missing):
    assert run(["sweep", *argv]) == (1, "", f"usage error: {missing}\n")


def _sweep_argv(kind):
    """``sweep`` of ``kind``'s first sweepable input over 0.05..0.95, with
    the kind's golden flags but that input's."""
    param = SCHEME_KINDS[kind].sweepable[0]
    flags = GOLDEN_FLAGS[kind]
    at = flags.index("--" + param)
    return ["sweep", "--scheme", kind, *flags[:at], *flags[at + 2 :],
            "--grid", f"{param}=0.05:0.95:0.1"]


#: Extra flags of each command whose pipeline evaluations are counted.
COUNTED_COMMANDS = {
    "run": [], "run csv": ["--format", "csv"], "validate": [], "dump": [],
    "simulate": ["--n", "1000"],
}


@pytest.mark.parametrize(
    "command, kind",
    [(c, k) for c in COUNTED_COMMANDS for k in sorted(SCHEME_KINDS)]
    + [("sweep", k) for k, kind in sorted(SCHEME_KINDS.items()) if kind.sweepable],
)
def test_each_built_scheme_evaluates_the_pipeline_once(monkeypatch, command, kind):
    calls = []
    kernel = measurement.pure_confusion

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(measurement, "pure_confusion", counted)
    if command == "sweep":
        # Points outside the domain are rejected before any state exists.
        argv = _sweep_argv(kind)
    else:
        argv = [command.split()[0], "--scheme", kind, *GOLDEN_FLAGS[kind],
                *COUNTED_COMMANDS[command]]
    _, err = ok(argv)
    built = int(err.split()[1]) if command == "sweep" else 1
    assert built > 0 and len(calls) == built


def test_compare_theorem21_grid():
    argv = [
        "compare",
        "--theorem",
        "2.1",
        "--gamma-grid",
        "0.1:0.7:0.1",
        "--prior-step",
        "0.2",
    ]
    out, err = ok(argv)
    lines = out.splitlines()
    assert lines[0] == serialize.CSV_HEADER
    assert len(lines) == 71  # 7 gammas x 10 admissible triples
    assert all(line.endswith(",true") for line in lines[1:])
    assert "failures: 0" in err
    assert "points: 70" in err


@pytest.mark.parametrize("grid, first, last", [
    ("3e-13:3e-13:1", "3e-13", "3e-13"),  # 12 decimals would read 0
    ("6e-13:6e-13:1", "6e-13", "6e-13"),  # 12 decimals would read 1e-12
    ("0.1:0.3:0.1", "0.1", "0.3"),  # 0.1 + 2 * 0.1 is 0.30000000000000004
])
def test_grid_values_are_rounded_only_to_undo_roundoff(grid, first, last):
    for argv in (["compare", "--theorem", "2.1", "--gamma-grid", grid,
                  "--prior-step", "0.5"],
                 SWEEP_MIXED + ["--grid", f"gamma={grid}"]):
        code, out, err = run(argv)
        assert code == 0 and "skipped: 0" in err
        gammas = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert (gammas[0], gammas[-1]) == (first, last)


def test_compare_summary_counts_skips_per_code():
    argv = ["compare", "--theorem", "2.1", "--gamma-grid", "0:0.8:0.2",
            "--prior-step", "0.5"]
    out, err = ok(argv)
    # gammas 0 and 0.8 are outside (0, 1/sqrt(2)]; 3 triples have p2 >= 1/3
    assert err.strip() == (
        "points: 9  failures: 0  min margin: 0.08  skipped: 6 (GammaOutOfRange: 6)"
    )


def test_compare_json_format():
    argv = [
        "compare",
        "--theorem",
        "3.1",
        "--gamma-grid",
        "0.2:0.4:0.2",
        "--prior-step",
        "0.5",
        "--format",
        "json",
    ]
    out, err = ok(argv)
    payload = json.loads(out)
    assert all(rec["verdict"] is True for rec in payload)
    assert all(rec["alpha"] == rec["gamma"] for rec in payload)


def test_dump_round_trips_through_loader():
    out, _ = ok(["dump"] + MIXED)
    scheme = serialize.scheme_from_json(json.loads(out))
    assert scheme.analytic_success == pytest.approx(0.7, abs=1e-12)
    assert scheme.params.kind == "mixed-special"


def test_output_file_is_written_atomically(tmp_path):
    target = tmp_path / "out.json"
    out, _ = ok(["run"] + MIXED + ["--output", str(target)])
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["analytic_success"] == pytest.approx(0.7, abs=1e-12)
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".statedisc-")]
    assert leftovers == []


#: One run of every command that takes --output.
OUTPUT_COMMANDS = {
    "validate": ["validate"] + MIXED,
    "run": ["run"] + MIXED,
    "dump": ["dump"] + MIXED,
    "simulate": ["simulate"] + MIXED + ["--n", "100"],
    "sweep": ["sweep", "--scheme", "mixed-special", "--priors", "0.3,0.3,0.4",
              "--grid", "gamma=0.1:0.3:0.1"],
    "compare": ["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.3:0.1"],
}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_unwritable_output_is_one_usage_line(tmp_path, command, where):
    target = tmp_path / "out"
    if where == "missing-directory":
        target = tmp_path / "absent" / "out"
    else:
        target.mkdir()  # the temp file goes next to it, into tmp_path
    argv = OUTPUT_COMMANDS[command] + ["--output", str(target)]
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: cannot write --output {target}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.rglob(".statedisc-*")] == []


def test_compare_memory_does_not_grow_with_the_grid(monkeypatch):
    # Blocks of points are compared, formatted and written in turn, so the
    # peak is that of one block: 37 gammas (84,286 points) peak like 10.
    peaks = []
    with open(os.devnull, "w") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        for grid in ("0.01:0.37:0.04", "0.001:0.721:0.02"):
            tracemalloc.start()
            try:
                code = main(["compare", "--theorem", "2.1", "--gamma-grid", grid,
                             "--prior-step", "0.01"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


def test_config_file_supplies_command_and_params(tmp_path):
    cfg = {
        "command": "run",
        "scheme": "mixed-special",
        "params": {"gamma": 0.5},
        "priors": [0.3, 0.3, 0.4],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out, _ = ok(["--config", str(path)])
    assert json.loads(out)["analytic_success"] == pytest.approx(0.7, abs=1e-12)


def test_cli_flags_override_config(tmp_path):
    cfg = {
        "scheme": "mixed-special",
        "params": {"gamma": 0.3},
        "priors": [0.3, 0.3, 0.4],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    out, _ = ok(["run", "--config", str(path), "--gamma", "0.5"])
    payload = json.loads(out)
    assert payload["params"]["gamma"] == 0.5
    assert payload["analytic_success"] == pytest.approx(0.7, abs=1e-12)


def test_config_errors_are_usage_errors(tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run(["run", "--config", str(missing)])
    assert code == 1 and err.startswith("usage error: ")

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run(["run", "--config", str(bad)])
    assert code == 1 and "JSON object" in err

    no_command = tmp_path / "nc.json"
    no_command.write_text("{}")
    code, _, err = run(["--config", str(no_command)])
    assert code == 1 and "names no command" in err

    # Each value is read with its flag's converter or choices, and a value
    # that does not convert is a usage error naming its key.
    simulate = {"command": "simulate", "scheme": "mixed-special",
                "params": {"gamma": 0.5}, "priors": [0.3, 0.3, 0.4], "n": 100}
    zero_aux = {"command": "run", "scheme": "zero-aux", "priors": [0.3, 0.3, 0.4],
                "params": {"g01": 0.06, "g12": [0.3, 0.0], "g20": "0.2"}}
    compare = {"command": "compare", "theorem": "2.1",
               "grid": {"gamma": {"min": 0.1, "max": 0.2, "step": 0.1}}}
    rra = {"command": "run", "scheme": "rra", "priors": [0.5, 0.5],
           "params": {"overlap": 0.36, "c_plus": 0.6, "c_minus": 0.6}}
    trivial = {"command": "run", "scheme": "mixed-special",
               "params": {"gamma": 0.0}, "priors": [0.3, 0.3, 0.4]}
    for base, edit, key in (
        (compare, {"prior_step": "abc"}, "prior_step"),
        (compare, {"p2_min": [1]}, "p2_min"),
        (compare, {"theorem": 2.1}, "theorem"),
        (compare, {"grid": [1]}, "grid"),
        # A compare grid holds only gamma.
        (compare, {"grid": {**compare["grid"],
                            "alpha": {"min": 5, "max": 1, "step": 1}}}, "grid alpha"),
        (simulate, {"n": "x"}, "n"),
        (simulate, {"seed": 1.5e400}, "seed"),  # JSON Infinity
        # A whole-number flag takes an integral float, never a truncation.
        (simulate, {"n": 1000.9}, "n"),
        (simulate, {"n": 1000.5}, "n"),
        (simulate, {"n": True}, "n"),
        (simulate, {"seed": 1.9}, "seed"),
        (simulate, {"shards": 1.99}, "shards"),
        (simulate, {"params": {"gamma": "x"}}, "gamma"),
        (simulate, {"params": [1]}, "params"),
        (simulate, {"priors": "abc"}, "priors"),
        (simulate, {"priors": 5}, "priors"),
        (simulate, {"format": "xml"}, "format"),
        (simulate, {"output": 5}, "output"),
        (simulate, {"scheme": ["rra"]}, "scheme"),
        (zero_aux, {"params": {**zero_aux["params"], "g01": [0.06]}}, "g01"),
        (zero_aux, {"params": {**zero_aux["params"], "g12": ["a", 0]}}, "g12"),
        (zero_aux, {"params": {**zero_aux["params"], "g20": {"re": 0.2}}}, "g20"),
        # A JSON boolean is never a number, and priors are text or a list.
        (simulate, {"params": {"gamma": True}}, "gamma"),
        (compare, {"prior_step": True}, "prior_step"),
        (compare, {"grid": {"gamma": {"min": True, "max": 0.2, "step": 0.1}}},
         "grid"),
        (rra, {"params": {**rra["params"], "c_plus": True}}, "c_plus"),
        (rra, {"params": {**rra["params"], "c_plus": [True, False]}}, "c_plus"),
        (simulate, {"priors": {"0.3": 1, "0.30": 2, "0.4": 3}}, "priors"),
        (simulate, {"priors": [True, False, False]}, "priors"),
        # allow_trivial is a JSON boolean: the text "false" is not false.
        (trivial, {"allow_trivial": "false"}, "allow_trivial"),
        (trivial, {"allow_trivial": 1}, "allow_trivial"),
    ):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps({**base, **edit}))
        code, out, err = run(["--config", str(path)])
        assert code == 1 and out == "", edit
        assert err.startswith("usage error: ") and key in err, (edit, err)


def test_config_values_convert_like_their_flags(tmp_path):
    # A float trial count and numeric strings convert as the flags' own
    # converters read them; a null reads as absent, and a value for a flag
    # simulate lacks is not read.
    job = {"command": "simulate", "scheme": "mixed-special",
           "params": {"gamma": "0.5"}, "priors": [0.3, 0.3, 0.4],
           "n": 1e3, "seed": "7", "shards": None, "prior_step": "abc"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    out, err = ok(["--config", str(path)])
    flags = ["simulate"] + MIXED + ["--n", "1000", "--seed", "7"]
    assert out == run(flags)[1]

    # Nor is params read without the scheme flags, or grid without a grid flag.
    compare = {"command": "compare", "theorem": "2.1", "prior_step": 0.5,
               "grid": {"gamma": {"min": 0.1, "max": 0.2, "step": 0.1}}}
    for job, flags in (
        ({**compare, "params": [1]}, ["compare", "--theorem", "2.1",
                                      "--prior-step", "0.5", "--gamma-grid", "0.1:0.2:0.1"]),
        ({"command": "run", "scheme": "mixed-special", "params": {"gamma": 0.5},
          "priors": [0.3, 0.3, 0.4], "grid": [1]}, ["run"] + MIXED),
    ):
        path.write_text(json.dumps(job))
        code, out, err = run(["--config", str(path)])
        assert code == 0, (job, err)
        assert out == run(flags)[1]


def test_config_priors_text_reads_like_the_flag(tmp_path):
    job = {"command": "run", "scheme": "mixed-special",
           "params": {"gamma": 0.5}, "priors": "0.3,0.3,0.4"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    out, err = ok(["--config", str(path)])
    assert out == run(["run"] + MIXED)[1]

    # Text is split at commas, never read one character at a time.
    job = {"command": "run", "scheme": "rra",
           "params": {"overlap": 0.36, "c_plus": 0.6, "c_minus": 0.6},
           "priors": "11"}
    path.write_text(json.dumps(job))
    code, out, err = run(["--config", str(path)])
    assert code == 1 and out == ""
    assert err == "usage error: scheme rra takes 2 priors, got 1\n"


def test_readme_lists_each_schemes_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for name, kind in SCHEME_KINDS.items():
        flags = " ".join("--" + key.replace("_", "-") for key in kind.inputs)
        row = f"| `{name}` | `{flags}` | {kind.n_priors} |"
        sweepable = f" `{' '.join(kind.sweepable)}` |" if kind.sweepable else " |"
        assert row + sweepable in readme, name


def test_readme_lists_each_commands_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for command, keys in cli._COMMAND_FLAGS.items():
        flags = " ".join("--" + key.replace("_", "-") for key in keys)
        assert f"| `{command}` | `{flags}` |" in readme, command


#: The flags each command reads besides ``--config``; ``scheme`` stands for
#: ``--scheme``, ``--priors``, the kind's inputs and, where the kind has
#: trivial boundaries, ``--allow-trivial``.
READS = {
    "validate": {"scheme", "output"},
    "run": {"scheme", "output", "format"},
    "dump": {"scheme", "output"},
    "simulate": {"scheme", "output", "format", "n", "seed", "shards"},
    "sweep": {"scheme", "output", "format", "grid"},
    "compare": {"output", "format", "theorem", "gamma_grid", "prior_step", "p2_min"},
}
TRIVIAL = {"mixed-special", "mixed-general"}
#: A value each flag reads; ``--allow-trivial`` takes none.
FLAG_VALUES = {
    "scheme": "rra", "priors": "0.3,0.3,0.4", "allow_trivial": None,
    "overlap": "0.28", "c_plus": "0.7", "c_minus": "0.4", "gamma": "0.5",
    "alpha": "0.2", "x0": "0.6", "x1": "0.6", "g01": "0.06", "g12": "0.3",
    "g20": "0.2", "output": "-", "format": "csv", "n": "10", "seed": "1",
    "shards": "1", "grid": "gamma=0.1:0.2:0.1", "theorem": "2.1",
    "gamma_grid": "0.1:0.2:0.1", "prior_step": "0.5", "p2_min": "0",
}
COMPARE = ["compare", "--theorem", "2.1", "--gamma-grid", "0.1:0.2:0.1",
           "--prior-step", "0.5"]


def _valid_argv(command, kind):
    """A run of ``command`` on ``kind`` that exits 0, and the flags it reads."""
    if command == "compare":
        return COMPARE, READS[command]
    reads = READS[command] | {"priors", *SCHEME_KINDS[kind].inputs}
    reads |= {"allow_trivial"} if kind in TRIVIAL else set()
    if command == "sweep":
        reads.remove(SCHEME_KINDS[kind].sweepable[0])
        return _sweep_argv(kind), reads
    argv = [command, "--scheme", kind, *GOLDEN_FLAGS[kind]]
    return argv + (["--n", "10"] if command == "simulate" else []), reads


UNREAD_CASES = [
    (command, kind, key)
    for command in READS
    for kind in (["-"] if command == "compare" else sorted(SCHEME_KINDS))
    if command != "sweep" or SCHEME_KINDS[kind].sweepable
    for key in FLAG_VALUES
    if key not in _valid_argv(command, kind)[1]
]


def test_every_unread_flag_is_a_usage_error():
    # A run that exits 0, plus one flag that the command or the scheme
    # kind does not read, exits 1 with one usage line naming that flag.
    assert len(UNREAD_CASES) > 200
    for command, kind, key in UNREAD_CASES:
        argv, _ = _valid_argv(command, kind)
        assert run(argv)[0] == 0, argv
        flag = "--" + key.replace("_", "-")
        extra = [flag] if FLAG_VALUES[key] is None else [flag, FLAG_VALUES[key]]
        code, out, err = run(argv + extra)
        assert (code, out) == (1, ""), (argv, extra, err)
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert flag in err, (argv, extra, err)


@pytest.mark.parametrize("kind", sorted(SCHEME_KINDS))
def test_every_unread_config_param_is_a_usage_error(tmp_path, kind):
    # The config-file twin: a params key the kind lacks, a params kind that
    # names another scheme, and allow_trivial for a kind without trivial
    # boundaries.
    argv, reads = _valid_argv("run", kind)
    values = {k: FLAG_VALUES[k] for k in SCHEME_KINDS[kind].inputs}
    job = {"command": "run", "scheme": kind, "params": values,
           "priors": argv[argv.index("--priors") + 1]}
    path = tmp_path / "job.json"
    edits = [({"params": {**values, key: "0.1"}}, key)
             for key in ("gamma", "alpha", "x0", "x1", "overlap", "c_plus",
                         "c_minus", "g01", "g12", "g20", "beta") if key not in reads]
    edits.append(({"params": {**values, "kind": "telepathy"}}, "kind"))
    if kind not in TRIVIAL:
        edits.append(({"allow_trivial": True}, "allow_trivial"))
    for edit, key in edits:
        path.write_text(json.dumps({**job, **edit}))
        code, out, err = run(["--config", str(path)])
        flag = "--" + key.replace("_", "-")
        assert (code, out, err) == (1, "", f"usage error: scheme {kind} takes no {flag}\n")
    path.write_text(json.dumps({**job, "params": {**values, "kind": kind}}))
    assert run(["--config", str(path)])[0] == 0


@pytest.mark.parametrize("argv, flag", [
    (["run", "--scheme", "mixed-special", "--gam", "0.5", "--pri", "0.3,0.3,0.4",
      "--form", "csv"], "--gam"),
    (["compare", "--theorem", "2.1", "--gamma-grid", "0.5:0.5:1", "--prior-step",
      "0.5", "--scheme", "rra", "--alpha", "3", "--allow-trivial"], "--scheme"),
    (["dump", "--scheme", "mixed-special", "--gamma", "0.5", "--priors",
      "0.3,0.3,0.4", "--alpha", "0.9", "--x0", "3", "--format", "json"], "--format"),
    (["validate", "--scheme", "zero-aux", "--g01", "0.06", "--g12", "0.3",
      "--g20", "0.2", "--priors", "0.3,0.3,0.4", "--format", "csv",
      "--allow-trivial"], "--format"),
    (["dump", "--scheme", "mixed-special", "--gamma", "0.5", "--priors",
      "0.3,0.3,0.4", "--alpha", "0.9", "--x0", "3"], "--alpha"),
    (["simulate", "--scheme", "zero-aux", *GOLDEN_FLAGS["zero-aux"], "--n", "10",
      "--allow-trivial"], "--allow-trivial"),
    # The grid wins no more over a value for the swept parameter.
    (SWEEP_MIXED + ["--gamma", "0.9", "--grid", "gamma=0.1:0.2:0.1"], "--gamma"),
    # No flag is read from a prefix of its name.
    (COMPARE[:5] + ["--prior-s", "0.5"], "--prior-s"),
    (COMPARE + ["--p2", "0.5"], "--p2"),
    (SWEEP_MIXED + ["--gr", "gamma=0.1:0.2:0.1"], "--gr"),
])
def test_flags_exiting_0_before_are_usage_errors(argv, flag):
    code, out, err = run(argv)
    assert (code, out) == (1, "") and err.count("\n") == 1, err
    assert err.startswith("usage error: ") and flag in err, err


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_flags_a_command_reads(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    shown = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    keys = READS[command] - {"scheme"}
    if "scheme" in READS[command]:
        keys |= {"scheme", "priors", "allow_trivial", *cli._INPUT_TYPES}
    assert shown == {"--help", "--config", *("--" + k.replace("_", "-") for k in keys)}
