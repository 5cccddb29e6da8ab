"""Byte-stable readouts of ``run``, ``validate`` and ``sweep``.

``golden_readouts.json`` was captured from the package while every
command still recomputed the pipeline on its own, before ``Scheme`` kept
the confusion matrix, pipeline success and residuals it computes.  For
every input of ``golden.json`` and ``golden_branches.json`` it holds the
sha256 of the stdout of ``run`` (JSON and ``--format csv``) and
``validate``; for one sweep per sweepable kind, the sha256 of its CSV and
JSON stdout and its stderr summary line.  Each entry keeps its argv.

The same inputs check the stored readout of each built scheme against a
fresh, independent run of the pipeline on its operators.
"""
import dataclasses

import goldens
import numpy as np
import pytest

from statedisc import cli, linalg, measurement, schemes
from statedisc.montecarlo import brute_force_success
from statedisc.schemes import SCHEME_KINDS

READOUTS = goldens.load("golden_readouts.json")
#: The flags of every input of ``golden.json`` and ``golden_branches.json``.
INPUTS = {case: flags for case, (flags, _) in goldens.dump_inputs().items()}
#: The pinned readouts of each golden input, with their extra flags.
COMMANDS = {"run": [], "run csv": ["--format", "csv"], "validate": []}


def readout_argvs() -> dict:
    """The argv of each pinned ``run``/``validate`` readout, by case name."""
    return {
        f"{label} {name}": [label.split()[0], *flags, *extra]
        for name, flags in INPUTS.items()
        for label, extra in COMMANDS.items()
    }


def test_every_golden_input_and_sweepable_kind_is_pinned():
    assert len(INPUTS) == 17
    pinned = {k: ref["argv"] for k, ref in READOUTS["commands"].items()}
    assert pinned == readout_argvs()
    swept = {ref["argv"][ref["argv"].index("--scheme") + 1]
             for ref in READOUTS["sweep"].values()}
    assert swept == {k for k, kind in SCHEME_KINDS.items() if kind.sweepable}


@pytest.mark.parametrize("case", sorted(READOUTS["commands"]))
def test_command_stdout_bytes(case):
    ref = READOUTS["commands"][case]
    out, _ = goldens.ok(ref["argv"])
    goldens.same(goldens.sha(out), ref["stdout_sha256"], f"the {case} stdout sha256")


@pytest.mark.parametrize("case", sorted(READOUTS["sweep"]))
def test_sweep_stdout_bytes_and_summary(case):
    ref = READOUTS["sweep"][case]
    for fmt in ("csv", "json"):
        out, err = goldens.ok([*ref["argv"], "--format", fmt])
        goldens.same(goldens.sha(out), ref[f"{fmt}_sha256"], f"the {case} {fmt} sha256")
        assert err == ref["stderr"]


def _scheme(flags) -> schemes.Scheme:
    args = cli._build_parser().parse_args(["run", *flags])
    return cli._build_scheme(cli._merge_config(args))


@pytest.mark.parametrize("case", sorted(INPUTS))
def test_stored_readout_is_a_fresh_pipeline_run_bit_for_bit(case):
    s = _scheme(INPUTS[case])
    fresh = measurement.pure_confusion(schemes._coupled_vectors(s), s.povm)
    assert s.confusion.shape == fresh.shape
    assert s.confusion.tobytes() == fresh.tobytes()
    assert schemes.scheme_confusion(s) is s.confusion
    assert not s.confusion.flags.writeable
    with pytest.raises(ValueError):
        s.confusion[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.confusion = fresh

    total = 0.0
    for i, prior in enumerate(s.ensemble.priors):
        total += float(prior) * float(fresh[i, s.povm.identify_outcome(i)])
    assert s.pipeline_success == total
    assert brute_force_success(s) == min(1.0, max(0.0, s.pipeline_success))

    # The residuals validate printed before the constructor kept them.
    eye = np.eye(len(s.coupling))
    unitarity = linalg.frobenius(linalg.dag(s.coupling) @ s.coupling - eye)
    assert s.unitarity_residual == unitarity
    completeness = linalg.frobenius(sum(s.povm.elements) - eye.astype(complex))
    assert s.povm.completeness_residual == completeness
