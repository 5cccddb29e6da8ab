"""Property tests over the whole input domain, non-finite values included."""
import contextlib
import io
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statedisc import cli
from statedisc.analysis import (
    compare_columns,
    simplex_grid,
    theorem21_check,
    theorem31_check,
)
from statedisc.errors import DiscriminationError, InvariantViolationError
from statedisc.measurement import TOL_UNAMBIGUOUS, unambiguity_check
from statedisc.schemes import SCHEME_KINDS, coupled_ensemble, scheme_confusion

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

any_float = st.floats(allow_nan=True, allow_infinity=True)
gammas = st.one_of(
    any_float, st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 2**-0.5])
)


@st.composite
def normalized(draw):
    w = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    total = sum(w)
    return tuple(x / total for x in w) if total > 0.0 else (0.0, 0.0, 1.0)


priors = st.one_of(
    st.tuples(any_float, any_float, any_float),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4).map(tuple),
    normalized(),
    st.sampled_from(simplex_grid(0.25)),
)
CHECKS = {"2.1": theorem21_check, "3.1": theorem31_check}


def _scalar(check, gamma, p):
    try:
        return CHECKS[check](gamma, p)
    except DiscriminationError as exc:
        return type(exc)


@SETTINGS
@given(
    st.sampled_from(sorted(CHECKS)),
    st.lists(gammas, min_size=1, max_size=4),
    st.lists(priors, min_size=1, max_size=4),
)
def test_batch_rows_equal_one_row_calls(check, gs, ps):
    batch = compare_columns(check, gs, ps)
    assert len(batch) == len(gs) * len(ps)
    for i, (g, p) in enumerate((g, p) for g in gs for p in ps):
        one = compare_columns(check, [g], [p])
        assert batch.code[i] == one.code[0]
        if batch.code[i] == 0:
            for name in ("p_mixed", "p_una_reference", "reference", "margin",
                         "x0", "x1", "xu_case", "verdict", "priors"):
                a, b = getattr(batch, name)[i], getattr(one, name)[0]
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
            assert batch.record(i) == _scalar(check, g, p)
        else:
            assert type(batch.error(i)) is _scalar(check, g, p)


def _compare(argv):
    out, err = io.StringIO(), io.StringIO()
    # A lower point bound keeps each drawn run small; grids above it take
    # the same usage-error path as grids above the real bound.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "MAX_COMPARE_POINTS", 20_000):
        code = cli.main(argv)
    return code, err.getvalue()


@SETTINGS
@given(
    st.sampled_from(["2.1", "3.1"]),
    st.integers(0, 2),
    any_float,
    st.sampled_from([-0.2, 0.1, 0.5, 0.9]),
)
@example("2.1", 0, 1.797693134862316e307, -0.2)  # (max - min) / step is -inf
def test_compare_gamma_grid_never_tracebacks(theorem, slot, value, other):
    parts = [other, other + 0.3, 0.1]
    parts[slot] = value
    code, err = _compare(["compare", "--theorem", theorem,
                          "--gamma-grid=" + ":".join(repr(v) for v in parts),
                          "--prior-step", "0.5"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@SETTINGS
@given(st.sampled_from(["2.1", "3.1"]), any_float)
def test_compare_prior_step_never_tracebacks(theorem, step):
    code, err = _compare(["compare", "--theorem", theorem,
                          "--gamma-grid", "0.1:0.2:0.1", "--prior-step", repr(step)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# ------------------------------------------------ flagged-ancilla builders

HALF_SQRT2 = 2**-0.5
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
scheme_priors = st.one_of(
    normalized(),
    st.sampled_from(simplex_grid(0.25)),
    st.tuples(any_float, any_float, any_float),
)


def _edges(lo, hi, *points):
    """Floats in [lo, hi], the named boundary points and their neighbours,
    and the non-finite values."""
    near = [q + d for q in points for d in (0.0, -1e-13, 1e-13)]
    return st.one_of(
        st.floats(lo, hi), st.sampled_from(near), st.sampled_from(NON_FINITE)
    )


@st.composite
def rra_inputs(draw):
    overlap = draw(_edges(-1.0, 1.0, -1.0, 0.0, 1.0))
    c_plus = draw(st.one_of(
        st.complex_numbers(max_magnitude=1.0),
        st.sampled_from([1.0, -1.0, 1j, 0.0, 1.0 + 1e-13, *NON_FINITE]),
    ))
    finite = np.isfinite(c_plus)  # dividing by an infinite amplitude warns
    if finite and abs(c_plus) >= abs(overlap) > 0.0 and draw(st.booleans()):
        # Satisfy the overlap constraint with |c_minus| <= 1.
        c_minus = overlap / np.conj(c_plus)
    else:
        c_minus = draw(st.one_of(
            st.complex_numbers(max_magnitude=1.5), st.sampled_from(NON_FINITE)
        ))
    values = {"overlap": overlap, "c_plus": c_plus, "c_minus": c_minus}
    p = draw(st.one_of(
        st.sampled_from([(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)]),
        st.floats(0.0, 1.0).map(lambda a: (a, 1.0 - a)),
    ))
    return values, p


@st.composite
def mixed_special_inputs(draw):
    gamma = draw(_edges(-0.75, 0.75, -HALF_SQRT2, 0.0, HALF_SQRT2))
    return {"gamma": gamma}, draw(scheme_priors)


# |gamma| = 1 - 10^-k: the construction divides by 1 - gamma^2.
near_one = st.tuples(st.floats(2.0, 16.0), st.sampled_from([-1.0, 1.0])).map(
    lambda t: t[1] * (1.0 - 10.0 ** -t[0])
)


@st.composite
def mixed_general_inputs(draw):
    gamma = draw(st.one_of(_edges(-1.0, 1.0, -1.0, 0.0, 1.0, 0.8), near_one))
    g2 = gamma * gamma
    lo = 2.0 * g2 - 1.0
    # Free, the PSD boundary 1 + alpha = 2 gamma^2 (|c| = 1), alpha = gamma^2,
    # and anywhere in the realizable window [2 gamma^2 - 1, 1].
    alpha = draw(st.one_of(
        _edges(-1.0, 1.0, -1.0, 0.0, 1.0),
        st.sampled_from([lo, g2, g2 + 1e-13, lo + 1e-13]),
        st.floats(0.0, 1.0).map(lambda u: lo + (1.0 - lo) * u),
    ))
    return {"gamma": gamma, "alpha": alpha}, draw(scheme_priors)


@st.composite
def unambiguous_special_inputs(draw):
    gamma = draw(_edges(-0.75, 0.75, -HALF_SQRT2, 0.0, 1e-7, HALF_SQRT2))
    g2 = gamma * gamma
    x0 = draw(st.one_of(_edges(0.0, 1.0, 0.0, 1.0), st.sampled_from([g2, 2.0 * g2])))
    # Free, or on the boundary gamma^2 (1/x0 + 1/x1) = 1 when it exists.
    x1 = draw(st.one_of(_edges(0.0, 1.0, 0.0, 1.0), st.sampled_from([g2, 1.0])))
    if x0 > g2 and draw(st.booleans()):
        x1 = g2 * x0 / (x0 - g2)
    return {"gamma": gamma, "x0": x0, "x1": x1}, draw(scheme_priors)


FLAGGED = {
    "rra": rra_inputs(),
    "mixed-special": mixed_special_inputs(),
    "mixed-general": mixed_general_inputs(),
    "unambiguous-special": unambiguous_special_inputs(),
}
UNAMBIGUOUS = ("rra", "unambiguous-special")
flagged_inputs = st.one_of(
    *(st.tuples(st.just(kind), inputs) for kind, inputs in FLAGGED.items())
)


# Each example raised InvariantViolation before the fix named beside it.
@SETTINGS
@given(flagged_inputs, st.booleans())
# Near dependence: the residual norms of the second pair differed, and the
# map missed its image (linalg.isometry_completion).
@example(("rra", ({"overlap": -0.9999999999999, "c_plus": -0.9999999999999999j,
                   "c_minus": 0.9999999999999002j}, (0.0, 1.0))), False)
@example(("rra", ({"overlap": -0.9999999999999, "c_plus": 1.0000000000001,
                   "c_minus": -0.9999999999998}, (0.0, 1.0))), False)
# A subnormal Cholesky pivot overflowed its phase (linalg.psd_cholesky).
@example(("mixed-general", ({"gamma": 5e-324, "alpha": -0.9999999999999},
                            (0.25, 0.75, 0.0))), False)
# A negative failure probability inside the boundary slack took a square
# root of a negative number (build_unambiguous_special).
@example(("unambiguous-special", ({"gamma": 0.0, "x0": -1e-13, "x1": 1.0},
                                  (1.0, 0.0, 0.0))), False)
# A pair skipped as dependent with residual norms near 1e-8 (linalg).
@example(("unambiguous-special", ({"gamma": 0.7071067811866476,
                                   "x0": 1.0000000000001,
                                   "x1": 1.0000000000004663},
                                  (0.25, 0.0, 0.75))), False)
# NaN passed every bound written as ``value > bound`` (the builders).
@example(("mixed-special", ({"gamma": float("nan")}, (0.0, 0.0, 1.0))), False)
# 1 - gamma^2 magnified the synthesis roundoff past the coupling's action
# gate (build_mixed_general).
@example(("mixed-general", ({"gamma": 0.9999981757030961,
                             "alpha": 0.9999999396159988},
                            (0.3, 0.3, 0.4))), False)
def test_flagged_builders_succeed_or_raise_a_domain_error(case, trivial):
    kind, (values, p) = case
    try:
        scheme = SCHEME_KINDS[kind].build(values, p, trivial)
    except InvariantViolationError as exc:
        raise AssertionError(f"{kind} {values} {p}: {exc}") from exc
    except DiscriminationError:
        return
    if kind in UNAMBIGUOUS:
        # An outcome that never fires (a failure amplitude of modulus 1)
        # fails the check's diagonal test, so the cross terms are asserted.
        _, worst = unambiguity_check(coupled_ensemble(scheme), scheme.povm)
        assert worst <= TOL_UNAMBIGUOUS, (kind, values, p, worst)


# About one draw in eight builds, so this property draws more.
@settings(SETTINGS, max_examples=400)
@given(st.one_of(*(st.tuples(st.just(k), FLAGGED[k]) for k in UNAMBIGUOUS)))
def test_unambiguous_success_is_one_minus_the_inconclusive_weight(case):
    kind, (values, p) = case
    try:
        scheme = SCHEME_KINDS[kind].build(values, p, False)
    except DiscriminationError:
        return
    conf = scheme_confusion(scheme)
    priors = scheme.ensemble.priors
    n = len(priors)
    identify = [scheme.povm.identify_outcome(i) for i in range(n)]
    (fail,) = [x for x, lab in enumerate(scheme.povm.labels) if not lab.is_identify]
    direct = sum(priors[i] * conf[i, identify[i]] for i in range(n))
    complement = 1.0 - sum(priors[i] * conf[i, fail] for i in range(n))
    assert abs(direct - complement) <= 1e-10, (kind, values, p)
    # The check fails only on a state its outcome never identifies.
    ok, worst = unambiguity_check(coupled_ensemble(scheme), scheme.povm)
    fires = all(conf[i, identify[i]] > TOL_UNAMBIGUOUS for i in range(n))
    assert worst <= TOL_UNAMBIGUOUS and ok == fires, (kind, values, p, worst)


@SETTINGS
@given(
    st.sampled_from(["run", "validate", "dump"]),
    st.sampled_from(sorted(SCHEME_KINDS)),
    st.data(),
)
def test_builder_flags_never_traceback(command, kind, data):
    # The text of a float or of a complex number, as ``repr`` writes it.
    real = st.one_of(any_float, st.floats(-1.0, 1.0))
    text = st.one_of(real.map(repr), st.builds(complex, real, real).map(repr))
    argv = [command, "--scheme", kind]
    for key in SCHEME_KINDS[kind].inputs:
        argv.append(f"--{key.replace('_', '-')}={data.draw(text, label=key)}")
    argv += ["--priors", "0.5,0.5" if kind == "rra" else "0.3,0.3,0.4"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
