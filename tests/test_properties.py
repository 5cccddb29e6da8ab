"""Property tests over the whole input domain, non-finite values included."""
import contextlib
import dataclasses
import json
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from dense_oracles import dense_family_grid_guard, dense_symmetric_grid
from goldens import run
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statedisc import cli, montecarlo, serialize, tol
from statedisc.analysis import (
    _family_grid_guard,
    _reference_point,
    compare_columns,
    max_unambiguous_symmetric_grid,
    simplex_grid,
    theorem21_check,
    theorem31_check,
)
from statedisc.errors import (
    DiscriminationError,
    GramMismatchError,
    InvariantViolationError,
)
from statedisc.measurement import OutcomeLabel, Povm, unambiguity_check
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


def _outcome(f, *args, **kwargs):
    """The value, or the type of the domain error raised."""
    try:
        return f(*args, **kwargs)
    except DiscriminationError as exc:
        return type(exc)


def _guard_outcome(guard, gamma, p):
    cols = _reference_point("2.1", gamma, p)
    return guard(cols, 1e-2)


@settings(SETTINGS, max_examples=300)
@given(
    st.one_of(st.floats(-(2**-0.5), 2**-0.5), st.sampled_from([2**-0.5, -(2**-0.5)])),
    st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.5, 0.99])),
    st.one_of(normalized(), st.sampled_from(simplex_grid(0.25))),
    st.booleans(),
)
@example(0.5, 0.5, (0.5, 0.0, 0.5), True)  # a row flat up to rounding
def test_row_wise_oracles_equal_the_dense_mesh(gamma, overlap, p, refine):
    # The whole domain of both oracles: theorem 2.1 gammas for the guard,
    # symmetric overlaps in [0, 1), and priors on the simplex.
    args = (overlap, p)
    assert _outcome(max_unambiguous_symmetric_grid, *args, 1e-2, refine) == (
        _outcome(dense_symmetric_grid, *args, 1e-2, refine)
    ), (args, refine)
    args = (gamma, p)
    assert _outcome(_guard_outcome, _family_grid_guard, *args) == (
        _outcome(_guard_outcome, dense_family_grid_guard, *args)
    ), args


def _compare(argv):
    # A lower point bound keeps each drawn run small; grids above it take
    # the same usage-error path as grids above the real bound.
    with mock.patch.object(cli, "MAX_COMPARE_POINTS", 20_000):
        return run(argv)


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
    code, _, err = _compare(["compare", "--theorem", theorem,
                             "--gamma-grid=" + ":".join(repr(v) for v in parts),
                             "--prior-step", "0.5"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@SETTINGS
@given(st.sampled_from(["2.1", "3.1"]), any_float)
def test_compare_prior_step_never_tracebacks(theorem, step):
    code, _, err = _compare(["compare", "--theorem", theorem,
                             "--gamma-grid", "0.1:0.2:0.1", "--prior-step", repr(step)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# --------------------------------------------------------------- builders

HALF_SQRT2 = 2**-0.5
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _mostly(usual, rare):
    """``usual`` about seven draws in eight, ``rare`` the others: the
    strategies below spend most draws on inputs a builder accepts.  The
    rare branch takes the largest index, as Hypothesis favours the least."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else usual)


usually = _mostly(st.just(True), st.just(False))


def _phase(draw, modulus):
    """``modulus`` times a drawn phase, real half the time."""
    if draw(st.booleans()):
        return modulus * draw(st.sampled_from([1.0, -1.0]))
    t = draw(st.floats(-math.pi, math.pi))
    # Python floats: inf * 0.0 is nan without a RuntimeWarning.
    return complex(modulus * math.cos(t), modulus * math.sin(t))


# Priors that sum to 1, or any three floats, non-finite included.
scheme_priors = _mostly(
    st.one_of(normalized(), st.sampled_from(simplex_grid(0.25))),
    st.tuples(any_float, any_float, any_float),
)


def _edges(lo, hi, *points):
    """Floats in [lo, hi], or now and then the named boundary points and
    their neighbours or a non-finite value."""
    near = [q + d for q in points for d in (0.0, -1e-13, 1e-13)]
    return _mostly(
        st.floats(lo, hi),
        st.one_of(st.sampled_from(near), st.sampled_from(NON_FINITE)),
    )


@st.composite
def rra_inputs(draw):
    overlap = draw(_edges(-1.0, 1.0, -1.0, 0.0, 1.0))
    if abs(overlap) <= 1.0 and draw(usually):
        # |c_plus| in [|overlap|, 1] keeps c_minus, from the overlap
        # constraint, at modulus <= 1.
        c_plus = _phase(draw, draw(st.floats(abs(overlap), 1.0)))
        if c_plus == 0.0:
            c_minus = draw(st.complex_numbers(max_magnitude=1.0))
        else:
            c_minus = overlap / complex(c_plus).conjugate()
    else:
        c_plus = draw(st.one_of(
            st.complex_numbers(max_magnitude=1.0),
            st.sampled_from([1.0, -1.0, 1j, 0.0, 1.0 + 1e-13, *NON_FINITE]),
        ))
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
    gamma = draw(_edges(-HALF_SQRT2, HALF_SQRT2, -0.75, -HALF_SQRT2, 0.0,
                        HALF_SQRT2, 0.75))
    return {"gamma": gamma}, draw(scheme_priors)


# |gamma| = 1 - 10^-k: the construction divides by 1 - gamma^2.  Mostly
# k <= 4, where the builders keep their conditioning (lost near k = 4.5).
near_one = st.tuples(
    _mostly(st.floats(1.0, 4.0), st.floats(4.0, 16.0)),
    st.sampled_from([-1.0, 1.0]),
).map(lambda t: t[1] * (1.0 - 10.0 ** -t[0]))


def _within(lo, hi):
    return st.floats(0.0, 1.0).map(lambda u: lo + (hi - lo) * u)


@st.composite
def mixed_general_inputs(draw):
    gamma = draw(st.one_of(_edges(-1.0, 1.0, -1.0, 0.0, 1.0, 0.8), near_one))
    g2 = gamma * gamma
    lo = 2.0 * g2 - 1.0
    # Mostly anywhere in the realizable window [2 gamma^2 - 1, 1], and on
    # the PSD boundary 1 + alpha = 2 gamma^2 (|c| = 1) or alpha = gamma^2.
    alpha = draw(_mostly(
        st.one_of(_within(lo, 1.0), st.sampled_from([lo, g2, g2 + 1e-13, lo + 1e-13])),
        _edges(-1.0, 1.0, -1.0, 0.0, 1.0),
    ))
    return {"gamma": gamma, "alpha": alpha}, draw(scheme_priors)


@st.composite
def unambiguous_special_inputs(draw):
    gamma = draw(_edges(-HALF_SQRT2, HALF_SQRT2, -0.75, -HALF_SQRT2, 0.0, 1e-7,
                        HALF_SQRT2, 0.75))
    g2 = gamma * gamma
    if abs(gamma) <= HALF_SQRT2 + 1e-12 and draw(usually):
        # Feasible: x0 in [gamma^2 / (1 - gamma^2), 1], and x1 from the
        # boundary gamma^2 (1/x0 + 1/x1) = 1 up to 1.
        x0 = draw(_within(g2 / (1.0 - g2), 1.0))
        lo = min(1.0, g2 * x0 / (x0 - g2)) if x0 > g2 else 0.0
        x1 = draw(st.one_of(_within(lo, 1.0), st.just(lo)))
        return {"gamma": gamma, "x0": x0, "x1": x1}, draw(scheme_priors)
    x0 = draw(st.one_of(_edges(0.0, 1.0, 0.0, 1.0), st.sampled_from([g2, 2.0 * g2])))
    # Free, or on the boundary gamma^2 (1/x0 + 1/x1) = 1 when it exists.
    x1 = draw(st.one_of(_edges(0.0, 1.0, 0.0, 1.0), st.sampled_from([g2, 1.0])))
    if x0 > g2 and draw(st.booleans()):
        x1 = g2 * x0 / (x0 - g2)
    return {"gamma": gamma, "x0": x0, "x1": x1}, draw(scheme_priors)


@st.composite
def zero_aux_inputs(draw):
    moduli = st.one_of(_edges(0.0, 1.0, 0.0, 1.0), near_one.map(abs))
    g12 = _phase(draw, draw(moduli))
    g20 = _phase(draw, draw(moduli))
    # Mostly the cyclic constraint g01 = conj(g12 g20), else off it by up to
    # its 1e-10 tolerance, or anything.
    g01 = (complex(g12) * complex(g20)).conjugate()
    g01 += draw(_mostly(st.just(0.0), st.sampled_from([1e-11, -5e-11j, 9e-11])))
    g01 = draw(_mostly(st.just(g01), st.one_of(
        st.complex_numbers(max_magnitude=1.5), st.sampled_from(NON_FINITE)
    )))
    return {"g01": g01, "g12": g12, "g20": g20}, draw(scheme_priors)


BUILDERS = {
    "rra": rra_inputs(),
    "mixed-special": mixed_special_inputs(),
    "mixed-general": mixed_general_inputs(),
    "unambiguous-special": unambiguous_special_inputs(),
    "zero-aux": zero_aux_inputs(),
}
UNAMBIGUOUS = ("rra", "unambiguous-special")
builder_inputs = st.one_of(
    *(st.tuples(st.just(kind), inputs) for kind, inputs in BUILDERS.items())
)


# Each example raised InvariantViolation before the fix named beside it.
@SETTINGS
@given(builder_inputs, st.booleans())
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
# Dividing by 1 - |g12|^2 = 2e-12 lost the measurement vectors'
# orthogonality, and a constraint residual of 5e-11 over 1 - 0.81 did too
# (build_zero_aux).
@example(("zero-aux", ({"g01": (1.0 - 1e-12) * 0.3, "g12": 1.0 - 1e-12,
                        "g20": 0.3}, (0.3, 0.3, 0.4))), False)
@example(("zero-aux", ({"g01": 0.81 + 5e-11, "g12": 0.9, "g20": 0.9},
                       (0.3, 0.3, 0.4))), False)
# These raised a GramMismatch that named no cause: within about 1e-11 of
# either alpha edge, the pair psi0, psi1 is nearly dependent and its
# residual norm divides the synthesis error again (build_mixed_general).
@example(("mixed-general", ({"gamma": 0.1, "alpha": 0.999999999999},
                            (0.3, 0.3, 0.4))), False)
@example(("mixed-general", ({"gamma": 0.5, "alpha": -0.499999999999},
                            (0.3, 0.3, 0.4))), False)
@example(("mixed-general", ({"gamma": 0.5, "alpha": 0.99999999999},
                            (0.3, 0.3, 0.4))), False)
@example(("mixed-general", ({"gamma": 0.9, "alpha": 0.6200000000100001},
                            (0.3, 0.3, 0.4))), False)
@example(("mixed-general", ({"gamma": 0.99, "alpha": 0.96020000000398},
                            (0.3, 0.3, 0.4))), False)
def test_flagged_builders_succeed_or_raise_a_domain_error(case, trivial):
    kind, (values, p) = case
    try:
        scheme = SCHEME_KINDS[kind].build(values, p, trivial)
    except InvariantViolationError as exc:
        raise AssertionError(f"{kind} {values} {p}: {exc}") from exc
    except GramMismatchError as exc:
        # mixed-general's gates reject, naming the quantity, every input
        # whose coupling could not be completed.
        assert kind != "mixed-general", (values, p, str(exc))
        return
    except DiscriminationError:
        return
    if kind in UNAMBIGUOUS:
        # An outcome that never fires (a failure amplitude of modulus 1)
        # fails the check's diagonal test, so the cross terms are asserted.
        _, worst = unambiguity_check(coupled_ensemble(scheme), scheme.povm)
        assert worst <= tol.UNAMBIGUOUS, (kind, values, p, worst)


@SETTINGS
@given(builder_inputs, st.booleans())
def test_scheme_json_round_trip_is_an_identity(case, trivial):
    kind, (values, p) = case
    try:
        scheme = SCHEME_KINDS[kind].build(values, p, trivial)
    except DiscriminationError:
        return
    first = json.loads(json.dumps(serialize.scheme_to_json(scheme)))
    back = serialize.scheme_from_json(first)
    assert serialize.scheme_to_json(back) == first, (kind, values, p)
    assert back.confusion.tobytes() == scheme.confusion.tobytes(), (kind, values, p)
    assert back.pipeline_success == scheme.pipeline_success, (kind, values, p)


@settings(SETTINGS, max_examples=400)
@given(st.one_of(*(st.tuples(st.just(k), BUILDERS[k]) for k in UNAMBIGUOUS)))
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
    fires = all(conf[i, identify[i]] > tol.UNAMBIGUOUS for i in range(n))
    assert worst <= tol.UNAMBIGUOUS and ok == fires, (kind, values, p, worst)


def _builder_argv(command, kind, draw):
    """``command`` on ``kind`` with each builder flag the text of a float or
    of a complex number, as ``repr`` writes it."""
    real = st.one_of(any_float, st.floats(-1.0, 1.0))
    text = st.one_of(real.map(repr), st.builds(complex, real, real).map(repr))
    argv = [command, "--scheme", kind]
    for key in SCHEME_KINDS[kind].inputs:
        argv.append(f"--{key.replace('_', '-')}={draw(text, label=key)}")
    return argv + ["--priors", "0.5,0.5" if kind == "rra" else "0.3,0.3,0.4"]


@st.composite
def _builder_commands(draw):
    command = draw(st.sampled_from(["run", "validate", "dump"]))
    kind = draw(st.sampled_from(sorted(SCHEME_KINDS)))
    return _builder_argv(command, kind, draw)


@SETTINGS
@given(_builder_commands())
# The overlap constraints printed numpy scalar reprs (schemes).
@example(["validate", "--scheme", "rra", "--overlap", "-1.0", "--c-plus", "0.25",
          "--c-minus", "1.0", "--priors", "0.5,0.5"])
@example(["validate", "--scheme", "zero-aux", "--g01", "0.5", "--g12", "0",
          "--g20", "0", "--priors", "0.3,0.3,0.4"])
def test_builder_flags_never_traceback(argv):
    code, _, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "np." not in err, err


SWEEPABLE = sorted(k for k, v in SCHEME_KINDS.items() if v.sweepable)


@SETTINGS
@given(st.sampled_from(SWEEPABLE), st.data())
def test_sweep_flags_never_traceback(kind, data):
    argv = ["sweep", "--scheme", kind, "--priors", "0.3,0.3,0.4"]
    param = data.draw(st.sampled_from(SCHEME_KINDS[kind].sweepable), label="param")
    for key in SCHEME_KINDS[kind].inputs:  # each a real number
        if key != param:  # the grid gives the swept one
            value = data.draw(st.one_of(any_float, st.floats(-1.0, 1.0)), label=key)
            argv.append(f"--{key}={value!r}")
    slots = (st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.1, 1.0))
    grid = [data.draw(st.one_of(usual, any_float), label="grid") for usual in slots]
    argv.append(f"--grid={param}=" + ":".join(map(repr, grid)))
    # A lower bound keeps each drawn grid small; grids above it take the
    # same usage-error path as grids above the real bound.
    with mock.patch.object(cli, "MAX_COMPARE_POINTS", 24):
        code, _, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def _number_text(usual, lo=None, hi=None):
    """Mostly the text of an integer in ``usual``, else of any integer in
    [lo, hi] or of any float, ``nan`` and ``inf`` included."""
    rare = st.one_of(st.integers(lo, hi).map(str), any_float.map(repr))
    return _mostly(usual.map(str), rare)


@SETTINGS
@given(
    st.sampled_from(sorted(SCHEME_KINDS)),
    st.data(),
    # At most 10^5 trials keeps every example short.
    _number_text(st.integers(1, 10**5), hi=10**5),
    _number_text(st.integers(0, 2**64 - 1)),
    _number_text(st.integers(1, 8)),
)
def test_simulate_flags_never_traceback(kind, data, n, seed, shards):
    argv = _builder_argv("simulate", kind, data.draw)
    argv += [f"--n={n}", f"--seed={seed}", f"--shards={shards}"]
    code, _, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# ---------------------------------------------------------------- simulate

def _reference_counts(scheme, n, seed, shards, chunk):
    """The tally of a plain binary-search sampler: ``searchsorted`` for the
    state, then a comparison sum over the state's gathered cumulative row
    for the outcome, on the uniforms ``Generator.random`` makes of each
    shard's raw Philox words."""
    conf = scheme.confusion
    n_states, n_out = conf.shape
    cum_priors = np.cumsum(scheme.ensemble.priors)
    cum_priors[-1] = 1.0
    cum_rows = np.cumsum(conf / conf.sum(axis=1, keepdims=True), axis=1)
    cum_rows[:, -1] = 1.0
    counts = np.zeros(n_states * n_out, dtype=np.int64)
    base, rem = divmod(n, shards)
    for k in range(shards):
        bits = np.random.Philox(key=(k << 64) | seed)
        n_k = base + (k < rem)
        for start in range(0, n_k, chunk):
            words = bits.random_raw(2 * min(chunk, n_k - start))
            u = ((words >> 11) * 2.0**-53).reshape(-1, 2)
            states = np.searchsorted(cum_priors, u[:, 0], side="right")
            outcomes = (cum_rows[states] <= u[:, 1:]).sum(axis=1)
            counts += np.bincount(states * n_out + outcomes, minlength=counts.size)
    return counts.reshape(n_states, n_out)


def _tie_philox(scheme, seed):
    """A stand-in for ``np.random.Philox`` whose raw words cycle through
    t(c), t(c) +- 1 and t(c) +- 2^11 for every cumulative cut c of the
    scheme, where t(c) = ceil(c * 2^53) * 2^11 is the least word whose
    uniform reaches c, and through the words 0 and 2^64 - 1, shuffled by
    ``seed``: the samplers meet words on a threshold and either side of it,
    and uniforms either side of it."""
    conf = scheme.confusion
    cuts = np.concatenate([
        np.cumsum(scheme.ensemble.priors),
        np.cumsum(conf / conf.sum(axis=1, keepdims=True), axis=1).ravel(),
        [0.0, 0.5],
    ])
    ties = {math.ceil(c * 2**53) * 2**11 for c in cuts.tolist() if 0.0 <= c < 1.0}
    words = {t + d for t in ties for d in (-(2**11), -1, 0, 1, 2**11)} | {0, 2**64 - 1}
    words = np.array(sorted(w for w in words if 0 <= w < 2**64), dtype=np.uint64)
    values = np.random.default_rng(seed).permutation(words)

    class Ties(np.random.Philox):
        def random_raw(self, size=None, output=True):
            # A stream split at an even row starts where its Philox counter
            # stands, four words per counter step; the buffer holds the
            # words of the last step not yet drawn.
            state = self.state
            at = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
            super().random_raw(size, output=False)
            return values[np.arange(at, at + size) % values.size]

    return Ties


def _matches_reference(scheme, n, seed, shards, chunk, ties):
    """Whether ``simulate``'s tally equals ``_reference_counts``', both on
    Philox words or, with ``ties``, both on ``_tie_philox``'s."""
    with mock.patch.object(montecarlo, "_CHUNK", chunk), contextlib.ExitStack() as stack:
        if ties:
            stack.enter_context(mock.patch.object(
                np.random, "Philox", _tie_philox(scheme, seed)))
        expected = _reference_counts(scheme, n, seed, shards, chunk)
        counts = montecarlo.simulate(scheme, n, seed, shards).counts
    return counts.tobytes() == expected.tobytes()


#: (seed, shards, chunk, ties) for the guide-table cases below.
RUNS = [(0, 1, 4097, False), (2**64 - 1, 3, 1000, False), (5, 2, 97, True),
        (2**64 - 1, 1, 4097, True)]


@SETTINGS
@given(
    builder_inputs,
    st.integers(1, 64),
    st.integers(0, 4),
    st.integers(-1, 1),
    st.integers(0, 2**64 - 1),
    st.integers(1, 7),
    st.booleans(),
)
# Zero priors, and zero confusion entries in an unambiguous scheme.
@example(("unambiguous-special", ({"gamma": 0.5, "x0": 0.5, "x1": 0.5},
                                  (0.5, 0.0, 0.5))), 7, 3, 1, 2**64 - 1, 7, True)
@example(("mixed-special", ({"gamma": 0.5}, (0.0, 0.0, 1.0))), 1, 4, 0, 0, 2, False)
def test_threshold_counts_equal_the_binary_search_tally(
    case, chunk, chunks, offset, seed, shards, ties
):
    # n lies within one trial of a multiple of the chunk, and the seed
    # takes the whole key range; with ``ties`` the words are the thresholds'
    # words and their neighbours instead of Philox draws.
    kind, (values, p) = case
    try:
        scheme = SCHEME_KINDS[kind].build(values, p, False)
    except DiscriminationError:
        return
    n = max(1, chunk * chunks + offset)
    shards = min(shards, n)
    assert _matches_reference(scheme, n, seed, shards, chunk, ties), (
        kind, values, p, n, seed, shards)


@pytest.mark.parametrize("guide_bits", [1, 2])
@pytest.mark.parametrize("kind, values, p", [
    ("mixed-special", {"gamma": 0.5}, (0.3, 0.3, 0.4)),
    ("zero-aux", {"g01": 0.09, "g12": 0.3, "g20": 0.3}, (1 / 3, 1 / 3, 1 / 3)),
    ("rra", {"overlap": 0.24, "c_plus": 0.6, "c_minus": 0.4}, (0.6, 0.4)),
])
def test_narrow_guide_tables_match_the_reference(monkeypatch, guide_bits, kind, values, p):
    # With 2 or 4 buckets most buckets hold a cut, so most rows take the
    # exact count instead of the tables.
    monkeypatch.setattr(montecarlo, "_GUIDE_BITS", guide_bits)
    scheme = SCHEME_KINDS[kind].build(values, p, False)
    for seed, shards, chunk, ties in RUNS:
        assert _matches_reference(scheme, 20001, seed, shards, chunk, ties), (seed, ties)


def _with_confusion(priors, conf):
    """A stand-in scheme with these priors and confusion matrix, and
    mixed-special's POVM labels: all that ``simulate`` reads of a scheme."""
    base = SCHEME_KINDS["mixed-special"].build({"gamma": 0.5}, (0.3, 0.3, 0.4), False)
    return SimpleNamespace(confusion=np.array(conf), povm=base.povm,
                           ensemble=SimpleNamespace(priors=np.array(priors)))


#: Cumulative sums on bucket edges at every width tried: multiples of
#: 2^-12, which start a bucket, and 0.5 - 2^-53, the last uniform of one.
#: Row 0 has a cut at 0, row 1 every cut at 1, row 2 a repeated cut; each
#: 0 is an outcome that no trial may show.
EDGE_CONFUSION = [[0.0, 0.25, 0.25 - 2.0**-53, 0.5 + 2.0**-53],
                  [1.0, 0.0, 0.0, 0.0],
                  [2.0**-12, 0.0, 0.5 - 2.0**-12, 0.5]]


@pytest.mark.parametrize("guide_bits", [1, 2, 12, 13])
@pytest.mark.parametrize("priors", [(0.25, 0.0, 0.75), (0.0, 0.5, 0.5), (1.0, 0.0, 0.0)])
def test_cuts_on_bucket_edges_at_0_and_1_and_repeated(monkeypatch, guide_bits, priors):
    monkeypatch.setattr(montecarlo, "_GUIDE_BITS", guide_bits)
    scheme = _with_confusion(priors, EDGE_CONFUSION)
    for seed, shards, chunk, ties in RUNS:
        assert _matches_reference(scheme, 20001, seed, shards, chunk, ties), (seed, ties)
    counts = montecarlo.simulate(scheme, 20001, 3).counts
    assert not counts[np.array(EDGE_CONFUSION) == 0.0].any()
    assert not counts[np.array(priors) == 0.0].any()


def test_more_than_255_cells_take_a_wider_cell_index():
    # A scheme has one outcome per POVM element, and a Scheme or a loaded
    # file may split an element at will: mixed-special's inconclusive one
    # in 90 parts gives 3 x 93 cells, past what an 8-bit cell holds.
    base = SCHEME_KINDS["mixed-special"].build({"gamma": 0.5}, (0.3, 0.3, 0.4), False)
    *identify, rest = base.povm.elements
    weights = np.arange(1.0, 91.0) / np.arange(1.0, 91.0).sum()
    povm = Povm((*identify, *(w * rest for w in weights)),
                (*base.povm.labels[:-1], *[OutcomeLabel.inconclusive()] * 90))
    scheme = dataclasses.replace(base, povm=povm)
    assert scheme.confusion.size == 279
    for seed, shards, chunk, ties in RUNS:
        assert _matches_reference(scheme, 20001, seed, shards, chunk, ties), (seed, ties)
