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
from statedisc.errors import DiscriminationError

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
