from typing import get_type_hints
from unittest import mock

import numpy as np
import pytest

from statedisc import linalg, schemes, serialize
from statedisc.errors import (
    AmplitudeOutOfRangeError,
    DiscriminationError,
    DimensionMismatchError,
    GammaOutOfRangeError,
    GramNotPsdError,
    HypothesisViolatedError,
    InfeasibleAmplitudesError,
    InvariantViolationError,
    InvalidGammaError,
    OverlapConstraintViolatedError,
    ParamOutOfRangeError,
    ZeroProbabilityOutcomeError,
)
from statedisc.analysis import theorem21_check, theorem31_check
from statedisc.measurement import unambiguity_check
from statedisc.schemes import (
    SCHEME_KINDS,
    Scheme,
    build_mixed_general,
    build_mixed_special,
    build_rra,
    build_unambiguous_special,
    build_zero_aux,
    coupled_ensemble,
    scheme_confusion,
    separable_decomposition,
    xu_max_unambiguous,
    zero_aux_posterior,
)
from statedisc.states import Ensemble, Ket


SQRT2_INV = 1.0 / np.sqrt(2.0)


def random_simplex(rng, floor=0.0):
    while True:
        p = rng.dirichlet([1.0, 1.0, 1.0])
        if p.min() >= floor:
            return tuple(float(x) for x in p)


def rra_pair(overlap):
    c = np.sqrt((1.0 + overlap) / 2.0)
    s = np.sqrt((1.0 - overlap) / 2.0)
    return Ket(np.array([c, s])), Ket(np.array([c, -s]))


# ---------------------------------------------------------------- mixed special


def test_mixed_special_matches_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(40):
        gamma = float(rng.uniform(0.05, 0.70))
        p = random_simplex(rng)
        s = build_mixed_special(gamma, p)
        want = 1.0 - 2.0 * gamma**2 * (1.0 - p[2])
        assert s.analytic_success == pytest.approx(want, abs=1e-12)


def test_mixed_special_confusion_oracle():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    conf = scheme_confusion(s)
    assert np.allclose(conf[0], [0.5, 0.0, 0.25, 0.25], atol=1e-12)
    assert np.allclose(conf[1], [0.0, 0.5, 0.25, 0.25], atol=1e-12)
    assert np.allclose(conf[2], [0.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert s.analytic_success == pytest.approx(0.7, abs=1e-12)


def test_mixed_special_boundary_gamma():
    s = build_mixed_special(SQRT2_INV, (0.25, 0.25, 0.5))
    conf = scheme_confusion(s)
    assert s.analytic_success == pytest.approx(0.5, abs=1e-12)
    # identifying outcomes for the first two states die at the boundary
    assert abs(conf[:, :2]).max() < 1e-12


def test_mixed_special_inconclusive_never_fires_on_third_state():
    rng = np.random.default_rng(42)
    for _ in range(10):
        gamma = float(rng.uniform(0.05, SQRT2_INV))
        s = build_mixed_special(gamma, random_simplex(rng))
        conf = scheme_confusion(s)
        assert conf[2, 3] < 1e-10
        # outcomes 0 and 1 are unambiguous against all three states
        assert conf[1, 0] < 1e-10 and conf[2, 0] < 1e-10
        assert conf[0, 1] < 1e-10 and conf[2, 1] < 1e-10


def test_mixed_special_coupled_state_structure():
    gamma = 0.5
    s = build_mixed_special(gamma, (0.3, 0.3, 0.4))
    w0, w1, w2 = coupled_ensemble(s).states
    b = np.sqrt(1.0 - 2.0 * gamma**2)
    # third coupled state is |2>|0a> exactly
    want2 = np.zeros(6, dtype=complex)
    want2[4] = 1.0
    assert np.linalg.norm(w2 - want2) < 1e-10
    # first state: b on (|0>+|1>)/sqrt2 x |0a>, i*gamma on |1>|1a|, gamma on |2>|0a>
    assert abs(w0[0] - b / np.sqrt(2)) < 1e-10
    assert abs(w0[2] - b / np.sqrt(2)) < 1e-10
    assert abs(w0[4] - gamma) < 1e-10
    assert abs(abs(w0[3]) - gamma) < 1e-10
    assert abs(w0[3].real) < 1e-10  # interference amplitude is purely imaginary
    assert abs(w0[3] + w1[3]) < 1e-10  # opposite signs between the pair


def test_mixed_special_rejects_bad_gamma():
    with pytest.raises(GammaOutOfRangeError):
        build_mixed_special(0.9, (0.3, 0.3, 0.4))
    with pytest.raises(GammaOutOfRangeError):
        build_mixed_special(0.0, (0.3, 0.3, 0.4))
    # trivial overlap admitted only on request
    s = build_mixed_special(0.0, (0.3, 0.3, 0.4), allow_trivial=True)
    assert s.analytic_success == pytest.approx(1.0)


def test_mixed_special_rejects_bad_priors():
    with pytest.raises(ParamOutOfRangeError):
        build_mixed_special(0.5, (0.5, 0.6, -0.1))
    with pytest.raises(DimensionMismatchError):
        build_mixed_special(0.5, (0.5, 0.5))


PRIOR_TAKERS = {
    "rra": lambda p: build_rra(
        Ket(np.array([0.8, 0.6])), Ket(np.array([0.8, -0.6])), p[:2], 0.7, 0.4
    ),
    "mixed-special": lambda p: build_mixed_special(0.5, p),
    "mixed-general": lambda p: build_mixed_general(0.5, 0.2, p),
    "unambiguous-special": lambda p: build_unambiguous_special(0.5, 0.6, 0.6, p),
    "zero-aux": lambda p: build_zero_aux(0.06, 0.3, 0.2, p),
    "xu_max_unambiguous": lambda p: xu_max_unambiguous(0.3, p),
    "theorem21_check": lambda p: theorem21_check(0.5, p),
    "theorem31_check": lambda p: theorem31_check(0.3, p),
}


@pytest.mark.parametrize(
    "priors",
    [(0.7, -0.1, 0.4), (0.5, 0.3, 0.4), (float("nan"), 0.5, 0.5)],
    ids=["negative", "not-normalized", "nan"],
)
@pytest.mark.parametrize("taker", sorted(PRIOR_TAKERS))
def test_bad_priors_are_out_of_range(taker, priors):
    # rra takes the first two priors; each pair is bad on its own too.
    with pytest.raises(ParamOutOfRangeError):
        PRIOR_TAKERS[taker](priors)


# ---------------------------------------------------------------- mixed general


def test_mixed_general_low_overlap_branch():
    s = build_mixed_general(0.5, 0.1, (0.25, 0.25, 0.5))
    want = 1.0 - (2.0 * 0.25 - 0.1) * 0.5
    assert s.analytic_success == pytest.approx(want, abs=1e-12)
    assert "alpha < gamma^2" in s.branch_note


def test_mixed_general_high_overlap_branch():
    s = build_mixed_general(0.5, 0.6, (0.25, 0.25, 0.5))
    assert s.analytic_success == pytest.approx(1.0 - 0.6 * 0.5, abs=1e-12)
    assert "alpha >= gamma^2" in s.branch_note


def test_mixed_general_branch_agreement_at_crossover():
    # both branch formulas coincide when alpha equals gamma squared
    gamma = 0.4
    p = (0.25, 0.25, 0.5)
    s = build_mixed_general(gamma, gamma**2, p)
    assert s.analytic_success == pytest.approx(1.0 - gamma**2 * 0.5, abs=1e-12)
    conf = scheme_confusion(s)
    # the inconclusive outcome has zero probability on every state there
    assert abs(conf[:, 3]).max() < 1e-10


def test_mixed_general_random_draws_match_formula():
    rng = np.random.default_rng(43)
    done = 0
    while done < 40:
        gamma = float(rng.uniform(0.1, 0.8))
        alpha = float(rng.uniform(0.0, 1.0))
        g = np.array([[1, alpha, gamma], [alpha, 1, gamma], [gamma, gamma, 1]])
        if np.linalg.eigvalsh(g).min() < 1e-8 or alpha in (0.0, 1.0):
            continue
        p = random_simplex(rng)
        s = build_mixed_general(gamma, alpha, p)
        if alpha >= gamma**2:
            want = 1.0 - alpha * (1.0 - p[2])
        else:
            want = 1.0 - (2.0 * gamma**2 - alpha) * (1.0 - p[2])
        assert s.analytic_success == pytest.approx(want, abs=1e-10)
        done += 1


def test_mixed_general_rejects_unrealizable_overlaps():
    with pytest.raises(GramNotPsdError):
        build_mixed_general(0.7, -0.5, (0.3, 0.3, 0.4))
    with pytest.raises(ParamOutOfRangeError):
        build_mixed_general(1.0, 0.5, (0.3, 0.3, 0.4))
    with pytest.raises(ParamOutOfRangeError):
        build_mixed_general(0.4, 0.0, (0.3, 0.3, 0.4))  # needs allow_trivial
    # Past the PSD gate by less than tol.PSD, but 1 - gamma^2 < |alpha - gamma^2|.
    with pytest.raises(ParamOutOfRangeError) as info:
        build_mixed_general(0.5, -0.5000000001, (0.3, 0.3, 0.4))
    assert str(info.value) == "identifying amplitude would be imaginary"
    s = build_mixed_general(0.4, 0.0, (0.3, 0.3, 0.4), allow_trivial=True)
    special = build_mixed_special(0.4, (0.3, 0.3, 0.4))
    assert s.analytic_success == pytest.approx(special.analytic_success, abs=1e-12)


@pytest.mark.parametrize("k", range(2, 16))
def test_mixed_general_near_gamma_one_builds_or_rejects_before_synthesis(k):
    # 1 - gamma^2 magnifies the synthesized overlaps' error; past the
    # coupling's gate the input is rejected before any state is made.
    for gamma in (1.0 - 10.0**-k, -(1.0 - 10.0**-k)):
        lo = 2.0 * gamma**2 - 1.0
        for u in (0.1, 0.5, 0.9):
            with mock.patch.object(
                schemes, "states_from_gram", wraps=schemes.states_from_gram
            ) as synthesis:
                try:
                    s = build_mixed_general(gamma, lo + (1.0 - lo) * u, (0.3, 0.3, 0.4))
                except ParamOutOfRangeError as exc:
                    assert str(exc).startswith("conditioning lost: "), exc
                    assert synthesis.call_count == 0
                    assert k > 4, (gamma, u)
                    continue
            assert k <= 4 and s.params.gamma == gamma


# ---------------------------------------------------------------------- rra


def test_flagged_builders_share_their_layouts_povm():
    povms = [
        build_rra(*schemes._rra_kets(0.3), [0.5, 0.5], 0.5, 0.6).povm,
        build_mixed_special(0.5, [0.3, 0.3, 0.4]).povm,
        build_mixed_general(0.5, 0.1, [0.3, 0.3, 0.4]).povm,
        build_unambiguous_special(0.5, 0.6, 0.6, [0.3, 0.3, 0.4]).povm,
    ]
    layouts = [schemes._RRA_POVM, schemes._MIXED_POVM, schemes._MIXED_POVM,
               schemes._UNAMBIGUOUS_POVM]
    assert all(a is b for a, b in zip(povms, layouts))
    assert all(not p.elements.flags.writeable for p in layouts)


def test_rra_symmetric_qubits():
    plus, minus = rra_pair(0.36)
    s = build_rra(plus, minus, (0.5, 0.5), 0.6, 0.6)
    assert s.analytic_success == pytest.approx(0.64, abs=1e-12)
    conf = scheme_confusion(s)
    assert conf[0, 1] < 1e-10 and conf[1, 0] < 1e-10


def test_rra_asymmetric_split():
    # amplitudes 0.9 / 0.4 realize overlap 0.36 with unequal failure rates
    plus, minus = rra_pair(0.36)
    s = build_rra(plus, minus, (0.8, 0.2), 0.9, 0.4)
    assert s.analytic_success == pytest.approx(1.0 - 0.8 * 0.81 - 0.2 * 0.16, abs=1e-12)


def test_rra_rejects_inconsistent_amplitudes():
    plus, minus = rra_pair(0.36)
    with pytest.raises(OverlapConstraintViolatedError):
        build_rra(plus, minus, (0.5, 0.5), 0.5, 0.5)  # 0.25 != 0.36
    with pytest.raises(AmplitudeOutOfRangeError):
        build_rra(plus, minus, (0.5, 0.5), 1.2, 0.3)


def test_rra_builds_amplitudes_of_modulus_one_to_rounding():
    # 1 - |c_minus|^2 rounds to 2e-16; its square root, 1.5e-8, used to pass
    # tol.RANK and split the dependent pair.  The amplitude now snaps to 0.
    import json

    from statedisc import serialize

    plus, minus = rra_pair(-1.0)
    c_plus = -0.9460456088348339 + 0.32403349518889013j
    c_minus = 0.9460456088348338 - 0.3240334951888901j
    s = build_rra(plus, minus, (0.5, 0.5), c_plus, c_minus)
    assert s.analytic_success == pytest.approx(0.0, abs=1e-12)
    reloaded = serialize.scheme_from_json(
        json.loads(json.dumps(serialize.scheme_to_json(s)))
    )
    assert reloaded.params == s.params
    assert np.array_equal(reloaded.coupling, s.coupling)


def test_rra_requires_qubits():
    with pytest.raises(DimensionMismatchError):
        build_rra(Ket(np.eye(3)[0]), Ket(np.eye(3)[1]), (0.5, 0.5), 0.0, 0.0)


def test_rra_complex_amplitudes():
    plus, minus = rra_pair(0.5)
    c_plus = 0.5 + 0.5j
    c_minus = 0.5 / np.conj(c_plus)  # conj(c+) c- = 0.5
    s = build_rra(plus, minus, (0.5, 0.5), c_plus, c_minus)
    want = 1.0 - 0.5 * abs(c_plus) ** 2 - 0.5 * abs(c_minus) ** 2
    assert s.analytic_success == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------------ xu


def test_xu_case_1_dominant_thresholds():
    r = xu_max_unambiguous(0.3, (0.2, 0.3, 0.5))
    assert r.case == "1"
    assert r.value == pytest.approx(0.7, abs=1e-12)
    assert r.permutation == (0, 1, 2)


def test_xu_case_2():
    r = xu_max_unambiguous(0.5, (0.0, 0.05, 0.95))
    assert r.case == "2"
    want = 1.0 - 0.0 - 0.05 - 2.0 * 0.95 * 0.25 / 1.5
    assert r.value == pytest.approx(want, abs=1e-12)


def test_xu_case_3():
    r = xu_max_unambiguous(0.15, (0.0, 0.05, 0.95))
    assert r.case == "3"
    p0, p1, p2 = 0.0, 0.05, 0.95
    want = (
        1.0
        - p0
        - 2.0 * np.sqrt(p1 * p2) * 0.15
        - (np.sqrt(p2) - np.sqrt(p1)) ** 2 * 0.15**2
    )
    assert r.value == pytest.approx(want, abs=1e-12)


def test_xu_case_4():
    r = xu_max_unambiguous(0.2, (0.05, 0.05, 0.9))
    assert r.case == "4"
    p0, p1, p2 = 0.05, 0.05, 0.9
    want = 1.0 - 2.0 * (
        np.sqrt(p1 * p2) + np.sqrt(p0 * p2) - np.sqrt(p0 * p1)
    ) * 0.2
    assert r.value == pytest.approx(want, abs=1e-10)


def test_xu_degenerate_top_priors():
    r = xu_max_unambiguous(0.3, (0.2, 0.4, 0.4))
    assert r.case == "1-limit"
    assert r.value == pytest.approx(0.7, abs=1e-12)


def test_xu_sorts_priors_and_reports_permutation():
    r = xu_max_unambiguous(0.2, (0.9, 0.05, 0.05))
    sorted_r = xu_max_unambiguous(0.2, (0.05, 0.05, 0.9))
    assert r.value == pytest.approx(sorted_r.value, abs=1e-15)
    assert r.permutation == (1, 2, 0)


def test_xu_case_boundaries_are_continuous():
    # where two case conditions meet, the adjacent formulas agree
    p = (0.0, 0.05, 0.95)
    g1 = np.sqrt(p[1]) / (np.sqrt(p[2]) - np.sqrt(p[1]))
    below = xu_max_unambiguous(g1 - 1e-9, p).value
    above = xu_max_unambiguous(g1 + 1e-9, p).value
    assert abs(below - above) < 1e-7
    p = (0.05, 0.05, 0.9)
    g2 = np.sqrt(p[0]) / (np.sqrt(p[2]) - np.sqrt(p[0]))
    below = xu_max_unambiguous(g2 - 1e-9, p).value
    above = xu_max_unambiguous(g2 + 1e-9, p).value
    assert abs(below - above) < 1e-7


def test_xu_domain_errors():
    with pytest.raises(InvalidGammaError):
        xu_max_unambiguous(1.0, (0.3, 0.3, 0.4))
    with pytest.raises(InvalidGammaError):
        xu_max_unambiguous(-0.1, (0.3, 0.3, 0.4))
    with pytest.raises(ParamOutOfRangeError):
        xu_max_unambiguous(0.3, (0.5, 0.5, 0.5))


# ---------------------------------------------------- unambiguous special family


def test_unambiguous_special_formula_and_check():
    s = build_unambiguous_special(0.5, 0.5774, 0.5774, (0.3, 0.3, 0.4))
    want = 1.0 - 0.3 * 0.5774 * 2 - 0.4 * 0.25 * (2.0 / 0.5774)
    assert s.analytic_success == pytest.approx(want, abs=1e-12)
    ok, worst = unambiguity_check(coupled_ensemble(s), s.povm)
    assert ok and worst < 1e-10
    conf = scheme_confusion(s)
    p = s.ensemble.priors
    assert p @ np.diag(conf) == pytest.approx(s.analytic_success, abs=1e-10)
    assert 1.0 - p @ conf[:, 3] == pytest.approx(s.analytic_success, abs=1e-10)


def test_unambiguous_special_random_draws():
    rng = np.random.default_rng(44)
    for _ in range(25):
        gamma = float(rng.uniform(0.1, 0.6))
        p = random_simplex(rng)
        # draw feasible failure weights
        for _ in range(100):
            x0 = float(rng.uniform(gamma**2, 1.0))
            x1 = float(rng.uniform(gamma**2, 1.0))
            if gamma**2 * (1.0 / x0 + 1.0 / x1) <= 1.0:
                break
        else:
            continue
        s = build_unambiguous_special(gamma, x0, x1, p)
        want = 1.0 - p[0] * x0 - p[1] * x1 - p[2] * gamma**2 * (1 / x0 + 1 / x1)
        assert s.analytic_success == pytest.approx(want, abs=1e-10)


def test_unambiguous_special_rejects_infeasible():
    with pytest.raises(InfeasibleAmplitudesError):
        build_unambiguous_special(0.5, 0.3, 0.3, (0.3, 0.3, 0.4))  # sum > 1
    with pytest.raises(InfeasibleAmplitudesError):
        build_unambiguous_special(0.5, 0.2, 0.9, (0.3, 0.3, 0.4))  # x0 < gamma^2
    with pytest.raises(InfeasibleAmplitudesError):
        build_unambiguous_special(0.5, 1.2, 0.9, (0.3, 0.3, 0.4))  # x0 > 1


# ------------------------------------------------------------------- zero aux


def test_zero_aux_posterior_oracle():
    third = (1 / 3, 1 / 3, 1 / 3)
    assert zero_aux_posterior(0.3, 0.3, third) == pytest.approx(1 / 1.18, abs=1e-12)


def test_zero_aux_scheme():
    third = (1 / 3, 1 / 3, 1 / 3)
    s = build_zero_aux(0.09, 0.3, 0.3, third)
    assert s.ancilla_dim == 1
    assert np.allclose(s.coupling, np.eye(3), atol=1e-12)
    want = (1 - 0.09) / 3 + (1 - 0.09) / 3 + 1 / 3
    assert s.analytic_success == pytest.approx(want, abs=1e-12)
    conf = scheme_confusion(s)
    # first two outcomes never fire on the wrong state
    assert conf[1, 0] < 1e-10 and conf[2, 0] < 1e-10
    assert conf[0, 1] < 1e-10 and conf[2, 1] < 1e-10
    # third outcome is ambiguous by design
    assert conf[0, 2] > 0.01 and conf[1, 2] > 0.01
    assert "posterior" in s.branch_note


def test_zero_aux_orthogonality_requirement():
    with pytest.raises(OverlapConstraintViolatedError):
        build_zero_aux(0.5, 0.3, 0.3, (1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(OverlapConstraintViolatedError):
        build_zero_aux(1.0, 1.0, 1.0, (1 / 3, 1 / 3, 1 / 3))


@pytest.mark.parametrize("k", range(1, 16))
def test_zero_aux_near_modulus_one_builds_or_rejects_before_synthesis(k):
    # Dividing by 1 - |g|^2 magnifies the synthesized overlaps' error; past
    # the measurement vectors' gate the input is rejected before any state
    # is made.  At the parent, k = 9 ended in NotPsd and k >= 12 in
    # InvariantViolation.
    for g12, g20 in ((1.0 - 10.0**-k, 0.3), (0.3j, -(1.0 - 10.0**-k) * 1j)):
        with mock.patch.object(
            schemes, "states_from_gram", wraps=schemes.states_from_gram
        ) as synthesis:
            try:
                s = build_zero_aux(np.conj(g12 * g20), g12, g20, (0.3, 0.3, 0.4))
            except ParamOutOfRangeError as exc:
                assert str(exc).startswith("conditioning lost: "), exc
                assert synthesis.call_count == 0
                assert k > 4, (g12, g20)
                continue
        assert k <= 4 and s.params.g12 == g12


def test_zero_aux_constraint_residual_is_weighed_against_the_conditioning():
    # The residual of conj(g12 g20) = g01, within its 1e-10 tolerance, is
    # the measurement vectors' overlap times sqrt(1 - |g12|^2)(1 - |g20|^2).
    assert build_zero_aux(0.81 + 1e-11, 0.9, 0.9, (0.3, 0.3, 0.4))
    with pytest.raises(ParamOutOfRangeError, match="conditioning lost"):
        build_zero_aux(0.81 + 5e-11, 0.9, 0.9, (0.3, 0.3, 0.4))


def test_zero_aux_complex_overlaps():
    g12 = 0.3 * np.exp(0.7j)
    g20 = 0.25 * np.exp(-0.2j)
    g01 = np.conj(g12 * g20)
    p = (0.3, 0.3, 0.4)
    s = build_zero_aux(g01, g12, g20, p)
    want = 0.3 * (1 - abs(g20) ** 2) + 0.3 * (1 - abs(g12) ** 2) + 0.4
    assert s.analytic_success == pytest.approx(want, abs=1e-10)
    # coupled states keep the requested overlaps
    e = coupled_ensemble(s)
    assert np.vdot(e.states[1], e.states[2]) == pytest.approx(g12, abs=1e-10)
    assert np.vdot(e.states[2], e.states[0]) == pytest.approx(g20, abs=1e-10)


def test_zero_aux_degenerate_posterior_denominator():
    with pytest.raises(ZeroProbabilityOutcomeError):
        zero_aux_posterior(0.0, 0.0, (0.5, 0.5, 0.0))


@pytest.mark.parametrize("g", [float("nan"), float("inf"), 5.0, -5.0, 5j, 1.0, 0.6 + 0.8j])
def test_zero_aux_posterior_rejects_what_the_builder_rejects(g):
    # No states have an overlap of modulus 1 or more: the builder refuses
    # such an overlap, and the posterior it reports refuses it the same way.
    third = (1 / 3, 1 / 3, 1 / 3)
    for g12, g20 in ((g, 0.3), (0.3, g)):
        with pytest.raises(OverlapConstraintViolatedError, match="must be < 1"):
            zero_aux_posterior(g12, g20, third)
        with pytest.raises(OverlapConstraintViolatedError, match="must be < 1"):
            build_zero_aux(np.conj(g12 * g20), g12, g20, third)


# ------------------------------------------------------------- separability


def test_separable_decomposition_symmetric_overlap():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    d = separable_decomposition(s)
    assert d.weight == pytest.approx(0.25 * 0.6, abs=1e-12)
    assert d.reconstruction_residual < 1e-10
    assert d.part_system.shape == (3, 3)
    assert d.part_ancilla.shape == (2, 2)
    # ancilla part has trace one but need not be a state
    assert np.trace(d.part_ancilla).real == pytest.approx(1.0, abs=1e-10)
    assert d.ancilla_part_spectrum.min() < -1e-3  # genuinely non-positive here


def test_separable_decomposition_general_overlap():
    s = build_mixed_general(0.4, 0.1, (0.3, 0.3, 0.4))
    d = separable_decomposition(s)
    assert d.weight == pytest.approx(0.6 * (0.16 - 0.1), abs=1e-12)
    assert d.reconstruction_residual < 1e-10


def test_separable_decomposition_boundary_is_a_state():
    s = build_mixed_special(SQRT2_INV, (0.3, 0.3, 0.4))
    d = separable_decomposition(s)
    assert d.reconstruction_residual < 1e-10
    # interference coefficient vanishes, leaving the pure ancilla projector
    assert np.allclose(d.part_ancilla, np.diag([0.0, 1.0]), atol=1e-8)
    assert d.ancilla_part_spectrum.min() > -1e-10


def test_separable_decomposition_requires_equal_first_priors():
    s = build_mixed_special(0.5, (0.2, 0.4, 0.4))
    # The priors print as Python floats, not as numpy scalar reprs.
    with pytest.raises(HypothesisViolatedError) as info:
        separable_decomposition(s)
    assert str(info.value) == "requires p0 = p1, got 0.2 and 0.4"


def test_separable_decomposition_requires_low_alpha():
    s = build_mixed_general(0.4, 0.3, (0.3, 0.3, 0.4))  # alpha > gamma^2
    with pytest.raises(HypothesisViolatedError):
        separable_decomposition(s)


@pytest.mark.parametrize("scheme, message", [
    (lambda: build_mixed_general(0.4, 0.3, (0.3, 0.3, 0.4)),
     "alpha = 0.3 must lie below gamma^2 = 0.16000000000000003"),
    (lambda: build_mixed_general(0.5, 0.25, (0.3, 0.3, 0.4), allow_trivial=True),
     "alpha = 0.25 must lie below gamma^2 = 0.25"),
    (lambda: build_mixed_special(0.5, (0.0, 0.0, 1.0)),
     "p2 = 1 leaves an empty ancilla part"),
    (lambda: build_unambiguous_special(0.5, 0.5, 0.5, (0.3, 0.3, 0.4)),
     "decomposition applies to mixed schemes, not UnambiguousSpecialParams"),
])
def test_separable_decomposition_requires_its_hypothesis(scheme, message):
    with pytest.raises(HypothesisViolatedError) as info:
        separable_decomposition(scheme())
    assert str(info.value) == message


# ------------------------------------------------------------------- scheme


def test_scheme_invariants_across_builders():
    rng = np.random.default_rng(45)
    for _ in range(10):
        gamma = float(rng.uniform(0.1, 0.65))
        p = random_simplex(rng)
        for s in (
            build_mixed_special(gamma, p),
            build_mixed_general(gamma, float(rng.uniform(0.01, 0.3)), p),
        ):
            u = s.coupling
            assert linalg.frobenius(linalg.dag(u) @ u - np.eye(u.shape[0])) < 1e-10
            total = sum(s.povm.elements)
            assert linalg.frobenius(total - np.eye(u.shape[0])) < 1e-9


def test_coupled_states_and_ensemble_agree():
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    e = coupled_ensemble(s)
    for u, k in zip(s.ensemble.states, e.states):
        w = s.coupling @ np.kron(u, [1.0, 0.0])  # U (u_i (x) |0>)
        assert np.linalg.norm(w - k) < 1e-12
    assert tuple(e.priors) == pytest.approx((0.3, 0.3, 0.4))


def test_pipeline_check_rejects_a_nan_total():
    # Ensemble rejects NaN priors, so plant them past it: the pipeline
    # total is then NaN, and the check must fail rather than compare false.
    s = build_mixed_special(0.5, (0.3, 0.3, 0.4))
    ens = Ensemble(s.ensemble.states, s.ensemble.priors)
    object.__setattr__(ens, "priors", np.full(3, np.nan))
    with pytest.raises(InvariantViolationError, match="pipeline success nan"):
        Scheme(ens, s.ancilla_dim, s.coupling, s.povm, s.analytic_success, s.params)


VALID_INPUTS = {
    "rra": ({"overlap": 0.28, "c_plus": 0.7, "c_minus": 0.4}, (0.6, 0.4)),
    "mixed-special": ({"gamma": 0.5}, (0.3, 0.3, 0.4)),
    "mixed-general": ({"gamma": 0.5, "alpha": 0.2}, (0.3, 0.3, 0.4)),
    "unambiguous-special": ({"gamma": 0.5, "x0": 0.6, "x1": 0.6}, (0.3, 0.3, 0.4)),
    "zero-aux": ({"g01": 0.09, "g12": 0.3, "g20": 0.3}, (0.3, 0.3, 0.4)),
}


#: Each kind as the hand-written table stated it, before the table read a
#: kind off its builder: inputs with their types, trivial, sweepable and
#: the prior count.
KIND_TABLE = {
    "rra": ({"overlap": float, "c_plus": complex, "c_minus": complex}, False, (), 2),
    "mixed-special": ({"gamma": float}, True, ("gamma",), 3),
    "mixed-general": ({"gamma": float, "alpha": float}, True, ("gamma", "alpha"), 3),
    "unambiguous-special": (
        {"gamma": float, "x0": float, "x1": float}, False, ("gamma", "x0", "x1"), 3
    ),
    "zero-aux": ({"g01": complex, "g12": complex, "g20": complex}, False, (), 3),
}


def test_the_kind_table_reads_each_kind_off_its_builder():
    assert list(SCHEME_KINDS) == list(KIND_TABLE)
    for name, (types, trivial, sweepable, n_priors) in KIND_TABLE.items():
        kind = SCHEME_KINDS[name]
        assert kind.inputs == tuple(types), name
        assert list(kind.types.items()) == list(types.items()), name
        assert (kind.trivial, kind.sweepable, kind.n_priors) == (
            trivial, sweepable, n_priors
        ), name
        # Every input has a JSON codec, and a params field the type its
        # builder takes, so the codec and the params class cannot drift.
        assert set(kind.types.values()) <= set(serialize._FIELD_CODECS), name
        for key, hint in get_type_hints(kind.params).items():
            assert kind.types[key] is hint, (name, key)


@pytest.mark.parametrize("kind", ["rra", "unambiguous-special", "zero-aux"])
def test_allow_trivial_is_ignored_by_a_builder_without_it(kind):
    values, p = VALID_INPUTS[kind]
    plain = SCHEME_KINDS[kind].build(values, p, False)
    trivial = SCHEME_KINDS[kind].build(values, p, True)
    assert serialize.scheme_to_json(trivial) == serialize.scheme_to_json(plain)


@pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
def test_each_kind_takes_exactly_its_prior_count(kind):
    values, _ = VALID_INPUTS[kind]
    n = SCHEME_KINDS[kind].n_priors
    for m in (n - 1, n + 1):
        with pytest.raises(DimensionMismatchError) as info:
            SCHEME_KINDS[kind].build(values, [1.0 / m] * m, False)
        assert type(info.value) is DimensionMismatchError
        assert str(info.value) == f"expected {n} priors, got {m}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
def test_non_finite_parameters_are_domain_errors(kind, bad):
    values, p = VALID_INPUTS[kind]
    SCHEME_KINDS[kind].build(values, p, False)
    for key in values:
        with pytest.raises(DiscriminationError) as info:
            SCHEME_KINDS[kind].build({**values, key: bad}, p, False)
        assert not isinstance(info.value, InvariantViolationError), (key, info.value)
