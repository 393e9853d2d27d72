import math
from dataclasses import replace

import numpy as np
import pytest

from lqframes import (
    Frame,
    InvalidParametersError,
    SeparationProblem,
    build_stacked,
    check_separation_conditions,
    cosparse_signal,
    irls_analysis,
    measurement_bound,
    random_tight_frame,
    separation_measurement_bound,
    solve_split_analysis,
    split_nsp_constant,
)
from lqframes.experiments import _spikes_and_waves
from lqframes.rip import _comparison_order
from lqframes.solvers import LqProblem


def _spikes(n):
    return Frame(matrix=np.eye(n), lower_bound=1.0, upper_bound=1.0)


def _waves(n):
    return _spikes_and_waves(n)[1]  # the normalized Sylvester Hadamard matrix, checked against scipy's


# ---------------------------------------------------------------------------
# build_stacked
# ---------------------------------------------------------------------------

def test_build_stacked_identity_pair():
    psi, a_st = build_stacked([np.eye(3), np.eye(3)], np.eye(3))
    np.testing.assert_array_equal(psi, np.eye(6))
    np.testing.assert_array_equal(a_st, np.hstack([np.eye(3), np.eye(3)]))


def test_build_stacked_shapes():
    rng = np.random.default_rng(0)
    d1 = rng.standard_normal((4, 4))
    d2 = rng.standard_normal((4, 8))
    psi, a_st = build_stacked([d1, d2], rng.standard_normal((3, 4)))
    assert psi.shape == (8, 12)
    assert a_st.shape == (3, 8)


def test_build_stacked_psi_is_the_block_diagonal():
    block_diag = pytest.importorskip("scipy.linalg").block_diag
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((4, d)) for d in (4, 6, 5)]
    psi, _ = build_stacked(mats, np.eye(4))
    np.testing.assert_array_equal(psi, block_diag(*mats))


def test_build_stacked_measurement_acts_on_sum():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 6))
    _, a_st = build_stacked([np.eye(6), np.eye(6)], A)
    f1, f2 = rng.standard_normal(6), rng.standard_normal(6)
    np.testing.assert_allclose(a_st @ np.concatenate([f1, f2]), A @ (f1 + f2), atol=1e-12)


@pytest.mark.parametrize(
    "second, A, message",
    [
        (np.eye(4), np.eye(3), "^dictionaries must share the ambient dimension$"),
        (np.eye(3), np.ones((2, 4)), "^A has 4 columns, expected 3$"),
    ],
    ids=["dictionaries", "measurement"],
)
def test_build_stacked_rejects_mismatched_dimensions(second, A, message):
    with pytest.raises(InvalidParametersError, match=message):
        build_stacked([np.eye(3), second], A)


@pytest.mark.parametrize(
    "second, message",
    [
        (np.ones(3), "^dictionary 1 must be a 2-D matrix"),
        (np.full((3, 3), math.nan), "^dictionary 1 holds non-finite"),
    ],
    ids=["1-d", "non-finite"],
)
def test_build_stacked_names_the_bad_dictionary(second, message):
    with pytest.raises(InvalidParametersError, match=message):
        build_stacked([np.eye(3), second], np.eye(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_stacked([], np.eye(3)),
        lambda: SeparationProblem(dicts=[], A=np.eye(3), y=np.zeros(3), q=0.7),
    ],
    ids=["build_stacked", "SeparationProblem"],
)
def test_an_empty_dictionary_list_is_refused(build):
    with pytest.raises(InvalidParametersError, match="^need at least one dictionary$"):
        build()


def test_psi_isometry_for_tight_blocks():
    frames = [random_tight_frame(16, 20, k) for k in range(2)]
    psi, _ = build_stacked(frames, np.eye(16))
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = rng.standard_normal(32)
        assert abs(np.linalg.norm(psi.T @ f) - np.linalg.norm(f)) <= 1e-10 * max(1.0, np.linalg.norm(f))


# ---------------------------------------------------------------------------
# solve_split_analysis
# ---------------------------------------------------------------------------

def test_problem_rejects_non_tight_dictionaries():
    loose = Frame.from_matrix(np.diag([1.0, 2.0]))
    with pytest.raises(InvalidParametersError):
        SeparationProblem(dicts=[_spikes(2), loose], A=np.eye(2), y=np.zeros(2), q=0.7)


@pytest.mark.parametrize("field", ["A", "y", "dictionary 1"])
def test_problem_rejects_non_finite_input(field):
    args = {"A": np.eye(2), "y": np.ones(2)}
    waves = _waves(2).matrix.copy()
    if field == "dictionary 1":
        waves[0, 0] = math.nan
    else:
        args[field] = args[field].copy()
        args[field][0] = math.nan
    dicts = [_spikes(2), Frame(matrix=waves, lower_bound=1.0, upper_bound=1.0)]
    with pytest.raises(InvalidParametersError, match=f"^{field} holds non-finite"):
        SeparationProblem(dicts=dicts, q=0.7, **args)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"q": 1.5}, "q must lie in"),
        ({"q": 0.0}, "q must lie in"),
        ({"q": 0.7, "epsilon": -1.0}, "epsilon must be >= 0"),
        ({"q": 0.7, "epsilon": math.nan}, "epsilon must be >= 0"),
        ({"q": 1.5, "epsilon": -1.0}, "q must lie in"),
    ],
)
def test_problem_checks_q_epsilon_and_norm_at_construction(kwargs, message):
    with pytest.raises(InvalidParametersError, match=message):
        SeparationProblem(dicts=[_spikes(2), _waves(2)], A=np.eye(2), y=np.ones(2), **kwargs)


@pytest.mark.parametrize("change", [{"q": 0.5}, {"y": np.array([3.0, -1.0])}], ids=["q", "y"])
def test_replace_rebuilds_the_stacked_instance(change):
    # stacked is derived in __post_init__, so a replaced problem can never keep the old one
    problem = replace(SeparationProblem(dicts=[_spikes(2), _waves(2)], A=np.eye(2), y=np.ones(2), q=0.7), **change)
    psi, a_stacked = build_stacked(problem.dicts, problem.A)
    stacked = problem.stacked
    for name, value in change.items():
        np.testing.assert_array_equal(getattr(stacked, name), value)
    assert (stacked.q, stacked.epsilon) == (problem.q, problem.epsilon)
    np.testing.assert_array_equal(stacked.y, problem.y)
    np.testing.assert_array_equal(stacked.A, a_stacked)
    np.testing.assert_array_equal(stacked.D.matrix, psi)


def test_problem_keeps_its_own_list_of_dictionaries():
    # a frozen problem does not change when the caller's list does; the split used len(dicts) parts
    eye = _spikes(4)
    dicts = [eye, eye]
    problem = SeparationProblem(dicts=dicts, A=np.eye(4), y=np.ones(4), q=0.7)
    dicts.append(eye)
    components, _ = solve_split_analysis(problem)
    assert len(components) == 2 and type(problem.dicts) is list
    # nor when its own list does: the solve splits by the stacked width
    problem.dicts.append(eye)
    components, _ = solve_split_analysis(problem)
    assert len(components) == 2


def test_split_recovers_both_components():
    n, m = 16, 12
    spikes, waves = _spikes(n), _waves(n)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, 1, 11)
    f2, _ = cosparse_signal(waves, 1, 12)
    problem = SeparationProblem(dicts=[spikes, waves], A=A, y=A @ (f1 + f2), q=0.7)
    (g1, g2), result = solve_split_analysis(problem)
    assert np.linalg.norm(g1 - f1) / np.linalg.norm(f1) <= 1e-3
    assert np.linalg.norm(g2 - f2) / np.linalg.norm(f2) <= 1e-3
    assert result.converged


def test_split_zero_component_stays_zero():
    n, m = 16, 12
    spikes, waves = _spikes(n), _waves(n)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, 1, 21)
    problem = SeparationProblem(dicts=[spikes, waves], A=A, y=A @ f1, q=0.7)
    (g1, g2), _ = solve_split_analysis(problem)
    assert np.linalg.norm(g2) <= 1e-6 * np.linalg.norm(f1)
    single = irls_analysis(LqProblem(A=A, y=A @ f1, D=spikes, q=0.7))
    assert np.linalg.norm(g1 - single.f_hat) <= 1e-5


def test_split_duplicate_dictionaries_recovers_the_sum():
    n, m = 16, 12
    spikes = _spikes(n)
    rng = np.random.default_rng(7)
    A = rng.standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, 1, 31)
    problem = SeparationProblem(dicts=[spikes, spikes], A=A, y=A @ (2.0 * f1), q=0.7)
    (g1, g2), _ = solve_split_analysis(problem)
    assert np.linalg.norm((g1 + g2) - 2.0 * f1) <= 1e-5


def test_single_dictionary_delegation_is_bit_identical():
    n, m = 16, 12
    spikes = _spikes(n)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((m, n))
    f1, _ = cosparse_signal(spikes, 2, 41)
    y = A @ f1
    problem = SeparationProblem(dicts=[spikes], A=A, y=y, q=0.7)
    (g1,), stacked_result = solve_split_analysis(problem)
    plain = irls_analysis(LqProblem(A=A, y=y, D=spikes, q=0.7))
    assert stacked_result.objective_trace == plain.objective_trace
    assert stacked_result.residual_trace == plain.residual_trace
    assert np.array_equal(g1, plain.f_hat)


# ---------------------------------------------------------------------------
# check_separation_conditions
# ---------------------------------------------------------------------------

def test_two_dict_coherence_threshold_flips():
    s1 = s2 = 2
    factor = 201 * 1.005
    mu_pass = 0.99 / (factor * (s1 + s2))
    mu_fail = 1.01 / (factor * (s1 + s2))
    assert check_separation_conditions(mu_pass, [s1, s2], 9, 0.0, 0.0, 1.0).thm3_holds
    assert not check_separation_conditions(mu_fail, [s1, s2], 9, 0.0, 0.0, 1.0).thm3_holds


def test_cluster_coherence_and_theta_tilde_not_applicable():
    verdict = check_separation_conditions(0.5, [2, 2], 9, 0.1, 0.1, 0.7)
    assert verdict.U == pytest.approx(0.5 * 13 / 2)
    assert verdict.U >= 1.0
    assert verdict.theta_tilde is None


def test_theta_tilde_below_one_when_joint_condition_holds():
    # comfortable regime: tiny rho, tiny deltas, weak coherence
    verdict = check_separation_conditions(0.01, [1, 1], 50, 0.01, 0.01, 0.7)
    assert verdict.thm4_holds
    assert verdict.theta_tilde is not None and verdict.theta_tilde < 1.0


@pytest.mark.parametrize("delta_sa", [1.0, math.inf])
def test_an_order_s_plus_a_constant_of_one_or_more_rules_thm4_out(delta_sa):
    # mu1, U and thm3 do not depend on delta_sa; the joint condition has no value there
    below = check_separation_conditions(0.01, [1, 1], 50, 0.01, 0.0, 0.7)
    verdict = check_separation_conditions(0.01, [1, 1], 50, 0.01, delta_sa, 0.7)
    assert below.thm4_holds and below.theta_tilde is not None
    assert (verdict.mu1, verdict.U, verdict.thm3_holds) == (below.mu1, below.U, below.thm3_holds)
    assert verdict.thm4_holds is False and verdict.theta_tilde is None


def test_thm3_monotone_in_mu1():
    held = [
        check_separation_conditions(mu, [2, 2], 9, 0.0, 0.0, 0.7).thm3_holds
        for mu in np.linspace(1e-4, 0.2, 25)
    ]
    # once failing, never passes again as mu1 grows
    first_fail = held.index(False) if False in held else len(held)
    assert all(not h for h in held[first_fail:])


def test_split_nsp_constant_is_inf_when_the_isometry_amplification_overflows():
    # delta_ratio^(2/q) = 1e300^200 would overflow a float, theta_tilde itself does not
    expected = 1e300 * 0.5**0.995 * (4.0 / 1.8) ** 0.005
    assert split_nsp_constant(0.5, 1e300, 0.1, 0.01, 2) == pytest.approx(expected, rel=1e-12)
    # theta_tilde = 1e308 * 0.9^0.5 * 20^0.5 is past the float range
    assert split_nsp_constant(0.9, 1e308, 0.9, 1.0, 2) == math.inf
    assert split_nsp_constant(0.5, math.inf, 0.1, 0.5, 2) == math.inf


def test_split_nsp_constant_rejects_large_U():
    with pytest.raises(InvalidParametersError):
        split_nsp_constant(0.5, 1.1, 1.0, 0.7, 2)


# ---------------------------------------------------------------------------
# separation_measurement_bound
# ---------------------------------------------------------------------------

def test_separation_bound_hand_evaluation():
    # q=1: t = ceil((5 * 2^{3/2})^2) = 200, so k = 201 s = 2010 > d and the
    # union term stops at u = d, where d ln(e d / d) = d; independent expansion below
    b2 = ((31.0 / 40.0) ** 0.25 * (1.13 + math.sqrt(math.pi))) ** 2
    s, d = 10, 1000
    hand = (
        6.25 * b2 * (201 * s * math.log(3.0) + math.log(2.0) + d + s * (1.0 + math.log(d / s)))
        + 17.6 * b2 * 201 * s
    )
    assert separation_measurement_bound(1.0, s, d) == pytest.approx(hand, rel=1e-12)


def test_separation_order_is_the_comparison_order_at_kappa_two():
    # 2^(q/2) 2^q = 2^(3q/2), so ceil((5 * 2^(3q/2))^(2/(2-q))) is the single-dictionary order at kappa = 2
    for q in np.linspace(1e-4, 1.0, 10**4):
        x = (5.0 * 2.0 ** (1.5 * q)) ** (2.0 / (2.0 - q))
        assert _comparison_order(float(q), 2.0) == math.ceil(x - 1e-9 * max(1.0, x))


def test_separation_bound_log_coefficient_vanishes():
    s = 10
    slopes = []
    for q in (1.0, 0.5, 0.1, 1e-3):
        m1 = separation_measurement_bound(q, s, 1000)
        m2 = separation_measurement_bound(q, s, 2000)
        slopes.append((m2 - m1) / math.log(2.0))
    assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))


def test_separation_bound_dominates_single_dictionary_at_q1():
    assert separation_measurement_bound(1.0, 25, 110) >= measurement_bound(1.0, 25, 110, 1.0)
