import math

import numpy as np
import pytest

from lqframes import (
    ConditionUnevaluableError,
    DegenerateDictionaryError,
    EmptyKernelError,
    InvalidParametersError,
    check_recovery_condition,
    error_constants,
    estimate_nsp_theta,
    estimate_rip,
    gaussian_failure_probability,
    gaussian_moment,
    measurement_bound,
    tail_constant,
)
from lqframes.rip import rip_scan


# ---------------------------------------------------------------------------
# gaussian_moment
# ---------------------------------------------------------------------------

def test_gaussian_moment_q1():
    assert gaussian_moment(1.0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


def test_gaussian_moment_sigma_scaling():
    assert gaussian_moment(1.0, 2.0) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-12)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.7, 1.0])
def test_gaussian_moment_matches_monte_carlo(q):
    rng = np.random.default_rng(2024)
    samples = np.abs(rng.standard_normal(200_000)) ** q
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - gaussian_moment(q, 1.0)) <= 3.0 * se


def test_gaussian_moment_rejects_bad_inputs():
    with pytest.raises(InvalidParametersError):
        gaussian_moment(0.0, 1.0)
    with pytest.raises(InvalidParametersError):
        gaussian_moment(0.5, -1.0)


# ---------------------------------------------------------------------------
# tail_constant
# ---------------------------------------------------------------------------

def test_tail_constant_q1_closed_form():
    # at q = 1 the formula collapses to (31/40)^(1/4) (1.13 + sqrt(pi))
    expected = (31.0 / 40.0) ** 0.25 * (1.13 + math.sqrt(math.pi))
    assert tail_constant(1.0) == pytest.approx(expected, abs=1e-12)
    assert tail_constant(1.0) == pytest.approx(2.7232702945563254, abs=1e-12)


def test_tail_constant_small_q_limit():
    limit = 1.13 * (31.0 / 40.0) ** 0.25
    assert tail_constant(1e-9) == pytest.approx(limit, abs=1e-3)


def test_tail_constant_monotone_on_grid():
    grid = np.linspace(0.1, 1.0, 10)
    values = [tail_constant(q) for q in grid]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


# ---------------------------------------------------------------------------
# estimate_rip
# ---------------------------------------------------------------------------

def test_estimate_rip_identity_order_one_is_zero():
    I = np.eye(5)
    for q in (0.3, 0.7, 1.0):
        rep = estimate_rip(I, I, q, 1, mode="exhaustive", budget=8, seed=0)
        assert rep.delta == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_estimate_rip_identity_closed_form(s):
    # max |v|_1 / |v|_2 over s-sparse unit vectors is sqrt(s)
    I = np.eye(6)
    rep = estimate_rip(I, I, 1.0, s, mode="exhaustive", budget=8, seed=0)
    assert rep.delta == pytest.approx(math.sqrt(s) - 1.0, abs=1e-6)
    assert rep.method == "exhaustive"


def test_estimate_rip_sampled_below_exhaustive():
    I = np.eye(6)
    sampled = estimate_rip(I, I, 1.0, 2, mode="sampled", budget=5, seed=1)
    exhaustive = estimate_rip(I, I, 1.0, 2, mode="exhaustive", budget=8, seed=1)
    assert sampled.delta <= exhaustive.delta + 1e-12
    assert sampled.method == "sampled"
    # 5 supports, each probed with 2 axes, the flat direction and 8 random ones
    assert sampled.trials == 5 * (2 + 1 + 8)


def test_estimate_rip_sampled_monotone_in_budget():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 6))
    D = rng.standard_normal((6, 9))
    small = estimate_rip(A, D, 0.7, 2, mode="sampled", budget=4, seed=9)
    large = estimate_rip(A, D, 0.7, 2, mode="sampled", budget=16, seed=9)
    assert large.delta >= small.delta - 1e-15


def test_estimate_rip_permutation_invariant_deterministic_directions():
    # with budget 0 the direction set is permutation-symmetric, so the
    # exhaustive estimate is exactly invariant under column permutation
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 5))
    D = rng.standard_normal((5, 8))
    perm = rng.permutation(8)
    base = estimate_rip(A, D, 0.7, 2, mode="exhaustive", budget=0, seed=0)
    permuted = estimate_rip(A, D[:, perm], 0.7, 2, mode="exhaustive", budget=0, seed=0)
    assert permuted.delta == pytest.approx(base.delta, rel=1e-12)


def test_estimate_rip_degenerate_dictionary():
    with pytest.raises(DegenerateDictionaryError):
        estimate_rip(np.eye(3), np.zeros((3, 4)), 0.5, 1, mode="sampled", budget=4, seed=0)


def test_estimate_rip_support_cap():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 30))
    D = rng.standard_normal((30, 40))
    with pytest.raises(InvalidParametersError):
        estimate_rip(A, D, 0.5, 10, mode="exhaustive", budget=1, max_supports=1000)


def test_rip_scan_counts_exact_zero_directions():
    d_s = np.array([[1.0, -1.0], [1.0, -1.0]])
    ad_s = np.array([[2.0, 0.5]])
    dirs = np.array([[1.0, 1.0], [1.0, 0.0]])  # first column: d_s @ dir = 0 exactly
    dev, ndeg = rip_scan(ad_s, d_s, dirs, 0.7)
    assert ndeg == 1
    assert dev >= 0.0


def test_estimate_rip_counts_trials():
    I = np.eye(5)
    rep = estimate_rip(I, I, 1.0, 2, mode="exhaustive", budget=3, seed=0)
    # C(5,2) supports, each probed with 2 axes + flat + 3 random directions
    assert rep.trials == 10 * 6


# ---------------------------------------------------------------------------
# check_recovery_condition / error_constants
# ---------------------------------------------------------------------------

def test_condition_small_rho_holds():
    v = check_recovery_condition(0.0, 0.0, 1, 16, 1.0, 1.0)
    # direct substitution: sqrt(rho (rho + 1)) = sqrt(17)/16
    assert v.lhs == pytest.approx(math.sqrt(17.0) / 16.0, abs=1e-12)
    assert v.lhs == pytest.approx(0.2577, abs=1e-4)
    assert v.rhs == pytest.approx(1.0)
    assert v.holds
    assert v.theta < 1.0


def test_condition_quarter_rho_direct_substitution():
    # direct substitution gives sqrt(rho (rho + 1)) = sqrt(5)/4 < 1
    v = check_recovery_condition(0.0, 0.0, 1, 4, 1.0, 1.0)
    assert v.lhs == pytest.approx(math.sqrt(5.0) / 4.0, abs=1e-12)
    assert v.holds


def test_condition_large_rho_fails():
    v = check_recovery_condition(0.0, 0.0, 4, 5, 1.0, 1.0)
    assert v.lhs == pytest.approx(1.2, abs=1e-12)
    assert not v.holds
    assert v.theta >= 1.0


def test_condition_theta_equivalence_on_grid():
    rng = np.random.default_rng(321)
    for _ in range(200):
        q = rng.uniform(0.05, 1.0)
        a = int(rng.integers(2, 50))
        s = int(rng.integers(1, a))
        kappa = 1.0 + rng.exponential(1.0)
        v = check_recovery_condition(rng.uniform(0, 0.99), rng.uniform(0, 0.99), s, a, kappa, q)
        assert (v.theta < 1.0) == v.holds


def test_condition_delta_field():
    v = check_recovery_condition(0.2, 0.4, 1, 4, 1.5, 0.7)
    assert v.Delta == pytest.approx(1.2 / 0.6, abs=1e-12)
    assert set(v.to_dict()) == {"lhs", "rhs", "holds", "theta", "Delta"}


def test_condition_rejects_bad_inputs():
    with pytest.raises(ConditionUnevaluableError):
        check_recovery_condition(0.1, 1.0, 1, 4, 1.0, 0.7)
    with pytest.raises(InvalidParametersError):
        check_recovery_condition(0.1, 0.1, 4, 4, 1.0, 0.7)
    with pytest.raises(InvalidParametersError):
        check_recovery_condition(0.1, 0.1, 1, 4, 0.5, 0.7)


def test_error_constants_theta_zero():
    c1, c2 = error_constants(0.0, 0.25, 1.0, 1.0, 0.0)
    assert c1 == pytest.approx(1.0, abs=1e-12)  # 2 rho^(1/2) = 1
    assert c2 == pytest.approx(0.0, abs=1e-12)


def test_error_constants_increasing_in_theta():
    thetas = np.linspace(0.0, 0.9, 10)
    values = [error_constants(t, 0.25, 0.7, 1.0, 0.1)[0] for t in thetas]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_error_constants_lower_bound_scaling():
    c1_unit, _ = error_constants(0.3, 0.25, 0.7, 1.0, 0.1)
    c1_four, _ = error_constants(0.3, 0.25, 0.7, 4.0, 0.1)
    assert c1_four == pytest.approx(c1_unit / 2.0, abs=1e-12)


def test_error_constants_reject_theta_ge_one():
    with pytest.raises(ConditionUnevaluableError):
        error_constants(1.0, 0.25, 0.7, 1.0, 0.1)


# ---------------------------------------------------------------------------
# gaussian_failure_probability / measurement_bound
# ---------------------------------------------------------------------------

def test_failure_probability_vanishes_with_m():
    small = gaussian_failure_probability(0.7, 0.3, 0.2, 10**4, 5, 50)
    large = gaussian_failure_probability(0.7, 0.3, 0.2, 10**6, 5, 50)
    assert large.failure_probability < small.failure_probability
    assert large.failure_probability < 1e-10


def test_failure_probability_covering_term_by_hand():
    # doubling k changes the log covering term from k ln(3ed/(eps k)) accordingly
    q, eta, eps, m, d = 0.7, 0.3, 0.2, 10**5, 50
    beta = tail_constant(q)
    for k in (2, 4):
        tail = gaussian_failure_probability(q, eta, eps, m, k, d)
        log_expected = (
            math.log(2.0)
            + k * math.log(3.0 * math.e * d / (eps * k))
            - eta**2 * m / (2.0 * q * beta**2)
        )
        assert tail.failure_probability == pytest.approx(math.exp(log_expected), rel=1e-12)


def test_failure_probability_clamped_to_one():
    tail = gaussian_failure_probability(0.7, 0.01, 0.2, 10, 5, 50)
    assert tail.failure_probability == 1.0


def test_failure_probability_implied_delta():
    tail = gaussian_failure_probability(1.0, 0.1, 0.1, 1000, 3, 20)
    assert tail.delta_implied == pytest.approx(0.2 / 0.9, abs=1e-12)


def test_failure_probability_rejects_large_eps():
    with pytest.raises(InvalidParametersError):
        gaussian_failure_probability(0.5, 0.1, 1.0, 100, 3, 20)


def test_measurement_bound_hand_evaluation():
    # q=1, kappa=1: t = ceil((5 sqrt 2)^2) = 50; independent expansion below
    b2 = ((31.0 / 40.0) ** 0.25 * (1.13 + math.sqrt(math.pi))) ** 2
    s, d = 10, 1000
    hand = (
        6.25 * b2 * (51 * (math.log(3.0) - math.log(51.0)) * s + math.log(2.0) + 52 * s * (1.0 + math.log(d / s)))
        + 17.6 * b2 * 51 * s
    )
    value = measurement_bound(1.0, s, d, 1.0)
    assert value == pytest.approx(hand, rel=1e-12)
    assert value == pytest.approx(134724.69474684235, rel=1e-12)


def test_measurement_bound_increasing_in_d():
    values = [measurement_bound(0.7, 8, d, 1.0) for d in (50, 100, 400, 1600)]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))


def test_measurement_bound_log_coefficient_vanishes():
    # slope against ln d extracted by finite differences
    s = 25
    slopes = []
    for q in (1.0, 0.5, 0.1, 1e-3):
        m1 = measurement_bound(q, s, 1000, 1.0)
        m2 = measurement_bound(q, s, 2000, 1.0)
        slopes.append((m2 - m1) / math.log(2.0))
    assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))
    assert slopes[-1] < 1e-2 * slopes[0]


def test_measurement_bound_rejects_bad_kappa():
    with pytest.raises(InvalidParametersError):
        measurement_bound(0.5, 2, 10, 0.9)


# ---------------------------------------------------------------------------
# estimate_nsp_theta
# ---------------------------------------------------------------------------

def test_nsp_rejects_trivial_kernel():
    with pytest.raises(EmptyKernelError):
        estimate_nsp_theta(np.eye(3), np.eye(3), 1.0, 1)


def test_nsp_line_kernel_theta_one():
    A = np.array([[1.0, 1.0]])
    theta = estimate_nsp_theta(A, np.eye(2), 1.0, 1, budget=8, seed=0)
    assert theta == pytest.approx(1.0, abs=1e-12)


def test_nsp_monotone_in_budget():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((3, 6))
    D = rng.standard_normal((6, 8))
    small = estimate_nsp_theta(A, D, 0.7, 2, budget=4, seed=2)
    large = estimate_nsp_theta(A, D, 0.7, 2, budget=32, seed=2)
    assert large >= small - 1e-15


def test_nsp_infinite_when_mass_concentrates():
    # kernel of [0 1] is e1; all coefficient mass of D = I lands on one entry
    A = np.array([[0.0, 1.0]])
    theta = estimate_nsp_theta(A, np.eye(2), 1.0, 1, budget=4, seed=0)
    assert theta == math.inf


def test_gaussian_matrix_at_bound_passes_sampled_rip():
    # any m above the bound gives a comfortable sampled constant
    q, s, d = 0.5, 2, 8
    m = int(math.ceil(measurement_bound(q, s, d, 1.0)))
    rng = np.random.default_rng(0)
    A = rng.standard_normal((m, d)) / (m * gaussian_moment(q, 1.0)) ** (1.0 / q)
    rep = estimate_rip(A, np.eye(d), q, s, mode="sampled", budget=24, seed=3)
    assert rep.delta < 0.9
