import dataclasses
import itertools
import math

import numpy as np
import pytest

from lqframes import (
    ConditionUnevaluableError,
    DegenerateDictionaryError,
    InvalidParametersError,
    check_recovery_condition,
    error_constants,
    estimate_nsp_theta,
    estimate_rip,
    gaussian_moment,
    measurement_bound,
    tail_constant,
)
from lqframes import rip
from lqframes.frames import _one_blas_thread
from lqframes.rip import rip_scan


# ---------------------------------------------------------------------------
# gaussian_moment
# ---------------------------------------------------------------------------

def test_gaussian_moment_q1():
    assert gaussian_moment(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-12)


@pytest.mark.parametrize("q", [0.25, 0.5, 0.7, 1.0])
def test_gaussian_moment_matches_monte_carlo(q):
    rng = np.random.default_rng(2024)
    samples = np.abs(rng.standard_normal(200_000)) ** q
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - gaussian_moment(q)) <= 3.0 * se


def test_gaussian_moment_rejects_bad_inputs():
    with pytest.raises(InvalidParametersError):
        gaussian_moment(0.0)
    with pytest.raises(InvalidParametersError):
        gaussian_moment(1.5)


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
        estimate_rip(A, D, 0.5, 10, mode="exhaustive", budget=1)


def test_rip_scan_counts_exact_zero_directions():
    d_s = np.array([[1.0, -1.0], [1.0, -1.0]])
    ad_s = np.array([[2.0, 0.5]])
    dirs = np.array([[1.0, 1.0], [1.0, 0.0]])  # first column: d_s @ dir = 0 exactly
    dev, ndeg = rip_scan(ad_s, d_s, dirs, 0.7)
    assert ndeg == 1
    assert dev >= 0.0


def test_rip_scan_on_a_stack_is_the_max_and_sum_of_its_slices():
    rng = np.random.default_rng(13)
    ad_s = rng.standard_normal((3, 4, 2))
    d_s = rng.standard_normal((3, 5, 2))
    dirs = rng.standard_normal((3, 2, 6))
    dirs[1, :, 0] = 0.0  # one degenerate direction in the middle support
    dirs[2, :, 3:] = 0.0  # three in the last
    slices = [rip_scan(ad_s[i], d_s[i], dirs[i], 0.7) for i in range(3)]
    dev, ndeg = rip_scan(ad_s, d_s, dirs, 0.7)
    assert dev == max(dev_i for dev_i, _ in slices)
    assert ndeg == sum(n_i for _, n_i in slices) == 4


def test_exhaustive_blocks_match_one_support_per_block(monkeypatch):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 10))
    D = rng.standard_normal((10, 16))
    # Half the atoms are zero, so all-zero supports, whose flat and random
    # directions are degenerate inside rip_scan, fall in several blocks.
    D[:, ::2] = 0.0
    calls = []

    def counting_scan(*args):
        result = rip_scan(*args)
        calls.append(result[1])
        return result

    monkeypatch.setattr(rip, "rip_scan", counting_scan)
    blocked = estimate_rip(A, D, 0.7, 3, mode="exhaustive", budget=5, seed=4)
    assert len(calls) > 1
    assert sum(n > 0 for n in calls) > 1
    calls.clear()
    monkeypatch.setattr(rip, "_BATCH_ENTRIES", 1)
    single = estimate_rip(A, D, 0.7, 3, mode="exhaustive", budget=5, seed=4)
    assert len(calls) == math.comb(16, 3)
    assert blocked.trials == single.trials == math.comb(16, 3) * 9
    assert blocked.degenerate == single.degenerate > 0
    assert blocked.delta == pytest.approx(single.delta, rel=1e-12, abs=0.0)


def _reference_scan(ad_s, d_s, dirs, q):
    # rip_scan as it stood when every direction went through it
    y = ad_s @ dirs
    z = d_s @ dirs
    den_sq = np.sum(z * z, axis=-2)
    good = den_sq > 0.0
    n_degenerate = int(np.sum(~good))
    if not np.any(good):
        return -1.0, n_degenerate
    num = np.sum(np.abs(y) ** q, axis=-2)[good]
    ratios = num / den_sq[good] ** (q / 2.0)
    return float(np.max(np.abs(ratios - 1.0))), n_degenerate


@_one_blas_thread()  # as estimate_rip runs: BLAS threads may split the sums differently
def _reference_estimate(A, D, q, s, mode, budget, seed):
    """(delta, trials, degenerate) from one scan per support over its s axes,
    the flat direction and its random ones, drawn from estimate_rip's streams."""
    d = D.shape[1]
    support_rng, direction_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    if mode == "exhaustive":
        supports, extra = itertools.combinations(range(d), s), budget
    else:
        supports = (np.sort(np.argpartition(support_rng.random(d), s - 1)[:s]) for _ in range(budget))
        extra = 8
    adT, dT = np.ascontiguousarray((A @ D).T), np.ascontiguousarray(D.T)
    fixed = np.concatenate([np.eye(s), np.full((s, 1), 1.0 / math.sqrt(s))], axis=1)
    best, degenerate, scanned = -1.0, 0, 0
    for support in supports:
        cols = np.array([support], dtype=int)
        g = direction_rng.standard_normal((1, extra, s)).transpose(0, 2, 1)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs = np.concatenate([fixed[None], g / norms], axis=2)
        dev, ndeg = _reference_scan(adT[cols].transpose(0, 2, 1), dT[cols].transpose(0, 2, 1), dirs, q)
        best, degenerate, scanned = max(best, dev), degenerate + ndeg, scanned + 1
    return best, scanned * (s + 1 + extra), degenerate


def _small_pair(kind):
    rng = np.random.default_rng(12)
    A, D = rng.standard_normal((5, 7)), rng.standard_normal((7, 9))
    if kind == "zero-atom":
        D[:, 3] = 0.0
    elif kind == "duplicated-atom":
        D[:, 1] = D[:, 0]
        D[:, 2] = -D[:, 0]  # supports holding atoms 0 and 2 cancel on the flat direction
    return A, D


@pytest.mark.parametrize("kind", ["zero-atom", "duplicated-atom"])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("mode, budget", [("exhaustive", 4), ("sampled", 24)])
def test_axis_ratios_per_atom_match_the_per_support_scan(kind, s, mode, budget):
    A, D = _small_pair(kind)
    report = estimate_rip(A, D, 0.7, s, mode=mode, budget=budget, seed=3)
    assert (report.delta, report.trials, report.degenerate) == _reference_estimate(A, D, 0.7, s, mode, budget, 3)


def test_axis_ratios_count_only_atoms_of_scanned_supports():
    rng = np.random.default_rng(14)
    A, D = rng.standard_normal((6, 12)), np.eye(12)
    A[:, 0] *= 50.0  # atom 0 has by far the largest axis deviation
    top = abs(np.sum(np.abs(A[:, 0]) ** 0.7) - 1.0)
    deltas = []
    for seed in range(4):
        report = estimate_rip(A, D, 0.7, 2, mode="sampled", budget=1, seed=seed)
        assert (report.delta, report.trials, report.degenerate) == _reference_estimate(
            A, D, 0.7, 2, "sampled", 1, seed
        )
        deltas.append(report.delta)
    assert max(deltas) < top  # no support at these seeds holds atom 0, so its axis does not count


@pytest.mark.parametrize("seed", [0, 1])
def test_axis_ratios_per_atom_match_the_per_support_scan_at_benchmark_shapes(seed):
    # the rip benchmark's pairs: a normalised Gaussian A on a 100 x 110 tight
    # frame at orders 25, 50 and 75, and a 10 x 16 A on 16 x 20 exhaustively at order 4
    q = 0.7
    rng = np.random.default_rng(seed)
    pairs = []
    for m, n, d in ((50, 100, 110), (10, 16, 20)):
        A = rng.standard_normal((m, n)) / (m * gaussian_moment(q)) ** (1.0 / q)
        D = np.linalg.qr(rng.standard_normal((d, n)))[0].T
        pairs.append((A, D))
    cases = [(pairs[0], s, "sampled", 64) for s in (25, 50, 75)] + [(pairs[1], 4, "exhaustive", 32)]
    for (A, D), s, mode, budget in cases:
        report = estimate_rip(A, D, q, s, mode=mode, budget=budget, seed=seed)
        assert (report.delta, report.trials, report.degenerate) == _reference_estimate(A, D, q, s, mode, budget, seed)


def test_estimators_build_the_same_few_generators_at_any_budget(monkeypatch):
    # one stream of supports and one of directions per estimate, never one per support
    rng = np.random.default_rng(6)
    A = rng.standard_normal((5, 8))
    D = rng.standard_normal((8, 12))
    built = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        built.append(1)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    counts = {}
    for budget in (4, 64):
        for mode in ("sampled", "exhaustive"):
            built.clear()
            estimate_rip(A, D, 0.7, 2, mode=mode, budget=budget, seed=5)
            counts[mode, budget] = len(built)
        built.clear()
        estimate_nsp_theta(A, D, 0.7, 2, budget=budget, seed=5)
        counts["nsp", budget] = len(built)
    assert counts["sampled", 4] == counts["sampled", 64] <= 2
    assert counts["exhaustive", 4] == counts["exhaustive", 64] <= 2
    assert counts["nsp", 4] == counts["nsp", 64] == 1


def test_sampled_prefix_does_not_depend_on_the_budget(monkeypatch):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 8))
    D = rng.standard_normal((8, 12))
    scanned = []

    def recording(*args):
        scanned.append([np.array(x) for x in args[:3]])
        return rip_scan(*args)

    monkeypatch.setattr(rip, "rip_scan", recording)
    estimate_rip(A, D, 0.7, 3, mode="sampled", budget=4, seed=5)
    small = scanned[:]
    scanned.clear()
    estimate_rip(A, D, 0.7, 3, mode="sampled", budget=8, seed=5)
    assert len(small) == 4 and len(scanned) == 8
    for before, after in zip(small, scanned):
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)


def _with_nan(M):
    M = np.array(M, dtype=float)
    M[0, 1] = np.nan
    return M


@pytest.mark.parametrize(
    "call",
    [
        lambda A, D: estimate_rip(A, _with_nan(D), 0.7, 2, mode="exhaustive", budget=4),
        lambda A, D: estimate_rip(_with_nan(A), D, 0.7, 2, mode="exhaustive", budget=4),
        lambda A, D: estimate_nsp_theta(_with_nan(A), D, 0.7, 2),
    ],
    ids=["rip-nan-in-D", "rip-nan-in-A", "nsp-nan-in-A"],
)
def test_rip_rejects_non_finite_input(call):
    rng = np.random.default_rng(2)
    with pytest.raises(InvalidParametersError, match="non-finite"):
        call(rng.standard_normal((4, 6)), rng.standard_normal((6, 8)))


@pytest.mark.parametrize(
    "call",
    [
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="sampled", budget=4, seed=-1),
        lambda A, D: estimate_nsp_theta(A, D, 0.7, 2, seed=-1),
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="exhaustive", budget=-3),
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="exhaustive", budget=2.5),
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="sampled", budget=2.5),
        lambda A, D: estimate_nsp_theta(A, D, 0.7, 2, budget=2.5),
        lambda A, D: estimate_nsp_theta(A, D, 0.7, 2, budget=-3),
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="sampled", budget=4, seed=2.5),
        lambda A, D: estimate_nsp_theta(A, D, 0.7, 2, seed=2.5),
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="sampled", budget=4, seed=np.random.SeedSequence(3)),
        lambda A, D: estimate_nsp_theta(A, D, 0.7, 2, seed=np.random.SeedSequence(3)),
    ],
    ids=[
        "rip-negative-seed", "nsp-negative-seed", "exhaustive-negative-budget", "exhaustive-float-budget",
        "sampled-float-budget", "nsp-float-budget", "nsp-negative-budget", "rip-float-seed", "nsp-float-seed",
        "rip-seed-sequence", "nsp-seed-sequence",
    ],
)
def test_rip_rejects_negative_seed_and_budget(call):
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidParametersError):
        call(rng.standard_normal((4, 6)), rng.standard_normal((6, 8)))


@pytest.mark.parametrize(
    "call",
    [
        lambda A, D: estimate_rip(A[0], D, 0.7, 2, mode="sampled", budget=4),
        lambda A, D: estimate_nsp_theta(A[0], D, 0.7, 2),
        lambda A, D: estimate_rip(A, D, 0.7, 2.5, mode="sampled", budget=4),
        lambda A, D: estimate_rip(A, D, 0.7, 2.0, mode="exhaustive", budget=4),
        lambda A, D: estimate_nsp_theta(A, D, 0.7, 2.5),
        lambda A, D: estimate_nsp_theta(A[:, :5], D, 0.7, 2),
        lambda A, D: estimate_rip(A[:0], D, 0.7, 2, mode="sampled", budget=4),
        lambda A, D: estimate_nsp_theta(A[:0], D, 0.7, 2),
        lambda A, D: estimate_rip(A, D, 0.7, 2, mode="greedy"),
        lambda A, D: estimate_rip(A, D, 0.7, 0, mode="sampled", budget=4),
    ],
    ids=["rip-1d-A", "nsp-1d-A", "rip-float-order", "exhaustive-float-order", "nsp-float-order", "nsp-A-D-mismatch",
         "rip-0-row-A", "nsp-0-row-A", "rip-unknown-mode", "rip-order-0"],
)
def test_rip_rejects_malformed_operands(call):
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidParametersError):
        call(rng.standard_normal((4, 6)), rng.standard_normal((6, 8)))


def test_estimate_rip_counts_trials():
    I = np.eye(5)
    rep = estimate_rip(I, I, 1.0, 2, mode="exhaustive", budget=3, seed=0)
    # C(5,2) supports, each probed with 2 axes + flat + 3 random directions
    assert rep.trials == 10 * 6


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_estimate_rip_evaluates_an_order_above_d_at_d(mode):
    # no support holds more than the d = 8 atoms, so order 11 has the order-8 constant
    rng = np.random.default_rng(5)
    A, D = rng.standard_normal((4, 6)), rng.standard_normal((6, 8))
    rep = estimate_rip(A, D, 0.7, 11, mode=mode, budget=4)
    assert rep == estimate_rip(A, D, 0.7, 8, mode=mode, budget=4)
    assert rep.order == 8


def test_estimate_nsp_theta_is_inf_at_an_order_above_d():
    # an order above the d = 8 atoms is evaluated at d, where every kernel vector has zero rest-mass
    rng = np.random.default_rng(4)
    A, D = rng.standard_normal((4, 6)), rng.standard_normal((6, 8))
    assert estimate_nsp_theta(A, D, 0.7, 9) == math.inf


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
    assert set(dataclasses.asdict(v)) == {"lhs", "rhs", "holds", "theta", "Delta"}


def _closed_form_theta(delta_a, delta_sa, s, a, kappa, q):
    # the single-dictionary null-space constant as written before it became the split constant at one component
    rho, delta_ratio = s / a, (1.0 + delta_a) / (1.0 - delta_sa)
    return (
        2.0 ** (-q / 2.0)
        * (1.0 + math.sqrt(1.0 + 4.0 * kappa**-2.0 * delta_ratio ** (-2.0 / q))) ** (q / 2.0)
        * kappa**q
        * delta_ratio
        * rho ** (1.0 - q / 2.0)
    )


def test_condition_theta_is_the_closed_form():
    rng = np.random.default_rng(322)
    for _ in range(200):
        q = rng.uniform(0.05, 1.0)
        a = int(rng.integers(2, 50))
        s = int(rng.integers(1, a))
        args = (rng.uniform(0, 0.99), rng.uniform(0, 0.99), s, a, rng.uniform(1.0, 6.0), q)
        assert check_recovery_condition(*args).theta == pytest.approx(_closed_form_theta(*args), rel=1e-12, abs=0)
    # at q = 0.01 the squared amplification ((kappa^q Delta)^(2/q))^2 exceeds the float range
    for args in [(0.9, 0.7, 1, 10, 1.0, 0.01), (0.99, 0.99, 1, 4, 1.0, 0.01), (0.5, 0.5, 1, 10**6, 6.0, 0.01)]:
        v = check_recovery_condition(*args)
        assert v.theta == pytest.approx(_closed_form_theta(*args), rel=1e-12, abs=0)
        assert (v.theta < 1.0) == v.holds
    assert check_recovery_condition(0.9, 0.7, 1, 10, 1.0, 0.01).holds


def test_condition_rejects_bad_inputs():
    # a delta_sa of 1 or more rules the condition out; lhs does not depend on it
    lhs = check_recovery_condition(0.1, 0.1, 1, 4, 1.0, 0.7).lhs
    for delta_sa in (1.0, math.inf):
        v = check_recovery_condition(0.1, delta_sa, 1, 4, 1.0, 0.7)
        assert (v.holds, v.theta, v.Delta, v.lhs, v.rhs) == (False, None, None, lhs, 1.0 - delta_sa)
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
# measurement_bound
# ---------------------------------------------------------------------------

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


def test_measurement_bound_is_nonnegative_and_nondecreasing_where_k_crosses_d():
    # k = (t + 1) s runs from 51 s (q = 1, kappa = 1) to 1251 s (q = 1, kappa = 5);
    # past k = d the union term stops at d, so the grid holds d on both sides of k
    kappas = (1.0, 1.5, 2.0, 3.0, 5.0)
    for q in (0.5, 0.7, 1.0):
        for s in (1, 5, 25):
            ds = sorted({s * 2**j for j in range(12)} | {51 * s - 1, 51 * s, 51 * s + 1})
            grid = np.array([[measurement_bound(q, s, d, kappa) for d in ds] for kappa in kappas])
            assert np.all(grid >= 0.0)
            assert np.all(np.diff(grid, axis=0) >= 0.0)
            assert np.all(np.diff(grid, axis=1) >= 0.0)
    assert measurement_bound(1.0, 5, 20, kappa=5.0) == pytest.approx(1136464.426154814, rel=1e-12)  # was -240284


# ---------------------------------------------------------------------------
# estimate_nsp_theta
# ---------------------------------------------------------------------------

def test_nsp_rejects_trivial_kernel():
    with pytest.raises(InvalidParametersError, match="^measurement matrix has a trivial null space$"):
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
    A = rng.standard_normal((m, d)) / (m * gaussian_moment(q)) ** (1.0 / q)
    rep = estimate_rip(A, np.eye(d), q, s, mode="sampled", budget=24, seed=3)
    assert rep.delta < 0.9
