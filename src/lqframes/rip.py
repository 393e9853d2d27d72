"""Restricted q-isometry diagnostics for dictionary-sparse recovery.

Estimators for the q-RIP constant of a measurement matrix relative to a
dictionary, recovery-condition checks with their null-space and error
constants (the split constant of data separation included), and the
Gaussian measurement-count machinery (moment and tail constants, explicit
lower bounds).

Estimated constants are maxima over sampled sparse directions and are
therefore certified *lower* bounds on the true constants; they can falsify
a recovery condition but never certify it.
"""

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConditionUnevaluableError, DegenerateDictionaryError, InvalidParametersError
from .frames import _atoms, _check_int, _check_q, _check_real, _matrix, _one_blas_thread, _rank

__all__ = [
    "RipReport",
    "RecoveryConditionVerdict",
    "gaussian_moment",
    "tail_constant",
    "estimate_rip",
    "check_recovery_condition",
    "split_nsp_constant",
    "error_constants",
    "measurement_bound",
    "estimate_nsp_theta",
]

# Cap on supports enumerated by exhaustive estimation.
DEFAULT_SUPPORT_CAP = 10**6

# Entries in one block's stacked A D_S V (and D_S V) in exhaustive mode.
_BATCH_ENTRIES = 1 << 14


def gaussian_moment(q: float) -> float:
    """E|g|^q for a standard Gaussian g: 2^(q/2) Gamma((q+1)/2)/sqrt(pi)."""
    _check_q(q)
    return 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


def tail_constant(q: float) -> float:
    """Constant beta_q in the deviation bound 2 exp(-eta^2 m / (2 q beta_q^2)).

    Evaluates (31/40)^(1/4) [1.13 + sqrt(q) (Gamma((q+1)/2)/sqrt(pi))^(-1/q)],
    using a log-gamma form so tiny q stays accurate.
    """
    _check_q(q)
    log_ratio = math.lgamma((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return (31.0 / 40.0) ** 0.25 * (1.13 + math.sqrt(q) * math.exp(-log_ratio / q))


def _comparison_order(q: float, kappa: float) -> int:
    """The comparison order t = ceil((5 * 2^(q/2) * kappa^q)^(2/(2-q))) of the q-RIP recovery condition."""
    x = (5.0 * 2.0 ** (q / 2.0) * kappa**q) ** (2.0 / (2.0 - q))
    # Absorbs float roundoff when the exact value is an integer,
    # e.g. (5*2**0.5)**2 = 50.00000000000001.
    return int(math.ceil(x - 1e-9 * max(1.0, x)))


def _log_union(d: int, k: int) -> float:
    """Stirling's k log(e d / k) >= log C(d, k), the log count of the order-k supports among d atoms."""
    return k * (1.0 + math.log(d) - math.log(k))


def measurement_bound(q: float, s: int, d: int, kappa: float = 1.0) -> float:
    """Gaussian measurement count sufficient for the q-RIP recovery condition.

    Returns the real number 6.25 q beta_q^2 L + 17.6 beta_q^2 k, which callers
    round up, where t = ceil((5 * 2^(q/2) * kappa^q)^(2/(2-q))), k = (t + 1) s
    and L = log 2 + k log 3 + u log(e d / u) + s log(e d / s).  The union term
    stops at u = min(k, d), as a q-RIP of an order above d is the one of
    order d; k log 3 and 17.6 beta_q^2 k keep k.  q lies in (0, 1], kappa in
    [1, inf), and integers s >= 1 and d >= s; a kappa or d whose bound
    overflows a float raises InvalidParametersError.
    """
    _check_q(q)
    _check_int("s", s, 1)
    _check_int("d", d, s)
    _check_real("d", d, "[1, inf)")
    _check_real("kappa", kappa, "[1, inf)")
    b2 = tail_constant(q) ** 2
    try:
        k = (_comparison_order(q, kappa) + 1) * s
        bracket = math.log(2.0) + k * math.log(3.0) + _log_union(d, min(k, d)) + _log_union(d, s)
    except OverflowError:
        raise InvalidParametersError("kappa overflows a float in the measurement bound") from None
    return 6.25 * q * b2 * bracket + 17.6 * b2 * k


@dataclass(frozen=True)
class RecoveryConditionVerdict:
    """Recovery-condition check with all intermediate quantities.

    ``holds`` is True when lhs < rhs for rho = s/a,
    lhs = rho^(1-q/2) (rho^(2/q-1) + 1)^(q/2) kappa^q (1 + delta_a) and
    rhs = 1 - delta_{s+a}.  ``theta`` is the induced null-space constant;
    theta < 1 exactly when the condition holds.  ``Delta`` and ``theta``
    are None when delta_{s+a} >= 1 rules the condition out.  The fields
    are declared in the order ``lqframes rip-estimate`` prints them.
    """

    lhs: float
    rhs: float
    holds: bool
    theta: float | None
    Delta: float | None


def check_recovery_condition(
    delta_a: float, delta_sa: float, s: int, a: int, kappa: float, q: float
) -> RecoveryConditionVerdict:
    """Evaluate the q-RIP recovery condition for orders (s, s + a).

    kappa lies in [1, inf] and delta_a and delta_sa in [0, inf].  theta is
    the split null-space constant of one component with no coherence and
    the isometry ratio kappa^q Delta, Delta = (1 + delta_a)/(1 - delta_sa).
    A delta_sa of 1 or more rules the condition out: rhs <= 0 < lhs, and
    Delta and theta are None.
    """
    _check_q(q)
    _check_int("s", s, 1)
    _check_int("a", a, s + 1)
    _check_real("kappa", kappa, "[1, inf]")
    _check_real("delta_a", delta_a, "[0, inf]")
    _check_real("delta_sa", delta_sa, "[0, inf]")
    rho = s / a
    lhs = rho ** (1.0 - q / 2.0) * (rho ** (2.0 / q - 1.0) + 1.0) ** (q / 2.0) * kappa**q * (1.0 + delta_a)
    rhs = 1.0 - delta_sa
    delta_ratio = theta = None
    if delta_sa < 1.0:
        delta_ratio = (1.0 + delta_a) / (1.0 - delta_sa)
        theta = split_nsp_constant(rho, kappa**q * delta_ratio, 0.0, q, 1)
    return RecoveryConditionVerdict(lhs=lhs, rhs=rhs, holds=lhs < rhs, theta=theta, Delta=delta_ratio)


def split_nsp_constant(rho: float, delta_ratio: float, U: float, q: float, iota: int) -> float:
    """Split null-space constant theta_tilde from (rho, Delta, U, q, iota).

    rho lies in (0, 1), delta_ratio in [1, inf], U in [0, 1), q in (0, 1]
    and iota is an integer >= 1.  Delta is factored out of the bracket,
    with mu = Delta^(-2/q) in [0, 1], so no intermediate overflows: the
    result is inf only when theta_tilde itself exceeds the float range.
    """
    _check_q(q)
    _check_real("rho", rho, "(0, 1)")
    _check_real("delta_ratio", delta_ratio, "[1, inf]")
    _check_real("U", U, "[0, 1)")
    _check_int("iota", iota, 1)
    mu = delta_ratio ** (-2.0 / q)
    bracket = (U * mu + iota + math.sqrt((U * mu - iota) ** 2 + 4.0 * iota * mu)) / (2.0 * (1.0 - U))
    return delta_ratio * rho ** (1.0 - q / 2.0) * bracket ** (q / 2.0)


def error_constants(theta: float, rho: float, q: float, lower_bound: float, delta_a: float):
    """Error amplification constants (C1, C2) of the recovery guarantee.

    C1 multiplies the best-s-term analysis residual, C2 the noise level.
    theta lies in [0, inf], and one of 1 or more raises
    ConditionUnevaluableError; rho lies in (0, 1), lower_bound in (0, inf]
    and delta_a in [0, inf].
    """
    _check_q(q)
    _check_real("theta", theta, "[0, inf]")
    if theta >= 1.0:
        raise ConditionUnevaluableError(f"theta must lie in [0, 1), got {theta!r}")
    _check_real("rho", rho, "(0, 1)")
    _check_real("lower_bound", lower_bound, "(0, inf]")
    _check_real("delta_a", delta_a, "[0, inf]")
    one_m_theta = (1.0 - theta) ** (1.0 / q)
    c1 = (2.0 * theta + 2.0 * rho ** (1.0 - q / 2.0)) ** (1.0 / q) / (math.sqrt(lower_bound) * one_m_theta)
    c2 = (2.0 * theta + 2.0 * theta * rho ** (q / 2.0 - 1.0)) ** (1.0 / q) / (
        one_m_theta * (1.0 + delta_a) ** (1.0 / q)
    )
    return c1, c2


@dataclass(frozen=True)
class RipReport:
    """Estimated q-RIP constant of one order.

    ``delta`` is a certified lower bound on the true constant (the maximum
    deviation seen over the evaluated support/direction pairs).  ``trials``
    counts those pairs, every coordinate axis of every support included,
    though each atom's axis ratio is computed once.  ``degenerate`` counts
    the skipped pairs whose dictionary combination D_S v was exactly zero:
    the axis of a zero atom once for each support holding it, and each flat
    or random direction that cancels.
    """

    order: int
    q: float
    delta: float
    method: str
    trials: int
    degenerate: int = 0


def rip_scan(ad_s, d_s, dirs, q):
    """Worst q-isometry deviation over a stack of supports and their directions.

    For one support, ``ad_s`` (m x k) is A applied to its k dictionary
    columns ``d_s`` (n x k), and ``dirs`` (k x t) holds the coefficient
    directions.  The operands may carry a leading axis that stacks N
    supports, (N, m, k), (N, n, k) and (N, k, t); sums run over ``axis=-2``.
    ``estimate_rip`` passes a block of supports in exhaustive mode and a
    single support in sampled mode.
    Returns ``(max_dev, n_degenerate)`` over the whole stack: the largest
    |ratio - 1| over the directions with D_S v != 0 (-1.0 when there are
    none) and the count of directions with D_S v = 0, where
    ratio = |A D_S v|_q^q / |D_S v|_2^q.
    """
    y = ad_s @ dirs
    z = d_s @ dirs
    dev, good = _deviations(np.sum(np.abs(y) ** q, axis=-2), np.sum(z * z, axis=-2), q)
    return float(np.max(dev, initial=-1.0)), good.size - int(np.count_nonzero(good))


def _deviations(num, den_sq, q):
    """|num / den_sq^(q/2) - 1| where den_sq > 0, and the mask of those entries."""
    good = den_sq > 0.0
    return np.abs(num[good] / den_sq[good] ** (q / 2.0) - 1.0), good


@_one_blas_thread()
def estimate_rip(
    A,
    D,
    q: float,
    s: int,
    mode: str = "exhaustive",
    budget: int = 32,
    seed: int = 0,
) -> RipReport:
    """Estimate the q-RIP constant of A relative to dictionary D at order s.

    An order s above the d atoms of D is evaluated at d, as no support holds
    more than d atoms; ``order`` and ``trials`` report the order evaluated.

    A is taken as given.  The constant measures |A D_S v|_q^q against
    |D_S v|_2^q, so it is near 0 only for an A normalised so that
    E|A x|_q^q = |x|_2^q: an m-row Gaussian A divided by
    (m E|g|^q)^(1/q), with E|g|^q = ``gaussian_moment(q)``.

    In exhaustive mode every size-s support is enumerated and probed with
    the coordinate axes, the flat direction, and ``budget`` random sphere
    directions.  In sampled mode ``budget`` random supports are drawn, each
    probed with the deterministic directions plus 8 random ones.  The
    seed, a non-negative integer, gives one stream of supports and one of
    directions, and support i reads the i-th slice of each.  So in sampled
    mode the first b supports and their directions do not depend on the
    budget, and delta grows with it; exhaustive mode redraws its directions
    when the budget changes, so delta may fall.  Neither mode depends on
    block size or evaluation order.  Exhaustive mode refuses more than
    ``DEFAULT_SUPPORT_CAP`` supports.

    A coordinate axis of a support S gives D_S e_i = d_i, the atom itself,
    so each axis ratio |(A D)_i|_q^q / |d_i|_2^q is computed once per atom.
    Delta takes the largest axis deviation over the atoms that some scanned
    support holds, and a zero atom counts as one degenerate direction for
    each scanned support holding it.  Each support is then scanned with the
    flat direction and its random ones.  Supports come in chunks of about
    ``_BATCH_ENTRIES`` entries of A D_S V, and each chunk draws its support
    uniforms and its normals with one call per stream.  An exhaustive chunk
    is one stacked ``rip_scan`` call, which keeps the per-support Python cost
    out of the enumeration.  A sampled chunk gathers and scans its supports
    one at a time: at sampled orders one support's D_S already holds
    thousands of entries, and one ``rip_scan`` call per sampled support is
    what ``lqbench`` traces count as supports.
    """
    A, Dm, entropy = _operands(A, D, q, budget, seed)
    (m, n), d = A.shape, Dm.shape[1]
    _check_int("s", s, 1)
    s = min(s, d)
    support_rng, direction_rng = map(np.random.default_rng, np.random.SeedSequence(entropy).spawn(2))
    extra = budget if mode == "exhaustive" else 8  # random directions per sampled support
    block = max(1, _BATCH_ENTRIES // ((1 + extra) * max(m, n)))

    if mode == "exhaustive":
        n_supports = comb(d, s)
        if n_supports > DEFAULT_SUPPORT_CAP:
            raise InvalidParametersError(
                f"exhaustive mode would enumerate {n_supports} supports, cap is {DEFAULT_SUPPORT_CAP}"
            )
        enumerated = itertools.combinations(range(d), s)
        chunks = map(np.array, iter(lambda: list(itertools.islice(enumerated, block)), []))
    elif mode == "sampled":
        _check_int("sampled mode budget", budget, 1)
        # The s smallest of d uniforms index a uniform s-subset.
        chunks = (
            np.sort(np.argpartition(support_rng.random((k, d)), s - 1, axis=1)[:, :s], axis=1)
            for k in (min(block, budget - i) for i in range(0, budget, block))
        )
    else:
        raise InvalidParametersError(f"unknown mode {mode!r}")

    AD = A @ Dm
    # D_S e_i = d_i whatever S holds atom i, so each axis ratio is computed
    # once per atom.  np.sum adds row by row only over a C-ordered array more
    # than one column wide, as rip_scan's products are; running sums add row
    # by row at any layout and width, so each ratio is bit for bit the one a
    # scan of that axis beside other directions gives.
    axis_dev, live = _deviations(np.add.accumulate(np.abs(AD) ** q)[-1], np.add.accumulate(Dm * Dm)[-1], q)
    # Rows are atoms, so adT[cols] and dT[cols] are contiguous gathers.
    adT = np.ascontiguousarray(AD.T)
    dT = np.ascontiguousarray(Dm.T)
    held = np.zeros(d, dtype=np.int64)  # scanned supports holding each atom
    best = -1.0
    degenerate = 0
    scanned = 0
    step = block if mode == "exhaustive" else 1
    for cols in chunks:
        held += np.bincount(cols.ravel(), minlength=d)
        # The flat direction, then random points on the sphere.
        dirs = np.empty((len(cols), s, 1 + extra))
        dirs[:, :, 0] = 1.0 / math.sqrt(s)
        # Support i's directions are the i-th extra * s normals of the stream.
        g = direction_rng.standard_normal((len(cols), extra, s)).transpose(0, 2, 1)
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs[:, :, 1:] = g / norms
        for i in range(0, len(cols), step):
            part = cols[i : i + step]
            ad_s, d_s = adT[part].transpose(0, 2, 1), dT[part].transpose(0, 2, 1)
            dev, ndeg = rip_scan(ad_s, d_s, dirs[i : i + step], q)
            best = max(best, dev)
            degenerate += ndeg
        scanned += len(cols)

    best = max(best, float(np.max(axis_dev[held[live] > 0], initial=-1.0)))
    degenerate += int(np.sum(held[~live]))
    if best < 0.0:
        raise DegenerateDictionaryError("every sampled sparse combination of dictionary columns was zero")
    return RipReport(
        order=s, q=q, delta=best, method=mode, trials=scanned * (s + 1 + extra), degenerate=degenerate
    )


@_one_blas_thread()
def estimate_nsp_theta(A, D, q: float, s: int, budget: int = 64, seed: int = 0) -> float:
    """Lower bound on the null-space constant of A relative to D at order s.

    Scores the kernel basis of A and ``budget`` random vectors from ker(A),
    drawn from the non-negative integer ``seed``, in one stacked product.
    For each vector h it takes the exact worst support: the ratio of the s
    largest |coefficient|^q mass of D^T h to the rest, which maximizes
    |D_T^* h|_q^q / |D_{T^c}^* h|_q^q over all |T| <= s; the ratio does not
    depend on the scale of h.  Returns inf when some kernel vector with
    D^T h != 0 has all its mass on s entries.  An order s above the d atoms
    of D is evaluated at d, as ``estimate_rip`` does; the rest-mass is then
    zero, so the bound is inf whenever some D^T h != 0.
    """
    A, Dm, entropy = _operands(A, D, q, budget, seed)
    _check_int("s", s, 1)
    s = min(s, Dm.shape[1])
    _, sv, vt = np.linalg.svd(A)
    null_basis = vt[_rank(sv):]
    k = null_basis.shape[0]
    if k == 0:
        raise InvalidParametersError("measurement matrix has a trivial null space")

    draws = np.random.default_rng(entropy).standard_normal((budget, k))
    powers = np.abs(Dm.T @ np.vstack([null_basis, draws @ null_basis]).T) ** q
    ranked = np.partition(powers, -s, axis=0)  # the s largest last, in each column
    top, rest = ranked[-s:].sum(axis=0), ranked[:-s].sum(axis=0)
    live = top > 0.0
    if np.any(rest[live] <= 0.0):
        return math.inf
    return float(np.max(top[live] / rest[live], initial=0.0))


def _operands(A, D, q: float, budget: int, seed):
    """The checked inputs of the q-RIP estimators: ``(A, atoms of D, seed entropy)``.

    Requires q in (0, 1], finite 2-D A and D with as many columns in A as
    D has rows, an integer budget >= 0 and a seed that is a non-negative
    integer.  Each estimator checks its own order s.
    """
    _check_q(q)
    A, Dm = _matrix("A", A), _atoms(D)
    if A.shape[1] != Dm.shape[0]:
        raise InvalidParametersError(f"A has {A.shape[1]} columns but the dictionary has {Dm.shape[0]} rows")
    _check_int("budget", budget, 0)
    _check_int("seed", seed, 0)
    return A, Dm, int(seed)
