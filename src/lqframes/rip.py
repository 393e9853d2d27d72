"""Restricted q-isometry diagnostics for dictionary-sparse recovery.

Estimators for the q-RIP constant of a measurement matrix relative to a
dictionary, recovery-condition checks with their error constants, and the
Gaussian measurement-count machinery (moment and tail constants, covering
failure probability, explicit lower bounds).

Estimated constants are maxima over sampled sparse directions and are
therefore certified *lower* bounds on the true constants; they can falsify
a recovery condition but never certify it.
"""

import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    ConditionUnevaluableError,
    DegenerateDictionaryError,
    EmptyKernelError,
    InvalidParametersError,
)
from .frames import _atoms, _check_q

__all__ = [
    "RipReport",
    "RecoveryConditionVerdict",
    "GaussianTail",
    "gaussian_moment",
    "tail_constant",
    "estimate_rip",
    "check_recovery_condition",
    "error_constants",
    "gaussian_failure_probability",
    "measurement_bound",
    "estimate_nsp_theta",
]

# Cap on supports enumerated by exhaustive estimation.
DEFAULT_SUPPORT_CAP = 10**6


def gaussian_moment(q: float, sigma: float = 1.0) -> float:
    """E|g|^q for g ~ N(0, sigma^2): sigma^q 2^(q/2) Gamma((q+1)/2)/sqrt(pi)."""
    _check_q(q)
    if sigma <= 0:
        raise InvalidParametersError(f"sigma must be positive, got {sigma}")
    return sigma**q * 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)


def tail_constant(q: float) -> float:
    """Constant beta_q in the deviation bound 2 exp(-eta^2 m / (2 q beta_q^2)).

    Evaluates (31/40)^(1/4) [1.13 + sqrt(q) (Gamma((q+1)/2)/sqrt(pi))^(-1/q)],
    using a log-gamma form so tiny q stays accurate.
    """
    _check_q(q)
    log_ratio = math.lgamma((q + 1.0) / 2.0) - 0.5 * math.log(math.pi)
    return (31.0 / 40.0) ** 0.25 * (1.13 + math.sqrt(q) * math.exp(-log_ratio / q))


def _ceil_exact(x: float) -> int:
    # Absorbs float roundoff when the exact value is an integer,
    # e.g. (5*2**0.5)**2 = 50.00000000000001.
    return int(math.ceil(x - 1e-9 * max(1.0, abs(x))))


def _bound_from_t(q: float, s: int, d: int, t: int) -> float:
    b2 = tail_constant(q) ** 2
    log_ed_s = 1.0 + math.log(d / s)
    bracket = (t + 1) * (math.log(3.0) - math.log(t + 1.0)) * s + math.log(2.0) + (t + 2) * s * log_ed_s
    return 6.25 * q * b2 * bracket + 17.6 * b2 * (t + 1) * s


def measurement_bound(q: float, s: int, d: int, kappa: float = 1.0) -> float:
    """Gaussian measurement count sufficient for the q-RIP recovery condition.

    Returns the bound as a real number; callers take the ceiling.  The
    internal comparison order is t = ceil((5 * 2^(q/2) * kappa^q)^(2/(2-q))).
    """
    _check_q(q)
    if not 1 <= s <= d:
        raise InvalidParametersError(f"need 1 <= s <= d, got s={s}, d={d}")
    if kappa < 1.0:
        raise InvalidParametersError(f"kappa must be >= 1, got {kappa}")
    t = _ceil_exact((5.0 * 2.0 ** (q / 2.0) * kappa**q) ** (2.0 / (2.0 - q)))
    return _bound_from_t(q, s, d, t)


@dataclass(frozen=True)
class GaussianTail:
    """Inputs and outputs of the covering-number failure bound."""

    q: float
    sigma: float
    eta: float
    eps_cover: float
    m: int
    k: int
    d: int
    moment: float
    tail: float
    failure_probability: float
    delta_implied: float


def gaussian_failure_probability(
    q: float, eta: float, eps_cover: float, m: int, k: int, d: int, sigma: float = 1.0
) -> GaussianTail:
    """Probability that a Gaussian matrix misses the uniform q-isometry.

    Evaluates min(1, 2 (3 e d / (eps k))^k exp(-eta^2 m / (2 q beta_q^2)))
    in log space, together with the isometry constant it certifies,
    delta = (eta + eps^q) / (1 - eps^q).
    """
    _check_q(q)
    if min(eta, eps_cover, m, k, d, sigma) <= 0:
        raise InvalidParametersError("all parameters must be positive")
    if k > d:
        raise InvalidParametersError(f"need k <= d, got k={k}, d={d}")
    if eps_cover**q >= 1.0:
        raise InvalidParametersError(f"eps_cover^q must be < 1, got {eps_cover**q}")
    beta = tail_constant(q)
    log_cover = k * (math.log(3.0) + 1.0 + math.log(d) - math.log(eps_cover) - math.log(k))
    log_p = math.log(2.0) + log_cover - eta * eta * m / (2.0 * q * beta * beta)
    prob = 1.0 if log_p >= 0.0 else math.exp(log_p)
    delta = (eta + eps_cover**q) / (1.0 - eps_cover**q)
    return GaussianTail(
        q=q,
        sigma=sigma,
        eta=eta,
        eps_cover=eps_cover,
        m=m,
        k=k,
        d=d,
        moment=gaussian_moment(q, sigma),
        tail=beta,
        failure_probability=prob,
        delta_implied=delta,
    )


@dataclass(frozen=True)
class RecoveryConditionVerdict:
    """Recovery-condition check with all intermediate quantities.

    ``holds`` is True when lhs < rhs for
    lhs = rho^(1-q/2) (rho^(2/q-1) + 1)^(q/2) kappa^q (1 + delta_a) and
    rhs = 1 - delta_{s+a}.  ``theta`` is the induced null-space constant;
    theta < 1 exactly when the condition holds.
    """

    rho: float
    kappa: float
    Delta: float
    theta: float
    lhs: float
    rhs: float
    holds: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "theta": self.theta,
            "Delta": self.Delta,
        }


def check_recovery_condition(
    delta_a: float, delta_sa: float, s: int, a: int, kappa: float, q: float
) -> RecoveryConditionVerdict:
    """Evaluate the q-RIP recovery condition for orders (s, s + a)."""
    _check_q(q)
    if not 0 < s < a:
        raise InvalidParametersError(f"need 0 < s < a, got s={s}, a={a}")
    if kappa < 1.0:
        raise InvalidParametersError(f"kappa must be >= 1, got {kappa}")
    if delta_a < 0.0 or delta_sa < 0.0:
        raise InvalidParametersError("RIP constants must be nonnegative")
    if delta_sa >= 1.0:
        raise ConditionUnevaluableError(f"delta_(s+a) = {delta_sa} >= 1")
    rho = s / a
    lhs = rho ** (1.0 - q / 2.0) * (rho ** (2.0 / q - 1.0) + 1.0) ** (q / 2.0) * kappa**q * (1.0 + delta_a)
    rhs = 1.0 - delta_sa
    delta_ratio = (1.0 + delta_a) / (1.0 - delta_sa)
    theta = (
        2.0 ** (-q / 2.0)
        * (1.0 + math.sqrt(1.0 + 4.0 * kappa**-2.0 * delta_ratio ** (-2.0 / q))) ** (q / 2.0)
        * kappa**q
        * delta_ratio
        * rho ** (1.0 - q / 2.0)
    )
    return RecoveryConditionVerdict(
        rho=rho, kappa=kappa, Delta=delta_ratio, theta=theta, lhs=lhs, rhs=rhs, holds=lhs < rhs
    )


def error_constants(theta: float, rho: float, q: float, lower_bound: float, delta_a: float):
    """Error amplification constants (C1, C2) of the recovery guarantee.

    C1 multiplies the best-s-term analysis residual, C2 the noise level.
    Requires theta < 1.
    """
    _check_q(q)
    if theta >= 1.0:
        raise ConditionUnevaluableError(f"theta = {theta} >= 1")
    if theta < 0.0 or not 0.0 < rho < 1.0 or lower_bound <= 0.0 or delta_a < 0.0:
        raise InvalidParametersError("invalid theta/rho/lower_bound/delta_a")
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
    counts evaluated pairs; ``degenerate`` counts skipped directions whose
    dictionary combination was exactly zero.
    """

    order: int
    q: float
    delta: float
    method: str
    trials: int
    degenerate: int = 0

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "q": self.q,
            "delta": self.delta,
            "method": self.method,
            "trials": self.trials,
        }


def _direction_block(s: int, rng, extra: int) -> np.ndarray:
    # Coordinate axes, the flat direction, then random points on the sphere.
    cols = [np.eye(s), np.full((s, 1), 1.0 / math.sqrt(s))]
    if extra > 0:
        g = rng.standard_normal((s, extra))
        norms = np.linalg.norm(g, axis=0)
        norms[norms == 0.0] = 1.0
        cols.append(g / norms)
    return np.concatenate(cols, axis=1)


def rip_scan(ad_s, d_s, dirs, q):
    """Worst q-isometry deviation of one support over direction columns.

    ``ad_s`` (m x k) is A applied to the support's k dictionary columns
    ``d_s`` (n x k), and ``dirs`` (k x t) holds the coefficient directions.
    Returns ``(max_dev, n_degenerate)``: the largest |ratio - 1| over the
    directions with D_S v != 0 (-1.0 when there are none) and the count of
    directions with D_S v = 0, where ratio = |A D_S v|_q^q / |D_S v|_2^q.
    """
    y = ad_s @ dirs
    z = d_s @ dirs
    den_sq = np.sum(z * z, axis=0)
    good = den_sq > 0.0
    n_degenerate = int(np.sum(~good))
    if not np.any(good):
        return -1.0, n_degenerate
    num = np.sum(np.abs(y[:, good]) ** q, axis=0)
    ratios = num / den_sq[good] ** (q / 2.0)
    return float(np.max(np.abs(ratios - 1.0))), n_degenerate


def estimate_rip(
    A,
    D,
    q: float,
    s: int,
    mode: str = "exhaustive",
    budget: int = 32,
    seed=0,
    max_supports: int = DEFAULT_SUPPORT_CAP,
) -> RipReport:
    """Estimate the q-RIP constant of A relative to dictionary D at order s.

    In exhaustive mode every size-s support is enumerated and probed with
    the coordinate axes, the flat direction, and ``budget`` random sphere
    directions.  In sampled mode ``budget`` random supports are drawn, each
    probed with the deterministic directions plus 8 random ones.
    Per-support randomness is derived from (seed, index), so results do not
    depend on evaluation order and grow monotonically with the budget for a
    fixed seed.
    """
    _check_q(q)
    A = np.asarray(A, dtype=float)
    Dm = _atoms(D)
    d = Dm.shape[1]
    if not 1 <= s <= d:
        raise InvalidParametersError(f"need 1 <= s <= d, got s={s}, d={d}")
    if A.shape[1] != Dm.shape[0]:
        raise InvalidParametersError(
            f"A has {A.shape[1]} columns but dictionary ambient dimension is {Dm.shape[0]}"
        )
    ad = A @ Dm
    entropy = _seed_entropy(seed)

    if mode == "exhaustive":
        n_supports = comb(d, s)
        if n_supports > max_supports:
            raise InvalidParametersError(
                f"exhaustive mode would enumerate {n_supports} supports, cap is {max_supports}"
            )
        indexed_supports = enumerate(itertools.combinations(range(d), s))
        extra = budget
    elif mode == "sampled":
        if budget < 1:
            raise InvalidParametersError("sampled mode needs budget >= 1")
        rngs = (np.random.default_rng(np.random.SeedSequence([entropy, i, 7])) for i in range(budget))
        indexed_supports = enumerate(np.sort(gen.choice(d, size=s, replace=False)) for gen in rngs)
        extra = 8  # random directions per sampled support
    else:
        raise InvalidParametersError(f"unknown mode {mode!r}")

    best = -1.0
    trials = 0
    degenerate = 0
    for index, support in indexed_supports:
        cols = np.fromiter(support, dtype=int)
        rng = np.random.default_rng(np.random.SeedSequence([entropy, index]))
        dirs = _direction_block(s, rng, extra)
        dev, ndeg = rip_scan(ad[:, cols], Dm[:, cols], dirs, q)
        trials += dirs.shape[1]
        degenerate += ndeg
        best = max(best, dev)

    if best < 0.0:
        raise DegenerateDictionaryError("every sampled sparse combination of dictionary columns was zero")
    return RipReport(order=s, q=q, delta=best, method=mode, trials=trials, degenerate=degenerate)


def _seed_entropy(seed) -> int:
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0])
    return int(seed)


def estimate_nsp_theta(A, D, q: float, s: int, budget: int = 64, seed=0) -> float:
    """Lower bound on the null-space constant of A relative to D at order s.

    Samples ``budget`` random vectors from ker(A) (plus the kernel basis
    itself) and, for each, takes the exact worst support: the ratio of the
    s largest |coefficient|^q mass to the rest, which maximizes
    |D_T^* h|_q^q / |D_{T^c}^* h|_q^q over all |T| <= s.  Returns inf when
    some kernel vector has all coefficient mass on s entries.
    """
    _check_q(q)
    A = np.asarray(A, dtype=float)
    Dm = _atoms(D)
    d = Dm.shape[1]
    if not 1 <= s <= d:
        raise InvalidParametersError(f"need 1 <= s <= d, got s={s}, d={d}")
    _, svals, vt = np.linalg.svd(A)
    rank = int(np.sum(svals > svals[0] * 1e-12)) if svals.size else 0
    null_basis = vt[rank:]
    if null_basis.shape[0] == 0:
        raise EmptyKernelError("measurement matrix has a trivial null space")

    best = 0.0
    entropy = _seed_entropy(seed)
    candidates = list(null_basis)
    for i in range(budget):
        rng = np.random.default_rng(np.random.SeedSequence([entropy, i]))
        g = rng.standard_normal(null_basis.shape[0])
        h = null_basis.T @ g
        norm = np.linalg.norm(h)
        if norm > 0:
            candidates.append(h / norm)
    for h in candidates:
        powers = np.abs(Dm.T @ h) ** q
        total = float(np.sum(powers))
        if total <= 0.0:
            continue
        top = float(np.sum(np.partition(powers, d - s)[d - s :])) if s < d else total
        rest = total - top
        if rest <= 0.0:
            return math.inf
        best = max(best, top / rest)
    return best
