"""Benchmark inputs, generated here from a seed with numpy alone.

The arrays that rip and cli_solve hand to the program are made here, so a
change to lqframes' own generators cannot change them.  recovery and
separation hand over only a master seed; the program draws their trials.
"""

import math

import numpy as np

Q = 0.7


def tight_frame(rng, n, d):
    """n x d matrix with orthonormal rows (D D^T = I): a unit tight frame."""
    g = rng.standard_normal((d, n))
    q, r = np.linalg.qr(g)
    return (q * np.sign(np.diag(r))).T


def gaussian(rng, m, n, q=None):
    """m x n standard Gaussian matrix.

    With ``q`` the entries are scaled so that E|A x|_q^q = |x|_2^q, the
    normalisation under which a q-RIP constant is near 0 for good matrices.
    """
    a = rng.standard_normal((m, n))
    if q is not None:
        moment = 2.0 ** (q / 2.0) * math.gamma((q + 1.0) / 2.0) / math.sqrt(math.pi)
        a *= (m * moment) ** (-1.0 / q)
    return a


def cosparse(rng, D, s):
    """Unit signal f whose analysis coefficients D^T f have at most s nonzeros.

    Needs s > d - n, so that the d - s annihilated rows leave a nonzero
    null space.
    """
    n, d = D.shape
    cosupport = rng.choice(d, size=d - s, replace=False)
    _, svals, vt = np.linalg.svd(D[:, cosupport].T)
    rank = int(np.sum(svals > svals[0] * 1e-10))
    basis = vt[rank:]
    f = basis.T @ (basis @ rng.standard_normal(n))
    return f / np.linalg.norm(f)


def residual_norm(r, norm):
    return float(np.max(np.abs(r))) if norm == "inf" else float(np.linalg.norm(r))


def noisy_instance(seed_seq, n, d, m, s, eps, norm):
    """(A, D, f, y) with y = A f + e and |e| = eps in the given norm.

    The noise sits on the boundary of the constraint set, so the true
    signal is feasible but not strictly inside.
    """
    rng = np.random.default_rng(seed_seq)
    D = tight_frame(rng, n, d)
    A = gaussian(rng, m, n)
    f = cosparse(rng, D, s)
    e = rng.standard_normal(m)
    if eps > 0.0:
        e *= eps / residual_norm(e, norm)
    else:
        e[:] = 0.0
    return A, D, f, A @ f + e
