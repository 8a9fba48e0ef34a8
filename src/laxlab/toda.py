"""The finite Toda lattice by three routes.

A symmetric tridiagonal Lax matrix can be produced from evolved Hankel
moments (tau route), integrated directly as a matrix ODE, or obtained by
QR-factorizing a matrix exponential.  All three agree; cross-checking them
is the point of this module.  The tau route is one Borel factorization of
the evolved Hankel block, which gives the orthonormal polynomials for the
evolved weight too.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthError, SingularTauError, StabilityError, UsageError
from .mathcore import (
    cholesky_borel,
    qr_decompose,
    symmetric_eigen,
    symmetric_eigensystem,
)
from .mathcore.ode import GUARD_INTERVAL, rk4
from .tau import evolve_hankel

# Scale c in exp(c * t * L0^k) = QR for the factorization route; pinned by
# matching the small-t Taylor expansion of the ODE route (see tests).
FACTORIZATION_FLOW_SCALE = 0.5


@dataclass(frozen=True)
class TridiagonalLax:
    """Symmetric tridiagonal Lax matrix: offdiagonal entries positive,
    real spectrum.  diag and offdiag may carry leading batch axes: a stack
    of Lax matrices, which toda_ode_flow advances at once.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if self.offdiag.shape != self.diag.shape[:-1] + (self.n - 1,):
            raise UsageError("offdiag must have length len(diag) - 1")
        if len(self.offdiag) and np.any(self.offdiag <= 0):
            raise UsageError("symmetric gauge needs positive offdiagonal")

    @property
    def n(self):
        return self.diag.shape[-1]

    def matrix(self):
        """Dense matrix form."""
        m = np.zeros(self.diag.shape + (self.n,))
        idx = np.arange(self.n)
        m[..., idx, idx] = self.diag
        idx = idx[:-1]
        m[..., idx, idx + 1] = self.offdiag
        m[..., idx + 1, idx] = self.offdiag
        return m


def lax_from_dense(m):
    """Project a numerically tridiagonal symmetric matrix, or a stack of
    them, back to the type."""
    def band(offset):
        return np.diagonal(m, offset, axis1=-2, axis2=-1)

    return TridiagonalLax(band(0).copy(), 0.5 * (band(1) + band(-1)))


def _borel(m, t, size, top):
    """(S, mu): S = cholesky_borel of the leading size-block H of the
    moments at time t, so S H S^T = I, and their sequence mu, which must
    reach index top.  Row j of S holds the coefficients of the orthonormal
    polynomial p_j for the evolved weight."""
    if t is not None and np.any(np.asarray(t) != 0.0):
        m = evolve_hankel(m, t)
    if m.depth < top:
        raise DepthError(f"need moments to index {top}, have {m.depth}")
    return cholesky_borel(m.matrix(size)), m.mu


def lax_from_tau(m, t, n):
    """Symmetric tridiagonal Lax matrix from the moments at time t.

    L = S H' S^T with S H S^T = I (the Borel factor of the n-block) and
    H'_ij = mu_{i+j+1}: multiplication by z in the orthonormal basis, the
    Jacobi matrix of the evolved weight.  Its offdiagonal is
    sqrt(tau_{k-1} tau_{k+1}) / tau_k and its diagonal
    d/dt_1 log(tau_{k+1} / tau_k).
    """
    s, mu = _borel(m, t, n, 2 * n - 1)
    i = np.arange(n)
    jacobi = s @ mu[np.add.outer(i, i) + 1] @ s.T
    # the offdiagonal lax_from_dense takes, when rounding has lost it
    if not np.all(np.diagonal(jacobi, 1) + np.diagonal(jacobi, -1) > 0.0):
        raise SingularTauError("Jacobi matrix offdiagonal is not positive")
    return lax_from_dense(jacobi)


def toda_ode_flow(L0, k, t_end, step):
    """Integrate dL/dt = [ (1/2)(L^k)_-, L ] with RK4 at fixed step.

    (a)_- denotes the skew-symmetric part built from the strictly upper
    triangle; its half-weighted mask is built once per call, and L^k only
    for k > 1.  L0 may be a stack, advanced at once.  The right side is
    tridiagonal analytically, so the result is projected back to the banded
    type.  Every GUARD_INTERVAL steps and at t_end, a non-finite state or an
    eigenvalue drift over 1e-6 in any member raises StabilityError.
    """
    m = L0.matrix()
    ev0 = symmetric_eigen(m)
    half_upper = 0.5 * np.triu(np.ones(m.shape[-2:]), 1)

    def rhs(lax):
        up = half_upper * (lax if k == 1 else np.linalg.matrix_power(lax, k))
        b = up - up.swapaxes(-1, -2)
        return b @ lax - lax @ b

    def guard(lax, t):
        # the spectrum of the state as lax_from_dense will project it
        finite = np.all(np.isfinite(lax))
        sym = 0.5 * (lax + lax.swapaxes(-1, -2))
        drift = np.abs(symmetric_eigen(sym) - ev0).max() if finite else math.inf
        if not drift <= 1e-6:
            raise StabilityError(
                f"eigenvalue drift {drift:.3e} at t={t:.4g}; reduce the step"
            )

    def drift_check(steps, t, lax):
        if steps % GUARD_INTERVAL == 0:
            guard(lax, t)

    # a blown-up step overflows on its way to the non-finite state that
    # the guard reports as StabilityError
    with np.errstate(over="ignore", invalid="ignore"):
        m = rk4(rhs, m, t_end, step, drift_check)
    guard(m, t_end)
    return lax_from_dense(m)


def toda_factorization_flow(L0, k, t):
    """Toda flow by factorization: exp(c t L0^k) = QR, L(t) = Q^T L0 Q.

    The constant c = FACTORIZATION_FLOW_SCALE makes this match the ODE
    route; the exponential of the symmetric matrix is computed by
    eigendecomposition, with the spectrum shifted before exponentiating
    so overflow cannot occur (shifts only rescale R).  For an array of
    times t, one eigendecomposition serves them all and the result is the
    stack of L(t), one QR per time.
    """
    m0 = L0.matrix()
    evals, vecs = symmetric_eigensystem(np.linalg.matrix_power(m0, k))
    expo = np.multiply.outer(FACTORIZATION_FLOW_SCALE * np.asarray(t), evals)
    # det-scaling only; keeps exp() finite
    expo = expo - expo.max(axis=-1, keepdims=True)
    big = (vecs * np.exp(expo)[..., None, :]) @ vecs.T
    q, _ = qr_decompose(big)
    return lax_from_dense(q.swapaxes(-1, -2) @ m0 @ q)


def orthopoly_eval(m, t, n, z):
    """Orthonormal polynomial p_n(t; z) for the evolved weight: row n of
    the Borel factor of the (n + 1)-block applied to (1, z, ..., z^n), so
    that <p_n, p_n> = 1 and the leading coefficient is positive;
    p_0 = 1/sqrt(mu_0)."""
    if n < 0:
        raise UsageError("orthopoly_eval needs n >= 0")
    s, _ = _borel(m, t, n + 1, 2 * n)
    z = np.asarray(z, dtype=float)
    val = np.power.outer(z, np.arange(n + 1)) @ s[n]
    return float(val) if z.ndim == 0 else val
