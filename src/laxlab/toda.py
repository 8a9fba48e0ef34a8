"""The finite Toda lattice by three routes.

A symmetric tridiagonal Lax matrix can be produced from its evolved
spectral measure (tau route), integrated directly as a matrix ODE, or
obtained by QR-factorizing a matrix exponential.  All three agree;
cross-checking them is the point of this module.  One Lanczos run gives
the Jacobi matrix of a measure, and so the recurrence of its orthonormal
polynomials too.
"""

import math

import numpy as np

from .errors import NumericalError, SingularTauError, StabilityError
from .mathcore import qr_decompose, symmetric_eigen, symmetric_eigensystem
from .mathcore.ode import SEGMENTS, rk4

# Scale c in exp(c * t * L0^k) = QR for the factorization route; pinned by
# matching the small-t Taylor expansion of the ODE route (see tests).
FACTORIZATION_FLOW_SCALE = 0.5


def jacobi_matrix(diag, off):
    """Dense symmetric tridiagonal matrix with diagonal ``diag`` and off
    diagonal ``off``; both may carry the same leading batch axes."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[-1]
    m = np.zeros(diag.shape + (n,))
    idx = np.arange(n)
    m[..., idx, idx] = diag
    m[..., idx[:-1], idx[1:]] = off
    m[..., idx[1:], idx[:-1]] = off
    return m


def tridiagonal(m):
    """Project a numerically tridiagonal symmetric matrix, or a stack of
    them, onto the band: off = (band(1) + band(-1)) / 2.  A lost or
    non-positive off diagonal is a numerical failure."""
    def band(offset):
        return np.diagonal(m, offset, axis1=-2, axis2=-1)

    off = 0.5 * (band(1) + band(-1))
    if not np.all(off > 0.0):
        raise NumericalError("a Lax offdiagonal underflowed or lost its sign")
    return jacobi_matrix(band(0), off)


def lanczos(nodes, weights, n):
    """Recurrence coefficients (a, b), the rows of a (2, n) array, of the
    orthonormal polynomials of the measure sum_l weights_l delta(z - nodes_l):
    p_0 = 1 / b_0 and b_{j+1} p_{j+1} = (z - a_j) p_j - b_j p_{j-1}, so b_0^2
    is the mass and a, b_1..b_{n-1} make the n x n Jacobi matrix.

    Lanczos on diag(nodes) from sqrt(weights), each new vector orthogonalized
    twice against all earlier ones (Gragg & Harrod, Numer. Math. 44, 1984).
    A b_j at the rounding level of z p_{j-1} means the measure has fewer than
    n atoms to working precision: a breakdown, raised as SingularTauError.
    """
    v = np.sqrt(weights)
    q = np.zeros((n, len(nodes)))
    ab = np.zeros((2, n))
    floor = 0.0
    for j in range(n):
        b = np.linalg.norm(v)
        if not floor < b < math.inf:
            raise SingularTauError(f"Lanczos breaks down at step {j}: the "
                                   f"measure has fewer than {n} atoms")
        q[j] = v / b
        ab[1, j] = b
        v = nodes * q[j]
        ab[0, j] = q[j] @ v
        floor = len(nodes) * np.finfo(float).eps * np.linalg.norm(v)
        for _ in range(2):
            v -= (q[: j + 1] @ v) @ q[: j + 1]
    return ab


def toda_measure_flow(nodes, weights, k, t):
    """Toda flow from the spectral measure (Moser 1975): L(0) is the Jacobi
    matrix of sum_l weights_l delta(z - nodes_l), one row per node, and L(t)
    that of the weights times e^{t z^k}.  The exponent is shifted by its
    maximum, which rescales the measure only."""
    with np.errstate(over="ignore"):
        expo = t * nodes ** k
        evolved = weights * np.exp(expo - expo.max())
    a, b = lanczos(nodes, evolved, len(nodes))
    return jacobi_matrix(a, b[1:])


def toda_ode_flow(L0, k, t_end, step):
    """Integrate dL/dt = [ (1/2)(L^k)_-, L ] with RK4 at fixed step.

    (a)_- denotes the skew-symmetric part built from the strictly upper
    triangle; its half-weighted mask is built once per call, and L^k only
    for k > 1.  L0 is a dense Lax matrix or a stack of them, advanced at
    once.  The right side is tridiagonal analytically, so the result is
    projected back onto the band.  At rk4's guard cadence, a non-finite
    state or an eigenvalue drift over 1e-6 in any member raises
    StabilityError.
    """
    ev0 = symmetric_eigen(L0)
    half_upper = 0.5 * np.triu(np.ones(L0.shape[-2:]), 1)

    def rhs(lax):
        up = half_upper * (lax if k == 1 else np.linalg.matrix_power(lax, k))
        b = up - up.swapaxes(-1, -2)
        return b @ lax - lax @ b

    def guard(t, lax):
        # the spectrum of the state as tridiagonal will project it
        finite = np.all(np.isfinite(lax))
        sym = 0.5 * (lax + lax.swapaxes(-1, -2))
        drift = np.abs(symmetric_eigen(sym) - ev0).max() if finite else math.inf
        if not drift <= 1e-6:
            raise StabilityError(
                f"eigenvalue drift {drift:.3e} at t={t:.4g}; reduce the step"
            )

    return tridiagonal(rk4(rhs, L0, t_end, step, guard))


def toda_factorization_flow(L0, k, t_end):
    """Toda flow by factorization, exp(c t L0^k) = QR and L(t) = Q^T L0 Q,
    at the checkpoints t_j = j t_end / SEGMENTS, j = 0..SEGMENTS, as a
    stack of Lax matrices.

    The constant c = FACTORIZATION_FLOW_SCALE makes this match the ODE
    route.  The Q factors come by orthogonal iteration: with
    S = exp(c h L0^k), h = t_end / SEGMENTS, from one eigendecomposition,
    Q_{j+1} is the Q factor of S Q_j.  No exponent exceeds one segment, so
    the columns of S Q_j stay within a segment's spread of magnitudes; the
    spectrum is shifted before exponentiating, which only rescales R.
    """
    evals, vecs = symmetric_eigensystem(np.linalg.matrix_power(L0, k))
    expo = FACTORIZATION_FLOW_SCALE * t_end / SEGMENTS * evals
    step = (vecs * np.exp(expo - expo.max())) @ vecs.T
    qs = [np.eye(len(L0))]
    for _ in range(SEGMENTS):
        qs.append(qr_decompose(step @ qs[-1])[0])
    q = np.array(qs)
    return tridiagonal(q.swapaxes(-1, -2) @ L0 @ q)

