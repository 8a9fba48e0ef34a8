"""Dense linear algebra: determinants, Pfaffians, skew-Borel factorization.

Standard factorizations (LU determinant, QR, symmetric eigensolve) wrap
numpy's LAPACK bindings behind the conventions the rest of the library
relies on.  The skew-symmetric pieces (Pfaffian via Parlett-Reid
elimination, skew-Borel decomposition onto the block lower-triangular
group) and the matrix exp and square root are implemented here directly.
"""

import numpy as np

from ..errors import (
    DegenerateFlagError,
    DimensionError,
    NumericalError,
    SingularMatrixError,
    SymmetryError,
)

SKEW_TOL = 1e-12
EPS = float(np.finfo(float).eps)
# Pade-13 coefficients and reach (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
PADE13 = (64764752532480000, 32382376266240000, 7771770303897600,
          1187353796428800, 129060195264000, 10559470521600, 670442572800,
          33522128640, 1323241920, 40840800, 960960, 16380, 182, 1)
THETA13 = 5.371920351148152
SQRTM_MAX_ITERATIONS = 100


def _as_square(m, stack=False):
    """m as a float square matrix; with stack=True, also a stack of them
    along leading axes."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_skew(m, stack=False):
    m = _as_square(m, stack)
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    # halves first, so entries near the float range cannot overflow
    half, half_t = 0.5 * m, 0.5 * m.swapaxes(-1, -2)
    if np.any(np.abs(half + half_t).max(axis=(-2, -1), initial=0.0)
              > 0.5 * SKEW_TOL * scale):
        raise SymmetryError("matrix is not skew-symmetric")
    return half - half_t


def _require_symmetric(m, stack=False):
    m = _as_square(m, stack)
    mt = m.swapaxes(-1, -2)
    scale = np.abs(m).max() if m.size else 0.0
    if scale and np.abs(m - mt).max() > SKEW_TOL * scale:
        raise SymmetryError("matrix is not symmetric")
    return 0.5 * (m + mt)


def lu_determinant(m):
    """Determinant via partially pivoted elimination (LAPACK getrf)."""
    m = _as_square(m)
    if m.shape[0] == 0:
        return 1.0
    return float(np.linalg.det(m))


def pfaffian(m):
    """Pfaffian of an even-dimensional skew-symmetric matrix.

    Parlett-Reid-style skew elimination with partial pivoting and exact
    sign tracking; sign convention pf([[0,1],[-1,0]]) = +1.  A Pfaffian
    past the float range comes back as inf or NaN, without a warning.
    """
    a = _require_skew(m)
    n = a.shape[0]
    if n % 2:
        raise DimensionError("pfaffian requires even dimension")
    if n == 0:
        return 1.0
    sign = 1.0
    value = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n - 1, 2):
            # Pivot: bring the largest entry of column k below the diagonal
            # into position (k+1, k) by a symmetric row/column swap.
            col = np.abs(a[k + 1:, k])
            p = k + 1 + int(np.argmax(col))
            if a[p, k] == 0.0:
                return 0.0
            if p != k + 1:
                a[[k + 1, p], :] = a[[p, k + 1], :]
                a[:, [k + 1, p]] = a[:, [p, k + 1]]
                sign = -sign
            value *= a[k, k + 1]
            if k + 2 < n:
                # Gauss-transform congruence: zero row/column k beyond k+1.
                tau = a[k, k + 2:] / a[k, k + 1]
                col1 = a[k + 2:, k + 1]
                a[k + 2:, k + 2:] += np.outer(tau, col1) - np.outer(col1, tau)
    return float(sign * value)


def skew_borel(m):
    """Skew-Borel factor Q with Q m Q^T = J, i.e. m = Q^{-1} J Q^{-T}, of
    one matrix or of each of a (..., n, n) stack.

    Q is lower triangular with 2x2 diagonal blocks proportional to the
    identity.  Built by block skew-LDL^T elimination: block k's pair pivot
    d is entry (2k, 2k+1) of the skew Schur complement a, and its columns
    x, y below the pair go by a <- a - (x y^T - y x^T) / d; the same row
    operations, scaled by 1/sqrt(d), build Q.  A nonpositive pivot (ratio
    of consecutive leading Pfaffians) cannot be scaled onto +J by a real
    block of this shape and raises the degenerate flag.  Each pivot must
    also exceed its rounding floor, the amount by which rounding the
    entries of m alone can move it; a failing pivot is reported against
    that floor, with its stack member.
    """
    m = _require_skew(m, stack=True)
    n = m.shape[-1]
    if n % 2:
        raise DimensionError("skew_borel requires even dimension")
    mag = np.abs(m)
    threshold = SKEW_TOL * 1e-4 * mag.max(axis=(-2, -1), initial=1.0)
    a, q = m.copy(), np.broadcast_to(np.eye(n), m.shape).copy()
    for k in range(0, n, 2):
        d = a[..., k, k + 1]
        u, v = np.abs(q[..., k, None, :]), np.abs(q[..., k + 1, :, None])
        floor = n * EPS * (u @ mag @ v)[..., 0, 0]
        bad = ~((d > threshold) & (d > floor))
        if np.any(bad):
            at = tuple(int(i) for i in np.argwhere(bad)[0])
            d, floor, limit = d[at], floor[at], threshold[at]
            if abs(d) <= floor:
                verdict = "lies within it, so float64 cannot resolve it"
            elif d < 0:
                verdict = "is clearly negative"
            else:
                verdict = f"is below the degeneracy threshold {limit:.3g}"
            member = f" in stack member {', '.join(map(str, at))}" if at else ""
            raise DegenerateFlagError(
                f"skew-Borel pair pivot at block {k // 2} is {d:.3g}; its "
                f"float64 rounding floor is {floor:.3g} and the pivot "
                f"{verdict}{member}")
        d = d[..., None, None]
        root = np.sqrt(d)
        q[..., k:k + 2, :k + 2] /= root
        x, y = a[..., k + 2:, k, None], a[..., k + 2:, k + 1, None]
        a[..., k + 2:, k + 2:] -= (x * y.swapaxes(-1, -2)
                                   - y * x.swapaxes(-1, -2)) / d
        q[..., k + 2:, :k + 2] -= (y * q[..., k, None, :k + 2]
                                   - x * q[..., k + 1, None, :k + 2]) / root
    return q


def qr_decompose(m):
    """QR factorization with the positive-diagonal-R uniqueness convention,
    of one matrix or of each of a stack."""
    m = _as_square(m, stack=True)
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(diag) < 1e-300):
        raise SingularMatrixError("matrix is rank deficient")
    signs = np.sign(diag)
    return q * signs[..., None, :], signs[..., :, None] * r


def symmetric_eigen(m):
    """Eigenvalues of a symmetric matrix, or of each of a stack, sorted
    ascending."""
    m = _require_symmetric(m, stack=True)
    return np.sort(np.linalg.eigvalsh(m))


def symmetric_eigensystem(m):
    """(eigenvalues, eigenvectors) of a symmetric matrix, ascending."""
    m = _require_symmetric(m)
    return np.linalg.eigh(m)


def expm(a):
    """exp of each matrix of a (..., n, n) stack: the Pade-13 approximant
    of a / 2^s squared s times, s >= 0 least with 1-norm / 2^s < THETA13.
    A non-finite matrix comes back non-finite."""
    s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / THETA13)[1].clip(0)
    a = a / (2.0 ** s)[..., None, None]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2

    def part(c):  # the even (c = b_0, b_2, ...) or odd part's polynomial
        return (a6 @ (c[6] * a6 + c[5] * a4 + c[4] * a2) + c[3] * a6
                + c[2] * a4 + c[1] * a2 + c[0] * np.eye(a.shape[-1]))
    u, v = a @ part(PADE13[1::2]), part(PADE13[::2])
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        r = np.where((s > k)[..., None, None], r @ r, r)
    return r


def sqrtm(a):
    """Principal square root of each matrix of a (..., n, n) stack: from
    Y = M = A, Y <- Y (I + M^-1) / 2 -> A^(1/2), M <- (I + (M + M^-1) / 2) / 2
    -> I (product-form Denman-Beavers) until one step after max|M - I| <=
    sqrt(eps), else NumericalError after SQRTM_MAX_ITERATIONS steps."""
    y = m = a
    ident = np.eye(m.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SQRTM_MAX_ITERATIONS):
            done = np.abs(m - ident).max(initial=0.0) <= np.sqrt(EPS)
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"matrix square root: {exc}") from exc
            y, m = 0.5 * (y @ (ident + inv)), 0.5 * (ident + 0.5 * (m + inv))
            if done:
                return y
    raise NumericalError(
        f"matrix square root: no convergence in {SQRTM_MAX_ITERATIONS} steps")
