"""Dense linear algebra: determinants, Pfaffians, Borel-type factorizations.

Standard factorizations (LU determinant, QR, Cholesky, symmetric
eigensolve) wrap numpy's LAPACK bindings behind the conventions the rest
of the library relies on.  The skew-symmetric pieces (Pfaffian via
Parlett-Reid elimination, skew-Borel decomposition onto the block
lower-triangular group) are implemented here directly.  They also accept
an exact matrix, an object array of rationals (``fractions.Fraction``),
and factor it in rational arithmetic before rounding the result once.
"""

import math

import numpy as np

from ..errors import (
    DegenerateFlagError,
    DimensionError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SymmetryError,
)

SKEW_TOL = 1e-12
EPS = float(np.finfo(float).eps)


def _is_exact(m):
    """An object array is taken to hold exact rationals."""
    return isinstance(m, np.ndarray) and m.dtype == object


def _as_square(m, stack=False):
    """m as a float square matrix; with stack=True, also a stack of them
    along leading axes."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-2] != m.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_skew(m):
    if _is_exact(m):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        if any((m + m.T).flat):
            raise SymmetryError("matrix is not skew-symmetric")
        return m.copy()
    m = _as_square(m)
    scale = np.abs(m).max() if m.size else 0.0
    if scale and np.abs(m + m.T).max() > SKEW_TOL * scale:
        raise SymmetryError("matrix is not skew-symmetric")
    return 0.5 * (m - m.T)


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
    sign tracking; sign convention pf([[0,1],[-1,0]]) = +1.  An exact
    (object) matrix is eliminated in rationals and rounded once.
    """
    a = _require_skew(m).copy()
    n = a.shape[0]
    if n % 2:
        raise DimensionError("pfaffian requires even dimension")
    if n == 0:
        return 1.0
    sign = 1.0
    value = 1
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


def cholesky_borel(m):
    """Lower-triangular S with S m S^T = I for symmetric positive definite m.

    S is the inverse of the Cholesky factor L (m = L L^T).
    """
    m = _require_symmetric(m)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "matrix is not positive definite (nonpositive pivot)"
        ) from exc
    n = m.shape[0]
    s = np.linalg.solve(chol, np.eye(n))
    return np.tril(s)


def skew_borel(m):
    """Skew-Borel factor Q with Q m Q^T = J, i.e. m = Q^{-1} J Q^{-T}.

    Q is lower triangular with 2x2 diagonal blocks proportional to the
    identity.  Built by skew Gram-Schmidt against the form <x,y> = x m y^T,
    normalizing consecutive pairs.  A nonpositive pair pivot (ratio of
    consecutive leading Pfaffians) cannot be scaled onto +J by a real
    block of this shape and raises the degenerate flag.

    An exact (object) matrix is factored in rationals, so the sign test on
    each pivot is exact however small the pivot is; only the returned
    float64 Q is rounded.  A float matrix is factored in float64, and each
    pivot must also exceed its rounding floor, the amount by which rounding
    the entries of m alone can move it; a failing pivot is reported
    against that floor.
    """
    m = _require_skew(m)
    n = m.shape[0]
    if n % 2:
        raise DimensionError("skew_borel requires even dimension")
    if _is_exact(m):
        return _skew_borel_exact(m)
    q = np.zeros((n, n))
    scale = np.abs(m).max() if n else 1.0
    threshold = SKEW_TOL * max(scale, 1.0) * 1e-4

    def form(x, y):
        return float(x @ m @ y)

    for k in range(0, n, 2):
        u = np.zeros(n)
        v = np.zeros(n)
        u[k] = 1.0
        v[k + 1] = 1.0
        for i in range(0, k, 2):
            qa, qb = q[i], q[i + 1]
            u = u - form(u, qb) * qa + form(u, qa) * qb
            v = v - form(v, qb) * qa + form(v, qa) * qb
        d = form(u, v)
        floor = n * EPS * float(np.abs(u) @ np.abs(m) @ np.abs(v))
        if not (d > threshold and d > floor):
            if abs(d) <= floor:
                verdict = "lies within it, so float64 cannot resolve it"
            elif d < 0:
                verdict = "is clearly negative"
            else:
                verdict = f"is below the degeneracy threshold {threshold:.3g}"
            raise DegenerateFlagError(
                f"skew-Borel pair pivot at block {k // 2} is {d:.3g}; its "
                f"float64 rounding floor is {floor:.3g} and the pivot {verdict}"
            )
        s = np.sqrt(d)
        q[k] = u / s
        q[k + 1] = v / s
    return q


def _skew_borel_exact(m):
    """Skew Gram-Schmidt in rationals.  Rows stay unnormalised and the
    projections divide by the exact pivots d; row pair k of Q is
    (u, v) / sqrt(d), formed in float64 at the end."""
    n = m.shape[0]
    q = np.zeros((n, n))
    done = []  # (u, v, m u, m v, d) for each finished pair
    for k in range(0, n, 2):
        u = np.zeros(n, dtype=object)
        v = np.zeros(n, dtype=object)
        u[k] = 1
        v[k + 1] = 1
        for a, b, ma, mb, d in done:
            u = u - ((u @ mb) * a - (u @ ma) * b) / d
            v = v - ((v @ mb) * a - (v @ ma) * b) / d
        mv = m @ v
        d = u @ mv
        if not d > 0:
            kind = "vanishes" if d == 0 else f"is negative ({float(d):.3g})"
            raise DegenerateFlagError(
                f"exact skew-Borel pair pivot at block {k // 2} {kind}"
            )
        s = math.sqrt(d)
        if not 0.0 < s < math.inf:
            raise DegenerateFlagError(
                f"exact skew-Borel pair pivot at block {k // 2} is positive "
                "but outside the float64 range"
            )
        q[k] = np.asarray(u, dtype=float) / s
        q[k + 1] = np.asarray(v, dtype=float) / s
        done.append((u, v, m @ u, mv, d))
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
