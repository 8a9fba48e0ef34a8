"""Matrix Lax flows with a spectral parameter h.

A Lax polynomial a(h) = alpha h^m + (gamma + lower) h^{m-1} + ... flows by
a' = [a, b + beta h] with beta = f'(alpha) diagonal and b built from the
h^{m-1} coefficient.  Specializing the rank-two data x, y gives the Euler
top (m = 1), the ellipsoidal geodesic / Neumann systems and the central
force problem (m = 2).  The coefficients of the characteristic polynomial
det(z I - a(h)) in (h, z) are conserved along every such flow and serve
as the integrability certificates.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFlagError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    StabilityError,
    UsageError,
)
from .mathcore.ode import GUARD_INTERVAL, rk4

SYSTEM_KINDS = ("euler", "geodesic", "neumann", "central_force")
INVARIANT_DRIFT_TOL = 1e-6
CONDITIONED_SIZE = 6
# spectral-parameter values outside every Chebyshev grid of the curve fit
HELD_OUT_H = (-1.0, 0.5, 1.0)


@dataclass(frozen=True)
class LaxPolynomial:
    """a(h) = sum_j coeffs[j] h^j with diagonal leading coefficient."""

    coeffs: tuple
    alpha: np.ndarray
    gamma: np.ndarray

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def size(self):
        return len(self.alpha)

    def __call__(self, h):
        out = np.zeros_like(self.coeffs[0])
        for c in reversed(self.coeffs):
            out = out * h + c
        return out

    def invariant_drift(self):
        """Distance from the invariant manifold: the leading coefficient
        must stay diag(alpha) and the next diagonal must stay gamma."""
        top = np.abs(self.coeffs[-1] - np.diag(self.alpha)).max()
        sub = np.abs(np.diag(self.coeffs[-2]) - self.gamma).max()
        return max(top, sub)


def _check_alpha(alpha):
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise DomainError("alpha entries must be finite")
    n = len(alpha)
    # gaps scaled by max|alpha|, so that alpha near +/-1e308 cannot overflow
    scale = max(np.abs(alpha).max(initial=0.0), 1.0)
    unit = alpha / scale
    gaps = np.abs(unit[:, None] - unit[None, :])[~np.eye(n, dtype=bool)]
    if n > 1 and gaps.min() < 1e-12 * (1.0 / scale + np.abs(unit).max()):
        raise DegenerateFlagError("alpha entries must be distinct")
    return alpha


def skew_pair(x, y):
    return np.outer(x, y) - np.outer(y, x)


def sym_pair(x, y):
    return np.outer(x, y) + np.outer(y, x)


def build_system(kind, alpha, gamma=None, x=None, y=None):
    """The Lax polynomial of one of the named mechanical systems."""
    if kind not in SYSTEM_KINDS:
        raise UsageError(f"unknown system kind {kind!r}")
    alpha = _check_alpha(alpha)
    n = len(alpha)
    gamma = np.zeros(n) if gamma is None else np.asarray(gamma, dtype=float)
    x = np.zeros(n) if x is None else np.asarray(x, dtype=float)
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    if not gamma.shape == x.shape == y.shape == (n,):
        raise UsageError("gamma, x and y need one entry per alpha entry")
    sub = np.diag(gamma) + skew_pair(x, y)
    if kind == "euler":
        coeffs = (sub, np.diag(alpha))
    elif kind in ("geodesic", "neumann"):
        coeffs = (-np.outer(x, x), sub, np.diag(alpha))
    else:
        coeffs = (sym_pair(x, y) - np.diag(alpha), sub, np.diag(alpha))
    return LaxPolynomial(coeffs=coeffs, alpha=alpha, gamma=gamma)


def _f_derivatives(f_kind, alpha):
    """(f'(alpha), f''(alpha)) for the generating function of the flow."""
    if f_kind == "euler":  # f = (2/3) x^(3/2)
        if np.any(alpha <= 0.0):
            raise DomainError("f = (2/3) x^(3/2) needs alpha > 0")
        return np.sqrt(alpha), 0.5 / np.sqrt(alpha)
    if f_kind in ("geodesic", "central_force"):  # f = ln x
        if np.any(alpha <= 0.0):
            raise DomainError("f = ln x needs alpha > 0")
        return 1.0 / alpha, -1.0 / alpha ** 2
    if f_kind == "neumann":  # f = x^2 / 2
        return alpha.copy(), np.ones_like(alpha)
    raise UsageError(f"unknown flow kind {f_kind!r}")


def _divided_differences(alpha, beta):
    """(f'(a_i) - f'(a_j)) / (a_i - a_j) off the diagonal, 0 on it (the
    numerator vanishes there)."""
    diff_a = alpha[:, None] - alpha[None, :]
    np.fill_diagonal(diff_a, 1.0)
    return (beta[:, None] - beta[None, :]) / diff_a


def b_from_a(a, f_kind):
    """b_ij = (f'(a_i) - f'(a_j)) / (a_i - a_j) (a_{m-1})_ij off the
    diagonal, gamma_i f''(a_i) on it."""
    beta, fpp = _f_derivatives(f_kind, a.alpha)
    return (_divided_differences(a.alpha, beta) * a.coeffs[-2]
            + np.diag(a.gamma * fpp))


def aci_flow(a0, f_kind, t_end, step):
    """RK4 trajectory endpoint of a' = [a, b + beta h] at t_end (either
    sign), with b rebuilt from the current h^{m-1} coefficient at every
    stage; the invariant drift is checked every GUARD_INTERVAL steps and at
    t_end.  beta, the divided differences, diag(gamma f''(alpha)) and the
    beta h mask beta_j - beta_i depend only on alpha, gamma, so they are
    built once per call; the coefficients ride as one (m+1, n, n) stack.
    """
    beta, fpp = _f_derivatives(f_kind, a0.alpha)
    ratio = _divided_differences(a0.alpha, beta)
    bdiag = np.diag(a0.gamma * fpp)
    shift = beta[None, :] - beta[:, None]

    def rhs(c):
        b = ratio * c[-2] + bdiag
        d = c @ b
        d -= b @ c
        d[1:] += c[:-1] * shift
        return d

    def checked(stack, where):
        out = LaxPolynomial(coeffs=tuple(stack), alpha=a0.alpha, gamma=a0.gamma)
        drift = out.invariant_drift()
        if not drift <= INVARIANT_DRIFT_TOL:  # NaN drift fails too
            raise StabilityError(f"invariant manifold drift {drift:.2e} {where}")
        return out

    def drift_check(steps, t, stack):
        if steps % GUARD_INTERVAL == 0:
            checked(stack, f"after {steps} steps")

    stack = rk4(rhs, np.array(a0.coeffs), t_end, step, drift_check)
    return checked(stack, "at t_end")


def spectral_curve_coeffs(a):
    """Coefficients q_{k, l} of det(z I - a(h)) = z^N + sum q_{k, l} h^k z^l.

    The characteristic polynomial is sampled on a Chebyshev grid in h and
    each z-coefficient is recovered by a Vandermonde solve (exact up to
    rounding for the polynomial degrees involved).  Non-finite
    coefficients raise NumericalError.
    """
    N, m = a.size, a.degree
    if N > CONDITIONED_SIZE:
        warnings.warn(
            f"spectral-curve extraction at size {N} > {CONDITIONED_SIZE} "
            "may be ill-conditioned",
            stacklevel=2,
        )
    hmax = m * N
    nodes = np.array(
        [math.cos(math.pi * (r + 0.5) / (hmax + 1)) for r in range(hmax + 1)]
    )
    # char poly coefficients, row r: [1, c_{N-1}, ..., c_0] at h = nodes[r]
    table = np.array([np.real(np.poly(a(h))) for h in nodes])
    out = {(0, N): 1.0}
    for ell in range(N):
        deg = m * (N - ell)
        pts = nodes[: deg + 1]
        vand = np.vander(pts, deg + 1, increasing=True)
        try:
            sol = np.linalg.solve(vand, table[: deg + 1, N - ell])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("singular Vandermonde system") from exc
        for k, q in enumerate(sol):
            out[(k, ell)] = float(q)
    if not all(math.isfinite(q) for q in out.values()):
        raise NumericalError("spectral-curve coefficients are not finite")
    return out


def spectral_curve_residual(a, q):
    """max |sum_k q_{k, l} h^k - [z^l] det(z I - a(h))| over l and the
    points HELD_OUT_H, which no fit in spectral_curve_coeffs uses,
    relative to max(1, the largest coefficient of det(z I - a(h)))."""
    N = a.size
    worst = 0.0
    scale = 1.0
    for h in HELD_OUT_H:
        direct = np.real(np.poly(a(h)))
        scale = max(scale, float(np.abs(direct).max()))
        for ell in range(N + 1):
            fit = sum(v * h**k for (k, l), v in q.items() if l == ell)
            worst = max(worst, abs(fit - direct[N - ell]))
    return worst / scale


def conservation_report(a0, f_kind, t_end, step, checkpoints=5):
    """Max drift of any spectral-curve coefficient along the flow."""
    base = spectral_curve_coeffs(a0)
    scale = max(1.0, max(abs(v) for v in base.values()))
    drift = 0.0
    current = a0
    for _ in range(checkpoints):
        current = aci_flow(current, f_kind, t_end / checkpoints, step)
        now = spectral_curve_coeffs(current)
        drift = max(
            drift, max(abs(now[key] - base[key]) for key in base)
        )
    return drift / scale


def commutativity_report(a0, f_kind_1, f_kind_2, t_small, step=1e-3):
    """sup-norm coefficient discrepancy of the two flow orderings."""
    ab = aci_flow(aci_flow(a0, f_kind_1, t_small, step), f_kind_2, t_small, step)
    ba = aci_flow(aci_flow(a0, f_kind_2, t_small, step), f_kind_1, t_small, step)
    return max(
        float(np.abs(p - q).max()) for p, q in zip(ab.coeffs, ba.coeffs)
    )
