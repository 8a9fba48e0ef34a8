"""Matrix Lax flows with a spectral parameter h.

A Lax polynomial a(h) = alpha h^m + (gamma + lower) h^{m-1} + ..., held
as its (m+1, n, n) coefficient stack, constant coefficient first, flows by
a' = [a, b + beta h] with beta = f'(alpha) diagonal and b built from the
h^{m-1} coefficient.  Specializing the rank-two data x, y gives the Euler
top (m = 1), the ellipsoidal geodesic / Neumann systems and the central
force problem (m = 2).  The coefficients of the characteristic polynomial
det(z I - a(h)) in (h, z) are conserved along every such flow and serve
as the integrability certificates.

Two independent routes solve the flow: RK4 on the coefficient stack
(aci_flow), and the Adler-Kostant-Symes factorization of
exp(t h f'(a(h) h^-m)) in the loop group (aks_flow); route_report checks
the one against the other.
"""

import math
import warnings

import numpy as np

from .errors import (
    DegenerateFlagError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    StabilityError,
    UsageError,
)
from .mathcore.linalg import expm, sqrtm
from .mathcore.ode import SEGMENTS, check_steps, rk4, segment_check

SYSTEM_KINDS = ("euler", "geodesic", "neumann", "central_force")
INVARIANT_DRIFT_TOL = 1e-6
CONDITIONED_SIZE = 6
# spectral-parameter values outside every Chebyshev grid of the curve fit
HELD_OUT_H = np.array([-1.0, 0.5, 1.0])
# AKS factorization: the block Toeplitz system has at most AKS_ROWS rows
# (below 100, LAPACK's solve stays single-threaded in OpenBLAS, so the
# result does not depend on the thread count); the circle carries 4 points
# per block
AKS_ROWS = 96
AKS_GROWTH = 4.0  # bound on |tau| max|h f'(lambda(h))| on the circle
AKS_MAX_SUBSTEPS = 10 ** 4
AKS_MAX_DOUBLINGS = 30  # r = 1, 2, 4, ..., 2^29


def _invariants(a):
    """(alpha, gamma): the diagonals of the top two coefficients of a Lax
    polynomial, a (..., m+1, n, n) coefficient stack, read from its first
    member.  Every flow here conserves them."""
    first = a[(0,) * (a.ndim - 3)]
    return np.diagonal(first[-1]).copy(), np.diagonal(first[-2]).copy()


def _evaluate(a, h):
    """a(h) = sum_j a[..., j, :, :] h^j by Horner; an overflow leaves inf
    or NaN in it, which its callers report as NumericalError."""
    out = np.zeros_like(a[..., 0, :, :])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in reversed(range(a.shape[-3])):
            out = out * h + a[..., j, :, :]
    return out


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
    """The Lax polynomial of one of the named mechanical systems, as its
    (m+1, n, n) coefficient stack, constant coefficient first."""
    if kind not in SYSTEM_KINDS:
        raise UsageError(f"unknown system kind {kind!r}")
    alpha = _check_alpha(alpha)
    n = len(alpha)
    gamma = np.zeros(n) if gamma is None else np.asarray(gamma, dtype=float)
    x = np.zeros(n) if x is None else np.asarray(x, dtype=float)
    y = np.zeros(n) if y is None else np.asarray(y, dtype=float)
    if not gamma.shape == x.shape == y.shape == (n,):
        raise UsageError("gamma, x and y need one entry per alpha entry")
    if not np.all(np.isfinite([gamma, x, y])):
        raise DomainError("gamma, x and y entries must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        sub = np.diag(gamma) + skew_pair(x, y)
        if kind == "euler":
            coeffs = (sub, np.diag(alpha))
        elif kind in ("geodesic", "neumann"):
            coeffs = (-np.outer(x, x), sub, np.diag(alpha))
        else:
            coeffs = (sym_pair(x, y) - np.diag(alpha), sub, np.diag(alpha))
    if not np.all(np.isfinite(coeffs)):
        raise NumericalError("Lax polynomial coefficients overflow")
    return np.array(coeffs)


def _f_derivatives(f_kind, alpha):
    """(f'(alpha), f''(alpha)) for the generating function of the flow."""
    if f_kind == "euler":  # f = (2/3) x^(3/2)
        if np.any(alpha <= 0.0):
            raise DomainError("f = (2/3) x^(3/2) needs alpha > 0")
        return np.sqrt(alpha), 0.5 / np.sqrt(alpha)
    if f_kind in ("geodesic", "central_force"):  # f = ln x
        if np.any(alpha <= 0.0):
            raise DomainError("f = ln x needs alpha > 0")
        with np.errstate(over="ignore"):  # f'' underflows to -0 there
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
    alpha, gamma = _invariants(a)
    beta, fpp = _f_derivatives(f_kind, alpha)
    return (_divided_differences(alpha, beta) * a[..., -2, :, :]
            + np.diag(gamma * fpp))


def aci_flow(a0, f_kind, t_end, step):
    """RK4 trajectory endpoint of a' = [a, b + beta h] at t_end (either
    sign), with b rebuilt from the current h^{m-1} coefficient at every
    stage; the drift from the alpha and gamma of a0's first member is
    checked at rk4's guard cadence.  beta, the divided differences,
    diag(gamma f''(alpha)) and the beta h mask beta_j - beta_i depend only
    on alpha, gamma, so they are built once per call; a0 is one
    (m+1, n, n) stack or a (batch, m+1, n, n) batch of them.
    """
    alpha, gamma = _invariants(a0)
    beta, fpp = _f_derivatives(f_kind, alpha)
    ratio = _divided_differences(alpha, beta)
    bdiag = np.diag(gamma * fpp)
    shift = beta[None, :] - beta[:, None]

    def rhs(c):
        b = (ratio * c[..., -2, :, :] + bdiag)[..., None, :, :]
        d = c @ b
        d -= b @ c
        d[..., 1:, :, :] += c[..., :-1, :, :] * shift
        return d

    def guard(t, c):
        # distance from the invariant manifold: the leading coefficient
        # must stay diag(alpha) and the next diagonal must stay gamma
        drift = max(np.abs(c[..., -1, :, :] - np.diag(alpha)).max(),
                    np.abs(np.diagonal(c[..., -2, :, :], axis1=-2, axis2=-1)
                           - gamma).max())
        if not drift <= INVARIANT_DRIFT_TOL:  # NaN drift fails too
            raise StabilityError(
                f"invariant manifold drift {drift:.2e} at t={t:.4g}")

    return rk4(rhs, a0, t_end, step, guard)


def _circle(stack, radius, points):
    """(h, a(h), a(h) h^-m) at h = radius e^{2 pi i p / points}, 0 <= p <=
    points / 2 (a is real); a non-finite sample raises NumericalError."""
    m = len(stack) - 1
    h = radius * np.exp(2j * np.pi * np.arange(points // 2 + 1) / points)
    with np.errstate(over="ignore", invalid="ignore"):
        a_h = np.einsum("pj,jkl->pkl", h[:, None] ** np.arange(m + 1), stack)
        scaled = a_h / h[:, None, None] ** m
    if not np.all(np.isfinite(scaled)):
        raise NumericalError("Lax polynomial is not finite on the AKS circle")
    return h, a_h, scaled


def _circle_spectrum(stack, radius, points):
    """(h, eigenvalues of a(h) h^-m) on the half circle of _circle."""
    h, _, scaled = _circle(stack, radius, points)
    try:
        return h, np.linalg.eigvals(scaled)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"AKS spectrum: {exc}") from exc


def _f_prime(f_kind, s):
    """f' of each matrix of a (..., n, n) stack: sqrtm, inverse or itself."""
    if f_kind == "euler":
        return sqrtm(s)
    if f_kind in ("geodesic", "central_force"):
        return np.linalg.inv(s)
    return s


def _aks_rule(n):
    """(Toeplitz blocks K, circle points N) for n x n coefficients."""
    blocks = AKS_ROWS // n
    return blocks, 4 * blocks


def aks_plan(a, f_kind, t):
    """(R, sub-steps) of aks_flow(a, f_kind, t).

    f' = x is entire, so R = 1.  sqrt x and 1/x are analytic on Re x > 0;
    let r be the smallest 2^k (k >= 0) whose circle keeps the spectrum of
    a(h) h^-m there.  Re lambda is harmonic on the spectral curve over
    |h| >= r and lambda -> alpha_i > 0 as h -> infinity, so the whole
    exterior stays in the half plane.  R = r 2^ceil(52 / K) then makes the
    Laurent coefficients on |h| = R decay below 2^-52 within the K Toeplitz
    blocks.  The sub-steps tau = t / count keep
    |tau| max|h f'(lambda(h))| <= AKS_GROWTH on that circle; more than
    AKS_MAX_SUBSTEPS raises NumericalError.
    """
    # an unknown f or a bad alpha raises
    _f_derivatives(f_kind, _invariants(a)[0])
    blocks, points = _aks_rule(a.shape[-1])
    radius = 1.0
    if f_kind != "neumann":
        for k in range(AKS_MAX_DOUBLINGS):
            lam = _circle_spectrum(a, 2.0 ** k, points)[1]
            if lam.real.min() > 0.0:
                radius = 2.0 ** (k + math.ceil(52 / blocks))
                break
        else:
            raise NumericalError(
                "no AKS radius keeps the spectrum in f's domain")
    h, lam = _circle_spectrum(a, radius, points)
    f_lam = _f_prime(f_kind, lam[..., None, None])[..., 0, 0]
    with np.errstate(over="ignore"):
        need = abs(t) * np.abs(h[:, None] * f_lam).max()
    if not need <= AKS_GROWTH * AKS_MAX_SUBSTEPS:
        raise NumericalError(
            f"AKS flow needs more than {AKS_MAX_SUBSTEPS} sub-steps")
    return radius, math.ceil(need / AKS_GROWTH)


def _aks_step(stack, f_kind, tau, radius):
    """a(tau) = u^-1 a u with exp(tau h f'(a h^-m)) u = g_+ holomorphic
    inside |h| = radius and u = I + sum_{k <= K} u_k h^-k: one batched
    expm of tau h f' on the half circle, one real block Toeplitz
    (Wiener-Hopf) solve, real FFTs.  Every Laurent coefficient is real,
    so hfft reads them from the half circle and rfft puts u back on it.

    Returns the coefficients of a(tau) and the tail: the largest Laurent
    coefficient of u^-1 a u outside h^0 .. h^m, all of which vanish
    exactly.  A tail above INVARIANT_DRIFT_TOL max(1, max|a|), or a failed
    solve, raises NumericalError.
    """
    m, n = len(stack) - 1, stack.shape[-1]
    blocks, points = _aks_rule(n)
    h, a_h, scaled = _circle(stack, radius, points)
    k = np.arange(1, blocks + 1)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            g = expm(tau * h[:, None, None] * _f_prime(f_kind, scaled))
        # coef[j mod points] = G_j, the Laurent coefficient of w^j, h = R w
        coef = np.fft.hfft(g, n=points, axis=0) / points
        toeplitz = coef[(k[None, :] - k[:, None]) % points]  # [l, k]: G_{k-l}
        u_k = np.linalg.solve(
            toeplitz.transpose(0, 2, 1, 3).reshape(blocks * n, blocks * n),
            -coef[-k].reshape(blocks * n, n),
        ).reshape(blocks, n, n)
        u = np.fft.rfft(np.concatenate([np.eye(n)[None], u_k]), points, 0)
        moved = np.linalg.solve(u, a_h @ u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"AKS factorization: {exc}") from exc
    out = np.fft.hfft(moved, n=points, axis=0) / points
    tail = float(np.abs(out[m + 1:]).max())
    limit = INVARIANT_DRIFT_TOL * max(1.0, float(np.abs(stack).max()))
    if not tail <= limit:  # NaN fails too
        raise NumericalError(f"AKS factorization tail {tail:.2e}")
    scale = radius ** -np.arange(m + 1)
    return out[:m + 1] * scale[:, None, None], tail


def aks_flow(a0, f_kind, t, plan=None):
    """a(t) by the Adler-Kostant-Symes factorization, and the summed tail of
    its sub-steps.  plan is (R, sub-steps), aks_plan(a0, f_kind, t) if not
    given; the spectrum it reads is a flow invariant, so a plan made at any
    point of the same flow serves, and each sub-step's tail still guards it.

    exp(t X(h)), X = h f'(a0(h) h^-m), factors as g_+ g_- with g_+
    holomorphic inside the circle and g_- = I + O(1/h); then a(t) =
    g_- a0 g_-^-1 solves a' = [a, X_+] (Adler, van Moerbeke & Vanhaecke,
    Algebraic Integrability, 2004; Reyman & Semenov-Tian-Shansky, 1994).
    """
    radius, count = aks_plan(a0, f_kind, t) if plan is None else plan
    a, total = a0, 0.0
    for _ in range(count):
        a, tail = _aks_step(a, f_kind, t / count, radius)
        total += tail
    return a, total


def _char_polys(a, h):
    """Rows [1, c_{N-1}, ..., c_0] of det(z I - a(h)), shape (batch, len(h),
    N + 1), for a with one batch axis: one eigvals call, then np.poly's
    product of the z - root, vectorised in its order of operations."""
    try:
        roots = -np.linalg.eigvals(_evaluate(a[:, None], h[:, None, None]))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"spectral curve: {exc}") from exc
    N = a.shape[-1]
    poly = np.zeros((2,) + roots.shape[:-1] + (N + 1,))  # re, im
    poly[0, ..., 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # as np.poly's
        for k in range(N):
            r, i = roots.real[..., k, None], roots.imag[..., k, None]
            re, im = poly[0, ..., :k + 1], poly[1, ..., :k + 1]
            poly[:, ..., 1:k + 2] = (
                (poly[0, ..., 1:k + 2] + re * r) - im * i,
                (poly[1, ..., 1:k + 2] + im * r) + re * i)
    return poly[0]


def _curve_fit(a):
    """(keys (k, l), rows q_{k, l}) of det(z I - a(h)) = z^N + sum q_{k, l}
    h^k z^l for a with one batch axis: char polys on a Chebyshev grid in h,
    a Vandermonde solve per z-power.  A non-finite q raises NumericalError."""
    N, m = a.shape[-1], a.shape[-3] - 1
    if N > CONDITIONED_SIZE:
        warnings.warn(f"spectral-curve extraction at size {N} > "
                      f"{CONDITIONED_SIZE} may be ill-conditioned",
                      stacklevel=3)
    nodes = np.array([math.cos(math.pi * (r + 0.5) / (m * N + 1))
                      for r in range(m * N + 1)])
    table = _char_polys(a, nodes)
    keys, rows = [(0, N)], [np.ones((len(table), 1))]
    for ell in range(N):
        deg = m * (N - ell)
        vand = np.vander(nodes[: deg + 1], deg + 1, increasing=True)
        try:
            # single right-hand sides: a multi-column solve rounds otherwise
            rows.append(np.linalg.solve(
                vand, table[:, : deg + 1, N - ell, None])[..., 0])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("singular Vandermonde system") from exc
        keys += [(k, ell) for k in range(deg + 1)]
    rows = np.concatenate(rows, axis=1)
    if not np.all(np.isfinite(rows)):
        raise NumericalError("spectral-curve coefficients are not finite")
    return keys, rows


def spectral_curve_coeffs(a):
    """Coefficients q_{k, l} of det(z I - a(h)) = z^N + sum q_{k, l} h^k z^l,
    as a dict {(k, l): q}: the batch-of-one _curve_fit."""
    keys, rows = _curve_fit(a[None])
    return dict(zip(keys, rows[0].tolist()))


def spectral_curve_residual(a, q):
    """max |sum_k q_{k, l} h^k - [z^l] det(z I - a(h))| over l and the
    points HELD_OUT_H, which no fit in spectral_curve_coeffs uses,
    relative to max(1, the largest coefficient of det(z I - a(h)))."""
    direct = _char_polys(a[None], HELD_OUT_H)[0]
    fit = np.zeros_like(direct)
    for (k, ell), v in q.items():
        fit[:, a.shape[-1] - ell] += v * HELD_OUT_H ** k
    return float(np.abs(fit - direct).max() / max(1.0, np.abs(direct).max()))


def route_report(a0, f_kind, t_end, step):
    """The AKS checkpoints a(t_k), t_k = k t_end / SEGMENTS, all on the
    plan made at a0 for one segment, each the start of one RK4 segment
    (segment_check; check_steps bounds the whole run first).

    Returns curve_drift (max spectral-curve coefficient drift over both
    routes' checkpoints, relative to max(1, max|q|)), aks_rk4_gap (max
    coefficient difference of the routes at any checkpoint) and aks_tail
    (the summed AKS tail).
    """
    check_steps(t_end, step)
    segment = t_end / SEGMENTS
    plan = aks_plan(a0, f_kind, segment)
    aks, tail = [a0], 0.0
    for _ in range(SEGMENTS):
        nxt, seg_tail = aks_flow(aks[-1], f_kind, segment, plan)
        aks.append(nxt)
        tail += seg_tail
    stacks = np.array(aks)
    ends, gap = segment_check(
        lambda starts, seg: aci_flow(starts, f_kind, seg, step), stacks, segment)
    q = _curve_fit(np.concatenate([stacks, ends]))[1]
    drift = np.abs(q[1:] - q[0]).max() / max(1.0, np.abs(q[0]).max())
    return {"curve_drift": float(drift), "aks_rk4_gap": gap, "aks_tail": tail}
