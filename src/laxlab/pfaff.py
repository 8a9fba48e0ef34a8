"""The Pfaff lattice: skew moment matrices, the skew-Borel route to the
Lax matrix, the projected Lax flow and its AKS factorization, and the
Pfaff-KP residual of the Pfaffian tau functions.

Two constructions feed the same machinery: ``alpha = -1`` builds the
sign-kernel double integral (symmetric-ensemble route) and ``alpha = +1``
the Wronskian single integral (symplectic-ensemble route).  Moments of a
weight evolved to the times t are the evolved moments, with one weight
factor per variable: the sign-kernel ones move by e^{sum t_k Lambda^k} on
both indices, the Wronskian ones by half of that, so t_k shifts both
indices with the weight 1/2.  Time partials of log pf = (1/2) log det are
exact, by tau.dlog_block through tau.kp_normalized.
"""

import functools

import numpy as np

from .errors import (
    DivergenceError,
    NumericalError,
    SingularMatrixError,
    SingularTauError,
    StabilityError,
    UnderflowError,
    UsageError,
)
from .intervals import IntervalUnion
from .mathcore import cut_rules, expm, pfaffian, skew_borel, union_rule
from .mathcore.ode import SEGMENTS, rk4
from .tau import hankel_moments, kp_normalized, leading_block, weighted_powers


def _pairing_domain(w, E, alpha):
    """E within the support of w (all of it for None), nonempty, for the
    pairing alpha = -1 or +1."""
    if alpha not in (-1, 1):
        raise UsageError("alpha must be -1 or +1")
    E = w.support() if E is None else E.intersect(w.support())
    E.require_nonempty()
    return E


def _wronskian(mu, size):
    """The Wronskian pairing (j - i) mu_{i+j-1}, i, j < size, of the moment
    sequence mu: 0 on the diagonal, where the index is -1 at i = j = 0."""
    i = np.arange(size)
    return (i - i[:, None]) * mu[np.maximum(np.add.outer(i, i) - 1, 0)]


def skew_inner_products(w, E=None, alpha=-1, N=4, order=64):
    """Skew moment matrix mu_{ij}, 0 <= i,j < 2N.

    alpha = -1: mu_{ij} = (double integral of) y^i z^j sign(z-y)
    rho(y) rho(z) over E^2, computed with an antiderivative table so no
    quadrature ever straddles the sign kink.

    alpha = +1: mu_{ij} = (j - i) * integral of y^{i+j-1} rho(y) over E
    (the Wronskian pairing), from the refined moments of hankel_moments.

    The orientation of both pairings is pinned by requiring tau_2 > 0 for
    a positive weight, so that the Pfaffian tau functions match the
    positive ensemble integrals they represent.
    """
    E = _pairing_domain(w, E, alpha)
    if not w.has_decay() and not E.is_bounded():
        raise DivergenceError("weight does not decay on an unbounded domain")
    size = 2 * N
    # an overflow below leaves inf or NaN in mu, which raises DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha == 1:
            mu = _wronskian(hankel_moments(w, E, 2 * size - 3, order), size)
        else:
            scale = w.decay_scale()
            nodes, weights = union_rule(E, order, scale)
            total = weighted_powers(w, nodes, weights, size)
            # antiderivative table: F_j(y) = int_{E, z < y} z^j rho(z) dz,
            # evaluated by the rule on E cut at y (integrands stay smooth)
            f_table = np.concatenate([
                weighted_powers(w, sub_nodes, sub_weights, size)
                for k in range(len(E.intervals))
                for sub_nodes, sub_weights in cut_rules(E, k, order, scale)
            ])
            inner = total - 2.0 * f_table  # T_j - 2 F_j(y)
            outer = weights * w.density(nodes)  # times y^i, one factor a row
            ymoments = np.empty((size, size))
            for i in range(size):
                # int y^i rho(y) (T_j - 2 F_j(y)) dy for all j at once
                ymoments[i] = outer @ inner
                outer = outer * nodes
            mu = 0.5 * (ymoments - ymoments.T)
    if not np.all(np.isfinite(mu)):
        raise DivergenceError("skew moments diverge on this domain")
    return mu


def skew_endpoint_series(w, E, alpha, size, c, sigma, order):
    """Taylor matrices G_1..G_order of the size x size skew moments
    skew_inner_products(w, E, alpha) when the endpoint c of E moves by s
    (sigma as in tau.hankel_endpoint_series; u = WeightSpec.jet).

    alpha = +1: G_r[i, j] = (j - i) sigma [s^{r-1}] u_{i+j-1} / r.
    alpha = -1: d m_ij / ds = sigma (u_j S_i - u_i S_j), where
    S_i = int_E y^i sign(c + s - y) rho(y) dy starts at the moment of E
    below c minus the moment of E above c, and grows by int_0^s u_i."""
    E = _pairing_domain(w, E, alpha)
    if alpha == 1:
        u = w.jet(c, 2 * size - 3, order)
        return [_wronskian(sigma * u[:, r - 1] / r, size)
                for r in range(1, order + 1)]
    u = w.jet(c, size - 1, order)

    def moments(side):
        part = E.intersect(side)
        return 0.0 if part.is_empty else hankel_moments(w, part, size - 1)

    s = np.empty((size, order))
    s[:, 0] = (moments(IntervalUnion.half_line_below(c))
               - moments(IntervalUnion([(c, np.inf)])))
    s[:, 1:] = u[:, :-1] / np.arange(1, order)
    out = []
    for r in range(1, order + 1):
        b = s[:, r - 1 :: -1] @ u[:, :r].T  # sum_p S_i[r-1-p] u_j[p]
        out.append(sigma * (b - b.T) / r)
    return out


def pfaff_lax(m):
    """L = Q Lambda Q^{-1} with Q the skew-Borel factor of the moments."""
    q = skew_borel(m)
    try:
        return np.linalg.solve(q.T, (q @ np.eye(len(m), k=1)).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("skew-Borel factor is singular") from exc


def pfaff_aks_flow(L0, k, t_end):
    """pfaff_ode_flow's flow by the AKS factorization (Adler & van Moerbeke,
    Duke Math. J. 112, 2002), exact at every size: the stack of L(t_j) =
    K_j L0 K_j^-1, t_j = j t_end / SEGMENTS, j = 0..SEGMENTS, K_j the
    skew-Borel factor of E_j J E_j^T, E_j = exp(t_j L0^k), from one batched
    expm and one stacked skew_borel; a non-finite E_j J E_j^T raises."""
    x = np.linalg.matrix_power(L0, k)
    mag = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # one exact balancing sweep (powers of 2) keeps each row of E within
        # 2e-14 relative at 26 rows and |t| <= 1.5, against 4e-11 without it
        d = np.exp2(np.round(0.5 * np.log2(mag.sum(axis=1) / mag.sum(axis=0))))
        d = np.where(np.isfinite(d) & (d > 0.0), d, 1.0)
        t = t_end / SEGMENTS * np.arange(SEGMENTS + 1)[:, None, None]
        e = (d[:, None] / d) * expm(t * (x * d / d[:, None]))
        ej = np.stack([-e[..., 1::2], e[..., ::2]], axis=-1).reshape(e.shape)
        m = ej @ e.swapaxes(-1, -2)  # E J E^T, made exactly skew below
    if not np.all(np.isfinite(m)):
        raise NumericalError(f"the AKS route overflows by t={t_end:.4g}")
    # K has a positive diagonal, so the solve cannot fail
    kt = skew_borel(0.5 * (m - m.swapaxes(-1, -2))).swapaxes(-1, -2)
    return np.linalg.solve(kt, L0.T @ kt).swapaxes(-1, -2)


@functools.cache
def _block_grid(n):
    """Read-only weights of the 2x2-block grid (1 below, 1/2 on, 0 above
    the diagonal), and a flat index and signs: sign * x.take(index) is
    J x^T J, whose (a, b) entry is -s_a s_b x[b^1, a^1], s = (-1)^a."""
    if n % 2:
        raise UsageError("block projection requires even size")
    idx = np.arange(n)
    rows, cols = idx[:, None] // 2, idx[None, :] // 2
    weight = np.where(rows > cols, 1.0, np.where(rows == cols, 0.5, 0.0))
    out = (weight, (idx ^ 1)[:, None] + n * (idx ^ 1)[None, :],
           np.where((idx[:, None] + idx) % 2, 1.0, -1.0))
    for arr in out:
        arr.flags.writeable = False
    return out


def project_plus(a):
    """Projection onto the lower-triangular factor of the 2x2-block
    splitting: (a_- - J a_+^T J) + (a_0 - J a_0^T J) / 2, where a_-, a_0,
    a_+ are the strictly-lower, diagonal, and strictly-upper parts in the
    2x2-block grid; as J x^T J mirrors the grid, that is a - J a^T J
    weighted 1 below, 1/2 on and 0 above the diagonal blocks.  a is one
    matrix or a (..., n, n) stack."""
    weight, index, sign = _block_grid(a.shape[-1])
    flat = a.reshape(a.shape[:-2] + (-1,))
    return weight * (a - sign * flat.take(index, axis=-1))


def pfaff_ode_flow(L0, k, t_end, step):
    """Integrate dL/dt_k = [-P_+(L^k), L] by RK4; t_end may be negative.
    L0 is one Lax matrix or a stack of them, advanced at once.

    Truncation pollutes the bottom border of L, so no invariant of L is
    checked here (callers compare routes instead); a non-finite L at rk4's
    guard cadence raises a stability error.
    """
    def rhs(L):
        b = -project_plus(L if k == 1 else np.linalg.matrix_power(L, k))
        return b @ L - L @ b

    def finite(t, L):
        if not np.all(np.isfinite(L)):
            raise StabilityError(f"flow blew up at t={t:.4g}; reduce the step")

    return rk4(rhs, np.array(L0, dtype=float), t_end, step, finite)


def pfaffkp_residual(m, n):
    """Normalized residual of the first Pfaff-KP equation for tau_n of the
    skew moment array m:

        ((d/dt1)^4 + 3 (d/dt2)^2 - 4 d^2/dt1 dt3) log tau_n
        + 6 ((d/dt1)^2 log tau_n)^2 - 12 tau_{n-2} tau_{n+2} / tau_n^2 = 0,

    n even.  Every partial is exact: log pf = (1/2) log det, and time
    shifts both indices of the moments.
    """
    if n < 2 or n % 2:
        raise UsageError("pfaffkp_residual needs even n >= 2")
    tau_n = pfaffian(leading_block(m, n))
    if tau_n == 0.0:
        raise SingularTauError(f"tau_{n} vanishes")
    tau_minus = 1.0 if n == 2 else pfaffian(leading_block(m, n - 2))
    tau_plus = pfaffian(leading_block(m, n + 2))
    try:
        rhs = 12.0 * tau_minus * tau_plus / tau_n ** 2
    except OverflowError:  # tau_n ** 2 of a float
        rhs = np.inf
    except ZeroDivisionError:
        raise UnderflowError(f"tau_{n} ** 2 underflows to 0") from None
    if not np.all(np.isfinite([tau_minus, tau_n, tau_plus, rhs])):
        raise DivergenceError(f"tau_{n} or its neighbours overflow")
    return kp_normalized(m, n, (1.0, 1.0), -rhs, half=0.5)
