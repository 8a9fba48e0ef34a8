"""The Pfaff lattice: skew moment matrices, their evolution, the
skew-Borel route to the Lax matrix, the projected Lax flow, and the
Pfaff-KP residual of the Pfaffian tau functions.

Two constructions feed the same machinery: ``alpha = -1`` builds the
sign-kernel double integral (symmetric-ensemble route) and ``alpha = +1``
the Wronskian single integral (symplectic-ensemble route, with the t/2
rescaling absorbed so downstream identities use plain t).

Moments of the uniform weight are kept exact (rational) and are factored
before they are rounded; every other weight gives float64 moments.
"""

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    DepthError,
    DivergenceError,
    SingularMatrixError,
    SingularTauError,
    StabilityError,
    UsageError,
)
from .intervals import IntervalUnion
from .mathcore import cut_rules, pfaffian, skew_borel, union_rule
from .mathcore.ode import rk4
from .tau import (
    WeightSpec,
    direction_matrices,
    evolve_array,
    hankel_moments,
    kp_normalized,
    logdet_series_derivatives,
    weighted_powers,
)


@dataclass(frozen=True, eq=False)
class SkewMoments:
    """Skew-symmetric moment matrix of even size with its provenance.

    ``m`` is either float64 or exact: an object array of ``Fraction``
    (see :func:`skew_inner_products`).  Exact moments stay exact under
    :func:`evolve_skew`, and ``skew_borel``/``pfaffian`` factor them in
    rationals before rounding.
    """

    m: np.ndarray
    alpha: int
    weight: WeightSpec
    E: IntervalUnion

    def __post_init__(self):
        m = np.asarray(self.m)
        if m.dtype != object:
            m = m.astype(float, copy=False)
        object.__setattr__(self, "m", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise UsageError("skew moment matrix must be square of even size")
        if self.exact:
            skew = not any((m + m.T).flat)
        else:
            skew = np.abs(m + m.T).max() <= 1e-12 * max(1.0, np.abs(m).max())
        if not skew:
            raise UsageError("moment matrix must be skew-symmetric")
        if self.alpha not in (-1, 1):
            raise UsageError("alpha must be -1 or +1")

    @property
    def exact(self):
        return self.m.dtype == object

    @property
    def size(self):
        return self.m.shape[0]

    def block(self, n2):
        if n2 > self.size:
            raise DepthError(f"need a {n2} block, matrix has size {self.size}")
        return self.m[:n2, :n2]


def _uniform_skew_moments(E, alpha, size):
    """Exact skew moments of the uniform weight on a bounded E.  Each
    endpoint is a float, hence exactly a Fraction, and both pairings are
    finite sums of rationals:

    alpha = +1: mu_ij = (j - i) * int_E y^{i+j-1} dy;
    alpha = -1: mu_ij = I_ij - I_ji with I_ij = double integral of
    y^i z^j over y < z in E^2, summed piece by piece.
    """
    pieces = [(Fraction(lo), Fraction(hi)) for lo, hi in E.intervals]
    # integrals[p][k] = int y^p dy over piece k of E
    integrals = [
        [(hi ** (p + 1) - lo ** (p + 1)) / (p + 1) for lo, hi in pieces]
        for p in range(2 * size)
    ]
    if alpha == 1:
        mu = np.full((size, size), Fraction(0), dtype=object)
        for i in range(size):
            for j in range(i + 1, size):
                mu[i, j] = (j - i) * sum(integrals[i + j - 1])
        return mu - mu.T
    inner = np.empty((size, size), dtype=object)
    for i in range(size):
        for j in range(size):
            # on piece k, y runs over the earlier pieces whole and over
            # [lo_k, z] on piece k itself
            total, below = Fraction(0), Fraction(0)
            for (lo, _), pi, pj, pij in zip(
                pieces, integrals[i], integrals[j], integrals[i + j + 1]
            ):
                total += (below - lo ** (i + 1) / (i + 1)) * pj + pij / (i + 1)
                below += pi
            inner[i, j] = total
    return inner - inner.T


def skew_inner_products(w, E=None, alpha=-1, N=4, order=64):
    """Skew moment matrix mu_{ij}, 0 <= i,j < 2N.

    alpha = -1: mu_{ij} = (double integral of) y^i z^j sign(z-y)
    rho(y) rho(z) over E^2, computed with an antiderivative table so no
    quadrature ever straddles the sign kink.

    alpha = +1: mu_{ij} = (j - i) * integral of y^{i+j-1} rho(y) over E
    (the Wronskian pairing).

    The orientation of both pairings is pinned by requiring tau_2 > 0 for
    a positive weight, so that the Pfaffian tau functions match the
    positive ensemble integrals they represent.

    For the uniform weight the moments are rational and are returned
    exact, as an object array of ``Fraction`` (``order`` is then unused).
    Their deep skew-Borel pivots fall below the float64 rounding of the
    moments themselves, so only the exact matrix has a usable factor.
    Every other weight is integrated by quadrature into float64.
    """
    if E is None:
        E = w.support()
    else:
        E = E.intersect(w.support())
    E.require_nonempty()
    if not w.has_decay() and not E.is_bounded():
        raise DivergenceError("weight does not decay on an unbounded domain")
    size = 2 * N
    if w.family == "uniform":
        return SkewMoments(
            m=_uniform_skew_moments(E, alpha, size), alpha=alpha, weight=w, E=E
        )
    scale = w.decay_scale()
    mu = np.zeros((size, size))
    nodes, weights = union_rule(E, order, scale)
    # an overflow below leaves inf or NaN in mu, which raises DivergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha == 1:
            raw = weighted_powers(w, nodes, weights, 2 * size)
            for i in range(size):
                for j in range(i + 1, size):
                    mu[i, j] = (j - i) * raw[i + j - 1]
                    mu[j, i] = -mu[i, j]
        elif alpha == -1:
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
            for i in range(size):
                for j in range(i + 1, size):
                    mu[i, j] = 0.5 * (ymoments[i, j] - ymoments[j, i])
                    mu[j, i] = -mu[i, j]
    if not np.all(np.isfinite(mu)):
        raise DivergenceError("skew moments diverge on this domain")
    return SkewMoments(m=mu, alpha=alpha, weight=w, E=E)


def skew_endpoint_series(m, c, sigma, order):
    """Taylor matrices G_1..G_order of the skew moments m, as SkewMoments,
    when the endpoint c of m.E moves by s (sigma as in
    tau.hankel_endpoint_series; u = WeightSpec.jet).

    alpha = +1: G_r[i, j] = (j - i) sigma [s^{r-1}] u_{i+j-1} / r.
    alpha = -1: d m_ij / ds = sigma (u_j S_i - u_i S_j), where
    S_i = int_E y^i sign(c + s - y) rho(y) dy starts at the moment of E
    below c minus the moment of E above c, and grows by int_0^s u_i."""
    size, w = m.size, m.weight
    i = np.arange(size)
    if m.alpha == 1:
        u = w.jet(c, 2 * size - 3, order)
        idx = np.maximum(np.add.outer(i, i) - 1, 0)
        return [replace(m, m=sigma * (i - i[:, None]) * u[idx, r - 1] / r)
                for r in range(1, order + 1)]
    u = w.jet(c, size - 1, order)

    def moments(side):
        part = m.E.intersect(side)
        return 0.0 if part.is_empty else hankel_moments(w, part, size - 1).mu

    s = np.empty((size, order))
    s[:, 0] = (moments(IntervalUnion.half_line_below(c))
               - moments(IntervalUnion([(c, np.inf)])))
    s[:, 1:] = u[:, :-1] / np.arange(1, order)
    out = []
    for r in range(1, order + 1):
        b = s[:, r - 1 :: -1] @ u[:, :r].T  # sum_p S_i[r-1-p] u_j[p]
        out.append(replace(m, m=sigma * (b - b.T) / r))
    return out


def evolve_skew(m0, t):
    """Exact evolution m(t) = e^{sum t_k L^k} m(0) e^{sum t_k L^{T k}}.

    The matrix shrinks: border entries whose evolved value would need
    unknown deeper moments are dropped (kept size stays even, as the shift
    is a multiple of the even EVOLUTION_DEGREE), and halving new - new^T
    makes it skew to the last bit.  Exact moments are evolved in rationals
    at the exact value of each float t_k.
    """
    if m0.exact:
        t = [Fraction(v) for v in t]
    new = evolve_array(m0.m, t, t)
    return m0 if new is m0.m else replace(m0, m=(new - new.T) / 2)


def pfaff_lax(m):
    """L = Q Lambda Q^{-1} with Q the skew-Borel factor of the moments."""
    q = skew_borel(m.m)
    try:
        return np.linalg.solve(q.T, (q @ np.eye(m.size, k=1)).T).T
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("skew-Borel factor is singular") from exc


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
    weighted 1 below, 1/2 on and 0 above the diagonal blocks."""
    weight, index, sign = _block_grid(a.shape[0])
    return weight * (a - sign * a.take(index))


def pfaff_ode_flow(L0, k, t_end, step):
    """Integrate dL/dt_k = [-P_+(L^k), L] by RK4; t_end may be negative.

    Truncation pollutes the bottom border of L, so no invariant of L is
    checked here (callers compare routes instead); a non-finite L raises
    a stability error.
    """
    def rhs(L):
        b = -project_plus(L if k == 1 else np.linalg.matrix_power(L, k))
        return b @ L - L @ b

    def finite(steps, t, L):
        if not np.all(np.isfinite(L)):
            raise StabilityError(f"flow blew up at t={t:.4g}; reduce the step")

    # a blown-up step overflows on its way to the non-finite state that
    # finite() reports as StabilityError
    with np.errstate(over="ignore", invalid="ignore"):
        return rk4(rhs, np.array(L0, dtype=float), t_end, step, finite)


def _dlog_pf_directional(m0, n2, d, order):
    """Exact directional derivatives of log pf(m_{n2}(t)) along d, via
    log pf = (1/2) log det; time acts on both indices of the moments."""
    mu = np.asarray(m0.m, dtype=float)
    gs = direction_matrices(mu, n2, order, rows=d, cols=d)
    return [0.5 * v for v in logdet_series_derivatives(gs)]


def pfaffkp_residual(m, n):
    """Normalized residual of the first Pfaff-KP equation for tau_n:

        ((d/dt1)^4 + 3 (d/dt2)^2 - 4 d^2/dt1 dt3) log tau_n
        + 6 ((d/dt1)^2 log tau_n)^2 - 12 tau_{n-2} tau_{n+2} / tau_n^2 = 0,

    n even.  All derivatives are exact (trace-log series on the moment
    evolution); the mixed term uses polarization.
    """
    if n < 2 or n % 2:
        raise UsageError("pfaffkp_residual needs even n >= 2")
    tau_n = pfaffian(m.block(n))
    if tau_n == 0.0:
        raise SingularTauError(f"tau_{n} vanishes")
    tau_minus = 1.0 if n == 2 else pfaffian(m.block(n - 2))
    tau_plus = pfaffian(m.block(n + 2))
    rhs = 12.0 * tau_minus * tau_plus / tau_n ** 2
    return kp_normalized(functools.partial(_dlog_pf_directional, m, n), -rhs)
