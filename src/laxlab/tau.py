"""Hankel moment matrices, exact time evolution, tau tables, and the KP
residual.

Moments live as a 1-D sequence mu_0..mu_M (the Hankel structure is
enforced by construction).  Time evolution acts as the exponential of the
index shift, expanded to total degree 12 in t, which is exact algebra on
the stored sequence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DepthError,
    DivergenceError,
    DomainError,
    SingularTauError,
    UsageError,
)
from .fd import mixed_partial
from .intervals import IntervalUnion
from .mathcore import lu_determinant, union_rule

EVOLUTION_DEGREE = 12  # total degree kept in exp(sum t_k Lambda^k)


@dataclass(frozen=True)
class WeightSpec:
    """A 1-D weight rho(z): gaussian e^{-b z^2}, laguerre z^a e^{-b z},
    uniform 1 on [0,1], or a custom callable."""

    family: str
    a: float = 0.0
    b: float = 1.0
    func: object = None
    custom_support: object = None

    def __post_init__(self):
        if self.family == "gaussian" and not self.b > 0:
            raise UsageError("gaussian weight needs b > 0")
        if self.family == "laguerre" and not (self.a > -1 and self.b > 0):
            raise UsageError("laguerre weight needs a > -1, b > 0")
        if self.family == "custom" and self.func is None:
            raise UsageError("custom weight needs a callable")
        if self.family not in ("gaussian", "laguerre", "uniform", "custom"):
            raise UsageError(f"unknown weight family {self.family!r}")

    def support(self):
        if self.family == "gaussian":
            return IntervalUnion.full_line()
        if self.family == "laguerre":
            return IntervalUnion([(0.0, math.inf)])
        if self.family == "uniform":
            return IntervalUnion([(0.0, 1.0)])
        return self.custom_support or IntervalUnion.full_line()

    def decay_scale(self):
        """Decay length used for semi-infinite quadrature transforms."""
        if self.family == "gaussian":
            return 1.0 / math.sqrt(self.b)
        if self.family == "laguerre":
            return 1.0 / self.b
        return 1.0

    def density(self, z):
        z = np.asarray(z, dtype=float)
        if self.family == "gaussian":
            return np.exp(-self.b * z * z)
        if self.family == "laguerre":
            out = np.zeros_like(z)
            pos = z > 0
            out[pos] = z[pos] ** self.a * np.exp(-self.b * z[pos])
            return out
        if self.family == "uniform":
            return np.where((z >= 0.0) & (z <= 1.0), 1.0, 0.0)
        return np.asarray(self.func(z), dtype=float)

    def has_decay(self):
        return self.family in ("gaussian", "laguerre")


@dataclass(frozen=True, eq=False)
class HankelMoments:
    """mu_m = int_E z^m rho(z) dz for m = 0..M."""

    mu: np.ndarray
    weight: WeightSpec
    E: IntervalUnion

    @property
    def depth(self):
        return len(self.mu) - 1

    def matrix(self, n, shift=0):
        """Leading n x n Hankel block, optionally index-shifted."""
        if 2 * (n - 1) + shift > self.depth:
            raise DepthError(
                f"need moments to index {2 * (n - 1) + shift}, have {self.depth}"
            )
        return np.array(
            [[self.mu[i + j + shift] for j in range(n)] for i in range(n)]
        )


def quadrature_weighted_moments(w, E, M, order, extra_factor=None):
    """Raw quadrature of int_E z^m * rho(z) dz for m = 0..M (no refinement)."""
    x, wt = union_rule(E, order, scale=w.decay_scale())
    rho = w.density(x)
    if extra_factor is not None:
        rho = rho * extra_factor(x)
    # Accumulate z^m * rho cumulatively so far-out nodes (where rho has
    # already underflowed to 0) never produce inf * 0.
    current = wt * rho
    out = np.empty(M + 1)
    for m in range(M + 1):
        out[m] = current.sum()
        current = current * x
    return out


def hankel_moments(w, E=None, M=16, order=64):
    """Moments of a weight over an interval union, auto-refined."""
    if E is None:
        E = w.support()
    E = E.intersect(w.support())
    E.require_nonempty()
    if not E.is_bounded() and not w.has_decay():
        raise DivergenceError(
            f"moments of the {w.family} weight diverge on an unbounded domain"
        )
    current = quadrature_weighted_moments(w, E, M, order)
    for _ in range(5):
        order *= 2
        refined = quadrature_weighted_moments(w, E, M, order)
        scale = np.abs(refined).max()
        if np.abs(refined - current).max() <= 1e-12 * max(scale, 1e-300):
            current = refined
            break
        current = refined
    if not np.all(np.isfinite(current)):
        raise DivergenceError("non-finite moment encountered")
    return HankelMoments(mu=current, weight=w, E=E)


def shift_coefficients(t, max_shift, degree=EVOLUTION_DEGREE):
    """Coefficients c_d with exp(sum_k t_k z^k) = sum_d c_d z^d, truncated
    at total degree ``degree`` in t and shift ``max_shift`` in z.  Exact
    times (``Fraction``) give exact coefficients in an object array."""
    t = np.asarray(t)
    if t.dtype != object:
        t = t.astype(float)
    c = np.zeros((degree + 1, max_shift + 1), dtype=t.dtype)
    c[0, 0] = 1
    for k, tk in enumerate(t, start=1):
        if tk == 0:
            continue
        new = np.zeros_like(c)
        term = 1
        for j in range(degree + 1):
            if k * j > max_shift:
                break
            if j > 0:
                term *= tk / j
            new[j:, k * j:] += term * c[: degree + 1 - j, : max_shift + 1 - k * j]
        c = new
    return c.sum(axis=0)


def max_shift_for(t, degree=EVOLUTION_DEGREE):
    """Largest index shift the truncated evolution by t can touch."""
    t = np.asarray(t, dtype=float)
    nonzero = np.nonzero(t)[0]
    if len(nonzero) == 0:
        return 0
    return int(nonzero[-1] + 1) * degree


def evolve_hankel(m0, t):
    """Exact polynomial-in-t evolution of the moment sequence.

    The returned sequence is shorter: indices whose evolved value would
    need unknown deep moments are dropped.
    """
    shift = max_shift_for(t)
    if shift == 0:
        return m0
    keep = m0.depth + 1 - shift
    if keep <= 0:
        raise DepthError(
            f"evolution needs {shift} spare moments, have only {m0.depth + 1}"
        )
    coeffs = shift_coefficients(t, shift)
    mu = np.array(
        [np.dot(coeffs, m0.mu[m: m + shift + 1]) for m in range(keep)]
    )
    return HankelMoments(mu=mu, weight=m0.weight, E=m0.E)


def tau_table(m, nmax):
    """tau_0 = 1, tau_n = det of the leading n x n Hankel block."""
    taus = [1.0]
    for n in range(1, nmax + 1):
        taus.append(lu_determinant(m.matrix(n)))
    return np.array(taus)


def log_tau(m, n):
    """log tau_n; raises if tau_n is not positive."""
    if n == 0:
        return 0.0
    val = lu_determinant(m.matrix(n))
    if not val > 0:
        raise SingularTauError(f"tau_{n} = {val} is not positive")
    return math.log(val)


def _dlog_first_order_exact(m, n, k):
    """d/dt_k log tau_n via the trace identity tr(m_n^{-1} dm_n)."""
    base = m.matrix(n)
    shifted = m.matrix(n, shift=k)
    try:
        sol = np.linalg.solve(base, shifted)
    except np.linalg.LinAlgError as exc:
        raise SingularTauError(f"tau_{n} vanishes") from exc
    return float(np.trace(sol))


def dlog_tau(m0, n, orders, t=None, h=None):
    """Derivative of log tau_n w.r.t. the times.

    ``orders`` maps time index k (1-based) -> derivative order.  First
    total order is exact via the trace identity; higher orders use
    Richardson-extrapolated central differences on the exact evolution.
    """
    if t is not None and np.any(np.asarray(t) != 0.0):
        m0 = evolve_hankel(m0, t)
    orders = {k: v for k, v in orders.items() if v > 0}
    total = sum(orders.values())
    if total == 0:
        return log_tau(m0, n)
    if total == 1:
        (k,) = orders.keys()
        return _dlog_first_order_exact(m0, n, k)
    kmax = max(orders.keys())

    def f(tvec):
        return log_tau(evolve_hankel(m0, tvec), n)

    # Higher orders use a larger step plus a second Richardson level to
    # keep rounding noise (amplified by 1/h^order) below the truncation.
    if h is None:
        h = 1e-2 if total <= 2 else 1e-2 * (total - 1)
    levels = 2 if total >= 3 else 1
    x0 = np.zeros(kmax)
    return mixed_partial(
        f, x0, {k - 1: v for k, v in orders.items()}, h=h, levels=levels
    )


def logdet_series_derivatives(g_list):
    """Directional derivatives of log det H(s) at s=0, to machine precision.

    ``g_list`` holds the Taylor matrices H(s) = G0 + s G1 + s^2 G2 + ...;
    returns [d/ds, d^2/ds^2, ...] of log det up to the available order,
    via log det H = log det G0 + tr log(I + G0^{-1}(H - G0)).
    """
    g0 = g_list[0]
    try:
        y = [None] + [np.linalg.solve(g0, g) for g in g_list[1:]]
    except np.linalg.LinAlgError as exc:
        raise SingularTauError("tau vanishes at the expansion point") from exc
    order = len(g_list) - 1
    tr = lambda *ms: float(np.trace(np.linalg.multi_dot(ms))) if len(ms) > 1 \
        else float(np.trace(ms[0]))
    coefs = []
    if order >= 1:
        coefs.append(tr(y[1]))
    if order >= 2:
        coefs.append(tr(y[2]) - 0.5 * tr(y[1], y[1]))
    if order >= 3:
        coefs.append(tr(y[3]) - tr(y[1], y[2]) + tr(y[1], y[1], y[1]) / 3.0)
    if order >= 4:
        coefs.append(
            tr(y[4])
            - tr(y[1], y[3])
            - 0.5 * tr(y[2], y[2])
            + tr(y[1], y[1], y[2])
            - 0.25 * tr(y[1], y[1], y[1], y[1])
        )
    return [math.factorial(j + 1) * c for j, c in enumerate(coefs)]


def _direction_poly_powers(d, order):
    """Coefficient arrays of P(z)^j / j! for P = sum_k d_k z^{k}, j=0..order."""
    d = np.asarray(d, dtype=float)
    base = np.concatenate([[0.0], d])  # P as a z-polynomial
    powers = [np.array([1.0])]
    current = np.array([1.0])
    for j in range(1, order + 1):
        current = np.convolve(current, base) / j
        powers.append(current)
    return powers


def hankel_direction_matrices(m0, n, d, order=4):
    """Taylor matrices of the leading n-block of the evolved Hankel matrix
    along t = s*d: H(s) = sum_j s^j G_j exactly."""
    powers = _direction_poly_powers(d, order)
    gs = []
    for j in range(order + 1):
        g = np.zeros((n, n))
        for deg, coeff in enumerate(powers[j]):
            if coeff != 0.0:
                g += coeff * m0.matrix(n, shift=deg)
        gs.append(g)
    return gs


def dlog_tau_directional(m0, n, d, order):
    """Exact directional derivatives [D, D^2, ...] of log tau_n along d."""
    return logdet_series_derivatives(hankel_direction_matrices(m0, n, d, order))


def kp_residual(m0, n, t=None, h=None):
    """Normalized residual of the first KP equation for log tau_n:

        (d/dt1)^4 log tau + 3 (d/dt2)^2 log tau - 4 d^2/dt1 dt3 log tau
        + 6 (d^2/dt1^2 log tau)^2 = 0.

    All derivatives are exact (trace-log series on the polynomial moment
    evolution); the mixed t1-t3 term uses polarization.
    """
    if n < 1:
        raise UsageError("kp_residual needs n >= 1")
    if t is not None and np.any(np.asarray(t) != 0.0):
        m0 = evolve_hankel(m0, t)
    d1 = dlog_tau_directional(m0, n, [1.0], 4)
    d2 = dlog_tau_directional(m0, n, [0.0, 1.0], 2)
    plus = dlog_tau_directional(m0, n, [1.0, 0.0, 1.0], 2)
    minus = dlog_tau_directional(m0, n, [1.0, 0.0, -1.0], 2)
    t1111 = d1[3]
    t11 = d1[1]
    t22 = d2[1]
    t13 = 0.25 * (plus[1] - minus[1])
    terms = [t1111, 3.0 * t22, -4.0 * t13, 6.0 * t11 ** 2]
    scale = max(abs(v) for v in terms)
    if scale == 0.0:
        return 0.0
    return sum(terms) / scale


def hankel_from_sequence(mu, weight=None, E=None):
    """Wrap a raw moment sequence (testing and synthetic data)."""
    return HankelMoments(
        mu=np.asarray(mu, dtype=float),
        weight=weight or WeightSpec("custom", func=lambda z: np.ones_like(z)),
        E=E or IntervalUnion.full_line(),
    )
