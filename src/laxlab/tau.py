"""Weights and their time evolution, Hankel moment matrices, log-tau jets,
and the KP residual.

Moments live as a 1-D sequence mu_0..mu_M (the Hankel structure is
enforced by construction).  Time evolution lives in the weight: a
WeightSpec evolved to the times t has the density rho(z) E_t(z), E_t the
expansion of exp(sum_k t_k z^k) to total degree 12 in t.  E_t is a
polynomial, so it is integrable against every decaying weight, and every
moment built from the weight (Hankel, skew, endpoint series) evolves with
no code of its own and no spare depth.

The pieces every moment route shares live here too: the quadrature power
sums, the order-doubling refinement of a value on a weight's quadrature
rule, the Taylor matrices of a moment block along a time direction (on the
same P^j/j! series as E_t), exact log-determinant jets with mixed partials
by polarization, and the four-term KP assembly.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DepthError,
    DivergenceError,
    DomainError,
    SingularTauError,
    UsageError,
)
from .intervals import IntervalUnion
from .mathcore import union_rule

EVOLUTION_DEGREE = 12  # total degree in t kept in exp(sum t_k z^k)


@dataclass(frozen=True)
class WeightSpec:
    """A 1-D weight rho(z): gaussian e^{-b z^2}, laguerre z^a e^{-b z},
    uniform 1 on [0,1], or a custom callable, evolved to the times t_1,
    t_2, ...: the density is rho(z) E_t(z), unchanged when every time is 0.
    """

    family: str
    a: float = 0.0
    b: float = 1.0
    func: object = None
    custom_support: object = None
    times: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(map(float, self.times)))
        if self.family == "gaussian" and not 0 < self.b < math.inf:
            raise UsageError("gaussian weight needs finite b > 0")
        if self.family == "laguerre" and not (-1 < self.a < math.inf
                                              and 0 < self.b < math.inf):
            raise UsageError("laguerre weight needs finite a > -1, b > 0")
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
            rho = np.exp(-self.b * z * z)
        elif self.family == "laguerre":
            rho = np.zeros_like(z)
            pos = z > 0
            # an overflowing z^a gives inf or NaN, which the moment
            # builders report as divergent
            with np.errstate(over="ignore", invalid="ignore"):
                rho[pos] = z[pos] ** self.a * np.exp(-self.b * z[pos])
        elif self.family == "uniform":
            rho = np.where((z >= 0.0) & (z <= 1.0), 1.0, 0.0)
        else:
            rho = np.asarray(self.func(z), dtype=float)
        if any(self.times):
            rho = rho * evolution_factor(self.times)(z)
        return rho

    def has_decay(self):
        return self.family in ("gaussian", "laguerre")

    def jet(self, c, kmax, order):
        """Taylor coefficients u[k, r] = [h^r] (c + h)^k rho(c + h) for
        k = 0..kmax and r < order, from rho(c + h) = rho(c) e^{-b(2ch + h^2)}
        (gaussian) or rho(c) (1 + h/c)^a e^{-bh} (laguerre, c > 0), times
        E_t(c + h) / E_t(c) for an evolved weight."""
        r = np.arange(1.0, order)
        series = lambda ratios: np.cumprod(np.concatenate([[1.0], ratios]))
        if self.family == "gaussian":
            square = np.zeros(order)
            square[::2] = series(-self.b / r[: (order - 1) // 2])
            rho = np.convolve(series(-2.0 * self.b * c / r), square)[:order]
        elif self.family == "laguerre":
            if not c > 0.0:
                raise DomainError("laguerre weight jets need an endpoint c > 0")
            rho = np.convolve(series((self.a - r + 1.0) / (r * c)),
                              series(-self.b / r))[:order]
        else:
            raise UsageError(f"no endpoint jets for the {self.family} weight")
        if any(self.times):
            shifted = evolution_factor(self.times)(
                np.polynomial.Polynomial([c, 1.0])).coef
            rho = np.convolve(rho, shifted / shifted[0])[:order]
        out = np.empty((kmax + 1, order))
        # Taylor coefficients of rho(c) (c + h)^k: carrying rho(c) from the
        # start keeps c^k rho(c) finite wherever it is representable
        power = np.zeros(order)
        power[0] = self.density(np.array([c]))[0]
        for k in range(kmax + 1):
            out[k] = np.convolve(power, rho)[:order]
            power[1:] = c * power[1:] + power[:-1]
            power[0] *= c
        return out


@dataclass(frozen=True, eq=False)
class HankelMoments:
    """mu_m = int_E z^m rho(z) dz for m = 0..M."""

    mu: np.ndarray
    weight: WeightSpec
    E: IntervalUnion

    @property
    def depth(self):
        return len(self.mu) - 1

    def matrix(self, n):
        """Leading n x n Hankel block."""
        if 2 * (n - 1) > self.depth:
            raise DepthError(
                f"need moments to index {2 * (n - 1)}, have {self.depth}"
            )
        return np.array([[self.mu[i + j] for j in range(n)] for i in range(n)])


def weighted_powers(w, nodes, weights, count):
    """sum_l weights_l * rho(nodes_l) * nodes_l^j for j = 0..count-1,
    along the last axis (one row of the result per rule).

    rho nodes^j is accumulated one factor at a time, so a far node where rho
    has underflowed to 0 stays 0 instead of meeting an overflowing power."""
    current = weights * w.density(nodes)
    out = np.empty(current.shape[:-1] + (count,))
    for j in range(count):
        out[..., j] = current.sum(axis=-1)
        current = current * nodes
    return out


def refine_on_rule(w, E, order, value):
    """value(nodes, weights) on the union rule over E at the weight's decay
    scale, the order doubled until two successive values agree to 1e-12 of
    their largest entry, at most five times.  A non-finite value raises
    DivergenceError."""
    at = lambda order: value(*union_rule(E, order, scale=w.decay_scale()))
    # an overflow leaves inf or NaN, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        current = at(order)
        for _ in range(5):
            order *= 2
            current, previous = at(order), current
            scale = max(np.abs(current).max(), 1e-300)
            if np.abs(current - previous).max() <= 1e-12 * scale:
                break
    if not np.all(np.isfinite(current)):
        raise DivergenceError("non-finite value on the quadrature rule")
    return current


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
    mu = refine_on_rule(w, E, order,
                        lambda x, wx: weighted_powers(w, x, wx, M + 1))
    return HankelMoments(mu=mu, weight=w, E=E)


def hankel_endpoint_series(m, c, sigma, order):
    """Taylor coefficients g_1..g_order of the moments m, as HankelMoments,
    when the endpoint c of m.E moves by s (sigma = +1 at an upper endpoint,
    -1 at a lower one): g_r = sigma [s^{r-1}] u_k / r, u = WeightSpec.jet."""
    u = m.weight.jet(c, m.depth, order)
    return [replace(m, mu=sigma * u[:, r - 1] / r) for r in range(1, order + 1)]


def evolution_coefficients(t):
    """Coefficients c_d of exp(sum_k t_k z^k) = sum_d c_d z^d, truncated at
    total degree EVOLUTION_DEGREE in t: the sum of the P^j/j! series of the
    log-det jets, with EVOLUTION_DEGREE K + 1 entries, t_K the last nonzero
    time."""
    powers = _direction_poly_powers(t, EVOLUTION_DEGREE)
    out = np.zeros(len(powers[-1]))
    for p in powers:
        out[: len(p)] += p
    return out


def evolution_factor(t):
    """E_t = sum_d c_d z^d, c = evolution_coefficients(t), as a numpy
    Polynomial: exp truncated at the even degree 12 in sum_k t_k z^k, so
    positive on the real line."""
    return np.polynomial.Polynomial(evolution_coefficients(t))


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


def logdet_multilinear(g0, coefficient, r):
    """Mixed partial d/dx_1 ... d/dx_r of log det G(x) at x = 0, exact.

    ``coefficient(mask)`` is the matrix of the product of the x_i set in the
    bit mask.  With Y_B = G0^{-1} G_B, G^{-1} G0 has the terms V_S =
    -sum_{B in S} Y_B V_{S-B}, and the partial is the sum over B owning x_1
    of tr(V_{S-B} Y_B).  Unlike polarization nothing cancels, so a partial
    that vanishes by symmetry stays at its own rounding level.

    A G0 singular to working precision raises SingularTauError: solving
    against it returns finite noise, not an error."""
    submasks = lambda mask: [b for b in range(1, mask + 1) if b & mask == b]
    try:
        sv = np.linalg.svd(g0, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # the SVD of a non-finite G0
        raise DivergenceError("tau is not finite at the expansion point") from exc
    if len(sv) and not sv[-1] > np.finfo(float).eps * sv[0]:
        raise SingularTauError("tau vanishes to working precision at the "
                               "expansion point")

    @functools.cache
    def y(mask):
        return np.linalg.solve(g0, coefficient(mask))

    @functools.cache
    def v(mask):
        if not mask:
            return np.eye(len(g0))
        return -sum(y(b) @ v(mask & ~b) for b in submasks(mask))

    full = (1 << r) - 1
    return float(sum(np.trace(v(full & ~b) @ y(b))
                     for b in submasks(full) if b & 1))


def _direction_poly_powers(d, order):
    """Coefficient arrays of P(z)^j / j! for P = sum_k d_k z^{k}, j=0..order."""
    d = np.trim_zeros(np.asarray(d, dtype=float), "b")
    base = np.concatenate([[0.0], d])  # P as a z-polynomial
    current = np.array([1.0])
    powers = [current]
    for j in range(1, order + 1):
        current = np.convolve(current, base) / j
        powers.append(current)
    return powers


def add_shifted_blocks(out, m, c, d):
    """out += sum_{a,b} c_a d_b m[a:a+r, b:b+s] with (r, s) = out.shape,
    skipping zero coefficients."""
    r, s = out.shape
    for a, ca in enumerate(c):
        if ca == 0:
            continue
        for b, cb in enumerate(d):
            if cb == 0:
                continue
            out += ca * cb * m[a : a + r, b : b + s]
    return out


def direction_matrices(m, n, order, rows=(), cols=()):
    """Taylor matrices G_0..G_order of the leading n-block of
    e^{s P(Lambda)} m e^{s Q(Lambda^T)}, with P = sum_k rows_k z^k acting
    on the row index and Q = sum_k cols_k z^k on the column index:
    G_j = sum_{p+q=j} sum_{a,b} [z^a] P^p/p! [z^b] Q^q/q! m[a:a+n, b:b+n].
    """
    pr = _direction_poly_powers(rows, order)
    pc = _direction_poly_powers(cols, order)
    need = (n + len(pr[-1]) - 1, n + len(pc[-1]) - 1)
    if need[0] > m.shape[0] or need[1] > m.shape[1]:
        raise DepthError(
            f"need a {need[0]} x {need[1]} moment array, have "
            f"{m.shape[0]} x {m.shape[1]}"
        )
    gs = []
    for j in range(order + 1):
        g = np.zeros((n, n))
        for p in range(j + 1):
            add_shifted_blocks(g, m, pr[p], pc[j - p])
        gs.append(g)
    return gs


def dlog_tau_directional(m0, n, d, order):
    """Exact directional derivatives [D, D^2, ...] of log tau_n along d.
    Time shifts the row index of the tall array H[i, j] = mu_{i+j}."""
    i = np.arange(max(m0.depth - n + 2, 0))
    tall = m0.mu[np.add.outer(i, np.arange(n))]
    return logdet_series_derivatives(direction_matrices(tall, n, order, rows=d))


def polarized(directional, ks):
    """Partial d/dt_{k1} ... d/dt_{kr} from directional jets
    ``directional(d, order) -> [D_d, D_d^2, ...]``; a mixed one by
    polarization:

        (2^{r-1} r!)^{-1} sum_{eps, eps_1 = +1} (prod eps) D^r_v,
        v = sum_i eps_i e_{k_i}.
    """
    r = len(ks)
    if len(set(ks)) == 1:  # a single time: the jet itself
        return directional(np.eye(ks[0])[-1], r)[r - 1]
    total = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=r - 1):
        eps = (1.0,) + signs
        v = np.zeros(max(ks))
        for e, k in zip(eps, ks):
            v[k - 1] += e
        total += math.prod(eps) * directional(v, r)[r - 1]
    return total / (2 ** (r - 1) * math.factorial(r))


def kp_normalized(directional, extra=0.0):
    """The first KP equation for a log tau whose jets ``directional(d,
    order) -> [D_d, D_d^2, ...]`` are given, plus ``extra``:

        (d/dt1)^4 + 3 (d/dt2)^2 - 4 d^2/dt1 dt3 (by polarization)
        + 6 (d^2/dt1^2)^2 + extra,

    normalized by its largest term (0 if every term vanishes).
    """
    d1 = directional([1.0], 4)
    d2 = directional([0.0, 1.0], 2)
    terms = [d1[3], 3.0 * d2[1], -4.0 * polarized(directional, (1, 3)),
             6.0 * d1[1] ** 2, extra]
    scale = max(abs(v) for v in terms)
    return sum(terms) / scale if scale else 0.0


def kp_residual(m0, n):
    """Normalized residual of the first KP equation for log tau_n at the
    times of m0's weight:

        (d/dt1)^4 log tau + 3 (d/dt2)^2 log tau - 4 d^2/dt1 dt3 log tau
        + 6 (d^2/dt1^2 log tau)^2 = 0.

    All derivatives are exact (trace-log series on the index shift); the
    mixed t1-t3 term uses polarization.
    """
    if n < 1:
        raise UsageError("kp_residual needs n >= 1")
    return kp_normalized(functools.partial(dlog_tau_directional, m0, n))
