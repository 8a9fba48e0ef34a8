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
sums, the leading block of a moment array (``leading_block``), the
order-doubling refinement of a value on a weight's quadrature rule and
the two-order error estimate of any quadrature value (``refined``), the
one exact log-det partial kernel (``logdet_partials``: any
partial of log det G(x) at x = 0, in any number of variables, from the
Taylor matrices of G), the exact mixed time partials of log det of a
moment block it gives (``dlog_block``: a time moves the block by index
shifts, one variable per derivative factor), and the four-term KP
assembly on those partials.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DepthError,
    DivergenceError,
    DomainError,
    SingularTauError,
    UnderflowError,
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

    def recurrence(self, n):
        """The recurrence coefficients (a, b) of the first n orthonormal
        polynomials, in toda.lanczos's format, in closed form: a_k = 0,
        b_0 = (pi/b)^{1/4} and b_k = sqrt(k/(2b)) (gaussian), or
        a_k = (2k + 1 + a)/b, b_0^2 = Gamma(a + 1) b^{-(a+1)} and
        b_k = sqrt(k(k + a))/b (laguerre), at time 0 only."""
        if self.family not in ("gaussian", "laguerre") or any(self.times):
            raise UsageError(f"no closed-form recurrence for the {self.family} "
                             "weight at these times")
        k = np.arange(float(n))
        if self.family == "gaussian":
            ab = np.array([np.zeros(n), np.sqrt(k / (2.0 * self.b))])
            ab[1, 0] = (math.pi / self.b) ** 0.25
        else:
            ab = np.array([(2.0 * k + 1.0 + self.a) / self.b,
                           np.sqrt(k * (k + self.a)) / self.b])
            ab[1, 0] = math.exp(0.5 * (math.lgamma(self.a + 1.0)
                                       - (self.a + 1.0) * math.log(self.b)))
        return ab

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


def hankel_rows(mu, n):
    """The tall array H[i, j] = mu_{i+j}, j < n, of the moments mu_0..mu_M,
    as deep as they reach: time shifts its row index."""
    i = np.arange(max(len(mu) - n + 1, 0))
    return mu[np.add.outer(i, np.arange(n))]


def leading_block(m, n):
    """The leading n x n block of a moment array: Hankel rows, skew or
    bi-moments; DepthError past the array."""
    if n > min(m.shape):
        raise DepthError(f"need {n} x {n} moments, have "
                         f"{m.shape[0]} x {m.shape[1]}")
    return m[:n, :n]


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


def refined(compute, order, what, budget):
    """compute at order + max(order // 2, 1) and its distance from
    compute(order), the error estimate.  Raise UnderflowError unless that
    error is at most budget times the value: a tail value that misses its
    relative budget has too few correct digits to report."""
    value = compute(order + max(order // 2, 1))
    err = abs(compute(order) - value)
    if not err <= budget * value:
        raise UnderflowError(f"{what} is {value:.2e} with the error estimate "
                             f"{err:.2e}, above its relative budget {budget:g}")
    return value, err


def hankel_moments(w, E=None, M=16, order=64):
    """Moments mu_m = int_E z^m rho(z) dz, m = 0..M, of a weight over an
    interval union (its support for None), auto-refined."""
    if E is None:
        E = w.support()
    E = E.intersect(w.support())
    E.require_nonempty()
    if not E.is_bounded() and not w.has_decay():
        raise DivergenceError(
            f"moments of the {w.family} weight diverge on an unbounded domain"
        )
    return refine_on_rule(w, E, order,
                          lambda x, wx: weighted_powers(w, x, wx, M + 1))


def hankel_endpoint_series(w, mu, c, sigma, order):
    """Rows g_1..g_order: the Taylor coefficients of the moments mu of the
    weight w when an endpoint c of their domain moves by s (sigma = +1 at
    an upper endpoint, -1 at a lower one): g_r = sigma [s^{r-1}] u_k / r,
    u = WeightSpec.jet."""
    u = w.jet(c, len(mu) - 1, order)
    return (sigma * u / np.arange(1, order + 1)).T


def evolution_coefficients(t):
    """Coefficients c_d of exp(sum_k t_k z^k) = sum_d c_d z^d, truncated at
    total degree EVOLUTION_DEGREE in t: the sum of P^j/j!, P = sum_k t_k z^k,
    with EVOLUTION_DEGREE K + 1 entries, t_K the last nonzero time."""
    d = np.trim_zeros(np.asarray(t, dtype=float), "b")
    base = np.concatenate([[0.0], d])  # P as a z-polynomial
    term = np.array([1.0])
    out = np.zeros(EVOLUTION_DEGREE * len(d) + 1)
    out[0] = 1.0
    for j in range(1, EVOLUTION_DEGREE + 1):
        term = np.convolve(term, base) / j
        out[: len(term)] += term
    return out


def evolution_factor(t):
    """E_t = sum_d c_d z^d, c = evolution_coefficients(t), as a numpy
    Polynomial: exp truncated at the even degree 12 in sum_k t_k z^k, so
    positive on the real line."""
    return np.polynomial.Polynomial(evolution_coefficients(t))


def logdet_partials(y_of, monomials):
    """Partials d^n log det G(x) at x = 0, exact, for each exponent tuple n
    in ``monomials``; ``y_of(b)`` is Y_b = G0^{-1} G_b, G_b the Taylor
    matrix of G at x^b and G0 = G_{(0, ..., 0)} (``solved`` builds y_of).

    G^{-1} G0 = sum_n V_n x^n has V_0 = I and V_n = -sum_{0 < b <= n}
    Y_b V_{n-b}.  d/dx_q log det G = tr(G^{-1} d/dx_q G), so with q the
    first variable of n, the Taylor coefficient c_n of log det G has
    n_q c_n = sum_{b <= n, b_q > 0} b_q tr(V_{n-b} Y_b), and the partial
    is c_n prod_i n_i!.  Y and V are kept per tuple and built only as the
    requested partials need them: the partial at n needs every Y_b,
    b <= n, and every V_m, m <= n with m_q < n_q.  Unlike polarization
    nothing cancels, so a partial that vanishes by symmetry stays at its
    own rounding level.  A 0 x 0 G0 (tau_0 = 1) has every partial 0."""
    ys, vs, terms = _partials_plan(tuple(map(tuple, monomials)))
    try:
        y = {b: y_of(b) for b in ys}
    except np.linalg.LinAlgError as exc:
        raise SingularTauError("tau vanishes at the expansion point") from exc
    v = {}
    for m, pairs in vs:
        if not any(m):
            v[m] = np.eye(len(y[ys[0]]))
        else:  # the b = m term is Y_m V_0 = Y_m
            v[m] = -y[m] - sum(y[b] @ v[rest] for b, rest in pairs)
    # tr(A B) as the sum of A * B^T: no product is formed
    return [float(sum(bq * (v[rest] * y[b].T).sum() for bq, b, rest in pairs))
            * factor for pairs, factor in terms]


def solved(g0, coefficient):
    """b -> G0^{-1} G_b, G_b = coefficient(b), by one LU solve per b: a
    moment block is ill conditioned, and forming G0^{-1} would lose digits
    that a solve keeps.  A well-conditioned G0 may be inverted once."""
    return lambda b: np.linalg.solve(g0, coefficient(b))


@functools.cache
def _partials_plan(monomials):
    """logdet_partials' index plan for a tuple of monomials: the Y orders;
    each V_m in build order with its pairs (b, m - b); per monomial n, the
    triples (b_q, b, n - b) of its trace sum and prod n_i! / n_q."""
    first = [next(i for i, k in enumerate(n) if k) for n in monomials]
    box = lambda n: itertools.product(*(range(k + 1) for k in n))  # 0 first
    minus = lambda n, b: tuple(map(operator.sub, n, b))
    # lexicographic order puts every m - b before m
    needed = lambda tops: sorted({m for top in tops for m in box(top)})
    # tuples: the cache hands the same plan to every call
    ys = tuple(b for b in needed(monomials) if any(b))
    vs = tuple((m, tuple((b, minus(m, b)) for b in box(m)
                         if any(b) and b != m))
               for m in needed(tuple(k - (i == q) for i, k in enumerate(n))
                               for n, q in zip(monomials, first)))
    terms = tuple((tuple((b[q], b, minus(n, b)) for b in box(n) if b[q]),
                   math.prod(map(math.factorial, n)) // n[q])
                  for n, q in zip(monomials, first))
    return ys, vs, terms


def dlog_block(m, n, factors):
    """Mixed partial of log det of the leading n x n block of the moment
    array m, one factor (k, a, b) per derivative: the time t_k moves m to
    e^{t_k a Lambda^k} m e^{t_k b Lambda^{T k}}, Lambda the index shift, so
    it shifts the row index by k with weight a and the column index by k
    with weight b.  Each factor is a variable of its own, so the partial
    needs only the square-free Taylor matrices: for a set of factors, the
    sum over every split of them between rows and columns of the block
    shifted by the row sum and the column sum, times the weights.  Exact,
    by logdet_partials; a shift past the array raises DepthError.

    The block and its Taylor matrices are taken as D G D, D_ii a power of
    2 within a factor 2 of the inverse square root of row i's largest
    entry of the block.  That is exact and leaves every partial unchanged,
    but it evens out much of the growth of a moment block along its index,
    which alone would make the test below judge the block singular.  A
    scaled block singular to working precision raises SingularTauError:
    solving against it returns finite noise, not an error."""

    block = lambda i, j: leading_block(m[i:, j:], n)
    if not n:  # tau_0 = 1
        return 0.0
    d = np.ldexp(1.0, -(np.frexp(np.abs(block(0, 0)).max(axis=1))[1] // 2))
    scaled = lambda g: d[:, None] * g * d
    g0 = scaled(block(0, 0))
    try:
        sv = np.linalg.svd(g0, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # the SVD of a non-finite block
        raise DivergenceError("tau is not finite at the expansion point") from exc
    if not sv[-1] > np.finfo(float).eps * sv[0]:
        raise SingularTauError("tau vanishes to working precision at the "
                               "expansion point")

    def coefficient(chosen):
        # the product of the chosen factors, {(row, column shift): weight}
        terms = {(0, 0): 1.0}
        for (k, a, b), pick in zip(factors, chosen):
            if pick:
                step = {}
                for (r, c), w in terms.items():
                    for key, x in (((r + k, c), a), ((r, c + k), b)):
                        if x:
                            step[key] = step.get(key, 0.0) + w * x
                terms = step
        return scaled(sum(w * block(r, c) for (r, c), w in terms.items()))

    return logdet_partials(solved(g0, coefficient), [(1,) * len(factors)])[0]


def kp_normalized(dlog, extra=0.0):
    """The first KP equation for a log tau whose partials ``dlog(ks)`` =
    d/dt_{k_1} ... d/dt_{k_r} log tau are given, plus ``extra``:

        (d/dt1)^4 + 3 (d/dt2)^2 - 4 d^2/dt1 dt3 + 6 (d^2/dt1^2)^2 + extra,

    normalized by its largest term (0 if every term vanishes).
    """
    terms = [dlog((1, 1, 1, 1)), 3.0 * dlog((2, 2)), -4.0 * dlog((1, 3)),
             6.0 * dlog((1, 1)) ** 2, extra]
    scale = max(abs(v) for v in terms)
    return sum(terms) / scale if scale else 0.0


def kp_residual(mu, n):
    """Normalized residual of the first KP equation for log tau_n of the
    moments mu, at the times of their weight:

        (d/dt1)^4 log tau + 3 (d/dt2)^2 log tau - 4 d^2/dt1 dt3 log tau
        + 6 (d^2/dt1^2 log tau)^2 = 0.

    Every partial is exact: time shifts the row index of hankel_rows(mu, n).
    """
    if n < 1:
        raise UsageError("kp_residual needs n >= 1")
    rows = hankel_rows(mu, n)
    return kp_normalized(
        lambda ks: dlog_block(rows, n, [(k, 1.0, 0.0) for k in ks]))
