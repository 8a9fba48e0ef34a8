"""Coupled two-matrix (two-Toda) structures.

Bi-moment matrices of the coupled Gaussian weight e^{-(x^2+y^2)/2 + cxy},
evolved to the times (t, s) by the factor E_t(x) E_{-s}(y) in the weight
(tau.evolution_factor), exact log-tau partials in (t, s) by
tau.dlog_block (t_a shifts the row index, s_b the column index), KP
residuals in t and s, exact Wronskian tau identities, and the third-order
boundary PDE satisfied by the joint gap probability of the coupled
ensemble, whose (a, b, c) partials are exact too: the endpoint motion of
the restricted bi-moments is a set of index operators on one bi-moment
matrix, and tau.logdet_partials turns their Taylor matrices into every
partial of log tau up to order 3.
"""

import math

import numpy as np

from .errors import DivergenceError, PrecisionError, SingularTauError, UsageError
from .intervals import IntervalUnion
from .mathcore import lu_determinant, union_rule
from .tau import (
    dlog_block,
    evolution_factor,
    kp_normalized,
    logdet_partials,
    solved,
)


def bimoments(c, E=None, N=6, order=64, t=(), s=()):
    """mu_{ij} = double integral of x^i y^j e^{-(x^2+y^2)/2 + c x y} over
    E1 x E2 by tensor quadrature, the weight times E_t(x) E_{-s}(y) at the
    times (t, s), as an N x N array; requires |c| < 1."""
    if abs(c) >= 1.0:
        raise DivergenceError("the coupled Gaussian needs |c| < 1")
    if E is None:
        E1 = E2 = IntervalUnion.full_line()
    else:
        E1, E2 = E
    E1.require_nonempty()
    E2.require_nonempty()
    scale = math.sqrt(2.0 / (1.0 - abs(c)))  # the weight's decay length
    x, wx = union_rule(E1, order, scale)
    y, wy = union_rule(E2, order, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        px = np.vander(x, N, increasing=True) * (
            wx * evolution_factor(t)(x))[:, None]
        py = np.vander(y, N, increasing=True) * (
            wy * evolution_factor([-v for v in s])(y))[:, None]
        kernel = np.exp(-0.5 * x[:, None] ** 2 - 0.5 * y[None, :] ** 2
                        + c * np.outer(x, y))
        mu = px.T @ kernel @ py
    if not np.all(np.isfinite(mu)):
        raise DivergenceError("bi-moments diverge on this domain")
    return mu


# ----- exact log-tau derivatives in (t, s) -----

def dlog_tau2(m, n, tlist=(), slist=()):
    """Exact mixed partial of log tau_n w.r.t. the listed t and s indices
    (total order <= 3; 0 for n = 0): t_a shifts the row index of the
    bi-moments by a, s_b the column index by b with a minus sign."""
    factors = [(a, 1.0, 0.0) for a in tlist] + [(b, 0.0, -1.0) for b in slist]
    if not 1 <= len(factors) <= 3:
        raise UsageError("total derivative order must be 1..3")
    return dlog_block(m, n, factors)


def kp_in_t_residual(m, n, direction="t"):
    """Normalized residual of the first KP equation for log tau_n in the t
    times (or the s times), all derivatives exact: t shifts the row index,
    s the column index with the opposite sign."""
    if n < 1:
        raise UsageError("kp_in_t_residual needs n >= 1")
    if direction not in ("t", "s"):
        raise UsageError("direction must be 't' or 's'")
    weights = (1.0, 0.0) if direction == "t" else (0.0, -1.0)
    return kp_normalized(
        lambda ks: dlog_block(m, n, [(k, *weights) for k in ks]))


def wronskian_identity_residual(m, n):
    """Residuals of the two exact tau quotient identities

        -d/ds1 log(tau_{n+1}/tau_{n-1})
            = (d2/dt1 ds2 log tau_n) / (d2/dt1 ds1 log tau_n)
        +d/dt1 log(tau_{n+1}/tau_{n-1})
            = (d2/ds1 dt2 log tau_n) / (d2/dt1 ds1 log tau_n),

    both normalized by the larger side; the shared denominator is reported
    through a small-denominator error if it collapses."""
    den = dlog_tau2(m, n, tlist=(1,), slist=(1,))
    if abs(den) < 1e-6:
        raise PrecisionError(
            f"d2 log tau_{n} / dt1 ds1 = {den:.2e} is too close to zero"
        )
    lhs1 = -(dlog_tau2(m, n + 1, slist=(1,)) - dlog_tau2(m, n - 1, slist=(1,)))
    rhs1 = dlog_tau2(m, n, tlist=(1,), slist=(2,)) / den
    lhs2 = dlog_tau2(m, n + 1, tlist=(1,)) - dlog_tau2(m, n - 1, tlist=(1,))
    rhs2 = dlog_tau2(m, n, tlist=(2,), slist=(1,)) / den
    r1 = (lhs1 - rhs1) / max(abs(lhs1), abs(rhs1), 1e-30)
    r2 = (lhs2 - rhs2) / max(abs(lhs2), abs(rhs2), 1e-30)
    return r1, r2


def wronskian_bracket_residual(m, n):
    """Residual of the bracket form of the same theorem:

        {d2 log tau/dt1 ds2, d2 log tau/dt1 ds1}_{t1}
        + {d2 log tau/ds1 dt2, d2 log tau/dt1 ds1}_{s1} = 0,

    with {f, g}_x = (df/dx) g - f (dg/dx); all derivatives exact."""
    f = dlog_tau2(m, n, tlist=(1,), slist=(2,))
    g = dlog_tau2(m, n, tlist=(1,), slist=(1,))
    ft1 = dlog_tau2(m, n, tlist=(1, 1), slist=(2,))
    gt1 = dlog_tau2(m, n, tlist=(1, 1), slist=(1,))
    p = dlog_tau2(m, n, tlist=(2,), slist=(1,))
    ps1 = dlog_tau2(m, n, tlist=(2,), slist=(1, 1))
    gs1 = dlog_tau2(m, n, tlist=(1,), slist=(1, 1))
    total = (ft1 * g - f * gt1) + (ps1 * g - p * gs1)
    scale = max(abs(ft1 * g), abs(f * gt1), abs(ps1 * g), abs(p * gs1), 1e-30)
    return total / scale


# ----- boundary operators and the coupled PDE -----

_DEGREE = np.indices((4, 4, 4)).sum(axis=0)  # total degree of f[i, j, k]


def _term(f, axis, var, coeffs):
    """The partial of f along ``axis`` times sum_k coeffs[k] h^k, h the
    displacement of variable ``var``, on local Taylor polynomials (axes 0,
    1, 2 = a, b, c), truncated at total degree 3: each factor is a 4 x 4
    matrix acting along one axis."""
    times = sum(ck * np.eye(4, k=-k) for k, ck in enumerate(coeffs))
    for matrix, ax in ((np.diag([1.0, 2.0, 3.0], 1), axis), (times, var)):
        f = np.moveaxis(np.tensordot(matrix, f, axes=(1, ax)), 0, ax)
    return f * (_DEGREE <= 3)


class BoundaryOperators:
    """First-order operators in (a, b, c) used by the coupled-Gaussian PDE,

        A1 = (d_a + c d_b) / (c^2 - 1),   B1 = (c d_a + d_b) / (1 - c^2),
        A2 = a d_a - c d_c,               B2 = b d_b - c d_c,

    on local Taylor polynomials at p0 = (a0, b0, c0): f[i, j, k] is the
    coefficient of da^i db^j dc^k, truncated at total degree 3.  The
    operators' coefficients are expanded at p0 too, so operators compose;
    after r of them, the terms of degree <= 3 - r are exact.
    """

    def __init__(self, p0):
        self.a, self.b, self.c = (float(v) for v in p0)
        k = np.arange(4)
        # 1/(c^2 - 1) and c/(c^2 - 1) are (1/(c - 1) -/+ 1/(c + 1)) / 2
        below = (-1.0) ** k / (self.c - 1.0) ** (k + 1)
        above = (-1.0) ** k / (self.c + 1.0) ** (k + 1)
        self.inverse, self.kappa = 0.5 * (below - above), 0.5 * (below + above)

    def a1(self, f):
        return _term(f, 0, 2, self.inverse) + _term(f, 1, 2, self.kappa)

    def b1(self, f):
        return -_term(f, 0, 2, self.kappa) - _term(f, 1, 2, self.inverse)

    def a2(self, f):
        return _term(f, 0, 0, (self.a, 1.0)) - _term(f, 2, 2, (self.c, 1.0))

    def b2(self, f):
        return _term(f, 1, 1, (self.b, 1.0)) - _term(f, 2, 2, (self.c, 1.0))


def _bimoment_taylor(m, c, n):
    """Taylor matrices of the leading n-block of the bi-moments m over
    (-inf, a] x (-inf, b] as (a, b, c) move: coefficient((p, q, k)), the
    matrix at da^p db^q dc^k, is (T_a^p T_b^q m)[k:k+n, k:k+n] / (p! q! k!)
    for p + q + k <= m.shape[0] - n.  A half-line rule is a translate of
    its endpoint, so on the tensor rule d/da moves every node x, and
    d/dx [x^i K] = (i x^{i-1} + (c y - x) x^i) K gives
    (T_a m)_{ij} = i m_{i-1,j} - m_{i+1,j} + c m_{i,j+1}; T_b is the same
    with i and j swapped, and d/dc shifts both indices by 1, on any
    domain."""

    def translate(m):  # T_a, one row and one column shorter
        out = c * m[:-1, 1:] - m[1:, :-1]
        out[1:] += np.arange(1.0, len(out))[:, None] * m[:-2, :-1]
        return out

    def coefficient(pqk):
        p, q, k = pqk
        moved = m
        for _ in range(q):
            moved = translate(moved.T).T
        for _ in range(p):
            moved = translate(moved)
        return moved[k : k + n, k : k + n] / math.prod(map(math.factorial, pqk))

    return coefficient


def gap_log_tau_ratio_taylor(c, a, b, n, order=48):
    """Cubic Taylor polynomial at (a, b, c), as in BoundaryOperators, of

        F_n = (1/n) log( tau_n^E / tau_n ),  E = (-inf, a] x (-inf, b],

    for the coupled Gaussian, every partial exact by tau.logdet_partials
    on the Taylor matrices of _bimoment_taylor: the restricted bi-moments
    move with (a, b, c), the full-line ones with c alone."""
    E = (IntervalUnion.half_line_below(a), IntervalUnion.half_line_below(b))
    restricted = bimoments(c, E, N=n + 3, order=order)
    mu = bimoments(c, N=n + 3, order=order)
    taus = [lu_determinant(restricted[:n, :n]), lu_determinant(mu[:n, :n])]
    if not min(taus) > 0.0:
        raise SingularTauError("tau must stay positive for the log")
    monomials = np.argwhere((_DEGREE >= 1) & (_DEGREE <= 3)).tolist()
    partials = logdet_partials(
        solved(restricted[:n, :n], _bimoment_taylor(restricted, c, n)),
        monomials)
    full = logdet_partials(solved(mu[:n, :n], _bimoment_taylor(mu, c, n)),
                           [(0, 0, 1), (0, 0, 2), (0, 0, 3)])
    f = np.zeros((4, 4, 4))
    f[0, 0, 0] = math.log(taus[0] / taus[1]) / n
    for (i, j, k), d in zip(monomials, partials):
        d -= 0.0 if i + j else full[k - 1]
        f[i, j, k] = d / n / math.prod(map(math.factorial, (i, j, k)))
    return f


def coupled_pde_residual(c, a, b, n, order=48):
    """Normalized residual of the third-order PDE for F_n = (1/n) log P_n:

        {B2 A1 F, B1 A1 F + c/(c^2-1)}_{A1}
            - {A2 B1 F, A1 B1 F + c/(c^2-1)}_{B1} = 0,

    with {f, g}_X = X(f) g - f X(g), at the point (a, b, c)."""
    if abs(c) >= 1.0 or c == 0.0:
        raise UsageError("the coupled PDE needs 0 < |c| < 1")
    if n < 1:
        raise UsageError("the coupled PDE needs n >= 1")
    F = gap_log_tau_ratio_taylor(c, a, b, n, order=order)
    ops = BoundaryOperators((a, b, c))
    kappa = np.zeros((4, 4, 4))
    kappa[0, 0] = ops.kappa
    # at (a, b, c), a product's constant term is that of its factors
    bracket = lambda X, f, g: (X(f)[0, 0, 0] * g[0, 0, 0]
                               - f[0, 0, 0] * X(g)[0, 0, 0])
    t1 = bracket(ops.a1, ops.b2(ops.a1(F)), ops.b1(ops.a1(F)) + kappa)
    t2 = bracket(ops.b1, ops.a2(ops.b1(F)), ops.a1(ops.b1(F)) + kappa)
    return (t1 - t2) / max(abs(t1), abs(t2), 1e-30)
