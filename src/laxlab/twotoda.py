"""Coupled two-matrix (two-Toda) structures.

Bi-moment matrices of the coupled Gaussian weight e^{-(x^2+y^2)/2 + cxy},
their exact (t, s) evolution, exact log-tau derivatives, KP residuals in
t and in s, exact Wronskian tau identities, and the third-order boundary
PDE satisfied by the joint gap probability of the coupled ensemble.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DivergenceError,
    DepthError,
    PrecisionError,
    SingularTauError,
    UsageError,
)
from .intervals import IntervalUnion
from .mathcore import lu_determinant, union_rule
from .tau import (
    direction_matrices,
    evolve_array,
    kp_normalized,
    logdet_multilinear,
    logdet_series_derivatives,
    polarized,
)


@dataclass(frozen=True, eq=False)
class BiMoments:
    """Bi-moment matrix mu_{ij} = <x^i, y^j> over E1 x E2 with coupling c."""

    m: np.ndarray
    c: float
    E1: IntervalUnion
    E2: IntervalUnion

    @property
    def size(self):
        return self.m.shape[0]

    def block(self, n, rshift=0, cshift=0):
        if n + max(rshift, cshift) > self.size:
            raise DepthError(
                f"need moment indices through {n + max(rshift, cshift) - 1}, "
                f"matrix has size {self.size}"
            )
        return self.m[rshift : rshift + n, cshift : cshift + n]


def _coupled_scale(c):
    return math.sqrt(2.0 / (1.0 - abs(c)))


def bimoments(c, E=None, N=6, order=64):
    """mu_{ij} = double integral of x^i y^j e^{-(x^2+y^2)/2 + c x y} over
    E1 x E2 by tensor quadrature; requires |c| < 1."""
    if abs(c) >= 1.0:
        raise DivergenceError("the coupled Gaussian needs |c| < 1")
    if E is None:
        E1 = E2 = IntervalUnion.full_line()
    else:
        E1, E2 = E
    E1.require_nonempty()
    E2.require_nonempty()
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _bimoment_series(c, E1, E2, N, order)[0]
    if not np.all(np.isfinite(mu)):
        raise DivergenceError("bi-moments diverge on this domain")
    return BiMoments(m=mu, c=float(c), E1=E1, E2=E2)


def _bimoment_series(c, E1, E2, N, order, v=(0.0, 0.0, 0.0), degree=0):
    """Taylor matrices G_0..G_degree of the N x N bi-moments over E1 x E2 as
    every node moves by s (v_a, v_b) and the coupling by s v_c: on
    (-inf, a] x (-inf, b] the exact motion of the endpoints, since a
    half-line rule is a translate of its endpoint.  The exponent is then a
    cubic phi_0 + s phi_1 + s^2 phi_2 + s^3 phi_3, and K' = phi' K."""
    scale = _coupled_scale(c)
    x, wx = union_rule(E1, order, scale)
    y, wy = union_rule(E2, order, scale)
    va, vb, vc = v
    xs, ys, xy = x[:, None], y[None, :], np.outer(x, y)
    kernel = [np.exp(-0.5 * xs ** 2 - 0.5 * ys ** 2 + c * xy)]
    phi = [None, (c * vb - va) * xs + (c * va - vb) * ys + vc * xy,
           c * va * vb - 0.5 * (va ** 2 + vb ** 2) + vc * (vb * xs + va * ys),
           vc * va * vb]
    for r in range(1, degree + 1):
        kernel.append(sum(j * phi[j] * kernel[r - j]
                          for j in range(1, min(r, 3) + 1)) / r)
    powers = []  # [s^r] w (z + s dz)^i, one factor z + s dz at a time
    for z, w, dz in ((x, wx, va), (y, wy, vb)):
        p = np.zeros((degree + 1, len(z), N))
        p[0, :, 0] = 1.0
        for i in range(1, N):
            p[:, :, i] = p[:, :, i - 1] * z
            p[1:, :, i] += dz * p[:-1, :, i - 1]
        powers.append(p * w[:, None])
    px, py = powers
    left = [sum(px[p].T @ kernel[r - p] for p in range(r + 1))
            for r in range(degree + 1)]
    return [sum(left[u] @ py[r - u] for u in range(r + 1))
            for r in range(degree + 1)]


def evolve_bimoments(m0, t, s):
    """Exact evolution m(t,s) = e^{sum t_n L^n} m(0) e^{-sum s_n L^{T n}},
    cut to the square both evolutions keep."""
    t = () if t is None else t
    s = () if s is None else [-v for v in s]
    new = evolve_array(m0.m, t, s)
    keep = min(new.shape)
    return m0 if new is m0.m else replace(m0, m=new[:keep, :keep])


# ----- exact log-tau derivatives in (t, s) -----

def dlog_tau2(m, n, tlist=(), slist=()):
    """Exact mixed partial of log tau_n w.r.t. the listed t and s indices
    (total order <= 3; 0 for n = 0): t_a shifts the row index of the
    bi-moments by a, s_b the column index by b with a minus sign."""
    shifts = [(a, 0, 1.0) for a in tlist] + [(0, b, -1.0) for b in slist]
    if not 1 <= len(shifts) <= 3:
        raise UsageError("total derivative order must be 1..3")

    def coefficient(mask):
        rows, cols, signs = zip(*(s for i, s in enumerate(shifts) if mask >> i & 1))
        return math.prod(signs) * m.block(n, rshift=sum(rows), cshift=sum(cols))

    return logdet_multilinear(m.block(n), coefficient, len(shifts))


def kp_in_t_residual(m, n, direction="t"):
    """Normalized residual of the first KP equation for log tau_n in the t
    times (or the s times), all derivatives exact."""
    if n < 1:
        raise UsageError("kp_in_t_residual needs n >= 1")
    if direction not in ("t", "s"):
        raise UsageError("direction must be 't' or 's'")

    def directional(d, order):
        # t shifts the row index, s the column index with the opposite sign
        if direction == "t":
            gs = direction_matrices(m.m, n, order, rows=d)
        else:
            gs = direction_matrices(m.m, n, order, cols=[-v for v in d])
        return logdet_series_derivatives(gs)

    return kp_normalized(directional)


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


def gap_log_tau_ratio_taylor(c, a, b, n, order=48):
    """Cubic Taylor polynomial at (a, b, c), as in BoundaryOperators, of

        F_n = (1/n) log( tau_n^E / tau_n ),  E = (-inf, a] x (-inf, b],

    for the coupled Gaussian.  Along v, D_v^r F are log-det jets: the
    restricted bi-moments move by ``_bimoment_series``, the full-line ones
    by v_c^r mu[r:r+n, r:r+n] / r!.  Partials come by polarization."""
    E = (IntervalUnion.half_line_below(a), IntervalUnion.half_line_below(b))
    mu = bimoments(c, N=n + 3, order=order).m
    full = [mu[r : r + n, r : r + n] / math.factorial(r) for r in range(4)]
    taus = [lu_determinant(bimoments(c, E, N=n, order=order).m),
            lu_determinant(full[0])]
    if not min(taus) > 0.0:
        raise SingularTauError("tau must stay positive for the log")
    full_jet = logdet_series_derivatives(full)

    @functools.cache
    def jet(v):
        series = _bimoment_series(c, *E, n, order, v, degree=3)
        return [(d - v[2] ** r * e) / n for r, (d, e) in
                enumerate(zip(logdet_series_derivatives(series), full_jet), 1)]

    directional = lambda d, r: jet(tuple(np.pad(d, (0, 3 - len(d)))))
    f = np.zeros((4, 4, 4))
    f[0, 0, 0] = math.log(taus[0] / taus[1]) / n
    for i, j, k in zip(*np.nonzero((_DEGREE >= 1) & (_DEGREE <= 3))):
        f[i, j, k] = polarized(directional, (1,) * i + (2,) * j + (3,) * k) / (
            math.factorial(i) * math.factorial(j) * math.factorial(k))
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
