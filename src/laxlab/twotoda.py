"""Coupled two-matrix (two-Toda) structures.

Bi-moment matrices of the coupled Gaussian weight e^{-(x^2+y^2)/2 + cxy},
their exact (t, s) evolution, tau determinants, monic bi-orthogonal
polynomials, the Christoffel-Darboux-type kernel, exact Wronskian tau
identities, and the third-order boundary PDE satisfied by the joint gap
probability of the coupled ensemble.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    DepthError,
    PrecisionError,
    SingularTauError,
    UsageError,
)
from .fd import central_diff
from .intervals import IntervalUnion
from .mathcore import lu_determinant, union_rule
from .tau import (
    _direction_poly_powers,
    logdet_series_derivatives,
    max_shift_for,
    shift_coefficients,
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
    scale = _coupled_scale(c)
    x, wx = union_rule(E1, order, scale)
    y, wy = union_rule(E2, order, scale)
    kernel = np.exp(
        -0.5 * x[:, None] ** 2 - 0.5 * y[None, :] ** 2 + c * np.outer(x, y)
    )
    vx = np.empty((len(x), N))
    vy = np.empty((len(y), N))
    px = np.ones_like(x)
    py = np.ones_like(y)
    for k in range(N):
        vx[:, k] = wx * px
        vy[:, k] = wy * py
        px = px * x
        py = py * y
    mu = vx.T @ kernel @ vy
    if not np.all(np.isfinite(mu)):
        raise DivergenceError("bi-moments diverge on this domain")
    return BiMoments(m=mu, c=float(c), E1=E1, E2=E2)


def evolve_bimoments(m0, t, s):
    """Exact evolution m(t,s) = e^{sum t_n L^n} m(0) e^{-sum s_n L^{T n}}."""
    t = [] if t is None else list(t)
    s = [] if s is None else list(s)
    shift_t = max_shift_for(t)
    shift_s = max_shift_for(s)
    if shift_t == 0 and shift_s == 0:
        return m0
    keep = m0.size - max(shift_t, shift_s)
    if keep <= 0:
        raise DepthError("not enough moment depth for this evolution")
    ct = shift_coefficients(t, shift_t) if shift_t else np.array([1.0])
    cs = (
        shift_coefficients([-v for v in s], shift_s)
        if shift_s
        else np.array([1.0])
    )
    new = np.zeros((keep, keep))
    for a, ca in enumerate(ct):
        if ca == 0.0:
            continue
        for b, cb in enumerate(cs):
            if cb == 0.0:
                continue
            new += ca * cb * m0.m[a : a + keep, b : b + keep]
    return BiMoments(m=new, c=m0.c, E1=m0.E1, E2=m0.E2)


def tau2_table(m, nmax):
    """tau_0 = 1, tau_n = det of the leading n x n bi-moment block."""
    taus = [1.0]
    for n in range(1, nmax + 1):
        taus.append(lu_determinant(m.block(n)))
    return np.array(taus)


def _tau_scale(block):
    """Hadamard bound used to decide whether a determinant 'vanishes'."""
    norms = np.sqrt((block ** 2).sum(axis=1))
    return float(np.prod(np.maximum(norms, 1e-300)))


def _monic_coefficients(m, which, n):
    """Coefficient vector (length n+1, leading 1) of the monic
    bi-orthogonal polynomial of degree n, from the bordered determinant."""
    taus = tau2_table(m, n)
    for k in range(1, n + 1):
        if abs(taus[k]) <= 1e-12 * _tau_scale(m.block(k)):
            raise SingularTauError(
                f"tau_{k} vanishes; Borel factorization breaks down"
            )
    if n == 0:
        return np.array([1.0])
    # p1_n: <p1_n, y^j> = 0 for j < n; solve the linear system for the
    # non-leading coefficients (p2 is the transpose problem)
    if which == 1:
        a = m.block(n)  # rows i, cols j < n  -> equations over j
        rhs = -m.m[n, :n]
        coeffs = np.linalg.solve(a.T, rhs)
    elif which == 2:
        a = m.block(n)
        rhs = -m.m[:n, n]
        coeffs = np.linalg.solve(a, rhs)
    else:
        raise UsageError("which must be 1 or 2")
    return np.concatenate([coeffs, [1.0]])


def biorthopoly_eval(m, which, n, z):
    """Monic bi-orthogonal polynomial p^(1)_n(y) (which=1, left string) or
    p^(2)_n(z) (which=2, right string)."""
    c = _monic_coefficients(m, which, n)
    z = np.asarray(z, dtype=float)
    val = sum(ck * z ** k for k, ck in enumerate(c))
    return float(val) if z.ndim == 0 else val


def h_norms(m, n):
    """h_j = tau_{j+1} / tau_j for j < n (the bi-orthogonality norms)."""
    taus = tau2_table(m, n)
    for k in range(1, n + 1):
        if abs(taus[k]) <= 1e-12 * _tau_scale(m.block(k)):
            raise SingularTauError(f"tau_{k} vanishes")
    return taus[1:] / taus[:-1]


def cd_kernel(m, n, y, z):
    """Christoffel-Darboux-type kernel sum_{j<n} p1_j(y) p2_j(z) / h_j."""
    hs = h_norms(m, n)
    total = 0.0
    for j in range(n):
        total += (
            biorthopoly_eval(m, 1, j, y) * biorthopoly_eval(m, 2, j, z) / hs[j]
        )
    return total


# ----- exact log-tau derivatives in (t, s) -----

def dlog_tau2(m, n, tlist=(), slist=()):
    """Exact mixed partial of log tau_n w.r.t. the listed t and s indices
    (total order <= 3), via the derivative formulas for log det."""
    labels = [("t", a) for a in tlist] + [("s", b) for b in slist]
    order = len(labels)
    if order == 0 or order > 3:
        raise UsageError("total derivative order must be 1..3")

    def h(subset):
        dt = sum(a for kind, a in subset if kind == "t")
        ds = sum(b for kind, b in subset if kind == "s")
        sign = (-1.0) ** sum(1 for kind, _ in subset if kind == "s")
        return sign * m.block(n, rshift=dt, cshift=ds)

    base = m.block(n)
    try:
        solve = lambda mat: np.linalg.solve(base, mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SingularTauError(f"tau_{n} vanishes") from exc
    tr = lambda *ms: float(np.trace(np.linalg.multi_dot(ms))) if len(ms) > 1 \
        else float(np.trace(ms[0]))
    if order == 1:
        return tr(solve(h(labels)))
    if order == 2:
        x, y = labels
        ax = solve(h([x]))
        ay = solve(h([y]))
        return tr(solve(h([x, y]))) - tr(ax, ay)
    x, y, z = labels
    ax, ay, az = (solve(h([v])) for v in (x, y, z))
    axy, axz, ayz = (
        solve(h([x, y])),
        solve(h([x, z])),
        solve(h([y, z])),
    )
    return (
        tr(solve(h([x, y, z])))
        - tr(axy, az)
        - tr(axz, ay)
        - tr(ayz, ax)
        + tr(ax, ay, az)
        + tr(ax, az, ay)
    )


def kp_in_t_residual(m, n, direction="t"):
    """Normalized residual of the first KP equation for log tau_n in the t
    times (or the s times), all derivatives exact."""
    if n < 1:
        raise UsageError("kp_in_t_residual needs n >= 1")
    sign = 1.0 if direction == "t" else -1.0
    if direction not in ("t", "s"):
        raise UsageError("direction must be 't' or 's'")

    def directional(d, order):
        powers = _direction_poly_powers([sign * v for v in d], order)
        maxdeg = len(powers[-1]) - 1
        gs = []
        for j in range(order + 1):
            g = np.zeros((n, n))
            for deg, coeff in enumerate(powers[j]):
                if coeff != 0.0:
                    if direction == "t":
                        g += coeff * m.block(n, rshift=deg)
                    else:
                        g += coeff * m.block(n, cshift=deg)
            gs.append(g)
        return logdet_series_derivatives(gs)

    d1 = directional([1.0], 4)
    d2 = directional([0.0, 1.0], 2)
    plus = directional([1.0, 0.0, 1.0], 2)
    minus = directional([1.0, 0.0, -1.0], 2)
    t13 = 0.25 * (plus[1] - minus[1])
    terms = [d1[3], 3.0 * d2[1], -4.0 * t13, 6.0 * d1[1] ** 2]
    scale = max(abs(v) for v in terms)
    if scale == 0.0:
        return 0.0
    return sum(terms) / scale


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
    lhs1 = -(
        dlog_tau2(m, n + 1, slist=(1,)) - dlog_tau2(m, n - 1, slist=(1,))
        if n > 1
        else dlog_tau2(m, n + 1, slist=(1,))
    )
    rhs1 = dlog_tau2(m, n, tlist=(1,), slist=(2,)) / den
    lhs2 = (
        dlog_tau2(m, n + 1, tlist=(1,)) - dlog_tau2(m, n - 1, tlist=(1,))
        if n > 1
        else dlog_tau2(m, n + 1, tlist=(1,))
    )
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

FD_STEP = 1e-2


class BoundaryOperators:
    """First-order operators in (a, b, c) used by the coupled-Gaussian PDE.

    Functions are maps (a, b, c) -> float; each operator returns another
    such map, with derivatives by Richardson-extrapolated central FD so
    operators compose.
    """

    def __init__(self, h=FD_STEP):
        self.h = h

    def _d(self, f, axis):
        def out(p):
            def g(delta):
                q = list(p)
                q[axis] += delta
                return f(tuple(q))

            return central_diff(g, 1, self.h, richardson=True, levels=1)

        return out

    def a1(self, f):
        da, db = self._d(f, 0), self._d(f, 1)
        return lambda p: (da(p) + p[2] * db(p)) / (p[2] ** 2 - 1.0)

    def b1(self, f):
        da, db = self._d(f, 0), self._d(f, 1)
        return lambda p: (p[2] * da(p) + db(p)) / (1.0 - p[2] ** 2)

    def a2(self, f):
        da, dc = self._d(f, 0), self._d(f, 2)
        return lambda p: p[0] * da(p) - p[2] * dc(p)

    def b2(self, f):
        db, dc = self._d(f, 1), self._d(f, 2)
        return lambda p: p[1] * db(p) - p[2] * dc(p)


def _memoized(f):
    cache = {}

    def wrapped(p):
        key = tuple(round(v, 12) for v in p)
        if key not in cache:
            cache[key] = f(p)
        return cache[key]

    return wrapped


def gap_log_tau_ratio(n, order=48):
    """F_n(a, b, c) = (1/n) log( tau_n^E / tau_n ) for the coupled Gaussian
    with E = (-inf, a] x (-inf, b]."""

    def f(p):
        a, b, c = p
        E = (IntervalUnion.half_line_below(a), IntervalUnion.half_line_below(b))
        restricted = tau2_table(bimoments(c, E, N=n, order=order), n)[n]
        full = tau2_table(bimoments(c, N=n, order=order), n)[n]
        if restricted <= 0.0 or full <= 0.0:
            raise SingularTauError("tau must stay positive for the log")
        return (math.log(restricted) - math.log(full)) / n

    return _memoized(f)


def coupled_pde_residual(c, a, b, n, order=48, h=FD_STEP):
    """Normalized residual of the third-order PDE for F_n = (1/n) log P_n:

        {B2 A1 F, B1 A1 F + c/(c^2-1)}_{A1}
            - {A2 B1 F, A1 B1 F + c/(c^2-1)}_{B1} = 0,

    with {f, g}_X = X(f) g - f X(g), at the point (a, b, c)."""
    if abs(c) >= 1.0 or c == 0.0:
        raise UsageError("the coupled PDE needs 0 < |c| < 1")
    F = gap_log_tau_ratio(n, order=order)
    # quadrature-noise budget: a higher-order rule must agree far below
    # what three FD levels amplify
    probe = gap_log_tau_ratio(n, order=order + order // 4)
    noise = abs(F((a, b, c)) - probe((a, b, c)))
    if noise > 1e-9:
        raise PrecisionError(
            f"quadrature noise {noise:.2e} too large for third-order FD"
        )
    ops = BoundaryOperators(h=h)
    kappa = lambda p: p[2] / (p[2] ** 2 - 1.0)
    u = _memoized(ops.b2(ops.a1(F)))
    v = _memoized(lambda p: ops.b1(ops.a1(F))(p) + kappa(p))
    term1 = lambda p: ops.a1(u)(p) * v(p) - u(p) * ops.a1(v)(p)
    w = _memoized(ops.a2(ops.b1(F)))
    x = _memoized(lambda p: ops.a1(ops.b1(F))(p) + kappa(p))
    term2 = lambda p: ops.b1(w)(p) * x(p) - w(p) * ops.b1(x)(p)
    p0 = (float(a), float(b), float(c))
    t1 = term1(p0)
    t2 = term2(p0)
    scale = max(abs(t1), abs(t2), 1e-30)
    return (t1 - t2) / scale
