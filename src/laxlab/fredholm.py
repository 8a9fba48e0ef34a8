"""Fredholm determinants det(I - lambda K|_E) by Nystrom discretization.

Kernels: Airy (soft edge), Bessel (hard edge), sine (bulk), and the
finite-N Hermite projection kernel.  The discretization factors the
symmetrized matrix I - lambda sqrt(w) K sqrt(w); on the Airy half-line the
tail is truncated where Ai^2 < 1e-18 with nodes placed relative to the
moving endpoint, so the determinant stays smooth in the endpoints.  The
Airy and Bessel kernels are integrable, K(y, z) = (f(y) g(z) - g(y) f(z))
/ (y - z); each is written once, as (f, g, diagonal) at given points, for
the kernel table and the Nystrom matrix alike, and nystrom_series gives
the exact Taylor series of that matrix as the finite endpoints move.
nystrom_det returns one determinant; a caller that wants an error
estimate compares two orders.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .mathcore import (
    airy_ai_vec,
    airy_taylor_coefficients,
    bessel_j,
    bessel_j_prime,
    bessel_sqrt_taylor_coefficients,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    lu_determinant,
    orthonormal_polys,
)
from .tau import WeightSpec

# Ai(x)^2 < 1e-18 beyond this point; used to truncate (s, inf)
AIRY_TAIL_CUT = 9.3

# highest order of the endpoint series: the node scales' series
# (_SQRT_BINOMIAL) stop at four
SERIES_DEGREE = 4

# binomial coefficients C(1/2, j): the series of (1 + z)^{1/2}
_SQRT_BINOMIAL = (1.0, 0.5, -0.125, 0.0625, -0.0390625)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel, with its parameters and the lambda multiplier."""

    kind: str
    nu: float = 0.0
    N: int = 1
    b: float = 1.0
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in ("airy", "bessel", "sine", "hermite"):
            raise UsageError(f"unknown kernel kind {self.kind!r}")
        if not np.all(np.isfinite([self.nu, self.b, self.lam])):
            raise DomainError("kernel parameters must be finite")
        if self.kind == "bessel" and self.nu <= -1.0:
            raise DomainError("bessel kernel requires nu > -1")
        if self.kind == "hermite" and (self.N < 1 or self.b <= 0.0):
            raise DomainError("hermite kernel requires N >= 1 and b > 0")


def _bessel_at_sqrt(nu, x):
    """(sqrt x, J_nu(sqrt x), J_nu'(sqrt x)) from J_nu and J_{nu+1}."""
    s = np.sqrt(x)
    j = np.array([bessel_j(nu, t) for t in s.ravel()])
    jp = np.array([bessel_j_prime(nu, t, jt) for t, jt in zip(s.ravel(), j)])
    return s, j.reshape(s.shape), jp.reshape(s.shape)


def _integrable(k, x):
    """(f, g, K(x, x)) at the points x for the integrable kernels
    K(y, z) = (f(y) g(z) - g(y) f(z)) / (y - z): (Ai, Ai') for airy and
    (J_nu(sqrt x), x d/dx J_nu(sqrt x)) for bessel."""
    if k.kind == "airy":
        ai, aip = airy_ai_vec(x)
        return ai, aip, aip ** 2 - x * ai ** 2
    if np.any(x <= 0.0):
        raise DomainError("bessel kernel needs arguments > 0")
    s, j, jp = _bessel_at_sqrt(k.nu, x)
    diag = 0.25 * (jp ** 2 + (1.0 - k.nu * k.nu / x) * j ** 2)
    return j, 0.5 * s * jp, diag


def hermite_functions(N, b, z):
    """Orthonormal oscillator functions phi_k(z) = p_k(z) e^{-b z^2 / 2},
    k < N, for the weight e^{-b z^2}, from its closed-form recurrence."""
    z = np.asarray(z, dtype=float)
    return orthonormal_polys(WeightSpec("gaussian", b=b).recurrence(N), z,
                             np.exp(-0.5 * b * z * z))


def _hermite_kernel(N, b, y, z):
    """K_N(y_i, z_j) = sum_{k < N} phi_k(y_i) phi_k(z_j) for every pair of
    the flattened points y and z."""
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    py = hermite_functions(N, b, y)
    pz = hermite_functions(N, b, z)
    return py.T @ pz


def kernel_eval(k, y, z):
    """K(y, z) for the chosen kernel (lambda not applied); y and z
    broadcast (e.g. x[:, None] and x[None, :] give the kernel matrix)."""
    scalar = np.ndim(y) == 0 and np.ndim(z) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if k.kind == "sine":
        diff = np.pi * (y - z)
        close = np.abs(diff) < 1e-10
        safe = np.where(close, 1.0, diff)
        val = np.where(close, 1.0, np.sin(safe) / safe)
    elif k.kind == "hermite":
        y, z = np.broadcast_arrays(y, z)
        val = np.einsum("kp,kp->p", hermite_functions(k.N, k.b, y.ravel()),
                        hermite_functions(k.N, k.b, z.ravel())).reshape(y.shape)
    else:
        fy, gy, _ = _integrable(k, y)
        fz, gz, _ = _integrable(k, z)
        diff = y - z
        close = np.abs(diff) < 1e-8
        val = (fy * gz - gy * fz) / np.where(close, 1.0, diff)
        val[close] = _integrable(k, 0.5 * (y + z)[close])[2]
    return float(val[0]) if scalar else val


def _airy_tail_end(lo):
    """Where the Airy half-line (lo, inf) is cut: at AIRY_TAIL_CUT, or at
    lo + 0.5 once that lies beyond it (the cut then moves with lo)."""
    return max(lo + 0.5, AIRY_TAIL_CUT)


def _nystrom_nodes(k, E, order):
    """Nodes and measure weights per interval.

    For the bessel kernel the measure is z^nu dz: the kernel factors as
    (yz)^{nu/2} * (entire function), so a multiplicative similarity turns
    det(I - K) into the determinant of a smooth kernel against z^nu dz.
    An interval touching the hard edge 0 gets a Gauss-Jacobi rule; the
    others absorb z^nu into Gauss-Legendre weights.
    """
    nodes = []
    weights = []
    for lo, hi in E.intervals:
        if math.isinf(lo):
            raise DomainError("kernels here have no decay at -inf")
        if math.isinf(hi):
            if k.kind != "airy":
                raise DomainError(
                    f"the {k.kind} kernel needs a bounded domain"
                )
            hi = _airy_tail_end(lo)
        if k.kind == "bessel" and lo < 0.0:
            raise DomainError("the bessel kernel lives on z >= 0")
        if k.kind == "bessel" and k.nu != 0.0 and lo == 0.0:
            x, w = gauss_jacobi_rule(order, k.nu, (lo, hi))
        else:
            x, w = gauss_legendre_rule(order, (lo, hi))
            if k.kind == "bessel" and k.nu != 0.0:
                with np.errstate(over="ignore"):  # checked below
                    w = w * x ** k.nu
        nodes.append(x)
        weights.append(w)
    weights = np.concatenate(weights)
    if not np.all(np.isfinite(weights)):
        raise NumericalError("Nystrom weights overflow")
    return np.concatenate(nodes), weights


def nystrom_matrix(k, E, order):
    """The symmetrized discretization sqrt(w) K sqrt(w) and its nodes
    (for bessel: the similarity-transformed smooth kernel against the
    z^nu measure, which has the same determinant and traces)."""
    x, w = _nystrom_nodes(k, E, order)
    sw = np.sqrt(w)
    if k.kind == "hermite":
        kernel = _hermite_kernel(k.N, k.b, x, x)
    elif k.kind == "sine":
        kernel = kernel_eval(k, x[:, None], x[None, :])
    else:
        f, g, diag = _integrable(k, x)
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        kernel = (f[:, None] * g[None, :] - g[:, None] * f[None, :]) / diff
        np.fill_diagonal(kernel, diag)
        if k.kind == "bessel" and k.nu != 0.0:
            scale = x ** (-0.5 * k.nu)
            kernel = scale[:, None] * kernel * scale[None, :]
    return sw[:, None] * kernel * sw[None, :], x, w


def nystrom_det(k, E, order=64):
    """det(I - lambda K|_E) via LU of the symmetrized Nystrom matrix."""
    if E.is_empty:
        return 1.0
    mat, _, _ = nystrom_matrix(k, E, order)
    return lu_determinant(np.eye(mat.shape[0]) - k.lam * mat)


def _cauchy(a, b):
    """Truncated product of two equal-shaped stacks of per-node power
    series (row j holds the coefficients of eps^j)."""
    out = np.zeros(a.shape)
    for j in range(len(out)):
        for i in range(j + 1):
            out[j] += a[i] * b[j - i]
    return out


def _node_motion(k, E, x, order, d):
    """Velocity of each node and growth rate of its interval's length,
    relative to that length, when the finite endpoints move along d."""
    d = np.asarray(d, dtype=float).ravel()
    if d.size != len(E.finite_endpoints()):
        raise UsageError(
            f"a direction needs one component per finite endpoint, "
            f"{len(E.finite_endpoints())}, not {d.size}"
        )
    vel = np.empty_like(x)
    rate = np.empty_like(x)
    pos = 0
    for b, (lo, hi) in enumerate(E.intervals):
        d_lo = d[pos]
        pos += 1
        if k.kind == "bessel" and lo == 0.0 and d_lo != 0.0:
            raise DomainError("the hard edge 0 of a bessel gap set is fixed")
        if math.isfinite(hi):
            d_hi = d[pos]
            pos += 1
        else:
            hi = _airy_tail_end(lo)
            d_hi = d_lo if hi == lo + 0.5 else 0.0
        block = slice(b * order, (b + 1) * order)
        length = hi - lo
        vel[block] = d_lo + (d_hi - d_lo) * (x[block] - lo) / length
        rate[block] = (d_hi - d_lo) / length
    return vel, rate


def _series_matrices(k, x, r, taylor, diff, vel, rate, degree):
    """[G_0, ..., G_degree] for one direction, from the Taylor
    coefficients of f at the nodes and the node motion."""
    steps = np.arange(degree + 1)[:, None]
    powers = vel ** steps
    f = taylor[:degree + 1] * powers
    fp = (steps + 1) * taylor[1:degree + 2] * powers
    fpp = (steps + 1) * (steps + 2) * taylor[2:degree + 3] * powers
    if k.kind == "airy":
        g, gp = fp, fpp
    else:
        xs = np.zeros_like(f)
        xs[0] = x
        xs[1:2] = vel
        g = _cauchy(xs, fp)
        gp = fp + _cauchy(xs, fpp)
    scale = r * np.array(_SQRT_BINOMIAL[:degree + 1])[:, None] * rate ** steps
    p = _cauchy(scale, f)
    q = _cauchy(scale, g)
    diag = _cauchy(_cauchy(scale, scale), _cauchy(g, fp) - _cauchy(f, gp))
    dvel = vel[:, None] - vel[None, :]
    mats = []
    for j in range(degree + 1):
        # (x - y + eps (v_x - v_y)) M(eps) = numerator series, off the
        # diagonal
        m = p[:j + 1].T @ q[j::-1] - q[:j + 1].T @ p[j::-1]
        if j:
            m -= dvel * mats[-1]
        m /= diff
        np.fill_diagonal(m, diag[j])
        mats.append(m)
    for m in mats:
        m *= -k.lam
    mats[0][np.diag_indices(len(x))] += 1.0
    return mats


def nystrom_series(k, E, order, directions):
    """Taylor matrices of I - lambda sqrt(w) K sqrt(w), the matrix that
    nystrom_det factors, as the finite endpoints c of E move to c + eps d.

    ``directions`` lists (d, degree) pairs: d has one component per
    finite endpoint, in the order of E.finite_endpoints(), and
    degree <= SERIES_DEGREE.  Returns an iterator that gives, for each
    pair in turn, [G_0, ..., G_degree] with
    I - lambda M(eps) = sum_j eps^j G_j + O(eps^(degree + 1)).  It builds
    a direction's matrices only when it reaches it, so a caller that drops
    them before asking for the next keeps one direction's matrices alive.
    Airy and Bessel kernels only; the arguments are checked and the
    special functions evaluated before this returns.

    Nodes and interval lengths, the Airy tail cut included, are affine in
    the endpoints, so a node moves as x + eps v and its scale
    sqrt(w) x^{-nu/2} as r (1 + eps a)^{1/2}, a being the relative growth
    rate of its interval's length.  Both kernels are integrable,
    K(x, y) = (f(x) g(y) - g(x) f(y)) / (x - y) with diagonal
    g f' - f g', for (f, g) = (Ai, Ai') and (J_nu(sqrt x), x f'); the
    series of f at each node come from its ODE recurrence, so the special
    functions are evaluated once per node and shared by every direction.
    """
    if k.kind not in ("airy", "bessel"):
        raise UsageError("endpoint series need the airy or bessel kernel")
    E.require_nonempty()
    degree = max(deg for _, deg in directions)
    if min(deg for _, deg in directions) < 0 or degree > SERIES_DEGREE:
        raise UsageError(f"series degrees must lie in 0..{SERIES_DEGREE}")
    x, w = _nystrom_nodes(k, E, order)
    r = np.sqrt(w)
    if k.kind == "airy":
        ai, aip = airy_ai_vec(x)
        taylor = airy_taylor_coefficients(x, ai, aip, degree + 3)
    else:
        s, j, jp = _bessel_at_sqrt(k.nu, x)
        taylor = bessel_sqrt_taylor_coefficients(
            k.nu, x, j, 0.5 * jp / s, degree + 3
        )
        if k.nu != 0.0:
            r = r * x ** (-0.5 * k.nu)
    motions = [(_node_motion(k, E, x, order, d), deg) for d, deg in directions]
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    return (
        _series_matrices(k, x, r, taylor, diff, vel, rate, deg)
        for (vel, rate), deg in motions
    )


def scaling_limit_error(N, regime, grid, b=1.0):
    """sup over the grid of |rescaled K_N - limit kernel|.

    bulk: (1/rho) K_N(x/rho, y/rho) -> sine kernel, rho = K_N(0, 0);
    edge: scale sigma = sqrt(2) N^{1/6} about sqrt(2N) -> Airy kernel
    (stated for b = 1; general b rescales lengths by 1/sqrt(b)).
    """
    if N < 10:
        raise UsageError("scaling checks need N >= 10")
    grid = np.asarray(grid, dtype=float)
    KernelSpec("hermite", N=N, b=b)  # rejects a b that is not finite and > 0
    s = math.sqrt(b)
    if regime == "bulk":
        rho = float(_hermite_kernel(N, b, 0.0, 0.0)[0, 0])
        pts = grid / rho
        approx = _hermite_kernel(N, b, pts, pts) / rho
        exact = kernel_eval(KernelSpec("sine"), grid[:, None], grid[None, :])
    elif regime == "edge":
        center = math.sqrt(2.0 * N) / s
        sigma = math.sqrt(2.0) * N ** (1.0 / 6.0) * s
        pts = center + grid / sigma
        approx = _hermite_kernel(N, b, pts, pts) / sigma
        exact = kernel_eval(KernelSpec("airy"), grid[:, None], grid[None, :])
    else:
        raise UsageError("regime must be 'bulk' or 'edge'")
    return float(np.abs(approx - exact).max())
