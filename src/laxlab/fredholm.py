"""Fredholm determinants det(I - lambda K|_E) by Nystrom discretization.

Kernels: Airy (soft edge), Bessel (hard edge), sine (bulk), and the
finite-N Hermite projection kernel.  The discretization factors the
symmetrized matrix I - lambda sqrt(w) K sqrt(w); on the Airy half-line the
tail is truncated where Ai^2 < 1e-18 with nodes placed relative to the
moving endpoint, so the determinant stays smooth in the endpoints.  The
Airy and Bessel kernels are integrable, K(y, z) = (f(y) g(z) - g(y) f(z))
/ (y - z); each is written once, as (f, g, diagonal) at given points, for
the kernel table and the Nystrom matrix alike, and nystrom_series gives
the exact Taylor matrices of that matrix, over a box of multi-indices, as
the finite endpoints move along several directions at once.
nystrom_det returns one determinant; a caller that wants an error
estimate compares two orders.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, UsageError
from .mathcore import (
    airy_ai_vec,
    airy_taylor_coefficients,
    bessel_sqrt_taylor_coefficients,
    bessel_sqrt_vec,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    lu_determinant,
    orthonormal_polys,
)
from .tau import WeightSpec

# Ai(x)^2 < 1e-18 beyond this point; used to truncate (s, inf)
AIRY_TAIL_CUT = 9.3


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


def _integrable(k, x):
    """(f, g, K(x, x)) at the points x for the integrable kernels
    K(y, z) = (f(y) g(z) - g(y) f(z)) / (y - z): (Ai, Ai') for airy and
    (J_nu(sqrt x), x d/dx J_nu(sqrt x)) for bessel."""
    if k.kind == "airy":
        ai, aip = airy_ai_vec(x)
        return ai, aip, aip ** 2 - x * ai ** 2
    if np.any(x <= 0.0):
        raise DomainError("bessel kernel needs arguments > 0")
    f, g = bessel_sqrt_vec(k.nu, x)
    return f, g, (g ** 2 + 0.25 * (x - k.nu * k.nu) * f ** 2) / x


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


@functools.cache
def _box_table(box):
    """The multi-indices n <= box in lexicographic order and, per n, the
    pairs (a, n - a) for a <= n in that order and the (i, n - e_i) for
    n_i > 0, each n - a and n - e_i given by its position in the order."""
    index = list(itertools.product(*(range(k + 1) for k in box)))
    where = {n: pos for pos, n in enumerate(index)}
    pairs = [np.array([(where[a], where[tuple(i - j for i, j in zip(n, a))])
                       for a in itertools.product(*(range(k + 1) for k in n))
                       ]).T for n in index]
    down = [[(i, where[n[:i] + (k - 1,) + n[i + 1:]])
             for i, k in enumerate(n) if k] for n in index]
    return index, pairs, down


def _cauchy(a, b, pairs):
    """Truncated product of two per-node power series over a box (row j
    holds the coefficients of eps^n for the box's j-th n)."""
    return np.array([(a[left] * b[right]).sum(axis=0)
                     for left, right in pairs])


def _affine(u, box):
    """Rows (|n|! / prod n_i!) prod_i u_i^{n_i} over the box: the share of
    (sum_i eps_i u_i)^|n| that falls on eps^n."""
    powers = [ui ** np.arange(k + 1)[:, None] for ui, k in zip(u, box)]
    return np.array([
        math.factorial(sum(n)) // math.prod(map(math.factorial, n))
        * np.prod([p[k] for p, k in zip(powers, n)], axis=0)
        for n in _box_table(box)[0]])


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


def nystrom_series(k, E, order, directions, box):
    """Taylor matrices of I - lambda sqrt(w) K sqrt(w), the matrix that
    nystrom_det factors, as the finite endpoints c of E move to
    c + sum_i eps_i directions[i]: {n: G_n} for every multi-index n <= box,
    componentwise.  A direction has one component per finite endpoint, in
    the order of E.finite_endpoints(), and the box one exponent per
    direction.  Airy and Bessel kernels only.

    Nodes and interval lengths, the Airy tail cut included, are affine in
    the endpoints, so a node moves as x + sum_i eps_i v_i and its scale
    sqrt(w) x^{-nu/2} as r (1 + sum_i eps_i a_i)^{1/2}, a_i the relative
    growth rate of its interval's length.  A function of x + sum_i eps_i v_i
    has at eps^n its one-variable Taylor coefficient of degree |n| times
    (|n|! / prod n_i!) prod_i v_i^{n_i}; the scale likewise, with C(1/2, |n|)
    and the rates.  Both kernels are integrable,
    K(x, y) = (f(x) g(y) - g(x) f(y)) / (x - y) with diagonal g f' - f g',
    for (f, g) = (Ai, Ai') and (J_nu(sqrt x), x f'); the series of f at a
    node come from its ODE recurrence, so the special functions are
    evaluated once per node.  Products are Cauchy sums over the box, and
    off the diagonal (x - y) M_n = N_n - sum_i (v_i(x) - v_i(y)) M_{n - e_i},
    N the numerator's series.
    """
    if k.kind not in ("airy", "bessel"):
        raise UsageError("endpoint series need the airy or bessel kernel")
    E.require_nonempty()
    box = tuple(box)
    if not box or len(box) != len(directions) or min(box) < 0:
        raise UsageError("a series box needs one exponent >= 0 per direction")
    degree = sum(box)
    x, w = _nystrom_nodes(k, E, order)
    r = np.sqrt(w)
    if k.kind == "airy":
        ai, aip = airy_ai_vec(x)
        taylor = airy_taylor_coefficients(x, ai, aip, degree + 3)
    else:
        f, g = bessel_sqrt_vec(k.nu, x)
        taylor = bessel_sqrt_taylor_coefficients(k.nu, x, f, g / x,
                                                 degree + 3)
        if k.nu != 0.0:
            r = r * x ** (-0.5 * k.nu)
    vel, rate = zip(*(_node_motion(k, E, x, order, d) for d in directions))
    index, pairs, down = _box_table(box)
    at = [sum(n) for n in index]
    steps = np.arange(degree + 1)[:, None]
    motion = _affine(vel, box)
    f = taylor[at] * motion
    fp = ((steps + 1) * taylor[1:degree + 2])[at] * motion
    fpp = ((steps + 1) * (steps + 2) * taylor[2:degree + 3])[at] * motion
    if k.kind == "airy":
        g, gp = fp, fpp
    else:
        # the node itself, x + sum_i eps_i v_i
        xs = np.where(steps[at] == 0, x, steps[at] == 1) * motion
        g = _cauchy(xs, fp, pairs)
        gp = fp + _cauchy(xs, fpp, pairs)
    # C(1/2, j) = C(1/2, j - 1) (3/2 - j) / j: the series of (1 + z)^{1/2}
    sqrt_binomial = np.cumprod(np.r_[1.0, (1.5 - steps[1:, 0]) / steps[1:, 0]])
    scale = r * sqrt_binomial[at, None] * _affine(rate, box)
    p = _cauchy(scale, f, pairs)
    q = _cauchy(scale, g, pairs)
    diag = _cauchy(_cauchy(scale, scale, pairs),
                   _cauchy(g, fp, pairs) - _cauchy(f, gp, pairs), pairs)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    mats = []
    for j, (left, right) in enumerate(pairs):
        m = p[left].T @ q[right]
        m -= q[left].T @ p[right]
        for i, below in down[j]:
            m -= (vel[i][:, None] - vel[i][None, :]) * mats[below]
        m /= diff
        np.fill_diagonal(m, diag[j])
        mats.append(m)
    for m in mats:
        m *= -k.lam
    mats[0][np.diag_indices(len(x))] += 1.0
    return dict(zip(index, mats))


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
