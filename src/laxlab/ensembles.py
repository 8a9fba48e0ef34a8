"""Finite-n gap probabilities and samplers for beta = 1, 2, 4 ensembles.

P_n(E) is the probability that every eigenvalue lies in E, for the joint
density proportional to |Delta(z)|^beta prod rho(z_k): the ratio of the
taus of E and of the whole support.  EnsembleTau is the one owner of the
choice of tau at each beta: the Hankel determinant (beta = 2) or the
Pfaffian of skew moments (beta = 1, even n, and beta = 4), with its
exact time and endpoint derivatives, for the gap probabilities, the gap
ODE jets and the Virasoro constraints.  At beta = 2 P_n(E) is also,
independently, the determinant of the Gram matrix of orthonormal
weighted polynomials restricted to E.  Monte Carlo samplers of the
matching tridiagonal beta-ensemble models provide cross-validation: the
Monte Carlo estimator draws fixed-size blocks, each from its own SFC64
stream spawned from the seed, and counts, block by block, the draws whose
eigenvalues all lie in E by Sturm inertia (the signs of the LDL^T pivots
of T - sI at each finite endpoint, from the squared off-diagonals), so
no eigensolve is needed, memory does not grow with the sample count and
the estimate is bitwise reproducible at any thread count.
The single-boundary gap ODE takes exact x-derivatives of log P_n from
EnsembleTau.endpoint_jets (gap_log_jets).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, PrecisionError, UnderflowError, UsageError
from .gapodes import beta_ode_residual
from .intervals import IntervalUnion
from .mathcore import (gauss_jacobi_rule, gauss_legendre_rule, lu_determinant,
                       orthonormal_polys, pfaffian)
from .pfaff import skew_endpoint_series, skew_inner_products
from .tau import (
    WeightSpec,
    dlog_block,
    hankel_endpoint_series,
    hankel_moments,
    hankel_rows,
    leading_block,
    logdet_partials,
    solved,
)

SAMPLE_BLOCK = 4096
# two internal beta = 2 routes must agree this well
ROUTE_AGREEMENT = 1e-10


@dataclass(frozen=True)
class EnsembleSpec:
    """A finite-n ensemble: Dyson index, reference weight, matrix size."""

    beta: int
    weight: WeightSpec
    n: int

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise UsageError("beta must be 1, 2 or 4")
        if self.n < 1:
            raise UsageError("matrix size n must be >= 1")
        if self.weight.family not in ("gaussian", "laguerre"):
            raise UsageError(
                "ensembles support gaussian and laguerre weights only"
            )


def _gram_probability(e, E, order):
    """det of the E-restricted Gram matrix of the orthonormal polynomials.

    Over the full support the Gram matrix is the identity, so no
    normalizing integral is needed.
    """
    w, n = e.weight, e.n
    gaussian = w.family == "gaussian"
    cut = ((9.0 + n) / math.sqrt(w.b) if gaussian
           else (70.0 + 10.0 * (n + w.a)) / w.b)
    G = np.zeros((n, n))
    for lo, hi in E.intervals:
        lo, hi = max(lo, -cut if gaussian else 0.0), min(hi, cut)
        if not lo < hi:
            continue
        if lo == 0.0 and not gaussian and w.a != 0.0:
            x, wt = gauss_jacobi_rule(order, w.a, (lo, hi))
            wt = wt * np.exp(-w.b * x)
        else:
            x, wt = gauss_legendre_rule(order, (lo, hi))
            wt = wt * w.density(x)
        p = orthonormal_polys(w.recurrence(n), x)
        G += (p * wt) @ p.T
    return lu_determinant(G)


class EnsembleTau:
    """tau_n of the beta-ensemble integral over E^n for the weight w,
    evolved to its times: det of the n x n Hankel block of the moments
    (beta = 2), or pf of the leading block of the skew moments, of the
    sign-kernel pairing (beta = 1, block n, n even) or of the Wronskian
    pairing (beta = 4, block 2n).  The moments reach depth indices past
    the block, for the jets.  E = None means the weight's support.

    Every derivative is exact.  Time partials of log tau come from
    tau.dlog_block on the moment array, t_k shifting the row index by k
    with the first time weight and the column index with the second: rows
    only for Hankel moments, both indices for the skew moments, with the
    weight 1/2 at beta = 4, one weight factor per variable.  Endpoint jets
    come from the endpoint Taylor terms of the moments.  log pf is
    (1/2) log det."""

    def __init__(self, w, E, beta, n, depth=0, order=64):
        self.times = w.times
        if beta == 2:
            self.size, self._weights, self._half = n, (1.0, 0.0), 1.0
            self._det = lu_determinant
            mu = hankel_moments(w, E, M=2 * (n - 1) + depth, order=order)
            self._array = hankel_rows(mu, n)
            self._series = lambda c, sigma, degree: [
                hankel_rows(g, n)
                for g in hankel_endpoint_series(w, mu, c, sigma, degree)]
        elif beta in (1, 4):
            if beta == 1 and n % 2:
                raise UsageError("the beta = 1 Pfaffian form needs even n")
            self.size, alpha = (n, -1) if beta == 1 else (2 * n, 1)
            self._weights = (1.0, 1.0) if beta == 1 else (0.5, 0.5)
            self._det, self._half = pfaffian, 0.5
            self._array = skew_inner_products(w, E, alpha=alpha, order=order,
                                              N=(self.size + depth + 1) // 2)
            self._series = lambda c, sigma, degree: skew_endpoint_series(
                w, E, alpha, len(self._array), c, sigma, degree)
        else:
            raise UsageError("beta must be 1, 2 or 4")

    def value(self):
        # a determinant that underflows to 0 is left to the callers'
        # UnderflowError
        with np.errstate(over="ignore", divide="ignore"):
            tau = self._det(leading_block(self._array, self.size))
        if not math.isfinite(tau):
            raise DivergenceError("tau overflows: the moment block is too large")
        return tau

    def dlog(self, ks):
        """d/dt_{k_1} ... d/dt_{k_r} log tau."""
        return self._half * dlog_block(
            self._array, self.size, [(k, *self._weights) for k in ks])

    def derivative(self, ks):
        """d/dt_{k_1} ... d/dt_{k_r} tau, r <= 2."""
        value = self.value()
        if len(ks) == 2:
            i, j = ks
            return value * (self.dlog(ks) + self.dlog((i,)) * self.dlog((j,)))
        return value * self.dlog(ks) if ks else value

    def endpoint_jets(self, c, sigma, degree):
        """[D, ..., D^degree] of log tau as the finite endpoint c of E
        moves, an upper (sigma = +1) or a lower (sigma = -1) one."""
        gs = [self._array] + self._series(c, sigma, degree)
        jets = logdet_partials(
            solved(leading_block(self._array, self.size),
                   lambda r: leading_block(gs[r[0]], self.size)),
            [(r,) for r in range(1, degree + 1)])
        return [self._half * v for v in jets]


def gap_probability(e, E, order=64):
    """P_n(E) as the ratio of the taus of E and of the whole support.

    E = None means the full weight support.  At beta = 2 the Gram route
    is evaluated too and must agree to 1e-10.  A ratio that is not
    positive over a nonempty E has underflowed.
    """
    support = e.weight.support()
    E = support if E is None else E.intersect(support)
    if E.is_empty:
        return 0.0
    num, norm = (EnsembleTau(e.weight, D, e.beta, e.n, order=order).value()
                 for D in (E, None))
    if norm == 0.0:
        raise UnderflowError("the normalizing tau underflowed to 0")
    p = num / norm
    if not p > 0.0:
        raise UnderflowError(f"gap probability {p:.2e} over a nonempty set "
                             "is not positive")
    if e.beta == 2:
        gram = _gram_probability(e, E, max(order, 96))
        if abs(p - gram) > ROUTE_AGREEMENT * max(1.0, abs(p)):
            raise PrecisionError(
                "determinant routes disagree: "
                f"{p:.15e} (moment ratio) vs {gram:.15e} (gram)"
            )
    return p


# ----- Monte Carlo samplers -----

def _block_rng(seed, block):
    """The stream of draw block `block`: SFC64 seeded by the SeedSequence of
    seed with spawn key (block,), so each (seed, block) pair has its own."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        seed & 0xFFFFFFFFFFFFFFFF, spawn_key=(block,))))


def _chi_square(rng, dof, rows):
    """(rows, len(dof)) chi-square draws of the positive integer degrees
    dof, one contiguous column at a time with a scalar shape: chi^2_k =
    2 Gamma(k // 2), + N(0, 1)^2 when k is odd."""
    out = np.empty((rows, len(dof)), order="F")
    for col, k in zip(out.T, dof):
        col[:] = 2.0 * rng.standard_gamma(k // 2, rows) if k > 1 else 0.0
        if k % 2:
            col += rng.standard_normal(rows) ** 2
    return out


def _wishart_shape(beta, a, n):
    """Parameter p of the beta-Laguerre model with exponent a: the number
    of rows of the matching Wishart factor, and the top chi degree
    beta p of the bidiagonal model's diagonal."""
    if beta == 1:
        p = 2.0 * a + n + 1.0
    elif beta == 2:
        p = a + n
    else:
        p = n + 0.5 * (a - 1.0)
    rows = round(p)
    if abs(p - rows) > 1e-9 or rows < n:
        raise UsageError(
            f"laguerre sampling at beta={beta} needs a={a} to come from an "
            "integer factor shape p >= n"
        )
    return rows


def _sample_block(e, seed, block):
    """(diag, off2): the diagonals and squared off-diagonals of SAMPLE_BLOCK
    symmetric tridiagonal draws from the models of Dumitriu and Edelman
    (Matrix models for beta-ensembles, J. Math. Phys. 43, 2002), whose
    eigenvalues have the joint density |Delta|^beta prod w exactly.

    With s = 1/sqrt(2b) and k = 1..n-1: the Gaussian model has diagonal
    s N(0, 1) and off-diagonal (s/sqrt 2) chi_{beta(n-k)}; the Laguerre
    model is B B^T with B lower bidiagonal, diagonal s chi_{beta(p-k)} for
    k = 0..n-1 and subdiagonal s chi_{beta(n-k)}, p = _wishart_shape.
    """
    rng = _block_rng(seed, block)
    n, beta = e.n, e.beta
    s2 = 1.0 / (2.0 * e.weight.b)
    sub_dof = beta * np.arange(n - 1, 0, -1)
    if e.weight.family == "gaussian":
        diag = math.sqrt(s2) * rng.standard_normal((SAMPLE_BLOCK, n))
        return diag, (0.5 * s2) * _chi_square(rng, sub_dof, SAMPLE_BLOCK)
    p = _wishart_shape(beta, e.weight.a, n)
    diag = s2 * _chi_square(rng, beta * np.arange(p, p - n, -1), SAMPLE_BLOCK)
    sub = s2 * _chi_square(rng, sub_dof, SAMPLE_BLOCK)
    off2 = sub * diag[:, :-1]
    diag[:, 1:] += sub
    return diag, off2


def thread_count():
    """Worker cap: LAXLAB_THREADS if set, otherwise the number of CPUs this
    process may run on."""
    env = os.environ.get("LAXLAB_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise UsageError(f"LAXLAB_THREADS={env!r} is not an integer") from exc
        if cap < 1:
            raise UsageError("LAXLAB_THREADS must be >= 1")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_hits(diag, off2, E):
    """The number of rows of (diag, off2), the diagonals and squared
    off-diagonals of symmetric tridiagonal matrices, with every eigenvalue
    in E.

    The pieces of E are closed.  The eigenvalues of a row in [lo, hi]
    number #(<= hi) - #(< lo), where #(< lo) of T is n - #(<= -lo) of -T.
    #(<= s) is the number of LDL^T pivots of T - sI that are <= pivmin =
    tiny * max(1, max off2) per row.  As in LAPACK dstebz, a pivot in
    [-pivmin, pivmin] before a quotient is replaced by -pivmin, so a zero
    pivot counts as an eigenvalue at s and the next quotient stays finite
    (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).  One recurrence
    runs every finite endpoint at once, T - hi I and -T + lo I stacked.
    """
    n, rows = diag.shape[1], len(diag)
    hi = np.array([b for _, b in E.intervals if b < math.inf])
    lo = np.array([a for a, _ in E.intervals if a > -math.inf])
    pivmin = np.finfo(float).tiny * np.max(off2, axis=1, initial=1.0)
    # q[j, k]: pivot j of T - hi_k I, then of -T + lo_k I (lo - d is
    # -(d - lo) exactly)
    q = np.empty((n, len(hi) + len(lo), rows))
    cols = diag.T[:, None, :]
    np.subtract(cols, hi[:, None], out=q[:, :len(hi)])
    np.subtract(lo[:, None], cols, out=q[:, len(hi):])
    for j in range(1, n):
        last = q[j - 1]
        tie = np.abs(last) <= pivmin
        if tie.any():
            last = np.where(tie, -pivmin, last)
        q[j] -= off2[:, j - 1] / last
    # summed over the pieces, #(<= hi) (n at hi = inf) + #(<= -lo) of -T
    # - n (0 at lo = -inf) is n exactly when every eigenvalue is in E
    low = (q <= pivmin).sum(axis=(0, 1), dtype=np.int32)
    want = n * (1 + len(lo) + len(hi) - len(E.intervals))
    return int(np.count_nonzero(low == want))


def check_sample(e, count):
    """UsageError unless count draws of the ensemble e can be sampled."""
    if count < 1:
        raise UsageError("sample count must be >= 1")
    if e.weight.family == "laguerre":
        _wishart_shape(e.beta, e.weight.a, e.n)


def sample_ensemble(e, count, seed, E):
    """(fraction of count draws of the ensemble with every eigenvalue in E,
    binomial stderr).

    Draws come in fixed-size blocks; block i uses the stream _block_rng
    spawns from seed with key i.  Worker w of k draws blocks w, w + k, ...
    one at a time, trims the partial last one and sums their integer hit
    counts, so nothing of size count is held and the estimate is bitwise
    identical for any thread count.
    """
    check_sample(e, count)
    if E is None:
        return 1.0, 0.0
    if E.is_empty:
        return 0.0, 0.0

    blocks = (count + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK
    workers = min(thread_count(), blocks)

    def hits(first):
        total = 0
        for block in range(first, blocks, workers):
            diag, off2 = _sample_block(e, seed, block)
            rows = count - block * SAMPLE_BLOCK
            total += _block_hits(diag[:rows], off2[:rows], E)
        return total

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(hits, range(workers)))
    else:
        total = hits(0)
    frac = total / count
    stderr = math.sqrt(frac * (1.0 - frac) / count)
    return frac, stderr


def gap_log_jets(e, x, order=64):
    """Exact [D, D^2, D^3, D^4] of log P_n in x for the event max
    eigenvalue <= x: the jets of log tau_n over the support below x as
    its top endpoint x moves."""
    E = e.weight.support().intersect(IntervalUnion.half_line_below(x))
    return EnsembleTau(e.weight, E, e.beta, e.n, order=order).endpoint_jets(
        x, 1.0, 4)


def inductive_relation_residual(family, beta, n, x_grid, a=0.0, b=1.0,
                                order=64):
    """Residual of the single-boundary gap ODE (gapodes.beta_ode_residual)
    on x_grid: jets from gap_log_jets, and the inductive coupling
    P_{n-j} P_{n+j} / P_n^2 from gap_probability (j = 2 at beta = 1,
    j = 1 at beta = 4; none at beta = 2)."""
    if family == "gaussian":
        weight, lo = WeightSpec("gaussian", b=b), -math.inf
    elif family == "laguerre":
        weight, lo = WeightSpec("laguerre", a=a, b=b), 0.0
    else:
        raise UsageError(f"unknown ensemble family {family!r}")
    j = 2 if beta == 1 else 1
    out = []
    for x in np.atleast_1d(np.asarray(x_grid, dtype=float)):
        E = IntervalUnion([(lo, x)])

        def p(m):
            if m == 0:
                return 1.0
            return gap_probability(EnsembleSpec(beta, weight, m), E, order)

        e = EnsembleSpec(beta, weight, n)
        pn = gap_probability(e, E, order)
        if pn < 1e-12:
            raise UnderflowError(
                f"gap probability {pn:.2e} underflowed the usable range"
            )
        ratio = 1.0 if beta == 2 else p(n - j) * p(n + j) / pn ** 2
        d = gap_log_jets(e, x, order)
        out.append(beta_ode_residual(family, beta, n, x, d, ratio, a=a, b=b))
    return np.array(out)
