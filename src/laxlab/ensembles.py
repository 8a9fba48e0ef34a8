"""Finite-n gap probabilities and samplers for beta = 1, 2, 4 ensembles.

P_n(E) is the probability that every eigenvalue lies in E, for the joint
density proportional to |Delta(z)|^beta prod rho(z_k).  At beta = 2 it
reduces to a ratio of Hankel determinants and, independently, to the
determinant of the Gram matrix of orthonormal weighted polynomials
restricted to E; at beta = 1 (even n) and beta = 4 it is a ratio of
Pfaffians of skew moment matrices.  Monte Carlo samplers of the matching
tridiagonal beta-ensemble models provide cross-validation: the Monte
Carlo estimator draws fixed-size blocks from counter-based per-block
random streams and counts, block by block, the draws whose eigenvalues
all lie in E by Sturm inertia (the signs of the LDL^T pivots of T - sI at
each finite endpoint), so no eigensolve is needed, memory does not grow
with the sample count and the estimate is bitwise reproducible at any
thread count.
The single-boundary gap ODE takes exact x-derivatives of log P_n from
the endpoint Taylor terms of the moment block (gap_log_jets).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PrecisionError, UnderflowError, UsageError
from .fredholm import hermite_functions
from .gapodes import beta_ode_residual
from .intervals import IntervalUnion
from .mathcore import gauss_jacobi_rule, gauss_legendre_rule, lu_determinant, pfaffian
from .pfaff import skew_endpoint_series, skew_inner_products
from .tau import (
    WeightSpec,
    hankel_endpoint_series,
    hankel_moments,
    logdet_partials,
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


def _laguerre_orthonormal(n, a, b, x):
    """Rows k < n of c_k L_k^{(a)}(b x): orthonormal against x^a e^{-b x}."""
    u = b * np.asarray(x, dtype=float)
    polys = np.empty((n, len(u)))
    polys[0] = 1.0
    if n > 1:
        polys[1] = 1.0 + a - u
    for k in range(1, n - 1):
        polys[k + 1] = (
            (2.0 * k + 1.0 + a - u) * polys[k] - (k + a) * polys[k - 1]
        ) / (k + 1.0)
    for k in range(n):
        scale = 0.5 * (
            (a + 1.0) * math.log(b)
            + math.lgamma(k + 1.0)
            - math.lgamma(k + a + 1.0)
        )
        polys[k] *= math.exp(scale)
    return polys


def _gram_probability(e, E, order):
    """det of the E-restricted Gram matrix of orthonormal functions.

    Over the full support the Gram matrix is the identity, so no
    normalizing integral is needed.
    """
    w, n = e.weight, e.n
    G = np.zeros((n, n))
    if w.family == "gaussian":
        cut = (9.0 + float(n)) / math.sqrt(w.b)
        for lo, hi in E.intervals:
            lo, hi = max(lo, -cut), min(hi, cut)
            if not lo < hi:
                continue
            x, wt = gauss_legendre_rule(order, (lo, hi))
            f = hermite_functions(n, w.b, x)
            G += (f * wt) @ f.T
    else:
        cut = (70.0 + 10.0 * (n + w.a)) / w.b
        for lo, hi in E.intervals:
            lo, hi = max(lo, 0.0), min(hi, cut)
            if not lo < hi:
                continue
            if lo == 0.0 and w.a != 0.0:
                x, wt = gauss_jacobi_rule(order, w.a, (lo, hi))
            else:
                x, wt = gauss_legendre_rule(order, (lo, hi))
                wt = wt * x ** w.a
            wt = wt * np.exp(-w.b * x)
            f = _laguerre_orthonormal(n, w.a, w.b, x)
            G += (f * wt) @ f.T
    return lu_determinant(G)


def _hankel_probability(e, E, order):
    num = hankel_moments(e.weight, E, M=2 * (e.n - 1), order=order)
    den = hankel_moments(e.weight, None, M=2 * (e.n - 1), order=order)
    with np.errstate(over="ignore"):  # inf, which _ratio rejects
        return _ratio(lu_determinant(num.matrix(e.n)),
                      lu_determinant(den.matrix(e.n)))


def _ratio(num, norm):
    """num / norm, where the normalizing determinant or Pfaffian norm must
    be finite and nonzero."""
    if norm == 0.0 or not math.isfinite(norm):
        raise UnderflowError(f"normalizing constant {norm:.2e}")
    return num / norm


def _skew_shape(e):
    """(N, alpha) of the skew moments behind P_n at beta = 1 (n even) or 4."""
    if e.beta == 4:
        return e.n, 1
    if e.n % 2:
        raise UsageError(
            "beta = 1 gap probabilities need even n "
            "(the Pfaffian reduction has no odd-size form here)"
        )
    return e.n // 2, -1


def gap_probability(e, E, order=64):
    """P_n(E) by determinant (beta = 2) or Pfaffian (beta = 1, 4) ratios.

    E = None means the full weight support.  At beta = 2 the Hankel-ratio
    and Gram routes are both evaluated and must agree to 1e-10.
    """
    support = e.weight.support()
    E = support if E is None else E.intersect(support)
    if E.is_empty:
        return 0.0
    if e.beta == 2:
        hankel = _hankel_probability(e, E, order)
        gram = _gram_probability(e, E, max(order, 96))
        if abs(hankel - gram) > ROUTE_AGREEMENT * max(1.0, abs(hankel)):
            raise PrecisionError(
                "determinant routes disagree: "
                f"{hankel:.15e} (moment ratio) vs {gram:.15e} (gram)"
            )
        return hankel
    half, alpha = _skew_shape(e)
    num = skew_inner_products(e.weight, E, alpha=alpha, N=half, order=order)
    den = skew_inner_products(e.weight, None, alpha=alpha, N=half, order=order)
    return _ratio(pfaffian(num.m), pfaffian(den.m))


# ----- Monte Carlo samplers -----

def _block_rng(seed, block):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    """(diag, off) of SAMPLE_BLOCK symmetric tridiagonal draws from the
    models of Dumitriu and Edelman (Matrix models for beta-ensembles,
    J. Math. Phys. 43, 2002), whose eigenvalues have the joint density
    |Delta|^beta prod w exactly.

    With s = 1/sqrt(2b) and k = 1..n-1: the Gaussian model has diagonal
    s N(0, 1) and off-diagonal (s/sqrt 2) chi_{beta(n-k)}; the Laguerre
    model is B B^T with B lower bidiagonal, diagonal s chi_{beta(p-k)} for
    k = 0..n-1 and subdiagonal s chi_{beta(n-k)}, p = _wishart_shape.
    """
    rng = _block_rng(seed, block)
    n, beta = e.n, e.beta
    s = math.sqrt(1.0 / (2.0 * e.weight.b))
    shape = (SAMPLE_BLOCK, n - 1)
    sub_dof = beta * np.arange(n - 1, 0, -1)
    if e.weight.family == "gaussian":
        diag = s * rng.standard_normal((SAMPLE_BLOCK, n))
        off = (s / math.sqrt(2.0)) * np.sqrt(rng.chisquare(sub_dof, shape))
    else:
        p = _wishart_shape(beta, e.weight.a, n)
        d = s * np.sqrt(rng.chisquare(beta * np.arange(p, p - n, -1),
                                      (SAMPLE_BLOCK, n)))
        sub = s * np.sqrt(rng.chisquare(sub_dof, shape))
        diag = d * d
        diag[:, 1:] += sub * sub
        off = sub * d[:, :-1]
    return diag, off


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


def _count_at_most(diag, off2, s):
    """Per row, the number of eigenvalues <= s of the tridiagonal matrix
    with diagonal diag and squared off-diagonal off2: the number of LDL^T
    pivots of T - sI that are <= pivmin.  As in LAPACK dstebz, such a
    pivot is replaced by -pivmin, pivmin = tiny * max(1, max off2), so a
    zero pivot counts as an eigenvalue at s and the next quotient stays
    finite (Barth, Martin & Wilkinson, Numer. Math. 9, 1967)."""
    pivmin = np.finfo(float).tiny * np.max(off2, axis=1, initial=1.0)
    count = np.zeros(len(diag), dtype=np.int64)
    q = diag[:, 0] - s
    for j in range(diag.shape[1]):
        if j:
            q = (diag[:, j] - s) - off2[:, j - 1] / q
        low = q <= pivmin
        count += low
        q = np.where(low, np.minimum(q, -pivmin), q)
    return count


def _block_hits(diag, off, E):
    """The number of rows of (diag, off), the diagonals and off-diagonals
    of symmetric tridiagonal matrices, with every eigenvalue in E.

    The pieces of E are closed.  The eigenvalues of a row in [lo, hi]
    number #(<= hi) - #(< lo), where #(< lo) of T is n - #(<= -lo) of -T;
    both come from _count_at_most.
    """
    n = diag.shape[1]
    off2 = off ** 2
    inside = np.zeros(len(diag), dtype=np.int64)
    for a, b in E.intervals:
        inside += _count_at_most(diag, off2, b) if b < math.inf else n
        if a > -math.inf:
            inside -= n - _count_at_most(-diag, off2, -a)
    return int(np.count_nonzero(inside == n))


def check_sample(e, count):
    """UsageError unless count draws of the ensemble e can be sampled."""
    if count < 1:
        raise UsageError("sample count must be >= 1")
    if e.weight.family == "laguerre":
        _wishart_shape(e.beta, e.weight.a, e.n)


def sample_ensemble(e, count, seed, E):
    """(fraction of count draws of the ensemble with every eigenvalue in E,
    binomial stderr).

    Draws come in fixed-size blocks; block i uses the counter-based stream
    keyed by (seed, i).  Worker w of k draws blocks w, w + k, ... one at a
    time, trims the partial last one and sums their integer hit counts, so
    nothing of size count is held and the estimate is bitwise identical
    for any thread count.
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
            diag, off = _sample_block(e, seed, block)
            rows = count - block * SAMPLE_BLOCK
            total += _block_hits(diag[:rows], off[:rows], E)
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
    eigenvalue <= x: the log-det (log-Pfaffian) jets of the moment block
    over the support below x as its top endpoint x moves."""
    w = e.weight
    E = w.support().intersect(IntervalUnion.half_line_below(x))
    orders = [(1,), (2,), (3,), (4,)]
    if e.beta == 2:
        m = hankel_moments(w, E, M=2 * (e.n - 1), order=order)
        gs = [m] + hankel_endpoint_series(m, x, 1.0, 4)
        return logdet_partials(m.matrix(e.n),
                               lambda r: gs[r[0]].matrix(e.n), orders)
    half, alpha = _skew_shape(e)
    m = skew_inner_products(w, E, alpha=alpha, N=half, order=order)
    gs = [m] + skew_endpoint_series(m, x, 1.0, 4)
    return [0.5 * v for v in logdet_partials(m.m, lambda r: gs[r[0]].m, orders)]


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
