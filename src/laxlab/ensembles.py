"""Finite-n gap probabilities and samplers for beta = 1, 2, 4 ensembles.

P_n(E) is the probability that every eigenvalue lies in E, for the joint
density proportional to |Delta(z)|^beta prod rho(z_k).  At beta = 2 it
reduces to a ratio of Hankel determinants and, independently, to the
determinant of the Gram matrix of orthonormal weighted polynomials
restricted to E; at beta = 1 (even n) and beta = 4 it is a ratio of
Pfaffians of skew moment matrices.  Monte Carlo samplers of the matching
tridiagonal beta-ensemble models provide cross-validation; sampling is
blocked with counter-based per-block random streams so batches are
bitwise reproducible at any thread count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionError, UsageError
from .fredholm import hermite_functions
from .gapodes import beta_ode_residual
from .intervals import IntervalUnion
from .mathcore import gauss_jacobi_rule, gauss_legendre_rule, lu_determinant, pfaffian
from .pfaff import skew_inner_products
from .tau import WeightSpec, hankel_moments

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


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Sorted eigenvalue tuples, reproducible from (seed, index) alone."""

    seed: int
    count: int
    eigenvalues: np.ndarray = field(repr=False)


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
    return lu_determinant(num.matrix(e.n)) / lu_determinant(den.matrix(e.n))


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
    if e.beta == 1:
        if e.n % 2:
            raise UsageError(
                "beta = 1 gap probabilities need even n "
                "(the Pfaffian reduction has no odd-size form here)"
            )
        half, alpha = e.n // 2, -1
    else:
        half, alpha = e.n, 1
    num = skew_inner_products(e.weight, E, alpha=alpha, N=half, order=order)
    den = skew_inner_products(e.weight, None, alpha=alpha, N=half, order=order)
    return pfaffian(num.m) / pfaffian(den.m)


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
    """SAMPLE_BLOCK sorted eigenvalue tuples from the tridiagonal models of
    Dumitriu and Edelman (Matrix models for beta-ensembles, J. Math. Phys.
    43, 2002), which have the joint density |Delta|^beta prod w exactly.

    With s = 1/sqrt(2b) and k = 1..n-1: the Gaussian model has diagonal
    s N(0, 1) and off-diagonal (s/sqrt 2) chi_{beta(n-k)}; the Laguerre
    model is B B^T with B lower bidiagonal, diagonal s chi_{beta(p-k)} for
    k = 0..n-1 and subdiagonal s chi_{beta(n-k)}, p = _wishart_shape.
    Every beta costs one real symmetric eigensolve per draw.
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
    i = np.arange(n)
    mats = np.zeros((SAMPLE_BLOCK, n, n))
    mats[:, i, i] = diag
    mats[:, i[1:], i[:-1]] = off
    mats[:, i[:-1], i[1:]] = off
    return np.linalg.eigvalsh(mats)


def thread_count():
    """Worker cap: LAXLAB_THREADS if set, otherwise the hardware count."""
    env = os.environ.get("LAXLAB_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise UsageError(f"LAXLAB_THREADS={env!r} is not an integer") from exc
        if cap < 1:
            raise UsageError("LAXLAB_THREADS must be >= 1")
        return cap
    return os.cpu_count() or 1


def sample_ensemble(e, count, seed):
    """Eigenvalue batch from tridiagonal random matrices of the ensemble.

    Samples are produced in fixed-size blocks; block i uses the
    counter-based stream keyed by (seed, i), so the batch is bitwise
    identical for any thread count and any larger requested count.
    """
    if count < 1:
        raise UsageError("sample count must be >= 1")
    blocks = range((count + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK)
    workers = min(thread_count(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda i: _sample_block(e, seed, i), blocks))
    else:
        parts = [_sample_block(e, seed, i) for i in blocks]
    eigs = np.concatenate(parts, axis=0)[:count]
    return SampleBatch(seed=seed, count=count, eigenvalues=eigs)


def empirical_gap(batch, E):
    """(fraction of samples with every eigenvalue in E, binomial stderr)."""
    if batch.count < 1:
        raise UsageError("empirical_gap needs a nonempty batch")
    eigs = batch.eigenvalues
    if E is None:
        return 1.0, 0.0
    if E.is_empty:
        return 0.0, 0.0
    inside = np.zeros(eigs.shape, dtype=bool)
    for lo, hi in E.intervals:
        inside |= (eigs >= lo) & (eigs <= hi)
    frac = float(inside.all(axis=1).mean())
    stderr = math.sqrt(frac * (1.0 - frac) / batch.count)
    return frac, stderr


def inductive_relation_residual(
    family, beta, n, x_grid, a=0.0, b=1.0, order=64, E=None
):
    """Residual of the single-boundary gap ODE with the inductive
    P_{n-j} P_{n+j} / P_n^2 coupling supplied by gap_probability
    (j = 2 at beta = 1, j = 1 at beta = 4; the coupling vanishes at
    beta = 2).  The differential part is delegated to gapodes.
    """
    if E is not None:
        raise UsageError(
            "only the single-boundary gap (all eigenvalues below x) "
            "is supported; pass the boundary points through x_grid"
        )
    if family == "gaussian":
        weight, lo = WeightSpec("gaussian", b=b), -math.inf
    elif family == "laguerre":
        weight, lo = WeightSpec("laguerre", a=a, b=b), 0.0
    else:
        raise UsageError(f"unknown ensemble family {family!r}")
    cache = {}

    def p(m, x):
        if m == 0:
            return 1.0
        key = (m, x)
        if key not in cache:
            cache[key] = gap_probability(
                EnsembleSpec(beta, weight, m),
                IntervalUnion([(lo, x)]),
                order=order,
            )
        return cache[key]

    return beta_ode_residual(family, beta, n, x_grid, p, a=a, b=b)
