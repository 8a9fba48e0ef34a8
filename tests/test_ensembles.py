import math
import os

import numpy as np
import pytest

from laxlab.ensembles import (
    EnsembleSpec,
    SampleBatch,
    empirical_gap,
    gap_probability,
    inductive_relation_residual,
    sample_ensemble,
)
from laxlab.errors import UsageError
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import gauss_legendre_rule
from laxlab.tau import WeightSpec

GAUSSIAN = WeightSpec("gaussian")
LAGUERRE = WeightSpec("laguerre", a=1.0, b=1.0)


def below(x):
    return IntervalUnion.half_line_below(x)


# ----- oracles: direct low-dimensional quadrature -----

def quad_1d(w, hi, power=0.0, order=160):
    lo = 1e-12 if w.family == "laguerre" else -9.0 / math.sqrt(w.b)
    if math.isinf(hi):
        hi = 70.0 / w.b if w.family == "laguerre" else -lo
    x, wt = gauss_legendre_rule(order, (lo, hi))
    return float(np.dot(wt * w.density(x), np.abs(x) ** power))


def gap_2d_oracle(w, beta, hi, order=140):
    """P_2 by direct 2-D quadrature of |x - y|^beta rho(x) rho(y), written
    as an iterated integral over the ordered region x > y (so odd beta
    never crosses the kink of |x - y|)."""
    lo = 1e-12 if w.family == "laguerre" else -9.0 / math.sqrt(w.b)
    full_hi = 70.0 / w.b if w.family == "laguerre" else -lo

    def ordered(b_end):
        x, wx = gauss_legendre_rule(order, (lo, b_end))
        total = 0.0
        for xi, wxi in zip(x, wx):
            y, wy = gauss_legendre_rule(order, (lo, xi))
            inner = float(np.dot(wy * w.density(y), (xi - y) ** beta))
            total += wxi * float(w.density(np.array([xi]))[0]) * inner
        return total

    return ordered(hi) / ordered(full_hi)


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ----- gap probabilities -----

def test_gap_full_range_is_one():
    for beta, n in ((1, 2), (2, 3), (4, 2)):
        e = EnsembleSpec(beta, GAUSSIAN, n)
        assert gap_probability(e, None) == 1.0
        assert gap_probability(e, IntervalUnion.full_line()) == 1.0


def test_gap_beta2_n1_half_line_symmetry():
    e = EnsembleSpec(2, GAUSSIAN, 1)
    assert gap_probability(e, below(0.0)) == pytest.approx(0.5, abs=1e-12)


def test_gap_beta2_n2_matches_2d_quadrature():
    e = EnsembleSpec(2, GAUSSIAN, 2)
    want = gap_2d_oracle(GAUSSIAN, 2, 0.0)
    assert gap_probability(e, below(0.0)) == pytest.approx(want, abs=1e-8)


def test_gap_beta1_n2_matches_2d_quadrature():
    e = EnsembleSpec(1, GAUSSIAN, 2)
    for hi in (0.0, 0.7):
        want = gap_2d_oracle(GAUSSIAN, 1, hi)
        assert gap_probability(e, below(hi)) == pytest.approx(want, abs=1e-8)


def test_gap_beta4_n1_matches_1d_quadrature():
    e = EnsembleSpec(4, GAUSSIAN, 1)
    want = quad_1d(GAUSSIAN, 0.4) / quad_1d(GAUSSIAN, math.inf)
    assert gap_probability(e, below(0.4)) == pytest.approx(want, abs=1e-10)


def test_gap_beta2_laguerre_n1_matches_1d_quadrature():
    e = EnsembleSpec(2, LAGUERRE, 1)
    E = IntervalUnion([(0.0, 2.0)])
    want = quad_1d(LAGUERRE, 2.0) / quad_1d(LAGUERRE, math.inf)
    assert gap_probability(e, E) == pytest.approx(want, abs=1e-9)


def test_gap_beta2_laguerre_n2_routes_and_monotone():
    e = EnsembleSpec(2, LAGUERRE, 2)
    vals = [gap_probability(e, IntervalUnion([(0.0, x)])) for x in (2.0, 4.0, 8.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_gap_bounds_and_monotone_gaussian():
    e = EnsembleSpec(2, GAUSSIAN, 3)
    vals = [gap_probability(e, below(x)) for x in (-1.0, 0.0, 1.0, 3.0)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals == sorted(vals)


def test_gap_empty_set_is_zero():
    e = EnsembleSpec(2, LAGUERRE, 2)
    assert gap_probability(e, IntervalUnion([(-3.0, -1.0)])) == 0.0


def test_gap_validation():
    with pytest.raises(UsageError):
        EnsembleSpec(3, GAUSSIAN, 2)
    with pytest.raises(UsageError):
        EnsembleSpec(2, WeightSpec("uniform"), 2)
    with pytest.raises(UsageError):
        gap_probability(EnsembleSpec(1, GAUSSIAN, 3), below(0.0))


# ----- samplers -----

def test_sampling_is_reproducible():
    e = EnsembleSpec(2, GAUSSIAN, 2)
    one = sample_ensemble(e, 5000, seed=42)
    two = sample_ensemble(e, 5000, seed=42)
    assert np.array_equal(one.eigenvalues, two.eigenvalues)
    prev = os.environ.get("LAXLAB_THREADS")
    try:
        os.environ["LAXLAB_THREADS"] = "1"
        serial = sample_ensemble(e, 5000, seed=42)
        os.environ["LAXLAB_THREADS"] = "3"
        threaded = sample_ensemble(e, 5000, seed=42)
    finally:
        if prev is None:
            os.environ.pop("LAXLAB_THREADS", None)
        else:
            os.environ["LAXLAB_THREADS"] = prev
    assert np.array_equal(serial.eigenvalues, threaded.eigenvalues)
    # prefixes agree with larger batches (per-block streams)
    big = sample_ensemble(e, 6000, seed=42)
    assert np.array_equal(big.eigenvalues[:5000], one.eigenvalues)


def test_sample_beta2_n1_moments():
    b = 2.0
    e = EnsembleSpec(2, WeightSpec("gaussian", b=b), 1)
    batch = sample_ensemble(e, 200_000, seed=11)
    z = batch.eigenvalues[:, 0]
    mean_abs = 1.0 / math.sqrt(math.pi * b)
    sigma = z.std() / math.sqrt(len(z))
    assert abs(np.abs(z).mean() - mean_abs) < 3.0 * sigma


def test_sample_gse_shape_and_scale():
    e = EnsembleSpec(4, GAUSSIAN, 2)
    batch = sample_ensemble(e, 2000, seed=3)
    assert batch.eigenvalues.shape == (2000, 2)
    assert np.all(np.diff(batch.eigenvalues, axis=1) >= 0.0)
    # beta = 4, n = 1 is a plain e^{-b z^2} scalar: check the scale
    one = sample_ensemble(EnsembleSpec(4, GAUSSIAN, 1), 200_000, seed=5)
    z = one.eigenvalues[:, 0]
    assert abs(z.var() - 0.5) < 0.01  # var = 1/(2b), b = 1


def within_four_stderr(values, want):
    stderr = values.std() / math.sqrt(len(values))
    return abs(values.mean() - want) < 4.0 * stderr


def test_sample_gaussian_second_moment_all_betas():
    # density |Delta|^beta prod e^{-b z^2}: E sum z^2 = (n/2b)(1 + beta(n-1)/2)
    b = 2.0
    for beta in (1, 2, 4):
        for n in (1, 2, 3):
            e = EnsembleSpec(beta, WeightSpec("gaussian", b=b), n)
            z = sample_ensemble(e, 20_000, seed=61).eigenvalues
            want = n / (2.0 * b) * (1.0 + beta * (n - 1) / 2.0)
            assert within_four_stderr((z * z).sum(axis=1), want), (beta, n)


def test_sample_laguerre_first_moment_all_betas():
    # density |Delta|^beta prod z^a e^{-b z}: E sum z = n(a + 1 + beta(n-1)/2)/b
    a, b = 1.0, 0.5
    for beta in (1, 2, 4):
        for n in (1, 2, 3):
            e = EnsembleSpec(beta, WeightSpec("laguerre", a=a, b=b), n)
            z = sample_ensemble(e, 20_000, seed=62).eigenvalues
            want = n * (a + 1.0 + beta * (n - 1) / 2.0) / b
            assert within_four_stderr(z.sum(axis=1), want), (beta, n)


def test_sample_laguerre_constraints():
    with pytest.raises(UsageError):
        sample_ensemble(EnsembleSpec(1, WeightSpec("laguerre", a=0.3), 2), 10, 0)
    with pytest.raises(UsageError):
        sample_ensemble(EnsembleSpec(2, WeightSpec("laguerre", a=0.5), 2), 10, 0)


def test_empirical_gap_trivial():
    batch = sample_ensemble(EnsembleSpec(2, GAUSSIAN, 2), 100, seed=1)
    assert empirical_gap(batch, None) == (1.0, 0.0)
    assert empirical_gap(batch, IntervalUnion.full_line()) == (1.0, 0.0)
    empty = IntervalUnion.full_line().intersect(IntervalUnion([(1.0, 2.0)])).intersect(
        IntervalUnion([(3.0, 4.0)])
    )
    assert empirical_gap(batch, empty) == (0.0, 0.0)


def mc_vs_quadrature(e, E, count, seed):
    frac, err = empirical_gap(sample_ensemble(e, count, seed), E)
    exact = gap_probability(e, E)
    return abs(frac - exact), max(err, math.sqrt(exact * (1 - exact) / count))


def test_mc_matches_quadrature_gaussian():
    for beta, seed in ((1, 21), (2, 22), (4, 23)):
        e = EnsembleSpec(beta, GAUSSIAN, 2)
        diff, sigma = mc_vs_quadrature(e, below(0.3), 120_000, seed)
        assert diff < 3.0 * sigma


def test_mc_matches_quadrature_laguerre():
    for beta, a, seed in ((1, 0.5, 31), (2, 1.0, 32), (4, 1.0, 33)):
        e = EnsembleSpec(beta, WeightSpec("laguerre", a=a, b=1.0), 2)
        diff, sigma = mc_vs_quadrature(
            e, IntervalUnion([(0.0, 3.0)]), 120_000, seed
        )
        assert diff < 3.0 * sigma


# ----- inductive gap relations -----

def test_inductive_beta1_gaussian():
    res = inductive_relation_residual("gaussian", 1, 2, [-1.0, 0.5, 1.5])
    assert np.abs(res).max() < 1e-4


def test_inductive_beta4_gaussian():
    res = inductive_relation_residual("gaussian", 4, 1, [-1.0, 0.5, 1.5])
    assert np.abs(res).max() < 1e-4


def test_inductive_beta2_needs_no_companions():
    res = inductive_relation_residual("gaussian", 2, 2, [-1.0, 0.0, 1.0])
    assert np.abs(res).max() < 1e-5


def test_inductive_rejects_multi_interval():
    with pytest.raises(UsageError):
        inductive_relation_residual(
            "gaussian", 1, 2, [0.0], E=IntervalUnion([(0.0, 1.0)])
        )
