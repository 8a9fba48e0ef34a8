import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from laxlab.ensembles import (
    SAMPLE_BLOCK,
    EnsembleSpec,
    EnsembleTau,
    _block_hits,
    _block_rng,
    _chi_square,
    _sample_block,
    gap_log_jets,
    gap_probability,
    inductive_relation_residual,
    sample_ensemble,
    thread_count,
)
from laxlab.errors import SingularTauError, UnderflowError, UsageError
from laxlab.fd import central_diff
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import gauss_legendre_rule
from laxlab.tau import WeightSpec
from sample_reference import dense_draws, eigenvalue_hits, eigenvalues

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


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("w, lo, hi", [(GAUSSIAN, -0.5, 1.5),
                                       (LAGUERRE, 0.5, 3.0)])
def test_lower_endpoint_jets_match_central_differences(beta, w, lo, hi):
    # no command moves a lower endpoint of E through the tau's jets; the
    # upper endpoint hi stays where it is
    def tau(d):
        return EnsembleTau(w, IntervalUnion([(lo + d, hi)]), beta, 2,
                           order=96)

    exact = tau(0.0).endpoint_jets(lo, -1.0, 4)
    log_tau = lambda d: math.log(tau(d).value())
    # the steps widen with the order; the bounds mostly hold the
    # truncation of the fourth-order stencil
    for (r, h), tol, e in zip(((1, 1e-2), (2, 1e-2), (3, 2e-2), (4, 4e-2)),
                              (1e-8, 1e-7, 1e-5, 1e-4), exact):
        fd = central_diff(log_tau, r, h)
        assert abs(e - fd) <= tol * max(1.0, abs(fd)), (r, e, fd)


def test_endpoint_jets_of_a_singular_block_raise():
    # the 16 x 16 Hankel block on (-inf, 0.5] is singular to working
    # precision: its time partials raise, and so must its endpoint jets,
    # where a solve against it returned finite noise
    tau = EnsembleTau(GAUSSIAN, below(0.5), 2, 16, depth=2)
    with pytest.raises(SingularTauError):
        tau.dlog([(1,)])
    with pytest.raises(SingularTauError):
        tau.endpoint_jets(0.5, 1.0, 2)


# ----- samplers -----

def test_sampling_is_reproducible(monkeypatch):
    e = EnsembleSpec(2, GAUSSIAN, 2)
    E = below(0.0)
    one = _sample_block(e, 42, 1)
    two = _sample_block(e, 42, 1)
    assert all(np.array_equal(a, b) for a, b in zip(one, two))
    assert sample_ensemble(e, 5000, 42, E) == sample_ensemble(e, 5000, 42, E)
    monkeypatch.setenv("LAXLAB_THREADS", "1")
    serial = sample_ensemble(e, 5000, 42, E)
    monkeypatch.setenv("LAXLAB_THREADS", "3")
    assert sample_ensemble(e, 5000, 42, E) == serial
    # prefixes agree with larger batches (per-block streams)
    diag, off = dense_draws(e, 6000, 42)
    assert np.array_equal(dense_draws(e, 5000, 42)[0], diag[:5000])
    assert serial[0] == eigenvalue_hits(diag[:5000], off[:5000], E) / 5000


def test_threaded_estimate_matches_serial_and_dense(monkeypatch):
    # more workers than cores, switching threads often, and a partial
    # last block: the hit count must not depend on the schedule, and must
    # be the dense eigenvalue count on the same draws
    e = EnsembleSpec(1, LAGUERRE, 3)
    count, E = 9 * 4096 + 17, IntervalUnion([(0.5, 10.0)])
    monkeypatch.setenv("LAXLAB_THREADS", "1")
    serial = sample_ensemble(e, count, 8, E)
    monkeypatch.setenv("LAXLAB_THREADS", "8")
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        threaded = sample_ensemble(e, count, 8, E)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    hits = eigenvalue_hits(*dense_draws(e, count, 8), E)
    assert 0 < hits < count
    assert serial[0] == hits / count


def test_estimator_memory_does_not_grow_with_count(monkeypatch):
    # the 64 blocks' draws alone would take 64 * 4096 * 3 * 8 B = 6 MiB
    monkeypatch.setenv("LAXLAB_THREADS", "2")
    e = EnsembleSpec(2, GAUSSIAN, 2)
    tracemalloc.start()
    try:
        sample_ensemble(e, 64 * SAMPLE_BLOCK, 4, below(0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_thread_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("LAXLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
        assert thread_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert thread_count() == 1
    monkeypatch.setenv("LAXLAB_THREADS", "5")
    assert thread_count() == 5
    for bad in ("0", "two"):
        monkeypatch.setenv("LAXLAB_THREADS", bad)
        with pytest.raises(UsageError):
            thread_count()


def test_sample_beta2_n1_moments():
    b = 2.0
    e = EnsembleSpec(2, WeightSpec("gaussian", b=b), 1)
    z = eigenvalues(*dense_draws(e, 200_000, 11))[:, 0]
    mean_abs = 1.0 / math.sqrt(math.pi * b)
    sigma = z.std() / math.sqrt(len(z))
    assert abs(np.abs(z).mean() - mean_abs) < 3.0 * sigma


def test_sample_gse_shape_and_scale():
    e = EnsembleSpec(4, GAUSSIAN, 2)
    eigs = eigenvalues(*dense_draws(e, 2000, 3))
    assert eigs.shape == (2000, 2)
    assert np.all(np.diff(eigs, axis=1) >= 0.0)
    # beta = 4, n = 1 is a plain e^{-b z^2} scalar: check the scale
    one = EnsembleSpec(4, GAUSSIAN, 1)
    z = eigenvalues(*dense_draws(one, 200_000, 5))[:, 0]
    assert abs(z.var() - 0.5) < 0.01  # var = 1/(2b), b = 1


def within_four_stderr(values, want):
    stderr = values.std() / math.sqrt(len(values))
    return abs(values.mean() - want) < 4.0 * stderr


def test_chi_square_by_integer_degree():
    # chi^2_k has mean k and variance 2k, odd k included
    draws = _chi_square(_block_rng(17, 0), np.arange(1, 9), 200_000)
    for k, col in enumerate(draws.T, start=1):
        assert within_four_stderr(col, k), k
        assert within_four_stderr((col - k) ** 2, 2.0 * k), k
    # an even degree is 2 Gamma(k / 2), numpy's own chi-square, to the bit
    for k in (2, 4, 6, 8):
        ours, numpys = _block_rng(17, k), _block_rng(17, k)
        assert np.array_equal(_chi_square(ours, [k], 1000)[:, 0],
                              numpys.chisquare(k, 1000)), k


def test_sample_gaussian_second_moment_all_betas():
    # density |Delta|^beta prod e^{-b z^2}: E sum z^2 = (n/2b)(1 + beta(n-1)/2)
    b = 2.0
    for beta in (1, 2, 4):
        for n in (1, 2, 3):
            e = EnsembleSpec(beta, WeightSpec("gaussian", b=b), n)
            z = eigenvalues(*dense_draws(e, 20_000, 61))
            want = n / (2.0 * b) * (1.0 + beta * (n - 1) / 2.0)
            assert within_four_stderr((z * z).sum(axis=1), want), (beta, n)


def test_sample_laguerre_first_moment_all_betas():
    # density |Delta|^beta prod z^a e^{-b z}: E sum z = n(a + 1 + beta(n-1)/2)/b
    a, b = 1.0, 0.5
    for beta in (1, 2, 4):
        for n in (1, 2, 3):
            e = EnsembleSpec(beta, WeightSpec("laguerre", a=a, b=b), n)
            z = eigenvalues(*dense_draws(e, 20_000, 62))
            want = n * (a + 1.0 + beta * (n - 1) / 2.0) / b
            assert within_four_stderr(z.sum(axis=1), want), (beta, n)


def test_sample_laguerre_constraints():
    empty = IntervalUnion([(1.0, 2.0)]).intersect(IntervalUnion([(3.0, 4.0)]))
    for beta, a in ((1, 0.3), (2, 0.5)):
        e = EnsembleSpec(beta, WeightSpec("laguerre", a=a), 2)
        with pytest.raises(UsageError):
            dense_draws(e, 10, 0)
        # the shape is checked before the estimator's early returns
        for E in (None, empty, IntervalUnion([(0.0, 3.0)])):
            with pytest.raises(UsageError):
                sample_ensemble(e, 10, 0, E)


def test_empirical_gap_trivial():
    e = EnsembleSpec(2, GAUSSIAN, 2)
    assert sample_ensemble(e, 100, 1, None) == (1.0, 0.0)
    assert sample_ensemble(e, 100, 1, IntervalUnion.full_line()) == (1.0, 0.0)
    empty = IntervalUnion.full_line().intersect(IntervalUnion([(1.0, 2.0)])).intersect(
        IntervalUnion([(3.0, 4.0)])
    )
    assert sample_ensemble(e, 100, 1, empty) == (0.0, 0.0)
    for count in (0, -1):
        with pytest.raises(UsageError):
            sample_ensemble(e, count, 1, None)


def draws_of(diag, off):
    diag = np.array(diag, dtype=float)
    return diag, np.array(off, dtype=float).reshape(len(diag), -1)


ENTRY = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def tridiagonals_and_unions(draw):
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 8))
    diag = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                         min_size=rows, max_size=rows))
    off = draw(st.lists(st.lists(ENTRY, min_size=n - 1, max_size=n - 1),
                        min_size=rows, max_size=rows))
    ends = sorted(set(draw(st.lists(st.floats(-4.0, 4.0), min_size=2,
                                    max_size=6))))
    assume(len(ends) >= 2)
    ends = ends[: len(ends) // 2 * 2]
    if draw(st.booleans()):
        ends[0] = -math.inf
    if draw(st.booleans()):
        ends[-1] = math.inf
    pieces = list(zip(ends[::2], ends[1::2]))
    return draws_of(diag, off), IntervalUnion(pieces)


@settings(max_examples=200, deadline=None)
@given(tridiagonals_and_unions())
def test_sturm_counts_match_eigenvalue_counts(case):
    (diag, off), E = case
    finite = [x for piece in E.intervals for x in piece if math.isfinite(x)]
    # an eigenvalue within rounding of an endpoint is a tie, which the
    # eigenvalue route cannot resolve; the exact ties are tested below
    gaps = np.abs(eigenvalues(diag, off)[..., None] - np.array(finite))
    assume(gaps.size == 0 or gaps.min() > 1e-9)
    assert _block_hits(diag, off ** 2, E) == eigenvalue_hits(diag, off, E)


def test_sturm_counts_close_intervals_at_exact_ties():
    def hit_fraction(draws, text):
        diag, off = draws
        return _block_hits(diag, off ** 2, IntervalUnion.parse(text)) / len(diag)

    # eigenvalues 0 and 2: the last pivot of T - sI is 0 at s = 0 and 2
    two = draws_of([[1.0, 1.0]], [[1.0]])
    for text, want in (("0:2", 1.0), ("-1:0,2:3", 1.0), ("-inf:0,2:inf", 1.0),
                       ("0:1.5", 0.0), ("0.5:2", 0.0), ("-inf:0", 0.0)):
        assert hit_fraction(two, text) == want, text
    # n = 1 draws on an endpoint
    one = draws_of([[0.5], [0.5]], [[], []])
    for text, want in (("0.5:1", 1.0), ("-1:0.5", 1.0), ("0.6:1", 0.0),
                       ("-1:0.4", 0.0)):
        assert hit_fraction(one, text) == want, text
    # eigenvalues 1 - sqrt 2, 1, 1 + sqrt 2; at s = 0 the middle pivot of
    # T - sI (and of -T + sI) is 0
    three = draws_of([[1.0, 1.0, 1.0]], [[1.0, 1.0]])
    for text, want in (("0:3", 0.0), ("-1:3", 1.0), ("-inf:0,0.5:3", 1.0),
                       ("-1:0", 0.0)):
        assert hit_fraction(three, text) == want, text


def mc_vs_quadrature(e, E, count, seed):
    frac, err = sample_ensemble(e, count, seed, E)
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



@pytest.mark.parametrize("beta", [1, 2, 4])
def test_singular_moment_block_is_a_numerical_error(beta):
    # below x = -40 every moment underflows, so the block G_0 is zero
    e = EnsembleSpec(beta, WeightSpec("gaussian"), 2)
    with pytest.raises(SingularTauError):
        gap_log_jets(e, -40.0)
    with pytest.raises(UnderflowError):
        inductive_relation_residual("gaussian", beta, 2, [-40.0])
