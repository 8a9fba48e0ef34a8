import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolution_reference import (
    reference_evolution,
    reference_hankel,
    reference_shift_coefficients,
    shift_depth,
)
from laxlab.errors import DepthError, DivergenceError
from laxlab.fd import central_diff
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import lu_determinant
from laxlab.pfaff import skew_inner_products
from laxlab.tau import (
    WeightSpec,
    dlog_block,
    evolution_coefficients,
    hankel_endpoint_series,
    hankel_moments,
    hankel_rows,
    kp_residual,
    leading_block,
    logdet_partials,
    solved,
)
from laxlab.twotoda import bimoments


# ----- oracles -----

def hankel_block(mu, n):
    """The n x n Hankel block mu_{i+j} of the moments mu."""
    return leading_block(hankel_rows(mu, n), n)


def gaussian_moment_oracle(m, b=1.0):
    """Closed form int z^m e^{-b z^2} dz over R via the Gamma function."""
    if m % 2:
        return 0.0
    return math.gamma((m + 1) / 2.0) / b ** ((m + 1) / 2.0)


def mc_tau3_oracle(b, rng, count=200_000):
    """Monte Carlo of (1/3!) int Delta(z)^2 prod e^{-b z_k^2} dz."""
    sigma = 1.0 / math.sqrt(2.0 * b)
    z = rng.normal(scale=sigma, size=(count, 3))
    delta2 = (
        (z[:, 0] - z[:, 1]) * (z[:, 0] - z[:, 2]) * (z[:, 1] - z[:, 2])
    ) ** 2
    # importance weights: density of z is prod N(0, sigma); e^{-b z^2} =
    # sqrt(2 pi sigma^2) * N-density per coordinate
    norm = (math.sqrt(2.0 * math.pi) * sigma) ** 3
    vals = delta2 * norm
    est = vals.mean() / 6.0
    err = vals.std(ddof=1) / math.sqrt(count) / 6.0
    return est, err


def uniform_weight():
    return WeightSpec("uniform")


def gaussian_weight(b=1.0):
    return WeightSpec("gaussian", b=b)


# ----- moments -----

def test_uniform_moments_closed_form():
    m = hankel_moments(uniform_weight(), M=4)
    assert np.allclose(m, [1.0 / (k + 1) for k in range(5)], atol=1e-14)


def test_gaussian_odd_moment_vanishes():
    m = hankel_moments(gaussian_weight(), M=4)
    assert abs(m[1]) < 1e-14


def test_gaussian_moments_match_gamma_oracle():
    m = hankel_moments(gaussian_weight(), M=10)
    for k in range(11):
        assert m[k] == pytest.approx(gaussian_moment_oracle(k), abs=1e-12)


def test_divergent_moment_rejected():
    with pytest.raises(DivergenceError):
        hankel_moments(
            WeightSpec("custom", func=lambda z: np.ones_like(z)),
            E=IntervalUnion.full_line(),
            M=2,
        )


# ----- evolution -----

def test_evolve_zero_is_identity():
    m = hankel_moments(uniform_weight(), M=10)
    m2 = hankel_moments(WeightSpec("uniform", times=[0.0, 0.0]), M=10)
    assert np.array_equal(m, m2)


def test_evolve_t1_matches_quadrature():
    s = 0.05
    evolved = hankel_moments(WeightSpec("uniform", times=[s]), M=10)
    # direct quadrature of e^{s z} on [0,1]
    shifted = hankel_moments(
        WeightSpec("custom", func=lambda z: np.exp(s * z),
                   custom_support=IntervalUnion([(0.0, 1.0)])),
        E=IntervalUnion([(0.0, 1.0)]),
        M=10,
    )
    assert np.abs(evolved - shifted).max() < 1e-10


def test_evolution_semigroup():
    t1 = np.array([0.03, -0.02])
    t2 = np.array([-0.01, 0.04])
    # the weight evolved by t1, then evolved by t2
    first = WeightSpec("uniform", times=t1)
    a = hankel_moments(WeightSpec("custom", func=first.density,
                                  custom_support=first.support(), times=t2),
                       M=30)
    b = hankel_moments(WeightSpec("uniform", times=t1 + t2), M=30)
    assert np.abs(a - b).max() < 1e-12


TIMES = st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                 min_size=0, max_size=4)


@settings(max_examples=200, deadline=None)
@given(TIMES)
def test_evolution_coefficients_match_the_reference(t):
    c = evolution_coefficients(t)
    assert len(c) == shift_depth(t) + 1
    ref = reference_shift_coefficients(t, shift_depth(t))
    assert np.abs(c - ref).max() <= 1e-15 * np.abs(ref).max()


EVOLVED_WEIGHTS = [
    (WeightSpec("gaussian"), None),
    (WeightSpec("uniform"), None),
    (WeightSpec("laguerre", a=1.0), IntervalUnion([(0.0, 2.5)])),
    (WeightSpec("gaussian"), IntervalUnion([(-math.inf, -0.5), (0.3, 1.2)])),
]
EVOLUTION_TIMES = ([0.3], [0.1, -0.2], [-0.05, 0.0, 0.07])


def evolved(w, t):
    return WeightSpec(w.family, a=w.a, b=w.b, times=t)


def assert_close(got, want, rel=1e-11):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def test_evolve_hankel_matches_the_reference():
    # the moments of the evolved weight against the shift series on deep
    # moments of the weight itself
    for (w, E), t in itertools.product(EVOLVED_WEIGHTS, EVOLUTION_TIMES):
        deep = hankel_moments(w, E, M=20 + shift_depth(t))
        got = hankel_moments(evolved(w, t), E, M=20)
        assert_close(got, reference_hankel(deep, t))


def test_evolve_skew_matches_the_reference():
    for (w, E), t in itertools.product(EVOLVED_WEIGHTS, EVOLUTION_TIMES[:2]):
        # the eps-pairing moves by t on both indices
        deep = skew_inner_products(w, E, alpha=-1, N=6 + shift_depth(t) // 2)
        got = skew_inner_products(evolved(w, t), E, alpha=-1, N=6)
        assert_close(got, reference_evolution(deep, t, t))
        # the Wronskian pairing (j - i) r_{i+j-1} carries one weight factor:
        # r_k = m_{0,k+1} / (k + 1) moves as a Hankel sequence
        deep = skew_inner_products(w, E, alpha=1, N=12 + shift_depth(t) // 2)
        r = reference_hankel(deep[0, 1:] / np.arange(1, len(deep)), t)
        i = np.arange(12)
        want = (i - i[:, None]) * r[np.maximum(np.add.outer(i, i) - 1, 0)]
        got = skew_inner_products(evolved(w, t), E, alpha=1, N=6)
        assert_close(got, want)


def test_evolve_bimoments_matches_the_reference():
    E = (IntervalUnion.full_line(), IntervalUnion.half_line_below(0.4))
    for c in (0.5, -0.4):
        for t, s in (([0.3], [0.1]), ([0.1, -0.2], [0.05]), ([0.2], ())):
            deep = bimoments(c, E, N=8 + max(shift_depth(t), shift_depth(s)))
            neg = [-v for v in s]
            want = reference_evolution(deep, t, neg)[:8, :8]
            assert_close(bimoments(c, E, N=8, t=t, s=s), want)


def test_evolved_endpoint_series_match_the_reference():
    # the Taylor terms of the evolved moments as the last endpoint c moves
    for (w, E), t in itertools.product(EVOLVED_WEIGHTS[2:], EVOLUTION_TIMES):
        c = E.intervals[-1][1]
        deep = hankel_moments(w, E, M=10 + shift_depth(t))
        want = hankel_endpoint_series(w, deep, c, 1.0, 3)
        moved = evolved(w, t)
        got = hankel_endpoint_series(moved, hankel_moments(moved, E, M=10),
                                     c, 1.0, 3)
        for g, ref in zip(got, want):
            assert_close(g, reference_hankel(ref, t))


# ----- tau tables -----

def test_tau_table_small_cases():
    m = hankel_moments(uniform_weight(), M=8)
    assert lu_determinant(hankel_block(m, 1)) == pytest.approx(1.0, abs=1e-14)
    assert lu_determinant(hankel_block(m, 2)) == pytest.approx(1.0 / 12.0,
                                                               abs=1e-14)


def test_tau3_matches_mc_oracle():
    rng = np.random.default_rng(42)
    est, err = mc_tau3_oracle(1.0, rng)
    m = hankel_moments(gaussian_weight(), M=8)
    tau3 = lu_determinant(hankel_block(m, 3))
    assert abs(tau3 - est) < 3.0 * err


def test_hankel_positivity():
    m = hankel_moments(gaussian_weight(), M=14)
    assert all(lu_determinant(hankel_block(m, n)) > 0 for n in range(1, 7))


# ----- derivatives -----

def dlog_tau(m, n, ks):
    """d/dt_{k1} ... d/dt_{kr} log tau_n, exact: time shifts the rows."""
    return dlog_block(hankel_rows(m, n), n, [(k, 1.0, 0.0) for k in ks])


def log_tau(m, n):
    return math.log(lu_determinant(hankel_block(m, n)))


def test_dlog_tau_first_order_trivial():
    m = hankel_moments(uniform_weight(), M=10)
    assert dlog_tau(m, 1, [1]) == pytest.approx(m[1] / m[0], abs=1e-13)
    assert dlog_tau(m, 1, [2]) == pytest.approx(m[2] / m[0], abs=1e-13)


def test_dlog_tau_second_order_matches_fd_oracle():
    m = hankel_moments(uniform_weight(), M=40)

    def f(s):
        return log_tau(hankel_moments(WeightSpec("uniform", times=[s]), M=4),
                       2)

    oracle = central_diff(f, 2, 1e-2, richardson=True)
    assert dlog_tau(m, 2, [1, 1]) == pytest.approx(oracle, abs=1e-9)


def test_dlog_tau_first_order_exact_vs_fd():
    m = hankel_moments(gaussian_weight(), M=30)

    def f(s):
        return log_tau(hankel_moments(WeightSpec("gaussian", times=[0.0, s]),
                                      M=6), 3)

    fd = central_diff(f, 1, 1e-2, richardson=True)
    assert dlog_tau(m, 3, [2]) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("orders", [(1, 2), (1, 1, 2)])
def test_dlog_tau_mixed_partials_match_fd_of_first_order(orders):
    m = hankel_moments(WeightSpec("laguerre"), M=60)

    def f(s):
        return dlog_tau(hankel_moments(WeightSpec("laguerre", times=[s]),
                                       M=10), 3, [2])

    fd = central_diff(f, orders.count(1), 1e-2, richardson=True, levels=2)
    assert dlog_tau(m, 3, orders) == pytest.approx(fd, rel=1e-8)


def test_dlog_block_shift_past_the_array_is_a_depth_error():
    rows = hankel_rows(hankel_moments(uniform_weight(), M=8), 3)  # 7 x 3
    assert np.isfinite(dlog_block(rows, 3, [(1, 1.0, 0.0)] * 4))
    # numpy slicing would silently truncate the shifted block
    with pytest.raises(DepthError):
        dlog_block(rows, 3, [(1, 1.0, 0.0)] * 5)
    with pytest.raises(DepthError):
        dlog_block(rows, 3, [(1, 0.0, 1.0)])


def test_blocks_past_the_hankel_rows_raise_depth_error():
    # mu_0..mu_8 hold the Hankel blocks up to 5 x 5
    mu = hankel_moments(uniform_weight(), M=8)
    assert hankel_block(mu, 5).shape == (5, 5)
    with pytest.raises(DepthError):
        hankel_block(mu, 6)
    with pytest.raises(DepthError):
        leading_block(hankel_rows(mu, 3), 8)


def test_empty_block_has_partial_zero():
    # tau_0 = 1
    assert dlog_block(np.ones((4, 4)), 0, [(1, 1.0, 0.0)]) == 0.0


def test_dlog_block_judges_the_scaled_block():
    # G0 = D A D, D = diag(1, 2^30, 2^60), has singular values 2^120 apart,
    # but each row's largest entry is its diagonal one, so scaling every
    # row and column by the inverse square root of that entry gives A back.
    # The moment array stacks G0 over the Taylor matrices D C_i D, which
    # the factors (3, 1, 0) reach by row shifts of 3 and 6
    a = np.array([[1.0, 2.0 ** -40, 2.0 ** -70],
                  [2.0 ** -40, 1.0, 2.0 ** -40],
                  [2.0 ** -70, 2.0 ** -40, 1.0]])
    c = np.arange(1.0, 10.0).reshape(3, 3)
    d = np.diag(2.0 ** np.array([0.0, 30.0, 60.0]))
    plain = np.vstack([a, c, c.T])
    graded = np.vstack([d @ g @ d for g in (a, c, c.T)])
    for r in (1, 2):
        factors = [(3, 1.0, 0.0)] * r
        assert dlog_block(graded, 3, factors) == dlog_block(plain, 3, factors)


def test_logdet_partials_at_any_order():
    # G(s) = P diag(e^{a s}) P^{-1} to order 6: log det G = s sum(a) + O(s^7)
    rng = np.random.default_rng(3)
    a = rng.uniform(-1.0, 1.0, 4)
    p = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    g = [p @ np.diag(a ** j / math.factorial(j)) @ np.linalg.inv(p)
         for j in range(7)]
    jets = logdet_partials(solved(g[0], lambda n: g[n[0]]),
                           [(j,) for j in range(1, 7)])
    assert len(jets) == 6
    assert jets[0] == pytest.approx(a.sum(), abs=1e-13)
    assert np.abs(jets[1:]).max() < 1e-12


def test_logdet_partials_closed_form_in_three_variables():
    # G(x) = P diag(prod_v e^{a_iv x_v}) P^{-1}: log det G = sum a_iv x_v,
    # so every first partial is sum_i a_iv and every higher one vanishes
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (4, 3))
    p = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    inverse = np.linalg.inv(p)

    def coefficient(n):
        diagonal = np.prod(a ** np.array(n), axis=1) / math.prod(
            map(math.factorial, n))
        return p @ np.diag(diagonal) @ inverse

    monomials = [n for n in itertools.product(range(4), repeat=3)
                 if 1 <= sum(n) <= 3]
    assert (2, 1, 0) in monomials and (1, 1, 1) in monomials
    partials = dict(zip(monomials,
                        logdet_partials(solved(coefficient((0, 0, 0)),
                                               coefficient), monomials)))
    for v in range(3):
        first = tuple(int(i == v) for i in range(3))
        assert partials.pop(first) == pytest.approx(a[:, v].sum(), abs=1e-13)
    assert max(map(abs, partials.values())) < 1e-12
    # G(x) = P diag(1 + sum_v a_iv x_v) P^{-1}: the partial at n of
    # log det G is sum_i (-1)^{|n|-1} (|n|-1)! prod_v a_iv^{n_v}
    linear = lambda n: coefficient(n) if sum(n) == 1 else np.zeros((4, 4))
    partials = logdet_partials(solved(np.eye(4), linear), monomials)
    for n, partial in zip(monomials, partials):
        exact = (-1) ** (sum(n) - 1) * math.factorial(sum(n) - 1) * np.prod(
            a ** np.array(n), axis=1).sum()
        assert partial == pytest.approx(exact, rel=1e-12, abs=1e-14)


def test_logdet_partials_leave_no_reference_cycle():
    # a cycle would keep every Taylor matrix, order-96 ones for a Fredholm
    # series, until the cyclic collector runs, and raise the peak memory
    # of the Painleve checks by a third
    g = [np.eye(3) + 0.1 * j for j in range(5)]
    gc.collect()
    gc.disable()
    try:
        logdet_partials(solved(g[0], lambda n: g[n[0]]),
                        [(1,), (2,), (3,), (4,)])
        dlog_block(np.vstack(g), 3, [(3, 1.0, 0.0)] * 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----- KP -----

def test_kp_residual_uniform_n1():
    m = hankel_moments(uniform_weight(), M=60)
    assert abs(kp_residual(m, 1)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kp_residual_random_positive_hankel(n):
    rng = np.random.default_rng(100 + n)
    # positive Hankel data: moments of a random positive discrete measure
    pts = rng.uniform(-1.0, 1.0, size=12)
    wts = rng.uniform(0.1, 1.0, size=12)
    mu = np.array([np.dot(wts, pts ** k) for k in range(60)])
    assert abs(kp_residual(mu, n)) < 1e-6


def test_kp_residual_gaussian_n3():
    m = hankel_moments(gaussian_weight(), M=60)
    assert abs(kp_residual(m, 3)) < 1e-6


def test_kp_residual_small_t():
    rng = np.random.default_rng(9)
    t = rng.uniform(-0.05, 0.05, size=3)
    m = hankel_moments(WeightSpec("uniform", times=t), M=100)
    assert abs(kp_residual(m, 2)) < 1e-6


def test_kp_residual_uniform_is_at_rounding_level():
    # the uniform weight's Hankel blocks are Hilbert-like; exact partials
    # keep the residual at its rounding level through n = 5
    t = (0.02 * np.random.default_rng(0).standard_normal(3)).tolist()
    for times in ((), t):
        m = hankel_moments(WeightSpec("uniform", times=times), M=14)
        for n in range(1, 6):
            assert abs(kp_residual(m, n)) <= 1e-12


def test_kp_residual_scale_invariant():
    m = hankel_moments(uniform_weight(), M=60)
    doubled = 2.0 * m
    a = kp_residual(m, 2)
    b = kp_residual(doubled, 2)
    assert a == pytest.approx(b, abs=1e-10)
