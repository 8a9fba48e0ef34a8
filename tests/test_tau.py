import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxlab.errors import DepthError, DivergenceError
from laxlab.fd import central_diff
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import lu_determinant
from laxlab.pfaff import SkewMoments, evolve_skew, skew_inner_products
from laxlab.tau import (
    EVOLUTION_DEGREE,
    HankelMoments,
    WeightSpec,
    add_shifted_blocks,
    dlog_tau_directional,
    evolution_coefficients,
    evolve_hankel,
    hankel_from_sequence,
    hankel_moments,
    kp_residual,
    max_shift_for,
    polarized,
)
from laxlab.twotoda import BiMoments, evolve_bimoments


# ----- oracles -----

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


def reference_shift_coefficients(t, max_shift, degree=EVOLUTION_DEGREE):
    """exp(sum_k t_k z^k) = sum_d c_d z^d to total degree ``degree`` in t
    and shift ``max_shift`` in z, as a product of one exponential per
    time; exact times give exact coefficients."""
    t = np.asarray(t)
    if t.dtype != object:
        t = t.astype(float)
    c = np.zeros((degree + 1, max_shift + 1), dtype=t.dtype)
    c[0, 0] = 1
    for k, tk in enumerate(t, start=1):
        if tk == 0:
            continue
        new = np.zeros_like(c)
        term = 1
        for j in range(degree + 1):
            if k * j > max_shift:
                break
            if j > 0:
                term *= tk / j
            new[j:, k * j:] += term * c[: degree + 1 - j, : max_shift + 1 - k * j]
        c = new
    return c.sum(axis=0)


def reference_evolution(m, rows, cols):
    """add_shifted_blocks with the reference coefficients."""
    r, s = max_shift_for(rows), max_shift_for(cols)
    out = np.zeros((m.shape[0] - r, m.shape[1] - s), dtype=m.dtype)
    return add_shifted_blocks(out, m, reference_shift_coefficients(rows, r),
                              reference_shift_coefficients(cols, s))


def uniform_weight():
    return WeightSpec("uniform")


def gaussian_weight(b=1.0):
    return WeightSpec("gaussian", b=b)


# ----- moments -----

def test_uniform_moments_closed_form():
    m = hankel_moments(uniform_weight(), M=4)
    assert np.allclose(m.mu, [1.0 / (k + 1) for k in range(5)], atol=1e-14)


def test_gaussian_odd_moment_vanishes():
    m = hankel_moments(gaussian_weight(), M=4)
    assert abs(m.mu[1]) < 1e-14


def test_gaussian_moments_match_gamma_oracle():
    m = hankel_moments(gaussian_weight(), M=10)
    for k in range(11):
        assert m.mu[k] == pytest.approx(gaussian_moment_oracle(k), abs=1e-12)


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
    m2 = evolve_hankel(m, [0.0, 0.0])
    assert np.array_equal(m.mu, m2.mu)


def test_evolve_t1_matches_quadrature():
    s = 0.05
    m = hankel_moments(uniform_weight(), M=30)
    evolved = evolve_hankel(m, [s])
    # direct quadrature of e^{s z} on [0,1]
    shifted = hankel_moments(
        WeightSpec("custom", func=lambda z: np.exp(s * z),
                   custom_support=IntervalUnion([(0.0, 1.0)])),
        E=IntervalUnion([(0.0, 1.0)]),
        M=10,
    )
    assert np.abs(evolved.mu[:11] - shifted.mu).max() < 1e-10


def test_evolution_semigroup():
    m = hankel_moments(uniform_weight(), M=100)
    t1 = np.array([0.03, -0.02])
    t2 = np.array([-0.01, 0.04])
    a = evolve_hankel(evolve_hankel(m, t1), t2)
    b = evolve_hankel(m, t1 + t2)
    k = min(len(a.mu), len(b.mu))
    assert np.abs(a.mu[:k] - b.mu[:k]).max() < 1e-12


def test_evolve_depth_error():
    m = hankel_from_sequence(np.ones(5))
    with pytest.raises(DepthError):
        evolve_hankel(m, [0.1])


TIMES = st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                 min_size=0, max_size=4)


@settings(max_examples=200, deadline=None)
@given(TIMES)
def test_evolution_coefficients_match_the_reference(t):
    c = evolution_coefficients(t)
    assert len(c) == max_shift_for(t) + 1
    ref = reference_shift_coefficients(t, max_shift_for(t))
    assert np.abs(c - ref).max() <= 1e-15 * np.abs(ref).max()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(-2, 2, max_denominator=50), min_size=1,
                max_size=3))
def test_exact_evolution_coefficients_match_the_reference(t):
    c = evolution_coefficients(t)
    assert len(c) == max_shift_for(t) + 1
    assert all(isinstance(v, Fraction) for v in c)
    assert list(c) == list(reference_shift_coefficients(t, max_shift_for(t)))


def test_evolve_hankel_matches_the_reference():
    rng = np.random.default_rng(3)
    m = hankel_from_sequence(rng.normal(size=60))
    for t in ([0.3], [0.1, -0.2], [-0.05, 0.0, 0.07]):
        want = reference_evolution(m.mu[:, None], t, ())[:, 0]
        got = evolve_hankel(m, t).mu
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_evolve_skew_matches_the_reference():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(40, 40))
    m = SkewMoments(m=a - a.T, alpha=-1, weight=gaussian_weight(),
                    E=IntervalUnion.full_line())
    for t in ([0.3], [0.1, -0.2]):
        want = reference_evolution(m.m, t, t)
        want = (want - want.T) / 2
        got = evolve_skew(m, t).m
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_evolve_skew_of_exact_moments_matches_the_reference_exactly():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=14)
    t = [0.05, -0.02]
    times = [Fraction(v) for v in t]
    want = reference_evolution(m.m, times, times)
    got = evolve_skew(m, t).m
    assert all(isinstance(v, Fraction) for v in got.flat)
    assert np.array_equal(got, (want - want.T) / 2)


def test_evolve_bimoments_matches_the_reference():
    rng = np.random.default_rng(5)
    m = BiMoments(m=rng.normal(size=(40, 40)), c=0.5,
                  E1=IntervalUnion.full_line(), E2=IntervalUnion.full_line())
    for t, s in (([0.3], [0.1]), ([0.1, -0.2], [0.05]), ([0.2], None)):
        keep = 40 - max(max_shift_for(t), max_shift_for(s or []))
        neg = [-v for v in s or []]
        want = reference_evolution(m.m, t, neg)[:keep, :keep]
        got = evolve_bimoments(m, t, s).m
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# ----- tau tables -----

def test_tau_table_small_cases():
    m = hankel_moments(uniform_weight(), M=8)
    assert lu_determinant(m.matrix(1)) == pytest.approx(1.0, abs=1e-14)
    assert lu_determinant(m.matrix(2)) == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_tau3_matches_mc_oracle():
    rng = np.random.default_rng(42)
    est, err = mc_tau3_oracle(1.0, rng)
    m = hankel_moments(gaussian_weight(), M=8)
    tau3 = lu_determinant(m.matrix(3))
    assert abs(tau3 - est) < 3.0 * err


def test_hankel_positivity():
    m = hankel_moments(gaussian_weight(), M=14)
    assert all(lu_determinant(m.matrix(n)) > 0 for n in range(1, 7))


# ----- derivatives -----

def dlog_tau(m, n, ks):
    """d/dt_{k1} ... d/dt_{kr} log tau_n from the exact jets."""
    return polarized(functools.partial(dlog_tau_directional, m, n), ks)


def log_tau(m, n):
    return math.log(lu_determinant(m.matrix(n)))


def test_dlog_tau_first_order_trivial():
    m = hankel_moments(uniform_weight(), M=10)
    assert dlog_tau(m, 1, [1]) == pytest.approx(m.mu[1] / m.mu[0], abs=1e-13)
    assert dlog_tau(m, 1, [2]) == pytest.approx(m.mu[2] / m.mu[0], abs=1e-13)


def test_dlog_tau_second_order_matches_fd_oracle():
    m = hankel_moments(uniform_weight(), M=40)

    def f(s):
        return log_tau(evolve_hankel(m, [s]), 2)

    oracle = central_diff(f, 2, 1e-2, richardson=True)
    assert dlog_tau(m, 2, [1, 1]) == pytest.approx(oracle, abs=1e-9)


def test_dlog_tau_first_order_exact_vs_fd():
    m = hankel_moments(gaussian_weight(), M=30)

    def f(s):
        return log_tau(evolve_hankel(m, [0.0, s]), 3)

    fd = central_diff(f, 1, 1e-2, richardson=True)
    assert dlog_tau(m, 3, [2]) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("orders", [(1, 2), (1, 1, 2)])
def test_dlog_tau_mixed_partials_match_fd_of_first_order(orders):
    m = hankel_moments(WeightSpec("laguerre"), M=60)

    def f(s):
        return dlog_tau(evolve_hankel(m, [s]), 3, [2])

    fd = central_diff(f, orders.count(1), 1e-2, richardson=True, levels=2)
    assert dlog_tau(m, 3, orders) == pytest.approx(fd, rel=1e-8)


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
    m = hankel_from_sequence(mu)
    assert abs(kp_residual(m, n)) < 1e-6


def test_kp_residual_gaussian_n3():
    m = hankel_moments(gaussian_weight(), M=60)
    assert abs(kp_residual(m, 3)) < 1e-6


def test_kp_residual_small_t():
    rng = np.random.default_rng(9)
    m = hankel_moments(uniform_weight(), M=100)
    t = rng.uniform(-0.05, 0.05, size=3)
    assert abs(kp_residual(m, 2, t=t)) < 1e-6


def test_kp_residual_scale_invariant():
    m = hankel_moments(uniform_weight(), M=60)
    doubled = hankel_from_sequence(2.0 * m.mu)
    a = kp_residual(m, 2)
    b = kp_residual(doubled, 2)
    assert a == pytest.approx(b, abs=1e-10)
