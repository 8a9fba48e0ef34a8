import math
import warnings

import numpy as np
import pytest

from laxlab.errors import DepthError, NumericalError, StabilityError, UsageError
from laxlab.mathcore import integrate
from laxlab.tau import (
    WeightSpec,
    evolve_hankel,
    hankel_from_sequence,
    hankel_moments,
)
from laxlab.toda import (
    FACTORIZATION_FLOW_SCALE,
    TridiagonalLax,
    lax_from_dense,
    lax_from_tau,
    orthopoly_eval,
    toda_factorization_flow,
    toda_ode_flow,
)


# ----- oracles -----

def gram_schmidt_jacobi_oracle(mu, n):
    """Jacobi matrix of the orthonormal polynomials by explicit
    Gram-Schmidt on monomials in the moment inner product <z^i, z^j> =
    mu_{i+j}; independent of any tau-function formula."""
    g = np.array([[mu[i + j] for j in range(n + 1)] for i in range(n + 1)])
    # coefficient vectors of the orthonormal polynomials, built one by one
    coeffs = []
    for k in range(n + 1):
        v = np.zeros(n + 1)
        v[k] = 1.0
        for c in coeffs:
            v -= (c @ g @ v) * c
        v /= math.sqrt(v @ g @ v)
        coeffs.append(v)
    # multiplication by z in the polynomial basis: shift coefficients
    diag = np.empty(n)
    off = np.empty(n - 1)
    for k in range(n):
        zp = np.zeros(n + 1)
        zp[1:] = coeffs[k][:-1]  # z * p_k, degree k+1 <= n
        diag[k] = coeffs[k] @ g @ zp
        if k + 1 <= n - 1 or k + 1 == n - 0:
            pass
        if k < n - 1:
            off[k] = coeffs[k + 1] @ g @ zp
    return diag, off


def gaussian_weight(b=1.0):
    return WeightSpec("gaussian", b=b)


def uniform_weight():
    return WeightSpec("uniform")


def spectrum(lax):
    return np.linalg.eigvalsh(lax.matrix())


def random_lax(n, seed):
    rng = np.random.default_rng(seed)
    return TridiagonalLax(rng.normal(size=n), rng.uniform(0.3, 1.0, size=n - 1))


# ----- type -----

def test_matrix_roundtrip_and_gauges():
    L = TridiagonalLax([1.0, 2.0, 3.0], [0.5, 0.25])
    m = L.matrix()
    assert np.array_equal(m, m.T)
    back = lax_from_dense(m)
    assert np.array_equal(back.diag, L.diag)
    assert np.array_equal(back.offdiag, L.offdiag)


def test_bad_shapes_rejected():
    with pytest.raises(UsageError):
        TridiagonalLax([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(UsageError):
        TridiagonalLax([1.0, 2.0], [-0.1])


# ----- lax_from_tau -----

def test_lax_from_tau_gaussian_diag_zero():
    m = hankel_moments(gaussian_weight(), M=12)
    L = lax_from_tau(m, None, 4)
    assert np.abs(L.diag).max() < 1e-12


def test_lax_from_tau_uniform_first_diag():
    m = hankel_moments(uniform_weight(), M=12)
    L = lax_from_tau(m, None, 2)
    assert L.diag[0] == pytest.approx(0.5, abs=1e-13)


def test_lax_from_tau_matches_gram_schmidt_oracle():
    m = hankel_moments(gaussian_weight(), M=12)
    diag, off = gram_schmidt_jacobi_oracle(m.mu, 4)
    L = lax_from_tau(m, None, 4)
    assert np.abs(L.diag - diag).max() < 1e-10
    assert np.abs(L.offdiag - off).max() < 1e-10


def test_lax_from_tau_evolved_matches_oracle():
    m = hankel_moments(gaussian_weight(), M=40)
    t = [0.08, -0.03]
    evolved = evolve_hankel(m, t)
    diag, off = gram_schmidt_jacobi_oracle(evolved.mu, 3)
    L = lax_from_tau(m, t, 3)
    assert np.abs(L.diag - diag).max() < 1e-10
    assert np.abs(L.offdiag - off).max() < 1e-10


def test_lax_from_tau_needs_moments_to_index_2n_minus_1():
    mu = hankel_moments(gaussian_weight(), M=8).mu
    assert lax_from_tau(hankel_from_sequence(mu), None, 4).n == 4
    with pytest.raises(DepthError, match="index 7"):
        lax_from_tau(hankel_from_sequence(mu[:7]), None, 4)
    with pytest.raises(DepthError, match="index 8"):
        orthopoly_eval(hankel_from_sequence(mu[:8]), None, 4, 0.5)


def test_borel_route_rejects_a_block_that_is_not_positive_definite():
    # mu_0 mu_2 - mu_1^2 = -1: tau_2 < 0
    m = hankel_from_sequence([1.0, 0.0, -1.0, 0.0, 1.0])
    with pytest.raises(NumericalError):
        lax_from_tau(m, None, 2)
    with pytest.raises(NumericalError):
        orthopoly_eval(m, None, 1, 0.3)


# ----- ODE flow -----

def test_ode_flow_diagonal_is_stationary():
    L0 = TridiagonalLax([1.0, -2.0, 0.5], [1e-12, 1e-12])
    out = toda_ode_flow(L0, 1, 0.5, 1e-2)
    assert np.abs(out.diag - L0.diag).max() < 1e-9


def test_ode_flow_isospectral():
    L0 = random_lax(6, 7)
    out = toda_ode_flow(L0, 1, 1.0, 1e-3)
    assert np.abs(spectrum(out) - spectrum(L0)).max() < 1e-8


def test_ode_flow_n2_spectrum():
    L0 = TridiagonalLax([0.3, -0.4], [0.7])
    out = toda_ode_flow(L0, 1, 0.8, 1e-3)
    assert np.abs(spectrum(out) - spectrum(L0)).max() < 1e-10


def test_ode_flows_commute():
    L0 = random_lax(5, 11)
    s = 5e-4
    a = toda_ode_flow(toda_ode_flow(L0, 1, 0.05, s), 2, 0.04, s)
    b = toda_ode_flow(toda_ode_flow(L0, 2, 0.04, s), 1, 0.05, s)
    assert np.abs(a.matrix() - b.matrix()).max() < s ** 4 + 1e-8


def test_ode_flow_step_too_large():
    L0 = random_lax(6, 3)
    with pytest.raises(StabilityError):
        toda_ode_flow(L0, 2, 2.0, 0.9)


def test_ode_flow_step_too_large_raises_without_a_warning():
    L0 = random_lax(6, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StabilityError):
            toda_ode_flow(L0, 2, 2.0, 0.9)


def reference_toda_step(lax, k, h):
    """One RK4 step of L' = [b, L], b = (1/2)(triu(L^k, 1) - its
    transpose), written out from the dense formulas."""
    def rhs(y):
        up = 0.5 * np.triu(np.linalg.matrix_power(y, k), 1)
        b = up - up.T
        return b @ y - y @ b

    k1 = rhs(lax)
    k2 = rhs(lax + 0.5 * h * k1)
    k3 = rhs(lax + 0.5 * h * k2)
    k4 = rhs(lax + h * k3)
    return lax + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_ode_step_matches_reference(k):
    L0 = random_lax(6, 5)
    h = 1e-2
    got = toda_ode_flow(L0, k, h, h).matrix()
    assert np.abs(got - reference_toda_step(L0.matrix(), k, h)).max() < 1e-14


def test_ode_flow_guard_fires_mid_flow():
    # the drift passes 1e-6 by the checkpoint after step 200 (t = 20),
    # long before t_end = 40
    L0 = random_lax(6, 3)
    with pytest.raises(StabilityError, match=r"drift .* at t=20;"):
        toda_ode_flow(L0, 1, 40.0, 0.1)


def test_ode_flow_nonfinite_state_is_stability_error():
    L0 = random_lax(6, 3)
    with pytest.raises(StabilityError, match="drift inf"):
        toda_ode_flow(L0, 2, 2000.0, 5.0)


def stack_of(laxes):
    return TridiagonalLax(np.stack([L.diag for L in laxes]),
                          np.stack([L.offdiag for L in laxes]))


@pytest.mark.parametrize("k", [1, 2])
def test_batched_ode_flow_matches_single_flows(k):
    starts = [random_lax(5, seed) for seed in (1, 2, 3)]
    moved = toda_ode_flow(stack_of(starts), k, 0.3, 1e-2).matrix()
    for i, start in enumerate(starts):
        alone = toda_ode_flow(start, k, 0.3, 1e-2).matrix()
        assert np.abs(moved[i] - alone).max() < 1e-15


def test_batched_ode_guard_sees_one_bad_member():
    # the same start as test_ode_flow_guard_fires_mid_flow, beside a calm one
    batch = stack_of([random_lax(6, 5), random_lax(6, 3)])
    with pytest.raises(StabilityError, match=r"drift .* at t=20;"):
        toda_ode_flow(batch, 1, 40.0, 0.1)


def test_factorization_at_many_times_matches_one_time_calls():
    L0 = random_lax(6, 19)
    times = np.array([-1.0, 0.0, 0.5, 3.0])
    many = toda_factorization_flow(L0, 2, times).matrix()
    for t, got in zip(times, many):
        alone = toda_factorization_flow(L0, 2, t).matrix()
        assert np.abs(got - alone).max() < 1e-15


# ----- factorization flow -----

def test_factorization_t0_identity():
    L0 = random_lax(5, 2)
    out = toda_factorization_flow(L0, 1, 0.0)
    assert np.abs(out.matrix() - L0.matrix()).max() < 1e-12


def test_factorization_diagonal_fixed_point():
    L0 = TridiagonalLax([2.0, 1.0, -1.0], [1e-13, 1e-13])
    out = toda_factorization_flow(L0, 1, 3.0)
    assert np.abs(np.sort(out.diag) - np.sort(L0.diag)).max() < 1e-9


def test_factorization_matches_ode():
    L0 = random_lax(6, 19)
    a = toda_factorization_flow(L0, 1, 1.0)
    b = toda_ode_flow(L0, 1, 1.0, 5e-4)
    assert np.abs(a.matrix() - b.matrix()).max() < 1e-6


def test_factorization_scale_constant_taylor_match():
    # pins FACTORIZATION_FLOW_SCALE: the small-t derivative of both routes
    # must agree well below what any other scale value would allow
    assert FACTORIZATION_FLOW_SCALE == 0.5
    L0 = random_lax(4, 23)
    eps = 1e-4
    a = toda_factorization_flow(L0, 2, eps).matrix()
    b = toda_ode_flow(L0, 2, eps, eps / 8.0).matrix()
    assert np.abs(a - b).max() < 1e-10


def test_three_route_agreement():
    # measure with exactly n atoms: the Jacobi matrix is genuinely n x n,
    # so the truncated ODE/factorization flows match the moment route
    n = 4
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=n)
    wts = rng.uniform(0.5, 1.5, size=n)
    mu = np.array([np.dot(wts, pts ** j) for j in range(61)])
    m = hankel_from_sequence(mu)
    L0 = lax_from_tau(m, None, n)
    for k in (1, 2):
        t = [0.0] * (k - 1) + [0.3]
        via_tau = lax_from_tau(m, t, n)
        via_ode = toda_ode_flow(L0, k, 0.3, 1e-3)
        via_fac = toda_factorization_flow(L0, k, 0.3)
        assert np.abs(via_tau.matrix() - via_ode.matrix()).max() < 1e-6
        assert np.abs(via_fac.matrix() - via_ode.matrix()).max() < 1e-6


# ----- orthonormal polynomials -----

def test_orthopoly_degree_zero():
    m = hankel_moments(uniform_weight(), M=6)
    assert orthopoly_eval(m, None, 0, 0.7) == pytest.approx(1.0, abs=1e-13)


def test_orthopoly_gaussian_degree_one():
    m = hankel_moments(gaussian_weight(), M=6)
    z = 0.9
    expected = z * math.sqrt(m.mu[0] / (m.mu[0] * m.mu[2] - m.mu[1] ** 2))
    assert orthopoly_eval(m, None, 1, z) == pytest.approx(expected, abs=1e-12)


def test_orthopoly_orthonormal_under_quadrature():
    w = gaussian_weight()
    m = hankel_moments(w, M=14)
    E = m.E
    for i in range(6):
        for j in range(i, 6):
            val = integrate(
                lambda z: orthopoly_eval(m, None, i, z)
                * orthopoly_eval(m, None, j, z)
                * w.density(z),
                E,
                order=96,
                scale=w.decay_scale(),
            )
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def bordered_orthopoly(m, n, z):
    """p_n(z) = det [[mu_{i+j}]_{i<n}; (1, z, ..., z^n)] / sqrt(tau_n
    tau_{n+1}), the bordered-determinant formula."""
    tau = [np.linalg.det(m.matrix(k)) if k else 1.0 for k in (n, n + 1)]
    bordered = np.vstack([m.matrix(n + 1)[:n], z ** np.arange(n + 1)])
    return np.linalg.det(bordered) / math.sqrt(tau[0] * tau[1])


@pytest.mark.parametrize("w", [gaussian_weight(),
                               WeightSpec("laguerre", a=1.0)])
def test_orthopoly_matches_bordered_determinant(w):
    m = hankel_moments(w, M=14)
    zs = np.array([-1.7, -0.4, 0.0, 0.9, 2.5])
    for n in range(7):
        want = np.array([bordered_orthopoly(m, n, z) for z in zs])
        got = orthopoly_eval(m, None, n, zs)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_eigenvector_property_three_term_recurrence():
    m = hankel_moments(gaussian_weight(), M=16)
    n = 6
    L = lax_from_tau(m, None, n).matrix()
    for z in (-1.3, 0.2, 2.1):
        p = np.array([orthopoly_eval(m, None, j, z) for j in range(n)])
        resid = L @ p - z * p
        assert np.abs(resid[: n - 1]).max() < 1e-9
