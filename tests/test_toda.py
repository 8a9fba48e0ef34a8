import math
import warnings

import numpy as np
import pytest

from laxlab.errors import (
    NumericalError,
    SingularTauError,
    StabilityError,
    UsageError,
)
from evolution_reference import reference_hankel
from laxlab.mathcore import orthonormal_polys, union_rule
from laxlab.mathcore.ode import SEGMENTS
from laxlab.tau import (WeightSpec, hankel_moments, hankel_rows, leading_block,
                        refine_on_rule)
from laxlab.toda import (
    FACTORIZATION_FLOW_SCALE,
    jacobi_matrix,
    lanczos,
    toda_factorization_flow,
    toda_measure_flow,
    toda_ode_flow,
    tridiagonal,
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


def weight_recurrence(w, n, t):
    """lanczos(..., n) on the weight's refined quadrature rule, with
    rho(z) e^{sum_k t_k z^k} in its weights."""
    def on_rule(x, wx):
        evolution = sum(tk * x ** (k + 1) for k, tk in enumerate(t))
        return lanczos(x, wx * w.density(x) * np.exp(evolution), n)

    return refine_on_rule(w, w.support(), 64, on_rule)


def jacobi(ab):
    return jacobi_matrix(ab[0], ab[1, 1:])


def diag(lax):
    return np.diagonal(lax, axis1=-2, axis2=-1)


def offdiag(lax):
    return np.diagonal(lax, 1, axis1=-2, axis2=-1)


def gaussian_weight(b=1.0):
    return WeightSpec("gaussian", b=b)


def uniform_weight():
    return WeightSpec("uniform")


def spectrum(lax):
    return np.linalg.eigvalsh(lax)


def random_lax(n, seed):
    rng = np.random.default_rng(seed)
    return jacobi_matrix(rng.normal(size=n), rng.uniform(0.3, 1.0, size=n - 1))


# ----- dense Jacobi matrices -----

def test_matrix_roundtrip_and_gauges():
    m = jacobi_matrix([1.0, 2.0, 3.0], [0.5, 0.25])
    assert np.array_equal(m, m.T)
    assert np.array_equal(diag(m), [1.0, 2.0, 3.0])
    assert np.array_equal(offdiag(m), [0.5, 0.25])
    assert np.array_equal(np.triu(m, 2), np.zeros((3, 3)))
    assert np.array_equal(tridiagonal(m), m)
    # a stack, and the band of a slightly asymmetric, filled-in matrix
    stack = jacobi_matrix([[1.0, 2.0], [3.0, 4.0]], [[0.5], [0.25]])
    assert np.array_equal(stack[1], jacobi_matrix([3.0, 4.0], [0.25]))
    noisy = stack + np.array([[0.0, 0.1], [0.3, 0.0]])
    assert np.array_equal(tridiagonal(noisy),
                          jacobi_matrix(diag(stack), [[0.7], [0.45]]))


# ----- the tau route: the Jacobi matrix of a (evolved) measure -----

def test_lax_from_tau_gaussian_diag_zero():
    L = jacobi(weight_recurrence(gaussian_weight(), 4, ()))
    assert np.abs(diag(L)).max() < 1e-12


def test_lax_from_tau_uniform_first_diag():
    L = jacobi(weight_recurrence(uniform_weight(), 2, ()))
    assert L[0, 0] == pytest.approx(0.5, abs=1e-13)


def test_lax_from_tau_matches_gram_schmidt_oracle():
    m = hankel_moments(gaussian_weight(), M=12)
    want_diag, want_off = gram_schmidt_jacobi_oracle(m, 4)
    L = jacobi(weight_recurrence(gaussian_weight(), 4, ()))
    assert np.abs(diag(L) - want_diag).max() < 1e-10
    assert np.abs(offdiag(L) - want_off).max() < 1e-10


def test_lax_from_tau_evolved_matches_oracle():
    m = hankel_moments(gaussian_weight(), M=40)
    t = [0.08, -0.03]
    want_diag, want_off = gram_schmidt_jacobi_oracle(
        reference_hankel(m, t), 3)
    L = jacobi(weight_recurrence(gaussian_weight(), 3, t))
    assert np.abs(diag(L) - want_diag).max() < 1e-10
    assert np.abs(offdiag(L) - want_off).max() < 1e-10


def test_lanczos_breaks_down_on_too_few_atoms():
    nodes = np.array([-0.5, 0.1, 0.7])
    assert jacobi(lanczos(nodes, np.ones(3), 3)).shape == (3, 3)
    with pytest.raises(SingularTauError, match="fewer than 4 atoms"):
        lanczos(nodes, np.ones(3), 4)
    # e^{1000 (x - 0.7)} underflows at the other two atoms
    with pytest.raises(SingularTauError, match="step 1"):
        toda_measure_flow(nodes, np.ones(3), 1, 1000.0)


def test_tridiagonal_rejects_a_lost_offdiagonal():
    m = jacobi_matrix([1.0, 2.0, 3.0], [0.5, 0.25])
    m[1, 2] = m[2, 1] = 0.0
    with pytest.raises(NumericalError, match="offdiagonal"):
        tridiagonal(m)
    with pytest.raises(NumericalError, match="offdiagonal"):
        tridiagonal(jacobi_matrix([1.0, 2.0], [-0.1]))


# ----- ODE flow -----

def test_ode_flow_diagonal_is_stationary():
    L0 = jacobi_matrix([1.0, -2.0, 0.5], [1e-12, 1e-12])
    out = toda_ode_flow(L0, 1, 0.5, 1e-2)
    assert np.abs(diag(out) - diag(L0)).max() < 1e-9


def test_ode_flow_isospectral():
    L0 = random_lax(6, 7)
    out = toda_ode_flow(L0, 1, 1.0, 1e-3)
    assert np.abs(spectrum(out) - spectrum(L0)).max() < 1e-8


def test_ode_flow_n2_spectrum():
    L0 = jacobi_matrix([0.3, -0.4], [0.7])
    out = toda_ode_flow(L0, 1, 0.8, 1e-3)
    assert np.abs(spectrum(out) - spectrum(L0)).max() < 1e-10


def test_ode_flows_commute():
    L0 = random_lax(5, 11)
    s = 5e-4
    a = toda_ode_flow(toda_ode_flow(L0, 1, 0.05, s), 2, 0.04, s)
    b = toda_ode_flow(toda_ode_flow(L0, 2, 0.04, s), 1, 0.05, s)
    assert np.abs(a - b).max() < s ** 4 + 1e-8


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
    got = toda_ode_flow(L0, k, h, h)
    assert np.abs(got - reference_toda_step(L0, k, h)).max() < 1e-14


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


@pytest.mark.parametrize("k", [1, 2])
def test_batched_ode_flow_matches_single_flows(k):
    starts = [random_lax(5, seed) for seed in (1, 2, 3)]
    moved = toda_ode_flow(np.stack(starts), k, 0.3, 1e-2)
    for i, start in enumerate(starts):
        alone = toda_ode_flow(start, k, 0.3, 1e-2)
        assert np.abs(moved[i] - alone).max() < 1e-15


def test_batched_ode_guard_sees_one_bad_member():
    # the same start as test_ode_flow_guard_fires_mid_flow, beside a calm one
    batch = np.stack([random_lax(6, 5), random_lax(6, 3)])
    with pytest.raises(StabilityError, match=r"drift .* at t=20;"):
        toda_ode_flow(batch, 1, 40.0, 0.1)


# ----- factorization flow -----

def factorized(L0, k, t):
    """L(t) by the factorization route: the last checkpoint."""
    return toda_factorization_flow(L0, k, t)[-1]


def test_factorization_checkpoints_match_direct_calls():
    L0 = random_lax(6, 19)
    for t_end in (3.0, -1.0):
        many = toda_factorization_flow(L0, 2, t_end)
        assert len(many) == SEGMENTS + 1
        for j in (0, 1, 7, SEGMENTS):
            alone = factorized(L0, 2, t_end * j / SEGMENTS)
            assert np.abs(many[j] - alone).max() < 1e-13


def test_factorization_holds_at_large_t():
    # a single exponent e^{c t L0} spans too many magnitudes at t = 30 for
    # its Q factor; one segment at a time keeps QR on the measure route
    for seed in (53, 60, 73, 79):
        rng = np.random.default_rng(seed)
        pts, wts = rng.uniform(-1.0, 1.0, 6), rng.uniform(0.5, 1.5, 6)
        L0 = toda_measure_flow(pts, wts, 1, 0.0)
        for t_end in (30.0, 50.0):
            qr = factorized(L0, 1, t_end)
            exact = toda_measure_flow(pts, wts, 1, t_end)
            assert np.abs(qr - exact).max() < 1e-12


def test_factorization_t0_identity():
    L0 = random_lax(5, 2)
    out = factorized(L0, 1, 0.0)
    assert np.abs(out - L0).max() < 1e-12


def test_factorization_diagonal_fixed_point():
    L0 = jacobi_matrix([2.0, 1.0, -1.0], [1e-13, 1e-13])
    out = diag(factorized(L0, 1, 3.0))
    assert np.abs(np.sort(out) - np.sort(diag(L0))).max() < 1e-9


def test_factorization_matches_ode():
    L0 = random_lax(6, 19)
    a = factorized(L0, 1, 1.0)
    b = toda_ode_flow(L0, 1, 1.0, 5e-4)
    assert np.abs(a - b).max() < 1e-6


def test_factorization_scale_constant_taylor_match():
    # pins FACTORIZATION_FLOW_SCALE: the small-t derivative of both routes
    # must agree well below what any other scale value would allow
    assert FACTORIZATION_FLOW_SCALE == 0.5
    L0 = random_lax(4, 23)
    eps = 1e-4
    a = factorized(L0, 2, eps)
    b = toda_ode_flow(L0, 2, eps, eps / 8.0)
    assert np.abs(a - b).max() < 1e-10


def test_three_route_agreement():
    # measure with exactly n atoms: the Jacobi matrix is genuinely n x n,
    # so the truncated ODE/factorization flows match the measure route
    n = 4
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=n)
    wts = rng.uniform(0.5, 1.5, size=n)
    mu = np.array([np.dot(wts, pts ** j) for j in range(2 * n + 1)])
    L0 = toda_measure_flow(pts, wts, 1, 0.0)
    want_diag, want_off = gram_schmidt_jacobi_oracle(mu, n)
    assert np.abs(diag(L0) - want_diag).max() < 1e-10
    assert np.abs(offdiag(L0) - want_off).max() < 1e-10
    for k in (1, 2):
        via_tau = toda_measure_flow(pts, wts, k, 0.3)
        via_ode = toda_ode_flow(L0, k, 0.3, 1e-3)
        via_fac = factorized(L0, k, 0.3)
        assert np.abs(via_tau - via_ode).max() < 1e-6
        assert np.abs(via_fac - via_ode).max() < 1e-6


# ----- orthonormal polynomials -----

def orthopoly(w, n, z):
    return orthonormal_polys(weight_recurrence(w, n + 1, ()), z)[-1]


def test_orthopoly_degree_zero():
    assert orthopoly(uniform_weight(), 0, 0.7) == pytest.approx(1.0, abs=1e-13)


def test_orthopoly_gaussian_degree_one():
    m = hankel_moments(gaussian_weight(), M=6)
    z = 0.9
    expected = z * math.sqrt(m[0] / (m[0] * m[2] - m[1] ** 2))
    assert orthopoly(gaussian_weight(), 1, z) == pytest.approx(expected,
                                                              abs=1e-12)


def test_orthopoly_orthonormal_under_quadrature():
    w = gaussian_weight()
    for i in range(6):
        for j in range(i, 6):
            z, wz = union_rule(w.support(), 96, scale=w.decay_scale())
            val = wz @ (orthopoly(w, i, z) * orthopoly(w, j, z) * w.density(z))
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)


def bordered_orthopoly(m, n, z):
    """p_n(z) = det [[mu_{i+j}]_{i<n}; (1, z, ..., z^n)] / sqrt(tau_n
    tau_{n+1}), the bordered-determinant formula."""
    rows = hankel_rows(m, n + 1)
    tau = [np.linalg.det(leading_block(rows, k)) if k else 1.0
           for k in (n, n + 1)]
    bordered = np.vstack([rows[:n], z ** np.arange(n + 1)])
    return np.linalg.det(bordered) / math.sqrt(tau[0] * tau[1])


@pytest.mark.parametrize("w", [gaussian_weight(),
                               WeightSpec("laguerre", a=1.0)])
def test_orthopoly_matches_bordered_determinant(w):
    m = hankel_moments(w, M=14)
    zs = np.array([-1.7, -0.4, 0.0, 0.9, 2.5])
    for n in range(7):
        want = np.array([bordered_orthopoly(m, n, z) for z in zs])
        got = orthopoly(w, n, zs)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, np.abs(want).max())


def test_eigenvector_property_three_term_recurrence():
    n = 6
    L = jacobi(weight_recurrence(gaussian_weight(), n, ()))
    for z in (-1.3, 0.2, 2.1):
        p = np.array([orthopoly(gaussian_weight(), j, z) for j in range(n)])
        resid = L @ p - z * p
        assert np.abs(resid[: n - 1]).max() < 1e-9


@pytest.mark.parametrize("w", [
    gaussian_weight(), gaussian_weight(2.5), WeightSpec("laguerre"),
    WeightSpec("laguerre", a=1.0), WeightSpec("laguerre", a=2.5),
])
def test_closed_form_recurrence_matches_lanczos(w):
    # lanczos on the weight's refined rule, as toda poly builds it
    want = weight_recurrence(w, 8, ())
    got = w.recurrence(8)
    assert got.shape == (2, 8)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("w", [uniform_weight(),
                               WeightSpec("gaussian", times=[0.0, 0.1])])
def test_closed_form_recurrence_needs_a_classical_weight_at_time_0(w):
    with pytest.raises(UsageError):
        w.recurrence(4)
