import math
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from laxlab.errors import (
    DegenerateFlagError,
    DimensionError,
    DomainError,
    NumericalError,
    SymmetryError,
    UsageError,
)
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import quadrature, special
from laxlab.mathcore.linalg import sqrtm
from laxlab.mathcore.ode import GUARD_INTERVAL, MAX_STEPS, rk4
from laxlab.mathcore.special import (
    AIRY_MIN_ARG,
    AIRY_UNDERFLOW,
    BESSEL_MAX_ARG,
    BESSEL_MAX_MARCH_NU,
    BESSEL_SERIES_TOP,
)
from laxlab.mathcore import (
    airy_ai_vec,
    airy_taylor_coefficients,
    bessel_sqrt_taylor_coefficients,
    bessel_sqrt_vec,
    cut_rules,
    expm,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    interval_rule,
    lu_determinant,
    pfaffian,
    qr_decompose,
    skew_borel,
    symmetric_eigen,
    union_rule,
)
from skew_reference import block_j


# ----- oracles (written before the implementations they check) -----

def cofactor_det(m):
    """O(n!) cofactor-expansion determinant, the independent oracle."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * m[0, j] * cofactor_det(minor)
    return total


def pfaffian_4x4_oracle(a):
    """Classical 4x4 expansion a12 a34 - a13 a24 + a14 a23."""
    return a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]


def airy_series_oracle(x, digits=40):
    """40-digit Maclaurin evaluation of Ai via the two standard series."""
    with mpmath.workdps(digits):
        one_third = mpmath.mpf(1) / 3
        c1 = mpmath.mpf(3) ** (-mpmath.mpf(2) / 3) / mpmath.gamma(2 * one_third)
        c2 = mpmath.mpf(3) ** (-one_third) / mpmath.gamma(one_third)
        xm = mpmath.mpf(x)
        f = mpmath.mpf(1)
        g = xm
        total = c1 * f - c2 * g
        term_f, term_g = f, g
        for k in range(1, 200):
            term_f *= xm ** 3 / ((3 * k) * (3 * k - 1))
            term_g *= xm ** 3 / ((3 * k + 1) * (3 * k))
            total += c1 * term_f - c2 * term_g
            if abs(term_f) < mpmath.mpf(10) ** (-digits - 5) and abs(
                term_g
            ) < mpmath.mpf(10) ** (-digits - 5):
                break
        return float(total)


# ----- determinants -----

def test_lu_determinant_identity():
    assert lu_determinant(np.eye(3)) == pytest.approx(1.0)


def test_lu_determinant_2x2_closed_form():
    m = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    assert lu_determinant(m) == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_lu_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(7)
    mu = rng.uniform(size=11)
    m = np.array([[mu[i + j] for j in range(6)] for i in range(6)])
    assert lu_determinant(m) == pytest.approx(cofactor_det(m), abs=1e-12)


def test_lu_determinant_rejects_nonsquare():
    with pytest.raises(DimensionError):
        lu_determinant(np.zeros((2, 3)))


# ----- pfaffian -----

def test_pfaffian_2x2():
    assert pfaffian(np.array([[0.0, 3.0], [-3.0, 0.0]])) == pytest.approx(3.0)


def test_pfaffian_4x4_expansion():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    a = a - a.T
    assert pfaffian(a) == pytest.approx(pfaffian_4x4_oracle(a), rel=1e-12)


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(8, 8))
        a = a - a.T
        pf = pfaffian(a)
        det = lu_determinant(a)
        assert pf * pf == pytest.approx(det, rel=1e-10)


def test_pfaffian_sign_convention():
    assert pfaffian(block_j(6)) == pytest.approx(1.0)


def test_pfaffian_odd_dimension_is_error():
    with pytest.raises(DimensionError):
        pfaffian(np.zeros((3, 3)))


def test_pfaffian_rejects_non_skew():
    with pytest.raises(SymmetryError):
        pfaffian(np.eye(4))


# ----- skew-borel -----

def test_skew_borel_fixed_point():
    assert np.allclose(skew_borel(block_j(4)), np.eye(4))


def test_skew_borel_scaling():
    q = skew_borel(2.0 * block_j(4))
    assert np.allclose(q, np.eye(4) / math.sqrt(2.0))


def test_skew_borel_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.normal(size=(6, 6))
        a = a - a.T + 4.0 * block_j(6)  # bias towards positive leading pfaffians
        try:
            q = skew_borel(a)
        except DegenerateFlagError:
            continue
        assert np.abs(q @ a @ q.T - block_j(6)).max() < 1e-10
        # block-lower-triangular with scalar 2x2 diagonal blocks
        for k in range(0, 6, 2):
            assert q[k, k] == pytest.approx(q[k + 1, k + 1], rel=1e-12)
            assert q[k, k + 1] == 0.0
            if k + 2 < 6:
                assert np.abs(q[k, k + 2:]).max() == 0.0
                assert np.abs(q[k + 1, k + 2:]).max() == 0.0


def test_skew_borel_degenerate_flag():
    a = np.zeros((4, 4))
    a[0, 1] = 1e-30
    a[1, 0] = -1e-30
    a[2, 3] = 1.0
    a[3, 2] = -1.0
    with pytest.raises(DegenerateFlagError):
        skew_borel(a)


def test_skew_borel_flag_names_block_pivot_and_floor():
    tiny = np.zeros((4, 4))
    tiny[0, 1], tiny[1, 0] = 1e-30, -1e-30
    with pytest.raises(DegenerateFlagError, match=r"block 0 is 1e-30; .*floor"
                       r" .*below the degeneracy threshold"):
        skew_borel(tiny)
    negative = block_j(4)
    negative[2, 3], negative[3, 2] = -1.0, 1.0
    with pytest.raises(DegenerateFlagError,
                       match=r"block 1 is -1; .*floor .*clearly negative"):
        skew_borel(negative)
    # leading 4x4 Pfaffian 1*1 - 1*1 = 0: the pivot is no larger than the
    # rounding of the entries
    vanishing = block_j(4)
    vanishing[0, 2], vanishing[1, 3] = 1.0, 1.0
    vanishing[2, 0], vanishing[3, 1] = -1.0, -1.0
    with pytest.raises(DegenerateFlagError,
                       match=r"block 1 .*float64 cannot resolve it"):
        skew_borel(vanishing)


def random_skew_stack(rng, count, n):
    """count well-conditioned skew matrices: J plus a small skew part."""
    raw = rng.normal(size=(count, n, n))
    return block_j(n) + 0.05 * (raw - raw.swapaxes(-1, -2))


def test_skew_borel_stack_reconstructs_j():
    m = random_skew_stack(np.random.default_rng(17), 20, 10)
    q = skew_borel(m)
    assert q.shape == m.shape
    assert np.abs(q @ m @ q.swapaxes(-1, -2) - block_j(10)).max() < 1e-13


def test_skew_borel_stack_members_match_single_calls_bitwise():
    m = random_skew_stack(np.random.default_rng(19), 12, 8).reshape(3, 4, 8, 8)
    q = skew_borel(m)
    for at in np.ndindex(3, 4):
        assert np.array_equal(q[at], skew_borel(m[at]))


def test_skew_borel_stack_names_the_block_of_a_bad_member():
    m = random_skew_stack(np.random.default_rng(23), 5, 6)
    m[3] = block_j(6)
    m[3, 2, 3], m[3, 3, 2] = -1.0, 1.0
    with pytest.raises(DegenerateFlagError,
                       match=r"block 1 is -1; .*clearly negative in stack "
                             r"member 3$"):
        skew_borel(m)


# ----- qr -----

def test_qr_identity():
    q, r = qr_decompose(np.eye(3))
    assert np.allclose(q, np.eye(3))
    assert np.allclose(r, np.eye(3))


def test_qr_permutation_positive_diagonal():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    q, r = qr_decompose(m)
    assert np.allclose(q, m)
    assert np.allclose(r, np.eye(2))


def test_qr_contract_on_matrix_exponential():
    rng = np.random.default_rng(13)
    d = rng.normal(size=6)
    e = rng.uniform(0.5, 1.5, size=5)
    l0 = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    # exp(l0) via eigendecomposition (symmetric)
    w, v = np.linalg.eigh(l0)
    m = (v * np.exp(w)) @ v.T
    q, r = qr_decompose(m)
    assert np.abs(q.T @ q - np.eye(6)).max() < 1e-12
    assert np.abs(np.tril(r, -1)).max() < 1e-12
    assert np.all(np.diag(r) > 0)
    assert np.abs(q @ r - m).max() < 1e-12 * np.abs(m).max()


# ----- eigen -----

def test_symmetric_eigen_diagonal():
    assert np.allclose(symmetric_eigen(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])


def test_symmetric_eigen_swap():
    assert np.allclose(symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])


def test_symmetric_eigen_trace_det():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(8, 8))
    m = m + m.T
    lam = symmetric_eigen(m)
    assert lam.sum() == pytest.approx(np.trace(m), abs=1e-10)
    assert np.prod(lam) == pytest.approx(lu_determinant(m), rel=1e-10)


def test_symmetric_eigen_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ----- matrix functions -----

@pytest.mark.parametrize("n", [3, 6])
def test_expm_matches_scipy(n):
    # 1-norms from 1e-3 to 1e2 in one batch, so both the unscaled Pade
    # step and up to five squarings run
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(31 + n)
    norms = np.logspace(-3, 2, 11)
    a = rng.normal(size=(11, n, n)) + 1j * rng.normal(size=(11, n, n))
    a *= (norms / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
    got = expm(a)
    for g, x in zip(got, a):
        want = linalg.expm(x)
        assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)


def test_expm_of_a_real_diagonal_stack_is_real_and_diagonal():
    d = np.array([[0.0, -1.0, 2.0], [30.0, 0.5, -7.0]])
    got = expm(d[:, :, None] * np.eye(3))
    assert got.dtype == float
    diag = np.diagonal(got, axis1=-2, axis2=-1)
    assert np.all(got == diag[:, :, None] * np.eye(3))
    assert np.abs(diag / np.exp(d) - 1.0).max() <= 1e-13


def test_sqrtm_matches_the_eigen_square_root():
    rng = np.random.default_rng(37)
    v = np.eye(4) + 0.3 * rng.normal(size=(5, 4, 4))
    lam = rng.uniform(0.5, 6.0, size=(5, 4)) * np.exp(
        1j * rng.uniform(-1.2, 1.2, size=(5, 4)))
    a = v @ (lam[:, :, None] * np.linalg.inv(v))
    want = v @ (np.sqrt(lam)[:, :, None] * np.linalg.inv(v))
    got = sqrtm(a)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(got @ got - a).max() <= 1e-13 * np.abs(a).max()


@pytest.mark.parametrize("m", [
    np.diag([-1.0, 2.0]),
    np.array([[2.0, 1.0], [0.0, -1.5]]),
    np.array([[math.nan, 0.0], [0.0, 1.0]]),
])
def test_sqrtm_off_the_principal_domain_is_numerical_error(m):
    with pytest.raises(NumericalError, match="square root"):
        sqrtm(m)


# ----- quadrature -----

def test_gauss_legendre_order_one():
    x, w = gauss_legendre_rule(1, (-1.0, 1.0))
    assert x[0] == pytest.approx(0.0, abs=1e-15)
    assert w[0] == pytest.approx(2.0)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_rule(2, (-1.0, 1.0))
    assert np.dot(w, x ** 2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    for order in (3, 5, 8):
        x, w = gauss_legendre_rule(order, (0.0, 1.0))
        for deg in range(2 * order):
            assert np.dot(w, x ** deg) == pytest.approx(
                1.0 / (deg + 1), abs=1e-13
            ), (order, deg)


def test_gauss_legendre_exponential():
    x, w = gauss_legendre_rule(20, (0.0, 1.0))
    assert np.dot(w, np.exp(x)) == pytest.approx(math.e - 1.0, abs=1e-14)


def test_gauss_legendre_rejects_infinite_interval():
    with pytest.raises(DomainError):
        gauss_legendre_rule(10, (0.0, math.inf))


def test_union_rule_gaussian_integral():
    E = IntervalUnion.full_line()
    x, w = union_rule(E, 80, scale=1.0)
    val = np.dot(w, np.exp(-x * x))
    assert val == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_union_rule_disjoint_pieces():
    E = IntervalUnion([(0.0, 1.0), (2.0, 3.0)])
    x, w = union_rule(E, 16)
    assert np.dot(w, np.ones_like(x)) == pytest.approx(2.0, abs=1e-13)


def cut_rules_reference(E, k, order, scale):
    """Row per node y of piece k: a fresh union_rule on E cut at y, or an
    empty rule where the cut leaves nothing."""
    rows = []
    for y in interval_rule(*E.intervals[k], order, scale)[0]:
        lower = E.intersect(IntervalUnion.half_line_below(float(y)))
        rows.append((np.empty(0), np.empty(0)) if lower.is_empty
                    else union_rule(lower, order, scale))
    return rows


@pytest.mark.parametrize("E, order, scale", [
    (IntervalUnion.full_line(), 96, 0.5),
    (IntervalUnion.half_line_below(0.0), 64, 1.0),
    (IntervalUnion.half_line_below(1.5), 64, 0.5),
    (IntervalUnion([(-0.5, 1.25)]), 64, 1.0),
    (IntervalUnion([(0.0, 2.0)]), 64, 1.0),  # Laguerre [0, 2]
    (IntervalUnion([(0.0, math.inf)]), 48, 2.0),  # Laguerre [0, inf)
    (IntervalUnion([(-3.0, -1.0), (0.0, 0.5), (1.0, math.inf)]), 32, 1.0),
    (IntervalUnion([(-math.inf, -2.0), (-1.0, 1.0), (2.0, math.inf)]), 24,
     0.7),
    # the nodes nearest 1e16 round onto it: rules on the earlier pieces
    (IntervalUnion([(1e16, 1e16 + 8.0)]), 64, 1.0),
    (IntervalUnion([(0.0, 1.0), (1e16, 1e16 + 8.0)]), 64, 1.0),
])
def test_cut_rules_match_a_rule_per_node(E, order, scale):
    for k in range(len(E.intervals)):
        rows = [(x[r], w[r]) for x, w in cut_rules(E, k, order, scale)
                for r in range(len(x))]
        expect = cut_rules_reference(E, k, order, scale)
        assert len(rows) == len(expect)
        for (x, w), (x_ref, w_ref) in zip(rows, expect):
            assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)


@pytest.mark.parametrize("E, order, scale", [
    (IntervalUnion.full_line(), 96, 0.5),
    (IntervalUnion([(-0.5, 1.25)]), 64, 1.0),
    (IntervalUnion([(-3.0, -1.0), (0.0, 0.5), (1.0, math.inf)]), 32, 1.0),
    (IntervalUnion([(0.0, 1.0), (1e16, 1e16 + 8.0)]), 64, 1.0),
])
def test_cut_rules_in_small_chunks_match_a_rule_per_node(E, order, scale,
                                                          monkeypatch):
    monkeypatch.setattr(quadrature, "CUT_CHUNK", 500)  # a few rows a chunk
    test_cut_rules_match_a_rule_per_node(E, order, scale)


def test_cut_rules_put_cuts_on_the_left_end_first():
    E = IntervalUnion([(0.0, 1.0), (1e16, 1e16 + 8.0)])
    (head_x, head_w), (x, _) = cut_rules(E, 1, 64, 1.0)
    assert 0 < len(head_x) < 64 and len(head_x) + len(x) == 64
    assert np.array_equal(head_x[0], union_rule(IntervalUnion([(0.0, 1.0)]),
                                                64)[0])
    assert x.shape[1] == 128



def gauss_jacobi_reference(order, nu, interval):
    """Golub-Welsch for (y - lo)^nu dy on a finite interval, built afresh on
    every call, in gauss_jacobi_rule's order of float operations."""
    lo, hi = interval
    ns = np.arange(order, dtype=float)
    diag = nu * nu / ((2.0 * ns + nu) * (2.0 * ns + nu + 2.0))
    k = np.arange(1, order, dtype=float)
    off = np.sqrt(4.0 * k ** 2 * (k + nu) ** 2 / (
        (2.0 * k + nu) ** 2 * (2.0 * k + nu + 1.0) * (2.0 * k + nu - 1.0)))
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                + np.diag(off, -1))
    half = 0.5 * (hi - lo)
    mu0 = 2.0 ** (nu + 1.0) / (nu + 1.0)
    return lo + half * (vals + 1.0), half ** (nu + 1.0) * mu0 * vecs[0] ** 2


@pytest.mark.parametrize("order", [64, 96, 144])
@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0])
def test_cached_gauss_jacobi_rule_is_bit_identical(order, nu, monkeypatch):
    quadrature._base_rule.cache_clear()
    solves = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: solves.append(m) or real(m))
    for interval in ((0.0, 2.5), (0.0, 7.0), (1.0, 1.5), (0.0, 2.5)):
        x, w = gauss_jacobi_rule(order, nu, interval)
        x_ref, w_ref = gauss_jacobi_reference(order, nu, interval)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        # writing through a returned rule leaves the cached one intact
        x[:] = 0.0
        w[:] = 0.0
    assert len(solves) == 1 + 4  # the rule's once, the reference's each time


def test_gauss_jacobi_rule_errors_outlive_the_cache():
    for _ in range(2):
        with pytest.raises(NumericalError, match="overflow"):
            gauss_jacobi_rule(64, 1e3, (0.0, 10.0))
        with pytest.raises(UsageError, match="order"):
            gauss_jacobi_rule(0, 1.0, (0.0, 1.0))

# ----- special functions -----

def test_airy_matches_series_oracle():
    x = np.array([-4.0, -1.5, 0.0, 0.5, 1.0, 2.5, 4.0])
    ref = np.array([airy_series_oracle(t) for t in x])
    assert np.abs(airy_ai_vec(x)[0] - ref).max() < 1e-13


def test_airy_against_mpmath_wide_range():
    x = np.linspace(-15.0, 15.0, 61)
    ref = np.array([float(mpmath.airyai(t)) for t in x])
    refp = np.array([float(mpmath.airyai(t, 1)) for t in x])
    ai, aip = airy_ai_vec(x)
    assert np.abs(ai - ref).max() < 1e-12
    assert np.abs(aip - refp).max() < 1e-12


@pytest.mark.parametrize("lo, hi, relative, bound", [
    (-200.0, 0.0, False, 1e-14),
    (0.0, 9.3, True, 1e-14),
    (9.3, 100.0, True, 1e-12),
])
def test_airy_vec_against_mpmath_at_random_points(lo, hi, relative, bound):
    # on the oscillatory side Ai' is measured against its envelope |x|^{1/4}
    x = np.random.default_rng(0).uniform(lo, hi, 300)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.airyai(t)) for t in x])
        refp = np.array([float(mpmath.airyai(t, 1)) for t in x])
    ai, aip = airy_ai_vec(x)
    if relative:
        assert np.abs(ai / ref - 1.0).max() <= bound
        assert np.abs(aip / refp - 1.0).max() <= bound
    else:
        assert np.abs(ai - ref).max() <= bound
        envelope = np.maximum(np.abs(x), 1.0) ** 0.25
        assert (np.abs(aip - refp) / envelope).max() <= bound


def test_airy_vec_against_mpmath():
    # 0.05 apart: anchors, midpoints between anchors and points between
    x = np.linspace(-15.0, 15.0, 601)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.airyai(t)) for t in x])
        refp = np.array([float(mpmath.airyai(t, 1)) for t in x])
    ai, aip = airy_ai_vec(x)
    assert np.abs(ai - ref).max() < 1e-14
    assert np.abs(aip - refp).max() < 3e-14
    pos = x > 0.0
    assert (np.abs(ai[pos] / ref[pos] - 1.0)).max() < 3e-11


def test_airy_vec_matches_mpmath_in_the_far_tail():
    x = np.array([20.0, 20.2, 30.0, 50.0, 50.25, 80.0, 80.13, 103.8, 104.0])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.airyai(t)) for t in x])
        refp = np.array([float(mpmath.airyai(t, 1)) for t in x])
    ai, aip = airy_ai_vec(x.reshape(3, 3))
    assert np.abs(ai.ravel() / ref - 1.0).max() < 1e-12
    assert np.abs(aip.ravel() / refp - 1.0).max() < 1e-12


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_airy_ai_rejects_nonfinite(x):
    with pytest.raises(DomainError):
        airy_ai_vec(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_airy_ai_vec_rejects_nonfinite(x):
    with pytest.raises(DomainError):
        airy_ai_vec([0.0, x])


def test_airy_underflow_needs_no_power_of_x():
    # e^{-zeta} is 0 in float64 from x = 107.7 on; x ** 1.5 overflows at
    # 1e300, and x / AIRY_ANCHOR_SPACING at 1e308, which must not be reached
    x = [107.0, AIRY_UNDERFLOW, 1e5, 1e300, 1e308, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip = airy_ai_vec(x)
    assert ai[0] == pytest.approx(float(mpmath.airyai(107.0)), rel=1e-9)
    assert list(ai[1:]) == [0.0] * 5 and list(aip[1:]) == [0.0] * 5


def test_airy_accuracy_at_the_negative_bound():
    x = AIRY_MIN_ARG
    with mpmath.workdps(40):
        ref, refp = float(mpmath.airyai(x)), float(mpmath.airyai(x, 1))
    ai, aip = airy_ai_vec([x])
    assert abs(ai[0] - ref) < 1e-14 and abs(aip[0] - refp) < 4e-14


def test_airy_rejects_arguments_below_the_bound():
    for x in (AIRY_MIN_ARG - 0.01, -1e7, -1e300):
        with pytest.raises(DomainError, match="-200"):
            airy_ai_vec(x)


def test_airy_negative_envelope():
    x = np.array([-6.0, -10.0, -14.0])
    bound = 1.05 / (math.sqrt(math.pi) * np.abs(x) ** 0.25)
    assert np.all(np.abs(airy_ai_vec(x)[0]) < bound)


def bessel_at(nu, s):
    """(J_nu(s), J_nu'(s)) from the kernel pair at x = s^2:
    x d/dx J_nu(sqrt x) = (s / 2) J_nu'(s)."""
    s = np.asarray(s, dtype=float)
    f, g = bessel_sqrt_vec(nu, s * s)
    return f, 2.0 * g / s


def test_bessel_j0_at_zero():
    assert bessel_sqrt_vec(0, 0.0) == (1.0, 0.0)


def test_bessel_against_mpmath():
    s = [0.1, 1.0, 4.0, 7.9, 8.1, 15.0, 40.0, 100.0]
    for nu in [0.0, 0.25, 1.0, -0.75, 2.5]:
        got = bessel_at(nu, s)[0]
        for x, j in zip(s, got):
            ref = float(mpmath.besselj(nu, x))
            assert abs(j - ref) < 1e-12, (nu, x)


def test_bessel_prime_against_mpmath():
    s = [0.5, 3.0, 12.0, 50.0]
    for nu in [-0.5, 0.0, 0.25, 1.0, 2.5]:
        got = bessel_at(nu, s)[1]
        for x, jp in zip(s, got):
            ref = float(mpmath.besselj(nu, x, 1))
            assert abs(jp - ref) < 1e-11, (nu, x)


@pytest.mark.parametrize("nu", [20.0, 100.0, BESSEL_MAX_MARCH_NU])
def test_bessel_at_large_order_past_the_seam(nu):
    # the series ends at sqrt x = 8; the march climbs from there through
    # the growth of J_nu up to its turning point sqrt x = nu and beyond
    s = np.array([7.99, 8.0, 8.01, 8.25, 8.26, 30.0, 0.9 * nu, nu,
                  1.1 * nu, 250.0])
    j, jp = bessel_at(nu, s)
    with mpmath.workdps(40):
        for i, x in enumerate(s):
            assert abs(j[i] - float(mpmath.besselj(nu, x))) < 1e-12, x
            assert abs(jp[i] - float(mpmath.besselj(nu, x, 1))) < 1e-11, x


def test_bessel_batch_is_single_points_to_the_bit(monkeypatch):
    # on a cleared anchor cache the point at sqrt x = 100 marches first
    monkeypatch.setattr(special, "_bessel_march", {})
    x = np.array([1e4, 0.0, 1e-3, 0.5, 63.9, BESSEL_SERIES_TOP, 64.1, 70.0,
                  72.25, 400.0, 2500.0])
    single = [bessel_sqrt_vec(0.25, t) for t in x]
    f, g = bessel_sqrt_vec(0.25, x.reshape(1, -1))
    assert f.shape == g.shape == (1, x.size)
    assert np.array_equal(f[0], [p[0] for p in single])
    assert np.array_equal(g[0], [p[1] for p in single])


def test_bessel_march_is_filled_once_under_threads(monkeypatch):
    # more threads than cores, switching often, on a cleared cache: each
    # anchor is appended once, so every thread reads the serial values
    monkeypatch.setattr(special, "_bessel_march", {})
    x = np.array([1e4, 4e3, 900.0])
    serial = bessel_sqrt_vec(1.0, x)
    march = list(special._bessel_march[1.0])
    special._bessel_march.clear()
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(bessel_sqrt_vec(1.0, x)))
        for _ in range(8)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert np.array_equal(special._bessel_march[1.0], march)
    for f, g in results:
        assert np.array_equal(f, serial[0]) and np.array_equal(g, serial[1])


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_sqrt_vec(-1.5, 1.0)
    with pytest.raises(DomainError):
        bessel_sqrt_vec(0.0, -1.0)
    for x in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bessel_sqrt_vec(1.0, [1.0, x])


def test_bessel_rejects_arguments_past_the_cap(monkeypatch):
    # nothing is marched for a rejected call
    monkeypatch.setattr(special, "_bessel_march", {})
    for x in (np.nextafter(BESSEL_MAX_ARG, math.inf), 1e7, 1e300):
        with pytest.raises(DomainError, match="1e\\+06"):
            bessel_sqrt_vec(0.0, [1.0, x])
    with pytest.raises(DomainError, match="x <= 64"):
        bessel_sqrt_vec(np.nextafter(BESSEL_MAX_MARCH_NU, math.inf),
                        [1.0, np.nextafter(BESSEL_SERIES_TOP, math.inf)])
    assert special._bessel_march == {}
    # up to the series' end a large order needs no march
    assert bessel_sqrt_vec(1e3, BESSEL_SERIES_TOP) == (0.0, 0.0)


def test_bessel_accuracy_at_the_cap():
    s = math.sqrt(BESSEL_MAX_ARG)
    with mpmath.workdps(40):
        ref = float(mpmath.besselj(0.5, s)), float(mpmath.besselj(0.5, s, 1))
    j, jp = bessel_at(0.5, [s])
    assert abs(j[0] - ref[0]) < 1e-13 and abs(jp[0] - ref[1]) < 1e-13


def test_airy_taylor_coefficients_match_mpmath():
    xs = np.array([-6.0, -1.0, 0.0, 2.0, 9.0])
    ai, aip = airy_ai_vec(xs)
    coef = airy_taylor_coefficients(xs, ai, aip, 7)
    for i, x in enumerate(xs):
        for n in range(7):
            ref = float(mpmath.airyai(x, n)) / math.factorial(n)
            assert abs(coef[n, i] - ref) < 1e-12 * max(1.0, abs(ref)), (x, n)


def test_bessel_sqrt_taylor_coefficients_match_mpmath():
    # f(x) = J_nu(sqrt x); its coefficients grow like x^{-n} near 0, so
    # they are compared in the scaled form c_n x^n
    xs = np.array([0.01, 0.3, 2.0, 9.0])
    for nu in (0.0, 0.25, -0.5, 1.0):
        f, g = bessel_sqrt_vec(nu, xs)
        coef = bessel_sqrt_taylor_coefficients(nu, xs, f, g / xs, 7)
        with mpmath.workdps(40):
            for i, x in enumerate(xs):
                g = lambda t: mpmath.besselj(nu, mpmath.sqrt(t))
                for n in range(7):
                    ref = float(mpmath.diff(g, mpmath.mpf(x), n)
                                / mpmath.factorial(n) * mpmath.mpf(x) ** n)
                    got = coef[n, i] * x ** n
                    assert abs(got - ref) < 1e-12, (nu, x, n)


# ----- ODE driver -----

@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_rk4_is_fourth_order(t_end):
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    y0 = np.array([1.0, 0.5])
    evals, vecs = np.linalg.eig(a)
    exact = np.real(vecs @ (np.exp(evals * t_end) * np.linalg.solve(vecs, y0)))

    def error(step):
        y = rk4(lambda s: a @ s, y0, t_end, step)
        return np.abs(y - exact).max()

    ratio = error(0.1) / error(0.05)
    assert 14.0 < ratio < 18.0


@pytest.mark.parametrize("t_end, step", [
    (math.nan, 0.1), (math.inf, 0.1), (-math.inf, 0.1),
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -0.1),
])
def test_rk4_rejects_nonfinite_or_nonpositive_steps(t_end, step):
    with pytest.raises(UsageError):
        rk4(lambda s: s, np.ones(1), t_end, step)


def test_rk4_rejects_too_many_steps():
    calls = []
    with pytest.raises(UsageError, match="steps"):
        rk4(lambda s: calls.append(1) or s, np.ones(1), 1.0,
            1.0 / (MAX_STEPS + 1))
    assert calls == []

    class Stop(Exception):
        pass

    def stop(t, y):
        raise Stop

    # exactly MAX_STEPS steps is accepted: the first guard call stops it
    with pytest.raises(Stop):
        rk4(lambda s: s, np.ones(1), -float(MAX_STEPS), 1.0, stop)


def test_rk4_steps_land_on_t_end():
    calls, seen = [], []
    y = rk4(lambda s: calls.append(1) or np.ones(1), np.zeros(1), -0.25, 0.1,
            lambda t, state: seen.append((t, state[0])))
    assert len(calls) == 4 * 3  # steps of 0.1, 0.1 and 0.05
    assert seen == [(-0.25, y[0])]  # fewer steps than GUARD_INTERVAL
    assert y[0] == pytest.approx(-0.25, abs=1e-15)


def test_rk4_guards_every_interval_and_at_t_end():
    # 450 steps of 1/8, exact in binary: the guard runs after steps 200
    # and 400 and at t_end, each time inside the overflow errstate
    calls, seen = [], []

    def guard(t, y):
        seen.append((len(calls) // 4, t, y[0], np.geterr()["over"],
                     np.geterr()["invalid"]))

    rk4(lambda s: calls.append(1) or np.ones(1), np.zeros(1), 450 * 0.125,
        0.125, guard)
    assert GUARD_INTERVAL == 200
    assert seen == [(200, 25.0, 25.0, "ignore", "ignore"),
                    (400, 50.0, 50.0, "ignore", "ignore"),
                    (450, 56.25, 56.25, "ignore", "ignore")]
