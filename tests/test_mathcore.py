import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from laxlab.errors import (
    DegenerateFlagError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    SymmetryError,
    UsageError,
)
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import quadrature
from laxlab.mathcore.ode import MAX_STEPS, rk4
from laxlab.mathcore.special import AIRY_MIN_ARG, AIRY_UNDERFLOW
from laxlab.mathcore import (
    airy_ai,
    airy_ai_prime,
    airy_ai_vec,
    airy_taylor_coefficients,
    bessel_j,
    bessel_j_prime,
    bessel_sqrt_taylor_coefficients,
    cholesky_borel,
    cut_rules,
    gauss_legendre_rule,
    integrate,
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


def exact(a):
    """Object array of Fractions holding the float entries of a exactly."""
    return np.vectorize(Fraction, otypes=[object])(a)


def test_pfaffian_exact_input_rounds_once():
    # integer entries: the expansion is an exact integer, and the rational
    # elimination must reproduce it exactly whatever the pivots divide by
    rng = np.random.default_rng(8)
    a = rng.integers(-9, 10, size=(4, 4)).astype(float)
    a = a - a.T
    assert pfaffian(exact(a)) == pfaffian_4x4_oracle(a)
    with pytest.raises(SymmetryError):
        pfaffian(exact(np.eye(4)))


# ----- cholesky-borel -----

def test_cholesky_borel_identity():
    assert np.allclose(cholesky_borel(np.eye(4)), np.eye(4))


def test_cholesky_borel_diagonal():
    s = cholesky_borel(np.diag([4.0, 9.0]))
    assert np.allclose(s, np.diag([0.5, 1.0 / 3.0]))


def test_cholesky_borel_reconstructs_identity():
    mu = [1.0 / (k + 1) for k in range(8)]
    m = np.array([[mu[i + j] for j in range(4)] for i in range(4)])
    s = cholesky_borel(m)
    assert np.abs(s @ m @ s.T - np.eye(4)).max() < 1e-10
    assert np.allclose(s, np.tril(s))


def test_cholesky_borel_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_borel(np.diag([1.0, -1.0]))


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


def test_skew_borel_exact_input():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(6, 6))
    a = a - a.T + 4.0 * block_j(6)
    q = skew_borel(a)
    assert np.abs(skew_borel(exact(a)) - q).max() < 1e-12 * np.abs(q).max()
    # the sign test is exact: a pivot of 2^-200 is positive, one of
    # -2^-200 is not, although float64 could not tell either from 0
    tiny = exact(block_j(4))
    tiny[2, 3], tiny[3, 2] = Fraction(1, 2 ** 200), -Fraction(1, 2 ** 200)
    assert skew_borel(tiny)[2, 2] == 2.0 ** 100
    tiny[2, 3], tiny[3, 2] = tiny[3, 2], tiny[2, 3]
    with pytest.raises(DegenerateFlagError, match="block 1 is negative"):
        skew_borel(tiny)


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
    val = integrate(lambda z: np.exp(-z * z), E, 80, scale=1.0)
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


# ----- special functions -----

def test_airy_matches_series_oracle():
    for x in [-4.0, -1.5, 0.0, 0.5, 1.0, 2.5, 4.0]:
        assert airy_ai(x) == pytest.approx(airy_series_oracle(x), abs=1e-13)


def test_airy_against_mpmath_wide_range():
    for x in np.linspace(-15.0, 15.0, 61):
        ref = float(mpmath.airyai(x))
        refp = float(mpmath.airyai(x, 1))
        assert abs(airy_ai(x) - ref) < 1e-12, x
        assert abs(airy_ai_prime(x) - refp) < 1e-12, x


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


def test_airy_vec_matches_scalar_in_the_far_tail():
    x = np.array([20.0, 20.2, 30.0, 50.0, 50.25, 80.0, 80.13, 103.8, 104.0])
    ai, aip = airy_ai_vec(x.reshape(3, 3))
    for t, v, d in zip(x, ai.ravel(), aip.ravel()):
        assert v == pytest.approx(airy_ai(t), rel=1e-12, abs=0.0)
        assert d == pytest.approx(airy_ai_prime(t), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_airy_ai_rejects_nonfinite(x):
    with pytest.raises(DomainError):
        airy_ai(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_airy_ai_prime_rejects_nonfinite(x):
    with pytest.raises(DomainError):
        airy_ai_prime(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_airy_ai_vec_rejects_nonfinite(x):
    with pytest.raises(DomainError):
        airy_ai_vec([0.0, x])


def test_airy_underflow_needs_no_power_of_x():
    # e^{-zeta} is 0 in float64 from x = 107.7 on; x ** 1.5 overflows at
    # 1e300, which must not be reached
    for x in (AIRY_UNDERFLOW, 1e5, 1e300, 1.7e308):
        assert airy_ai(x) == 0.0 and airy_ai_prime(x) == 0.0
    ai, aip = airy_ai_vec([107.0, AIRY_UNDERFLOW, 1e300])
    assert ai[0] == pytest.approx(float(mpmath.airyai(107.0)), rel=1e-9)
    assert list(ai[1:]) == [0.0, 0.0] and list(aip[1:]) == [0.0, 0.0]


def test_airy_accuracy_at_the_negative_bound():
    x = AIRY_MIN_ARG
    with mpmath.workdps(40):
        ref, refp = float(mpmath.airyai(x)), float(mpmath.airyai(x, 1))
    assert abs(airy_ai(x) - ref) < 1e-12
    assert abs(airy_ai_prime(x) - refp) < 2e-11
    ai, aip = airy_ai_vec([x])
    assert abs(ai[0] - ref) < 1e-12 and abs(aip[0] - refp) < 2e-11


@pytest.mark.parametrize("f", [airy_ai, airy_ai_prime, airy_ai_vec])
def test_airy_rejects_arguments_below_the_bound(f):
    for x in (AIRY_MIN_ARG - 0.01, -1e7, -1e300):
        with pytest.raises(DomainError, match="-200"):
            f(x)


def test_airy_negative_envelope():
    for x in [-6.0, -10.0, -14.0]:
        bound = 1.05 / (math.sqrt(math.pi) * abs(x) ** 0.25)
        assert abs(airy_ai(x)) < bound


def test_bessel_j0_at_zero():
    assert bessel_j(0, 0.0) == pytest.approx(1.0)


def test_bessel_against_mpmath():
    for nu in [0.0, 0.25, 1.0, -0.75, 2.5]:
        for x in [0.1, 1.0, 4.0, 7.9, 8.1, 15.0, 40.0, 100.0]:
            ref = float(mpmath.besselj(nu, x))
            assert abs(bessel_j(nu, x) - ref) < 1e-12, (nu, x)


def test_bessel_prime_against_mpmath():
    for nu in [0.0, 0.25]:
        for x in [0.5, 3.0, 12.0, 50.0]:
            ref = float(mpmath.besselj(nu, x, 1))
            assert abs(bessel_j_prime(nu, x) - ref) < 1e-11, (nu, x)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1.5, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)


def test_airy_taylor_coefficients_match_mpmath():
    xs = np.array([-6.0, -1.0, 0.0, 2.0, 9.0])
    ai = np.array([airy_ai(x) for x in xs])
    aip = np.array([airy_ai_prime(x) for x in xs])
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
        s = np.sqrt(xs)
        f = np.array([bessel_j(nu, t) for t in s])
        fp = np.array([bessel_j_prime(nu, t) for t in s]) / (2.0 * s)
        coef = bessel_sqrt_taylor_coefficients(nu, xs, f, fp, 7)
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

    def stop(steps, t, y):
        raise Stop

    # exactly MAX_STEPS steps is accepted
    with pytest.raises(Stop):
        rk4(lambda s: s, np.ones(1), -float(MAX_STEPS), 1.0, stop)


def test_rk4_steps_land_on_t_end():
    times = []
    rk4(lambda s: np.ones(1), np.zeros(1), -0.25, 0.1,
        lambda steps, t, state: times.append((steps, t)))
    assert [k for k, _ in times] == [1, 2, 3]
    assert times[-1][1] == pytest.approx(-0.25, abs=1e-15)
