import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from laxlab.fd import central_diff
from laxlab.errors import (
    DegenerateFlagError,
    DepthError,
    DivergenceError,
    SingularMatrixError,
    SingularTauError,
    UsageError,
)
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import pfaffian, quadrature, skew_borel, union_rule
from laxlab import pfaff
from laxlab.pfaff import (
    SkewMoments,
    evolve_skew,
    pfaff_lax,
    pfaff_ode_flow,
    pfaffkp_residual,
    project_plus,
    skew_inner_products,
    skew_endpoint_series,
)
from laxlab.tau import WeightSpec
from skew_reference import block_j, skew_from_matrix


# ----- oracles -----

def mc_eps_mu01_oracle(rng, count=400_000):
    """Monte Carlo of mu_01 = int int z sign(z - y) e^{-y^2 - z^2} dy dz."""
    sigma = 1.0 / math.sqrt(2.0)
    y = rng.normal(scale=sigma, size=count)
    z = rng.normal(scale=sigma, size=count)
    vals = z * np.sign(z - y) * math.pi  # importance norm sqrt(pi)^2
    return vals.mean(), vals.std(ddof=1) / math.sqrt(count)


def mc_pf4_oracle(rng, count=400_000):
    """Monte Carlo of (1/4!) int |Delta_4(z)| prod e^{-z_k^2} dz."""
    sigma = 1.0 / math.sqrt(2.0)
    z = rng.normal(scale=sigma, size=(count, 4))
    delta = np.ones(count)
    for i in range(4):
        for j in range(i + 1, 4):
            delta *= z[:, j] - z[:, i]
    vals = np.abs(delta) * math.pi ** 2
    return vals.mean() / 24.0, vals.std(ddof=1) / math.sqrt(count) / 24.0


def quadrature_pairing(m, i, j, order=96):
    """<q_i, q_j> recomputed by quadrature, independent of the moment
    matrix: the Wronskian single integral for alpha=+1, the antiderivative
    double integral for alpha=-1."""
    q = skew_borel(m.m)
    w = m.weight
    ci = q[i, : i + 1]
    cj = q[j, : j + 1]

    def poly(c, x):
        return sum(ck * x ** k for k, ck in enumerate(c))

    def dpoly(c, x):
        return sum(k * ck * x ** (k - 1) for k, ck in enumerate(c) if k)

    nodes, weights = union_rule(m.E, order, w.decay_scale())
    rho = w.density(nodes)
    if m.alpha == 1:
        vals = poly(ci, nodes) * dpoly(cj, nodes) - dpoly(ci, nodes) * poly(cj, nodes)
        return float(np.dot(weights * rho, vals))
    # alpha = -1: int int qi(y) qj(z) sign(z-y) rho(y) rho(z)
    total = float("nan")
    fj = np.empty_like(nodes)
    tj = float(np.dot(weights * rho, poly(cj, nodes)))
    for idx, y in enumerate(nodes):
        lower = m.E.intersect(IntervalUnion.half_line_below(float(y)))
        if lower.is_empty:
            fj[idx] = 0.0
            continue
        sn, sw = union_rule(lower, order, w.decay_scale())
        fj[idx] = float(np.dot(sw * w.density(sn), poly(cj, sn)))
    return float(np.dot(weights * rho * poly(ci, nodes), tj - 2.0 * fj))


def mp_uniform_eps_oracle(n2):
    """Pair pivots and leading Pfaffians sqrt(det_{2k}) of the uniform
    eps-pairing on [0, 1], mu_ij = (j - i) / ((i + 1)(j + 1)(i + j + 2)),
    at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        pfs = [mpmath.mpf(1)]
        for k in range(2, n2 + 1, 2):
            block = mpmath.matrix(
                [[mpmath.mpf(j - i) / ((i + 1) * (j + 1) * (i + j + 2))
                  for j in range(k)] for i in range(k)]
            )
            pfs.append(mpmath.sqrt(mpmath.det(block)))
        pivots = [float(pfs[k + 1] / pfs[k]) for k in range(len(pfs) - 1)]
        return pivots, [float(p) for p in pfs]


def gaussian_weight(b=1.0):
    return WeightSpec("gaussian", b=b)


def uniform_weight():
    return WeightSpec("uniform")


# ----- construction -----

def test_wronskian_diagonal_vanishes():
    m = skew_inner_products(gaussian_weight(), alpha=1, N=3)
    assert np.abs(np.diag(m.m)).max() == 0.0


def test_skewness_exact_by_construction():
    for alpha in (-1, 1):
        m = skew_inner_products(gaussian_weight(), alpha=alpha, N=3)
        assert np.abs(m.m + m.m.T).max() == 0.0


def test_wronskian_mu01_closed_form():
    # mu_01 = (1-0) * int rho = sqrt(pi) for the b=1 gaussian
    m = skew_inner_products(gaussian_weight(), alpha=1, N=2)
    assert m.m[0, 1] == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_eps_mu01_matches_mc_oracle():
    rng = np.random.default_rng(11)
    est, err = mc_eps_mu01_oracle(rng)
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=2)
    assert abs(m.m[0, 1] - est) < 3.0 * err


def test_uniform_moments_exact_on_interval_union():
    # piecewise double integrals over a two-piece E against the quadrature
    # route (the same weight given as a custom callable)
    E = IntervalUnion([(0.1, 0.3), (0.5, 0.9)])
    ones = WeightSpec(
        "custom",
        func=lambda z: np.ones_like(z),
        custom_support=IntervalUnion([(0.0, 1.0)]),
    )
    for alpha in (-1, 1):
        m = skew_inner_products(uniform_weight(), E, alpha=alpha, N=3)
        assert m.exact and isinstance(m.m[0, 1], Fraction)
        quad = skew_inner_products(ones, E, alpha=alpha, N=3)
        assert np.abs(np.asarray(m.m, dtype=float) - quad.m).max() < 1e-14
    m = skew_inner_products(uniform_weight(), alpha=1, N=2)
    assert m.m[1, 2] == Fraction(1, 3)  # (2 - 1) * int_0^1 y^2 dy


def test_divergent_rejected():
    with pytest.raises(DivergenceError):
        skew_inner_products(
            WeightSpec("custom", func=lambda z: np.ones_like(z)),
            E=IntervalUnion.full_line(),
            alpha=-1,
            N=2,
        )


def test_overflowing_wronskian_moments_raise_without_a_warning():
    # (j - i) raw_{i+j-1} overflows where raw itself is still finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            skew_inner_products(WeightSpec("laguerre"), alpha=1, N=48)


def eps_moments_per_node(w, E, N, order):
    """The eps-pairing moments with a fresh union_rule on E cut at every
    node and one 1-D sum per power: the loop the batched table replaces."""
    size, scale = 2 * N, w.decay_scale()

    def powers(x, wt):
        current, out = wt * w.density(x), np.empty(size)
        for j in range(size):
            out[j] = current.sum()
            current = current * x
        return out

    nodes, weights = union_rule(E, order, scale)
    f_table = np.zeros((len(nodes), size))
    for idx, y in enumerate(nodes):
        lower = E.intersect(IntervalUnion.half_line_below(float(y)))
        if not lower.is_empty:
            f_table[idx] = powers(*union_rule(lower, order, scale))
    outer = weights * w.density(nodes)
    ymoments = np.empty((size, size))
    for i in range(size):
        ymoments[i] = outer @ (powers(nodes, weights) - 2.0 * f_table)
        outer = outer * nodes
    mu = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1, size):
            mu[i, j] = 0.5 * (ymoments[i, j] - ymoments[j, i])
            mu[j, i] = -mu[i, j]
    return mu


@pytest.mark.parametrize("w, E, order", [
    (gaussian_weight(4.0), None, 96),
    (gaussian_weight(), IntervalUnion.half_line_below(1.5), 64),
    (WeightSpec("laguerre", a=1.0), IntervalUnion([(0.0, 2.0)]), 64),
    (WeightSpec("laguerre", a=2.5, b=0.5), None, 48),
    (gaussian_weight(), IntervalUnion([(-3.0, -1.0), (0.0, 0.5),
                                       (1.0, math.inf)]), 32),
])
def test_eps_moments_match_a_rule_per_node_bit_for_bit(w, E, order):
    E = w.support() if E is None else E.intersect(w.support())
    m = skew_inner_products(w, E, alpha=-1, N=5, order=order)
    assert np.array_equal(m.m, eps_moments_per_node(w, E, 5, order))


def test_eps_moments_in_small_chunks_are_bit_for_bit_the_same(monkeypatch):
    w, E = gaussian_weight(), IntervalUnion.half_line_below(1.5)
    whole = skew_inner_products(w, E, alpha=-1, N=5, order=64).m
    monkeypatch.setattr(quadrature, "CUT_CHUNK", 300)  # 4 rows a chunk
    chunked = skew_inner_products(w, E, alpha=-1, N=5, order=64).m
    assert np.array_equal(chunked, whole)


# ----- evolution -----

def test_evolve_zero_identity():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=4)
    assert evolve_skew(m, [0.0]) is m


def test_evolve_preserves_skewness_exactly():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=14)
    out = evolve_skew(m, [0.05, -0.02])
    assert np.abs(out.m + out.m.T).max() == 0.0


def test_evolve_alpha_minus_matches_quadrature():
    t1 = 0.06
    m = skew_inner_products(uniform_weight(), alpha=-1, N=9)
    out = evolve_skew(m, [t1])
    shifted = skew_inner_products(
        WeightSpec(
            "custom",
            func=lambda z: np.exp(t1 * z),
            custom_support=IntervalUnion([(0.0, 1.0)]),
        ),
        alpha=-1,
        N=3,
    )
    assert np.abs(out.m[:6, :6] - shifted.m).max() < 1e-9


def test_evolve_alpha_plus_matches_quadrature():
    # plain-t evolution corresponds to the weight picking up e^{2 sum t z^k}
    t1 = 0.06
    m = skew_inner_products(uniform_weight(), alpha=1, N=9)
    out = evolve_skew(m, [t1])
    shifted = skew_inner_products(
        WeightSpec(
            "custom",
            func=lambda z: np.exp(2.0 * t1 * z),
            custom_support=IntervalUnion([(0.0, 1.0)]),
        ),
        alpha=1,
        N=3,
    )
    assert np.abs(out.m[:6, :6] - shifted.m).max() < 1e-9


def test_evolve_depth_error():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=3)
    with pytest.raises(DepthError):
        evolve_skew(m, [0.1])


# ----- tau tables -----

def test_tau2_is_mu01():
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=3)
    assert pfaffian(m.block(2)) == m.m[0, 1]


def test_pf_squared_is_det():
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=4)
    for n in (1, 2, 3, 4):
        block = m.block(2 * n)
        assert pfaffian(block) ** 2 == pytest.approx(
            np.linalg.det(block), rel=1e-10
        )


def test_tau4_matches_mc_oracle():
    rng = np.random.default_rng(21)
    est, err = mc_pf4_oracle(rng)
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=2)
    tau4 = pfaffian(m.block(4))
    assert abs(tau4 - est) < 3.0 * err


def test_uniform_pivots_and_taus_match_mpmath_oracle():
    # the deep pivots (2e-24 at block 9) are far below the float64 rounding
    # of the moments; only factoring the exact moments resolves them
    pivots, taus = mp_uniform_eps_oracle(20)
    m = skew_inner_products(uniform_weight(), alpha=-1, N=10)
    q = skew_borel(m.m)
    got = [1.0 / q[2 * k, 2 * k] ** 2 for k in range(10)]
    assert np.abs(np.array(got) / pivots - 1.0).max() < 1e-12
    table = np.array([pfaffian(m.block(2 * k)) for k in range(11)])
    assert np.abs(table / taus - 1.0).max() < 1e-12


def test_uniform_float_pivots_within_rounding_floor_raise():
    # from the correctly rounded float64 moments, the pivot of block 5
    # (1.6e-14) already lies within its rounding floor (6.5e-14), and the
    # deeper ones are positive noise
    m = skew_inner_products(uniform_weight(), alpha=-1, N=10)
    with pytest.raises(DegenerateFlagError, match=r"lies within it"):
        skew_borel(np.asarray(m.m, float))


# ----- projections -----

def test_projection_partition_and_idempotence():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8))
    # P_+ annihilates the complement a - P_+(a), so the two split a
    assert np.abs(project_plus(a - project_plus(a))).max() < 1e-13
    assert np.abs(project_plus(project_plus(a)) - project_plus(a)).max() < 1e-13


def test_projection_images():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(8, 8))
    p = project_plus(a)
    # block lower triangular with 2x2 diagonal blocks proportional to Id
    for r in range(4):
        for c in range(r + 1, 4):
            assert np.abs(p[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]).max() < 1e-13
        blk = p[2 * r : 2 * r + 2, 2 * r : 2 * r + 2]
        assert abs(blk[0, 0] - blk[1, 1]) < 1e-13
        assert abs(blk[0, 1]) < 1e-13 and abs(blk[1, 0]) < 1e-13
    # complementary part is symplectic: J x^T J = x
    x = a - project_plus(a)
    j = block_j(8)
    assert np.abs(j @ x.T @ j - x).max() < 1e-13


def dense_project_plus(a):
    """P_+ with J x^T J formed by two dense products with J."""
    rows = np.arange(a.shape[0])[:, None] // 2
    cols = np.arange(a.shape[0])[None, :] // 2
    low, mid, up = (np.where(mask, a, 0.0)
                    for mask in (rows > cols, rows == cols, rows < cols))
    j = block_j(a.shape[0])
    return (low - j @ up.T @ j) + 0.5 * (mid - j @ mid.T @ j)


@pytest.mark.parametrize("n", [2, 6, 8])
def test_projection_equals_dense_formula_exactly(n):
    a = np.random.default_rng(n).normal(size=(n, n))
    assert np.array_equal(project_plus(a), dense_project_plus(a))


# ----- Lax matrix -----

def test_lax_of_j_is_shift():
    m = skew_from_matrix(block_j(8))
    L = pfaff_lax(m)
    assert np.abs(L - np.eye(8, k=1)).max() < 1e-12


def test_lax_block_hessenberg_structure():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=4)
    L = pfaff_lax(m)
    for r in range(4):
        for c in range(r + 2, 4):
            assert np.abs(L[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]).max() < 1e-10


def test_lax_nilpotent_char_poly_along_flow():
    # L = Q Lambda Q^{-1} is similar to the shift, so every characteristic
    # polynomial coefficient except the leading one vanishes; check the
    # computed coefficients stay tiny along the moment flow
    m = skew_inner_products(uniform_weight(), alpha=-1, N=10)
    for t1 in (0.0, 0.04, 0.08):
        mm = evolve_skew(m, [t1]) if t1 else m
        L = pfaff_lax(mm)
        coeffs = np.poly(L)[1:]
        assert np.abs(coeffs).max() < 1e-8


# ----- ODE flow and route agreement -----

def test_ode_flow_t0_identity():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=4)
    L0 = pfaff_lax(m)
    L = pfaff_ode_flow(L0, 1, 0.0, 1e-2)
    assert np.abs(L - L0).max() < 1e-14


def test_route_agreement_moment_vs_ode():
    m = skew_inner_products(uniform_weight(), alpha=-1, N=10)
    t1 = 0.1
    via_moments = pfaff_lax(evolve_skew(m, [t1]))  # size 8
    L = pfaff_ode_flow(pfaff_lax(m), 1, t1, 1e-3)
    assert np.abs(L[:6, :6] - via_moments[:6, :6]).max() < 1e-6


@pytest.mark.parametrize("k", [1, 2])
def test_one_ode_step_matches_reference(k):
    rng = np.random.default_rng(9)
    L0 = rng.normal(size=(8, 8))
    h = 1e-2

    def rhs(L):
        b = -dense_project_plus(np.linalg.matrix_power(L, k))
        return b @ L - L @ b

    k1 = rhs(L0)
    k2 = rhs(L0 + 0.5 * h * k1)
    k3 = rhs(L0 + 0.5 * h * k2)
    k4 = rhs(L0 + h * k3)
    want = L0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = pfaff_ode_flow(L0, k, h, h)
    assert np.abs(got - want).max() < 1e-14


# ----- skew-orthogonal polynomials -----

def test_skew_orthopoly_pairing_is_j():
    for alpha in (-1, 1):
        m = skew_inner_products(gaussian_weight(), alpha=alpha, N=4)
        j = block_j(6)
        for i in range(6):
            for k in range(6):
                val = quadrature_pairing(m, i, k)
                assert val == pytest.approx(j[i, k], abs=1e-8)


def skew_orthopoly(m, n, z):
    """q_n(z): row n of the skew-Borel factor applied to (1, z, ..., z^n)."""
    return np.power.outer(z, np.arange(n + 1)) @ skew_borel(m.m)[n, : n + 1]


def test_skew_orthopoly_parity():
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=4)
    for n in (0, 2):
        vals_p = skew_orthopoly(m, 2 * n, np.array([0.3, 1.1]))
        vals_m = skew_orthopoly(m, 2 * n, np.array([-0.3, -1.1]))
        assert np.abs(vals_p - vals_m).max() < 1e-10


def test_skew_orthopoly_tau_shift_formula():
    # q_{2n}(z) = z^{2n} h_{2n}^{-1/2} tau_{2n}(t - [z^{-1}]) / tau_{2n},
    # with the shifted tau computed from the exact moment combination
    # mu'_{ij} = mu_{ij} - (mu_{i+1,j} + mu_{i,j+1})/z + mu_{i+1,j+1}/z^2
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=4)
    taus = [pfaffian(m.block(2 * k)) for k in range(4)]
    z = 1.7
    for n in (1, 2):
        n2 = 2 * n
        mu = m.m
        shifted = (
            mu[:n2, :n2]
            - (mu[1 : n2 + 1, :n2] + mu[:n2, 1 : n2 + 1]) / z
            + mu[1 : n2 + 1, 1 : n2 + 1] / z ** 2
        )
        h = taus[n + 1] / taus[n]
        expected = z ** n2 * pfaffian(shifted) / (math.sqrt(h) * taus[n])
        assert skew_orthopoly(m, n2, z) == pytest.approx(
            expected, rel=1e-10
        )


# ----- Pfaff-KP -----

def test_pfaffkp_residual_gaussian_alpha_minus():
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=6)
    assert abs(pfaffkp_residual(m, 2)) < 1e-6


def test_pfaffkp_residual_laguerre_alpha_plus():
    w = WeightSpec("laguerre", a=1.0, b=1.0)
    m = skew_inner_products(w, alpha=1, N=6)
    assert abs(pfaffkp_residual(m, 2)) < 1e-6


def test_pfaffkp_residual_n4():
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=8)
    assert abs(pfaffkp_residual(m, 4)) < 1e-6


def test_pfaffkp_degenerate_tau_flagged():
    mat = np.zeros((8, 8))
    # leading 4x4 Pfaffian is 1*1 - 1*1 + 0 = 0
    pairs = {(0, 1): 1.0, (2, 3): 1.0, (0, 2): 1.0, (1, 3): 1.0, (4, 5): 1.0, (6, 7): 1.0}
    for (i, j), v in pairs.items():
        mat[i, j] = v
        mat[j, i] = -v
    m = skew_from_matrix(mat)
    with pytest.raises(SingularTauError):
        pfaffkp_residual(m, 4)
    with pytest.raises(DegenerateFlagError):
        pfaff_lax(m)


def test_pfaff_lax_singular_factor_is_numerical_error(monkeypatch):
    # skew_borel's Q has nonzero diagonal pivots, so only a broken factor
    # can reach the solve
    monkeypatch.setattr(pfaff, "skew_borel", lambda m: np.zeros(m.shape))
    with pytest.raises(SingularMatrixError):
        pfaff_lax(skew_from_matrix(block_j(4)))


def test_pfaffkp_odd_n_rejected():
    m = skew_inner_products(gaussian_weight(), alpha=-1, N=6)
    with pytest.raises(UsageError):
        pfaffkp_residual(m, 3)


def test_skew_moments_validation():
    with pytest.raises(UsageError):
        SkewMoments(
            m=np.ones((4, 4)),
            alpha=-1,
            weight=gaussian_weight(),
            E=IntervalUnion.full_line(),
        )


# ----- endpoint Taylor matrices -----

@pytest.mark.parametrize("alpha", [-1, 1])
@pytest.mark.parametrize("w, pieces, which, sigma", [
    (WeightSpec("gaussian"), [(-math.inf, -1.0), (0.5, 1.5)], 0, 1.0),
    (WeightSpec("gaussian"), [(-math.inf, -1.0), (0.5, 1.5)], 1, -1.0),
    (WeightSpec("laguerre", a=1.0), [(0.5, 2.0), (3.0, math.inf)], 0, -1.0),
    (WeightSpec("laguerre", a=1.0), [(0.0, 2.0)], 1, 1.0),
])
def test_skew_endpoint_series_match_central_differences(alpha, w, pieces,
                                                        which, sigma):
    """r! G_r is the r-th derivative of the skew moments as the endpoint
    moves; lower and interior endpoints included."""
    E = IntervalUnion(pieces)
    c = E.finite_endpoints()[which]

    def entry(i, j):
        def f(d):
            moved = [tuple(x + d if x == c else x for x in p) for p in pieces]
            return skew_inner_products(w, IntervalUnion(moved), alpha=alpha,
                                       N=3, order=96).m[i, j]
        return f

    gs = skew_endpoint_series(
        skew_inner_products(w, E, alpha=alpha, N=3, order=96), c, sigma, 3)
    # wider steps at higher order keep the stencils' rounding small
    for r, h in ((1, 1e-3), (2, 1e-2), (3, 4e-2)):
        for i, j in ((0, 1), (1, 4), (2, 5)):
            fd = central_diff(entry(i, j), r, h, richardson=True, levels=2)
            exact = math.factorial(r) * gs[r - 1].m[i, j]
            assert exact == pytest.approx(fd, rel=1e-5, abs=1e-7), (r, i, j)
