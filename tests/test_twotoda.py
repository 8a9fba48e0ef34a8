import math

import numpy as np
import pytest

from evolution_reference import (
    direction_matrices,
    polarized,
    reference_evolution,
)
from laxlab.errors import (
    DivergenceError,
    PrecisionError,
    SingularTauError,
    UsageError,
)
from laxlab.intervals import IntervalUnion
from laxlab import twotoda
from laxlab.mathcore import gauss_legendre_rule, lu_determinant, union_rule
from laxlab.tau import logdet_partials, solved
from laxlab.twotoda import (
    BoundaryOperators,
    bimoments,
    coupled_pde_residual,
    dlog_tau2,
    gap_log_tau_ratio_taylor,
    kp_in_t_residual,
    wronskian_bracket_residual,
    wronskian_identity_residual,
)


# ----- oracles -----

def mc_mu11_oracle(c, rng, count=400_000):
    """Monte Carlo of int int x y e^{-(x^2+y^2)/2 + c x y} dx dy using a
    wide Gaussian proposal (variance 2 per coordinate)."""
    s2 = 2.0
    x = rng.normal(scale=math.sqrt(s2), size=count)
    y = rng.normal(scale=math.sqrt(s2), size=count)
    log_q = -(x ** 2 + y ** 2) / (2.0 * s2) - math.log(2.0 * math.pi * s2)
    log_f = -(x ** 2 + y ** 2) / 2.0 + c * x * y
    vals = x * y * np.exp(log_f - log_q)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(count)


def gram_schmidt_h_oracle(mu, n):
    """h_0..h_{n-1} by explicit bi-orthogonalization of monomials in the
    bi-moment pairing <x^i, y^j> = mu_{ij}; independent of determinants."""
    left = []  # coefficient vectors of p1_k
    right = []  # coefficient vectors of p2_k
    hs = []
    size = n + 1
    for k in range(n):
        a = np.zeros(size)
        a[k] = 1.0
        b = np.zeros(size)
        b[k] = 1.0
        for i in range(k):
            a -= (a @ mu[:size, :size] @ right[i]) / hs[i] * left[i]
            b -= (left[i] @ mu[:size, :size] @ b) / hs[i] * right[i]
        left.append(a)
        right.append(b)
        hs.append(a @ mu[:size, :size] @ b)
    return np.array(hs)


def rho0(c, x, y):
    return np.exp(-0.5 * x ** 2 - 0.5 * y ** 2 + c * x * y)


def bimoment_series_oracle(c, E1, E2, N, order, v, degree):
    """Taylor matrices G_0..G_degree of the N x N bi-moments over E1 x E2
    as every node moves by h (v_a, v_b) and the coupling by h v_c: on
    (-inf, a] x (-inf, b] the exact motion of the endpoints, since a
    half-line rule is a translate of its endpoint.  The exponent is then a
    cubic phi_0 + h phi_1 + h^2 phi_2 + h^3 phi_3, and K' = phi' K."""
    scale = math.sqrt(2.0 / (1.0 - abs(c)))
    x, wx = union_rule(E1, order, scale)
    y, wy = union_rule(E2, order, scale)
    va, vb, vc = v
    xs, ys, xy = x[:, None], y[None, :], np.outer(x, y)
    kernel = [rho0(c, xs, ys)]
    phi = [None, (c * vb - va) * xs + (c * va - vb) * ys + vc * xy,
           c * va * vb - 0.5 * (va ** 2 + vb ** 2) + vc * (vb * xs + va * ys),
           vc * va * vb]
    for r in range(1, degree + 1):
        kernel.append(sum(j * phi[j] * kernel[r - j]
                          for j in range(1, min(r, 3) + 1)) / r)
    powers = []  # [h^r] w (z + h dz)^i, one factor z + h dz at a time
    for z, w, dz in ((x, wx, va), (y, wy, vb)):
        p = np.zeros((degree + 1, len(z), N))
        p[0, :, 0] = 1.0
        for i in range(1, N):
            p[:, :, i] = p[:, :, i - 1] * z
            p[1:, :, i] += dz * p[:-1, :, i - 1]
        powers.append(p * w[:, None])
    px, py = powers
    left = [sum(px[p].T @ kernel[r - p] for p in range(r + 1))
            for r in range(degree + 1)]
    return [sum(left[u] @ py[r - u] for u in range(r + 1))
            for r in range(degree + 1)]


# ----- construction -----

def test_mu00_closed_form():
    c = 0.4
    m = bimoments(c, N=2)
    assert m[0, 0] == pytest.approx(
        2.0 * math.pi / math.sqrt(1.0 - c * c), rel=1e-12
    )


def test_c0_factorizes():
    m = bimoments(0.0, N=4)
    assert abs(m[1, 0]) < 1e-12
    # mu_{ij} = (1-D gaussian moment i) * (moment j)
    g = [math.sqrt(2.0 * math.pi), 0.0, math.sqrt(2.0 * math.pi)]
    assert m[2, 2] == pytest.approx(g[2] * g[2], rel=1e-12)


def test_mu11_matches_mc_oracle():
    rng = np.random.default_rng(33)
    est, err = mc_mu11_oracle(0.5, rng)
    m = bimoments(0.5, N=2)
    assert abs(m[1, 1] - est) < 3.0 * err


def test_coupling_bound_enforced():
    with pytest.raises(DivergenceError):
        bimoments(1.0, N=2)


# ----- evolution -----

def test_evolution_identity_and_group_law():
    m = bimoments(0.3, N=40)
    assert np.array_equal(bimoments(0.3, N=40, t=[0.0], s=[0.0]), m)
    t1, t2 = [0.04], [-0.02]
    s1, s2 = [0.03], [0.01]
    # moments at (t1, s1), moved on by (t2, s2) with the shift series
    a = reference_evolution(bimoments(0.3, N=40, t=t1, s=s1), t2,
                            [-v for v in s2])
    b = bimoments(0.3, N=28, t=[t1[0] + t2[0]], s=[s1[0] + s2[0]])
    assert np.abs(a - b).max() < 1e-12 * np.abs(b).max()


def test_evolution_matches_quadrature_on_box():
    c, t1, s1 = 0.5, 0.07, -0.05
    box = IntervalUnion([(0.0, 1.0)])
    out = bimoments(c, (box, box), N=4, order=48, t=[t1], s=[s1])
    x, wx = gauss_legendre_rule(48, (0.0, 1.0))
    y, wy = gauss_legendre_rule(48, (0.0, 1.0))
    kernel = rho0(c, x[:, None], y[None, :]) * np.exp(
        t1 * x[:, None] - s1 * y[None, :]
    )
    for i in range(3):
        for j in range(3):
            direct = (wx * x ** i) @ kernel @ (wy * y ** j)
            assert out[i, j] == pytest.approx(direct, abs=1e-9)


# ----- tau determinants -----

def test_tau1_is_mu00():
    m = bimoments(0.2, N=3)
    assert lu_determinant(m[:1, :1]) == m[0, 0]


def test_tau2_matches_gram_schmidt_oracle():
    m = bimoments(0.5, N=5)
    hs = gram_schmidt_h_oracle(m, 2)
    assert lu_determinant(m[:2, :2]) == pytest.approx(hs[0] * hs[1], rel=1e-10)


def test_h_matches_tau_ratio():
    m = bimoments(0.5, N=6)
    taus = [1.0] + [lu_determinant(m[:k, :k]) for k in range(1, 5)]
    hs = gram_schmidt_h_oracle(m, 4)
    for j in range(4):
        assert hs[j] == pytest.approx(taus[j + 1] / taus[j], rel=1e-10)


# ----- exact derivative identities -----

def test_dlog_first_order_against_fd():
    m = bimoments(0.5, N=30)

    def f(t1):
        return math.log(lu_determinant(bimoments(0.5, N=2, t=[t1])))

    from laxlab.fd import central_diff

    fd = central_diff(f, 1, 1e-2, richardson=True)
    assert dlog_tau2(m, 2, tlist=(1,)) == pytest.approx(fd, abs=1e-9)


def test_dlog_tau2_matches_polarized_jets():
    # at a generic (t, s) no partial vanishes by symmetry, so polarization
    # of the directional log-det jets is an accurate reference
    m = bimoments(0.5, N=10, t=[0.1], s=[-0.07])

    def directional(d, order):  # d = (t1, t2, s1, s2)
        d = np.pad(d, (0, 4 - len(d)))
        g = direction_matrices(m, 2, order, rows=d[:2], cols=-d[2:])
        return logdet_partials(solved(g[0], lambda r: g[r[0]]),
                               [(r,) for r in range(1, order + 1)])

    for tlist, slist in (((1,), (1,)), ((1,), (2,)), ((2,), (1,)),
                         ((1, 1), (2,)), ((2,), (1, 1)), ((1, 2), (1,))):
        ks = list(tlist) + [2 + b for b in slist]
        assert dlog_tau2(m, 2, tlist, slist) == pytest.approx(
            polarized(directional, ks), rel=1e-10)


def test_dlog_tau2_singular_block_is_singular_tau_error():
    with pytest.raises(SingularTauError):
        dlog_tau2(np.zeros((6, 6)), 2, tlist=(1,))


def test_kp_in_t_and_s():
    m = bimoments(0.5, N=10)
    for n in (2, 3):
        assert abs(kp_in_t_residual(m, n, "t")) < 1e-6
        assert abs(kp_in_t_residual(m, n, "s")) < 1e-6


def test_wronskian_identities():
    m = bimoments(0.5, N=8)
    r1, r2 = wronskian_identity_residual(m, 2)
    assert abs(r1) < 1e-8
    assert abs(r2) < 1e-8


def test_wronskian_bracket_identity():
    m = bimoments(0.5, N=8)
    assert abs(wronskian_bracket_residual(m, 2)) < 1e-8


def test_quotient_identity_sees_a_wrong_derivative(monkeypatch):
    # the identities hold for every bi-moment matrix (each one starts a
    # two-Toda flow), so what they check is the derivative assembly; at
    # t = s = 0 the (x, y) -> (-x, -y) symmetry makes both sides vanish,
    # off it they are O(1)
    n = 2
    at_zero = bimoments(0.5, N=8)
    moved = bimoments(0.5, N=18, t=[0.1], s=[-0.07])
    for m, size in ((at_zero, 1e-14), (moved, 0.1)):
        side = dlog_tau2(m, n + 1, slist=(1,)) - dlog_tau2(m, n - 1, slist=(1,))
        assert (abs(side) < size) == (m is at_zero)
    assert max(map(abs, wronskian_identity_residual(moved, n))) < 1e-14
    exact = twotoda.dlog_tau2

    def skewed(m, n, tlist=(), slist=()):
        value = exact(m, n, tlist, slist)
        return value * (1 + 1e-6) if (tlist, slist) == ((1,), (2,)) else value

    monkeypatch.setattr(twotoda, "dlog_tau2", skewed)
    assert abs(wronskian_identity_residual(moved, n)[0]) == pytest.approx(
        1e-6, rel=1e-3)


def test_wronskian_scale_invariance():
    m = bimoments(0.5, N=8)
    a = wronskian_identity_residual(m, 2)
    b = wronskian_identity_residual(2.0 * m, 2)
    assert a[0] == pytest.approx(b[0], abs=1e-10)
    assert a[1] == pytest.approx(b[1], abs=1e-10)


# ----- boundary operators and the coupled PDE -----

DEGREE = np.indices((4, 4, 4)).sum(axis=0)


def random_cubic(rng):
    """Random local Taylor polynomial: coefficients of da^i db^j dc^k,
    total degree <= 3."""
    return rng.normal(size=(4, 4, 4)) * (DEGREE <= 3)


def test_operator_brackets():
    rng = np.random.default_rng(11)
    p0 = (0.4, -0.3, 0.5)
    c = p0[2]
    ops = BoundaryOperators(p0)
    for _ in range(3):
        f = random_cubic(rng)
        a1, b1 = ops.a1(f)[0, 0, 0], ops.b1(f)[0, 0, 0]
        pairs = [
            ("a1", "b1", 0.0),
            ("a2", "b2", 0.0),
            ("a1", "a2", (1 + c * c) / (1 - c * c) * a1),
            ("a2", "b1", 2 * c / (1 - c * c) * a1),
            ("a1", "b2", -2 * c / (1 - c * c) * b1),
            ("b1", "b2", (1 + c * c) / (1 - c * c) * b1),
        ]
        for name_x, name_y, rhs in pairs:
            X = getattr(ops, name_x)
            Y = getattr(ops, name_y)
            lhs = X(Y(f))[0, 0, 0] - Y(X(f))[0, 0, 0]
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_boundary_operators_on_polynomials():
    # A2 = a d_a - c d_c on a - 2c + a c^2 at (a0, b0, c0), expanded exactly
    p0 = (0.7, 0.1, -0.4)
    a0, _, c0 = p0
    f = np.zeros((4, 4, 4))
    f[0, 0, 0] = a0 - 2 * c0 + a0 * c0 ** 2
    f[1, 0, 0] = 1 + c0 ** 2
    f[0, 0, 1] = -2 + 2 * a0 * c0
    f[1, 0, 1] = 2 * c0
    f[0, 0, 2] = a0
    f[1, 0, 2] = 1.0
    out = BoundaryOperators(p0).a2(f)
    # a (1 + c^2) - c (-2 + 2 a c) = a + 2c - a c^2
    assert out[0, 0, 0] == pytest.approx(a0 + 2 * c0 - a0 * c0 ** 2, abs=1e-15)
    assert out[1, 0, 0] == pytest.approx(1 - c0 ** 2, abs=1e-15)
    assert out[0, 0, 1] == pytest.approx(2 - 2 * a0 * c0, abs=1e-15)


def gap_log_tau_ratio(n, order=48):
    """F_n(a, b, c) from two tau determinants at every point."""

    def f(p):
        a, b, c = p
        E = (IntervalUnion.half_line_below(a), IntervalUnion.half_line_below(b))
        restricted = np.linalg.slogdet(bimoments(c, E, N=n, order=order))
        full = np.linalg.slogdet(bimoments(c, N=n, order=order))
        assert restricted[0] > 0 and full[0] > 0
        return (restricted[1] - full[1]) / n

    return f


def test_gap_taylor_polynomial_matches_fd():
    from laxlab.fd import central_diff

    c, a, b, n = 0.5, 0.3, 0.2, 2
    F = gap_log_tau_ratio(n)
    taylor = gap_log_tau_ratio_taylor(c, a, b, n)
    p0 = np.array([a, b, c])

    def nested(p, axes):
        if not axes:
            return F(p)

        def g(delta):
            q = p.copy()
            q[axes[0]] += delta
            return nested(q, axes[1:])

        return central_diff(g, 1, 1e-2, richardson=True)

    assert taylor[0, 0, 0] == pytest.approx(F(p0), abs=1e-14)
    for i, j, k in zip(*np.nonzero((DEGREE >= 1) & (DEGREE <= 3))):
        exact = (taylor[i, j, k] * math.factorial(i) * math.factorial(j)
                 * math.factorial(k))
        fd = nested(p0, [0] * i + [1] * j + [2] * k)
        # the c stencils re-run the quadrature, whose scale depends on c
        assert exact == pytest.approx(fd, abs=1e-7 if i + j + k < 3 else 1e-6)
    assert np.all(taylor[DEGREE > 3] == 0.0)


@pytest.mark.parametrize("c", [0.5, -0.5])
def test_index_operators_match_the_directional_series(c):
    # along v, the Taylor matrix of h^r is sum_{p+q+k=r} v_a^p v_b^q v_c^k
    # G_pqk, against the series of the moving tensor rule
    n, order = 3, 48
    for a, b in ((0.3, 0.2), (-0.4, 0.7)):
        E = (IntervalUnion.half_line_below(a),
             IntervalUnion.half_line_below(b))
        coefficient = twotoda._bimoment_taylor(
            bimoments(c, E, N=n + 3, order=order), c, n)
        for v in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                  (0.7, -1.3, 0.4), (-0.5, 0.2, -1.1)):
            series = bimoment_series_oracle(c, *E, n, order, v, 3)
            for r, reference in enumerate(series):
                moved = sum(
                    math.prod(x ** e for x, e in zip(v, pqk))
                    * coefficient(pqk) for pqk in np.argwhere(DEGREE == r)
                    .tolist())
                assert np.abs(moved - reference).max() <= (
                    1e-12 * np.abs(reference).max()), (a, b, v, r)


def test_coupled_pde_residual_small():
    for n in (1, 2):
        assert abs(coupled_pde_residual(0.5, 0.3, 0.3, n)) <= 1e-12


def test_coupled_pde_holds_through_n6():
    # at a = b, the CLI's first default point, the residual sees only the
    # a <-> b asymmetry of the rounding (see below); exact partials keep it
    # under the CLI's 1e-3 gate at n = 6, where polarized jets did not
    # (4.6e-3)
    for n in range(1, 7):
        assert abs(coupled_pde_residual(0.5, 0.3, 0.3, n)) <= 1e-3


def test_coupled_pde_holds_off_the_diagonal():
    # the residual flips sign under a <-> b, so at a = b it vanishes for
    # every a <-> b symmetric Taylor tensor, a wrong one included; off the
    # diagonal it checks the identity, to the order-48 rule's accuracy
    # (about 1e-9 at n = 1)
    for a, b in ((0.3, 0.2), (0.1, 0.5)):
        for n in range(1, 6):
            assert abs(coupled_pde_residual(0.5, a, b, n)) <= 1e-3
        wrong = gap_log_tau_ratio_taylor(0.5, a, b, 2)
        wrong[1, 1, 0] *= 2.0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(twotoda, "gap_log_tau_ratio_taylor",
                          lambda *args, **kwargs: wrong)
            assert abs(coupled_pde_residual(0.5, a, b, 2)) > 1e-3


def test_coupled_pde_symmetry():
    r_ab = coupled_pde_residual(0.5, 0.5, 0.1, 1)
    r_ba = coupled_pde_residual(0.5, 0.1, 0.5, 1)
    # swapping a and b flips the sign of the residual
    assert abs(r_ab + r_ba) < 1e-12


def test_coupled_pde_rejects_bad_coupling():
    with pytest.raises(UsageError):
        coupled_pde_residual(0.0, 0.3, 0.3, 1)
    with pytest.raises(UsageError):
        coupled_pde_residual(1.2, 0.3, 0.3, 1)
