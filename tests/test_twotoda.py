import math

import numpy as np
import pytest

from laxlab.errors import (
    DivergenceError,
    PrecisionError,
    SingularTauError,
    UsageError,
)
from laxlab.intervals import IntervalUnion
from laxlab import twotoda
from laxlab.mathcore import gauss_legendre_rule, lu_determinant
from laxlab.twotoda import (
    BiMoments,
    BoundaryOperators,
    bimoments,
    coupled_pde_residual,
    dlog_tau2,
    evolve_bimoments,
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


# ----- construction -----

def test_mu00_closed_form():
    c = 0.4
    m = bimoments(c, N=2)
    assert m.m[0, 0] == pytest.approx(
        2.0 * math.pi / math.sqrt(1.0 - c * c), rel=1e-12
    )


def test_c0_factorizes():
    m = bimoments(0.0, N=4)
    assert abs(m.m[1, 0]) < 1e-12
    # mu_{ij} = (1-D gaussian moment i) * (moment j)
    g = [math.sqrt(2.0 * math.pi), 0.0, math.sqrt(2.0 * math.pi)]
    assert m.m[2, 2] == pytest.approx(g[2] * g[2], rel=1e-12)


def test_mu11_matches_mc_oracle():
    rng = np.random.default_rng(33)
    est, err = mc_mu11_oracle(0.5, rng)
    m = bimoments(0.5, N=2)
    assert abs(m.m[1, 1] - est) < 3.0 * err


def test_coupling_bound_enforced():
    with pytest.raises(DivergenceError):
        bimoments(1.0, N=2)


# ----- evolution -----

def test_evolution_identity_and_group_law():
    m = bimoments(0.3, N=40)
    assert evolve_bimoments(m, None, None) is m
    t1, t2 = [0.04], [-0.02]
    s1, s2 = [0.03], [0.01]
    a = evolve_bimoments(evolve_bimoments(m, t1, s1), t2, s2)
    b = evolve_bimoments(m, [t1[0] + t2[0]], [s1[0] + s2[0]])
    k = min(a.size, b.size)
    assert np.abs(a.m[:k, :k] - b.m[:k, :k]).max() < 1e-12 * np.abs(b.m).max()


def test_evolution_matches_quadrature_on_box():
    c, t1, s1 = 0.5, 0.07, -0.05
    box = IntervalUnion([(0.0, 1.0)])
    m = bimoments(c, (box, box), N=16, order=48)
    out = evolve_bimoments(m, [t1], [s1])
    x, wx = gauss_legendre_rule(48, (0.0, 1.0))
    y, wy = gauss_legendre_rule(48, (0.0, 1.0))
    kernel = rho0(c, x[:, None], y[None, :]) * np.exp(
        t1 * x[:, None] - s1 * y[None, :]
    )
    for i in range(3):
        for j in range(3):
            direct = (wx * x ** i) @ kernel @ (wy * y ** j)
            assert out.m[i, j] == pytest.approx(direct, abs=1e-9)


# ----- tau determinants -----

def test_tau1_is_mu00():
    m = bimoments(0.2, N=3)
    assert lu_determinant(m.block(1)) == m.m[0, 0]


def test_tau2_matches_gram_schmidt_oracle():
    m = bimoments(0.5, N=5)
    hs = gram_schmidt_h_oracle(m.m, 2)
    assert lu_determinant(m.block(2)) == pytest.approx(hs[0] * hs[1], rel=1e-10)


def test_h_matches_tau_ratio():
    m = bimoments(0.5, N=6)
    taus = [1.0] + [lu_determinant(m.block(k)) for k in range(1, 5)]
    hs = gram_schmidt_h_oracle(m.m, 4)
    for j in range(4):
        assert hs[j] == pytest.approx(taus[j + 1] / taus[j], rel=1e-10)


# ----- exact derivative identities -----

def test_dlog_first_order_against_fd():
    m = bimoments(0.5, N=30)

    def f(t1):
        return math.log(lu_determinant(evolve_bimoments(m, [t1], None).block(2)))

    from laxlab.fd import central_diff

    fd = central_diff(f, 1, 1e-2, richardson=True)
    assert dlog_tau2(m, 2, tlist=(1,)) == pytest.approx(fd, abs=1e-9)


def test_dlog_tau2_matches_polarized_jets():
    # at a generic (t, s) no partial vanishes by symmetry, so polarization
    # of the directional log-det jets is an accurate reference
    from laxlab.tau import direction_matrices, logdet_series_derivatives, polarized

    m = evolve_bimoments(bimoments(0.5, N=22), [0.1], [-0.07])

    def directional(d, order):  # d = (t1, t2, s1, s2)
        d = np.pad(d, (0, 4 - len(d)))
        return logdet_series_derivatives(direction_matrices(
            m.m, 2, order, rows=d[:2], cols=-d[2:]))

    for tlist, slist in (((1,), (1,)), ((1,), (2,)), ((2,), (1,)),
                         ((1, 1), (2,)), ((2,), (1, 1)), ((1, 2), (1,))):
        ks = list(tlist) + [2 + b for b in slist]
        assert dlog_tau2(m, 2, tlist, slist) == pytest.approx(
            polarized(directional, ks), rel=1e-10)


def test_dlog_tau2_singular_block_is_singular_tau_error():
    E = IntervalUnion.full_line()
    m = BiMoments(m=np.zeros((6, 6)), c=0.5, E1=E, E2=E)
    with pytest.raises(SingularTauError):
        dlog_tau2(m, 2, tlist=(1,))


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
    moved = evolve_bimoments(bimoments(0.5, N=30), [0.1], [-0.07])
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
    doubled = BiMoments(m=2.0 * m.m, c=m.c, E1=m.E1, E2=m.E2)
    a = wronskian_identity_residual(m, 2)
    b = wronskian_identity_residual(doubled, 2)
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
        restricted = np.linalg.slogdet(bimoments(c, E, N=n, order=order).m)
        full = np.linalg.slogdet(bimoments(c, N=n, order=order).m)
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


def test_coupled_pde_residual_small():
    for n in (1, 2):
        assert abs(coupled_pde_residual(0.5, 0.3, 0.3, n)) <= 1e-12


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
