import math

import numpy as np
import pytest

from laxlab.ensembles import (
    EnsembleSpec,
    gap_log_jets,
    inductive_relation_residual,
)
from laxlab.errors import DomainError, UnderflowError, UsageError
from laxlab.fd import central_diff
from laxlab.gapodes import (
    airy_pde_residual,
    bessel_pde_residual,
    beta_ode_residual,
    pii_residual,
    pv_residual,
    q_coefficients,
)
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import gauss_legendre_rule, pfaffian
from laxlab.pfaff import skew_inner_products
from laxlab.tau import WeightSpec


# ----- oracles: gap-probability suppliers -----

def gram_probability_supplier(weight, support_lo, decay_halfwidth, order=96):
    """P_m(max eigenvalue <= x) for beta = 2 via the Andreief identity:
    the m-fold ensemble integral is m! times the determinant of the
    moment Gram matrix, computed here by plain quadrature and
    numpy determinants (independent of the tau machinery)."""
    full_cache = {}

    def gram_det(m, lo, hi):
        x, w = gauss_legendre_rule(order, (lo, hi))
        wr = w * weight(x)
        g = np.array(
            [[(wr * x ** (i + j)).sum() for j in range(m)] for i in range(m)]
        )
        return float(np.linalg.det(g))

    def p(m, x):
        if m == 0:
            return 1.0
        if m not in full_cache:
            full_cache[m] = gram_det(m, support_lo, decay_halfwidth)
        return gram_det(m, support_lo, x) / full_cache[m]

    return p


def pfaffian_probability_supplier(w, alpha, order=96):
    """P_m via ratios of skew-moment Pfaffians (beta = 1 uses the
    epsilon pairing on an m x m block; beta = 4 the Wronskian pairing
    on a 2m x 2m block)."""
    lo = 0.0 if w.family == "laguerre" else -math.inf
    full_cache = {}

    def p(m, x):
        if m == 0:
            return 1.0
        size = m if alpha == -1 else 2 * m
        E = IntervalUnion([(lo, x)])
        num = pfaffian(
            skew_inner_products(w, E, alpha=alpha, N=size // 2, order=order).m
        )
        if m not in full_cache:
            full_cache[m] = pfaffian(
                skew_inner_products(w, None, alpha=alpha, N=size // 2, order=order).m
            )
        return num / full_cache[m]

    return p


def gaussian_b2_supplier(b):
    L = 9.0 / math.sqrt(b)
    return gram_probability_supplier(
        lambda z: np.exp(-b * z * z), -L, L
    )


def laguerre_b2_supplier(a, b):
    L = 60.0 / b
    return gram_probability_supplier(
        lambda z: z ** a * np.exp(-b * z), 1e-12, L
    )


# ----- Painleve II / V -----

def test_pii_residual_small_on_grid():
    grid = np.linspace(-6.0, 2.0, 9)
    res = pii_residual(grid)
    assert np.abs(res).max() < 1e-4


def test_pii_vacuous_far_right():
    assert abs(pii_residual([2.5])[0]) < 1e-6


def test_pv_residual_small():
    grid = np.linspace(0.5, 5.0, 7)
    assert np.abs(pv_residual(0.0, grid)).max() < 1e-4
    assert np.abs(pv_residual(0.25, grid)).max() < 1e-4


def test_pv_vacuous_near_zero():
    assert abs(pv_residual(0.0, [0.05])[0]) < 1e-6


def test_pv_rejects_nonpositive_endpoint():
    with pytest.raises(DomainError):
        pv_residual(0.0, [-1.0, 2.0])


# ----- multi-interval PDEs -----

def test_airy_pde_single_endpoint_matches_pii():
    pde = airy_pde_residual(IntervalUnion([(-1.5, math.inf)]))
    pii = pii_residual([-1.5])[0]
    assert abs(pde) < 1e-6
    assert abs(pde - pii) < 1e-6


def test_airy_pde_two_intervals():
    E = IntervalUnion([(-4.0, -1.0), (1.0, math.inf)])
    assert abs(airy_pde_residual(E)) < 1e-3


def test_airy_pde_degeneration():
    # pushing the second interval far right reproduces the one-interval
    # operator values
    near = airy_pde_residual(IntervalUnion([(-4.0, -1.0), (8.5, math.inf)]))
    alone = airy_pde_residual(IntervalUnion([(-4.0, -1.0)]))
    assert abs(near - alone) < 1e-5


def test_airy_pde_rejects_close_endpoints():
    with pytest.raises(DomainError):
        airy_pde_residual(IntervalUnion([(-1.0, -0.9), (1.0, math.inf)]))


def test_bessel_pde_two_intervals():
    E = IntervalUnion([(0.5, 1.5), (2.0, 3.0)])
    assert abs(bessel_pde_residual(0.0, E)) < 1e-3


def test_bessel_pde_even_in_nu():
    E = IntervalUnion([(0.5, 1.5), (2.0, 3.0)])
    assert abs(bessel_pde_residual(0.25, E)) < 1e-3
    assert abs(bessel_pde_residual(-0.25, E)) < 1e-3


def test_bessel_pde_reduces_to_pv():
    E = IntervalUnion([(0.0, 2.0)])
    assert abs(bessel_pde_residual(0.0, E)) < 1e-4
    assert abs(pv_residual(0.0, [2.0])[0]) < 1e-4


def test_bessel_pde_rejects_negative_set():
    with pytest.raises(DomainError):
        bessel_pde_residual(0.0, IntervalUnion([(-1.0, 1.0)]))


@pytest.mark.parametrize("intervals", ["-4:-1,1:inf", "-4:-1"])
def test_airy_pde_residual_at_roundoff(intervals):
    assert abs(airy_pde_residual(IntervalUnion.parse(intervals))) < 1e-9


@pytest.mark.parametrize("intervals", ["0.5:1.5,2:3", "0:1.5,2:3"])
def test_bessel_pde_residual_at_roundoff(intervals):
    assert abs(bessel_pde_residual(0.0, IntervalUnion.parse(intervals))) < 1e-9


def test_pii_pv_residuals_at_roundoff_on_default_grids():
    assert np.abs(pii_residual(np.arange(-6.0, 2.125, 0.25))).max() < 1e-9
    grid = np.arange(0.5, 5.25, 0.5)
    assert np.abs(pv_residual(0.0, grid)).max() < 1e-9
    assert np.abs(pv_residual(0.25, grid)).max() < 1e-9


def test_pii_far_tail_underflows():
    with pytest.raises(UnderflowError, match="-14"):
        pii_residual([-14.0, -13.0, -12.0])


# ----- invariant coefficients -----

def test_gaussian_beta2_coefficients():
    c = q_coefficients("gaussian", 3, 2, b=2.0)
    assert c.delta == 0
    assert c.Q2 == pytest.approx(8.0 * 2.0 * 3)
    assert c.Q1 == pytest.approx(4.0)


def test_gaussian_duality():
    for n in range(1, 7):
        for b in (1.0, 2.0):
            assert q_coefficients("gaussian", n, 4, b=b).duality_check


def test_laguerre_beta4_q():
    n, a = 3, 1.5
    c = q_coefficients("laguerre", n, 4, a=a)
    assert c.Q == pytest.approx(
        1.5 * n * (2 * n + 1) * (2 * n + a) * (2 * n + a - 1)
    )


def test_laguerre_duality():
    for n in range(1, 5):
        for a in (0.5, 1.0, 2.0):
            assert q_coefficients("laguerre", n, 4, a=a, b=1.5).duality_check


def test_unsupported_beta():
    with pytest.raises(UsageError):
        q_coefficients("gaussian", 2, 3)


# ----- beta-ensemble ODE residuals -----
#
# Each case checks the ODE on an oracle supplier twice: with the x-jets of
# log P_n taken by Richardson central differences of the oracle, and with
# the exact jets of ensembles.gap_log_jets, which must match those
# differences to within their truncation and rounding error.

# |exact - central difference| allowed at derivative order 1..4, relative
# to max(1, |value|); the steps widen with the order (below), so these
# mostly bound the truncation of the fourth-order stencil
FD_JET_TOL = (1e-8, 1e-7, 1e-5, 1e-4)
# a non-integer Laguerre exponent puts a y^a singularity at 0, which
# limits the Gauss-Legendre skew moments of oracle and library alike
# (about 1e-6 relative in D log P_2 at order 96 against mpmath for
# a = 0.5), so their jets agree only to this
SINGULAR_WEIGHT_JET_TOL = (1e-4, 1e-3, 1e-3, 1e-2)


def fd_log_jets(p, n, x):
    """[D, ..., D^4] of log p(n, .) at x by Richardson central
    differences, with offsets shared between the orders."""
    cache = {}

    def logp(d):
        if d not in cache:
            cache[d] = math.log(p(n, x + d))
        return cache[d]

    return [central_diff(logp, r, h, richardson=True)
            for r, h in ((1, 1e-2), (2, 1e-2), (3, 2e-2), (4, 4e-2))]


def check_beta_ode(family, beta, n, xs, p, bound, a=0.0, b=1.0):
    w = (WeightSpec("laguerre", a=a, b=b) if family == "laguerre"
         else WeightSpec("gaussian", b=b))
    j = 2 if beta == 1 else 1
    tols = FD_JET_TOL if float(a).is_integer() else SINGULAR_WEIGHT_JET_TOL
    for x in xs:
        fd = fd_log_jets(p, n, x)
        # at the oracles' quadrature order
        exact = gap_log_jets(EnsembleSpec(beta, w, n), x, order=96)
        for tol, e, f in zip(tols, exact, fd):
            assert abs(e - f) <= tol * max(1.0, abs(f)), (x, exact, fd)
        ratio = p(n - j, x) * p(n + j, x) / p(n, x) ** 2
        for d in (fd, exact):
            res = beta_ode_residual(family, beta, n, x, d, ratio, a=a, b=b)
            assert abs(res) < bound, (x, d)


def test_gaussian_beta2_ode():
    check_beta_ode("gaussian", 2, 2, np.linspace(-2.0, 2.0, 5),
                   gaussian_b2_supplier(1.0), 1e-5)


def test_gaussian_beta1_ode():
    sup = pfaffian_probability_supplier(WeightSpec("gaussian"), alpha=-1)
    check_beta_ode("gaussian", 1, 2, np.linspace(-1.5, 1.5, 4), sup, 1e-4)


def test_gaussian_beta4_ode():
    sup = pfaffian_probability_supplier(WeightSpec("gaussian"), alpha=1)
    check_beta_ode("gaussian", 4, 2, [-1.0, 0.5, 1.5], sup, 1e-4)


def test_laguerre_beta2_ode():
    check_beta_ode("laguerre", 2, 2, [2.0, 4.0, 6.0],
                   laguerre_b2_supplier(1.0, 1.0), 1e-4, a=1.0, b=1.0)


def test_laguerre_beta1_ode_calibration():
    # this residual pins the empirically calibrated linear-in-a part of
    # the hard-edge Q2 at beta = 1 (and its duality partner at beta = 4)
    for n, a in ((2, 1.0), (2, 0.5), (2, 2.0), (2, 3.0),
                 (4, 0.5), (4, 2.0), (4, 3.0)):
        sup = pfaffian_probability_supplier(
            WeightSpec("laguerre", a=a, b=1.0), alpha=-1
        )
        check_beta_ode("laguerre", 1, n, [2.0, 4.0, 6.0], sup, 1e-4,
                       a=a, b=1.0)


def test_laguerre_beta4_ode():
    # the beta = 4 side of LAGUERRE_Q2_LINEAR_BETA1, through the duality
    for n in (1, 2):
        for a in (1.0, 2.0, 3.0):
            sup = pfaffian_probability_supplier(
                WeightSpec("laguerre", a=a, b=1.0), alpha=1
            )
            check_beta_ode("laguerre", 4, n, [1.0, 2.0], sup, 1e-4,
                           a=a, b=1.0)


def test_beta1_needs_even_n():
    with pytest.raises(UsageError):
        beta_ode_residual("gaussian", 1, 3, 0.0, [0.0] * 4)


def test_deep_gap_underflow():
    with pytest.raises(UnderflowError):
        inductive_relation_residual("gaussian", 2, 2, [-8.0])
