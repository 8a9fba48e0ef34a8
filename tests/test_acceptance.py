"""End-to-end acceptance checks, one test per release gate."""

import math
import os

import numpy as np
import pytest

from laxlab import aci, ensembles, fredholm, gapodes, pfaff, tau, toda, twotoda, virasoro
from laxlab.cli import dispatch, emit_report
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import lu_determinant, pfaffian, skew_borel
from skew_reference import block_j

GAUSSIAN = tau.WeightSpec("gaussian")


def test_toda_three_route_agreement():
    report, code, _ = dispatch([
        "toda", "flow", "--n", "6", "--k", "1", "--t-end", "1",
        "--step", "1e-3", "--routes", "tau,ode,qr", "--seed", "42", "--check",
    ])
    assert code == 0
    pair_rows = [r for r in report.rows if r["metric"].startswith("supnorm")]
    drift_rows = [r for r in report.rows if r["metric"].startswith("eig_drift")]
    assert len(pair_rows) == 3 and len(drift_rows) == 3
    assert max(r["value"] for r in pair_rows) < 1e-6
    assert max(r["value"] for r in drift_rows) < 1e-8


def test_kp_residuals_hankel_taus():
    rng = np.random.default_rng(1)
    small_t = (0.02 * rng.standard_normal(3)).tolist()
    for family in ("gaussian", "uniform"):
        m = tau.hankel_moments(tau.WeightSpec(family), M=50)
        for n in range(1, 6):
            assert abs(tau.kp_residual(m, n)) < 1e-6
            assert abs(tau.kp_residual(m, n, t=small_t)) < 1e-6


def test_pfaffian_identity_suite():
    rng = np.random.default_rng(7)
    for trial in range(200):
        size = 2 * (1 + trial % 5)  # even sizes 2..10
        raw = rng.normal(size=(size, size))
        skew = raw - raw.T
        assert abs(pfaffian(skew) ** 2 - lu_determinant(skew)) < 1e-10 * max(
            1.0, abs(lu_determinant(skew))
        )
    # skew-Borel reconstruction and skew-orthogonality of the q-polynomials
    for w, alpha in ((GAUSSIAN, -1), (tau.WeightSpec("laguerre", a=1.0), 1)):
        m = pfaff.skew_inner_products(w, alpha=alpha, N=5)
        q = skew_borel(m.m)
        recon = q @ m.m @ q.T
        assert np.abs(recon - block_j(m.size)).max() < 1e-8
    # Pfaff-KP residuals
    for n in (2, 4):
        m1 = pfaff.skew_inner_products(GAUSSIAN, alpha=-1, N=n + 4)
        assert abs(pfaff.pfaffkp_residual(m1, n)) < 1e-6
        m4 = pfaff.skew_inner_products(
            tau.WeightSpec("laguerre", a=1.0, b=1.0), alpha=1, N=n + 4
        )
        assert abs(pfaff.pfaffkp_residual(m4, n)) < 1e-6


def test_pfaff_two_route_agreement():
    report, code, _ = dispatch([
        "pfaff", "flow", "--size", "12", "--k", "1", "--t-end", "0.5",
        "--step", "1e-3", "--check",
    ])
    assert code == 0
    assert report.max_abs_residual < 1e-6


def test_soft_edge_painleve_residuals():
    grid = np.arange(-6.0, 2.0 + 1e-9, 0.25)
    res = gapodes.pii_residual(grid)
    assert np.abs(res).max() < 1e-4
    for s in (-6.0, -2.0, 0.0, 2.0):
        E = IntervalUnion([(s, math.inf)])
        spec = fredholm.KernelSpec("airy")
        coarse = fredholm.nystrom_det(spec, E, order=64)
        fine = fredholm.nystrom_det(spec, E, order=128)
        assert abs(coarse - fine) < 1e-10


def test_hard_edge_painleve_residuals():
    grid = np.arange(0.5, 5.0 + 1e-9, 0.5)
    for nu in (0.0, 0.25):
        assert np.abs(gapodes.pv_residual(nu, grid)).max() < 1e-4


def test_multi_interval_pdes():
    E_soft = IntervalUnion([(-4.0, -1.0), (1.0, math.inf)])
    assert abs(gapodes.airy_pde_residual(E_soft)) < 1e-3
    E_hard = IntervalUnion([(0.5, 1.5), (2.0, 3.0)])
    assert abs(gapodes.bessel_pde_residual(0.0, E_hard)) < 1e-3


def test_finite_n_gap_equations():
    grid = np.linspace(-2.0, 2.0, 5)
    for n in (2, 3):
        res = ensembles.inductive_relation_residual("gaussian", 2, n, grid)
        assert np.abs(res).max() < 1e-5
    res = ensembles.inductive_relation_residual(
        "laguerre", 2, 2, [2.0, 4.0, 6.0], a=1.0, b=1.0
    )
    assert np.abs(res).max() < 1e-4
    res = ensembles.inductive_relation_residual("gaussian", 1, 2, [-1.0, 0.5, 1.5])
    assert np.abs(res).max() < 1e-4
    res = ensembles.inductive_relation_residual("gaussian", 4, 1, [-1.0, 0.5, 1.5])
    assert np.abs(res).max() < 1e-4


def test_coefficient_duality():
    for n in range(1, 7):
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                assert gapodes.q_coefficients("gaussian", n, 4, b=b).duality_check
                assert gapodes.q_coefficients(
                    "laguerre", n, 4, a=a, b=b
                ).duality_check


def test_constraint_operators_annihilate_tau():
    half = IntervalUnion.half_line_below(0.7)
    for k in (-1, 0, 1, 2):
        assert abs(virasoro.virasoro_residual(GAUSSIAN, 2, half, 3, k)) < 1e-6
        assert abs(virasoro.virasoro_residual(GAUSSIAN, 2, None, 3, k)) < 1e-6
    assert abs(virasoro.virasoro_residual(GAUSSIAN, 1, half, 2, -1)) < 1e-4
    for beta, charge in ((1, -2), (2, 1), (4, -2)):
        assert virasoro.central_charge(beta) == charge
        pairs = ((1, -1), (2, -2), (-1, 3))
        assert virasoro.virasoro_commutator_residuals(beta, pairs, n=3) == [
            0.0, 0.0, 0.0]


def test_monte_carlo_cross_validation():
    E = IntervalUnion.half_line_below(0.0)
    for beta, seed in ((1, 101), (2, 102), (4, 103)):
        e = ensembles.EnsembleSpec(beta, GAUSSIAN, 2)
        batch = ensembles.sample_ensemble(e, 1_000_000, seed)
        frac, err = ensembles.empirical_gap(batch, E)
        exact = ensembles.gap_probability(e, E)
        sigma = math.sqrt(exact * (1.0 - exact) / batch.count)
        assert abs(frac - exact) < 3.0 * max(sigma, err)


def commutativity_report(a0, f_kind_1, f_kind_2, t_small, step):
    """sup-norm coefficient discrepancy of the two orderings of two a.c.i.
    flows by RK4."""
    ab = aci.aci_flow(aci.aci_flow(a0, f_kind_1, t_small, step), f_kind_2,
                      t_small, step)
    ba = aci.aci_flow(aci.aci_flow(a0, f_kind_2, t_small, step), f_kind_1,
                      t_small, step)
    return max(float(np.abs(p - q).max()) for p, q in zip(ab.coeffs, ba.coeffs))


def test_conserved_spectral_curves_and_commuting_flows():
    alpha = np.array([1.0, 2.0, 4.0])
    x = np.array([0.6, -0.3, 0.8])
    y = np.array([0.2, 0.5, -0.4])
    for kind in ("euler", "neumann", "central_force"):
        a0 = aci.build_system(kind, alpha, x=x, y=y)
        report = aci.route_report(a0, kind, 10.0, 1e-3)
        assert report["curve_drift"] < 1e-9
    a0 = aci.build_system("neumann", alpha, x=x, y=y)
    assert commutativity_report(a0, "euler", "neumann", 0.1, step=1e-3) < 1e-8
    coarse = commutativity_report(a0, "euler", "neumann", 0.1, step=4e-3)
    fine = commutativity_report(a0, "euler", "neumann", 0.1, step=2e-3)
    assert 8.0 < coarse / fine < 32.0


def test_coupled_lattice_identities():
    m = twotoda.bimoments(0.5, N=10)
    assert abs(twotoda.kp_in_t_residual(m, 2, direction="t")) < 1e-8
    assert abs(twotoda.kp_in_t_residual(m, 2, direction="s")) < 1e-8
    for r in twotoda.wronskian_identity_residual(m, 2):
        assert abs(r) < 1e-8
    assert abs(twotoda.wronskian_bracket_residual(m, 2)) < 1e-8
    assert abs(twotoda.coupled_pde_residual(0.5, 0.3, 0.3, 1)) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(5):
        a, b = rng.uniform(0.1, 0.6, size=2)
        c = rng.uniform(0.2, 0.7) * rng.choice([-1.0, 1.0])
        # exact jets: what remains is the order-48 quadrature (<= 3e-10)
        assert abs(twotoda.coupled_pde_residual(c, a, b, 1)) < 1e-8
    # first-order boundary operators close on local cubic polynomials
    p0 = (0.4, -0.3, 0.5)
    c = p0[2]
    ops = twotoda.BoundaryOperators(p0)
    f = rng.normal(size=(4, 4, 4)) * (np.indices((4, 4, 4)).sum(axis=0) <= 3)
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
        X, Y = getattr(ops, name_x), getattr(ops, name_y)
        lhs = X(Y(f))[0, 0, 0] - Y(X(f))[0, 0, 0]
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_scaling_limits():
    grid = np.arange(-2.0, 2.0 + 1e-9, 0.25)
    errs = [
        fredholm.scaling_limit_error(N, "edge", grid) for N in (20, 50, 80)
    ]
    assert errs[1] < 5e-2
    assert errs[0] > errs[1] > errs[2]
    # rescaled bulk kernel: diagonal value 1 at the center, small sup error
    assert fredholm.scaling_limit_error(50, "bulk", [0.0]) < 1e-2
    assert fredholm.scaling_limit_error(50, "bulk", np.linspace(-0.5, 0.5, 5)) < 5e-2


def test_cli_reports_are_deterministic():
    commands = (
        ["ensemble", "sample", "--beta", "2", "--n", "2", "--count", "20000",
         "--seed", "5", "--check"],
        ["gapode", "pii", "--grid", "0:2:1", "--check"],
    )
    prev = os.environ.get("LAXLAB_THREADS")
    try:
        for argv in commands:
            outputs = set()
            for threads in ("1", "2", "4"):
                os.environ["LAXLAB_THREADS"] = threads
                for _ in range(2):
                    report, code, _ = dispatch(argv)
                    assert code == 0
                    outputs.add(emit_report(report, "json"))
                    outputs.add(emit_report(report, "csv"))
            assert len(outputs) == 2  # one JSON byte string, one CSV
    finally:
        if prev is None:
            os.environ.pop("LAXLAB_THREADS", None)
        else:
            os.environ["LAXLAB_THREADS"] = prev
