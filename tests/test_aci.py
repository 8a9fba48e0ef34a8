import itertools
import math

import numpy as np
import pytest

from laxlab import aci
from laxlab.aci import (
    SYSTEM_KINDS,
    aci_flow,
    aks_flow,
    aks_plan,
    b_from_a,
    build_system,
    route_report,
    skew_pair,
    spectral_curve_coeffs,
    spectral_curve_residual,
)
from laxlab.mathcore.ode import SEGMENTS
from test_acceptance import commutativity_report
from laxlab.errors import (
    DegenerateFlagError,
    DomainError,
    NumericalError,
    SingularMatrixError,
    StabilityError,
    UsageError,
)

ALPHA = np.array([1.0, 2.0, 4.0])
X = np.array([0.6, -0.3, 0.8])
Y = np.array([0.2, 0.5, -0.4])


# ----- oracles -----

def special_euler_flow(gxy, J, t_end, step):
    """Independent integration of the rank-two top in its classical form
    G' = [G, Gam] with Gam_ij = G_ij / (J_i + J_j)."""
    denom = J[:, None] + J[None, :]

    def rhs(g):
        gam = g / denom
        return g @ gam - gam @ g

    g = gxy.copy()
    steps = int(round(t_end / step))
    for _ in range(steps):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * step * k1)
        k3 = rhs(g + 0.5 * step * k2)
        k4 = rhs(g + step * k3)
        g = g + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return g


def elementary_symmetric(vals, k):
    return sum(
        math.prod(c) for c in itertools.combinations(vals, k)
    ) if k else 1.0


# ----- system construction -----

def test_euler_without_momentum_is_stationary():
    a = build_system("euler", ALPHA, x=X)  # y = 0 kills the rank-two part
    assert np.abs(a[0]).max() == 0.0
    moved = aci_flow(a, "euler", 0.5, 1e-2)
    assert np.abs(a - moved).max() < 1e-14


def test_neumann_constant_coefficient():
    a = build_system("neumann", ALPHA, x=X, y=Y)
    head = a[0]
    assert np.linalg.matrix_rank(head) <= 1
    assert np.trace(head) == pytest.approx(-np.dot(X, X), abs=1e-14)


def test_central_force_constant_coefficient_symmetric():
    a = build_system("central_force", ALPHA, x=X, y=Y)
    assert np.abs(a[0] - a[0].T).max() == 0.0


def test_mismatched_or_nonfinite_data_rejected():
    with pytest.raises(UsageError):
        build_system("neumann", [1.0, 2.0], x=X, y=Y)
    with pytest.raises(DomainError):
        build_system("neumann", [math.nan, 2.0, 4.0], x=X, y=Y)


def test_repeated_alpha_rejected():
    with pytest.raises(DegenerateFlagError):
        build_system("euler", [1.0, 1.0, 2.0], x=X, y=Y)
    with pytest.raises(UsageError):
        build_system("cubic", ALPHA)


# ----- b from a -----

def test_b_vanishes_on_trivial_data():
    a = build_system("euler", ALPHA)
    assert np.abs(b_from_a(a, "euler")).max() == 0.0


def test_neumann_b_diagonal_is_gamma():
    gamma = np.array([0.3, -0.1, 0.7])
    a = build_system("neumann", ALPHA, gamma=gamma, x=X, y=Y)
    assert np.diag(b_from_a(a, "neumann")) == pytest.approx(gamma)


def test_euler_b_reproduces_special_coupling():
    a = build_system("euler", ALPHA, x=X, y=Y)
    b = b_from_a(a, "euler")
    J = np.sqrt(ALPHA)
    want = skew_pair(X, Y) / (J[:, None] + J[None, :])
    np.fill_diagonal(want, 0.0)
    assert np.abs(b - want).max() < 1e-14


def test_log_flow_needs_positive_alpha():
    a = build_system("geodesic", [-1.0, 2.0, 3.0], x=X, y=Y)
    with pytest.raises(DomainError):
        b_from_a(a, "geodesic")


# ----- flows -----

def first_derivative(kind, alpha):
    """beta = f'(alpha) for f = (2/3) x^(3/2), ln x or x^2 / 2."""
    if kind == "euler":
        return np.sqrt(alpha)
    if kind == "neumann":
        return alpha
    return 1.0 / alpha


def reference_rk4_step(a, kind, h):
    """One RK4 step of a_j' = [a_j, b] + [a_{j-1}, diag beta] with b
    rebuilt by b_from_a at every stage."""
    beta = np.diag(first_derivative(kind, np.diag(a[-1])))

    def rhs(coeffs):
        # b of the stage coefficients, with the alpha and gamma of a: those
        # of a batch's first member
        b = b_from_a(np.array([a, coeffs]), kind)[1]
        out = [c @ b - b @ c for c in coeffs]
        for j in range(1, len(coeffs)):
            out[j] = out[j] + coeffs[j - 1] @ beta - beta @ coeffs[j - 1]
        return out

    y = list(a)
    k1 = rhs(y)
    k2 = rhs([c + 0.5 * h * k for c, k in zip(y, k1)])
    k3 = rhs([c + 0.5 * h * k for c, k in zip(y, k2)])
    k4 = rhs([c + h * k for c, k in zip(y, k3)])
    return [c + (h / 6.0) * (p + 2.0 * q + 2.0 * r + s)
            for c, p, q, r, s in zip(y, k1, k2, k3, k4)]


@pytest.mark.parametrize("kind", ["euler", "geodesic", "neumann", "central_force"])
def test_one_flow_step_matches_reference_rhs(kind):
    rng = np.random.default_rng(11)
    n = len(ALPHA)
    gamma = rng.standard_normal(n)
    degree = 1 if kind == "euler" else 2
    lower = [rng.standard_normal((n, n)) for _ in range(degree - 1)]
    sub = rng.standard_normal((n, n))
    np.fill_diagonal(sub, gamma)
    a0 = np.array(lower + [sub, np.diag(ALPHA)])
    h = 1e-3
    got = aci_flow(a0, kind, h, h)
    want = reference_rk4_step(a0, kind, h)
    assert np.abs(got - want).max() < 1e-14


def test_euler_flow_matches_classical_form():
    a0 = build_system("euler", ALPHA, x=X, y=Y)
    end = aci_flow(a0, "euler", 1.0, 1e-3)
    want = special_euler_flow(skew_pair(X, Y), np.sqrt(ALPHA), 1.0, 1e-3)
    assert np.abs(end[0] - want).max() < 1e-9


def test_diagonal_data_is_stationary():
    gamma = np.array([0.4, 0.1, -0.2])
    a0 = build_system("neumann", ALPHA, gamma=gamma)
    end = aci_flow(a0, "neumann", 1.0, 1e-2)
    assert np.abs(a0 - end).max() < 1e-13


def test_euler_trace_conserved():
    a0 = build_system("euler", ALPHA, x=X, y=Y)
    end = aci_flow(a0, "euler", 1.0, 1e-3)
    for power in (2, 3):
        t0 = np.trace(np.linalg.matrix_power(a0[0], power))
        t1 = np.trace(np.linalg.matrix_power(end[0], power))
        assert abs(t1 - t0) < 1e-10


def test_neumann_structure_preserved():
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    end = aci_flow(a0, "neumann", 1.0, 1e-3)
    skew = end[1]
    sym = end[0]
    assert np.abs(skew + skew.T).max() < 1e-9
    assert np.abs(sym - sym.T).max() < 1e-9


def test_flow_detects_corrupted_invariants():
    # a leading coefficient off the diagonal leaves the invariant manifold
    a0 = build_system("euler", ALPHA, x=X, y=Y)
    bad = a0.copy()
    bad[-1, 0, 1] = 1e-3
    with pytest.raises(StabilityError):
        aci_flow(bad, "euler", 0.1, 1e-2)


def test_flow_blow_up_is_stability_error():
    # steps this long overflow the coefficients: the NaN drift must fail
    # the guard, not pass it
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    with pytest.raises(StabilityError):
        aci_flow(a0, "neumann", 20.0, 1.5)


# ----- spectral curve -----

def test_curve_is_monic():
    a = build_system("neumann", ALPHA, x=X, y=Y)
    q = spectral_curve_coeffs(a)
    assert q[(0, 3)] == 1.0


def test_diagonal_curve_elementary_symmetric():
    a = build_system("euler", ALPHA)
    q = spectral_curve_coeffs(a)
    n = len(ALPHA)
    for ell in range(n):
        k = n - ell
        want = (-1.0) ** k * elementary_symmetric(ALPHA, k)
        assert q[(k, ell)] == pytest.approx(want, abs=1e-10)
        for kk in range(k):
            assert abs(q[(kk, ell)]) < 1e-10


def test_curve_conserved_along_flows():
    for kind, f_kind in (
        ("euler", "euler"),
        ("neumann", "neumann"),
        ("central_force", "central_force"),
    ):
        a0 = build_system(kind, ALPHA, x=X, y=Y)
        assert route_report(a0, f_kind, 2.0, 1e-3)["curve_drift"] < 1e-9


def test_curve_pass_is_np_poly_to_the_bit():
    # one eigvals call for every stack and node reproduces np.poly per
    # matrix, and a batch (roots complex for one member, real for another)
    # fits each member as it fits alone
    for kind in SYSTEM_KINDS:
        a0 = build_system(kind, ALPHA, x=X, y=Y)
        batch = np.array([a0, build_system(kind, ALPHA),
                          aci_flow(a0, kind, 0.3, 1e-2)])
        h = np.array([-0.9, -0.25, 0.1, 0.6, 1.0])
        table = aci._char_polys(batch, h)
        for member, rows in zip(batch, table):
            want = np.array([np.real(np.poly(aci._evaluate(member, x)))
                             for x in h])
            assert np.array_equal(rows, want)
        keys, rows = aci._curve_fit(batch)
        for member, row in zip(batch, rows):
            alone = spectral_curve_coeffs(member)
            assert list(alone) == keys and list(alone.values()) == list(row)


def test_curve_residual_sees_a_wrong_coefficient():
    for kind in ("euler", "neumann", "central_force"):
        a = build_system(kind, ALPHA, x=X, y=Y)
        q = spectral_curve_coeffs(a)
        assert spectral_curve_residual(a, q) < 1e-13
        q[(1, 0)] += 1e-9
        assert spectral_curve_residual(a, q) > 1e-11


def test_curve_overflow_is_numerical_error():
    a = build_system("neumann", np.array([1e308, -1e308, 1.0]), x=X, y=Y)
    with pytest.raises(NumericalError):
        spectral_curve_coeffs(a)


def test_huge_distinct_alpha_passes_without_overflow():
    # the distinctness check compares gaps scaled by max|alpha|
    with np.errstate(over="raise", invalid="raise"):
        build_system("neumann", np.array([1e308, -1e308, 1.0]), x=X, y=Y)
    with pytest.raises(DegenerateFlagError):
        build_system("neumann", np.array([1e308, 1e308 * (1 + 1e-15), 1.0]),
                     x=X, y=Y)


def test_curve_singular_solve_is_numerical_error(monkeypatch):
    a = build_system("neumann", ALPHA, x=X, y=Y)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularMatrixError):
        spectral_curve_coeffs(a)


def test_large_size_warns():
    alpha = np.arange(1.0, 8.0)
    a = build_system("euler", alpha, x=np.ones(7), y=np.arange(7.0))
    with pytest.warns(UserWarning):
        spectral_curve_coeffs(a)


# ----- commuting flows -----

def test_identical_flows_commute_exactly():
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    assert commutativity_report(a0, "neumann", "neumann", 0.1, 1e-3) < 1e-13


def test_different_hamiltonians_commute():
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    assert commutativity_report(a0, "euler", "neumann", 0.1, 1e-3) < 1e-8


def test_commutator_discrepancy_scales_like_step4():
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    coarse = commutativity_report(a0, "euler", "neumann", 0.1, step=4e-3)
    fine = commutativity_report(a0, "euler", "neumann", 0.1, step=2e-3)
    assert 8.0 < coarse / fine < 32.0


def test_flow_backward_returns_to_start():
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    there = aci_flow(a0, "neumann", 0.5, 1e-3)
    back = aci_flow(there, "neumann", -0.5, 1e-3)
    assert np.abs(back - a0).max() < 1e-12


# ----- batched RK4 -----

def test_batched_flow_matches_single_flows():
    # the batch reads alpha and gamma from its first member, a0; flowed
    # alone, a1 reads its own, which differ from a0's by rounding only
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    a1 = aci_flow(a0, "neumann", 0.3, 1e-2)
    moved = aci_flow(np.array([a0, a1]), "neumann", 0.2, 1e-2)
    for member, start in zip(moved, (a0, a1)):
        alone = aci_flow(start, "neumann", 0.2, 1e-2)
        assert np.abs(member - alone).max() < 1e-15


def test_batched_drift_guard_sees_one_bad_member():
    # the second member's gamma is off the first member's by 1e-3
    a0 = build_system("euler", ALPHA, x=X, y=Y)
    bad = a0.copy()
    bad[0] += 1e-3 * np.eye(3)
    batch = np.array([a0, bad])
    with pytest.raises(StabilityError):
        aci_flow(batch, "euler", 0.1, 1e-2)


# ----- AKS factorization route -----

@pytest.mark.parametrize("kind, plan", [
    ("euler", (4.0, 5)),
    ("geodesic", (4.0, 3)),
    ("neumann", (1.0, 3)),
    ("central_force", (8.0, 5)),
])
def test_aks_plan_at_the_defaults(kind, plan):
    # one aci run segment: t_end 10 over 5 checkpoints
    a0 = build_system(kind, ALPHA, x=X, y=Y)
    assert aks_plan(a0, kind, 2.0) == plan
    assert aks_plan(a0, kind, -2.0) == plan
    assert aks_plan(a0, kind, 0.0) == (plan[0], 0)


def test_aks_agrees_with_rk4_for_every_flow():
    for kind, f_kind in itertools.product(SYSTEM_KINDS, repeat=2):
        a0 = build_system(kind, ALPHA, x=X, y=Y)
        report = route_report(a0, f_kind, 2.0, 1e-3)
        assert report["aks_rk4_gap"] <= 1e-10, (kind, f_kind)
        assert report["aks_tail"] <= 1e-11, (kind, f_kind)
        assert report["curve_drift"] <= 1e-12, (kind, f_kind)


def full_circle_aks_step(stack, f_kind, tau, radius):
    """The AKS step on the whole circle in complex arithmetic: the
    coefficients of a(tau), as aci._aks_step computed them before it moved
    onto the half circle."""
    m, n = len(stack) - 1, stack.shape[-1]
    blocks, points = aci._aks_rule(n)
    h = radius * np.exp(2j * np.pi * np.arange(points) / points)
    a_h = np.einsum("pj,jkl->pkl", h[:, None] ** np.arange(m + 1), stack)
    scaled = a_h / h[:, None, None] ** m
    k = np.arange(1, blocks + 1)
    g = aci.expm(tau * h[:, None, None] * aci._f_prime(f_kind, scaled))
    coef = np.fft.fft(g, axis=0) / points
    toeplitz = coef[(k[None, :] - k[:, None]) % points]
    u_k = np.linalg.solve(
        toeplitz.transpose(0, 2, 1, 3).reshape(blocks * n, blocks * n),
        -coef[-k].reshape(blocks * n, n),
    ).reshape(blocks, n, n)
    u = np.fft.fft(np.concatenate([np.eye(n)[None], u_k]), n=points, axis=0)
    out = np.fft.fft(np.linalg.solve(u, a_h @ u), axis=0) / points
    return out[:m + 1].real * (radius ** -np.arange(m + 1))[:, None, None]


def test_half_circle_step_matches_the_full_circle():
    for kind, f_kind in itertools.product(SYSTEM_KINDS, repeat=2):
        a0 = build_system(kind, ALPHA, x=X, y=Y)
        radius, count = aks_plan(a0, f_kind, 2.0)
        want = full_circle_aks_step(a0, f_kind, 2.0 / count, radius)
        got, tail = aci._aks_step(a0, f_kind, 2.0 / count, radius)
        assert got.dtype == np.float64 and tail < 1e-13
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
            (kind, f_kind)


def test_route_report_plans_once(monkeypatch):
    calls, real = [], aci.aks_plan

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(aci, "aks_plan", counted)
    a0 = build_system("central_force", ALPHA, x=X, y=Y)
    route_report(a0, "central_force", 10.0, 1e-2)
    assert len(calls) == 1 and calls[0][2] == 10.0 / SEGMENTS


def test_route_report_eigensolves(monkeypatch):
    # no eig anywhere, none in an AKS sub-step, one eigvals for the curves
    calls, inside = [], {}
    for name in ("eig", "eigvals"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    for name in ("_aks_step", "_curve_fit"):
        def watched(*args, _name=name, _real=getattr(aci, name)):
            before = len(calls)
            out = _real(*args)
            inside.setdefault(_name, []).append(calls[before:])
            return out
        monkeypatch.setattr(aci, name, watched)
    a0 = build_system("euler", ALPHA, x=X, y=Y)
    route_report(a0, "euler", 10.0, 1e-2)
    assert "eig" not in calls
    assert len(inside["_aks_step"]) >= SEGMENTS
    assert all(made == [] for made in inside["_aks_step"])
    assert inside["_curve_fit"] == [["eigvals"]]


@pytest.mark.parametrize("f_kind, f_prime", [
    ("euler", np.sqrt),
    ("geodesic", lambda lam: 1.0 / lam),
    ("central_force", lambda lam: 1.0 / lam),
    ("neumann", lambda lam: lam),
])
def test_f_prime_matrix_functions_match_the_eigen_route(f_kind, f_prime):
    rng = np.random.default_rng(41)
    v = np.eye(3) + 0.3 * (rng.normal(size=(6, 3, 3))
                           + 1j * rng.normal(size=(6, 3, 3)))
    lam = rng.uniform(0.5, 5.0, size=(6, 3)) * np.exp(
        1j * rng.uniform(-1.3, 1.3, size=(6, 3)))
    vinv = np.linalg.inv(v)
    want = v @ (f_prime(lam)[:, :, None] * vinv)
    got = aci._f_prime(f_kind, v @ (lam[:, :, None] * vinv))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_aks_flow_backward_returns_to_start():
    a0 = build_system("central_force", ALPHA, x=X, y=Y)
    there, _ = aks_flow(a0, "central_force", 1.5)
    back, tail = aks_flow(there, "central_force", -1.5)
    assert 0.0 < tail < 1e-12
    assert np.abs(back - a0).max() < 1e-12


def test_aks_step_at_the_singular_radius_is_numerical_error():
    # on |h| = 1 the spectrum of a(h)/h^2 meets the pole of f' = 1/x
    a0 = build_system("central_force", ALPHA, x=X, y=Y)
    with pytest.raises(NumericalError, match="tail"):
        aci._aks_step(a0, "central_force", 0.5, 1.0)


def test_aks_step_too_long_for_its_circle_is_numerical_error():
    # exp(t R |beta|) on |h| = 3 over t = 5, without sub-steps
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    with pytest.raises(NumericalError, match="tail"):
        aci._aks_step(a0, "neumann", 5.0, 3.0)


def test_aks_nonfinite_sample_is_numerical_error(monkeypatch):
    a0 = build_system("neumann", ALPHA, x=X, y=Y)
    bad = a0.copy()
    bad[0] = math.nan
    with pytest.raises(NumericalError, match="not finite"):
        aks_flow(bad, "neumann", 1.0)

    def failing(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(NumericalError, match="AKS spectrum"):
        aks_flow(a0, "neumann", 1.0)


def test_aks_substep_count_is_bounded():
    a0 = build_system("neumann", [1e5, 2e5, 4e5], x=X, y=Y)
    with pytest.raises(NumericalError, match="sub-steps"):
        aks_plan(a0, "neumann", 1.0)
