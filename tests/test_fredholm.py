import itertools
import math

import numpy as np
import pytest

from evolution_reference import polarized
from laxlab import fredholm
from laxlab.errors import DomainError, UsageError
from laxlab.fd import central_diff
from laxlab.fredholm import (
    KernelSpec,
    hermite_functions,
    kernel_eval,
    nystrom_det,
    nystrom_matrix,
    nystrom_series,
    scaling_limit_error,
)
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import airy_ai_vec, gauss_legendre_rule
from laxlab.tau import logdet_partials, solved


# ----- oracles -----

def airy_quadrature_oracle(y, z, upper=40.0, panel=1.0, order=24):
    """int_0^inf Ai(u+y) Ai(u+z) du by composite Gauss-Legendre panels;
    independent of the closed-form kernel expression."""
    total = 0.0
    lo = 0.0
    while lo < upper:
        x, w = gauss_legendre_rule(order, (lo, lo + panel))
        ay, _ = airy_ai_vec(x + y)
        az, _ = airy_ai_vec(x + z)
        total += w @ (ay * az)
        lo += panel
    return total


def line_rule(halfwidth, order=80, panels=6):
    """Composite rule on (-halfwidth, halfwidth)."""
    edges = np.linspace(-halfwidth, halfwidth, panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre_rule(order, (lo, hi))
        xs.append(x)
        ws.append(w)
    return np.concatenate(xs), np.concatenate(ws)


# ----- kernel evaluation -----

def test_sine_diagonal_is_one():
    k = KernelSpec("sine")
    assert kernel_eval(k, 0.3, 0.3) == 1.0
    assert kernel_eval(k, 0.3, 0.3 + 1e-13) == pytest.approx(1.0, abs=1e-12)


def test_airy_matches_quadrature_oracle():
    k = KernelSpec("airy")
    assert kernel_eval(k, 0.0, 1.0) == pytest.approx(
        airy_quadrature_oracle(0.0, 1.0), abs=1e-10
    )
    assert kernel_eval(k, -1.5, 0.5) == pytest.approx(
        airy_quadrature_oracle(-1.5, 0.5), abs=1e-10
    )
    # diagonal limit agrees with the integral as well
    assert kernel_eval(k, 0.5, 0.5) == pytest.approx(
        airy_quadrature_oracle(0.5, 0.5), abs=1e-10
    )


def test_bessel_diagonal_matches_limit():
    k = KernelSpec("bessel", nu=0.5)
    y = 1.3
    eps = 1e-6
    near = kernel_eval(k, y, y + eps)
    assert kernel_eval(k, y, y) == pytest.approx(near, abs=1e-5)
    # hard-edge kernel is positive on the diagonal
    assert kernel_eval(k, y, y) > 0.0


def test_hermite_trace_is_n():
    for N, b in ((6, 1.0), (11, 0.5)):
        k = KernelSpec("hermite", N=N, b=b)
        halfwidth = math.sqrt(2.0 * N / b) + 8.0 / math.sqrt(b)
        x, w = line_rule(halfwidth)
        diag = np.array([kernel_eval(k, t, t) for t in x])
        assert w @ diag == pytest.approx(N, abs=1e-10)


def test_hermite_functions_orthonormal():
    N, b = 5, 0.7
    halfwidth = math.sqrt(2.0 * N / b) + 8.0 / math.sqrt(b)
    x, w = line_rule(halfwidth)
    phi = hermite_functions(N, b, x)
    gram = (phi * w) @ phi.T
    assert np.abs(gram - np.eye(N)).max() < 1e-10


def test_kernels_symmetric():
    pts = [(0.2, 1.7), (-1.0, 0.4)]
    for kind, kwargs in (
        ("airy", {}),
        ("sine", {}),
        ("hermite", {"N": 4, "b": 1.0}),
    ):
        k = KernelSpec(kind, **kwargs)
        for y, z in pts:
            assert abs(kernel_eval(k, y, z) - kernel_eval(k, z, y)) < 1e-12
    k = KernelSpec("bessel", nu=0.25)
    for y, z in [(0.2, 1.7), (1.0, 0.4)]:
        assert abs(kernel_eval(k, y, z) - kernel_eval(k, z, y)) < 1e-12


@pytest.mark.parametrize("spec", [
    KernelSpec("airy"), KernelSpec("bessel", nu=0.5), KernelSpec("sine"),
    KernelSpec("hermite", N=5, b=1.0),
])
def test_kernel_eval_broadcasts_like_an_elementwise_function(spec):
    y = np.array([0.3, 1.2, 2.5])
    z = np.array([0.7, 1.2, 0.4])
    got = kernel_eval(spec, y, z)
    assert got.shape == y.shape
    table = kernel_eval(spec, y[:, None], z[None, :])
    assert np.array_equal(got, np.diagonal(table))


def counted_bessel(monkeypatch):
    """The sizes of the point arrays fredholm hands to bessel_sqrt_vec."""
    sizes, real = [], fredholm.bessel_sqrt_vec

    def counted(nu, x):
        sizes.append(np.size(x))
        return real(nu, x)

    monkeypatch.setattr(fredholm, "bessel_sqrt_vec", counted)
    return sizes


def test_kernel_table_takes_the_diagonal_form_only_where_it_is_used(
        monkeypatch):
    # a 6 x 6 Bessel table: one point per entry of each axis, and one at
    # the midpoint of each of the 6 pairs with y = z
    sizes = counted_bessel(monkeypatch)
    x = np.arange(0.5, 3.01, 0.5)
    table = kernel_eval(KernelSpec("bessel"), x[:, None], x[None, :])
    assert sum(sizes) == 18
    monkeypatch.undo()
    assert np.array_equal(np.diagonal(table),
                          [kernel_eval(KernelSpec("bessel"), v, v) for v in x])


def test_bessel_nystrom_matrix_takes_one_call_on_its_nodes(monkeypatch):
    sizes = counted_bessel(monkeypatch)
    _, x, _ = nystrom_matrix(KernelSpec("bessel", nu=1.0),
                             IntervalUnion([(0.0, 2.0)]), 8)
    assert len(x) == 8
    assert sizes == [8]


def test_kernel_spec_validation():
    with pytest.raises(UsageError):
        KernelSpec("cauchy")
    with pytest.raises(DomainError):
        KernelSpec("bessel", nu=-1.5)
    with pytest.raises(DomainError):
        KernelSpec("hermite", N=0)


def test_bessel_rejects_nonpositive_arguments():
    k = KernelSpec("bessel")
    with pytest.raises(DomainError):
        kernel_eval(k, -0.5, 1.0)


# ----- Nystrom determinants -----

def test_det_trivial_cases():
    k0 = KernelSpec("sine", lam=0.0)
    E = IntervalUnion([(0.0, 1.0)])
    assert nystrom_det(k0, E) == pytest.approx(1.0, abs=1e-14)
    k = KernelSpec("sine")
    assert nystrom_det(k, IntervalUnion([])) == 1.0


def test_det_order_self_consistency():
    E = IntervalUnion([(0.0, math.inf)])
    k = KernelSpec("airy")
    for s in (-2.0, 0.0, 1.5):
        Es = IntervalUnion([(s, math.inf)])
        d1 = nystrom_det(k, Es, order=48)
        d2 = nystrom_det(k, Es, order=96)
        assert abs(d1 - d2) < 1e-10
    val = nystrom_det(k, E, order=72)
    err = abs(nystrom_det(k, E, order=48) - val)
    assert err < 1e-10
    assert 0.0 < val < 1.0


@pytest.mark.parametrize("order", [64, 96])
def test_hard_edge_det_at_nu_0_is_exponential(order):
    # det(I - K_bessel on (0, s)) = exp(-s/4) at nu = 0: the smallest
    # eigenvalue of a square Laguerre ensemble is exponential at the hard
    # edge (Forrester, Nucl. Phys. B 402, 1993)
    k = KernelSpec("bessel", nu=0.0)
    for s in np.arange(0.5, 20.01, 0.5):
        det = nystrom_det(k, IntervalUnion([(0.0, float(s))]), order)
        assert det == pytest.approx(math.exp(-s / 4.0), rel=1e-12, abs=0.0)


def test_trace_expansion_small_lambda():
    lam = 0.05
    E = IntervalUnion([(0.0, 1.0)])
    k = KernelSpec("sine", lam=lam)
    det = nystrom_det(k, E, order=48)
    mat, _, _ = nystrom_matrix(KernelSpec("sine"), E, 48)
    powers = itertools.accumulate([mat] * 6, np.matmul)
    traces = [float(np.trace(power)) for power in powers]
    logdet = -sum(lam ** j * traces[j - 1] / j for j in range(1, 7))
    assert det == pytest.approx(math.exp(logdet), abs=1e-8)


@pytest.mark.parametrize("kernel,intervals", [
    (KernelSpec("airy"), "-2:inf"),
    (KernelSpec("airy"), "-4:-1,1:inf"),
    (KernelSpec("bessel"), "0:1.5,2:3"),
    (KernelSpec("bessel", nu=1.5), "0:1.5,2:3"),
])
def test_nystrom_matrix_is_the_kernel_table_on_its_nodes(kernel, intervals):
    # both build the kernel from one (f, g, diagonal) form: equal bit for bit
    mat, x, w = nystrom_matrix(kernel, IntervalUnion.parse(intervals), 32)
    table = kernel_eval(kernel, x[:, None], x[None, :])
    if kernel.nu != 0.0:
        scale = x ** (-0.5 * kernel.nu)
        table = scale[:, None] * table * scale[None, :]
    sw = np.sqrt(w)
    assert np.array_equal(sw[:, None] * table * sw[None, :], mat)


def test_airy_det_monotone_in_endpoint():
    k = KernelSpec("airy")
    vals = [
        nystrom_det(k, IntervalUnion([(s, math.inf)]), order=64)
        for s in (-3.0, -1.0, 0.0, 1.0, 3.0)
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)
    assert vals[-1] > 0.999


def test_airy_det_monotone_in_lambda():
    E = IntervalUnion([(-1.0, math.inf)])
    vals = [
        nystrom_det(KernelSpec("airy", lam=lam), E, order=64)
        for lam in (0.2, 0.5, 0.8, 1.0)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_det_multi_interval_product_bound():
    # det over a union is below the product over the separate pieces
    # (positive-definite kernel: removing cross blocks raises the det)
    k = KernelSpec("sine")
    a = IntervalUnion([(0.0, 0.8)])
    b = IntervalUnion([(1.0, 1.6)])
    both = IntervalUnion([(0.0, 0.8), (1.0, 1.6)])
    d = nystrom_det(k, both, order=48)
    assert d <= nystrom_det(k, a, order=48) * nystrom_det(k, b, order=48) + 1e-12
    assert 0.0 < d < 1.0


def test_unbounded_domain_rejected():
    with pytest.raises(DomainError):
        nystrom_det(KernelSpec("sine"), IntervalUnion([(0.0, math.inf)]))
    with pytest.raises(DomainError):
        nystrom_det(KernelSpec("airy"), IntervalUnion([(-math.inf, 0.0)]))


# ----- scaling limits -----

def test_bulk_diagonal_normalized():
    assert scaling_limit_error(30, "bulk", [0.0]) < 1e-10


def test_edge_error_small_at_n50():
    grid = np.linspace(-2.0, 2.0, 9)
    assert scaling_limit_error(50, "edge", grid) < 5e-2


def test_bulk_error_small():
    grid = np.linspace(-1.0, 1.0, 9)
    assert scaling_limit_error(60, "bulk", grid) < 5e-2


def test_edge_error_decreases_with_n():
    grid = np.linspace(-2.0, 2.0, 9)
    errs = [scaling_limit_error(N, "edge", grid) for N in (20, 40, 80)]
    assert errs[0] > errs[1] > errs[2]


def test_scaling_checks_validate_input():
    with pytest.raises(UsageError):
        scaling_limit_error(5, "edge", [0.0])
    with pytest.raises(UsageError):
        scaling_limit_error(50, "corner", [0.0])


# ----- endpoint series -----

def moved(E, d, eps):
    """E with its k-th finite endpoint moved by eps * d[k]."""
    steps = iter([eps * di for di in d])
    return IntervalUnion([
        tuple(c + next(steps) if math.isfinite(c) else c for c in piece)
        for piece in E.intervals
    ])


def jets(g):
    """[D, D^2, ...] of log det from a 1-D box of Taylor matrices."""
    return logdet_partials(solved(g[(0,)], g.__getitem__),
                           [(r,) for r in range(1, len(g))])


def fd_logdet_derivatives(kernel, E, d, order=64):
    """D_d^k log det(I - K|_E) for k = 1..4 by Richardson central
    differences of the plain Nystrom determinant."""

    def F(eps):
        return math.log(nystrom_det(kernel, moved(E, d, eps), order))

    return [central_diff(F, k, 1e-2 if k < 3 else 2e-2) for k in (1, 2, 3, 4)]


ENDPOINT_SERIES_CASES = [
    (KernelSpec("airy"), "-4:-1,1:inf", (1.0, 0.5, -0.7)),
    (KernelSpec("bessel"), "0:1.5,2:3", (0.0, 1.5, -2.0, 3.0)),
    (KernelSpec("bessel", nu=0.25), "0:1.5,2:3", (0.0, 1.5, -2.0, 3.0)),
    (KernelSpec("bessel", nu=-0.25), "0.5:1.5,2:3", (0.3, 1.5, -2.0, 3.0)),
]


@pytest.mark.parametrize("kernel,intervals,d", ENDPOINT_SERIES_CASES)
def test_series_derivatives_match_finite_differences(kernel, intervals, d):
    E = IntervalUnion.parse(intervals)
    jet = jets(nystrom_series(kernel, E, 64, [d], (4,)))
    fd = fd_logdet_derivatives(kernel, E, d)
    for k, (a, b) in enumerate(zip(jet, fd), start=1):
        assert abs(a - b) < 1e-4 * max(1.0, abs(b)), (k, a, b)


def test_series_follow_the_moving_airy_tail_cut():
    # beyond lo = AIRY_TAIL_CUT - 0.5 the cut moves with lo; lambda = 1e16
    # lifts the tail's determinant above roundoff, and the derivatives
    # differ from those of a fixed cut
    kernel = KernelSpec("airy", lam=1e16)
    E = IntervalUnion([(9.2, math.inf)])
    jet = jets(nystrom_series(kernel, E, 64, [(1.0,)], (4,)))
    fd = fd_logdet_derivatives(kernel, E, (1.0,))
    for k, (a, b) in enumerate(zip(jet, fd), start=1):
        assert abs(a - b) < 1e-4 * max(1e-2, abs(b)), (k, a, b)
    fixed = nystrom_series(kernel, IntervalUnion([(9.2, 9.7)]), 64,
                           [(1.0, 0.0)], (1,))
    assert abs(jets(fixed)[0] - jet[0]) > 1e-2 * jet[0]


@pytest.mark.parametrize("kernel,intervals,d", ENDPOINT_SERIES_CASES)
def test_series_constant_term_is_the_nystrom_matrix(kernel, intervals, d):
    E = IntervalUnion.parse(intervals)
    g0 = nystrom_series(kernel, E, 64, [d], (2,))[(0,)]
    want = np.eye(len(g0)) - kernel.lam * nystrom_matrix(kernel, E, 64)[0]
    assert np.abs(g0 - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("kernel,intervals,u", ENDPOINT_SERIES_CASES)
def test_mixed_partial_matches_polarized_jets(kernel, intervals, u):
    # v keeps u's first component, so a fixed hard edge stays fixed
    v = u[:1] + u[:0:-1]
    E = IntervalUnion.parse(intervals)
    box = nystrom_series(kernel, E, 64, [u, v], (4, 1))
    (mixed,) = logdet_partials(solved(box[(0, 0)], box.__getitem__),
                               [(1, 1)])

    def directional(ab, order):  # D_w, ..., D_w^order, w = a u + b v
        w = ab[0] * np.asarray(u) + ab[1] * np.asarray(v)
        return jets(nystrom_series(kernel, E, 64, [w], (order,)))

    assert mixed == pytest.approx(polarized(directional, [1, 2]), rel=1e-10)
    # the first axis of the box is the 1-D box along u
    along_u = nystrom_series(kernel, E, 64, [u], (4,))
    for j in range(5):
        assert np.array_equal(box[(j, 0)], along_u[(j,)])


def test_series_validate_input():
    E = IntervalUnion([(0.0, 2.0)])
    with pytest.raises(UsageError):
        nystrom_series(KernelSpec("sine"), E, 32, [(0.0, 1.0)], (2,))
    with pytest.raises(UsageError):
        nystrom_series(KernelSpec("bessel"), E, 32, [(0.0, 1.0)], (2, 1))
    with pytest.raises(UsageError):
        nystrom_series(KernelSpec("bessel"), E, 32, [(1.0,)], (2,))
    with pytest.raises(DomainError):
        nystrom_series(KernelSpec("bessel"), E, 32, [(1.0, 1.0)], (2,))
