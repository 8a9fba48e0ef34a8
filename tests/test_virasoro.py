import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxlab.errors import DepthError, SingularTauError, UsageError
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import gauss_legendre_rule
from laxlab.tau import WeightSpec
from laxlab.virasoro import (
    HankelTauSupplier,
    PfaffTauSupplier,
    TPoly,
    _MomentTau,
    _random_poly,
    apply_poly,
    central_charge,
    dressed_terms,
    heisenberg_terms,
    virasoro_commutator_residuals,
    virasoro_residual,
    weight_to_fg,
)

GAUSSIAN = WeightSpec("gaussian")
HALF = IntervalUnion([(-math.inf, 0.7)])
SMALL_T = np.array([0.02, -0.015, 0.01])


# ----- oracles -----

def log_density_slope(w, z, h=1e-6):
    """-d/dz log rho by central differences (oracle for g/f)."""
    lo = float(w.density(np.array([z - h]))[0])
    hi = float(w.density(np.array([z + h]))[0])
    return -(math.log(hi) - math.log(lo)) / (2.0 * h)


def pair_integral_oracle(w, hi, order=120):
    """Direct 2-D quadrature of the beta = 1, n = 2 ensemble integral
    int int |x - y| rho(x) rho(y) dx dy over (-L, hi)^2, written as
    2 int dx rho(x) int_{y < x} (x - y) rho(y) dy so the inner rule
    never straddles the kink of |x - y|."""
    L = 9.0
    x, wx = gauss_legendre_rule(order, (-L, hi))
    total = 0.0
    for xi, wxi in zip(x, wx):
        y, wy = gauss_legendre_rule(order, (-L, xi))
        inner = float(np.dot(wy * w.density(y), xi - y))
        total += wxi * float(w.density(np.array([xi]))[0]) * inner
    return 2.0 * total


def fd_value_derivative(sup, t, k, h=1e-6):
    tp = np.array(t, dtype=float)
    tm = np.array(t, dtype=float)
    tp[k - 1] += h
    tm[k - 1] -= h
    return (sup.value(tp) - sup.value(tm)) / (2.0 * h)


def fd_value_second(sup, t, i, j, h=2e-3):
    def stencil(hh):
        def shift(di, dj):
            tt = np.array(t, dtype=float)
            tt[i - 1] += di * hh
            tt[j - 1] += dj * hh
            return sup.value(tt)

        return (
            shift(1, 1) - shift(1, -1) - shift(-1, 1) + shift(-1, -1)
        ) / (4.0 * hh * hh)

    coarse, fine = stencil(h), stencil(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def make_supplier(n=2, hi=0.7, depth=60):
    return HankelTauSupplier(
        GAUSSIAN, IntervalUnion([(-math.inf, hi)]), n, depth=depth
    )


# ----- weight data -----

def test_weight_to_fg_gaussian():
    data = weight_to_fg(WeightSpec("gaussian", b=1.5))
    assert data.f_coeffs == (1.0,)
    assert data.g_coeffs == (0.0, 3.0)


def test_weight_to_fg_laguerre():
    data = weight_to_fg(WeightSpec("laguerre", a=0.5, b=2.0))
    assert data.f_coeffs == (0.0, 1.0)
    assert data.g_coeffs == (-0.5, 2.0)


def test_weight_to_fg_matches_log_slope():
    for w, pts in (
        (WeightSpec("gaussian", b=1.5), (-1.2, 0.4, 2.0)),
        (WeightSpec("laguerre", a=0.5, b=2.0), (0.5, 1.0, 3.0)),
    ):
        data = weight_to_fg(w)
        for z in pts:
            assert data.g(z) / data.f(z) == pytest.approx(
                log_density_slope(w, z), abs=1e-6
            )


def test_weight_to_fg_rejects_unsupported():
    with pytest.raises(UsageError):
        weight_to_fg(WeightSpec("uniform"))


# ----- suppliers -----

def test_hankel_supplier_d1_matches_fd():
    sup = make_supplier()
    t = np.zeros(4)
    for k in (1, 2, 3):
        assert sup.derivative(t, (k,)) == pytest.approx(
            fd_value_derivative(sup, t, k), abs=1e-8
        )


def test_pfaffian_supplier_matches_quadrature():
    for hi in (0.0, 0.8):
        sup = PfaffTauSupplier(
            GAUSSIAN, IntervalUnion([(-math.inf, hi)]), 2, 1, depth=6
        )
        # the pairing halves the symmetrized double integral
        assert sup.value(np.zeros(3)) == pytest.approx(
            0.5 * pair_integral_oracle(GAUSSIAN, hi), rel=1e-9
        )


def test_pfaffian_supplier_d1_matches_fd():
    sup = PfaffTauSupplier(
        GAUSSIAN, IntervalUnion([(-math.inf, 0.5)]), 2, 4, depth=30
    )
    t = np.array([0.01, -0.01, 0.0])
    for k in (1, 2):
        assert sup.derivative(t, (k,)) == pytest.approx(
            fd_value_derivative(sup, t, k), abs=1e-7
        )


def test_beta1_supplier_needs_even_n():
    with pytest.raises(UsageError):
        PfaffTauSupplier(GAUSSIAN, HALF, 3, 1, depth=6)


# ----- numeric operators -----

def test_heisenberg_terms_first_order():
    sup = make_supplier()
    t = np.zeros(4)
    assert sup.apply(heisenberg_terms(2, 0.5), t) == pytest.approx(
        fd_value_derivative(sup, t, 2), abs=1e-8
    )
    # negative index is pure multiplication: (1/2) t_1 tau at beta = 2
    t = np.array([0.3, 0.0, 0.0, 0.0])
    assert sup.apply(heisenberg_terms(-1, 0.5), t) == pytest.approx(
        0.5 * 0.3 * sup.value(t), rel=1e-12
    )
    assert sup.apply(heisenberg_terms(0, 0.5), t) == 0.0


def j2_terms(k, t):
    """J2_k alone: at beta = 2, n = 0 the J1 and constant parts vanish."""
    return dressed_terms(k, 2.0, 0, len(t))


def test_dressed_terms_second_order_vs_fd_hessian():
    sup = make_supplier()
    t = np.zeros(5)
    got = sup.apply(j2_terms(2, t), t)
    assert got == pytest.approx(fd_value_second(sup, t, 1, 1), abs=1e-8)
    # dilation part, literal in t
    t = np.array([0.05, -0.02, 0.01, 0.0, 0.0])
    got = sup.apply(j2_terms(0, t), t)
    want = sum(
        (m + 1) * t[m] * fd_value_derivative(sup, t, m + 1)
        for m in range(3)
    )
    assert got == pytest.approx(want, abs=1e-8)


def test_j_apply_validates_input():
    # the operator index k + deg f is at most 4
    with pytest.raises(UsageError):
        virasoro_residual(GAUSSIAN, 2, HALF, 2, 5)
    # an operator reaching past the stored moments is a depth error
    t = np.zeros(4)
    with pytest.raises(DepthError):
        make_supplier(depth=3).apply(j2_terms(2, t), t)


# ----- constraint residuals -----

def test_constraints_gaussian_beta2():
    for k in (-1, 0, 1):
        assert abs(virasoro_residual(GAUSSIAN, 2, HALF, 3, k)) < 1e-6
        assert abs(
            virasoro_residual(GAUSSIAN, 2, HALF, 3, k, t=SMALL_T)
        ) < 1e-6


def test_touching_pieces_merge():
    touching = IntervalUnion([(1.0, 2.0), (0.0, 1.0)])
    assert touching.intervals == ((0.0, 2.0),)
    assert touching.finite_endpoints() == [0.0, 2.0]
    whole = IntervalUnion([(0.0, 2.0)])
    assert virasoro_residual(GAUSSIAN, 2, touching, 2, 0) == virasoro_residual(
        GAUSSIAN, 2, whole, 2, 0
    )


def test_constraints_gaussian_beta2_k2():
    assert abs(virasoro_residual(GAUSSIAN, 2, HALF, 3, 2, t=SMALL_T)) < 1e-6


def test_constraints_full_range_no_boundary():
    for k in (-1, 0, 1):
        assert abs(
            virasoro_residual(GAUSSIAN, 2, None, 3, k, t=SMALL_T)
        ) < 1e-6


def test_constraints_gaussian_beta1():
    for k in (-1, 0, 1):
        assert abs(virasoro_residual(GAUSSIAN, 1, HALF, 2, k)) < 1e-4
        assert abs(
            virasoro_residual(GAUSSIAN, 1, HALF, 2, k, t=SMALL_T)
        ) < 1e-4


def test_constraints_gaussian_beta4():
    for k in (-1, 0, 1):
        assert abs(
            virasoro_residual(GAUSSIAN, 4, HALF, 1, k, t=SMALL_T)
        ) < 1e-4


def test_constraints_laguerre_beta2():
    w = WeightSpec("laguerre", a=1.0, b=1.0)
    E = IntervalUnion([(0.0, 2.5)])
    for k in (-1, 0, 1):
        assert abs(virasoro_residual(w, 2, E, 2, k, t=SMALL_T)) < 1e-6


@pytest.mark.parametrize("beta, n", [(2, 3), (1, 2), (4, 2)])
def test_constraints_on_unions_move_every_endpoint(beta, n):
    # lower and interior endpoints carry boundary terms as well as the top
    for w, E in ((GAUSSIAN, IntervalUnion([(-math.inf, -0.5), (0.3, 1.2)])),
                 (WeightSpec("laguerre", a=1.0),
                  IntervalUnion([(0.5, 1.5), (2.0, 3.0)]))):
        for k in (-1, 0, 1):
            assert abs(virasoro_residual(w, beta, E, n, k, t=SMALL_T)) < 1e-9


@pytest.mark.parametrize("beta, n", [(2, 3), (1, 2), (4, 2)])
def test_vanishing_tau_is_a_numerical_error(beta, n):
    with pytest.raises(SingularTauError):
        virasoro_residual(GAUSSIAN, beta, IntervalUnion([(-math.inf, -40.0)]),
                          n, 0)


def test_constraint_validation():
    with pytest.raises(UsageError):
        virasoro_residual(GAUSSIAN, 3, HALF, 2, 0)
    with pytest.raises(UsageError):
        virasoro_residual(GAUSSIAN, 2, HALF, 2, -2)
    with pytest.raises(UsageError):
        virasoro_residual(GAUSSIAN, 1, HALF, 3, 0)


# ----- exact operator algebra -----

def test_commutators_close():
    pairs = ((1, -1), (0, 1), (2, -1), (2, -2), (3, -3), (-1, 3))
    for beta in (1, 2, 4):
        assert max(virasoro_commutator_residuals(beta, pairs, n=3)) < 1e-10


def test_central_charge_values():
    assert central_charge(2) == 1
    assert central_charge(1) == -2
    assert central_charge(4) == -2
    with pytest.raises(UsageError):
        central_charge(0)


def test_central_term_is_needed():
    # dropping the central term (charge 0 instead of -2) must break the
    # identity at an index pair where k^3 - k is nonzero
    beta, k, l, n = 1, 2, -2, 3
    rng = random.Random(7)
    p = _random_poly(rng)
    op = lambda kk, q: apply_poly(dressed_terms(kk, Fraction(beta), n,
                                                q.max_index()), q)
    res = op(k, op(l, p)) - op(l, op(k, p)) - (k - l) * op(k + l, p)
    assert float(res.max_abs_coeff()) > 0.1
    res = res - (central_charge(beta) * Fraction(k ** 3 - k, 12)) * p
    assert res.is_zero


def test_heisenberg_commutator():
    rng = random.Random(3)
    p = _random_poly(rng)
    for beta in (1, 2, 4):
        s = Fraction(1, beta)
        op = lambda kk, q: apply_poly(heisenberg_terms(kk, s), q)
        for k, l in ((1, -1), (2, -2), (1, 2)):
            res = op(k, op(l, p)) - op(l, op(k, p))
            expect = (Fraction(k) / beta) * p if k + l == 0 else TPoly()
            assert (res - expect).is_zero


def test_beta2_dressing_is_plain_sum():
    # at beta = 2 the dressed operator collapses to J2 + 2n J1 + n^2 delta
    rng = random.Random(11)
    p = _random_poly(rng)
    n = 3
    for k in (-2, -1, 0, 1, 2):
        top = p.max_index()
        lhs = apply_poly(dressed_terms(k, Fraction(2), n, top), p)
        # J2_k alone: at beta = 2, n = 0 the J1 and constant parts vanish
        rhs = apply_poly(dressed_terms(k, Fraction(2), 0, top), p) + (
            2 * n) * apply_poly(heisenberg_terms(k, Fraction(1, 2)), p)
        if k == 0:
            rhs = rhs + Fraction(n * n) * p
        assert (lhs - rhs).is_zero


def test_batched_commutators_match_one_pair_at_a_time():
    pairs = [(1, -1), (0, 1), (2, -1), (2, -2), (3, -3), (-1, 3), (2, 1)]
    for beta in (1, 2, 4):
        batched = virasoro_commutator_residuals(beta, pairs, n=3)
        assert batched == [virasoro_commutator_residuals(beta, [pair], n=3)[0]
                           for pair in pairs]


def test_commutators_form_each_first_level_operator_once(monkeypatch):
    from laxlab import virasoro

    calls, real = [], virasoro.dressed_terms

    def counted(k, *args):
        calls.append(k)
        return real(k, *args)

    monkeypatch.setattr(virasoro, "dressed_terms", counted)
    pairs = [(1, -1), (0, 1), (2, -1), (2, -2), (3, -3), (-1, 3)]
    virasoro_commutator_residuals(1, pairs, n=3, trials=2)
    # per test polynomial: V_j p for j in {-3, ..., 3} once, then V_k V_l p
    # and V_l V_k p for each pair
    assert len(calls) == 2 * (7 + 2 * len(pairs))


def evaluate(p, t):
    """p at the point t, in exact rationals, rounded once; a time beyond
    the end of t reads as zero."""
    x = [Fraction(v) for v in t]
    total = sum(v * math.prod((x[i] if i < len(x) else 0) ** e
                              for i, e in enumerate(exps))
                for exps, v in p.terms.items())
    return float(Fraction(total, p.den))


class PolyTau(_MomentTau):
    """A supplier whose tau is the polynomial p, so that the numeric
    evaluator apply acts on the same function as apply_poly."""

    def __init__(self, p):
        self.p = p

    def value(self, t):
        return self.derivative(t, ())

    def derivative(self, t, ks):
        q = self.p
        for k in ks:
            q = q.diff(k)
        return evaluate(q, t)


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_numeric_and_exact_evaluators_agree(beta):
    rng = random.Random(5)
    for _ in range(3):
        p = _random_poly(rng)
        t = np.array([rng.uniform(-1.0, 1.0) for _ in range(6)])
        for k in range(-4, 5):
            got = PolyTau(p).apply(dressed_terms(k, float(beta), 3, len(t)),
                                   t)
            exact = dressed_terms(k, Fraction(beta), 3, p.max_index())
            assert got == pytest.approx(evaluate(apply_poly(exact, p), t),
                                        rel=1e-12)


class FractionPoly:
    """Reference: a dict of exponent tuples (trailing zeros trimmed) to
    nonzero Fraction coefficients."""

    def __init__(self, terms):
        self.terms = {}
        for e, c in terms.items():
            e = tuple(e)
            while e and e[-1] == 0:
                e = e[:-1]
            if c:
                self.terms[e] = Fraction(c)

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return FractionPoly(out)

    def scale(self, c):
        return FractionPoly({e: c * v for e, v in self.terms.items()})

    def mul_var(self, i):
        out = {}
        for e, c in self.terms.items():
            e = list(e) + [0] * max(0, i - len(e))
            e[i - 1] += 1
            out[tuple(e)] = c
        return FractionPoly(out)

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if i <= len(e) and e[i - 1]:
                e2 = list(e)
                e2[i - 1] -= 1
                out[tuple(e2)] = c * e[i - 1]
        return FractionPoly(out)


FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
POLY_TERMS = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=4).map(tuple), FRACTIONS,
    max_size=6)
POLY_STEPS = st.lists(st.one_of(
    st.tuples(st.just("diff"), st.integers(1, 5)),
    st.tuples(st.just("mul_var"), st.integers(1, 5)),
    st.tuples(st.just("scale"), FRACTIONS),
    st.tuples(st.just("add"), POLY_TERMS),
    st.tuples(st.just("sub"), POLY_TERMS),
), max_size=12)


@settings(max_examples=200, deadline=None)
@given(POLY_TERMS, POLY_STEPS)
def test_tpoly_matches_a_fraction_dict(terms, steps):
    p, ref = TPoly(terms), FractionPoly(terms)
    for op, arg in steps:
        if op == "scale":
            p, ref = arg * p, ref.scale(arg)
        elif op == "add":
            p, ref = p + TPoly(arg), ref + FractionPoly(arg)
        elif op == "sub":
            p, ref = p - TPoly(arg), ref + FractionPoly(arg).scale(-1)
        else:
            p, ref = getattr(p, op)(arg), getattr(ref, op)(arg)
        values = {e: Fraction(v, p.den) for e, v in p.terms.items()}
        assert values == ref.terms
        assert p.is_zero == (not ref.terms)
        assert p.max_abs_coeff() == max(map(abs, ref.terms.values()),
                                        default=0)
        assert p == TPoly(ref.terms)


def test_poly_algebra_basics():
    p = TPoly({(2, 1): 3})  # 3 t1^2 t2
    assert p.diff(1) == TPoly({(1, 1): 6})
    assert p.mul_var(3) == TPoly({(2, 1, 1): 3})
    assert (p - p).is_zero
    half = Fraction(1, 2)
    assert apply_poly(heisenberg_terms(0, half), p).is_zero
    assert apply_poly(heisenberg_terms(-2, half), p) == TPoly({(2, 2): 3})
