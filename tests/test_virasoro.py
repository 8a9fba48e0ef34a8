import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxlab.ensembles import EnsembleTau
from laxlab.errors import DepthError, SingularTauError, UsageError
from laxlab.intervals import IntervalUnion
from laxlab.mathcore import gauss_legendre_rule
from laxlab.tau import WeightSpec
from laxlab.virasoro import (
    apply,
    as_operator,
    central_charge,
    commutator,
    compose,
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


def fd_value_derivative(make, t, k, h=1e-6):
    """d tau / dt_k of the taus make(t) by central differences."""
    tp = np.array(t, dtype=float)
    tm = np.array(t, dtype=float)
    tp[k - 1] += h
    tm[k - 1] -= h
    return (make(tp).value() - make(tm).value()) / (2.0 * h)


def fd_value_second(make, t, i, j, h=2e-3):
    def stencil(hh):
        def shift(di, dj):
            tt = np.array(t, dtype=float)
            tt[i - 1] += di * hh
            tt[j - 1] += dj * hh
            return make(tt).value()

        return (
            shift(1, 1) - shift(1, -1) - shift(-1, 1) + shift(-1, -1)
        ) / (4.0 * hh * hh)

    coarse, fine = stencil(h), stencil(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def make_supplier(t, depth=58):
    """tau_2 of the gaussian weight evolved to t, on (-inf, 0.7], with
    moments to index 2 + depth."""
    return EnsembleTau(
        WeightSpec("gaussian", times=t), IntervalUnion([(-math.inf, 0.7)]), 2,
        2, depth=depth
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


# ----- EnsembleTau -----

def test_hankel_supplier_d1_matches_fd():
    t = np.zeros(4)
    sup = make_supplier(t)
    for k in (1, 2, 3):
        assert sup.derivative((k,)) == pytest.approx(
            fd_value_derivative(make_supplier, t, k), abs=1e-8
        )


def test_pfaffian_supplier_matches_quadrature():
    for hi in (0.0, 0.8):
        sup = EnsembleTau(
            GAUSSIAN, IntervalUnion([(-math.inf, hi)]), 1, 2, depth=6
        )
        # the pairing halves the symmetrized double integral
        assert sup.value() == pytest.approx(
            0.5 * pair_integral_oracle(GAUSSIAN, hi), rel=1e-9
        )


def test_pfaffian_supplier_d1_matches_fd():
    def make(t):
        return EnsembleTau(WeightSpec("gaussian", times=t),
                           IntervalUnion([(-math.inf, 0.5)]), 4, 2, depth=30)

    t = np.array([0.01, -0.01, 0.0])
    for k in (1, 2):
        assert make(t).derivative((k,)) == pytest.approx(
            fd_value_derivative(make, t, k), abs=1e-7
        )


def test_beta1_supplier_needs_even_n():
    with pytest.raises(UsageError):
        EnsembleTau(GAUSSIAN, HALF, 1, 3, depth=6)


# ----- numeric operators -----

def test_heisenberg_terms_first_order():
    t = np.zeros(4)
    assert apply(make_supplier(t), heisenberg_terms(2, 0.5)) == pytest.approx(
        fd_value_derivative(make_supplier, t, 2), abs=1e-8
    )
    # negative index is pure multiplication: (1/2) t_1 tau at beta = 2
    sup = make_supplier(np.array([0.3, 0.0, 0.0, 0.0]))
    assert apply(sup, heisenberg_terms(-1, 0.5)) == pytest.approx(
        0.5 * 0.3 * sup.value(), rel=1e-12
    )
    assert apply(sup, heisenberg_terms(0, 0.5)) == 0.0


def j2_terms(k, t):
    """J2_k alone: at beta = 2, n = 0 the J1 and constant parts vanish."""
    return dressed_terms(k, 2.0, 0, len(t))


def test_dressed_terms_second_order_vs_fd_hessian():
    t = np.zeros(5)
    got = apply(make_supplier(t), j2_terms(2, t))
    assert got == pytest.approx(fd_value_second(make_supplier, t, 1, 1),
                                abs=1e-8)
    # dilation part, literal in t
    t = np.array([0.05, -0.02, 0.01, 0.0, 0.0])
    got = apply(make_supplier(t), j2_terms(0, t))
    want = sum(
        (m + 1) * t[m] * fd_value_derivative(make_supplier, t, m + 1)
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
        apply(make_supplier(t, depth=1), j2_terms(2, t))


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


def apply_op(op, p):
    """The operator {(mul, diff): c} applied to a FractionPoly."""
    out = FractionPoly({})
    for (mul, diff), c in op.items():
        q = p
        for i in diff:
            q = q.diff(i)
        for i in mul:
            q = q.mul_var(i)
        out = out + q.scale(c)
    return out


def random_poly(rng):
    """Ten random monomials of degree <= 6 in t_1..t_6 (a repeat keeps the
    last), with integer coefficients in [-9, 9]."""
    terms = {}
    for _ in range(10):
        exps = [0] * 6
        for _ in range(rng.randint(0, 6)):
            exps[rng.randrange(6)] += 1
        terms[tuple(exps)] = rng.randint(-9, 9)
    return FractionPoly(terms)


def linear_combination(*scaled_ops):
    """sum s * op over (s, op) pairs, zero coefficients dropped."""
    out = {}
    for s, op in scaled_ops:
        for key, c in op.items():
            out[key] = out.get(key, 0) + s * c
    return {key: c for key, c in out.items() if c}


PAIRS = [(1, -1), (0, 1), (2, -1), (2, -2), (3, -3), (-1, 3)]


def test_commutators_close():
    for beta in (1, 2, 4):
        assert max(virasoro_commutator_residuals(beta, PAIRS, n=3)) < 1e-10


def test_central_charge_values():
    assert central_charge(2) == 1
    assert central_charge(1) == -2
    assert central_charge(4) == -2
    with pytest.raises(UsageError):
        central_charge(0)


def test_central_term_is_needed(monkeypatch):
    # dropping the central term (charge 0 instead of -2) must break the
    # identity at an index pair where k^3 - k is nonzero
    from laxlab import virasoro

    assert virasoro_commutator_residuals(1, [(2, -2)], n=3) == [0.0]
    monkeypatch.setattr(virasoro, "central_charge", lambda beta: 0)
    assert virasoro_commutator_residuals(1, [(2, -2)], n=3)[0] > 0.1


def test_heisenberg_commutator():
    for beta in (1, 2, 4):
        s = Fraction(1, beta)
        for k, l in ((1, -1), (2, -2), (1, 2), (-1, -3)):
            res = commutator(as_operator(heisenberg_terms(k, s)),
                             as_operator(heisenberg_terms(l, s)))
            expect = {((), ()): Fraction(k, beta)} if k + l == 0 else {}
            assert linear_combination((1, res)) == expect


def test_beta2_dressing_is_plain_sum():
    # at beta = 2 the dressed operator collapses to J2 + 2n J1 + n^2 delta
    n, top, two = 3, 6, Fraction(2)
    for k in (-2, -1, 0, 1, 2):
        lhs = as_operator(dressed_terms(k, two, n, top))
        # J2_k alone: at beta = 2, n = 0 the J1 and constant parts vanish
        rhs = linear_combination(
            (1, as_operator(dressed_terms(k, two, 0, top))),
            (2 * n, as_operator(heisenberg_terms(k, Fraction(1, 2)))),
            (n * n if k == 0 else 0, {((), ()): 1}))
        assert linear_combination((1, lhs)) == rhs


def test_batched_commutators_match_one_pair_at_a_time():
    pairs = PAIRS + [(2, 1)]
    for beta in (1, 2, 4):
        batched = virasoro_commutator_residuals(beta, pairs, n=3)
        assert batched == [virasoro_commutator_residuals(beta, [pair], n=3)[0]
                           for pair in pairs]


def test_commutators_build_each_operator_once(monkeypatch):
    from laxlab import virasoro

    calls, real = [], virasoro.dressed_terms

    def counted(k, *args):
        calls.append(k)
        return real(k, *args)

    monkeypatch.setattr(virasoro, "dressed_terms", counted)
    virasoro_commutator_residuals(1, PAIRS, n=3)
    # V_k, V_l and V_{k+l} over the pairs are V_{-3} ... V_3
    assert sorted(calls) == list(range(-3, 4))


def scaled_dilation(real, factor, raise_top=0):
    """dressed_terms with the dilation coefficient at m = 2 times factor,
    and the dilation sums cut raise_top further out."""

    def terms(k, beta, n, top):
        return [(c * factor if mul == (2,) and diff == (2 + k,) else c,
                 mul, diff)
                for c, mul, diff in real(k, beta, n, top + raise_top)]

    return terms


def test_residuals_do_not_depend_on_a_cut_above_the_window(monkeypatch):
    # every compared coefficient is exact at the cut, so cutting further
    # out changes nothing, for a right operator and a wrong one alike
    from laxlab import virasoro

    real = virasoro.dressed_terms
    for beta in (1, 4):
        for factor in (1, Fraction(11, 10)):
            seen = []
            for raise_top in (0, 1, 5):
                monkeypatch.setattr(virasoro, "dressed_terms",
                                    scaled_dilation(real, factor, raise_top))
                seen.append(virasoro_commutator_residuals(beta, PAIRS, n=3))
            assert seen[0] == seen[1] == seen[2]
            if factor == 1:
                assert max(seen[0]) == 0.0
            else:
                assert min(seen[0]) > 0.1


def evaluate(p, t):
    """p at the point t, in exact rationals, rounded once; a time beyond
    the end of t reads as zero."""
    x = [Fraction(v) for v in t]
    return float(sum(v * math.prod((x[i] if i < len(x) else 0) ** e
                                   for i, e in enumerate(exps))
                     for exps, v in p.terms.items()))


class PolyTau:
    """A tau that is the polynomial p, at the times t, so that the numeric
    evaluator apply acts on the same function as the exact operator."""

    def __init__(self, p, t):
        self.p, self.times = p, t

    def derivative(self, ks):
        q = self.p
        for k in ks:
            q = q.diff(k)
        return evaluate(q, self.times)


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_numeric_and_exact_evaluators_agree(beta):
    rng = random.Random(5)
    for _ in range(3):
        p = random_poly(rng)
        t = np.array([rng.uniform(-1.0, 1.0) for _ in range(6)])
        for k in range(-4, 5):
            got = apply(PolyTau(p, t), dressed_terms(k, float(beta), 3,
                                                     len(t)))
            exact = as_operator(dressed_terms(k, Fraction(beta), 3, len(t)))
            assert got == pytest.approx(evaluate(apply_op(exact, p), t),
                                        rel=1e-12)


FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=12)
POLY_TERMS = st.dictionaries(
    st.lists(st.integers(0, 3), max_size=4).map(tuple), FRACTIONS,
    max_size=6)
INDICES = st.lists(st.integers(1, 4), max_size=3)
TERM_LISTS = st.lists(st.tuples(FRACTIONS, INDICES, INDICES), max_size=4)


@settings(max_examples=200, deadline=None)
@given(TERM_LISTS, TERM_LISTS, POLY_TERMS)
def test_compose_is_applying_in_turn(a, b, terms):
    a, b, p = as_operator(a), as_operator(b), FractionPoly(terms)
    assert (apply_op(compose(a, b), p).terms
            == apply_op(a, apply_op(b, p)).terms)


def test_normal_order_basics():
    d1, t1 = {((), (1,)): 1}, {((1,), ()): 1}
    # d/dt_1 t_1 = t_1 d/dt_1 + 1, and d/dt_1 t_1^2 = t_1^2 d/dt_1 + 2 t_1
    assert compose(d1, t1) == {((1,), (1,)): 1, ((), ()): 1}
    assert compose(d1, compose(t1, t1)) == {((1, 1), (1,)): 1, ((1,), ()): 2}
    # t_1 d/dt_1 is already in normal order; d/dt_2 passes t_1
    assert compose(t1, d1) == {((1,), (1,)): 1}
    assert compose({((), (2,)): 1}, t1) == {((1,), (2,)): 1}
    assert as_operator([(2, (3, 1), ()), (1, (1, 3), ())]) == {((1, 3), ()): 3}
    assert commutator(d1, t1) == {((1,), (1,)): 0, ((), ()): 1}
