"""Linear constraint operators for moment-matrix tau functions.

Three layers:

* weight data: the rational logarithmic derivative -rho'/rho = g/f of a
  weight, as coefficient lists of f and g;
* the operators, each defined once as a list of terms (c, mul, diff)
  meaning c * prod_{i in mul} t_i * d/dt_{diff}: the first-order
  (Heisenberg) operators J1_k and the beta- and n-dressed second-order
  (Virasoro) operators, with coefficients in the type of beta;
* two evaluators of those lists: ``apply`` on a tau function, for the
  constraint residual on ensembles.EnsembleTau of the weight evolved to
  the times t, whose time partials and endpoint derivatives are exact;
  ``apply_poly`` on polynomials in t_1, t_2, ... with rational
  coefficients, for the commutation relations and the central charge
  without any rounding.

Throughout, the multiplication-by-t terms carry the weight
sigma = 1/beta: that weight is pinned by the translation and dilation
identities of the ensemble integrals, and it is also exactly the weight
for which the dressed operators close as a Virasoro algebra in the
standard normalization.
"""

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .ensembles import EnsembleTau
from .errors import UsageError

# ----------------------------------------------------------------------
# weight data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VirasoroWeightData:
    """Coefficients of f and g in -rho'/rho = g/f, lowest degree first."""

    f_coeffs: tuple
    g_coeffs: tuple

    def f(self, z):
        return sum(c * z ** i for i, c in enumerate(self.f_coeffs))

    def g(self, z):
        return sum(c * z ** i for i, c in enumerate(self.g_coeffs))


def weight_to_fg(w):
    """Extract (f, g) with -rho'/rho = g/f for the supported families.
    Each has f(z) rho(z) z^k -> 0 at both ends of its support, for every
    a > -1 and b > 0 that WeightSpec accepts."""
    if w.family == "gaussian":
        fc, gc = (1.0,), (0.0, 2.0 * w.b)
    elif w.family == "laguerre":
        fc, gc = (0.0, 1.0), (-w.a, w.b)
    else:
        raise UsageError(
            f"no rational-log-derivative data for the {w.family} weight"
        )
    return VirasoroWeightData(f_coeffs=fc, g_coeffs=gc)


# ----------------------------------------------------------------------
# the operators, as term lists
# ----------------------------------------------------------------------


def heisenberg_terms(k, sigma):
    """J1_k: d/dt_k for k > 0, sigma (-k) t_{-k} for k < 0, zero at 0."""
    if k > 0:
        return [(1, (), (k,))]
    if k < 0:
        return [(sigma * -k, (-k,), ())]
    return []


def dressed_terms(k, beta, n, top):
    """The beta- and n-dressed second-order operator, sigma = 1/beta:

        (beta/2) J2_k + (n beta + (k + 1)(1 - beta/2)) J1_k
        + [k = 0] n ((n - 1) beta/2 + 1),

    where J2_k holds the derivative pairs i + j = k, the dilation part
    2 sigma m t_m d/dt_{m+k} and the multiplication pairs
    sigma^2 i j t_i t_j, i + j = -k.  The dilation part runs over
    m <= top - min(k, 0), which covers every nonzero term when t_i = 0
    for i > top, or when the operand involves no t_i with i > top."""
    sigma, half = 1 / beta, beta / 2
    terms = [(half, (), (i, k - i)) for i in range(1, k)]
    terms += [(half * (2 * sigma * m), (m,), (m + k,))
              for m in range(max(1, 1 - k), top - min(k, 0) + 1)]
    terms += [(half * (sigma * sigma * i * (-k - i)), (i, -k - i), ())
              for i in range(1, -k)]
    coeff = n * beta + (k + 1) * (1 - half)
    if coeff:
        terms += [(coeff * c, mul, diff)
                  for c, mul, diff in heisenberg_terms(k, sigma)]
    if k == 0:
        terms.append((n * ((n - 1) * half + 1), (), ()))
    return terms


def apply(tau, terms):
    """The operator of a term list applied to tau, anything with the
    ``times`` it is taken at and a ``derivative(ks)``; a time beyond the
    end of the times reads as zero."""
    t, total = tau.times, 0.0
    for c, mul, diff in terms:
        for i in mul:
            c = c * (t[i - 1] if i <= len(t) else 0.0)
        if c:
            total += c * tau.derivative(diff)
    return total


# ----------------------------------------------------------------------
# constraint residual
# ----------------------------------------------------------------------


def virasoro_residual(w, beta, E, n, k, t=None, order=64):
    """Normalized residual of the k-th linear constraint on the ensemble
    integral over E^n: the boundary operator
    sum_c c^{k+1} f(c) d/dc over the finite endpoints c of E must balance
    the time-operator combination fixed by the (f, g) data of the weight.
    """
    if k < -1:
        raise UsageError("constraints exist for k >= -1 only")
    data = weight_to_fg(w)
    if k + len(data.f_coeffs) - 1 > 4:
        raise UsageError(f"constraint k = {k} uses operator index "
                         f"{k + len(data.f_coeffs) - 1}; the limit is 4")
    E = (E if E is not None else w.support()).intersect(w.support())
    E.require_nonempty()

    kq = k + len(data.f_coeffs)  # largest second-order index used
    K = max(kq + 3, 4)
    t = np.zeros(K) if t is None else np.asarray(t, dtype=float)
    w = replace(w, times=t)
    # the moments must hold the block and its jets, which shift the index
    # by up to K + kq
    reach = K + kq + 2

    sup = EnsembleTau(w, E, beta, n, depth=reach, order=order)
    tau = sup.value()
    terms = []
    for i, ai in enumerate(data.f_coeffs):
        if ai != 0.0:
            op = dressed_terms(k + i, beta, n, len(t))
            terms.append(ai * apply(sup, op))
    for i, bi in enumerate(data.g_coeffs):
        if bi != 0.0:
            idx = k + i + 1
            part = apply(sup, heisenberg_terms(idx, 1 / beta))
            if idx == 0:
                part += n * tau
            terms.append(-bi * part)
    for lo, hi in E.intervals:
        for c, sign in ((lo, -1.0), (hi, 1.0)):
            if math.isinf(c):
                continue
            coeff = c ** (k + 1) * data.f(c)
            if coeff != 0.0:
                (jet,) = sup.endpoint_jets(c, sign, 1)
                terms.append(-coeff * (tau * jet))
    scale = max([abs(tau)] + [abs(v) for v in terms])
    if scale == 0.0:
        return 0.0
    return sum(terms) / scale


# ----------------------------------------------------------------------
# exact polynomial algebra
# ----------------------------------------------------------------------


class TPoly:
    """Polynomial in t_1, t_2, ... with rational coefficients, held as
    integer numerators over one common positive denominator in lowest
    terms; monomials are exponent tuples with trailing zeros trimmed."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        coeffs = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                coeffs[_trim(exps)] = c
        # reduced fractions over the lcm of their denominators are already
        # in lowest terms
        self.den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.terms = {e: c.numerator * (self.den // c.denominator)
                      for e, c in coeffs.items()}

    @classmethod
    def _of(cls, terms, den):
        """Nonzero numerators over den > 0, reduced to lowest terms."""
        g = math.gcd(den, *terms.values())
        if g > 1:
            terms = {e: v // g for e, v in terms.items()}
            den //= g
        p = object.__new__(cls)
        p.terms, p.den = terms, den
        return p

    @property
    def is_zero(self):
        return not self.terms

    def max_index(self):
        return max((len(e) for e in self.terms), default=0)

    def max_abs_coeff(self):
        return Fraction(max((abs(v) for v in self.terms.values()), default=0),
                        self.den)

    def _combine(self, other, sign):
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {e: v * fa for e, v in self.terms.items()}
        for e, v in other.terms.items():
            s = out.get(e, 0) + v * fb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return TPoly._of(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rmul__(self, scalar):
        if not isinstance(scalar, Fraction):
            scalar = Fraction(scalar)
        if not scalar:
            return TPoly()
        num = scalar.numerator
        return TPoly._of({e: num * v for e, v in self.terms.items()},
                         self.den * scalar.denominator)

    def mul_var(self, i):
        """Multiply by t_i."""
        out = {}
        for e, v in self.terms.items():
            e = e + (0,) * (i - len(e))
            out[e[:i - 1] + (e[i - 1] + 1,) + e[i:]] = v
        return TPoly._of(out, self.den)

    def diff(self, i):
        """d/dt_i."""
        out = {}
        for e, v in self.terms.items():
            if i <= len(e) and e[i - 1] > 0:
                out[_trim(e[:i - 1] + (e[i - 1] - 1,) + e[i:])] = v * e[i - 1]
        return TPoly._of(out, self.den)

    def __eq__(self, other):
        return (isinstance(other, TPoly) and self.den == other.den
                and self.terms == other.terms)


def _trim(exps):
    exps = tuple(exps)
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def apply_poly(terms, p):
    """The operator of a term list applied to a polynomial."""
    out = TPoly()
    for c, mul, diff in terms:
        q = p
        for i in diff:
            q = q.diff(i)
        if q.is_zero:
            continue
        for i in mul:
            q = q.mul_var(i)
        out = out + c * q
    return out


def central_charge(beta):
    """Central charge of the dressed operator family."""
    if beta <= 0:
        raise UsageError("beta must be positive")
    beta = Fraction(beta)
    return 1 - 3 * (beta - 2) ** 2 / beta


def _random_poly(rng):
    """Ten random monomials of degree <= 6 in t_1..t_6 (a repeat keeps the
    last), with integer coefficients in [-9, 9]."""
    terms = {}
    for _ in range(10):
        exps = [0] * 6
        budget = rng.randint(0, 6)
        while budget > 0:
            i = rng.randrange(6)
            exps[i] += 1
            budget -= 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9))
    return TPoly(terms)


def virasoro_commutator_residuals(beta, pairs, n, trials=4):
    """Max coefficient, for each (k, l) in pairs, over random test
    polynomials, of

        ([V_k, V_l] - (k - l) V_{k+l} - c (k^3 - k)/12 delta_{k,-l}) p

    for the dressed operators, computed by exact rational polynomial
    algebra.  Every pair meets the same test polynomials, and each
    first-level V_j p is formed once for all of them."""
    beta = Fraction(beta)
    c = central_charge(beta)
    rng = random.Random(7)
    worst = [Fraction(0)] * len(pairs)

    def dressed(j, q):  # V_j q
        return apply_poly(dressed_terms(j, beta, n, q.max_index()), q)

    for _ in range(trials):
        p = _random_poly(rng)
        first = {}

        def applied(j):  # V_j p, shared by the pairs
            if j not in first:
                first[j] = dressed(j, p)
            return first[j]

        for idx, (k, l) in enumerate(pairs):
            res = (dressed(k, applied(l)) - dressed(l, applied(k))
                   - (k - l) * applied(k + l))
            if k + l == 0:
                res = res - (c * Fraction(k ** 3 - k, 12)) * p
            worst[idx] = max(worst[idx], res.max_abs_coeff())
    return [float(v) for v in worst]
