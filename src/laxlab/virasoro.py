"""Linear constraint operators for moment-matrix tau functions.

Three layers:

* weight data: the rational logarithmic derivative -rho'/rho = g/f of a
  weight, as coefficient lists of f and g;
* the operators, each defined once as a list of terms (c, mul, diff)
  meaning c * prod_{i in mul} t_i * d/dt_{diff}: the first-order
  (Heisenberg) operators J1_k and the beta- and n-dressed second-order
  (Virasoro) operators, with coefficients in the type of beta;
* two evaluators of those lists: ``_MomentTau.apply`` on a tau function,
  with exact time derivatives from the log-det jets of its moment block
  and endpoint derivatives from the endpoint Taylor term of the moments,
  for the constraint residual; ``apply_poly`` on polynomials in t_1,
  t_2, ... with rational coefficients, for the commutation relations and
  the central charge without any rounding.

Throughout, the multiplication-by-t terms carry the weight
sigma = 1/beta: that weight is pinned by the translation and dilation
identities of the ensemble integrals, and it is also exactly the weight
for which the dressed operators close as a Virasoro algebra in the
standard normalization.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import UsageError
from .mathcore import lu_determinant, pfaffian
from .pfaff import (
    _dlog_pf_directional,
    evolve_skew,
    skew_endpoint_series,
    skew_inner_products,
)
from .tau import (
    dlog_tau_directional,
    evolve_hankel,
    hankel_endpoint_series,
    hankel_moments,
    logdet_series_derivatives,
    max_shift_for,
    polarized,
)

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
# tau suppliers with exact derivatives
# ----------------------------------------------------------------------


class _MomentTau:
    """tau(t): det (Hankel) or pf (skew) of the leading block of the
    moments evolved to the times t.  Every derivative is exact: time
    derivatives of log tau come from its directional jets, mixed pairs by
    polarization, and an endpoint derivative from the endpoint Taylor term
    of the moments, evolved by the same linear map as the moments."""

    _tfac = 1.0

    def _evolved(self, t):
        key = tuple(np.asarray(t, dtype=float))
        if key not in self._cache:
            self._cache[key] = self._evolve(self._m0, self._tfac * np.array(key))
        return self._cache[key]

    def value(self, t):
        return self._det(self._block(self._evolved(t)))

    def dlog(self, t, ks):
        """d/dt_{k_1} ... d/dt_{k_r} log tau at t, r <= 4; a jet along
        c v is c^r times the jet along v, which carries the time factor."""
        m = self._evolved(t)
        return polarized(lambda d, order: self._jets(
            m, self.size, self._tfac * np.asarray(d, dtype=float), order), ks)

    def derivative(self, t, ks):
        """d/dt_{k_1} ... d/dt_{k_r} tau at t, r <= 2."""
        value = self.value(t)
        if len(ks) == 2:
            i, j = ks
            return value * (self.dlog(t, ks)
                            + self.dlog(t, (i,)) * self.dlog(t, (j,)))
        return value * self.dlog(t, ks) if ks else value

    def apply(self, terms, t):
        """The operator of a term list applied to tau at t; a time beyond
        the end of t reads as zero."""
        total = 0.0
        for c, mul, diff in terms:
            for i in mul:
                c = c * (t[i - 1] if i <= len(t) else 0.0)
            if c:
                total += c * self.derivative(t, diff)
        return total

    def d_endpoint(self, t, c, sigma):
        """d tau / dc at t for the finite endpoint c of E, an upper
        (sigma = +1) or a lower (sigma = -1) one."""
        g0 = self._block(self._evolved(t))
        g1 = self._series(self._m0, c, sigma, 1)[0]
        g1 = self._block(self._evolve(g1, self._tfac * np.asarray(t, float)))
        return self._det(g0) * self._half * logdet_series_derivatives([g0, g1])[0]


class HankelTauSupplier(_MomentTau):
    """tau_n(t) = det of the n x n Hankel block of E-restricted moments,
    with the time dependence handled by the exact polynomial evolution."""

    _det, _half = staticmethod(lu_determinant), 1.0
    _evolve = staticmethod(evolve_hankel)
    _jets = staticmethod(dlog_tau_directional)
    _series = staticmethod(hankel_endpoint_series)

    def __init__(self, w, E, n, depth, order=64):
        self.size = n
        self._m0 = hankel_moments(w, E, M=depth, order=order)
        self._cache = {}

    def _block(self, m):
        return m.matrix(self.size)


class PfaffTauSupplier(_MomentTau):
    """Pfaffian tau of the skew moment matrix: the sign-kernel pairing for
    the beta = 1 integrals (block size n, n even) and the Wronskian
    pairing for beta = 4 (block size 2n, with the times halved so the
    supplier matches integrals carrying one weight factor per variable).
    Derivatives use log pf = (1/2) log det."""

    _det, _half = staticmethod(pfaffian), 0.5
    _evolve = staticmethod(evolve_skew)
    _jets = staticmethod(_dlog_pf_directional)
    _series = staticmethod(skew_endpoint_series)

    def __init__(self, w, E, n, beta, depth, order=64):
        if beta == 1:
            if n % 2:
                raise UsageError("the beta = 1 Pfaffian form needs even n")
            self.size, alpha = n, -1
        elif beta == 4:
            self.size, alpha, self._tfac = 2 * n, 1, 0.5
        else:
            raise UsageError("Pfaffian supplier covers beta = 1 and 4 only")
        total = self.size + depth
        total += total % 2
        self._m0 = skew_inner_products(w, E, alpha=alpha, N=total // 2,
                                       order=order)
        self._cache = {}

    def _block(self, m):
        return m.block(self.size)


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


# ----------------------------------------------------------------------
# constraint residual
# ----------------------------------------------------------------------


def virasoro_residual(w, beta, E, n, k, t=None, order=64):
    """Normalized residual of the k-th linear constraint on the ensemble
    integral over E^n: the boundary operator
    sum_c c^{k+1} f(c) d/dc over the finite endpoints c of E must balance
    the time-operator combination fixed by the (f, g) data of the weight.
    """
    if beta not in (1, 2, 4):
        raise UsageError("beta must be 1, 2 or 4")
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
    # the evolved moments must hold the block and its jets, which shift the
    # index by up to K + kq
    reach = max_shift_for(t) + K + kq + 2

    if beta == 2:
        sup = HankelTauSupplier(w, E, n, depth=2 * (n - 1) + reach,
                                order=order)
    else:
        sup = PfaffTauSupplier(w, E, n, beta, depth=reach, order=order)
    tau = sup.value(t)
    terms = []
    for i, ai in enumerate(data.f_coeffs):
        if ai != 0.0:
            op = dressed_terms(k + i, beta, n, len(t))
            terms.append(ai * sup.apply(op, t))
    for i, bi in enumerate(data.g_coeffs):
        if bi != 0.0:
            idx = k + i + 1
            part = sup.apply(heisenberg_terms(idx, 1 / beta), t)
            if idx == 0:
                part += n * tau
            terms.append(-bi * part)
    for lo, hi in E.intervals:
        for c, sign in ((lo, -1.0), (hi, 1.0)):
            if math.isinf(c):
                continue
            coeff = c ** (k + 1) * data.f(c)
            if coeff != 0.0:
                terms.append(-coeff * sup.d_endpoint(t, c, sign))
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
