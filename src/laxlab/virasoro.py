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
  and the normal-ordered operator algebra (``as_operator``, ``compose``),
  which checks the commutation relations and the central charge as
  identities between operators, in exact rationals.

Throughout, the multiplication-by-t terms carry the weight
sigma = 1/beta: that weight is pinned by the translation and dilation
identities of the ensemble integrals, and it is also exactly the weight
for which the dressed operators close as a Virasoro algebra in the
standard normalization.
"""

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

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
# exact operator algebra
# ----------------------------------------------------------------------

COMMUTATOR_WINDOW = 6  # largest t and d/dt index of a compared monomial


def as_operator(terms):
    """A term list as a normal-ordered operator {(mul, diff): c}: every
    t to the left of every d/dt, index tuples sorted, repeats summed."""
    op = Counter()
    for c, mul, diff in terms:
        op[tuple(sorted(mul)), tuple(sorted(diff))] += c
    return op


@cache
def _normal_order(diff, mul):
    """d/dt_diff prod t_mul in normal order, as (mul, diff, weight) with
    integer weights: each d/dt_j either passes every t or takes one t_j."""
    out = [(mul, (), 1)]
    for j in diff:
        step = []
        for m, d, w in out:
            step.append((m, d + (j,), w))
            if j in m:
                i = m.index(j)
                step.append((m[:i] + m[i + 1:], d, w * m.count(j)))
        out = step
    return tuple(out)


def compose(a, b):
    """The operator a b (b acts first), normal-ordered."""
    out = Counter()
    for (m1, d1), c1 in a.items():
        for (m2, d2), c2 in b.items():
            c = c1 * c2
            for m, d, w in _normal_order(d1, m2):
                out[tuple(sorted(m1 + m)), tuple(sorted(d + d2))] += w * c
    return out


def commutator(a, b):
    """[a, b] = a b - b a, normal-ordered."""
    out = compose(a, b)
    out.subtract(compose(b, a))
    return out


def central_charge(beta):
    """Central charge of the dressed operator family."""
    if beta <= 0:
        raise UsageError("beta must be positive")
    beta = Fraction(beta)
    return 1 - 3 * (beta - 2) ** 2 / beta


def virasoro_commutator_residuals(beta, pairs, n):
    """Largest |coefficient|, for each (k, l) in pairs, of the operator

        [V_k, V_l] - (k - l) V_{k+l} - c (k^3 - k)/12 delta_{k,-l}

    for the dressed operators, in exact rationals, over every
    normal-ordered monomial whose t and d/dt indices are all at most
    COMMUTATOR_WINDOW.

    Each V_j is built once, with its dilation sums cut at
    top = COMMUTATOR_WINDOW + max(|k|, |l|) over the pairs.  A term of
    V_k V_l that reaches a monomial inside the window has every index at
    most that top: an index that is not contracted lands in the monomial,
    and a contracted d/dt_{m+k} leaves its t_m there.  dressed_terms(top)
    holds every term whose d/dt index is at most top, so every compared
    coefficient is exact, and a larger top changes none of them."""
    beta = Fraction(beta)
    c = central_charge(beta)
    top = COMMUTATOR_WINDOW + max(max(abs(k), abs(l)) for k, l in pairs)
    ops = {j: as_operator(dressed_terms(j, beta, n, top))
           for j in {i for k, l in pairs for i in (k, l, k + l)}}
    worst = []
    for k, l in pairs:
        res = commutator(ops[k], ops[l])
        for key, v in ops[k + l].items():
            res[key] -= (k - l) * v
        if k + l == 0:
            res[(), ()] -= c * Fraction(k ** 3 - k, 12)
        worst.append(float(max(
            (abs(v) for (mul, diff), v in res.items()
             if max(mul + diff, default=0) <= COMMUTATOR_WINDOW),
            default=0)))
    return worst
