"""Gauss rules, the interval-union transforms, orthonormal polynomials.

Semi-infinite pieces are mapped algebraically, u = a + r*v/(1-v) with
v in (0,1) and r the weight's decay length; the full line splits at 0.
"""

import functools
import math

import numpy as np

from ..errors import DomainError, NumericalError, UsageError
from ..intervals import IntervalUnion

# entries (rows x nodes) in one chunk of cut_rules; the ε-pairing rules
# of every default order fit in one
CUT_CHUNK = 2 ** 16


@functools.cache
def _base_rule(order, nu=0.0):
    """The Gauss rule of (1 + x)^nu on (-1, 1), once per (order, nu):
    Legendre nodes and weights at nu = 0, else the eigenvalues of the
    one-sided Jacobi matrix and the squared first components of their
    eigenvectors (Golub-Welsch).  Callers build new arrays from these."""
    if order < 1:
        raise UsageError("quadrature order must be >= 1")
    if nu == 0.0:
        return np.polynomial.legendre.leggauss(order)
    ns = np.arange(order, dtype=float)
    diag = nu * nu / ((2.0 * ns + nu) * (2.0 * ns + nu + 2.0))
    ns_off = np.arange(1, order, dtype=float)
    off = np.sqrt(
        4.0
        * ns_off ** 2
        * (ns_off + nu) ** 2
        / (
            (2.0 * ns_off + nu) ** 2
            * (2.0 * ns_off + nu + 1.0)
            * (2.0 * ns_off + nu - 1.0)
        )
    )
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jac)
    return vals, vecs[0] ** 2


def gauss_legendre_rule(order, interval=(-1.0, 1.0)):
    """Nodes and weights on a finite interval, exact to degree 2*order-1."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(
            "gauss_legendre_rule needs finite endpoints; use union_rule with "
            "a decay scale for semi-infinite domains"
        )
    if not lo < hi:
        raise UsageError(f"interval [{lo}, {hi}] has no interior")
    v, w = _base_rule(order)
    half = 0.5 * (hi - lo)
    return lo + half * (v + 1.0), half * w


def gauss_jacobi_rule(order, exponent, interval):
    """Nodes and weights for the measure (y - lo)^exponent dy on a finite
    interval, exponent > -1, by Golub-Welsch on the one-sided Jacobi
    recurrence (weight (1+x)^exponent on (-1, 1))."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"interval [{lo}, {hi}] is not a finite interval")
    if exponent <= -1.0:
        raise DomainError("jacobi exponent must exceed -1")
    if exponent == 0.0:
        return gauss_legendre_rule(order, (lo, hi))
    nu = float(exponent)
    vals, first = _base_rule(order, nu)
    half = 0.5 * (hi - lo)
    nodes = lo + half * (vals + 1.0)
    try:
        mu0 = 2.0 ** (nu + 1.0) / (nu + 1.0)
        weights = half ** (nu + 1.0) * mu0 * first
    except OverflowError as exc:
        raise NumericalError(f"jacobi weights overflow: {exc}") from exc
    return nodes, weights


def orthonormal_polys(ab, z, scale=1.0):
    """Rows scale * p_j(z), j <= m = ab.shape[1] - 1, from the recurrence
    (a, b) = ab that toda.lanczos returns: p_0 = 1 / b_0 and b_{j+1} p_{j+1}
    = (z - a_j) p_j - b_j p_{j-1}.  A weight factor in scale keeps a row
    finite where p_j alone overflows; a value past the float range comes
    back as inf or NaN, without a warning."""
    a, b = ab
    z = np.asarray(z, dtype=float)
    p = np.empty((len(a),) + z.shape)
    prev, p[0] = np.zeros_like(z), scale / b[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(a) - 1):
            prev, p[j + 1] = p[j], ((z - a[j]) * p[j] - b[j] * prev) / b[j + 1]
    return p


def half_line_rule(endpoint, order, scale, increasing=True):
    """Rule for (endpoint, +inf) (or its mirror) via u = a + r*v/(1-v)."""
    if scale <= 0:
        raise UsageError("decay scale must be positive")
    v, w = gauss_legendre_rule(order, (0.0, 1.0))
    stretch = scale / (1.0 - v)
    nodes = v * stretch
    weights = w * stretch / (1.0 - v)
    if increasing:
        return endpoint + nodes, weights
    return endpoint - nodes[::-1], weights[::-1]


def interval_rule(lo, hi, order, scale):
    """Rule for a single interval, finite or semi-infinite."""
    lo_f, hi_f = math.isfinite(lo), math.isfinite(hi)
    if lo_f and hi_f:
        return gauss_legendre_rule(order, (lo, hi))
    if lo_f:
        return half_line_rule(lo, order, scale, increasing=True)
    if hi_f:
        return half_line_rule(hi, order, scale, increasing=False)
    # Full line: split at 0.
    right = half_line_rule(0.0, order, scale, increasing=True)
    left = half_line_rule(0.0, order, scale, increasing=False)
    return (np.concatenate([left[0], right[0]]),
            np.concatenate([left[1], right[1]]))


def union_rule(E, order, scale=1.0):
    """Concatenated rule over all intervals of an IntervalUnion."""
    if not isinstance(E, IntervalUnion):
        E = IntervalUnion(E)
    E.require_nonempty()
    nodes, weights = [], []
    for lo, hi in E.intervals:
        x, w = interval_rule(lo, hi, order, scale)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def cut_rules(E, k, order, scale=1.0):
    """The rules on E cut at every node y of piece k, one row per node.

    Row r is union_rule(E ∩ (-inf, y_r]), y_r the r-th node of
    interval_rule on piece k, value for value: the earlier pieces whole,
    in union_rule order, then piece k up to y_r, lo + half (v + 1) with
    half = (y_r - lo)/2 on a finite left end lo, or y_r minus the reversed
    half-line offsets with shared weights on (-inf, y_r].  Yields (nodes,
    weights) pairs of 2-D arrays with rows of one length: first the nodes
    that round onto piece k's left end (a rule on the earlier pieces
    alone, possibly empty), then the others in chunks of at most
    CUT_CHUNK entries each.
    """
    lo, hi = E.intervals[k]
    earlier = [interval_rule(a, b, order, scale) for a, b in E.intervals[:k]]
    head_x = np.concatenate([x for x, _ in earlier] + [np.empty(0)])
    head_w = np.concatenate([w for _, w in earlier] + [np.empty(0)])
    # a node past hi by rounding cuts the piece at hi, as intersect does
    cut = np.minimum(interval_rule(lo, hi, order, scale)[0], hi)
    lead = int(np.count_nonzero(cut <= lo))  # nodes increase along a piece
    yield np.tile(head_x, (lead, 1)), np.tile(head_w, (lead, 1))
    if math.isfinite(lo):
        v, w = _base_rule(order)
    else:
        offsets, w = half_line_rule(0.0, order, scale)
    rows = max(1, CUT_CHUNK // (len(head_x) + order))
    for first in range(lead, len(cut), rows):
        y = cut[first:first + rows, None]
        if math.isfinite(lo):
            half = 0.5 * (y - lo)
            tail_x, tail_w = lo + half * (v + 1.0), half * w
        else:
            tail_x = y - offsets[::-1]
            tail_w = np.broadcast_to(w[::-1], tail_x.shape)
        yield (np.concatenate([np.broadcast_to(head_x, (len(y), len(head_x))),
                               tail_x], axis=1),
               np.concatenate([np.broadcast_to(head_w, (len(y), len(head_w))),
                               tail_w], axis=1))

