"""The truncated time evolution as a shift series on deep moments: the
reference every evolved-weight moment builder is checked against.

exp(sum_k t_k z^k) is expanded here as a product of one exponential per
time, cut at total degree EVOLUTION_DEGREE in t, and applied to a stored
moment array as a sum of index-shifted blocks.  The Taylor matrices of a
moment block along one time direction, on the same sums, give directional
jets, and polarization turns those into a reference for mixed partials."""

import itertools
import math

import numpy as np

from laxlab.tau import EVOLUTION_DEGREE


def add_shifted_blocks(out, m, c, d):
    """out += sum_{a,b} c_a d_b m[a:a+r, b:b+s] with (r, s) = out.shape,
    skipping zero coefficients."""
    r, s = out.shape
    for a, ca in enumerate(c):
        if ca == 0:
            continue
        for b, cb in enumerate(d):
            if cb == 0:
                continue
            out += ca * cb * m[a : a + r, b : b + s]
    return out


def shift_depth(t):
    """The largest index shift the truncated evolution by t reaches."""
    nonzero = np.nonzero(np.asarray(t, dtype=float))[0]
    return int(nonzero[-1] + 1) * EVOLUTION_DEGREE if len(nonzero) else 0


def reference_shift_coefficients(t, max_shift, degree=EVOLUTION_DEGREE):
    """exp(sum_k t_k z^k) = sum_d c_d z^d to total degree ``degree`` in t
    and shift ``max_shift`` in z, as a product of one exponential per
    time."""
    t = np.asarray(t, dtype=float)
    c = np.zeros((degree + 1, max_shift + 1))
    c[0, 0] = 1
    for k, tk in enumerate(t, start=1):
        if tk == 0:
            continue
        new = np.zeros_like(c)
        term = 1
        for j in range(degree + 1):
            if k * j > max_shift:
                break
            if j > 0:
                term *= tk / j
            new[j:, k * j:] += term * c[: degree + 1 - j, : max_shift + 1 - k * j]
        c = new
    return c.sum(axis=0)


def reference_evolution(m, rows, cols=()):
    """e^{sum rows_k Lambda^k} m e^{sum cols_k Lambda^{T k}} with the
    reference coefficients, Lambda the index shift: the array loses the
    shift_depth of each evolution along its index."""
    r, s = shift_depth(rows), shift_depth(cols)
    out = np.zeros((m.shape[0] - r, m.shape[1] - s), dtype=m.dtype)
    return add_shifted_blocks(out, m, reference_shift_coefficients(rows, r),
                              reference_shift_coefficients(cols, s))


def reference_hankel(mu, t):
    """The moment sequence mu evolved by t, shift_depth(t) entries shorter."""
    return reference_evolution(np.asarray(mu)[:, None], t)[:, 0]


def direction_matrices(m, n, order, rows=(), cols=()):
    """Taylor matrices G_0..G_order of the leading n-block of
    e^{s P(Lambda)} m e^{s Q(Lambda^T)}, with P = sum_k rows_k z^k acting
    on the row index and Q = sum_k cols_k z^k on the column index:
    G_j = sum_{p+q=j} sum_{a,b} [z^a] P^p/p! [z^b] Q^q/q! m[a:a+n, b:b+n].
    """
    def powers(d):  # P^j / j! for j = 0..order
        base = np.concatenate([[0.0], np.trim_zeros(np.asarray(d, float), "b")])
        out = [np.array([1.0])]
        for j in range(1, order + 1):
            out.append(np.convolve(out[-1], base) / j)
        return out

    pr, pc = powers(rows), powers(cols)
    return [sum(add_shifted_blocks(np.zeros((n, n)), m, pr[p], pc[j - p])
                for p in range(j + 1)) for j in range(order + 1)]


def polarized(directional, ks):
    """Partial d/dt_{k1} ... d/dt_{kr} from directional jets
    ``directional(d, order) -> [D_d, D_d^2, ...]``; a mixed one by
    polarization:

        (2^{r-1} r!)^{-1} sum_{eps, eps_1 = +1} (prod eps) D^r_v,
        v = sum_i eps_i e_{k_i}.
    """
    r = len(ks)
    if len(set(ks)) == 1:  # a single time: the jet itself
        return directional(np.eye(ks[0])[-1], r)[r - 1]
    total = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=r - 1):
        eps = (1.0,) + signs
        v = np.zeros(max(ks))
        for e, k in zip(eps, ks):
            v[k - 1] += e
        total += math.prod(eps) * directional(v, r)[r - 1]
    return total / (2 ** (r - 1) * math.factorial(r))
