"""The draws behind the streamed Monte Carlo estimator, held densely: the
reference its Sturm counts and thread schedule are checked against.

sample_ensemble never holds more than one block per task.  Here the same
per-block streams are concatenated into (count, n) arrays, and each draw's
eigenvalues come from a dense symmetric eigensolve."""

import numpy as np

from laxlab.ensembles import SAMPLE_BLOCK, _sample_block


def dense_draws(e, count, seed):
    """(diag (count, n), off (count, n - 1)): row r holds the diagonal and
    off-diagonal of draw r, from the stream of block r // SAMPLE_BLOCK; the
    off-diagonal is the square root of the sampler's squared one."""
    blocks = [_sample_block(e, seed, block)
              for block in range((count + SAMPLE_BLOCK - 1) // SAMPLE_BLOCK)]
    diag = np.concatenate([d for d, _ in blocks])[:count]
    off = np.sqrt(np.concatenate([o for _, o in blocks])[:count])
    return diag, off


def eigenvalues(diag, off):
    """(count, n) sorted eigenvalues, one dense eigvalsh per draw."""
    n = diag.shape[1]
    i = np.arange(n)
    mats = np.zeros((len(diag), n, n))
    mats[:, i, i] = diag
    mats[:, i[1:], i[:-1]] = off
    mats[:, i[:-1], i[1:]] = off
    return np.linalg.eigvalsh(mats)


def eigenvalue_hits(diag, off, E):
    """The number of draws with every eigenvalue in the closed pieces of E."""
    eigs = eigenvalues(diag, off)
    inside = np.zeros(eigs.shape, dtype=bool)
    for lo, hi in E.intervals:
        inside |= (eigs >= lo) & (eigs <= hi)
    return int(inside.all(axis=1).sum())
