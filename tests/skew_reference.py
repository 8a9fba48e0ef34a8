"""Skew-symmetric test data shared by the Pfaffian and skew-Borel tests."""

import numpy as np

from laxlab.intervals import IntervalUnion
from laxlab.pfaff import SkewMoments
from laxlab.tau import WeightSpec


def block_j(n2):
    """The skew matrix J = diag([[0, 1], [-1, 0]], ...) of even size n2."""
    return np.kron(np.eye(n2 // 2), [[0.0, 1.0], [-1.0, 0.0]])


def skew_from_matrix(mat):
    """A raw skew matrix as ε-pairing moments of a custom weight."""
    return SkewMoments(
        m=np.asarray(mat, dtype=float), alpha=-1,
        weight=WeightSpec("custom", func=np.ones_like),
        E=IntervalUnion.full_line(),
    )
