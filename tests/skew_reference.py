"""Skew-symmetric test data shared by the Pfaffian and skew-Borel tests."""

import numpy as np


def block_j(n2):
    """The skew matrix J = diag([[0, 1], [-1, 0]], ...) of even size n2."""
    return np.kron(np.eye(n2 // 2), [[0.0, 1.0], [-1.0, 0.0]])
