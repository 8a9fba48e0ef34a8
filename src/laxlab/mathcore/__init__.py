"""Dense linear algebra, quadrature, and special functions."""

from .linalg import (
    cholesky_borel,
    lu_determinant,
    pfaffian,
    qr_decompose,
    skew_borel,
    symmetric_eigen,
    symmetric_eigensystem,
)
from .quadrature import (
    cut_rules,
    gauss_jacobi_rule,
    gauss_legendre_rule,
    half_line_rule,
    integrate,
    interval_rule,
    union_rule,
)
from .special import (
    airy_ai,
    airy_ai_prime,
    airy_ai_vec,
    airy_taylor_coefficients,
    bessel_j,
    bessel_j_prime,
    bessel_sqrt_taylor_coefficients,
)
