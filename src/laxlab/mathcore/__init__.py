"""Dense linear algebra, quadrature, and special functions."""

from .linalg import (
    expm,
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
    interval_rule,
    orthonormal_polys,
    union_rule,
)
from .special import (
    airy_ai_vec,
    airy_taylor_coefficients,
    bessel_sqrt_taylor_coefficients,
    bessel_sqrt_vec,
)
