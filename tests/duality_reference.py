"""The beta = 1 <-> 4 duality of the beta-ensemble coefficients, as a
check shared by the gap-ODE and acceptance tests."""

from laxlab.gapodes import q_coefficients


def assert_beta_duality(family, n, a=0.0, b=1.0):
    """The beta = 4 coefficients at (n, a, b) equal the beta = 1 ones at
    (-2n, -a/2, -b/2): Q, Q2 and Q1, and Q0 and Qm1 for Laguerre, each to
    1e-10 max(1, |value|)."""
    four = q_coefficients(family, n, 4, a=a, b=b)
    one = q_coefficients(family, -2 * n, 1, a=-a / 2.0, b=-b / 2.0)
    names = ("Q", "Q2", "Q1") + (("Q0", "Qm1") if family == "laguerre" else ())
    for name in names:
        want, got = getattr(four, name), getattr(one, name)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (name, n, a, b)
