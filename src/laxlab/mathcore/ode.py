"""Fixed-step classical Runge-Kutta integration of autonomous systems."""

from ..errors import UsageError


def rk4(rhs, state, t_end, step, after_step=None):
    """Integrate y' = rhs(y) from t = 0 to ``t_end`` (either sign) by RK4.

    ``state`` is a tuple of arrays and ``rhs`` maps such a tuple to the
    tuple of their derivatives.  Steps have size ``step`` except the last,
    which ends on ``t_end``.  ``after_step(steps, t, state)``, if given,
    runs after every step and may raise to stop the integration.  Returns
    the final state.
    """
    if step <= 0:
        raise UsageError("step must be positive")
    t = 0.0
    steps = 0
    direction = 1.0 if t_end >= 0 else -1.0
    while abs(t_end - t) > 1e-15:
        h = direction * min(step, abs(t_end - t))
        k1 = rhs(state)
        k2 = rhs(tuple(y + 0.5 * h * k for y, k in zip(state, k1)))
        k3 = rhs(tuple(y + 0.5 * h * k for y, k in zip(state, k2)))
        k4 = rhs(tuple(y + h * k for y, k in zip(state, k3)))
        state = tuple(
            y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        t += h
        steps += 1
        if after_step is not None:
            after_step(steps, t, state)
    return state
