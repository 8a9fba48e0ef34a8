"""Fixed-step classical Runge-Kutta integration of autonomous systems."""

import math

from ..errors import UsageError

GUARD_INTERVAL = 200  # steps between the flows' drift guards (and at t_end)
MAX_STEPS = 10 ** 6  # longest integration rk4 accepts, in steps


def rk4(rhs, y, t_end, step, after_step=None):
    """Integrate y' = rhs(y) from t = 0 to ``t_end`` (either sign) by RK4.

    ``y`` is one array and ``rhs`` maps such an array to its derivative.
    Steps have size ``step`` except the last, which ends on ``t_end``.
    ``after_step(steps, t, y)``, if given, runs after every step and may
    raise to stop the integration.  Returns the final state.  More than
    MAX_STEPS steps is a usage error, raised before the first step.
    """
    if not (abs(t_end) < math.inf and 0.0 < step < math.inf):  # NaN fails
        raise UsageError("t_end must be finite, step finite and positive")
    if abs(t_end) / step > MAX_STEPS:
        raise UsageError(f"|t_end| / step exceeds {MAX_STEPS} steps")
    t, steps = 0.0, 0
    direction = 1.0 if t_end >= 0 else -1.0
    while abs(t_end - t) > 1e-15:
        h = direction * min(step, abs(t_end - t))
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        steps += 1
        if after_step is not None:
            after_step(steps, t, y)
    return y
