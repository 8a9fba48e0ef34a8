"""Fixed-step classical Runge-Kutta integration of autonomous systems,
checked against an exact route one segment at a time."""

import math

import numpy as np

from ..errors import UsageError

GUARD_INTERVAL = 200  # steps between rk4's guard calls (and at t_end)
MAX_STEPS = 10 ** 6  # longest integration rk4 accepts, in steps
SEGMENTS = 25  # segments of a run checked by segment_check


def check_steps(t_end, step):
    """UsageError unless t_end is finite, step finite and positive, and
    |t_end| / step <= MAX_STEPS."""
    if not (abs(t_end) < math.inf and 0.0 < step < math.inf):  # NaN fails
        raise UsageError("t_end must be finite, step finite and positive")
    if abs(t_end) / step > MAX_STEPS:
        raise UsageError(f"|t_end| / step exceeds {MAX_STEPS} steps")


def rk4(rhs, y, t_end, step, guard=None):
    """Integrate y' = rhs(y) from t = 0 to ``t_end`` (either sign) by RK4.

    ``y`` is one array and ``rhs`` maps such an array to its derivative.
    Steps have size ``step`` except the last, which ends on ``t_end``.
    ``guard(t, y)``, if given, runs every GUARD_INTERVAL steps and once
    more after the last step, and may raise to stop the integration.
    Steps and guards run with overflow and invalid operations silenced: a
    blown-up step overflows on its way to the non-finite state that the
    guard reports.  Returns the final state.  check_steps runs before the
    first step.
    """
    check_steps(t_end, step)
    t, steps = 0.0, 0
    direction = 1.0 if t_end >= 0 else -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        while abs(t_end - t) > 1e-15:
            h = direction * min(step, abs(t_end - t))
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            steps += 1
            if guard is not None and steps % GUARD_INTERVAL == 0:
                guard(t, y)
        if guard is not None:
            guard(t_end, y)
    return y


def segment_check(flow, checkpoints, segment):
    """(ends, defect): ``flow(starts, segment)`` advances every segment
    start checkpoints[:-1] at once, and defect is the largest entry of
    |ends - checkpoints[1:]|, the exact states one segment later, over the
    leading block of each state that ``flow`` returns."""
    ends = flow(checkpoints[:-1], segment)
    exact = checkpoints[1:][tuple(map(slice, ends.shape))]
    return ends, float(np.abs(ends - exact).max())
