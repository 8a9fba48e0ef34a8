"""Airy and Bessel functions from series, asymptotics and Taylor marching
(no delegation, so results are bit-reproducible).

One recurrence serves every value of each: ``airy_ai_vec`` and
``bessel_sqrt_vec`` take a point one 32-term Taylor step, at most 0.25
(in sqrt x for Bessel), from the nearest anchor, and ``_marched`` fills
the anchors once, on first use, by the same step, where the function
grows or oscillates, so that rounding is not amplified.  Airy anchors lie
at multiples of 0.5: from AIRY_MARCH_TOP = 9 up the asymptotic expansion
gives them, below 9 they are marched down in steps of 0.25.  Bessel
anchors, for the kernel pair (J_nu(sqrt x), x d/dx J_nu(sqrt x)), lie at
sqrt x = 8 + 0.5 j, marched up from the ascending series, which gives
sqrt x <= 8 directly.

Accuracy against mpmath: Ai within 1e-14 absolute on [-200, 0],
1e-14 relative on [0, 9.3] and 1e-12 relative on [9.3, 100]; J_nu and
J_nu' (-1 < nu <= 120) within 3e-14 absolute on 0.01 <= sqrt x <= 1000.
DomainError below AIRY_MIN_ARG, past BESSEL_MAX_ARG (sqrt x = 1000) and,
past the series, above BESSEL_MAX_MARCH_NU = 120, where the first steps
of the march lose digits (2e-11 at nu = 160).  Ai is (0, -0) from
AIRY_UNDERFLOW on, where e^{-zeta} underflows.
"""

import functools
import math
import threading

import numpy as np

from ..errors import DomainError

_SQRT_PI = math.sqrt(math.pi)

AIRY_MIN_ARG = -200.0  # the march from AIRY_MARCH_TOP ends here
AIRY_UNDERFLOW = 108.0  # zeta = (2/3) x^{3/2} > 748 from here on
AIRY_MARCH_TOP = 9.0  # anchors below are marched down from here


def _airy_asymptotic(x):
    """Asymptotic expansion for large positive x (optimally truncated)."""
    zeta = (2.0 / 3.0) * x ** 1.5
    u = term = s_val = s_der = 1.0
    for k in range(1, 62):
        u *= (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        new = u / zeta ** k
        if new >= term:
            break
        sign = -1.0 if k % 2 else 1.0
        s_val += sign * new
        s_der += sign * new * (6 * k + 1) / (1 - 6 * k)
        if new < 1e-18:
            break
        term = new
    front = math.exp(-zeta) / (2.0 * _SQRT_PI * x ** 0.25)
    ai = front * s_val
    aip = -(x ** 0.25) * math.exp(-zeta) / (2.0 * _SQRT_PI) * s_der
    return ai, aip


# airy_ai_vec steps from anchors at multiples of AIRY_ANCHOR_SPACING, so
# |h| <= 0.25; STEP_TERMS Taylor terms reach full precision there up
# to x = 104, where Ai underflows.  Bessel steps take as many.
AIRY_ANCHOR_SPACING = 0.5
STEP_TERMS = 32

# (Ai, Ai') at AIRY_MARCH_TOP - i * AIRY_ANCHOR_SPACING / 2, i = 0, 1, ...
_airy_march = []
_march_lock = threading.Lock()


def _taylor_horner(c, h):
    """(value, derivative) at x + h of the function whose Taylor
    coefficients about x are the rows of c, by Horner sums."""
    val = c[-1]
    der = (len(c) - 1) * c[-1]
    for n in range(len(c) - 2, 0, -1):
        val = val * h + c[n]
        der = der * h + n * c[n]
    return val * h + c[0], der


def _marched(march, i, x_at, coefficients, start):
    """Entry i of march, the (value, derivative) at x_at(0), x_at(1), ...:
    start at x_at(0), then one Taylor step from each entry to the next, of
    STEP_TERMS coefficients(x, value, derivative, count).  Filled as far
    as asked, once; the lock keeps two threads from appending a step
    twice."""
    with _march_lock:
        if not march:
            march.append(start)
        while len(march) <= i:
            x = x_at(len(march) - 1)
            c = coefficients(x, *march[-1], STEP_TERMS)
            march.append(_taylor_horner(c, x_at(len(march)) - x))
        return march[i]


@functools.cache
def _airy_anchor(k):
    """(Ai, Ai') at the anchor k * AIRY_ANCHOR_SPACING, k an int."""
    x = k * AIRY_ANCHOR_SPACING
    if x >= AIRY_UNDERFLOW:
        return 0.0, -0.0
    if x >= AIRY_MARCH_TOP:
        return _airy_asymptotic(x)
    h = 0.5 * AIRY_ANCHOR_SPACING
    return _marched(_airy_march, round((AIRY_MARCH_TOP - x) / h),
                    lambda i: AIRY_MARCH_TOP - i * h, airy_taylor_coefficients,
                    _airy_asymptotic(AIRY_MARCH_TOP))


def airy_ai_vec(xs):
    """Vectorized (Ai, Ai') over an array of points.

    Each point x takes one Taylor step h = x - x_k, |h| <= 0.25, from its
    nearest anchor x_k = 0.5 k, summing STEP_TERMS terms of the
    recurrence of airy_taylor_coefficients.  Anchors are evaluated when
    first needed and cached.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs < AIRY_MIN_ARG):
        raise DomainError(
            f"Airy functions need finite arguments >= {AIRY_MIN_ARG:g}"
        )
    # every anchor from AIRY_UNDERFLOW on is (0, -0); clipping keeps
    # x / AIRY_ANCHOR_SPACING finite
    x = np.minimum(xs.ravel(), AIRY_UNDERFLOW)
    k, where = np.unique(np.rint(x / AIRY_ANCHOR_SPACING),
                         return_inverse=True)
    x0 = k * AIRY_ANCHOR_SPACING
    ai0, aip0 = np.array([_airy_anchor(int(j)) for j in k]).reshape(-1, 2).T
    c = airy_taylor_coefficients(x0, ai0, aip0, STEP_TERMS)[:, where]
    ai, aip = _taylor_horner(c, x - x0[where])
    return ai.reshape(xs.shape), aip.reshape(xs.shape)


def airy_taylor_coefficients(x, ai, aip, count):
    """Taylor coefficients c_0..c_{count-1} of Ai about each point of x,
    from the values ai = Ai(x) and aip = Ai'(x) there; row n holds
    Ai^{(n)}(x) / n! by the recurrence
    c_{n+2} = (x c_n + c_{n-1}) / ((n+1)(n+2))."""
    x = np.asarray(x, dtype=float)
    c = np.zeros((max(count, 2),) + x.shape)
    c[0] = ai
    c[1] = aip
    for n in range(count - 2):
        prev = c[n - 1] if n >= 1 else 0.0
        c[n + 2] = (x * c[n] + prev) / ((n + 1) * (n + 2))
    return c[:count]


def bessel_sqrt_taylor_coefficients(nu, x, f, fp, count):
    """Taylor coefficients c_0..c_{count-1} of f(x) = J_nu(sqrt x) about
    each point x > 0, from f and fp = f'(x) there.

    Matching powers of h in x^2 f'' + x f' + (x - nu^2) f / 4 = 0 about
    x + h gives
    x^2 (k+1)(k+2) c_{k+2} = -x (k+1)(2k+1) c_{k+1}
                             - (k^2 + (x - nu^2)/4) c_k - c_{k-1}/4.
    The coefficients grow like x^{-k} near the singular point 0, so
    c_k h^k stays well scaled for steps h proportional to x.
    """
    x = np.asarray(x, dtype=float)
    c = np.zeros((max(count, 2),) + x.shape)
    c[0] = f
    c[1] = fp
    for k in range(count - 2):
        prev = c[k - 1] if k >= 1 else 0.0
        c[k + 2] = -(
            x * (k + 1) * (2 * k + 1) * c[k + 1]
            + (k * k + 0.25 * (x - nu * nu)) * c[k]
            + 0.25 * prev
        ) / (x * x * (k + 1) * (k + 2))
    return c[:count]


# bessel_sqrt_vec sums the series up to BESSEL_SERIES_TOP (sqrt x = 8) and
# steps at most a quarter in sqrt x beyond: a step bounded in x alone
# spans ever more periods of J_nu (x / 4 is 11 radians at sqrt x = 100)
BESSEL_SERIES_TOP = 64.0
BESSEL_SERIES_TERMS = 32
BESSEL_ANCHOR_SPACING = 0.5  # in sqrt x
BESSEL_MAX_ARG = 1e6  # sqrt x = 1000: the march ends here
# a larger nu makes J_nu grow too fast for the first steps of the march
BESSEL_MAX_MARCH_NU = 120.0

# per nu, (J_nu(sqrt x), d/dx J_nu(sqrt x)) at the anchors j = 0, 1, ...
_bessel_march = {}


def _bessel_series(nu, x):
    """(J_nu(sqrt x), x d/dx J_nu(sqrt x)) from BESSEL_SERIES_TERMS terms
    of (x/4)^{nu/2} sum_k a_k, a_k = (-x/4)^k / (k! Gamma(nu + k + 1)),
    and of x d/dx, which takes a_k to (nu/2 + k) a_k."""
    q = 0.25 * x
    with np.errstate(divide="ignore"):  # x = 0: J_nu(0) is 0, 1 or inf
        front = (np.exp(0.5 * nu * np.log(q) - math.lgamma(nu + 1.0))
                 if nu else 1.0)
    term = np.ones_like(x)
    f = term.copy()
    g = 0.5 * nu * term
    for k in range(1, BESSEL_SERIES_TERMS):
        term = term * -q / (k * (nu + k))
        f += term
        g += (0.5 * nu + k) * term
    return front * f, front * g


def _bessel_anchor_x(j):
    """x at the anchors j, (8 + j * BESSEL_ANCHOR_SPACING)^2, exactly."""
    return (8.0 + j * BESSEL_ANCHOR_SPACING) ** 2


def bessel_sqrt_vec(nu, x):
    """(J_nu(sqrt x), x d/dx J_nu(sqrt x)) over an array x, for nu > -1 and
    0 <= x <= BESSEL_MAX_ARG (nu <= BESSEL_MAX_MARCH_NU past the series):
    the series up to BESSEL_SERIES_TOP, beyond it one Taylor step of
    bessel_sqrt_taylor_coefficients from the anchor nearest in sqrt x."""
    x = np.asarray(x, dtype=float)
    top = BESSEL_MAX_ARG if nu <= BESSEL_MAX_MARCH_NU else BESSEL_SERIES_TOP
    if not (nu > -1.0 and np.all((x >= 0.0) & (x <= top))):
        raise DomainError(f"J_nu(sqrt x) at nu = {nu:g} needs nu > -1 and "
                          f"finite 0 <= x <= {top:g}")
    flat = x.ravel()
    f, g = _bessel_series(nu, np.minimum(flat, BESSEL_SERIES_TOP))
    far = flat > BESSEL_SERIES_TOP
    if np.any(far):
        xf = flat[far]
        j, where = np.unique(
            np.rint((np.sqrt(xf) - 8.0) / BESSEL_ANCHOR_SPACING),
            return_inverse=True)
        # (f, f') at anchor 0, from the series
        start = np.divide(_bessel_series(nu, np.array(BESSEL_SERIES_TOP)),
                          (1.0, BESSEL_SERIES_TOP))
        march = _bessel_march.setdefault(float(nu), [])
        step = functools.partial(bessel_sqrt_taylor_coefficients, nu)
        f0, fp0 = np.array([_marched(march, int(i), _bessel_anchor_x, step,
                                     start) for i in j]).T
        x0 = _bessel_anchor_x(j)
        c = step(x0, f0, fp0, STEP_TERMS)[:, where]
        f[far], fp = _taylor_horner(c, xf - x0[where])
        g[far] = xf * fp
    return f.reshape(x.shape), g.reshape(x.shape)
