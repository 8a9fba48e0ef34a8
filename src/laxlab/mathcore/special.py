"""Airy and Bessel functions built from series, asymptotics and stable
Taylor marching (no delegation, so results are bit-reproducible).

One Airy recurrence serves every value.  ``airy_ai_vec`` takes each point
one Taylor step of |h| <= 0.25, with a fixed 32 terms, from the nearest
anchor at a multiple of 0.5.  Anchors from AIRY_MARCH_TOP = 9 up come
from the asymptotic expansion; those below are marched down from its
value at 9 in steps of 0.25 by the same Taylor step, once, on first use.
Ai grows in the marching direction on [0, 9] and oscillates below 0, so
the march does not amplify rounding.

Accuracy against 40-digit mpmath: absolute error <= 1e-14 on [-200, 0],
relative <= 1e-14 on [0, 9.3] and <= 1e-12 on [9.3, 100]; J_nu (nu > -1)
is accurate to 1e-12 absolute on [0, 100].  Airy raises DomainError
below AIRY_MIN_ARG and is (0, -0) from AIRY_UNDERFLOW on, where
e^{-zeta} underflows.
"""

import functools
import math
import threading

import numpy as np

from ..errors import DomainError
from .quadrature import gauss_legendre_rule

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
# |h| <= 0.25; AIRY_STEP_TERMS Taylor terms reach full precision there up
# to x = 104, where Ai underflows.
AIRY_ANCHOR_SPACING = 0.5
AIRY_STEP_TERMS = 32

# (Ai, Ai') at AIRY_MARCH_TOP - i * AIRY_ANCHOR_SPACING / 2, filled by
# _airy_anchor as far down as it has been asked for; the lock keeps two
# threads from appending the same step twice
_march = []
_march_lock = threading.Lock()


def _airy_horner(c, h):
    """(Ai, Ai') at x + h from the Taylor coefficients c of Ai about x
    (airy_taylor_coefficients), by Horner sums."""
    ai = c[-1]
    aip = (len(c) - 1) * c[-1]
    for n in range(len(c) - 2, 0, -1):
        ai = ai * h + c[n]
        aip = aip * h + n * c[n]
    return ai * h + c[0], aip


@functools.cache
def _airy_anchor(k):
    """(Ai, Ai') at the anchor k * AIRY_ANCHOR_SPACING, k an int."""
    x = k * AIRY_ANCHOR_SPACING
    if x >= AIRY_UNDERFLOW:
        return 0.0, -0.0
    if x >= AIRY_MARCH_TOP:
        return _airy_asymptotic(x)
    h = -0.5 * AIRY_ANCHOR_SPACING
    i = round((x - AIRY_MARCH_TOP) / h)
    with _march_lock:
        if not _march:
            _march.append(_airy_asymptotic(AIRY_MARCH_TOP))
        while len(_march) <= i:
            c = airy_taylor_coefficients(
                AIRY_MARCH_TOP + (len(_march) - 1) * h, *_march[-1],
                AIRY_STEP_TERMS)
            _march.append(_airy_horner(c, h))
        return _march[i]


def airy_ai_vec(xs):
    """Vectorized (Ai, Ai') over an array of points.

    Each point x takes one Taylor step h = x - x_k, |h| <= 0.25, from its
    nearest anchor x_k = 0.5 k, summing AIRY_STEP_TERMS terms of the
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
    c = airy_taylor_coefficients(x0, ai0, aip0, AIRY_STEP_TERMS)[:, where]
    ai, aip = _airy_horner(c, x - x0[where])
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


def _bessel_series(nu, x):
    """Ascending series; accurate for x <= 8 (cancellation stays mild)."""
    if x == 0.0:
        if nu == 0:
            return 1.0
        return 0.0 if nu > 0 else math.inf
    half = 0.5 * x
    log_front = nu * math.log(half) - math.lgamma(nu + 1.0)
    term = math.exp(log_front)
    total = term
    q = -half * half
    k = 0
    while True:
        k += 1
        term *= q / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30) or k > 200:
            return total


def _bessel_integral(nu, x):
    """Schlaefli integral representation, for x > 8.

    J_nu(x) = (1/pi) Int_0^pi cos(nu*t - x*sin t) dt
              - sin(nu*pi)/pi Int_0^inf exp(-nu*t - x*sinh t) dt
    """
    order = 80 + int(1.2 * x)
    t, w = gauss_legendre_rule(order, (0.0, math.pi))
    first = float(np.dot(w, np.cos(nu * t - x * np.sin(t)))) / math.pi
    s = math.sin(nu * math.pi)
    if abs(s) < 1e-300:
        return first
    # Truncate where the integrand has decayed below 1e-20.
    upper = math.asinh(60.0 / x)
    for _ in range(4):
        upper = math.asinh((60.0 + max(-nu, 0.0) * upper) / x)
    upper += 0.5
    t2, w2 = gauss_legendre_rule(96, (0.0, upper))
    second = float(np.dot(w2, np.exp(-nu * t2 - x * np.sinh(t2)))) / math.pi
    return first - s * second


def bessel_j(nu, x):
    """Bessel function J_nu(x) for nu > -1, x >= 0."""
    nu = float(nu)
    x = float(x)
    if nu <= -1.0:
        raise DomainError("bessel_j requires nu > -1")
    if x < 0.0:
        raise DomainError("bessel_j requires x >= 0")
    if x <= 8.0:
        return _bessel_series(nu, x)
    return _bessel_integral(nu, x)


def bessel_j_prime(nu, x, j=None):
    """Derivative J_nu'(x) = (nu/x) J_nu(x) - J_{nu+1}(x) for nu > -1 and
    x > 0; j is J_nu(x), when the caller has it already."""
    if not x > 0.0:
        raise DomainError("bessel_j_prime requires x > 0")
    if j is None:
        j = bessel_j(nu, x)
    return (nu / x) * j - bessel_j(nu + 1.0, x)
