"""Airy and Bessel functions built from series, asymptotics and stable
Taylor marching (no delegation, so results are bit-reproducible).

The scalar Airy routine ``_airy_pair`` is the reference.  The vectorised
``airy_ai_vec`` takes each point one Taylor step of |h| <= 0.25, with a
fixed 32 terms, from the nearest anchor at a multiple of 0.5; each
anchor's (Ai, Ai') comes from ``_airy_pair`` once, on first use.

Accuracy targets: absolute error <= 1e-12 for Airy on [-15, 15] and for
J_nu (nu > -1) on [0, 100]; both degrade gracefully outside.  Airy
raises DomainError below AIRY_MIN_ARG, where the errors against 40-digit
mpmath are 5.9e-13 (Ai) and 9.0e-12 (Ai'), and is (0, -0) from
AIRY_UNDERFLOW on, where e^{-zeta} underflows.
"""

import functools
import math

import numpy as np

from ..errors import DomainError
from .quadrature import gauss_legendre_rule

_SQRT_PI = math.sqrt(math.pi)

AIRY_MIN_ARG = -200.0  # the march from -4.5 loses digits beyond
AIRY_UNDERFLOW = 108.0  # zeta = (2/3) x^{3/2} > 748 from here on
AIRY_TAYLOR_TERMS = 300  # cap on the terms of one Taylor step

# Ai(0) and Ai'(0) from the Gamma-function closed forms.
_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)


def _airy_taylor(x0, y, yp, h):
    """Taylor series of the Airy ODE y'' = x y about x0, evaluated at x0+h.

    Coefficients follow c_{n+2} = (x0*c_n + c_{n-1}) / ((n+1)(n+2)); the sum
    runs until successive terms fall below 1e-20 of the running scale.
    """
    if h == 0.0:
        return y, yp
    c = [y, yp]
    val = y + yp * h
    der = yp
    scale = max(abs(val), abs(y), 1e-300)
    hn = h  # h**n for the value term just added
    quiet = 0
    for n in range(AIRY_TAYLOR_TERMS):
        prev = c[n - 1] if n >= 1 else 0.0
        cn = (x0 * c[n] + prev) / ((n + 1) * (n + 2))
        c.append(cn)
        hn *= h
        term = cn * hn
        val += term
        der += (n + 2) * cn * hn / h
        scale = max(scale, abs(val))
        if abs(term) < 1e-20 * scale and abs((n + 2) * term) < 1e-18 * scale:
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    return val, der


def _airy_asymptotic(x):
    """Asymptotic expansion for large positive x (optimally truncated)."""
    zeta = (2.0 / 3.0) * x ** 1.5
    u = 1.0
    s_val = 1.0
    s_der = 1.0
    term = 1.0
    k = 0
    while True:
        u *= (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1))
        k += 1
        new = u / zeta ** k
        if new >= abs(term) or new < 1e-18:
            if new < 1e-18:
                sign = -1.0 if k % 2 else 1.0
                s_val += sign * new
                s_der += sign * new * (6 * k + 1) / (1 - 6 * k)
            break
        sign = -1.0 if k % 2 else 1.0
        s_val += sign * new
        s_der += sign * new * (6 * k + 1) / (1 - 6 * k)
        term = new
        if k > 60:
            break
    front = math.exp(-zeta) / (2.0 * _SQRT_PI * x ** 0.25)
    ai = front * s_val
    aip = -(x ** 0.25) * math.exp(-zeta) / (2.0 * _SQRT_PI) * s_der
    return ai, aip


def _airy_pair(x):
    """(Ai(x), Ai'(x)) by regime: series, asymptotics, or stable marching."""
    if not math.isfinite(x) or x < AIRY_MIN_ARG:
        raise DomainError(
            f"Airy functions need a finite argument >= {AIRY_MIN_ARG:g}, "
            f"not {x}"
        )
    if x >= AIRY_UNDERFLOW:
        return 0.0, -0.0
    if x >= 9.0:
        return _airy_asymptotic(x)
    if x > 4.5:
        # Seed well inside the asymptotic regime and march down; Ai grows
        # in the marching direction, so the recurrence is stable.
        xs = x + 6.0
        y, yp = _airy_asymptotic(xs)
        pos = xs
        while pos - x > 1e-12:
            h = -min(0.75, pos - x)
            y, yp = _airy_taylor(pos, y, yp, h)
            pos += h
        return y, yp
    if x >= -4.5:
        return _airy_taylor(0.0, _AI0, _AIP0, x)
    # Oscillatory side: march down from -4.5; no growing mode to amplify
    # rounding, so long marches stay accurate.
    y, yp = _airy_taylor(0.0, _AI0, _AIP0, -4.5)
    pos = -4.5
    while pos - x > 1e-12:
        h = -min(0.75, pos - x)
        y, yp = _airy_taylor(pos, y, yp, h)
        pos += h
    return y, yp


def airy_ai(x):
    """The Airy function Ai(x)."""
    return _airy_pair(float(x))[0]


def airy_ai_prime(x):
    """Derivative Ai'(x)."""
    return _airy_pair(float(x))[1]


# airy_ai_vec steps from anchors at multiples of AIRY_ANCHOR_SPACING, so
# |h| <= 0.25; AIRY_STEP_TERMS Taylor terms reach full precision there up
# to x = 104, where Ai underflows.
AIRY_ANCHOR_SPACING = 0.5
AIRY_STEP_TERMS = 32


@functools.cache
def _airy_anchor(k):
    """(Ai, Ai') at the anchor k * AIRY_ANCHOR_SPACING, k an int."""
    return _airy_pair(k * AIRY_ANCHOR_SPACING)


def airy_ai_vec(xs):
    """Vectorized (Ai, Ai') over an array of points.

    Each point x takes one Taylor step h = x - x_k, |h| <= 0.25, from its
    nearest anchor x_k = 0.5 k, summing AIRY_STEP_TERMS terms of the
    recurrence of airy_taylor_coefficients.  Anchors are evaluated by the
    scalar routine when first needed and cached.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs < AIRY_MIN_ARG):
        raise DomainError(
            f"Airy functions need finite arguments >= {AIRY_MIN_ARG:g}"
        )
    k, where = np.unique(np.rint(xs.ravel() / AIRY_ANCHOR_SPACING),
                         return_inverse=True)
    x0 = k * AIRY_ANCHOR_SPACING
    ai0, aip0 = np.array([_airy_anchor(int(j)) for j in k]).reshape(-1, 2).T
    c = airy_taylor_coefficients(x0, ai0, aip0, AIRY_STEP_TERMS)[:, where]
    h = xs.ravel() - x0[where]
    ai = c[-1]
    aip = (AIRY_STEP_TERMS - 1) * c[-1]
    for n in range(AIRY_STEP_TERMS - 2, 0, -1):
        ai = ai * h + c[n]
        aip = aip * h + n * c[n]
    ai = ai * h + c[0]
    return ai.reshape(xs.shape), aip.reshape(xs.shape)


def airy_taylor_coefficients(x, ai, aip, count):
    """Taylor coefficients c_0..c_{count-1} of Ai about each point of x,
    from the values ai = Ai(x) and aip = Ai'(x) there; row n holds
    Ai^{(n)}(x) / n! by the recurrence of _airy_taylor,
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
