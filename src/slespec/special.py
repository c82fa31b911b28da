"""Gauss 2F1 on the real interval, closed-form moment functions, PDE residual.

The hypergeometric routine covers exactly what the closed forms need:
terminating series (exact in rational arithmetic), Pfaff's transformation for
x < 0, direct series to 0.9, Taylor steps of the hypergeometric equation to 1.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from typing import Callable, NamedTuple

from .spectrum import _exact

_SERIES_EPS = 1e-16
_SERIES_CAP = 100000
_SERIES_SPLIT = 0.9


def _nonpositive_int(v):
    # -v (termination length) when v is a nonpositive integer; v is finite
    return -int(v) if v <= 0 and v == int(v) else None


def _terminating_terms(a, b, c, x, n_terms: int) -> list:
    """The n_terms + 1 terms of the 2F1 series that stops after x^n_terms.

    Exact for rational inputs; raises ValueError if c + k hits zero first.
    """
    terms = [x * 0 + 1]
    for k in range(n_terms):
        if c + k == 0:
            raise ValueError(
                f"2F1 lower parameter c={c} hits zero at k={k} before termination")
        terms.append(terms[-1] * (a + k) * (b + k) * x / ((c + k) * (k + 1)))
    return terms


def hyp2f1(a, b, c, x):
    """2F1(a, b; c; x) for real x in (-1, 1).

    Terminating cases (a or b a nonpositive integer) are summed exactly and
    stay rational for exact inputs.  Otherwise x < 0 goes through Pfaff's
    (1-x)^-a 2F1(a, c-b; c; x/(x-1)) (DLMF 15.8.1), a series in x/(x-1) < 1/2;
    direct series up to x = 0.9; beyond, local Taylor series of the equation
    (DLMF 15.10.1) continue y and y' = (ab/c) 2F1(a+1, b+1; c+1; x) from
    x = 1/2, where both series converge like 2^-k, each step at most half way
    to the singular point x = 1; integral c-a-b is no special case.
    """
    a, b, c, x = map(_exact, (a, b, c, x))
    # float() of a large Fraction may overflow, and a Fraction is finite
    if not all(isinstance(v, Fraction) or math.isfinite(v) for v in (a, b, c)):
        raise ValueError(f"2F1 parameters must be finite, got a={a}, b={b}, c={c}")
    stops = [n for n in (_nonpositive_int(a), _nonpositive_int(b)) if n is not None]
    n_stop = min(stops, default=None)
    nc = _nonpositive_int(c)
    if nc is not None and (n_stop is None or nc < n_stop):
        raise ValueError(
            f"2F1 undefined: c={c} is a nonpositive integer reached by the series")

    if n_stop is not None:
        if not (isinstance(x, Fraction) or math.isfinite(x)):
            raise ValueError(f"2F1 argument must be finite, got x={x}")
        if not all(isinstance(v, Fraction) for v in (a, b, c, x)):
            a, b, c, x = map(float, (a, b, c, x))
        return reduce(lambda acc, t: acc + t, _terminating_terms(a, b, c, x, n_stop))

    xf = float(x)
    if not -1.0 < xf < 1.0:
        raise ValueError(
            f"non-terminating 2F1 needs -1 < x < 1, got x={xf}")
    af, bf, cf = float(a), float(b), float(c)
    if xf < 0.0:
        return (1.0 - xf) ** -af * _direct_series(af, cf - bf, cf, xf / (xf - 1.0))
    if xf <= _SERIES_SPLIT:
        return _direct_series(af, bf, cf, xf)

    x0 = 0.5
    y = _direct_series(af, bf, cf, x0)
    dy = af * bf / cf * _direct_series(af + 1.0, bf + 1.0, cf + 1.0, x0)
    while x0 < xf:
        # x0 runs through 1 - 2^-k, so every step length x1 - x0 is exact
        x1 = min(xf, x0 + (1.0 - x0) / 2.0)
        y, dy = _taylor_step(af, bf, cf, x0, x1 - x0, y, dy)
        x0 = x1
    return y


def _direct_series(a: float, b: float, c: float, x: float) -> float:
    term = 1.0
    acc = 1.0
    small = 0
    for k in range(_SERIES_CAP):
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        acc += term
        if abs(term) <= _SERIES_EPS * max(1.0, abs(acc)):
            small += 1
            if small >= 2:
                return acc
        else:
            small = 0
    raise RuntimeError(f"2F1 series did not converge at x={x}")


def _taylor_step(a: float, b: float, c: float, x0: float, h: float,
                 y: float, dy: float) -> tuple:
    """(y, y') at x0 + h from (y, y') at x0, for x(1-x)y'' + (c-(a+b+1)x)y' = ab y.

    y = sum u_k (x-x0)^k with x0(1-x0)(k+1)(k+2) u_{k+2} = (k+a)(k+b) u_k
    - ((1-2x0)k + c-(a+b+1)x0)(k+1) u_{k+1}; the loop carries v_k = u_k h^k.
    """
    p = x0 * (1.0 - x0)
    r = 1.0 - 2.0 * x0
    s = c - (a + b + 1.0) * x0
    v0, v1 = y, dy * h
    y, hdy = v0 + v1, v1
    for k in range(_SERIES_CAP):
        v2 = h * ((k + a) * (k + b) * h * v0 - (r * k + s) * (k + 1) * v1) \
            / (p * (k + 1) * (k + 2))
        y += v2
        hdy += (k + 2) * v2
        if (k + 1) * abs(v1) + (k + 2) * abs(v2) <= _SERIES_EPS * max(abs(y), abs(hdy)):
            return y, hdy / h
        v0, v1 = v1, v2
    raise RuntimeError(f"2F1 Taylor step from x={x0} did not converge")


# ---- closed-form moment functions ----

def rho_M0(w, wbar, kappa) -> complex:
    """Width-0 closed form: ((1-w)(1-wbar))^e1 / (1-w wbar)^e2.

    e1 = (6+kappa)/(2 kappa), e2 = (6+kappa)^2/(8 kappa); the carried
    exponent is q = (2+kappa)(6+kappa)/(8 kappa).
    """
    k = float(_exact(kappa))
    if not 0 < k < math.inf:   # NaN too
        raise ValueError(f"the width-0 family needs a finite kappa > 0, got {kappa}")
    w = complex(w)
    wbar = complex(wbar)
    if not (abs(w * wbar) < 1 and abs(w) < 1 and abs(wbar) < 1):
        raise ValueError("arguments must satisfy |w|, |wbar| < 1")
    e1 = (6.0 + k) / (2.0 * k)
    e2 = (6.0 + k) ** 2 / (8.0 * k)
    val = cmath.exp(e1 * (cmath.log(1 - w) + cmath.log(1 - wbar))
                    - e2 * cmath.log(1 - w * wbar))
    return val


class RhoM1Value(NamedTuple):
    value: complex
    q: float
    kappa: float


def rho_M1(w, wbar, gamma) -> RhoM1Value:
    """Width-1 closed form via two Gauss functions of xi = w wbar.

    Normalized to rho(0,0) = 1; carries kappa = 2(3g+1)/(2g^2+g+1),
    q = g(g+1)(g+3)/(2g^2+g+1), reported alongside the value.
    """
    g = float(_exact(gamma))
    if not -1.0 / 3.0 < g < math.inf:   # NaN too
        raise ValueError(f"gamma must be finite and exceed -1/3 on the width-1 "
                         f"family, got {gamma}")
    w = complex(w)
    wbar = complex(wbar)
    xi = w * wbar
    if abs(xi.imag) > 1e-12 * (1.0 + abs(xi)):
        raise ValueError(
            "w*wbar must be real (conjugate or real argument pairs)")
    x = xi.real
    if not -1.0 < x < 1.0:
        raise ValueError(f"need -1 < w*wbar < 1, got {x}")
    D1 = 2.0 * g * g + g + 1.0
    kappa = 2.0 * (3.0 * g + 1.0) / D1
    q = g * (g + 1.0) * (g + 3.0) / D1
    E = (g + 1.0) * (3.0 * g * g + 6.0 * g - 1.0) / D1
    phi1 = hyp2f1((g + 1.0) * (1.0 - 3.0 * g) / D1,
                  (1.0 - g - 4.0 * g * g) / D1,
                  (g + 1.0) ** 2 / D1, x)
    phi2 = hyp2f1((1.0 - g) * (2.0 + g) / D1,
                  2.0 * (1.0 - g * g) / D1,
                  (3.0 * g * g + 3.0 * g + 2.0) / D1, x)
    s = (w + wbar) / 2.0
    bracket = (1.0 - s) * phi1 + ((1.0 - 3.0 * g) / (1.0 + g)) * (1.0 - x) * s * phi2
    pref = cmath.exp(g * (cmath.log(1 - w) + cmath.log(1 - wbar))
                     - E * math.log(1.0 - x))
    return RhoM1Value(value=pref * bracket, q=q, kappa=kappa)


def deterministic_map_derivative(w, t: float) -> complex:
    """Derivative of the zero-noise interior map: e^t (1-w)/(1+w)^3."""
    w = complex(w)
    if w == -1:
        raise ValueError("pole at w = -1")
    return math.exp(t) * (1 - w) / (1 + w) ** 3


# ---- PDE residual ----

_D1_STENCIL = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}           # /12h
_D2_STENCIL = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}  # /12h^2


def pde_residual(rho_evaluator: Callable, q: float, kappa: float,
                 w, wbar, h: float = 1e-3) -> float:
    """|L[rho] + q rho| / max(1, |rho|) with 4th-order central differences.

    L = -kappa/2 (w d_w - wbar d_wbar)^2
        + (w+1)/(w-1) w d_w + (wbar+1)/(wbar-1) wbar d_wbar
        - q/(w-1)^2 - q/(wbar-1)^2 + q .

    The two arguments are shifted independently along the real direction;
    analyticity in each makes that the complex derivative.
    """
    if not 0 < h < math.inf:   # NaN too
        raise ValueError(f"the difference step h must be finite and positive, got {h}")
    w = complex(w)
    wbar = complex(wbar)
    f = {}
    for sw in range(-2, 3):
        for sb in range(-2, 3):
            f[(sw, sb)] = complex(rho_evaluator(w + sw * h, wbar + sb * h))
    rho = f[(0, 0)]
    d_w = sum(c * f[(s, 0)] for s, c in _D1_STENCIL.items()) / (12 * h)
    d_b = sum(c * f[(0, s)] for s, c in _D1_STENCIL.items()) / (12 * h)
    d_ww = sum(c * f[(s, 0)] for s, c in _D2_STENCIL.items()) / (12 * h * h)
    d_bb = sum(c * f[(0, s)] for s, c in _D2_STENCIL.items()) / (12 * h * h)
    d_wb = sum(cs * ct * f[(s, t)]
               for s, cs in _D1_STENCIL.items()
               for t, ct in _D1_STENCIL.items()) / (144 * h * h)
    # (w d_w - wbar d_wbar)^2 rho
    P2 = w * d_w + w * w * d_ww - 2 * w * wbar * d_wb + wbar * d_b + wbar * wbar * d_bb
    L = (-kappa / 2.0) * P2 \
        + (w + 1) / (w - 1) * w * d_w + (wbar + 1) / (wbar - 1) * wbar * d_b \
        - q * rho / (w - 1) ** 2 - q * rho / (wbar - 1) ** 2 + q * rho
    return abs(L + q * rho) / max(1.0, abs(rho))
