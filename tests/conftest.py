"""Shared helpers for the test suite."""

from fractions import Fraction

import numpy as np
from hypothesis import settings

from slespec.spectrum import _exact, curve_point

settings.register_profile("suite", max_examples=25, deadline=None,
                          derandomize=True)
settings.load_profile("suite")


class QuadExt:
    """Exact arithmetic in Q[sqrt(d)]: values x + y*sqrt(d), Fraction x, y.

    Only needs to be good enough to push a quadratic surd through rational
    formulas and decide signs exactly; d is a fixed nonnegative integer that
    must agree between operands.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y, d):
        self.x = Fraction(x)
        self.y = Fraction(y)
        self.d = int(d)

    def _lift(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"mixed radicands {self.d} vs {other.d}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    # ---- ring ops ----

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.x + o.x, self.y + o.y, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.x, -self.y, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.x * o.x + self.y * o.y * self.d,
                       self.x * o.y + self.y * o.x, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        nrm = o.x * o.x - o.y * o.y * o.d
        if nrm == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(d)]")
        inv = QuadExt(o.x / nrm, -o.y / nrm, self.d)
        return self * inv

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt(1, 0, self.d)
        for _ in range(n):
            out = out * self
        return out

    # ---- exact ordering ----

    def _sign(self):
        x, y = self.x, self.y
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return (y > 0) - (y < 0)
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        mag = x * x - y * y * self.d
        if x > 0:   # y < 0: positive iff x beats |y| sqrt(d)
            return (mag > 0) - (mag < 0)
        return (mag < 0) - (mag > 0)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() == 0

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() >= 0

    __hash__ = None

    def __float__(self):
        import math
        return float(self.x) + float(self.y) * math.sqrt(self.d)

    def __abs__(self):
        return self if self._sign() >= 0 else -self

    def __repr__(self):
        return f"QuadExt({self.x}, {self.y}, d={self.d})"


# ---- checkers with no caller in the library ----

def lpsi_residual(psi, beta_tilde, gamma, kappa, phi_grid) -> float:
    """Max abs residual of the angular ODE over phi_grid.

    psi is the polynomial in x = (1 - cos phi)/2 (ascending coefficients);
    derivatives in phi come from the chain rule
    Psi'  = p'(x) sin(phi)/2,
    Psi'' = p''(x) x (1-x) + p'(x) (1 - 2x)/2.
    """
    poly = np.polynomial.polynomial
    p = [float(c) for c in psi]
    dp = poly.polyder(p)
    ddp = poly.polyder(dp)
    g, k, bt = float(gamma), float(kappa), float(beta_tilde)
    phi = np.asarray(phi_grid, dtype=float)
    cphi, sphi = np.cos(phi), np.sin(phi)
    x = (1.0 - cphi) / 2.0
    P, D1, D2 = (poly.polyval(x, c) for c in (p, dp, ddp))
    P1 = D1 * sphi / 2.0
    P2 = D2 * x * (1.0 - x) + D1 * (1.0 - 2.0 * x) / 2.0
    res = (k / 2.0) * (1.0 - cphi) * P2 - (1.0 - k * g) * sphi * P1 \
        + ((k * (2 * g - 1) / 2.0 - 3.0) * g * cphi
           - (k * (g - 1) / 2.0 - 3.0) * g - bt) * P
    return float(np.max(np.abs(res)))


def beta_from_lambda(curve, lam):
    """Eigenvalue as a quadratic in the hypergeometric index lambda.

    beta~ = kappa lam^2/4 + (kappa gamma - kappa/4 - 1) lam + kappa gamma^2/2;
    agrees with eigen_beta_closed at integer lam = l.  Off the curves it
    raises as curve_point does, and a bool lam raises TypeError.
    """
    k = curve_point(curve).kappa
    g = _exact(curve.gamma)
    lam = _exact(lam)
    return k * lam * lam / 4 + (k * g - k / 4 - 1) * lam + k * g * g / 2
