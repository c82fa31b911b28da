"""Closed-form average integral-means spectrum of interior whole-plane SLE.

Everything here is elementary arithmetic on the defining relation
q = 2*gamma + kappa*gamma/2 - kappa*gamma**2/2 and the exact truncation
curves (M, gamma).  Rational inputs stay rational wherever no square root
is involved; _exact is the package's one rule for which scalars are
exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

import numpy as np

Scalar = Union[int, float, Fraction]

_REL_TOL = 1e-12  # branch-boundary comparisons in float mode


class NoRealGammaError(ValueError):
    """Raised when the defining quadratic has no real root for (q, kappa)."""


class InvalidCurveError(ValueError):
    """Raised for (M, gamma) outside the admissible truncation range."""


class Branch(str, Enum):
    TIP = "Tip"
    BULK = "Bulk"
    DERIVATIVE = "Derivative"


def _exact(x):
    """The exactness rule: bool and numpy bool raise TypeError; any other
    numbers.Rational (int, numpy integer, Fraction) becomes a Fraction of
    Python ints, which cannot overflow; float, numpy float, complex and the
    rest pass unchanged.
    """
    if isinstance(x, (float, Fraction)):   # the hot case, before any ABC check
        return x
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("bool is not a scalar here")
    if isinstance(x, Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    return x


def _is_int(n) -> bool:   # the integer rule; mc._is_count is its copy
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _index(x, name: str, err=ValueError) -> int:
    """The index rule (curve M, level l): an int or numpy integer, as an int;
    bool and numpy bool raise TypeError, anything else err."""
    if isinstance(x, (bool, np.bool_)):
        raise TypeError(f"bool is not an index here: {name}={x!r}")
    if not _is_int(x):
        raise err(f"{name} must be an integer, got {x!r}")
    return int(x)


# ---- parameter containers ----

@dataclass(frozen=True)
class SLEParams:
    q: Scalar
    kappa: Scalar

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if not (math.isfinite(float(self.q)) and math.isfinite(float(self.kappa))):
            raise ValueError(f"q and kappa must be finite, got q={self.q}, "
                             f"kappa={self.kappa}")


@dataclass(frozen=True)
class GammaRoots:
    """Both roots of kappa*g^2 - (kappa+4)*g + 2q = 0.

    gamma_plus is +inf at kappa=0 where the quadratic degenerates to a
    linear equation and only gamma_minus = q/2 survives.
    """
    gamma_minus: float
    gamma_plus: float
    discriminant: float

    @property
    def has_plus(self) -> bool:
        return math.isfinite(self.gamma_plus)


@dataclass(frozen=True)
class CurveParams:
    M: int
    gamma: Scalar


@dataclass(frozen=True)
class SpectrumValue:
    beta: float
    branch: Branch
    beta_tilde: float
    gamma: Optional[float] = None


# ---- the defining relation and its roots ----

def q_of_gamma(gamma: Scalar, kappa: Scalar) -> Scalar:
    """Exponent q carried by a given gamma: 2g + kappa*g/2 - kappa*g^2/2."""
    g = _exact(gamma)
    k = _exact(kappa)
    return 2 * g + k * g * (1 - g) / 2


def gamma_roots(params: SLEParams) -> GammaRoots:
    """Solve q = q_of_gamma(g, kappa) for g.

    gamma_minus is computed in the rationalized form 4q / (kappa + 4 + sqrt(disc)),
    which is stable near q = 0 and gives the kappa = 0 limit q/2 exactly.
    """
    q = float(params.q)
    k = float(params.kappa)
    disc = (k + 4.0) ** 2 - 8.0 * q * k
    if disc < 0.0:
        raise NoRealGammaError(
            f"no real gamma for q={q}, kappa={k}: discriminant {disc} < 0")
    root = math.sqrt(disc)
    g_minus = 4.0 * q / (k + 4.0 + root)
    g_plus = (k + 4.0 + root) / (2.0 * k) if k > 0.0 else math.inf
    return GammaRoots(gamma_minus=g_minus, gamma_plus=g_plus, discriminant=disc)


def q_tip(kappa: Scalar) -> Scalar:
    """Left edge of the bulk branch; gamma_minus = -1/2 exactly there."""
    return -1 - 3 * _exact(kappa) / 8


def q_transition(kappa: Scalar) -> float:
    """Right edge of the bulk branch, where the derivative branch takes over.

    Rationalized so that kappa -> 0 is regular (limit 1/3) instead of 0/0.
    """
    k = float(kappa)
    if not (k >= 0.0 and math.isfinite(k)):
        raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
    s = math.sqrt(2.0 * k * k + 16.0 * k + 36.0)
    return (k ** 3 + 16.0 * k * k + 80.0 * k + 128.0) / (
        16.0 * (k * k + 8.0 * k + 12.0 + 2.0 * s))


# ---- spectrum proper ----

def beta_spectrum(params: SLEParams) -> SpectrumValue:
    """Average integral-means spectrum beta(q; kappa), all three branches.

    Tip        q <= -1 - 3 kappa/8 :   kappa g^2/2 - 2g - 1   (g = gamma_minus)
    Bulk       up to q_transition  :   kappa g^2/2
    Derivative q >= q_transition   :   3q - 1/2 - sqrt(1 + 2 q kappa)/2

    At the boundaries adjacent formulas agree; comparisons use a relative
    tolerance so either side is accepted at exact equality.
    """
    q = float(params.q)
    k = float(params.kappa)
    qt = float(q_tip(k))
    qs = q_transition(k)
    tol_tip = _REL_TOL * max(1.0, abs(qt))
    tol_star = _REL_TOL * max(1.0, abs(qs))

    if q >= qs - tol_star:
        beta = 3.0 * q - 0.5 - 0.5 * math.sqrt(1.0 + 2.0 * q * k)
        roots = None
        try:
            roots = gamma_roots(params)
        except NoRealGammaError:
            pass
        g = roots.gamma_minus if roots is not None else None
        return SpectrumValue(beta=beta, branch=Branch.DERIVATIVE,
                             beta_tilde=beta, gamma=g)

    g = gamma_roots(params).gamma_minus
    bt = 0.5 * k * g * g
    if q <= qt + tol_tip:
        return SpectrumValue(beta=bt - 2.0 * g - 1.0, branch=Branch.TIP,
                             beta_tilde=bt, gamma=g)
    return SpectrumValue(beta=bt, branch=Branch.BULK, beta_tilde=bt, gamma=g)


# ---- exact truncation curves ----

def curve_denominator(M: int, gamma: Scalar) -> Scalar:
    g = _exact(gamma)
    return M * M + 2 * M * g + 2 * g * g - g


def _checked_curve(curve: CurveParams):
    """(M, g, D) of an admissible curve, g read by _exact; the one curve rule.

    Every function of a curve validates here: M a nonnegative integer under
    _index (bool raises TypeError), 3g >= -M, D = M^2 + 2Mg + 2g^2 - g > 0
    (else InvalidCurveError), and q and kappa finite (else ValueError, from
    SLEParams), which only inexact g can break.
    """
    M = _index(curve.M, "M", InvalidCurveError)
    if M < 0:
        raise InvalidCurveError(f"M must be a nonnegative integer, got {M!r}")
    g = _exact(curve.gamma)
    if 3 * g < -M:
        raise InvalidCurveError(
            f"gamma={curve.gamma} below -M/3 for M={M}: not an admissible curve")
    D = curve_denominator(M, g)
    if not D > 0:
        raise InvalidCurveError(
            f"(M={M}, gamma={curve.gamma}) has nonpositive denominator D={D}")
    if not isinstance(g, Fraction):   # float q can overflow
        _curve_params(M, g, D)
    return M, g, D


def _curve_params(M: int, g, D) -> SLEParams:
    return SLEParams(q=g * (M + g) * (2 * M + 1 + g) / D, kappa=2 * (M + 3 * g) / D)


def curve_point(curve: CurveParams) -> SLEParams:
    """(q, kappa) carried by the truncation curve (M, gamma).

    kappa = 2(M + 3g)/D, q = g(M + g)(2M + 1 + g)/D with
    D = M^2 + 2Mg + 2g^2 - g.  Exact for rational gamma.  Raises off the
    curves that _checked_curve admits.
    """
    return _curve_params(*_checked_curve(curve))


def gamma_transition(M: int) -> float:
    """gamma_M where the two extreme eigenvalues cross on the M-curve; M by _index."""
    M = _index(M, "M")
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")
    return (math.sqrt(36.0 * M * M + 20.0 * M + 1.0) - 6.0 * M + 1.0) / 16.0


def _crossing_poly(M: int, gamma):
    # negative iff gamma < gamma_M on the admissible range; exact for rationals
    g = _exact(gamma)
    return 8 * g * g + (6 * M - 1) * g - M


def eigen_beta_closed(curve: CurveParams, l: int) -> Scalar:
    """Closed eigenvalue beta_l of the truncated angular system, l = 0..2M.

    beta_l = [2(M+3g) g^2 - (2M^2 + M - 8g^2 + g) l + (M+3g) l^2] / (2D).
    Rational in gamma (no square root), so exact for Fraction input; l by _index.
    """
    M, g, D = _checked_curve(curve)
    l = _index(l, "l")
    if not 0 <= l <= 2 * M:
        raise ValueError(f"l must lie in [0, {2 * M}], got {l}")
    num = 2 * (M + 3 * g) * g * g - (2 * M * M + M - 8 * g * g + g) * l \
        + (M + 3 * g) * l * l
    return num / (2 * D)


def beta_tilde_on_curve(curve: CurveParams) -> Scalar:
    """Largest admissible eigenvalue on the curve: beta_0 below gamma_M, beta_2M above.

    The branch test uses the sign of 8g^2 + (6M-1)g - M, which is exact for
    rational gamma (no surd comparison needed).
    """
    if _crossing_poly(curve.M, curve.gamma) <= 0:
        return eigen_beta_closed(curve, 0)
    return eigen_beta_closed(curve, 2 * curve.M)


def beta_on_curve(curve: CurveParams) -> Scalar:
    """beta on the curve: beta~ - 2g - 1 on the tip branch gamma <= -1/2, else beta~."""
    bt = beta_tilde_on_curve(curve)
    g = _exact(curve.gamma)
    return bt - 2 * g - 1 if g <= Fraction(-1, 2) else bt
