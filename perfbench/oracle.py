"""Closed-form reference values the benchmark checks the library against.

Written from the paper's formulas, not taken from the library, so that a
wrong library answer cannot also be the expected answer.  Exact (Fraction)
wherever the math is rational; hyp2f1 comes from mpmath at 30 digits.  The
cross-route oracles (float series for MC, conic_flow, rho_M0/rho_M1 for
eval_rho) are library calls made at set-up in workloads.py.
"""
from __future__ import annotations

import math

import mpmath

_CTX = mpmath.mp.clone()
_CTX.dps = 30


def gamma_roots(q: float, kappa: float):
    """(gamma_minus, gamma_plus) of kappa g^2 - (kappa+4) g + 2q = 0."""
    disc = (kappa + 4.0) ** 2 - 8.0 * q * kappa
    root = math.sqrt(disc)
    g_minus = 4.0 * q / (kappa + 4.0 + root)
    g_plus = (kappa + 4.0 + root) / (2.0 * kappa) if kappa > 0 else math.inf
    return g_minus, g_plus


def q_transition(kappa: float) -> float:
    s = math.sqrt(2.0 * kappa * kappa + 16.0 * kappa + 36.0)
    return (kappa ** 3 + 16.0 * kappa * kappa + 80.0 * kappa + 128.0) / (
        16.0 * (kappa * kappa + 8.0 * kappa + 12.0 + 2.0 * s))


def spectrum(q: float, kappa: float):
    """(beta, branch, gamma_minus or None) of the three-branch closed form."""
    qt = -1.0 - 3.0 * kappa / 8.0
    qs = q_transition(kappa)
    disc = (kappa + 4.0) ** 2 - 8.0 * q * kappa
    g = gamma_roots(q, kappa)[0] if disc >= 0 else None
    if q >= qs - 1e-12 * max(1.0, abs(qs)):
        return 3.0 * q - 0.5 - 0.5 * math.sqrt(1.0 + 2.0 * q * kappa), "Derivative", g
    bt = 0.5 * kappa * g * g
    if q <= qt + 1e-12 * max(1.0, abs(qt)):
        return bt - 2.0 * g - 1.0, "Tip", g
    return bt, "Bulk", g


def curve_point(M: int, gamma):
    """(q, kappa) on the truncation curve (M, gamma); None if inadmissible."""
    D = M * M + 2 * M * gamma + 2 * gamma * gamma - gamma
    if 3 * gamma < -M or not D > 0:
        return None
    return gamma * (M + gamma) * (2 * M + 1 + gamma) / D, 2 * (M + 3 * gamma) / D


def eigen_closed(M: int, gamma, l: int):
    D = M * M + 2 * M * gamma + 2 * gamma * gamma - gamma
    num = 2 * (M + 3 * gamma) * gamma * gamma \
        - (2 * M * M + M - 8 * gamma * gamma + gamma) * l + (M + 3 * gamma) * l * l
    return num / (2 * D)


def beta_tilde_on_curve(M: int, gamma):
    """beta_0 below the crossing gamma_M, beta_{2M} above it."""
    if 8 * gamma * gamma + (6 * M - 1) * gamma - M <= 0:
        return eigen_closed(M, gamma, 0)
    return eigen_closed(M, gamma, 2 * M)


def width1_kappa(gamma: float) -> float:
    return 2.0 * (3.0 * gamma + 1.0) / (2.0 * gamma * gamma + gamma + 1.0)


def width1_q(gamma: float) -> float:
    return gamma * (gamma + 1.0) * (gamma + 3.0) / (2.0 * gamma * gamma + gamma + 1.0)


def width0_q(kappa: float) -> float:
    return (2.0 + kappa) * (6.0 + kappa) / (8.0 * kappa)


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    return float(_CTX.hyp2f1(a, b, c, x))
