"""Tridiagonal eigenproblem for the angular profile at the unit-circle limit.

On a truncation curve (M, gamma) the coupled coefficient system closes on the
band |n| <= M and the limit profile solves a (2M+1)-point three-term relation
R[psi]_n = (A_{n+1} psi_{n+1} + A_{-n+1} psi_{n-1} + B_n psi_n)/2 = beta~ psi_n.
The reflection-symmetric subspace psi_n = psi_{-n} reduces to (M+1)x(M+1).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .special import _terminating_terms
from .spectrum import CurveParams, curve_point, _checked_curve, _curve_params, _exact, _index

_CERT_TOL = 1e-10


class EigenCertificationError(RuntimeError):
    """Raised when an eigenpair cannot be certified to the residual bound."""


# ---- recurrence coefficients of the radial ODE system ----

def a_coef(n, gamma, kappa):
    """A_n for an int or a float array n; the square is a product, so both agree."""
    g = _exact(gamma)
    k = _exact(kappa)
    return k * ((n - g) * (n - g)) / 2 + n - 3 * g - k * g * (1 - g) / 2


def b_coef(n, gamma, kappa):
    g = _exact(gamma)
    k = _exact(kappa)
    return -k * (n * n + g * g - g) + 6 * g


def c_coef(n, gamma, kappa):
    g = _exact(gamma)
    k = _exact(kappa)
    return k * (n * n - 2 * g + 2 * g * g) / 2 - n - 6 * g


def _stencil(gamma, kappa, ns):
    """(L, A, B, C): L A_n, L B_n and L C_n on the offsets ns, as arrays.

    Exact gamma and kappa give object arrays of Python ints, with L > 0 the
    least common denominator of the three quadratics' coefficients (read off
    a_coef, b_coef and c_coef at n = 0, 1, 2); otherwise L = 1 and each is
    one float64 call of a_coef, b_coef or c_coef on the offsets.
    """
    g, k = _exact(gamma), _exact(kappa)
    fs = (a_coef, b_coef, c_coef)
    if not (isinstance(g, Fraction) and isinstance(k, Fraction)):
        n = np.array(ns, dtype=float)
        return (1, *(f(n, float(g), float(k)) for f in fs))
    quads = []
    for f in fs:
        f0, f1, f2 = (f(m, g, k) for m in (0, 1, 2))
        q2 = (f2 - 2 * f1 + f0) / 2
        quads.append((f0, f1 - f0 - q2, q2))
    L = math.lcm(*(c.denominator for q in quads for c in q))
    n = np.array(ns, dtype=object)   # Python ints, not np.int64
    return (L, *(int(q0 * L) + (int(q1 * L) + int(q2 * L) * n) * n
                 for q0, q1, q2 in quads))


@dataclass(frozen=True)
class TridiagSystem:
    M: int
    gamma: object
    kappa: object


def build_system(curve: CurveParams) -> TridiagSystem:
    """The system on a curve; curve_point's kappa closes the band, A_{-M} = 0."""
    M, g, D = _checked_curve(curve)
    return TridiagSystem(M, g, _curve_params(M, g, D).kappa)


# ---- matrices ----

def reduced_matrix(sys: TridiagSystem) -> List[list]:
    """R on the reflection-symmetric subspace psi_n = psi_{-n}, rows n = 0..M.

    Sub-diagonal A_{-n+1}/2, diagonal B_n/2, super-diagonal A_{n+1}/2, and row
    0's super-diagonal doubled, the psi_{-1} = psi_1 term.  A and B come from
    one _stencil call on -M..M+1; exact entries are Fraction(L A_n, 2L), float
    ones A_n/2.  Off-band zeros are B_0 * 0.
    """
    M = sys.M
    L, A, B, _ = _stencil(sys.gamma, sys.kappa, range(-M, M + 2))
    half = Fraction if A.dtype == object else operator.truediv
    A, B = A.tolist(), B.tolist()   # Python ints or floats

    def entry(coef, n):
        return half(coef[n + M], 2 * L)

    R = [[entry(B, 0) * 0] * (M + 1) for _ in range(M + 1)]
    for n in range(M + 1):
        R[n][n] = entry(B, n)
    for n in range(M):
        R[n][n + 1], R[n + 1][n] = entry(A, n + 1), entry(A, -n)
    if M > 0:
        R[0][1] *= 2
    return R


# ---- numeric eigensolve with certification ----

@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray       # ascending
    vectors: np.ndarray      # column k pairs with values[k], unit 2-norm
    residuals: np.ndarray    # ||R v - lambda v||_2 per pair
    # exact input only (None on float input), one entry per value:
    newton_steps: Optional[np.ndarray] = None        # Newton updates taken
    bracket_halfwidths: Optional[np.ndarray] = None  # h of the sign change at value -+ h


def _tridiag_exact(matrix):
    """(diag, sub, super) as Fractions when the input is exact and tridiagonal.

    Exact means every entry is a Fraction under spectrum._exact's rule;
    any other entry sends the matrix down the float path.
    """
    rows = [[_exact(x) for x in r] for r in matrix]
    n = len(rows)
    if any(len(r) != n or not all(isinstance(x, Fraction) for x in r) for r in rows):
        return None
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1 and rows[i][j] != 0:
                return None
    diag = [rows[i][i] for i in range(n)]
    sub = [rows[i + 1][i] for i in range(n - 1)]
    sup = [rows[i][i + 1] for i in range(n - 1)]
    return diag, sub, sup


def _char_poly(diag, sub, sup) -> list:
    """Primitive integer multiple of det(T - x I), ascending coefficients.

    With L the lcm of the entries' denominators, the leading principal minors
    of the integer matrix L*T in y = L*x give det(L*T - y I) = L^n det(T - x I);
    coefficient i times L^i returns to x, and dividing by the content leaves
    a positive multiple of det(T - x I): same signs, same ratios p/p'.
    """
    L = math.lcm(*(f.denominator for f in (*diag, *sub, *sup)))

    def scaled(f):
        return f.numerator * (L // f.denominator)

    d = [scaled(f) for f in diag]
    ef = [scaled(s) * scaled(u) for s, u in zip(sub, sup)]
    prev, cur = [1], [d[0], -1]
    for k in range(1, len(d)):
        nxt = [0] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += d[k] * c
            nxt[i + 1] -= c
        for i, c in enumerate(prev):
            nxt[i] -= ef[k - 1] * c
        prev, cur = cur, nxt
    coeffs = [c * L ** i for i, c in enumerate(cur)]
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs]


def _homogeneous(coeffs: Sequence[int], a: int, e: int, D: int = 1):
    """(H, H') = (b^d p(a/b), b^(d-1) p'(a/b)) at b = D 2^e, in integers.

    One Horner pass: h <- h a + c_k b^(d-k) for the value, dh <- dh a + h for
    the derivative; the powers of 2^e are shifts.  H has the sign of p(a/b).
    """
    h, dh, Dk, k = coeffs[-1], 0, 1, 0
    for c in reversed(coeffs[:-1]):
        Dk *= D
        k += e
        dh = dh * a + h
        h = h * a + (c * Dk << k)
    return h, dh


def _round_half_even(n: int, d: int) -> int:
    """round(n/d), ties to even, as round(Fraction(n, d)) gives."""
    if d < 0:
        n, d = -n, -d
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


_DEN_BITS = 200   # iterates are m / 2^200: stops denominators squaring each step
_STOP_BITS = 150  # Newton stops once |step| < 2^-150 max(1, |x|)


def _exact_eigenvalues(diag, sub, sup, seeds):
    """Newton-polish float seeds on the exact characteristic polynomial.

    Rational input makes the spectrum an exact object, so each eigenvalue is
    pinned by a sign-change bracket and the brackets must be pairwise
    disjoint; LAPACK values are only starting guesses.  Near band-closure
    crossings the matrix is nonnormal enough that float eigenvalues carry
    ~1e-9 error, far above the certification bound, which is why this path
    exists at all.

    Everything runs on Python integers, with no gcd: p is _char_poly's
    integer polynomial, an iterate x = a/2^e is evaluated as
    H(a, 2^e) = 2^(ed) p(x), which has the sign of p(x), and the Newton
    update x - H/(2^e H') is rounded half-even onto the grid 2^-200.  The
    bracket ends x -+ h, h = 1e-13 max(1, |x|) (shrunk by 7 up to three times
    while an end is a root), are tested the same way over a common
    denominator.  The iterates are the rationals that Fraction arithmetic on
    det(T - x I) would give.

    Returns the eigenvalues, the Newton steps each took and each bracket's
    half-width, all ascending by eigenvalue.
    """
    p = _char_poly(diag, sub, sup)
    out = []
    for seed in seeds:
        a, b = seed.as_integer_ratio()
        e = b.bit_length() - 1
        steps = 0
        while steps < 8:
            H, dH = _homogeneous(p, a, e)
            if H == 0:
                break
            if dH == 0:
                raise EigenCertificationError(
                    f"stationary characteristic polynomial at {a / (1 << e)}")
            m = _round_half_even((a * dH - H) << _DEN_BITS, dH << e)
            steps += 1
            # |H / (2^e H')| 2^150 < max(1, |m| / 2^200), cleared of denominators
            done = (abs(H) << (_DEN_BITS + _STOP_BITS)
                    < (max(1 << _DEN_BITS, abs(m)) * abs(dH)) << e)
            a, e = m, _DEN_BITS
            if done:
                break
        s = max(1 << e, abs(a))   # h = s / (2^e D) = max(1, |x|) / D
        for D in (10 ** 13 * 7 ** j for j in range(4)):
            lo, hi = (_homogeneous(p, a * D + t, e, D)[0] for t in (-s, s))
            if lo != 0 and hi != 0:
                break
        if lo == 0 or hi == 0 or (lo < 0) == (hi < 0):
            raise EigenCertificationError(
                f"no sign-change certificate at eigenvalue {a / (1 << e)}")
        out.append((Fraction(a, 1 << e), Fraction(s, D << e), steps))
    out.sort(key=lambda t: t[0])
    for (x, hx, _), (y, hy, _) in zip(out, out[1:]):
        if y - x <= hx + hy:
            raise EigenCertificationError(
                f"eigenvalue brackets at {float(x)} and {float(y)} overlap")
    return ([float(x) for x, _, _ in out], [n for _, _, n in out],
            [float(h) for _, h, _ in out])


def eigen_solve(matrix) -> EigenResult:
    """All eigenvalues of a (small, real-spectrum) matrix with certified residuals.

    Exact tridiagonal input (entries exact under spectrum._exact) gets its
    eigenvalues refined on the integer characteristic polynomial, each
    certified by a sign-change bracket whose half-width the result reports;
    float input keeps the plain LAPACK values.  Every returned vector is the
    smallest singular vector of (R - lambda I), the minimizer of
    ||R v - lambda v|| at that lambda, all from one stacked SVD; the first
    pair failing the 1e-10 bound raises EigenCertificationError carrying the
    offending matrix.
    """
    mat = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    vals, _ = np.linalg.eig(mat)
    if np.max(np.abs(vals.imag)) > 1e-8 * max(1.0, np.max(np.abs(vals.real))):
        raise EigenCertificationError(
            f"unexpected complex spectrum {vals} for matrix {mat.tolist()}")
    lams = sorted(float(v) for v in vals.real)
    steps = widths = None
    exact = _tridiag_exact(matrix)
    if exact is not None:
        lams, steps, widths = _exact_eigenvalues(*exact, lams)
        steps, widths = np.array(steps), np.array(widths)
    lam = np.array(lams)
    # column k of vecs: the last right singular vector of R - lams[k] I
    vecs = np.linalg.svd(mat - lam[:, None, None] * np.eye(len(mat)))[2][:, -1].T
    res = np.linalg.norm(mat @ vecs - vecs * lam, axis=0)
    bad = np.nonzero(res > _CERT_TOL)[0]
    if len(bad):
        i = bad[0]
        raise EigenCertificationError(
            f"residual {res[i]:.3e} > {_CERT_TOL} for eigenvalue {lams[i]} of "
            f"matrix {mat.tolist()}")
    return EigenResult(values=lam, vectors=vecs, residuals=res,
                       newton_steps=steps, bracket_halfwidths=widths)


# ---- closed-form eigenfunctions and the angular ODE residual ----

def eigenfunction_poly(curve: CurveParams, l: int) -> list:
    """Angular eigenfunction for even l as a degree-M polynomial in x = (1-cos phi)/2.

    x^{l/2} * F(l/2 - M, l/2 + G; 1/2 + l - M + G; x) with
    G = gamma (3M + 1 + 4 gamma)/(M + 3 gamma); the first parameter is a
    nonpositive integer so the series terminates at total degree M.
    Coefficients are exact for rational gamma, ascending in x; l is read by
    spectrum._index.  ValueError on the kappa = 0 curves gamma = -M/3, where
    G is singular.
    """
    M, g, _ = _checked_curve(curve)
    l = _index(l, "l")
    if l % 2 != 0 or not 0 <= l <= 2 * M:
        raise ValueError(f"l must be even in [0, {2 * M}], got {l}")
    denom = M + 3 * g
    if denom == 0:
        raise ValueError(f"the closed eigenfunction is singular at kappa = 0 "
                         f"(M={M}, gamma={curve.gamma})")
    G = g * (3 * M + 1 + 4 * g) / denom
    half = l // 2
    one = g * 0 + 1
    c = one / 2 + l - M + G
    return [g * 0] * half + _terminating_terms(half - M, half + G, c, one, M - half)


def lpsi_residual(psi: Sequence, beta_tilde, gamma, kappa, phi_grid) -> float:
    """Max abs residual of the angular ODE over phi_grid.

    psi is the polynomial in x = (1 - cos phi)/2 (ascending coefficients);
    derivatives in phi come from the chain rule
    Psi'  = p'(x) sin(phi)/2,
    Psi'' = p''(x) x (1-x) + p'(x) (1 - 2x)/2.
    """
    poly = np.polynomial.polynomial   # by attribute: loaded on first use
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


def beta_from_lambda(curve: CurveParams, lam):
    """Eigenvalue as a quadratic in the hypergeometric index lambda.

    beta~ = kappa lam^2/4 + (kappa gamma - kappa/4 - 1) lam + kappa gamma^2/2;
    agrees with eigen_beta_closed at integer lam = l.
    """
    k = curve_point(curve).kappa
    g = _exact(curve.gamma)
    lam = _exact(lam)
    return k * lam * lam / 4 + (k * g - k / 4 - 1) * lam + k * g * g / 2


# ---- eigenvalue selection ----

def _angular_profile(vec: np.ndarray, x_grid: np.ndarray) -> np.ndarray:
    # symmetric subspace: Psi(phi) = psi_0 + 2 sum_n psi_n T_n(cos phi), cos phi = 1-2x
    cheb = np.concatenate(([vec[0]], 2.0 * vec[1:]))
    return np.polynomial.chebyshev.chebval(1.0 - 2.0 * x_grid, cheb)


def select_beta_tilde(result: EigenResult, curve: CurveParams) -> float:
    """Largest eigenvalue with a nonnegative angular profile, which must be the
    spectral maximum: so only eigenvalues within 1e-10 max(1, |top|) of the
    top are read, largest first, and the first whose sign-normalized profile
    stays >= -1e-10 of its maximum on a 1024-point x grid wins.
    """
    x_grid = np.linspace(0.0, 1.0, 1024)
    top = float(np.max(result.values))
    for k in np.argsort(result.values)[::-1]:
        lam = float(result.values[k])
        if top - lam > 1e-10 * max(1.0, abs(top)):
            break
        prof = _angular_profile(result.vectors[:, k], x_grid)
        if prof[np.argmax(np.abs(prof))] < 0:
            prof = -prof
        if prof.min() >= -1e-10 * max(1.0, prof.max()):
            return lam
    raise EigenCertificationError(
        f"the spectral maximum {top} has no nonnegative profile on (M={curve.M}, "
        f"gamma={curve.gamma})")
