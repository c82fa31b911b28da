"""Tridiagonal eigenproblem for the angular profile at the unit-circle limit.

On a truncation curve (M, gamma) the coupled coefficient system closes on the
band |n| <= M and the limit profile solves a (2M+1)-point three-term relation
R[psi]_n = (A_{n+1} psi_{n+1} + A_{-n+1} psi_{n-1} + B_n psi_n)/2 = beta~ psi_n.
The reflection-symmetric subspace psi_n = psi_{-n} reduces to (M+1)x(M+1).
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List

import numpy as np

from .special import _terminating_terms
from .spectrum import CurveParams, _checked_curve, _curve_params, _exact, _index, _rational

_CERT_TOL = 1e-10
_FIRST_PRIME = 1009   # least modulus of the exact root search (_exact_eigenvalues)


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

    Exact gamma = a/b and kappa = c/d give object arrays of Python ints, with
    L > 0 the least common denominator of the three quadratics' coefficients,
    formed in integers with no Fraction: expanded, the quadratics are
        A_n = (kappa/2) n^2 + (1 - kappa g) n + kappa g^2 - kappa g/2 - 3g,
        B_n = -kappa n^2 - kappa g^2 + kappa g + 6g,
        C_n = (kappa/2) n^2 - n + kappa g^2 - kappa g - 6g,
    all nine coefficients are integers p over D = 2 b^2 d, and their least
    common denominator is L = D / r, r = gcd(D, p...), each coefficient
    p / r over it.  This restates a_coef, b_coef and c_coef, and a test pins
    the two statements against each other.  Otherwise L = 1 and each array
    is one float64 call of a_coef, b_coef or c_coef on the offsets.
    """
    g, k = _exact(gamma), _exact(kappa)
    if not (isinstance(g, Fraction) and isinstance(k, Fraction)):
        n = np.array(ns, dtype=float)
        return (1, *(f(n, float(g), float(k)) for f in (a_coef, b_coef, c_coef)))
    a, b, c, d = g.numerator, g.denominator, k.numerator, k.denominator
    # kappa/2, kappa g^2 - kappa g/2 and 3g, each times D; quads holds the
    # (1, n, n^2) coefficients of A, B and C, times D
    half, shift, tri = c * b * b, 2 * a * a * c - a * b * c, 6 * a * b * d
    quads = ((shift - tri, 2 * b * (b * d - a * c), half),
             (a * b * c - shift + 2 * tri, 0, -2 * half),
             (shift - a * b * c - 2 * tri, -2 * b * b * d, half))
    D = 2 * b * b * d
    r = math.gcd(D, *(p for q in quads for p in q))
    n = np.array(ns, dtype=object)   # Python ints, not np.int64
    return (D // r, *(q0 // r + (q1 // r + q2 // r * n) * n for q0, q1, q2 in quads))


@dataclass(frozen=True)
class TridiagSystem:
    M: int
    gamma: object
    kappa: object


def build_system(curve: CurveParams) -> TridiagSystem:
    """The system on a curve, its gamma read exactly (spectrum._rational) and
    then checked by the curve rule; curve_point's kappa closes the band, A_{-M} = 0."""
    M, g, D = _checked_curve(CurveParams(curve.M, _rational(curve.gamma)))
    return TridiagSystem(M, g, _curve_params(M, g, D).kappa)


# ---- matrices ----

def reduced_matrix(sys: TridiagSystem) -> List[list]:
    """R on the reflection-symmetric subspace psi_n = psi_{-n}, rows n = 0..M,
    as Fractions.

    Sub-diagonal A_{-n+1}/2, diagonal B_n/2, super-diagonal A_{n+1}/2, and row
    0's super-diagonal doubled, the psi_{-1} = psi_1 term.  gamma and kappa
    are read by spectrum._rational; A and B come from one _stencil call on
    -M..M+1, and each entry is Fraction(L A_n, 2L).  Every off-band entry is
    one zero, built once.
    """
    M = sys.M
    L, A, B, _ = _stencil(_rational(sys.gamma), _rational(sys.kappa), range(-M, M + 2))
    A, B = A.tolist(), B.tolist()   # Python ints

    def entry(coef, n):
        return Fraction(coef[n + M], 2 * L)

    zero = Fraction(0)
    R = [[zero] * (M + 1) for _ in range(M + 1)]
    for n in range(M + 1):
        R[n][n] = entry(B, n)
    for n in range(M):
        R[n][n + 1], R[n + 1][n] = entry(A, n + 1), entry(A, -n)
    if M > 0:
        R[0][1] *= 2
    return R


# ---- exact eigensolve with certification ----

@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray       # ascending, each the float of its exact value
    vectors: np.ndarray      # column k pairs with values[k], unit 2-norm, from
                             # the exact recurrence (_recurrence_vectors)
    residuals: np.ndarray    # ||R v - lambda v||_2 per pair
    exact_values: tuple      # per value, the Fraction proved by division


def _tridiag_exact(matrix):
    """The integer tridiagonal (L, d, l, u) of a tridiagonal matrix.

    Every entry is read by spectrum._rational, so a float is the dyadic
    rational it equals.  One pass reads the entries: one whose type is
    exactly Fraction is taken as it is, and only the others are read, so
    bool raises wherever it stands.  A non-finite entry raises ValueError
    naming it and its (i, j), and so does a nonzero entry off the band.
    L > 0 is the lcm of the entries' denominators, and d, l and u are the
    diagonal, sub- and super-diagonal of L*T as Python ints
    (l[i] = L T[i+1][i], u[i] = L T[i][i+1]).  The matrix is square and
    nonempty: eigen_solve refuses any other shape first.
    """
    def read(x, i, j):
        try:
            return _rational(x)
        except ValueError:
            raise ValueError(f"eigen_solve needs finite entries, got {x} at ({i}, {j})") from None

    rows = [[x if type(x) is Fraction else read(x, i, j) for j, x in enumerate(r)]
            for i, r in enumerate(matrix)]
    n = len(rows)
    if n > 2:
        # all (n-1)(n-2) entries off the band equal the corner's zero; list.count
        # takes an entry identical to it without calling Fraction.__eq__
        zero = rows[-1][0]
        if zero != 0 or sum(r[:max(i - 1, 0)].count(zero) + r[i + 2:].count(zero)
                            for i, r in enumerate(rows)) != (n - 1) * (n - 2):
            i, j = next((i, j) for i, r in enumerate(rows) for j, x in enumerate(r)
                        if abs(i - j) > 1 and x)
            raise ValueError(f"eigen_solve needs a tridiagonal matrix, got "
                             f"{matrix[i][j]} at ({i}, {j})")
    diag = [rows[i][i] for i in range(n)]
    sub = [rows[i + 1][i] for i in range(n - 1)]
    sup = [rows[i][i + 1] for i in range(n - 1)]
    L = math.lcm(*(f.denominator for f in (*diag, *sub, *sup)))

    def scaled(fs):
        return [f.numerator * (L // f.denominator) for f in fs]

    return L, scaled(diag), scaled(sub), scaled(sup)


def _char_poly(L, d, l, u) -> list:
    """Primitive integer multiple of det(T - x I), ascending coefficients,
    for the T whose integer tridiagonal (_tridiag_exact) is (L, d, l, u).

    The leading principal minors of L*T in y = L*x give det(L*T - y I) =
    L^n det(T - x I); coefficient i times L^i returns to x, and dividing by
    the content leaves a positive multiple of det(T - x I): same signs, same
    ratios p/p'.
    """
    ef = [s * t for s, t in zip(l, u)]
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


def _recurrence_vectors(L, d, l, u, roots) -> np.ndarray:
    """Unit eigenvectors of T at its proved eigenvalues roots (Fractions),
    one column each, exact from the integer tridiagonal (L, d, l, u).

    A zero u_k ends a block at row k: T is block lower triangular.  Rows
    above the last block (rows j..c) whose determinant vanishes at x are
    zero.  On it, row i of T psi = x psi gives psi_{i+1} = ((x - T_ii) psi_i
    - T_{i,i-1} psi_{i-1}) / T_{i,i+1}, fraction-free at x = a/b: psi_i =
    P_i/Q_i with P_j = Q_j = 1, Q_{i+1} = Q_i b u_i and P_{i+1} = -(b d_i -
    L a) P_i - b^2 l_{i-1} u_{i-1} P_{i-1}; P_{c+1} = 0, up to sign the
    block's determinant, proves x a second time, and no such block raises
    EigenCertificationError.  Below it, the adjugate's column c gives psi_r
    = psi_c prod_{c<=t<r}(-b l_t) f_{r+1}/f_{c+1}, f_r = det(bL(T - x)) on
    rows and columns r..n-1 (f_n = 1; f_{c+1} != 0, as no later block has
    the eigenvalue x).  Each P_n/Q_n, scaled by one power of two so that the
    largest is near 1 and none overflows, is one correctly rounded int/int
    division; each column is then normalised to unit 2-norm.
    """
    n = len(d)
    ef = [0] + [s * t for s, t in zip(l, u)] + [0]
    ends = [k for k, un in enumerate(u) if not un][::-1]
    # per block, the last first: its first and last row, and its d, ef and u
    blocks = [(j, c, d[j:c + 1], ef[j:c + 1], u[j:c])
              for j, c in zip([k + 1 for k in ends] + [0], [n - 1] + ends)]
    cols = []
    for x in roots:
        a, b = x.numerator, x.denominator
        La, bb = L * a, b * b
        for j, c, dj, ej, uj in blocks:
            prev, p, P, Q = 0, 1, [0] * j + [1], [1] * (j + 1)
            for dn, e in zip(dj, ej):
                prev, p = p, (La - b * dn) * p - bb * e * prev
                P.append(p)
            if not P.pop():
                break
        else:
            raise EigenCertificationError(
                f"the three-term recurrence leaves a nonzero last row at eigenvalue {x}")
        for bu in [b * un for un in uj]:
            Q.append(Q[-1] * bu)
        if c + 1 < n:
            F = [0, 1]   # f_{n+1}, f_n, ..., f_{c+1}: f_{r+1} is F[n - r]
            for r in range(n - 1, c, -1):
                F.append((b * d[r] - La) * F[-1] - bb * ef[r + 1] * F[-2])
            g, den = P[-1], Q[-1] * F[-1]
            for r in range(c + 1, n):
                g *= -b * l[r - 1]
                P.append(g * F[n - r])
                Q.append(den)
        s = max(map(operator.sub, map(int.bit_length, P), map(int.bit_length, Q)))
        cols.append([p / (q << s) for p, q in zip(P, Q)] if s >= 0 else
                    [(p << -s) / q for p, q in zip(P, Q)])
    vecs = np.array(cols).T
    return vecs / np.linalg.norm(vecs, axis=0)


def _divide(p, a, b):
    """p / (b t - a), ascending integer coefficients, if it divides, else None.

    p is primitive with p(0) != 0, so by the rational root theorem a root
    a/b in lowest terms has b dividing the leading coefficient and a the
    constant term; only then is p divided, top down, stopping at the first
    inexact quotient.
    """
    if p[-1] % b or p[0] % a:
        return None
    q, acc = [], 0
    for c in reversed(p[1:]):
        acc, r = divmod(c + a * acc, b)
        if r:
            return None
        q.append(acc)
    return q[::-1] if p[0] + a * acc == 0 else None


def _squarefree(p):
    """p / gcd(p, p') for the primitive integer polynomial p (ascending):
    each of p's irreducible factors once, so every rational root simple.

    The gcd is the last nonzero term of the primitive remainder sequence of
    p and p' (pseudo-remainders over the integers, each divided by its
    content); the division of p by it is exact, by Gauss's lemma, and keeps
    p's leading sign.
    """
    def primitive(f):   # content out, leading coefficient positive
        c = math.gcd(*f) if f[-1] > 0 else -math.gcd(*f)
        return [x // c for x in f]

    def remainder(f, g):   # g[-1]^k f mod g: integers, no content removed
        while len(f) >= len(g):
            k = len(f) - len(g)
            f = [g[-1] * x - (f[-1] * g[i - k] if i >= k else 0)
                 for i, x in enumerate(f[:-1])]
            while f and not f[-1]:
                f.pop()
        return f

    f, g = p, [k * c for k, c in enumerate(p)][1:]
    while g:
        f, g = g, remainder(f, g)
        g = primitive(g) if g else g
    f = primitive(f)
    quo, rest = [0] * (len(p) - len(f) + 1), list(p)
    for k in reversed(range(len(quo))):
        quo[k] = rest[k + len(f) - 1] // f[-1]
        for i, c in enumerate(f):
            rest[k + i] -= quo[k] * c
    return quo


def _horner(f, r, m):
    """(f(r), f'(r)) mod m for the integer polynomial f, in one pass."""
    v = dv = 0
    for c in reversed(f):
        dv = (dv * r + v) % m
        v = (v * r + c) % m
    return v, dv


def _roots_mod(p, q) -> list:
    """The roots of the integer polynomial p mod q, ascending: one int64
    Horner pass over all q residues (q < 2^31, so no product overflows)."""
    x = np.arange(q, dtype=np.int64)
    v = np.zeros(q, dtype=np.int64)
    for c in reversed(p):
        v = (v * x + c % q) % q
    return np.flatnonzero(v == 0).tolist()


def _lifted_root(p, r, q, floor):
    """(simple, hit) for r, a root of p mod q.

    A root that is not simple mod q (p'(r) = 0 mod q) is not lifted:
    (False, None).  A simple one is lifted by Newton-Hensel steps, each
    taking r mod m to r mod m^2 (m = q, q^2, q^4, ...), with p and p' in
    one Horner pass.  After each step with m >= floor, the half extended
    Euclid rebuilds the a/b with |a|, b <= sqrt(m/2) that r stands for, and
    _divide proves or rejects it: hit is (a, b, p / (b t - a), m) for the
    first that divides p.  A rational root of primitive p has |a| <= |p_0|
    and b <= |p_d|, so it is rebuilt once m > 2 max(|p_0|, |p_d|)^2, and
    hit is None if none divides by then.
    """
    h = _horner(p, r, q * q)
    if h[1] % q == 0:
        return False, None
    m, bound = q, 2 * max(abs(p[0]), abs(p[-1])) ** 2
    while True:
        v, dv = h
        r, m = (r - v * pow(dv, -1, m)) % (m * m), m * m
        if m >= floor or m > bound:
            r0, r1, t0, t1 = m, r, 0, 1
            half = math.isqrt(m // 2)
            while r1 > half:
                k = r0 // r1
                r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
            a, b = (r1, t1) if t1 > 0 else (-r1, -t1)
            if a and (quo := _divide(p, a, b)) is not None:
                return True, (a, b, quo, m)
        if m > bound:
            return True, None
        h = _horner(p, r, m * m)


def _exact_eigenvalues(L, d, l, u):
    """The spectrum of an exact tridiagonal, given by its integer tridiagonal
    (_tridiag_exact), proved root by root on its characteristic polynomial
    p (_char_poly's primitive integer polynomial), in integers only.

    Near band-closure crossings the matrix is nonnormal enough that float
    eigenvalues carry ~1e-9 error, far above the certification bound, and
    double roots come back from LAPACK as complex pairs: that is why the
    spectrum is proved in integers.  p's root 0 comes off first, as factors t.  The
    rest are found by Loos's p-adic search, one pass per prime q: the least
    prime >= max(_FIRST_PRIME, deg p + 1) that does not divide p's leading
    coefficient, then the next such prime.  A pass finds the roots mod q of
    the polynomial searched (_roots_mod) and lifts each simple one
    (_lifted_root); a root that is not simple mod q is skipped and marks
    the pass not simple.  Each rational a/b found is proved by exact
    division and divided out of p as often as it divides, so p's degree
    shrinks.  No rebuild is tried below the modulus at which the previous
    root was rebuilt: the roots of a curve have like sizes.  A remainder of
    degree 1 is its own exact root.

    The search starts on p.  Its first pass that proves nothing and is not
    simple turns it to s, p's squarefree part (_squarefree), of which every
    rational root of p is a simple root; each root found divides s once
    and p as often as it divides.  A pass that proves nothing and is simple
    raises EigenCertificationError with the count proved: every rational
    root of the rest would have been lifted from its residue.  The search
    ends with no pass count: s is squarefree, and stays so as roots divide
    out, and q never divides its leading coefficient, so a residue of s
    that is not simple mod q means q | disc(s) != 0.  An unproductive pass
    that does not refuse therefore comes only at one of the at most
    log_1009 |disc(s)| primes that divide disc(s).

    Returns the eigenvalues as Fractions, ascending, repeated roots
    repeated.
    """
    p = _char_poly(L, d, l, u)
    zeros = next(i for i, c in enumerate(p) if c)
    roots, p = [Fraction(0)] * zeros, p[zeros:]
    s = None   # p's squarefree part less the roots found, once searched
    q, floor = max(_FIRST_PRIME, len(p)) - 1, 0
    while len(p) > 2:
        # s's leading coefficient divides p's, so q divides neither
        q = next(n for n in itertools.count(q + 1)
                 if p[-1] % n and all(n % k for k in range(2, math.isqrt(n) + 1)))
        found, simple = False, True
        for r in _roots_mod(p if s is None else s, q):
            simple_r, hit = _lifted_root(p if s is None else s, r, q, floor)
            simple = simple and simple_r
            if hit is not None:
                a, b, quo, floor = hit
                if s is None:
                    p = quo
                    roots.append(Fraction(a, b))
                else:
                    s = quo
                while (quo := _divide(p, a, b)) is not None:
                    p = quo
                    roots.append(Fraction(a, b))
                found = True
                if len(p) <= 2:
                    break
        if not found and simple:
            raise EigenCertificationError(
                f"proved {len(roots)} of {len(d)} eigenvalues by exact division; "
                f"no rational root found for the degree-{len(p) - 1} rest")
        if not found and s is None:
            s = _squarefree(p)
    if len(p) == 2:
        roots.append(Fraction(-p[0], p[1]))
    return sorted(roots)


def eigen_solve(matrix) -> EigenResult:
    """All eigenvalues of a tridiagonal matrix, proved rational, with
    certified residuals.

    Every entry is read exactly (_tridiag_exact: a float is the dyadic
    rational it equals).  Every eigenvalue is proved rational on the
    integer characteristic polynomial, with no float, by the p-adic search
    of _exact_eigenvalues, and reported with its Fraction; a rest proved to
    have no rational root is refused, naming how many were proved.  Every
    vector comes from the fraction-free three-term recurrence, block by
    block (_recurrence_vectors), whose exactly vanishing last row proves
    each value a second time.  The first pair failing the 1e-10 residual
    bound raises EigenCertificationError carrying the offending matrix.
    The bound is absolute, not relative to the entries: with entries of
    about 1e7 or more, float rounding alone can refuse a proved pair, as
    at [[1e9 + 1, 1e9], [0, 3e8]] (residual 8.9e-8 at the proved
    eigenvalue 3e8).  ValueError names the rows' lengths of a
    matrix that is empty, ragged or not square, or the input itself if 1-d
    or 0-d (rows without a length), and the entry and its (i, j) of a
    non-finite entry or of a nonzero one off the tridiagonal.
    """
    try:
        lens = [len(r) for r in matrix]
    except TypeError:   # 0-d input, or 1-d: rows without a length
        raise ValueError(f"eigen_solve needs a nonempty square matrix, got {matrix!r}") from None
    if set(lens) != {len(lens)}:
        raise ValueError("eigen_solve needs a nonempty square matrix, got "
                         + (f"rows of lengths {lens}" if lens else "no rows"))
    L, d, l, u = exact = _tridiag_exact(matrix)
    # each entry n/L rounded once, as float() rounds the Fraction it equals
    n = len(d)
    mat = np.zeros((n, n))
    for start, band in ((0, d), (n, l), (1, u)):
        mat.flat[start::n + 1] = [x / L for x in band]
    fracs = tuple(_exact_eigenvalues(*exact))
    lam = np.array([float(x) for x in fracs])
    vecs = _recurrence_vectors(*exact, fracs)
    res = np.linalg.norm(mat @ vecs - vecs * lam, axis=0)
    bad = np.nonzero(res > _CERT_TOL)[0]
    if len(bad):
        i = bad[0]
        raise EigenCertificationError(
            f"residual {res[i]:.3e} > {_CERT_TOL} for eigenvalue {float(lam[i])} of "
            f"matrix {mat.tolist()}")
    return EigenResult(values=lam, vectors=vecs, residuals=res, exact_values=fracs)


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


# ---- eigenvalue selection ----

_profile_basis = np.empty((1024, 0))   # see _chebyshev_basis


def _chebyshev_basis(m: int) -> np.ndarray:
    """Columns [T_0, 2T_1, ..., 2T_{m-1}](1 - 2x) on the 1024-point grid
    x = linspace(0, 1), so that Psi = basis @ psi is the symmetric
    subspace's profile Psi(phi) = psi_0 + 2 sum_n psi_n T_n(cos phi) at
    cos phi = 1 - 2x.  Built on first use, at least three columns, by the
    three-term recurrence 2T_{n+1} = 2t (2T_n) - 2T_{n-1} at t = 1 - 2x,
    and widened when a larger m arrives: the columns already there stay.
    """
    global _profile_basis
    have = _profile_basis.shape[1]
    if have < m:
        t2 = 2.0 * (1.0 - 2.0 * np.linspace(0.0, 1.0, 1024))
        B = np.empty((1024, max(m, 3)))
        B[:, :have] = _profile_basis
        if not have:
            B[:, 0], B[:, 1], B[:, 2] = 1.0, t2, t2 * t2 - 2.0
        for n in range(max(have, 3), B.shape[1]):
            B[:, n] = t2 * B[:, n - 1] - B[:, n - 2]
        _profile_basis = B
    return _profile_basis[:, :m]


def select_beta_tilde(result: EigenResult, curve: CurveParams) -> float:
    """Largest eigenvalue with a nonnegative angular profile, which must be the
    spectral maximum: so only eigenvalues within 1e-10 max(1, |top|) of the
    top are read, largest first, and the first whose sign-normalized profile
    stays >= -1e-10 of its maximum on a 1024-point x grid wins.  A profile
    is one product with the fixed Chebyshev basis on that grid
    (_chebyshev_basis).
    """
    top = float(np.max(result.values))
    for k in np.argsort(result.values)[::-1]:
        lam = float(result.values[k])
        if top - lam > 1e-10 * max(1.0, abs(top)):
            break
        vec = result.vectors[:, k]
        prof = _chebyshev_basis(len(vec)) @ vec
        if prof[np.argmax(np.abs(prof))] < 0:
            prof = -prof
        if prof.min() >= -1e-10 * max(1.0, prof.max()):
            return lam
    raise EigenCertificationError(
        f"the spectral maximum {top} has no nonnegative profile on (M={curve.M}, "
        f"gamma={curve.gamma})")
