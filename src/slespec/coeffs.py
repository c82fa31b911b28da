"""Coefficient tables theta_{i,j} of the two-variable moment series.

The table is generated from the four-term recurrence
sum_{l,k in {0,1}} C^{l,k}_{i,j} theta_{i-l, j-k} = 0, theta_{1,1} = 1,
with out-of-range entries zero.  C^{0,0} vanishes only at (1,1) for
kappa >= 0, so the solve is always well posed.  One builder fills the
table along anti-diagonals from the A_n, B_n, C_n arrays of
eigen._stencil; exact gamma and kappa (spectrum._exact) build a rational
table at any N, other inputs a float one.  The float sweep runs on float64;
the rational sweep is fraction-free, on Python integers: the stencil times
one integer L, and integer numerators over one denominator per
anti-diagonal, turned into reduced Fractions once at the end.  Entries are
an (N, N) ndarray: dtype=object Fractions (rational) or float64 (float).
eval_theta, eval_rho and integral_means read it in blocks of rows or
columns, with no N x N temporary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .eigen import _stencil
from .spectrum import _exact, _is_int

BACKEND_RATIONAL = "rational"
BACKEND_FLOAT = "float"


class TailCheckError(ValueError):
    """Series tail too large at the requested radius."""

    def __init__(self, msg, r_max=None):
        super().__init__(msg)
        self.r_max = r_max


class SeriesValue(NamedTuple):
    value: complex
    tail: float       # magnitude of the last two anti-diagonal blocks
    warning: bool     # tail exceeds 1e-6 of the absolute partial sum


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    window: tuple


# ---- table construction ----

@dataclass(frozen=True)
class CoeffTable:
    """theta_{i,j} for 1 <= i, j <= N; the entries' dtype is the backend."""
    N: int
    gamma: object
    kappa: object
    entries: np.ndarray   # (N, N): object Fractions (rational) or float64

    @property
    def backend(self) -> str:
        return BACKEND_RATIONAL if self.entries.dtype == object else BACKEND_FLOAT

    def get(self, i: int, j: int):
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise IndexError(f"(i,j)=({i},{j}) outside 1..{self.N}")
        return self.entries.item(i - 1, j - 1)


def build_theta_table(gamma, kappa, N: int, backend: Optional[str] = None) -> CoeffTable:
    """theta table up to index N.

    gamma and kappa are read by spectrum._exact, the package's exactness
    rule: when both come back as Fractions the table is rational, at any N,
    and otherwise it is float.  backend, if given, must name that same
    arithmetic, else ValueError.  Float overflow raises with
    the first failing index (smallest i+j, then i).  An entry at offset
    n = i-j depends only on offsets n-1, n, n+1, so entries more than one
    offset beyond the widest nonzero one so far are not computed: they stay
    zero, as the stencil would give.
    Each anti-diagonal and its three stencil operands are strided slices of
    the flattened padded grid, so the sweep gathers and scatters nothing by
    index.  Per anti-diagonal it forms its two operand sums in place and
    solves with one divide by -C00 = (s-2)L - H_n; it searches for the band
    edge only when an end of the anti-diagonal is zero.  The rational sweep
    runs on Python integers: the stencil is A_n, B_n, C_n times one integer
    L (eigen._stencil), and anti-diagonal s holds integer numerators over
    one denominator den[s] (see _solve_diagonal); each nonzero entry becomes
    a reduced Fraction once, at the end, through the public Fraction
    constructor.
    Float tables are accurate to ~1e-15 of max(1, |theta|); tiny entries
    that come out of cancellation can be off by far more, relatively (2.9e-8
    at gamma=-0.3, kappa=4, N=120).  The evaluators (eval_theta, eval_rho,
    integral_means) read a table in blocks, with no N x N temporary.
    """
    g, kap = _exact(gamma), _exact(kappa)
    rational = isinstance(g, Fraction) and isinstance(kap, Fraction)
    if not _is_int(N) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if not float(kap) >= 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if backend not in (None, BACKEND_RATIONAL if rational else BACKEND_FLOAT):
        raise ValueError(f"backend {backend!r} does not fit gamma={gamma!r}, "
                         f"kappa={kappa!r}: int, Fraction or numpy integer inputs "
                         "select the rational backend, any others the float one")
    # stencil on the offsets n = i-j in -N..N+1, stored at index n + N:
    # C01 = A_{n+1}, C10 = A_{1-n}, C00 = H_n - (s-2), C11 = K_n + (s-4), s = i+j,
    # all times L (1 for floats)
    if not rational:
        g, kap = float(g), float(kap)
    ns = range(-N, N + 2)
    L, A, B, C = _stencil(g, kap, ns)
    n = np.array(ns, dtype=A.dtype) * L   # rational: Python ints, not np.int64
    # padded grid: row/col 0 hold the out-of-range zeros, filled by anti-diagonal
    G = np.zeros((N + 1, N + 1), dtype=n.dtype)
    G[1, 1] = 1
    den = [1] * (2 * N + 1)   # rational: den[s] is anti-diagonal s's denominator
    H, K = B + C + n, -C - n   # H_n = -kappa n^2/2
    negH = -H                  # -C00 = (s-2)L - H_n, solved for in one divide
    A1, Ar = A[1:], A[::-1]   # A1[at] = A_{n+1}, Ar[at] = A_{1-n}
    # kL[k + 1] = k L for k = -1..2N-2: Python ints, or float64 scalars (numpy
    # adds those to an array faster than Python ints); (s-4)L is kL[s-3]
    kL = list(np.arange(-1, 2 * N - 1, dtype=A.dtype) * L)
    # (i, s-i) sits at flat index i*N + s of G: anti-diagonal s is a step-N slice
    # d of G11, and theta(i, j-1), (i-1, j), (i-1, j-1) the same slice of G10, G01, G00
    Gf = G.reshape(-1)
    G00, G01, G10, G11 = (Gf[k:] for k in (0, 1, N + 1, N + 2))
    width = 0   # largest |i-j| of a nonzero entry so far
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(3, 2 * N + 1):
            lo = max(1, s - N, (s - width) // 2)
            hi = min(N, s - 1, (s + width + 1) // 2)
            at = slice(N + 2 * lo - s, N + 2 * hi - s + 1, 2)   # n + N, n = 2i - s
            d = slice(lo * N + s - N - 2, hi * N + s - N - 1, N)
            near = A1[at] * G10[d]
            near += Ar[at] * G01[d]        # anti-diagonal s-1
            far = K[at] + kL[s - 3]
            far *= G00[d]                  # anti-diagonal s-2
            c = negH[at] + kL[s - 1]       # -C00
            if rational:
                vals, den[s] = _solve_diagonal(near, far, c, den[s - 1], den[s - 2])
                G11[d] = vals
            else:
                near += far
                vals = np.divide(near, c, out=G11[d])
            # |i-j| = |2i-s| peaks at an end; look inside only if an end is zero
            if vals[0] and vals[-1]:
                width = max(width, s - 2 * lo, 2 * hi - s)
            else:
                nz = vals.nonzero()[0]
                if len(nz):
                    width = max(width, s - 2 * (lo + int(nz[0])), 2 * (lo + int(nz[-1])) - s)
    if rational:
        # the stencil is symmetric under i <-> j, and so are the numerators:
        # one Fraction (one gcd) per pair, shared by theta_{i,j} and theta_{j,i}
        entries = np.full((N, N), Fraction(0))
        i, j = np.nonzero(np.triu(G))
        fr = [Fraction(v, den[s]) for v, s in zip(G[i, j], (i + j).tolist())]
        entries[i - 1, j - 1] = entries[j - 1, i - 1] = fr
        return CoeffTable(N=N, gamma=g, kappa=kap, entries=entries)
    if not np.isfinite(G).all():
        i, j = np.nonzero(~np.isfinite(G))
        b = np.lexsort((i, i + j))[0]
        raise OverflowError(
            f"float overflow at theta({int(i[b])},{int(j[b])}); "
            f"use exact inputs or a smaller N")
    return CoeffTable(N=N, gamma=g, kappa=kap, entries=G[1:, 1:])


def _solve_diagonal(near, far, c, d_near: int, d_far: int):
    """One rational anti-diagonal (near/d_near + far/d_far)/c, in integers.

    near, far and c = -C00 are object arrays of Python ints, and c has no zero.
    Both operands go over lcm(d_near, d_far), the nonzero entries over the
    lcm of their c too, and one gcd reduces numerators and denominator
    together (fraction-free, in the spirit of Bareiss 1968).  Returns the
    numerators and their one positive denominator.
    """
    l = math.lcm(d_near, d_far)
    t = near * (l // d_near) + far * (l // d_far)
    nz = t.nonzero()[0]
    if not len(nz):
        return t, 1
    m = math.lcm(*c[nz])
    t = t * (m // c)
    D = l * m
    r = math.gcd(D, *t[nz])
    return t // r, D // r


# ---- band structure ----

def truncation_width(table: CoeffTable) -> Optional[int]:
    """Smallest M with theta exactly zero wherever |i-j| > M; None if no band fits.

    Nonzero entries reaching the table corner |i-j| = N-1 leave no in-table
    evidence of banding, hence None.
    """
    ii, jj = np.nonzero(table.entries)
    m = int(np.max(np.abs(ii - jj))) if len(ii) else 0
    if m >= table.N - 1:
        return None
    return m


# ---- evaluation ----

_BLOCK_BYTES = 1 << 18   # one block of float64 table rows read at a time


def _block_rows(N: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * N))


def _table_sums(table: CoeffTable, aw: float, awbar: float, pw=None):
    """One pass over the table in row blocks of about _BLOCK_BYTES: (S, T, u).

    S = sum |theta_{i,j}| aw^(i-1) awbar^(j-1) is the absolute partial sum
    and T its corner terms (N, N), (N, N-1) and (N-1, N), the tail heuristic.
    u = pw @ entries if pw is given, else None: its real and imaginary parts
    are one real (2, b) @ (b, N) product per block, so the table is never
    cast to complex, and |entries| goes block by block into one reused
    buffer.  Rational entries are converted to float one block at a time.
    """
    N = table.N
    apw, apb = aw ** np.arange(N), awbar ** np.arange(N)
    ent = table.entries
    corner = [(N - 1, N - 1)] + ([(N - 1, N - 2), (N - 2, N - 1)] if N >= 2 else [])
    T = 0.0
    for i, j in corner:
        T += abs(float(ent[i, j])) * float(apw[i]) * float(apb[j])
    P = None if pw is None else np.stack((pw.real, pw.imag))
    U = np.zeros((2, N))   # Re, Im of pw @ entries
    row = np.zeros(N)      # apw @ |entries|
    b = _block_rows(N)
    buf = np.empty((min(b, N), N))
    for a in range(0, N, b):
        blk = np.asarray(ent[a:a + b], dtype=float)
        if P is not None:
            U += P[:, a:a + b] @ blk
        row += apw[a:a + b] @ np.abs(blk, out=buf[:len(blk)])
    return float(row @ apb), T, (None if P is None else U[0] + 1j * U[1])


def eval_theta(table: CoeffTable, w, wbar) -> SeriesValue:
    """Partial sum of Theta at (w, wbar) with a corner-block tail heuristic.

    One pass over the table in row blocks, with no N x N temporary
    (_table_sums).  tail is T, the corner terms of the absolute partial sum
    S, and warning is T > 1e-6 S.
    """
    N = table.N
    w, wbar = complex(w), complex(wbar)
    S, T, u = _table_sums(table, abs(w), abs(wbar), w ** np.arange(N))
    value = complex(u @ wbar ** np.arange(N))
    return SeriesValue(value=value, tail=T, warning=T > 1e-6 * S)


def eval_rho(table: CoeffTable, w, wbar) -> SeriesValue:
    """((1-w)(1-wbar))^gamma * Theta(w, wbar), principal branch."""
    base = eval_theta(table, w, wbar)
    pref = ((1 - complex(w)) * (1 - complex(wbar))) ** float(table.gamma)
    return SeriesValue(value=pref * base.value, tail=abs(pref) * base.tail,
                       warning=base.warning)


# ---- asymptotics and integral means ----

def diagonal_growth_exponent(table: CoeffTable) -> float:
    """Estimate of the blow-up exponent from diagonal growth theta_{j,j} ~ j^(bt-1).

    Consecutive-ratio estimates e_j = j (theta_{j+1,j+1}/theta_{j,j} - 1)
    carry a 1/j bias; the Richardson combination j e_j - (j-1) e_{j-1}
    removes it.  Fit window: top half of the table.
    """
    N = table.N
    if N < 8:
        raise ValueError("table too small for a growth fit")
    d = np.asarray(np.diagonal(table.entries), dtype=float)
    lo = N // 2
    window = d[lo - 1:]
    if np.any(window <= 0):
        raise ValueError(
            "non-positive diagonal entries in the fit window; "
            "growth exponent undefined")
    j = np.arange(lo, N, dtype=float)          # ratio j -> j+1
    e = j * (d[lo:] / d[lo - 1:-1] - 1.0)
    R = j[1:] * e[1:] - j[:-1] * e[:-1]
    take = max(4, len(R) // 4)
    return float(np.median(R[-take:])) + 1.0


def integral_means(table: CoeffTable, r: float, n_phi: int = 1024,
                   tail_tol: float = 1e-6) -> float:
    """Integral of rho(r e^{i phi}, r e^{-i phi}) over phi in [0, 2pi).

    ValueError, before any table pass, unless n_phi is a power of two >= 256
    (_is_int) and tail_tol finite and positive.  The corner-block tail at r
    must stay below tail_tol of the absolute partial sum, else TailCheckError
    reports the largest admissible radius.  On phi_k = 2 pi k/n_phi, Theta =
    c_0 + 2 sum_n c_n cos(n phi_k), c_n = r^n sum_j theta_{j+n,j} r^(2j-2), is
    one FFT of the c_n folded mod n_phi (Cooley & Tukey 1965).  The tail check
    and the diagonal sums read the table in blocks: no N x N temporary.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0,1), got {r}")
    if not _is_int(n_phi) or n_phi < 256 or (n_phi & (n_phi - 1)) != 0:
        raise ValueError(f"n_phi must be a power of two >= 256, got {n_phi!r}")
    if not 0.0 < tail_tol < math.inf:   # NaN fails too, and would pass every radius
        raise ValueError(f"tail_tol must be finite and positive, got {tail_tol}")

    def frac(x):
        S, T, _ = _table_sums(table, x, x)
        return T / S

    if frac(r) > tail_tol:
        lo, hi = 1e-6, r
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if frac(mid) > tail_tol:
                hi = mid
            else:
                lo = mid
        raise TailCheckError(
            f"series tail at r={r} exceeds tail_tol={tail_tol}; "
            f"largest admissible radius is about {lo:.6f} "
            f"(increase N or tail_tol)", r_max=lo)

    N = table.N
    x = (r * r) ** np.arange(N)
    cn = np.zeros(N)
    # columns a..a+b-1 of the table, from row a down, go transposed into the
    # rows of one zero-padded (b, 2N) buffer; read with a row stride one
    # longer, row k lists theta_{a+k+n, a+k} for n = 0..N-1, zero past the
    # table, so each block adds x^(a+k) times those to the diagonal sums c_n
    b = _block_rows(N)
    buf = np.zeros((min(b, N), 2 * N))
    skew = np.lib.stride_tricks.as_strided(
        buf, (len(buf), N), (buf.strides[0] + buf.itemsize, buf.itemsize))
    for a in range(0, N, b):
        m = min(b, N - a)
        buf[:, N - a:N - a + b] = 0   # the previous block's last columns
        buf[:m, :N - a] = table.entries[a:, a:a + m].T
        cn += x[a:a + m] @ skew[:m]
    cn *= r ** np.arange(N)
    fold = np.bincount(np.arange(N) % n_phi, weights=cn, minlength=n_phi)
    theta_vals = 2.0 * np.fft.fft(fold).real - cn[0]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    g = float(table.gamma)
    integrand = (1.0 - 2.0 * r * np.cos(phi) + r * r) ** g * theta_vals
    return float(2.0 * np.pi * np.mean(integrand))


def fit_beta(samples: Sequence[Tuple[float, float]]) -> FitResult:
    """Least-squares slope of log I against -log(1-r)."""
    if len(samples) < 4:
        raise ValueError("need at least 4 samples for a slope fit")
    r = np.array([s[0] for s in samples], dtype=float)
    I = np.array([s[1] for s in samples], dtype=float)
    if not np.all((0 < r) & (r < 1)):   # NaN too
        raise ValueError(f"radii must lie in (0, 1), got {r.tolist()}")
    if not np.all((0 < I) & (I < np.inf)):
        raise ValueError(f"non-positive or non-finite integral means in fit input: {I.tolist()}")
    x = -np.log1p(-r)
    y = np.log(I)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return FitResult(slope=float(slope), intercept=float(intercept),
                     residual=resid, window=tuple(float(v) for v in r))

