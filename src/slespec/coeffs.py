"""Coefficient tables theta_{i,j} of the two-variable moment series.

The table is generated from the four-term recurrence
sum_{l,k in {0,1}} C^{l,k}_{i,j} theta_{i-l, j-k} = 0, theta_{1,1} = 1,
with out-of-range entries zero.  C^{0,0} vanishes only at (1,1) for
kappa >= 0, so the solve is always well posed.  One builder fills the
table along anti-diagonals from the A_n, B_n, C_n arrays of
eigen._stencil; exact gamma and kappa (spectrum._exact) build a rational
table at any N, other inputs a float one.  The float sweep runs on float64
arrays; the rational sweep is fraction-free, on Python ints in plain lists:
the stencil times one integer L, and integer numerators over one
denominator per anti-diagonal.  A table keeps what its sweep produced: an
(N, N) array num, float64 values (float) or Python-int numerators
(rational), and for a rational table den, where den[s] is the least common
denominator of anti-diagonal s = i + j.  A Fraction is made only where one
is read (CoeffTable.get, and the CoeffTable.entries view that no reader
here uses).  Every float reader takes float64 blocks from _floats: a float
table read in place, a rational one as n / den[s], which Python rounds
correctly, reduced or not.
eval_theta reads a float table in 2 MB row blocks (one product up to
N = 512), and a rational one in smaller row blocks; integral_means reads
either in column blocks; none makes an N x N temporary.  Each forms the
corner tail T once and decides its check from the pass it makes anyway:
|value| (eval_theta) and sum |c_n| of the diagonal sums (integral_means)
bound the absolute partial sum S from below, and with a 1e-9 margin for
rounding settle it alone; a |theta| pass computes S only when they cannot.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .eigen import _stencil
from .spectrum import _exact, _index, _is_int

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
    """theta_{i,j} for 1 <= i, j <= N, as the sweep produced it.

    num is (N, N): float64 values (float table, den None), or Python-int
    numerators (rational table) with theta_{i,j} = num[i-1, j-1] / den[i+j],
    den a tuple of 2N+1 positive ints: den[s] is the least common
    denominator of anti-diagonal s = i + j (1 where it is all zero).
    """
    N: int
    gamma: object
    kappa: object
    num: np.ndarray
    den: Optional[tuple] = None

    @property
    def backend(self) -> str:
        return BACKEND_FLOAT if self.den is None else BACKEND_RATIONAL

    @property
    def entries(self) -> np.ndarray:
        """The (N, N) table: num itself (float), or a new object array of
        reduced Fractions, one gcd per nonzero entry on every access
        (rational)."""
        if self.den is None:
            return self.num
        ent = np.full((self.N, self.N), Fraction(0))
        i, j = np.nonzero(self.num)
        ent[i, j] = [Fraction(v, self.den[s])
                     for v, s in zip(self.num[i, j], (i + j + 2).tolist())]
        return ent

    def get(self, i: int, j: int):
        """theta_{i,j}: i, j by spectrum._index (else TypeError), in 1..N (else IndexError)."""
        i, j = _index(i, "i", TypeError), _index(j, "j", TypeError)
        if not (1 <= i <= self.N and 1 <= j <= self.N):
            raise IndexError(f"(i,j)=({i},{j}) outside 1..{self.N}")
        v = self.num.item(i - 1, j - 1)
        return v if self.den is None else Fraction(v, self.den[i + j])


def build_theta_table(gamma, kappa, N: int, backend: Optional[str] = None) -> CoeffTable:
    """theta table up to index N.

    gamma and kappa are read by spectrum._exact, the package's exactness
    rule: when both come back as Fractions the table is rational, at any N,
    and otherwise it is float, which needs a finite gamma and kappa, else
    ValueError before the stencil is formed.  backend, if given, must name
    that same arithmetic, else ValueError.  Float overflow raises with
    the first failing index (smallest i+j, then i).  An entry at offset
    n = i-j depends only on offsets n-1, n, n+1, so entries more than one
    offset beyond the widest nonzero one so far are not computed: they stay
    zero, as the stencil would give.
    Each anti-diagonal and its three stencil operands are strided slices of
    the flattened padded grid, so the sweep gathers and scatters nothing by
    index.  The float sweep forms its two operand sums in place per
    anti-diagonal and solves with one divide by -C00 = (s-2) - H_n; it
    searches for the band edge only when an end of the anti-diagonal is
    zero.  The rational sweep (_rational_sweep) is one loop over Python
    ints in lists, with no numpy call per anti-diagonal: the stencil is
    A_n, B_n, C_n times one integer L (eigen._stencil), and anti-diagonal s
    holds integer numerators over den[s], the least common denominator of
    its values.  So num and den are canonical, with no gcd per entry.
    Float tables are accurate to ~1e-15 of max(1, |theta|); tiny entries
    that come out of cancellation can be off by far more, relatively (2.9e-8
    at gamma=-0.3, kappa=4, N=120).
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
        if not (math.isfinite(g) and math.isfinite(kap)):
            raise ValueError(f"gamma and kappa must be finite, got {gamma} and {kappa}")
    ns = range(-N, N + 2)
    L, A, B, C = _stencil(g, kap, ns)
    n = np.array(ns, dtype=A.dtype) * L   # rational: Python ints, not np.int64
    H, K = B + C + n, -C - n   # H_n = -kappa n^2/2
    negH = -H                  # -C00 = (s-2)L - H_n, solved for in one divide
    if rational:
        num, den = _rational_sweep(N, L, A.tolist(), K.tolist(), negH.tolist())
        return CoeffTable(N=N, gamma=g, kappa=kap, num=num, den=den)
    # padded grid: row/col 0 hold the out-of-range zeros, filled by anti-diagonal
    G = np.zeros((N + 1, N + 1))
    G[1, 1] = 1
    A1, Ar = A[1:], A[::-1]   # A1[at] = A_{n+1}, Ar[at] = A_{1-n}
    # kL[k + 1] = k for k = -1..2N-2, as float64 scalars (numpy adds those to
    # an array faster than Python ints); (s-4) is kL[s-3]
    kL = list(np.arange(-1, 2 * N - 1, dtype=float))
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
            near += far
            vals = np.divide(near, c, out=G11[d])
            # |i-j| = |2i-s| peaks at an end; look inside only if an end is zero
            if vals[0] and vals[-1]:
                width = max(width, s - 2 * lo, 2 * hi - s)
            else:
                nz = vals.nonzero()[0]
                if len(nz):
                    width = max(width, s - 2 * (lo + int(nz[0])), 2 * (lo + int(nz[-1])) - s)
    if not np.isfinite(G).all():
        i, j = np.nonzero(~np.isfinite(G))
        b = np.lexsort((i, i + j))[0]
        raise OverflowError(
            f"float overflow at theta({int(i[b])},{int(j[b])}); "
            f"use exact inputs or a smaller N")
    return CoeffTable(N=N, gamma=g, kappa=kap, num=G[1:, 1:])


def _rational_sweep(N: int, L: int, A: list, K: list, negH: list):
    """(num, den) of the rational table: build_theta_table's sweep on Python
    ints in plain lists, with its band rule, from L A_n, L K_n and -L H_n on
    the offsets n = -N..N+1, at index n + N.

    The padded grid is one flat list, (i, s-i) at i*N + s as in the float
    sweep, so each operand is a step-N list slice.  Anti-diagonal s is
    (near/den[s-1] + far/den[s-2]) / c with c = -C00 > 0: both operands go
    over l = lcm(den[s-1], den[s-2]), the nonzero entries t over the lcm m
    of their c too, and one gcd r of D = l m and the t reduces them
    together (fraction-free, in the spirit of Bareiss 1968).  So den[s] =
    D / r is the least common denominator of the anti-diagonal's values
    (1 if all are zero), and num and den are the canonical ones any exact
    sweep gives.  num is an (N, N) object array of the numerators.
    """
    A1, Ar = A[1:], A[::-1]
    G = [0] * (N + 1) ** 2
    G[N + 2] = 1   # theta_{1,1}
    at_nz, nums = [N + 2], [1]   # flat indices and values of the entries written
    den = [1] * (2 * N + 1)
    width = 0
    for s in range(3, 2 * N + 1):
        lo = max(1, s - N, (s - width) // 2)
        hi = min(N, s - 1, (s + width + 1) // 2)
        at = slice(N + 2 * lo - s, N + 2 * hi - s + 1, 2)
        e, f = lo * N + s, hi * N + s   # flat indices of (lo, s-lo) and (hi, s-hi)
        dn, df = den[s - 1], den[s - 2]
        l = math.lcm(dn, df)
        un, uf, k4 = l // dn, l // df, (s - 4) * L
        t = [(a1 * x + ar * y) * un + (k + k4) * z * uf for a1, ar, k, x, y, z in zip(
            A1[at], Ar[at], K[at], G[e - 1:f:N], G[e - N - 1:f - N:N], G[e - N - 2:f - N - 1:N])]
        nz = [i for i, v in enumerate(t) if v]
        if not nz:
            continue   # den[s] = 1, and the grid holds the zeros already
        c = [h + (s - 2) * L for h in negH[at]]
        m = math.lcm(*[c[i] for i in nz])
        t = [v * (m // ci) for v, ci in zip(t, c)]
        D = l * m
        r = math.gcd(D, *t)
        G[e:f + 1:N] = vals = [v // r for v in t]
        at_nz.extend(range(e, f + 1, N))
        nums += vals
        den[s] = D // r
        width = max(width, s - 2 * (lo + nz[0]), 2 * (lo + nz[-1]) - s)
    num = np.zeros((N + 1) ** 2, dtype=object)   # Python int zeros
    num[at_nz] = nums
    return num.reshape(N + 1, N + 1)[1:, 1:], tuple(den)


# ---- band structure ----

def truncation_width(table: CoeffTable) -> Optional[int]:
    """Smallest M with theta exactly zero wherever |i-j| > M; None if no band fits.

    Nonzero entries reaching the table corner |i-j| = N-1 leave no in-table
    evidence of banding, hence None.
    """
    ii, jj = np.nonzero(table.num)   # numerators: one bool() per entry
    m = int(np.max(np.abs(ii - jj))) if len(ii) else 0
    if m >= table.N - 1:
        return None
    return m


# ---- evaluation ----

_BLOCK_BYTES = 1 << 18   # one block of table rows converted to, or buffered as, float64


def _block_rows(N: int, nbytes: int = _BLOCK_BYTES) -> int:
    return max(1, nbytes // (8 * N))


def _floats(table: CoeffTable, rows, cols=slice(None)) -> np.ndarray:
    """theta over num[rows, cols] (0-based, any numpy index) as float64.

    A float table's num is read as numpy indexes it: in place for slices.
    A rational entry is n / den[s], s = i + j + 2 in 0-based indices, one
    Python int/int division each: correctly rounded, so it equals
    float(Fraction(n, den[s])) bit for bit, and it raises OverflowError
    where that would.
    """
    blk = table.num[rows, cols]
    if table.den is None:
        return blk
    # hankel[i, j] = den[i + j + 2], a view of den
    hankel = np.lib.stride_tricks.sliding_window_view(
        np.array(table.den[2:], dtype=object), table.N)
    return (blk / hankel[rows, cols]).astype(float)


def _corner_tail(table: CoeffTable, aw: float, awbar: float) -> float:
    """T, the corner terms (N, N), (N, N-1) and (N-1, N) of the absolute
    partial sum at moduli aw and awbar; x ** np.arange(N-2, N), numpy's, has
    the bits of the last two entries of _table_sums' x ** np.arange(N)."""
    N = table.N
    k = max(0, N - 2)
    ent = _floats(table, slice(k, N), slice(k, N)).tolist()   # the corner's 2 x 2 block
    e = np.arange(k, N)
    apw, apb = (aw ** e).tolist(), (awbar ** e).tolist()
    T = 0.0
    for i, j in [(N - 1 - k,) * 2] + ([(1, 0), (0, 1)] if N >= 2 else []):
        T += abs(ent[i][j]) * apw[i] * apb[j]
    return T


def _antidiagonal_sums(table: CoeffTable) -> np.ndarray:
    """s_k = sum over i + j = k + 2 of |theta_{i,j}|, k = 0..2N-2, in one pass
    over row blocks, so that S(x) = sum |theta_{i,j}| x^(i+j-2) = sum s_k x^k.

    Row r of a block goes, shifted right by r, into row r of one reused
    (b, N + b) buffer (a view with a row stride one element longer), so
    each column of the buffer holds one anti-diagonal's block entries.
    """
    N = table.N
    b = _block_rows(N)
    buf = np.zeros((min(b, N), N + b))
    skew = np.lib.stride_tricks.as_strided(
        buf, (len(buf), N), (buf.strides[0] + buf.itemsize, buf.itemsize))
    sums = np.zeros(2 * N + b)
    for a in range(0, N, b):
        m = min(b, N - a)
        np.abs(_floats(table, slice(a, a + m)), out=skew[:m])
        sums[a:a + N + b] += buf[:m].sum(axis=0)
    return sums[:2 * N - 1]


# T <= tol * L * (1 - _TAIL_MARGIN), for a lower bound L of S read off the value
# pass, proves T <= tol * S without the |theta| pass (see eval_theta)
_TAIL_MARGIN = 1e-9


def _table_sums(table: CoeffTable, aw: float, awbar: float) -> float:
    """S = sum |theta_{i,j}| aw^(i-1) awbar^(j-1), the absolute partial sum,
    in one pass over the table in row blocks of about _BLOCK_BYTES.

    |theta| goes block by block (_floats) into one reused buffer.  The
    evaluators call it only when the lower bound on S that their value pass
    gives cannot decide the tail check; they hold T (_corner_tail) already.
    """
    N = table.N
    apw, apb = aw ** np.arange(N), awbar ** np.arange(N)
    row = np.zeros(N)      # apw @ |theta|
    b = _block_rows(N)
    buf = np.empty((min(b, N), N))
    for a in range(0, N, b):
        blk = _floats(table, slice(a, a + b))
        row += apw[a:a + b] @ np.abs(blk, out=buf[:len(blk)])
    return float(row @ apb)


def _powers(w: complex, wbar: complex, N: int):
    """w^k and wbar^k for k = 0..N-1 by running products, one rule at every
    point: w^k is k - 1 complex products, each within sqrt(2) gamma_2, about
    2 sqrt(2) 2^-53 (Higham 2002, sections 3.1 and 3.6), so within about
    2 sqrt(2) k 2^-53 of the exact power."""
    f = np.full((2, N), [[w], [wbar]], dtype=complex)
    f[:, 0] = 1
    return np.multiply.accumulate(f, axis=1)


def eval_theta(table: CoeffTable, w, wbar) -> SeriesValue:
    """Partial sum of Theta at (w, wbar) with a corner-block tail heuristic.

    ValueError, before any table pass, unless w and wbar are finite, and
    OverflowError, before any |theta| pass, where the value or T overflows.
    The value is one pass over the table with no N x N temporary: the real
    and imaginary parts of w^i @ theta are one real (2, b) @ (b, N) product
    per block of b rows, never cast to complex.  BLAS reads a float table in
    place, in 2 MB blocks that stay in cache (one product up to N = 512; at
    N = 1200 one product took 1.7 times as long on one BLAS thread); a
    rational table goes to float (_floats) one _BLOCK_BYTES block at a time.
    tail is T, the corner terms of the absolute partial sum S, and warning
    is T > 1e-6 S.

    Each term of S bounds the matching term of Theta, so |Theta| <= S, and
    T <= 1e-6 |value| (1 - m) proves the warning False without reading the
    table again; only otherwise does _table_sums compute S.  The margin
    m = _TAIL_MARGIN = 1e-9 exceeds the rounding of both computed sums, so
    the test decides as S would.  Relative to S, each sum is within about
    2N 2^-53 of its exact value (blocked products, then one dot); the moduli
    |w|^k add k 2^-53; the running products of _powers add about
    2 sqrt(2) k 2^-53 to each of w^k and wbar^k.  In all about 12N 2^-53:
    below 1e-9 for N up to 7 10^5, a 3.9 TB table.
    """
    w, wbar = complex(w), complex(wbar)
    for name, v in (("w", w), ("wbar", wbar)):
        if not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    N = table.N
    aw, awbar = abs(w), abs(wbar)
    with np.errstate(over="ignore", invalid="ignore"):   # reported below as one OverflowError
        pw, pb = _powers(w, wbar, N)
        P = np.stack((pw.real, pw.imag))
        U = np.zeros((2, N))   # Re, Im of pw @ theta
        b = _block_rows(N, 1 << 21 if table.den is None else _BLOCK_BYTES)
        for a in range(0, N, b):
            U += P[:, a:a + b] @ _floats(table, slice(a, a + b))
        value = complex((U[0] + 1j * U[1]) @ pb)
        T = _corner_tail(table, aw, awbar)
    if not (cmath.isfinite(value) and math.isfinite(T)):
        raise OverflowError(f"float overflow at (w, wbar) = ({w}, {wbar}); use a smaller |w| or N")
    if T <= 1e-6 * abs(value) * (1 - _TAIL_MARGIN):
        return SeriesValue(value=value, tail=T, warning=False)
    return SeriesValue(value=value, tail=T, warning=T > 1e-6 * _table_sums(table, aw, awbar))


def eval_rho(table: CoeffTable, w, wbar) -> SeriesValue:
    """((1-w)(1-wbar))^gamma * Theta(w, wbar), principal branch; ValueError,
    before any table pass, where (1-w)(1-wbar) = 0 and gamma < 0."""
    z = (1 - complex(w)) * (1 - complex(wbar))
    if z == 0 and float(table.gamma) < 0:
        raise ValueError(f"rho is infinite at (w, wbar) = ({w}, {wbar}): "
                         f"(1-w)(1-wbar) = 0 and gamma = {table.gamma} < 0")
    base = eval_theta(table, w, wbar)
    pref = z ** float(table.gamma)
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
    k = np.arange(N)
    d = _floats(table, k, k)
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


def _tail_error(table: CoeffTable, r: float, tail_tol: float) -> TailCheckError:
    """The TailCheckError of a radius r that fails the tail check, with the
    largest admissible radius found by a 60-step bisection.  S(x) is read
    off the anti-diagonal sums of one more pass (O(N) per step), T(x) off
    the corner."""
    sums = _antidiagonal_sums(table)

    def frac(x):
        return _corner_tail(table, x, x) / float(sums @ x ** np.arange(len(sums)))

    lo, hi = 1e-6, r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if frac(mid) > tail_tol:
            hi = mid
        else:
            lo = mid
    return TailCheckError(
        f"series tail at r={r} exceeds tail_tol={tail_tol}; "
        f"largest admissible radius is about {lo:.6f} "
        f"(increase N or tail_tol)", r_max=lo)


def integral_means(table: CoeffTable, r: float, n_phi: int = 1024,
                   tail_tol: float = 1e-6) -> float:
    """Integral of rho(r e^{i phi}, r e^{-i phi}) over phi in [0, 2pi).

    r is read as a float first, so a Fraction or numpy radius gives its
    bits.  ValueError, before any table pass, unless that float lies in
    (0, 1), n_phi is a power of two >= 256 (_is_int) and tail_tol is finite
    and positive.
    On phi_k = 2 pi k/n_phi, Theta = c_0 + 2 sum_n c_n cos(n phi_k), c_n = r^n sum_j theta_{j+n,j}
    r^(2j-2), is one FFT of the c_n folded mod n_phi (Cooley & Tukey 1965).
    The corner-block tail T at r (_corner_tail) must stay below tail_tol
    of the absolute partial sum S, else TailCheckError reports the largest
    admissible radius (_tail_error).  The c_n sum only the lower triangle
    i >= j, so B = sum |c_n| <= S, and T <= tail_tol B (1 - m) passes r
    from the diagonal sums alone, with eval_theta's margin m; only otherwise
    does _table_sums compute S, and T is not formed again.  The diagonal
    sums and any |theta| pass read the table in blocks: no N x N temporary.
    """
    r = float(r)   # a Fraction or numpy radius gives the bits of its float
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0,1) as a float, got {r}")
    if not _is_int(n_phi) or n_phi < 256 or (n_phi & (n_phi - 1)) != 0:
        raise ValueError(f"n_phi must be a power of two >= 256, got {n_phi!r}")
    if not 0.0 < tail_tol < math.inf:   # NaN fails too, and would pass every radius
        raise ValueError(f"tail_tol must be finite and positive, got {tail_tol}")

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
        buf[:m, :N - a] = _floats(table, slice(a, None), slice(a, a + m)).T
        cn += x[a:a + m] @ skew[:m]
    cn *= r ** np.arange(N)
    T = _corner_tail(table, r, r)
    if not T <= tail_tol * float(np.abs(cn).sum()) * (1 - _TAIL_MARGIN):
        if T / _table_sums(table, r, r) > tail_tol:
            raise _tail_error(table, r, tail_tol)
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
    if r.min() == r.max():
        raise ValueError(f"a slope needs at least two distinct radii, got {r.tolist()}")
    if not np.all((0 < I) & (I < np.inf)):
        raise ValueError(f"non-positive or non-finite integral means in fit input: {I.tolist()}")
    x = -np.log1p(-r)
    y = np.log(I)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return FitResult(slope=float(slope), intercept=float(intercept),
                     residual=resid, window=tuple(float(v) for v in r))

