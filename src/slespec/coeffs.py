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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .eigen import _stencil, a_coef, b_coef, c_coef
from .spectrum import _exact

BACKEND_RATIONAL = "rational"
BACKEND_FLOAT = "float"

_TABLE_MAGIC = "theta-table v1"


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


# ---- recurrence coefficients ----

def recurrence_coeff(i: int, j: int, l: int, k: int, gamma, kappa):
    """C^{l,k}_{i,j} of the four-term relation, l,k in {0,1}."""
    if l not in (0, 1) or k not in (0, 1):
        raise ValueError(f"stencil offsets must be 0 or 1, got (l,k)=({l},{k})")
    g = _exact(gamma)
    kap = _exact(kappa)
    d = i - j
    if (l, k) == (0, 0):
        return -kap * d * d / 2 - (i + j - 2)
    if (l, k) == (0, 1):
        return kap * (d + 1) ** 2 / 2 + (1 - kap * g) * (d + 1) \
            + kap * g * g - kap * g / 2 - 3 * g
    if (l, k) == (1, 0):
        return kap * (1 - d) ** 2 / 2 + (1 - kap * g) * (1 - d) \
            + kap * g * g - kap * g / 2 - 3 * g
    return -kap * d * d / 2 + (i + j) - kap * g * g + kap * g + 6 * g - 4


# ---- table construction ----

_SCALAR = {BACKEND_RATIONAL: Fraction, BACKEND_FLOAT: float}


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

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries).copy()

    def _float_entries(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=float)


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
    index.  The rational sweep runs on Python integers: the stencil is
    A_n, B_n, C_n times one integer L (eigen._stencil), and
    anti-diagonal s holds integer numerators over one denominator den[s]
    (see _solve_diagonal); each nonzero entry becomes a reduced Fraction
    once, at the end, through the public Fraction constructor.
    Float tables are accurate to ~1e-15 of max(1, |theta|); tiny entries
    that come out of cancellation can be off by far more, relatively (2.9e-8
    at gamma=-0.3, kappa=4, N=120).
    """
    g, kap = _exact(gamma), _exact(kappa)
    rational = isinstance(g, Fraction) and isinstance(kap, Fraction)
    if N < 1:
        raise ValueError("N must be positive")
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
    A1, Ar = A[1:], A[::-1]   # A1[at] = A_{n+1}, Ar[at] = A_{1-n}
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
            near = A1[at] * G10[d] + Ar[at] * G01[d]   # anti-diagonal s-1
            far = (K[at] + L * (s - 4)) * G00[d]      # anti-diagonal s-2
            c00 = H[at] - L * (s - 2)
            if rational:
                vals, den[s] = _solve_diagonal(near, far, c00, den[s - 1], den[s - 2])
            else:
                vals = -(near + far) / c00
            G11[d] = vals
            nz = vals.nonzero()[0]   # |i-j| = |2i-s| peaks at an end
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


def _solve_diagonal(near, far, c00, d_near: int, d_far: int):
    """One rational anti-diagonal -(near/d_near + far/d_far)/c00, in integers.

    near, far and c00 are object arrays of Python ints, and c00 has no zero.
    Both operands go over lcm(d_near, d_far), the nonzero entries over the
    lcm of their c00 too, and one gcd reduces numerators and denominator
    together (fraction-free, in the spirit of Bareiss 1968).  Returns the
    numerators and their one positive denominator.
    """
    l = math.lcm(d_near, d_far)
    t = near * (l // d_near) + far * (l // d_far)
    nz = t.nonzero()[0]
    if not len(nz):
        return t, 1
    m = math.lcm(*c00[nz])
    t = t * (m // -c00)
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

def _abs_partial_and_tail(entries_abs: np.ndarray, aw: float, awbar: float):
    N = entries_abs.shape[0]
    pw = aw ** np.arange(N)
    pb = awbar ** np.arange(N)
    S = float(pw @ entries_abs @ pb)
    T = float(entries_abs[N - 1, N - 1] * pw[N - 1] * pb[N - 1])
    if N >= 2:
        T += float(entries_abs[N - 1, N - 2] * pw[N - 1] * pb[N - 2])
        T += float(entries_abs[N - 2, N - 1] * pw[N - 2] * pb[N - 1])
    return S, T


def eval_theta(table: CoeffTable, w, wbar) -> SeriesValue:
    """Partial sum of Theta at (w, wbar) with a corner-block tail heuristic."""
    ent = table._float_entries()
    N = table.N
    w = complex(w)
    wbar = complex(wbar)
    pw = w ** np.arange(N)
    pb = wbar ** np.arange(N)
    value = complex(pw @ ent @ pb)
    S, T = _abs_partial_and_tail(np.abs(ent), abs(w), abs(wbar))
    return SeriesValue(value=value, tail=T, warning=T > 1e-6 * S)


def eval_rho(table: CoeffTable, w, wbar) -> SeriesValue:
    """((1-w)(1-wbar))^gamma * Theta(w, wbar), principal branch."""
    base = eval_theta(table, w, wbar)
    pref = ((1 - complex(w)) * (1 - complex(wbar))) ** float(table.gamma)
    return SeriesValue(value=pref * base.value, tail=abs(pref) * base.tail,
                       warning=base.warning)


def fourier_series(table: CoeffTable, n: int) -> np.ndarray:
    """Coefficients of f_n(xi) = sum_j theta_{j+n, j} xi^{j-1}.

    Negative n is extracted literally and checked against the reflection
    identity f_{-n} = xi^n f_n before returning.
    """
    N = table.N
    if abs(n) > N - 1:
        raise ValueError(f"|n| must be < N={N}, got n={n}")
    band = np.diagonal(table.entries, offset=-n)
    if n >= 0:
        return band.copy()
    ref = np.diagonal(table.entries, offset=n)
    tol = (0 if table.backend == BACKEND_RATIONAL
           else 1e-12 * np.maximum(1.0, np.abs(ref.astype(float))))
    bad = np.nonzero(np.abs(band - ref) > tol)[0]
    if len(bad):
        raise AssertionError(
            f"reflection identity violated at coefficient {int(bad[0])} of f_{n}")
    return np.concatenate((np.full(-n, _SCALAR[table.backend](0)), band))


def rec3_residual(table: CoeffTable, n: int, order: int):
    """Max abs coefficient, up to xi^order, of the coupled radial ODE residual

    xi A_{n+1} f_{n+1} + A_{-n+1} f_{n-1} + (B_n + (1-xi) C_n) f_n
      + 2 xi (xi - 1) f_n' .

    Exact in the rational backend; zero for every table (band or not) as the
    system is just the Fourier transcription of the defining relation.
    """
    N = table.N
    max_order = N - abs(n) - 2
    if order > max_order:
        raise ValueError(
            f"order {order} exceeds table knowledge {max_order} for n={n}")
    g, kap = table.gamma, table.kappa
    A_up = a_coef(n + 1, g, kap)
    A_dn = a_coef(-n + 1, g, kap)
    B = b_coef(n, g, kap)
    C = c_coef(n, g, kap)
    fp = fourier_series(table, n + 1)
    fm = fourier_series(table, n - 1)
    f0 = fourier_series(table, n)

    def at(c, idx):
        return c[idx] if 0 <= idx < len(c) else 0

    worst = 0
    for p in range(order + 1):
        r = A_up * at(fp, p - 1) + A_dn * at(fm, p) + B * at(f0, p) \
            + C * (at(f0, p) - at(f0, p - 1)) \
            + 2 * (p - 1) * at(f0, p - 1) - 2 * p * at(f0, p)
        worst = max(worst, abs(r))
    return worst


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
    d = np.asarray(table.diagonal(), dtype=float)
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

    Preconditions: n_phi a power of two >= 256; the corner-block tail at
    radius r must stay below tail_tol of the absolute partial sum, else a
    TailCheckError reports the largest admissible radius.  On phi_k = 2 pi
    k/n_phi, Theta = c_0 + 2 sum_n c_n cos(n phi_k), c_n = r^n f_n(r^2), is one
    FFT of the c_n folded mod n_phi (Cooley & Tukey 1965).
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0,1), got {r}")
    if n_phi < 256 or (n_phi & (n_phi - 1)) != 0:
        raise ValueError(f"n_phi must be a power of two >= 256, got {n_phi}")
    ent = table._float_entries()
    ent_abs = np.abs(ent)

    def frac(x):
        S, T = _abs_partial_and_tail(ent_abs, x, x)
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
    # row j of the zero-padded transpose, read with a row stride one longer,
    # lists theta_{j+n,j} for n = 0..N-1: the N diagonal sums are one product
    T = np.zeros((N, 2 * N))
    T[:, :N] = ent.T
    skew = np.lib.stride_tricks.as_strided(
        T, (N, N), (T.strides[0] + T.itemsize, T.itemsize))
    cn = ((r * r) ** np.arange(N) @ skew) * r ** np.arange(N)
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


# ---- text export ----

def save_table(table: CoeffTable, dest) -> None:
    """Plain-text dump: header line, then one `i j value` row per entry.

    Values are written with str(): exact `p/q` Fractions, or the shortest
    decimal that reads back to the same float.
    """
    own = not hasattr(dest, "write")
    fh = open(dest, "w") if own else dest
    try:
        fh.write(f"{_TABLE_MAGIC} gamma={table.gamma} kappa={table.kappa} "
                 f"N={table.N} backend={table.backend}\n")
        for i, row in enumerate(table.entries.tolist(), 1):
            for j, v in enumerate(row, 1):
                fh.write(f"{i} {j} {v}\n")
    finally:
        if own:
            fh.close()


def load_table(src) -> CoeffTable:
    """Read a save_table dump; every (i, j) in 1..N must appear exactly once."""
    own = not hasattr(src, "read")
    fh = open(src) if own else src
    try:
        line = header = fh.readline().strip()
        if not header.startswith(_TABLE_MAGIC):
            raise ValueError(f"not a theta-table file: header {header!r}")
        fields = dict(tok.split("=", 1) for tok in header[len(_TABLE_MAGIC):].split())
        missing = [k for k in ("N", "gamma", "kappa", "backend") if k not in fields]
        if missing:
            raise ValueError(f"table header lacks {', '.join(missing)}: {header!r}")
        N = int(fields["N"])
        if N < 1:
            raise ValueError(f"N must be positive, got {N} in table header")
        scalar = _SCALAR.get(fields["backend"])
        if scalar is None:
            raise ValueError(f"unknown backend {fields['backend']!r} in table file")
        gamma, kappa = scalar(fields["gamma"]), scalar(fields["kappa"])
        entries = np.full((N, N), scalar(0))
        seen = np.zeros((N, N), dtype=bool)
        for line in fh:
            line = line.strip()
            if not line:
                continue
            si, sj, sv = line.split()
            i, j = int(si), int(sj)
            if not (1 <= i <= N and 1 <= j <= N):
                raise ValueError(f"entry ({i},{j}) outside 1..{N}")
            if seen[i - 1, j - 1]:
                raise ValueError(f"duplicate entry ({i},{j})")
            seen[i - 1, j - 1] = True
            entries[i - 1, j - 1] = scalar(sv)
        if not seen.all():
            raise ValueError(f"expected {N * N} entries, found {int(seen.sum())}")
        return CoeffTable(N=N, gamma=gamma, kappa=kappa, entries=entries)
    except ZeroDivisionError:   # Fraction('1/0')
        raise ValueError(f"zero denominator in {line!r}") from None
    finally:
        if own:
            fh.close()
