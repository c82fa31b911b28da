"""Recurrence tables: exactness, banding, evaluation, asymptotics, fits."""

import hashlib
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import slespec as S
from slespec import coeffs
from slespec.eigen import _stencil
from slespec.spectrum import _exact


gammas = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(2),
                      max_denominator=8)
kappas = st.fractions(min_value=Fraction(0), max_value=Fraction(10),
                      max_denominator=6)


def binom(a, k):
    out = Fraction(1)
    for i in range(k):
        out *= (a - i)
        out /= (i + 1)
    return out


# ---- reference checkers: the relation and its Fourier transcription ----

def recurrence_coeff(i, j, l, k, gamma, kappa):
    """C^{l,k}_{i,j} of the four-term relation, l,k in {0,1}: a second
    statement of the stencil, independent of eigen._stencil."""
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


def fourier_series(table, n):
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
    rational = table.backend == "rational"
    tol = 0 if rational else 1e-12 * np.maximum(1.0, np.abs(ref.astype(float)))
    bad = np.nonzero(np.abs(band - ref) > tol)[0]
    if len(bad):
        raise AssertionError(
            f"reflection identity violated at coefficient {int(bad[0])} of f_{n}")
    return np.concatenate((np.full(-n, Fraction(0) if rational else 0.0), band))


def rec3_residual(table, n, order):
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
    A_up = S.a_coef(n + 1, g, kap)
    A_dn = S.a_coef(-n + 1, g, kap)
    B = S.b_coef(n, g, kap)
    C = S.c_coef(n, g, kap)
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


# ---- recurrence correctness ----

def test_seed_and_small_entries_kappa2():
    t = S.build_theta_table(1, 2, 6, backend="rational")
    assert t.get(1, 1) == 1
    assert t.get(1, 2) == Fraction(-1)
    assert t.get(1, 3) == 0
    assert t.get(2, 2) == Fraction(5)
    assert t.get(2, 3) == Fraction(-4)
    assert t.get(3, 3) == Fraction(14)


def test_diagonal_closed_form_kappa6():
    # the width-0 solution at kappa=6: theta_{i,i} = i(i+1)/2, rest zero
    t = S.build_theta_table(1, 6, 12, backend="rational")
    for i in range(1, 13):
        assert t.get(i, i) == Fraction(i * (i + 1), 2)
        for j in range(1, 13):
            if i != j:
                assert t.get(i, j) == 0


@given(g=gammas)
def test_kappa_zero_binomial_product(g):
    # at kappa = 0 the table factorizes
    t = S.build_theta_table(g, 0, 8, backend="rational")
    for i in range(1, 9):
        for j in range(1, 9):
            assert t.get(i, j) == binom(-3 * g, i - 1) * binom(-3 * g, j - 1)


def assert_four_term_relation(t, g, k):
    """Every entry of t satisfies the relation with the reference coefficients."""
    def th(a, b):
        return t.get(a, b) if a >= 1 and b >= 1 else Fraction(0)

    assert t.get(1, 1) == 1
    for i in range(1, t.N + 1):
        for j in range(1, t.N + 1):
            if (i, j) == (1, 1):
                continue
            acc = Fraction(0)
            for (l, m) in ((0, 0), (0, 1), (1, 0), (1, 1)):
                acc += recurrence_coeff(i, j, l, m, g, k) * th(i - l, j - m)
            assert acc == 0, (i, j)


@given(g=gammas, k=kappas)
def test_four_term_relation_holds(g, k):
    assert_four_term_relation(S.build_theta_table(g, k, 11, backend="rational"), g, k)


@pytest.mark.parametrize("M,g", [(0, Fraction(1)), (1, Fraction(1)),
                                 (1, Fraction(1, 2)), (2, Fraction(1, 2)),
                                 (3, Fraction(1, 3))])
def test_four_term_relation_holds_on_band_curves(M, g):
    kappa = S.curve_point(S.CurveParams(M, g)).kappa
    assert_four_term_relation(S.build_theta_table(g, kappa, 40, backend="rational"),
                              g, kappa)


@given(g=st.fractions(min_value=-2, max_value=3, max_denominator=12), k=kappas,
       i=st.integers(1, 80), j=st.integers(1, 80))
def test_recurrence_coeff_is_the_radial_stencil(g, k, i, j):
    # the builder's stencil, stated through eigen's A_n, B_n, C_n at d = i-j
    d = i - j

    def C(l, m):
        return recurrence_coeff(i, j, l, m, g, k)

    assert C(0, 1) == S.a_coef(d + 1, g, k)
    assert C(1, 0) == S.a_coef(1 - d, g, k)
    assert C(0, 0) == S.b_coef(d, g, k) + S.c_coef(d, g, k) - 2 * (j - 1)
    assert C(0, 0) == -k * d * d / 2 - (i + j - 2)
    assert C(1, 1) == 2 * (j - 2) - S.c_coef(d, g, k)


@given(g=gammas, k=kappas)
def test_table_symmetry(g, k):
    t = S.build_theta_table(g, k, 9, backend="rational")
    for i in range(1, 10):
        for j in range(i, 10):
            assert t.get(i, j) == t.get(j, i)


@pytest.mark.parametrize("g,k,N", [
    (Fraction(2, 3), Fraction(6), 30),
    (Fraction(1, 2), S.curve_point(S.CurveParams(2, Fraction(1, 2))).kappa, 60),
    (Fraction(1, 2), Fraction(3), 60),
], ids=["offcurve-N30", "band-M2-N60", "offcurve-N60"])
def test_float_matches_rational(g, k, N):
    tf = S.build_theta_table(float(g), float(k), N, backend="float")
    tr = S.build_theta_table(g, k, N, backend="rational")
    fr = np.asarray(tr.entries, dtype=float)
    scale = np.maximum(1.0, np.abs(fr))
    assert np.max(np.abs(tf.entries - fr) / scale) < 1e-12


@pytest.mark.parametrize("g,k", [(0.1, 2), (Fraction(1, 10), 2.0)])
def test_rational_backend_rejects_float_inputs(g, k):
    # a float would be built on its binary expansion, not the decimal meant
    with pytest.raises(ValueError, match="rational backend"):
        S.build_theta_table(g, k, 12, backend="rational")


def test_numpy_integers_are_exact():
    # the same rule as eigen's exact path: numpy integers are rational
    t = S.build_theta_table(np.int64(1), np.int32(2), 6)
    assert t.backend == "rational"
    assert type(t.gamma) is Fraction and type(t.gamma.numerator) is int
    assert t.entries.tolist() == S.build_theta_table(1, 2, 6).entries.tolist()
    t = S.build_theta_table(np.int64(1), 6, 8, backend="rational")
    assert t.gamma == 1 and all(type(x) is Fraction for x in t.entries.flat)


def test_bool_is_not_rational():
    # spectrum._exact's rule: a bool is no scalar on any backend
    for backend in (None, "rational", "float"):
        with pytest.raises(TypeError, match="bool"):
            S.build_theta_table(True, 2, 6, backend=backend)


@pytest.mark.parametrize("N", [10.5, 10.0, True, np.True_, "10", 0, -3])
def test_table_size_must_be_a_positive_integer(N):
    # 10.5 died in numpy with TypeError, and True built a table whose N was True
    with pytest.raises(ValueError, match="N must be a positive integer"):
        S.build_theta_table(1.0, 2.0, N)


def test_table_size_may_be_a_numpy_integer():
    t = S.build_theta_table(1.0, 2.0, np.int64(10))
    assert t.N == 10
    assert t.entries.tolist() == S.build_theta_table(1.0, 2.0, 10).entries.tolist()


def test_backend_autoselect_and_get_bounds():
    assert S.build_theta_table(Fraction(1, 2), 2, 10).backend == "rational"
    assert S.build_theta_table(0.5, 2.0, 10).backend == "float"
    # exact inputs build exactly at any N
    assert S.build_theta_table(Fraction(1, 2), 2, 80).backend == "rational"
    t = S.build_theta_table(1, 2, 5)
    with pytest.raises(IndexError):
        t.get(0, 1)
    with pytest.raises(IndexError):
        t.get(1, 6)


def test_get_reads_indices_by_the_index_rule():
    # get(True, True) returned theta_{1,1}
    t = S.build_theta_table(1, 2, 5)
    assert t.get(np.int64(2), np.int32(3)) == t.get(2, 3)
    for i, j in ((True, True), (1, False), (np.True_, 1), (1, np.bool_(True))):
        with pytest.raises(TypeError, match="bool is not an index"):
            t.get(i, j)
    for i, j, name in ((1.0, 1, "i"), (1, 2.0, "j"), (np.float64(1), 1, "i")):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            t.get(i, j)
    for i, j in ((0, 1), (1, 6), (-1, 1)):
        with pytest.raises(IndexError):
            t.get(i, j)


@pytest.mark.parametrize("g,k,backend", [
    (Fraction(1, 2), 2, "float"),   # exact inputs: pass floats for a float table
    (1, Fraction(6), "float"),
    (Fraction(1, 2), 2, "fraction"),
    (0.5, 2.0, "double"),
])
def test_backend_must_name_the_inputs_arithmetic(g, k, backend):
    with pytest.raises(ValueError, match="does not fit"):
        S.build_theta_table(g, k, 6, backend=backend)


@pytest.mark.parametrize("g,k,backend", [(Fraction(1, 2), Fraction(5, 2), "rational"),
                                         (0.5, 2.5, "float")])
def test_backend_follows_entries_dtype(g, k, backend):
    t = S.build_theta_table(g, k, 8)
    assert t.backend == backend
    # backend is read off the denominators (None for a float table), not
    # stored beside them
    with pytest.raises(TypeError):
        S.CoeffTable(N=t.N, gamma=t.gamma, kappa=t.kappa, num=t.num, den=t.den,
                     backend=backend)


def _gather_build(gamma, kappa, N, scalar):
    """The builder's anti-diagonal sweep with fancy-index gathers, as it was
    before the strided-slice rewrite: the reference for bit-identity."""
    g, kap = scalar(gamma), scalar(kappa)
    G = np.full((N + 1, N + 1), scalar(0))
    G[1, 1] = scalar(1)
    ns = range(-N, N + 2)
    n = np.array(ns, dtype=G.dtype)
    A, B, C = (np.array([f(m, g, kap) for m in ns], dtype=G.dtype)
               for f in (S.a_coef, S.b_coef, S.c_coef))
    H, K = B + C + n, -C - n
    width = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(3, 2 * N + 1):
            i = np.arange(max(1, s - N, (s - width) // 2),
                          min(N, s - 1, (s + width + 1) // 2) + 1)
            j = s - i
            at = N + i - j
            vals = -((A[at + 1] * G[i, j - 1] + A[2 * N + 1 - at] * G[i - 1, j])
                     + (K[at] + (s - 4)) * G[i - 1, j - 1]) / (H[at] - (s - 2))
            G[i, j] = vals
            width = max(width, int(np.abs(i - j)[vals != 0].max(initial=0)))
    return G[1:, 1:]


def _fraction_build(gamma, kappa, N):
    """The rational backend as it was before the integer sweep: the same
    strided anti-diagonal slices, on Fraction scalars.  The reference for
    the integer sweep."""
    g, kap = Fraction(gamma), Fraction(kappa)
    G = np.full((N + 1, N + 1), Fraction(0))
    G[1, 1] = Fraction(1)
    ns = range(-N, N + 2)
    n = np.array(ns, dtype=object)
    A, B, C = (np.array([f(m, g, kap) for m in ns], dtype=object)
               for f in (S.a_coef, S.b_coef, S.c_coef))
    H, K = B + C + n, -C - n
    A1, Ar = A[1:], A[::-1]
    Gf = G.reshape(-1)
    G00, G01, G10, G11 = (Gf[k:] for k in (0, 1, N + 1, N + 2))
    width = 0
    for s in range(3, 2 * N + 1):
        lo = max(1, s - N, (s - width) // 2)
        hi = min(N, s - 1, (s + width + 1) // 2)
        at = slice(N + 2 * lo - s, N + 2 * hi - s + 1, 2)
        d = slice(lo * N + s - N - 2, hi * N + s - N - 1, N)
        vals = -((A1[at] * G10[d] + Ar[at] * G01[d])
                 + (K[at] + (s - 4)) * G00[d]) / (H[at] - (s - 2))
        G11[d] = vals
        nz = vals.nonzero()[0]
        if len(nz):
            width = max(width, s - 2 * (lo + int(nz[0])), 2 * (lo + int(nz[-1])) - s)
    return G[1:, 1:]


def assert_exact_table(got, want, M=None):
    """got == want entry for entry, every entry a reduced Fraction of Python
    ints with a positive denominator, and every entry beyond the band (the
    widest nonzero offset of want, at most M on an M-curve) an exact zero."""
    assert got.tolist() == want.tolist()
    for v in got.flat:
        assert type(v) is Fraction and type(v.numerator) is int
        assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
    i, j = np.nonzero(want)
    width = int(np.abs(i - j).max()) if len(i) else 0
    if M is not None:
        assert width <= M
    N = len(got)
    beyond = np.abs(np.subtract.outer(np.arange(N), np.arange(N))) > width
    assert all(v == 0 and v.denominator == 1 for v in got[beyond])


def _on_curve(M, g):
    return g, S.curve_point(S.CurveParams(M, g)).kappa


@pytest.mark.parametrize("g,k,N", [
    (*_on_curve(0, 1.6), 600), (*_on_curve(0, 0.8), 250), (*_on_curve(1, 0.7), 1200),
    (*_on_curve(1, 1.4), 400), (1.3, 2.5, 400), (-0.3, 4.0, 120),
], ids=["width0-N600", "width0-N250", "width1-N1200", "width1-N400",
        "offband-N400", "cancellation-N120"])
def test_float_build_bit_identical_to_gather_build(g, k, N):
    t = S.build_theta_table(g, k, N, backend="float")
    assert np.array_equal(t.entries, _gather_build(g, k, N, float))


@pytest.mark.parametrize("g,k,N,M", [
    (*_on_curve(2, Fraction(1, 2)), 60, 2),
    (*_on_curve(3, Fraction(7, 4)), 40, 3),
    (Fraction(-3, 10), Fraction(4), 40, None),
    (Fraction(-3, 10), Fraction(4), 60, None),
    (Fraction(7, 4), Fraction(1497, 1337), 40, None),
    (Fraction(1, 3), Fraction(0), 30, None),
    (Fraction(-2, 3), Fraction(0), 20, None),
    (Fraction(-5, 7), Fraction(5, 2), 30, None),
    (Fraction(1, 2), Fraction(3), 1, None),
    (Fraction(1, 2), Fraction(3), 2, None),
], ids=["on-curve-M2-N60", "on-curve-M3-N40", "off-curve-N40", "off-curve-N60",
        "off-curve-7/4-N40", "kappa0-N30", "kappa0-block-N20", "negative-gamma-N30",
        "N1", "N2"])
def test_rational_build_equals_gather_build(g, k, N, M):
    got = S.build_theta_table(g, k, N, backend="rational").entries
    assert_exact_table(got, _gather_build(g, k, N, Fraction), M)
    assert got.tolist() == _fraction_build(g, k, N).tolist()


@given(g=st.fractions(min_value=-3, max_value=3, max_denominator=12),
       k=st.fractions(min_value=0, max_value=12, max_denominator=12),
       N=st.integers(1, 16))
def test_rational_build_equals_fraction_sweep(g, k, N):
    got = S.build_theta_table(g, k, N, backend="rational").entries
    assert_exact_table(got, _fraction_build(g, k, N))


def test_float_overflow_reported():
    # the first non-finite entry in anti-diagonal order (smallest i+j, then i)
    with pytest.raises(OverflowError, match=r"theta\(52,54\)"):
        S.build_theta_table(20.0, 100.0, 60, backend="float")


@pytest.mark.parametrize("g,k", [(math.nan, 4.0), (math.inf, 4.0), (-math.inf, 4.0),
                                 (0.5, math.inf), (np.float64(math.nan), 2)],
                         ids=["nan-gamma", "inf-gamma", "-inf-gamma", "inf-kappa", "np-nan-gamma"])
def test_non_finite_float_gamma_or_kappa_is_refused_before_the_stencil(g, k):
    # these ran the stencil into invalid-value warnings and then reported a
    # float overflow at theta(1,2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gamma and kappa must be finite"):
            S.build_theta_table(g, k, 10)


def _parent_build(gamma, kappa, N):
    """build_theta_table's sweep as it was before the in-place rewrite, for
    both arithmetics: -(near + far)/C00 per anti-diagonal, with nonzero()
    on every one.  The reference for bit-identity."""
    g, kap = _exact(gamma), _exact(kappa)
    rational = isinstance(g, Fraction) and isinstance(kap, Fraction)
    if not rational:
        g, kap = float(g), float(kap)
    ns = range(-N, N + 2)
    L, A, B, C = _stencil(g, kap, ns)
    n = np.array(ns, dtype=A.dtype) * L
    G = np.zeros((N + 1, N + 1), dtype=n.dtype)
    G[1, 1] = 1
    den = [1] * (2 * N + 1)
    H, K = B + C + n, -C - n
    A1, Ar = A[1:], A[::-1]
    Gf = G.reshape(-1)
    G00, G01, G10, G11 = (Gf[k:] for k in (0, 1, N + 1, N + 2))
    width = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(3, 2 * N + 1):
            lo = max(1, s - N, (s - width) // 2)
            hi = min(N, s - 1, (s + width + 1) // 2)
            at = slice(N + 2 * lo - s, N + 2 * hi - s + 1, 2)
            d = slice(lo * N + s - N - 2, hi * N + s - N - 1, N)
            near = A1[at] * G10[d] + Ar[at] * G01[d]
            far = (K[at] + L * (s - 4)) * G00[d]
            c00 = H[at] - L * (s - 2)
            if rational:
                vals, den[s] = _parent_solve_diagonal(near, far, c00, den[s - 1], den[s - 2])
            else:
                vals = -(near + far) / c00
            G11[d] = vals
            nz = vals.nonzero()[0]
            if len(nz):
                width = max(width, s - 2 * (lo + int(nz[0])), 2 * (lo + int(nz[-1])) - s)
    if rational:
        entries = np.full((N, N), Fraction(0))
        i, j = np.nonzero(np.triu(G))
        fr = [Fraction(v, den[s]) for v, s in zip(G[i, j], (i + j).tolist())]
        entries[i - 1, j - 1] = entries[j - 1, i - 1] = fr
        return entries
    if not np.isfinite(G).all():
        i, j = np.nonzero(~np.isfinite(G))
        b = np.lexsort((i, i + j))[0]
        raise OverflowError(
            f"float overflow at theta({int(i[b])},{int(j[b])}); "
            f"use exact inputs or a smaller N")
    return G[1:, 1:]


def _parent_solve_diagonal(near, far, c00, d_near, d_far):
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


_PARENT_FLOAT_GRID = [_on_curve(0, 1.6), _on_curve(0, 0.8), _on_curve(1, 0.7),
                      _on_curve(1, 1.4), (-0.3, 4.0), (-0.45, 7.0), (1.3, 2.5),
                      (0.0, 2.0)]


@pytest.mark.parametrize("N", [1, 2, 3, 60, 400])
@pytest.mark.parametrize("g,k", _PARENT_FLOAT_GRID,
                         ids=["width0-g1.6", "width0-g0.8", "width1-g0.7", "width1-g1.4",
                              "negative-g-0.3", "negative-g-0.45", "offband", "exact-zeros"])
def test_float_build_byte_identical_to_parent_sweep(g, k, N):
    # tobytes, not ==: signed zeros count
    got = S.build_theta_table(g, k, N, backend="float").entries
    assert got.tobytes() == _parent_build(g, k, N).tobytes()


def test_float_overflow_raises_where_the_parent_sweep_did():
    with pytest.raises(OverflowError) as want:
        _parent_build(20.0, 100.0, 60)
    with pytest.raises(OverflowError) as got:
        S.build_theta_table(20.0, 100.0, 60, backend="float")
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("g,k,N", [(Fraction(-3, 10), 4, 60), (Fraction(2, 3), 6, 40),
                                   (Fraction(1, 2), Fraction(8, 3), 50)])
def test_rational_build_equals_parent_sweep(g, k, N):
    assert_exact_table(S.build_theta_table(g, k, N).entries, _parent_build(g, k, N))


# ---- banding ----

@pytest.mark.parametrize("M,g", [(0, Fraction(1)), (1, Fraction(1)),
                                 (1, Fraction(1, 2)), (2, Fraction(1, 2)),
                                 (3, Fraction(1, 3)), (4, Fraction(1, 4))])
def test_band_width_on_curves(M, g):
    p = S.curve_point(S.CurveParams(M, g))
    t = S.build_theta_table(g, p.kappa, 24, backend="rational")
    assert S.truncation_width(t) == M


@pytest.mark.parametrize("M", range(11))
def test_band_width_on_curves_at_n120(M):
    g = Fraction(1, 2) if M else Fraction(1)
    p = S.curve_point(S.CurveParams(M, g))
    t = S.build_theta_table(g, p.kappa, 120, backend="rational")
    assert S.truncation_width(t) == M


def test_band_width_none_off_curve():
    t = S.build_theta_table(Fraction(2, 3), 6, 12, backend="rational")
    assert S.truncation_width(t) is None


def _parent_truncation_width(table):
    """truncation_width with np.nonzero on the entries themselves, which
    tests each object entry's truth twice: the reference."""
    ii, jj = np.nonzero(table.entries)
    m = int(np.max(np.abs(ii - jj))) if len(ii) else 0
    return None if m >= table.N - 1 else m


def test_band_width_matches_parent_formula():
    tables = []
    for M, g in ((0, Fraction(1)), (3, Fraction(1, 2)), (1, Fraction(2, 3))):
        k = S.curve_point(S.CurveParams(M, g)).kappa
        for backend, gk in (("rational", (g, k)), ("float", (float(g), float(k)))):
            tables.append(S.build_theta_table(*gk, 40, backend=backend))
    tables.append(S.build_theta_table(Fraction(2, 3), 6, 12))   # no band: None
    tables.append(S.build_theta_table(2 / 3, 6.0, 12))
    diag = np.diag(list(range(1, 7))).astype(object)
    zeros = np.zeros((6, 6), dtype=object)
    for num, den in ((diag, (1,) * 13), (zeros, (1,) * 13),
                     (diag.astype(float), None), (zeros.astype(float), None)):
        # all-zero off the diagonal: width 0, also with no nonzero at all
        tables.append(coeffs.CoeffTable(6, Fraction(0), Fraction(0), num, den))
    widths = [S.truncation_width(t) for t in tables]
    assert widths == [_parent_truncation_width(t) for t in tables]
    assert None in widths and 0 in widths and 3 in widths


# ---- evaluation ----

def test_eval_theta_and_rho_diagonal_case():
    t = S.build_theta_table(1, 6, 60, backend="rational")
    v = S.eval_theta(t, 0.5, 0.5)
    # sum i(i+1)/2 x^{i-1} = 1/(1-x)^3 at x = 1/4
    assert abs(v.value - 64 / 27) < 1e-12
    assert not v.warning
    r = S.eval_rho(t, 0.5, 0.5)
    assert abs(r.value - 16 / 27) < 1e-12


def test_eval_theta_warns_near_radius():
    t = S.build_theta_table(1.0, 6.0, 20, backend="float")
    assert S.eval_theta(t, 0.97, 0.97).warning
    assert not S.eval_theta(t, 0.2, 0.2).warning


def test_eval_rho_at_w_one_with_negative_gamma_raises_before_any_pass(monkeypatch):
    # a full table pass, then ZeroDivisionError: 0.0 to a negative or complex power
    neg = [S.build_theta_table(-0.3, 4.0, 30), S.build_theta_table(Fraction(-3, 10), 4, 12)]

    def no_pass(*args):
        raise AssertionError("a table pass ran before the point was checked")

    for name in ("_table_sums", "_corner_tail", "_block_rows", "_powers"):
        monkeypatch.setattr(coeffs, name, no_pass)
    for t in neg:
        for w, wbar in ((1, 1), (1, 0.5j), (0.3 - 0.2j, 1.0), (1 + 0j, 1 - 0j)):
            with pytest.raises(ValueError, match=rf"^rho is infinite at \(w, wbar\) = "
                               rf"\({re.escape(str(w))}, {re.escape(str(wbar))}\).*"
                               rf"gamma = {re.escape(str(t.gamma))} < 0"):
                S.eval_rho(t, w, wbar)
    monkeypatch.undo()
    for g in (0.0, 0.5):   # gamma >= 0 is unchanged: rho(1, wbar) = 0^gamma Theta(1, wbar)
        t = S.build_theta_table(g, 4.0, 30)
        for w, wbar in ((1, 1), (1, 0.5j)):
            th, got = S.eval_theta(t, w, wbar), S.eval_rho(t, w, wbar)
            assert got.value == (th.value if g == 0 else 0) and got.warning == th.warning


def test_root_invariance_of_rho():
    # both gamma roots of (q, kappa) = (2, 6) resum to the same rho
    rng = np.random.default_rng(7)
    r = S.gamma_roots(S.SLEParams(2, 6))
    tm = S.build_theta_table(r.gamma_minus, 6.0, 220, backend="float")
    tp = S.build_theta_table(r.gamma_plus, 6.0, 220, backend="float")
    for _ in range(20):
        w = 0.8 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        a = S.eval_rho(tm, w, np.conj(w)).value
        b = S.eval_rho(tp, w, np.conj(w)).value
        assert abs(a - b) < 1e-8 * max(1.0, abs(a))


def _parent_eval_theta(table, w, wbar):
    """eval_theta as it was before the blocked pass, with its absolute
    partial sum S: the whole table cast to complex for the value, and one
    |entries| copy for S and the corner tail T."""
    ent = np.asarray(table.entries, dtype=float)
    N = table.N
    w, wbar = complex(w), complex(wbar)
    value = complex(w ** np.arange(N) @ ent @ wbar ** np.arange(N))
    Sabs, T = _parent_abs_partial_and_tail(np.abs(ent), abs(w), abs(wbar))
    return S.SeriesValue(value=value, tail=T, warning=T > 1e-6 * Sabs), Sabs


def _parent_abs_partial_and_tail(entries_abs, aw, awbar):
    N = entries_abs.shape[0]
    pw = aw ** np.arange(N)
    pb = awbar ** np.arange(N)
    Sabs = float(pw @ entries_abs @ pb)
    T = float(entries_abs[N - 1, N - 1] * pw[N - 1] * pb[N - 1])
    if N >= 2:
        T += float(entries_abs[N - 1, N - 2] * pw[N - 1] * pb[N - 2])
        T += float(entries_abs[N - 2, N - 1] * pw[N - 2] * pb[N - 1])
    return Sabs, T


_EVAL_POINTS = [(0.3, 0.3), (0.6 + 0.3j, 0.6 - 0.3j), (0.5j, 0.7), (-0.9, -0.9),
                (0.97, 0.97), (0.995, 0.995), (0.8 - 0.55j, 0.8 + 0.55j)]


@pytest.mark.parametrize("g,k,N", [
    (1.3, 2.5, 400), (*_on_curve(1, 0.7), 250), (-0.3, 4.0, 120), (1.0, 6.0, 20),
    (1.3, 2.5, 1), (1.3, 2.5, 2), (Fraction(1), Fraction(6), 60),
    (Fraction(-3, 10), Fraction(4), 40),
], ids=["offband-N400", "width1-N250", "negative-g-N120", "width0-N20", "N1", "N2",
        "rational-width0-N60", "rational-N40"])
def test_eval_theta_matches_parent(g, k, N):
    t = S.build_theta_table(g, k, N)
    warned = set()
    for w, wbar in _EVAL_POINTS:
        want, Sabs = _parent_eval_theta(t, w, wbar)
        got = S.eval_theta(t, w, wbar)
        assert got.tail == want.tail and got.warning == want.warning
        assert abs(got.value - want.value) <= 1e-15 * Sabs
        warned.add(got.warning)
        rho = S.eval_rho(t, w, wbar)
        pref = ((1 - complex(w)) * (1 - complex(wbar))) ** float(t.gamma)
        assert rho.tail == abs(pref) * want.tail and rho.warning == want.warning
    assert warned == {False, True} or N <= 2


# ---- fourier slices and the radial ODE ----

def test_fourier_series_diagonal_table():
    t = S.build_theta_table(1, 6, 8, backend="rational")
    f0 = fourier_series(t, 0)
    assert list(f0[:4]) == [Fraction(1), Fraction(3), Fraction(6), Fraction(10)]
    assert all(v == 0 for v in fourier_series(t, 2))


def test_fourier_series_negative_reflection():
    t = S.build_theta_table(1, 2, 10, backend="rational")
    f2 = fourier_series(t, 2)
    fm2 = fourier_series(t, -2)
    assert list(fm2[:2]) == [Fraction(0), Fraction(0)]
    assert list(fm2[2:]) == list(f2)
    with pytest.raises(ValueError):
        fourier_series(t, 10)


@given(g=gammas, k=kappas, n=st.integers(-2, 2))
def test_radial_ode_residual_vanishes(g, k, n):
    """The mode ODE is an identity of the table, on or off a curve."""
    t = S.build_theta_table(g, k, 12, backend="rational")
    assert rec3_residual(t, n, 12 - abs(n) - 2) == 0


def test_rec3_residual_order_guard():
    t = S.build_theta_table(1, 2, 10, backend="rational")
    with pytest.raises(ValueError):
        rec3_residual(t, 0, 9)


# ---- asymptotics ----

def test_diagonal_growth_recovers_beta_tilde():
    pairs = [(1.0, 6.0, 3.0), (1.0, 2.0, 4.0), (0.5, 0.0, 2.0)]
    for g, k, bt in pairs:
        t = S.build_theta_table(g, k, 240, backend="float")
        assert S.diagonal_growth_exponent(t) == pytest.approx(bt, abs=2e-4)
    with pytest.raises(ValueError):
        S.diagonal_growth_exponent(S.build_theta_table(1, 2, 6))


# ---- integral means and slope fits ----

def test_integral_means_analytic_oracle():
    # gamma=1, kappa=6: I(r) = 2 pi (1 + r^2) / (1 - r^2)^3
    t = S.build_theta_table(1.0, 6.0, 300, backend="float")
    for r in (0.3, 0.6, 0.9):
        want = 2 * np.pi * (1 + r * r) / (1 - r * r) ** 3
        got = S.integral_means(t, r, n_phi=2048)
        assert got == pytest.approx(want, rel=1e-10)


def _cosine_matrix_means(table, r, n_phi):
    """integral_means by the N x n_phi cosine matrix it used before the FFT."""
    ent, N = np.asarray(table.entries, dtype=float), table.N
    xp = (r * r) ** np.arange(N)
    cn = np.array([np.diagonal(ent, -n) @ xp[:N - n] for n in range(N)]) * r ** np.arange(N)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    theta = cn[0] + 2.0 * (np.cos(np.outer(np.arange(1, N), phi)).T @ cn[1:])
    g = float(table.gamma)
    return 2.0 * np.pi * np.mean((1.0 - 2.0 * r * np.cos(phi) + r * r) ** g * theta)


@pytest.mark.parametrize("q,k,N,rs,n_phi", [
    (2, 6, 400, [1 - 2.0 ** -k for k in range(3, 8)], 1024),    # criterion 6
    (1, 4, 600, [1 - 2.0 ** -k for k in range(3, 8)], 1024),    # criterion 7
    (None, 2.5, 1200, [0.5, 0.9, 0.95], 256),    # N > n_phi: the fold wraps
    (None, 2.5, 1200, [0.5, 0.9, 0.95], 1024),
], ids=["criterion6-N400", "criterion7-N600", "N1200-nphi256", "N1200-nphi1024"])
def test_fft_integral_means_match_cosine_matrix(q, k, N, rs, n_phi):
    g = 1.3 if q is None else S.gamma_roots(S.SLEParams(q, k)).gamma_minus
    t = S.build_theta_table(g, k, N, backend="float")
    for r in rs:
        want = _cosine_matrix_means(t, r, n_phi)
        got = S.integral_means(t, r, n_phi=n_phi, tail_tol=1e-3)
        assert abs(got - want) <= 1e-13 * abs(want), r


def _parent_integral_means(table, r, n_phi=1024, tail_tol=1e-6):
    """integral_means as it was before the blocked passes: one |entries| copy
    for the tail check, one (N, 2N) zero-padded copy of the transpose for
    the diagonal sums."""
    ent = np.asarray(table.entries, dtype=float)
    ent_abs = np.abs(ent)

    def frac(x):
        Sabs, T = _parent_abs_partial_and_tail(ent_abs, x, x)
        return T / Sabs

    if frac(r) > tail_tol:
        lo, hi = 1e-6, r
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if frac(mid) > tail_tol:
                hi = mid
            else:
                lo = mid
        raise S.TailCheckError("parent", r_max=lo)
    N = table.N
    T = np.zeros((N, 2 * N))
    T[:, :N] = ent.T
    skew = np.lib.stride_tricks.as_strided(
        T, (N, N), (T.strides[0] + T.itemsize, T.itemsize))
    cn = ((r * r) ** np.arange(N) @ skew) * r ** np.arange(N)
    fold = np.bincount(np.arange(N) % n_phi, weights=cn, minlength=n_phi)
    theta_vals = 2.0 * np.fft.fft(fold).real - cn[0]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    integrand = (1.0 - 2.0 * r * np.cos(phi) + r * r) ** float(table.gamma) * theta_vals
    return float(2.0 * np.pi * np.mean(integrand))


@pytest.mark.parametrize("g,k,N,n_phi", [
    (S.gamma_roots(S.SLEParams(2, 6)).gamma_minus, 6.0, 400, 1024),
    (1.3, 2.5, 1200, 256), (1.3, 2.5, 1200, 1024), (*_on_curve(1, 0.7), 250, 512),
    (-0.3, 4.0, 120, 256), (1.0, 6.0, 3, 256), (Fraction(1), Fraction(6), 60, 1024),
], ids=["criterion6-N400", "N1200-nphi256", "N1200-nphi1024", "width1-N250",
        "negative-g-N120", "N3", "rational-N60"])
def test_integral_means_matches_parent(g, k, N, n_phi):
    t = S.build_theta_table(g, k, N)
    for r in (0.05, 0.3, 0.5, 0.9, 1 - 2.0 ** -7):
        try:
            want = _parent_integral_means(t, r, n_phi, tail_tol=1e-3)
        except S.TailCheckError as e:
            with pytest.raises(S.TailCheckError) as got:
                S.integral_means(t, r, n_phi, tail_tol=1e-3)
            assert got.value.r_max == e.r_max
            continue
        got = S.integral_means(t, r, n_phi, tail_tol=1e-3)
        assert abs(got - want) <= 1e-13 * abs(want), r


@pytest.mark.parametrize("g,k,N,r,tol", [(1.0, 6.0, 40, 0.99, 1e-8), (1.3, 2.5, 400, 0.995, 1e-6),
                                         (Fraction(1, 2), Fraction(3), 30, 0.9, 1e-6),
                                         (1.3, 2.5, 1, 0.5, 1e-6)])
def test_tail_check_r_max_matches_parent(g, k, N, r, tol):
    t = S.build_theta_table(g, k, N)
    with pytest.raises(S.TailCheckError) as want:
        _parent_integral_means(t, r, tail_tol=tol)
    with pytest.raises(S.TailCheckError) as got:
        S.integral_means(t, r, tail_tol=tol)
    assert got.value.r_max == want.value.r_max


@pytest.mark.parametrize("r", [Fraction(1, 2), np.float32(0.5)], ids=["Fraction", "float32"])
def test_integral_means_reads_its_radius_as_a_float(r):
    # a Fraction radius made object arrays of Fractions (18.616845354606184,
    # not 18.61684535460618), and a float32 one a float32 r_max
    t = S.build_theta_table(1.0, 6.0, 40)
    assert _bits(S.integral_means(t, r)) == _bits(S.integral_means(t, 0.5))
    with pytest.raises(S.TailCheckError) as want:
        S.integral_means(t, 0.5, tail_tol=1e-25)
    with pytest.raises(S.TailCheckError) as got:
        S.integral_means(t, r, tail_tol=1e-25)
    assert str(got.value) == str(want.value)
    assert type(got.value.r_max) is float and _bits(got.value.r_max) == _bits(want.value.r_max)


@pytest.mark.parametrize("r", [Fraction(10 ** 20 - 1, 10 ** 20), Fraction(1, 10 ** 400)],
                         ids=["rounds-to-one", "rounds-to-zero"])
def test_integral_means_checks_the_float_of_its_radius(r):
    # both lie in (0, 1) but their floats are 1.0 and 0.0: the first raised
    # TailCheckError "series tail at r=1.0", the second returned the r = 0
    # value 2 pi
    t = S.build_theta_table(1.0, 6.0, 40)
    with pytest.raises(ValueError, match=re.escape(f"as a float, got {float(r)}")):
        S.integral_means(t, r)


# ---- value-first tail decision: equivalence with the |theta|-first code ----

def _frozen_corner_tail(table, apw, apb):
    """_corner_tail as it was when its callers passed N-long power tables
    apw[i] = aw^i and apb[j] = awbar^j."""
    N = table.N
    k = max(0, N - 2)
    ent = coeffs._floats(table, slice(k, N), slice(k, N))   # the corner's 2 x 2 block
    corner = [(N - 1, N - 1)] + ([(N - 1, N - 2), (N - 2, N - 1)] if N >= 2 else [])
    T = 0.0
    for i, j in corner:
        T += abs(float(ent[i - k, j - k])) * float(apw[i]) * float(apb[j])
    return T


def _frozen_table_sums(table, aw, awbar, pw=None):
    """_table_sums as it was when every evaluator called it first: (S, T, u)
    with u = pw @ entries from the same blocked pass."""
    N = table.N
    apw, apb = aw ** np.arange(N), awbar ** np.arange(N)
    ent = table.entries
    T = _frozen_corner_tail(table, apw, apb)
    P = None if pw is None else np.stack((pw.real, pw.imag))
    U = np.zeros((2, N))
    row = np.zeros(N)
    b = coeffs._block_rows(N)
    buf = np.empty((min(b, N), N))
    for a in range(0, N, b):
        blk = np.asarray(ent[a:a + b], dtype=float)
        if P is not None:
            U += P[:, a:a + b] @ blk
        row += apw[a:a + b] @ np.abs(blk, out=buf[:len(blk)])
    return float(row @ apb), T, (None if P is None else U[0] + 1j * U[1])


def _frozen_eval_theta(table, w, wbar):
    N = table.N
    w, wbar = complex(w), complex(wbar)
    S_, T, u = _frozen_table_sums(table, abs(w), abs(wbar), w ** np.arange(N))
    value = complex(u @ wbar ** np.arange(N))
    return S.SeriesValue(value=value, tail=T, warning=T > 1e-6 * S_)


def _frozen_integral_means(table, r, n_phi=1024, tail_tol=1e-6):
    """integral_means as it was with the |theta| pass before the diagonal sums."""
    S_, T, _ = _frozen_table_sums(table, r, r)
    if T / S_ > tail_tol:
        sums = coeffs._antidiagonal_sums(table)
        k = np.arange(len(sums))

        def frac(x):
            xp = x ** k
            return _frozen_corner_tail(table, xp, xp) / float(sums @ xp)

        lo, hi = 1e-6, r
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if frac(mid) > tail_tol:
                hi = mid
            else:
                lo = mid
        raise S.TailCheckError(
            f"series tail at r={r} exceeds tail_tol={tail_tol}; "
            f"largest admissible radius is about {lo:.6f} "
            f"(increase N or tail_tol)", r_max=lo)
    N = table.N
    x = (r * r) ** np.arange(N)
    cn = np.zeros(N)
    b = coeffs._block_rows(N)
    buf = np.zeros((min(b, N), 2 * N))
    skew = np.lib.stride_tricks.as_strided(
        buf, (len(buf), N), (buf.strides[0] + buf.itemsize, buf.itemsize))
    for a in range(0, N, b):
        m = min(b, N - a)
        buf[:, N - a:N - a + b] = 0
        buf[:m, :N - a] = table.entries[a:, a:a + m].T
        cn += x[a:a + m] @ skew[:m]
    cn *= r ** np.arange(N)
    fold = np.bincount(np.arange(N) % n_phi, weights=cn, minlength=n_phi)
    theta_vals = 2.0 * np.fft.fft(fold).real - cn[0]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    g = float(table.gamma)
    integrand = (1.0 - 2.0 * r * np.cos(phi) + r * r) ** g * theta_vals
    return float(2.0 * np.pi * np.mean(integrand))


def _bits(*xs):
    """The float64 bit patterns of real and complex numbers, signed zeros included."""
    return np.array([complex(x) for x in xs]).tobytes()


def _value_bound(N):
    """eval_theta's error bound relative to S, as its docstring states it."""
    return 12 * N * 2.0 ** -53


def _seeded_points(seed):
    """w = 0, axis points, conjugate and non-conjugate pairs at |w| < 1 and >= 1."""
    rng = np.random.default_rng(seed)
    polar = lambda r: r * np.exp(2j * np.pi * rng.uniform())
    pts = [(0, 0), (0, 0.5), (0.4, 0), (0.3, 0.3), (0.5j, -0.5j), (-0.6, -0.6),
           (0.5 + 0.5j, 0.5 - 0.5j), (0.97, 0.97), (0.995 + 0.05j, 0.995 - 0.05j)]
    for r in (0.2, 0.6, 0.8, 0.95, 1.0, 1.15):
        w = complex(polar(r))
        pts += [(w, w.conjugate()), (w, complex(polar(rng.uniform(0.1, r))))]
    return pts


_WIDTH1_EXACT = (Fraction(7, 10), S.curve_point(S.CurveParams(1, Fraction(7, 10))).kappa)


@pytest.mark.parametrize("g,k,N", [
    (1.3, 2.5, 1), (1.3, 2.5, 2), (1.3, 2.5, 60), (1.3, 2.5, 250), (1.3, 2.5, 400),
    (1.3, 2.5, 1200), (*_on_curve(1, 0.7), 400), (*_on_curve(0, 1.6), 250), (-0.3, 4.0, 60),
    (Fraction(-3, 10), Fraction(4), 1), (Fraction(-3, 10), Fraction(4), 2),
    (Fraction(-3, 10), Fraction(4), 60), (*_WIDTH1_EXACT, 250),
], ids=["N1", "N2", "N60", "N250", "N400", "N1200", "width1-N400", "width0-N250",
        "negative-g-N60", "rational-N1", "rational-N2", "rational-N60", "rational-width1-N250"])
def test_eval_theta_bit_identical_to_the_table_sums_first_code(g, k, N):
    # tail and warning stay bit for bit; the value moves by rounding, since
    # the power tables are running products and a float table is read in
    # larger blocks, and stays within eval_theta's bound of the |theta|-first,
    # cpow code
    t = S.build_theta_table(g, k, N)
    warned = set()
    for w, wbar in _seeded_points(N):
        S_, _, _ = _frozen_table_sums(t, abs(complex(w)), abs(complex(wbar)))
        want = _frozen_eval_theta(t, w, wbar)
        got = S.eval_theta(t, w, wbar)
        assert abs(got.value - want.value) <= _value_bound(N) * S_, (w, wbar)
        assert _bits(got.tail) == _bits(want.tail), (w, wbar)
        assert got.warning == want.warning, (w, wbar)
        warned.add(got.warning)
        pref = ((1 - complex(w)) * (1 - complex(wbar))) ** float(t.gamma)
        rho = S.eval_rho(t, w, wbar)
        assert _bits(rho.value, rho.tail) == _bits(pref * got.value, abs(pref) * want.tail)
        assert rho.warning == want.warning
    assert warned == {False, True} or N == 1   # at N = 1, T = S


def _exact_theta(table, w, wbar):
    """The partial sum of the table's float entries at (w, wbar), to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    N = table.N
    with mpmath.workdps(40):
        w, wbar = mpmath.mpc(w), mpmath.mpc(wbar)
        pw = [w ** k for k in range(N)]
        pb = [wbar ** k for k in range(N)]
        rows = np.asarray(table.entries, dtype=float).tolist()
        return complex(mpmath.fsum(pw[i] * mpmath.fdot(rows[i], pb) for i in range(N)))


def test_eval_theta_error_against_mpmath_no_larger_than_the_cpow_code():
    # relative to S, against 40 digits: the running-product powers err no
    # more than numpy's power (cpow from exponent 100 on) did, and stay in
    # the bound; |w| near 1 makes the high powers count
    pts = [(t, w, wbar) for t in (S.build_theta_table(1.3, 2.5, 120),
                                  S.build_theta_table(-0.3, 4.0, 120))
           for r in (0.9, 0.97, 0.995, 1.0)
           for w, wbar in ((r * np.exp(0.7j), r * np.exp(-0.7j)),
                           (r * np.exp(2.1j), r * np.exp(-0.4j)))]
    pts.append((S.build_theta_table(1.3, 2.5, 400), 0.97 * np.exp(0.7j), 0.97 * np.exp(-0.7j)))
    new, old = [], []
    for t, w, wbar in pts:
        S_, _, _ = _frozen_table_sums(t, abs(w), abs(wbar))
        exact = _exact_theta(t, w, wbar)
        new.append(abs(S.eval_theta(t, w, wbar).value - exact) / S_)
        old.append(abs(_frozen_eval_theta(t, w, wbar).value - exact) / S_)
        assert new[-1] <= _value_bound(t.N), (t.N, w, wbar)
    assert max(new) <= max(old), (max(new), max(old))


@pytest.mark.parametrize("g,k,N", [
    (S.gamma_roots(S.SLEParams(2, 6)).gamma_minus, 6.0, 400),
    (S.gamma_roots(S.SLEParams(1, 4)).gamma_minus, 4.0, 250), (1.3, 2.5, 60),
    (*_on_curve(1, 0.7), 400), (-0.3, 4.0, 60), (1.3, 2.5, 1), (1.3, 2.5, 2),
    (Fraction(-3, 10), Fraction(4), 60), (Fraction(-3, 10), Fraction(4), 2),
    (*_WIDTH1_EXACT, 250),
], ids=["criterion6-N400", "q1-kappa4-N250", "N60", "width1-N400", "negative-g-N60",
        "N1", "N2", "rational-N60", "rational-N2", "rational-width1-N250"])
def test_integral_means_bit_identical_to_the_table_sums_first_code(g, k, N):
    t = S.build_theta_table(g, k, N)
    outcomes = set()
    for tol in (1e-3, 1e-6):
        for r in (0.05, 0.3, 0.5, 0.8, 0.9, 0.97, 0.99, 1 - 2.0 ** -7):
            try:
                want = _frozen_integral_means(t, r, 512, tol)
            except S.TailCheckError as e:
                with pytest.raises(S.TailCheckError) as got:
                    S.integral_means(t, r, 512, tol)
                assert str(got.value) == str(e) and _bits(got.value.r_max) == _bits(e.r_max)
                outcomes.add("fail")
                continue
            assert _bits(S.integral_means(t, r, 512, tol)) == _bits(want), (r, tol)
            outcomes.add("pass")
    assert outcomes == {"pass", "fail"} or N <= 2   # T is most of S


@pytest.mark.parametrize("N", [1, 2, 3, 40, 400])
@pytest.mark.parametrize("backend", ["float", "rational"])
def test_corner_tail_from_the_moduli_keeps_the_bits_of_n_long_power_tables(backend, N):
    # x ** np.arange(N-2, N) is the end of x ** np.arange(N), bit for bit (the
    # same numpy ufunc), at 0, 1, |w| > 1 and just below 1, also for x != y
    g, k = (Fraction(-3, 10), Fraction(4)) if N < 400 else _WIDTH1_EXACT
    t = S.build_theta_table(*((g, k) if backend == "rational" else (float(g), float(k))), N)
    rng = np.random.default_rng(N)
    xs = [0.0, 1.0, *rng.uniform(0.0, 1.0, 3), 1 - 2.0 ** -20, 1.5]
    for x in xs:
        for y in xs:
            want = _frozen_corner_tail(t, x ** np.arange(N), y ** np.arange(N))
            assert _bits(coeffs._corner_tail(t, x, y)) == _bits(want), (x, y)


def test_eval_theta_at_shifted_pairs_matches_the_frozen_code():
    # pde_residual's stencil evaluates at (w + a h, conj(w) + b h), a, b in
    # -2..2, so |w| != |wbar| off its diagonal
    h = 1e-3
    warned = set()
    for t in (S.build_theta_table(1.3, 2.5, 400), S.build_theta_table(*_WIDTH1_EXACT, 60)):
        for w0 in (0.4 + 0.3j, 0.95 - 0.1j, -0.7j):
            for a in range(-2, 3):
                for b in range(-2, 3):
                    w, wbar = w0 + a * h, w0.conjugate() + b * h
                    S_, _, _ = _frozen_table_sums(t, abs(w), abs(wbar))
                    want, got = _frozen_eval_theta(t, w, wbar), S.eval_theta(t, w, wbar)
                    assert abs(got.value - want.value) <= _value_bound(t.N) * S_, (w, wbar)
                    assert _bits(got.tail) == _bits(want.tail), (w, wbar)
                    assert got.warning == want.warning, (w, wbar)
                    warned.add(got.warning)
    assert warned == {False, True}


def _frozen_value(table, w, wbar):
    """eval_theta's value pass before the overflow check: running-product
    powers and float64 blocks of 2 MB (float) or 256 KB (rational) rows."""
    N = table.N
    pw, pb = _accumulated(complex(w), N), _accumulated(complex(wbar), N)
    P = np.stack((pw.real, pw.imag))
    ent = np.asarray(table.entries, dtype=float)
    U = np.zeros((2, N))
    b = max(1, (1 << 21 if table.den is None else 1 << 18) // (8 * N))
    for a in range(0, N, b):
        U += P[:, a:a + b] @ ent[a:a + b]
    return complex((U[0] + 1j * U[1]) @ pb)


def test_overflowing_powers_raise_instead_of_returning_nan():
    # eval_theta(t, 1e10, 1e10) returned nan+nanj with tail nan and warning False
    t = S.build_theta_table(1.0, 6.0, 50)
    for w, wbar in ((1e10, 1e10), (1e10, 0.5), (0.5, -1e10j), (1e7 + 1e7j, 1e7 - 1e7j)):
        for fn in (S.eval_theta, S.eval_rho):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # one OverflowError, no numpy warnings
                with pytest.raises(OverflowError, match=re.escape(
                        f"at (w, wbar) = ({complex(w)}, {complex(wbar)})")):
                    fn(t, w, wbar)
    # |w| > 1 with finite powers: the same value, tail and warning as before
    for t in (t, S.build_theta_table(Fraction(-3, 10), Fraction(4), 40)):
        for w, wbar in ((1.2 + 0.1j, 1.2 - 0.1j), (1.3, 1.1j), (-1.05, 0.5)):
            got = S.eval_theta(t, w, wbar)
            want = _frozen_eval_theta(t, w, wbar)
            assert _bits(got.value, got.tail) == _bits(_frozen_value(t, w, wbar), want.tail)
            assert got.warning == want.warning


def _accumulated(x, N):
    """x^k for k = 0..N-1 as the running product over [1, x, x, ...]."""
    return np.multiply.accumulate(np.array([1] + [x] * (N - 1), dtype=complex))


@pytest.mark.parametrize("N", [1, 2, 99, 100, 101, 400, 1200])
def test_conjugate_power_table_is_bit_identical(N):
    # both tables are running products, bit for bit, at |w| < 1 and >= 1; the
    # wbar table is w's conjugate but for the sign of a zero part
    rng = np.random.default_rng(N)
    pts = [complex(0.5 * np.exp(2j * np.pi * rng.uniform()) * rng.uniform(0.2, 2.4))
           for _ in range(60)]
    pts += [0.5 + 0.5j, -1 + 1j, 0.6 - 0.8j, 0.3 + 1e-3j, 1e-3 - 0.9j]
    for w in pts:
        wbar = w.conjugate()
        pw, pb = coeffs._powers(w, wbar, N)
        assert pw.tobytes() == _accumulated(w, N).tobytes(), w
        assert pb.tobytes() == _accumulated(wbar, N).tobytes(), w
        assert np.array_equal(pb, pw.conj()), w


@pytest.mark.parametrize("w,wbar", [
    (0.5, 0.5), (0.5, 0.5 + 1e-3j), (0.5j, -0.5j), (-0.0 + 0.5j, 0.0 - 0.5j), (0.3, 0.3 + 0.0j),
    (complex(0.3, -0.0), 0.3), (-1.0, -1.0), (1.1j, -1.1j), (1.05 - 0.4j, -0.2 + 1.3j), (0, 0),
], ids=["real", "non-conjugate", "imaginary-axis", "signed-zero-real", "real-plus-zero",
        "real-minus-zero", "minus-one", "imaginary-axis-outside", "non-conjugate-outside", "zero"])
def test_power_tables_on_the_axes_are_computed_directly(w, wbar):
    # one rule at every point: on an axis, with signed zeros, off the unit
    # disk and for unrelated w and wbar, both tables are running products
    for N in (2, 101, 400):
        pw, pb = coeffs._powers(complex(w), complex(wbar), N)
        assert pw.tobytes() == _accumulated(complex(w), N).tobytes()
        assert pb.tobytes() == _accumulated(complex(wbar), N).tobytes()


def _count_table_sums(monkeypatch):
    calls = []
    table_sums = coeffs._table_sums

    def counted(*args):
        calls.append(args)
        return table_sums(*args)

    monkeypatch.setattr(coeffs, "_table_sums", counted)
    return calls


def test_value_pass_decides_benchmark_like_points(monkeypatch):
    # eval_rho at |w| <= 0.8 on N = 400 width-1 tables, as in the series
    # benchmark, and criteria 6 and 7's radii: no |theta| pass
    rng = np.random.default_rng(23)
    calls = _count_table_sums(monkeypatch)
    for _ in range(2):
        g = float(rng.uniform(0.3, 1.5))
        t = S.build_theta_table(*_on_curve(1, g), 400, backend="float")
        for _ in range(14):
            w = complex(0.8 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
            assert not S.eval_rho(t, w, w.conjugate()).warning
    for q, kappa, N in ((2, 6.0, 400), (1, 4.0, 600)):
        t = S.build_theta_table(S.gamma_roots(S.SLEParams(q, kappa)).gamma_minus, kappa, N,
                                backend="float")
        for r in [1 - 2.0 ** -k for k in range(3, 8)]:
            S.integral_means(t, r, tail_tol=1e-3)
    assert calls == []


def _alternating_width0_table(N):
    """theta_{1,1} = 1 and theta_{j,j} = -1 beyond: on conjugate pairs
    Theta = 1 - sum_{j=1}^{N-1} y^j with y = |w|^2, which is y^(N-1) at y = 1/2,
    far below S = 2 - y^(N-1)."""
    return S.CoeffTable(N=N, gamma=1.0, kappa=6.0, num=np.diag([1.0] + [-1.0] * (N - 1)))


def test_cancellation_takes_the_absolute_pass_and_still_decides_false(monkeypatch):
    t = _alternating_width0_table(40)
    w = math.sqrt(0.5) * np.exp(0.3j)
    calls = _count_table_sums(monkeypatch)
    got = S.eval_theta(t, w, np.conj(w))
    assert len(calls) == 1
    assert abs(got.value) < 1e-10 and got.tail >= 1e-6 * abs(got.value)
    assert not got.warning and got.warning == _frozen_eval_theta(t, w, np.conj(w)).warning


def test_warning_decided_as_the_absolute_sum_would_at_the_threshold():
    # a nonnegative table on real pairs has Theta = S, so the value-first test
    # T <= 1e-6 |value| (1 - m) meets the threshold T = 1e-6 S with no room
    # to spare: points on both sides of it, down to one ulp, decide as S does
    t = S.build_theta_table(1.0, 6.0, 20, backend="float")

    def crossing(ratio):
        lo, hi = 0.5, 0.99   # T/S below ratio at lo, above at hi
        while np.nextafter(lo, 1) < hi:
            mid = 0.5 * (lo + hi)
            S_, T = coeffs._table_sums(t, mid, mid), coeffs._corner_tail(t, mid, mid)
            lo, hi = (lo, mid) if T > ratio * S_ else (mid, hi)
        return hi

    up = down = [crossing(1e-6)]
    for _ in range(20):
        up, down = up + [np.nextafter(up[-1], 1)], down + [np.nextafter(down[-1], 0)]
    xs = up + down[1:] + [crossing(1.5e-6), crossing(0.5e-6)]
    decided = set()
    for x in xs:
        got = S.eval_theta(t, x, x)
        assert got.warning == _frozen_eval_theta(t, x, x).warning, x
        decided.add(got.warning)
    assert decided == {False, True}


def test_warning_takes_the_absolute_pass(monkeypatch):
    t = S.build_theta_table(1.0, 6.0, 20, backend="float")
    calls = _count_table_sums(monkeypatch)
    assert S.eval_theta(t, 0.97, 0.97).warning
    assert len(calls) == 1


def test_integral_means_falls_back_when_the_diagonal_bound_cannot_pass(monkeypatch):
    t = S.build_theta_table(S.gamma_roots(S.SLEParams(2, 6)).gamma_minus, 6.0, 400,
                            backend="float")
    r = 1 - 2.0 ** -7
    S_, T = coeffs._table_sums(t, r, r), coeffs._corner_tail(t, r, r)
    # a tolerance that S passes and sum |c_n| (about 0.75 S) does not
    tol = 1.1 * T / S_
    calls = _count_table_sums(monkeypatch)
    assert _bits(S.integral_means(t, r, tail_tol=tol)) == \
        _bits(_frozen_integral_means(t, r, tail_tol=tol))
    assert len(calls) == 1
    with pytest.raises(S.TailCheckError):
        S.integral_means(t, r, tail_tol=0.9 * T / S_)
    assert len(calls) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex("nan+1j"),
                                 complex(0.5, math.inf)],
                         ids=["nan", "inf", "-inf", "nan+1j", "0.5+infj"])
@pytest.mark.parametrize("which", ["w", "wbar"])
def test_non_finite_points_are_refused_before_any_table_pass(bad, which, monkeypatch):
    # eval_theta(t, nan, nan) returned nan+nanj with warning False
    t = S.build_theta_table(1.3, 2.5, 40, backend="float")

    def no_pass(*args):
        raise AssertionError("a table pass ran before the point was checked")

    for name in ("_table_sums", "_corner_tail", "_block_rows", "_powers"):
        monkeypatch.setattr(coeffs, name, no_pass)
    w, wbar = (bad, 0.5) if which == "w" else (0.5, bad)
    for fn in (S.eval_theta, S.eval_rho):
        with pytest.raises(ValueError, match=f"^{which} must be finite"):
            fn(t, w, wbar)


def _per_step_table_sums(table, aw, awbar):
    """(S, T): the blocked |entries| pass the r_max bisection ran on every
    step before the anti-diagonal sums, as the reference."""
    N = table.N
    apw, apb = aw ** np.arange(N), awbar ** np.arange(N)
    ent = table.entries
    corner = [(N - 1, N - 1)] + ([(N - 1, N - 2), (N - 2, N - 1)] if N >= 2 else [])
    T = 0.0
    for i, j in corner:
        T += abs(float(ent[i, j])) * float(apw[i]) * float(apb[j])
    row = np.zeros(N)
    b = coeffs._block_rows(N)
    buf = np.empty((min(b, N), N))
    for a in range(0, N, b):
        blk = np.asarray(ent[a:a + b], dtype=float)
        row += apw[a:a + b] @ np.abs(blk, out=buf[:len(blk)])
    return float(row @ apb), T


def _per_step_tail_error(table, r, tail_tol):
    """The TailCheckError text and r_max of the per-step bisection."""
    def frac(x):
        S_, T = _per_step_table_sums(table, x, x)
        return T / S_

    assert frac(r) > tail_tol
    lo, hi = 1e-6, r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if frac(mid) > tail_tol:
            hi = mid
        else:
            lo = mid
    return (f"series tail at r={r} exceeds tail_tol={tail_tol}; "
            f"largest admissible radius is about {lo:.6f} "
            f"(increase N or tail_tol)"), lo


@pytest.mark.parametrize("g,k,N,r,tol", [
    (1.3, 2.5, 1200, 0.999, 1e-6), (1.3, 2.5, 400, 0.995, 1e-6), (1.0, 6.0, 40, 0.99, 1e-8),
    (*_on_curve(1, 0.7), 250, 0.999, 1e-9), (-0.3, 4.0, 120, 0.99, 1e-10),
    (Fraction(1, 2), Fraction(3), 30, 0.9, 1e-6), (Fraction(-3, 10), Fraction(4), 40, 0.95, 1e-9),
    (1.3, 2.5, 1, 0.5, 1e-6), (1.3, 2.5, 2, 0.5, 1e-3),
], ids=["N1200", "N400", "width0-N40", "width1-N250", "negative-g-N120", "rational-N30",
        "rational-N40", "N1", "N2"])
def test_r_max_from_antidiagonal_sums_matches_per_step_passes(g, k, N, r, tol):
    # S(x) and T(x) as polynomials in x give the bisection the per-step
    # passes' r_max and TailCheckError text
    t = S.build_theta_table(g, k, N)
    text, r_max = _per_step_tail_error(t, r, tol)
    with pytest.raises(S.TailCheckError) as got:
        S.integral_means(t, r, tail_tol=tol)
    assert abs(got.value.r_max - r_max) <= 1e-12
    assert str(got.value) == text


@pytest.mark.parametrize("g,k,N", [(1.3, 2.5, 1), (1.3, 2.5, 7), (1.3, 2.5, 400),
                                   (Fraction(-3, 10), Fraction(4), 40)])
def test_antidiagonal_sums_against_a_dense_reference(g, k, N):
    t = S.build_theta_table(g, k, N)
    ent = np.abs(np.asarray(t.entries, dtype=float))
    want = [np.fliplr(ent).diagonal(N - 1 - d).sum() for d in range(2 * N - 1)]
    got = coeffs._antidiagonal_sums(t)
    assert len(got) == 2 * N - 1
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def _traced_peak(fn):
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluation_makes_no_table_sized_temporary():
    # an N = 1200 table is 11.5 MB; casting it to complex and copying
    # |entries| peaked at 23 MB (eval_rho) and 35 MB (integral_means)
    t = S.build_theta_table(1.3, 2.5, 1200, backend="float")
    assert _traced_peak(lambda: S.eval_rho(t, 0.6 + 0.3j, 0.6 - 0.3j)) <= 1e6
    assert _traced_peak(lambda: S.integral_means(t, 0.9, tail_tol=1e-3)) <= 1e6


def test_integral_means_guards():
    t = S.build_theta_table(1.0, 6.0, 40, backend="float")
    with pytest.raises(ValueError):
        S.integral_means(t, 1.2)
    with pytest.raises(ValueError):
        S.integral_means(t, 0.5, n_phi=300)
    with pytest.raises(S.TailCheckError) as ei:
        S.integral_means(t, 0.99, tail_tol=1e-8)
    assert 0 < ei.value.r_max < 0.99


def test_fit_beta_on_powerlaw_data():
    rs = [1 - 2.0 ** -k for k in range(3, 8)]
    fit = S.fit_beta([(r, 5.0 / (1 - r) ** 2.5) for r in rs])
    assert fit.slope == pytest.approx(2.5, abs=1e-12)
    assert fit.residual < 1e-12
    with pytest.raises(ValueError):
        S.fit_beta([(0.5, 1.0), (0.6, 1.0), (0.7, 1.0)])
    with pytest.raises(ValueError):
        S.fit_beta([(0.5, 1.0), (0.6, -1.0), (0.7, 1.0), (0.8, 1.0)])


@pytest.mark.parametrize("bad", [
    {"r": 1.0}, {"r": 0.0}, {"r": 1.5}, {"r": math.nan},
    {"I": math.nan}, {"I": math.inf}, {"all_r": 0.5},
], ids=lambda b: "-".join(f"{k}={v}" for k, v in b.items()))
def test_fit_beta_rejects_bad_samples_before_the_fit(bad, capfd):
    # a radius of 1 made LAPACK fail (and print to stderr); a NaN mean gave
    # a NaN slope; one radius throughout made numpy warn RankWarning and
    # return a slope
    samples = [(bad.get("all_r", r), 5.0 / (1 - r) ** 2.5) for r in (0.5, 0.6, 0.7, 0.8)]
    samples[2] = (bad.get("r", samples[2][0]), bad.get("I", samples[2][1]))
    with pytest.raises(ValueError, match="non-finite" if "I" in bad else "radii"):
        S.fit_beta(samples)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("kw", [
    {"tail_tol": math.nan}, {"tail_tol": math.inf}, {"tail_tol": 0.0},
    {"tail_tol": -1.0}, {"n_phi": 256.0}, {"n_phi": True}, {"n_phi": "256"},
], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "n_phi-float",
        "n_phi-bool", "n_phi-str"])
def test_integral_means_refuses_arguments_before_any_table_pass(kw, monkeypatch):
    # tail_tol=nan passed every radius (frac > nan is False), -1 ran the
    # 60-step bisection, and n_phi=256.0 died in `&` with a raw TypeError
    t = S.build_theta_table(1.0, 6.0, 40)
    assert S.integral_means(t, 0.5, n_phi=256, tail_tol=1e-6) > 0

    def no_pass(*args):
        raise AssertionError("a table pass ran before the arguments were checked")

    # the diagonal sums (through _block_rows) are the first pass, _table_sums the second
    for name in ("_table_sums", "_block_rows"):
        monkeypatch.setattr(coeffs, name, no_pass)
    with pytest.raises(ValueError, match="tail_tol|n_phi"):
        S.integral_means(t, 0.5, **kw)


def test_integral_means_takes_numpy_integer_n_phi():
    t = S.build_theta_table(1.0, 6.0, 40)
    assert S.integral_means(t, 0.5, n_phi=np.int64(256)) == \
        S.integral_means(t, 0.5, n_phi=256)


def test_slope_fit_offcurve_and_growth_consistency():
    # q = 2, kappa = 6 via the minus root: slope approaches beta = 3
    g = S.gamma_roots(S.SLEParams(2, 6)).gamma_minus
    t = S.build_theta_table(g, 6.0, 400, backend="float")
    rs = [1 - 2.0 ** -k for k in range(3, 8)]
    fit = S.fit_beta([(r, S.integral_means(t, r, tail_tol=1e-3)) for r in rs])
    assert fit.slope == pytest.approx(3.0, rel=0.05)


# ---- rational tables keep their numerators: equivalence with the Fraction step ----

def _fraction_step(table):
    """The rational build's last step as it was when tables held reduced
    Fractions, frozen: one Fraction (one gcd) per nonzero pair i <= j of
    the padded integer grid, shared by theta_{i,j} and theta_{j,i}, and one
    Fraction(0) everywhere else.  The reference for every rational read."""
    N, den = table.N, table.den
    G = np.zeros((N + 1, N + 1), dtype=object)
    G[1:, 1:] = table.num
    entries = np.full((N, N), Fraction(0))
    i, j = np.nonzero(np.triu(G))
    fr = [Fraction(v, den[s]) for v, s in zip(G[i, j], (i + j).tolist())]
    entries[i - 1, j - 1] = entries[j - 1, i - 1] = fr
    return entries


def _on_curve_exact(M, N):
    g = Fraction(1, 2) if M else Fraction(1)
    return g, S.curve_point(S.CurveParams(M, g)).kappa, N


_OFF_CURVE = (Fraction(3, 4), Fraction(653, 413))
_RATIONAL_TABLES = [_on_curve_exact(M, N) for M in range(4) for N in (40, 60, 120)] + [
    (*_OFF_CURVE, 40), (*_OFF_CURVE, 60), (Fraction(-3, 10), Fraction(4), 40),
    (Fraction(1, 2), Fraction(0), 40), (Fraction(1, 2), Fraction(5, 2), 1),
    (Fraction(1, 2), Fraction(5, 2), 2)]
_RATIONAL_IDS = [f"M{M}-N{N}" for M in range(4) for N in (40, 60, 120)] + [
    "offcurve-N40", "offcurve-N60", "negative-g-N40", "kappa0-N40", "N1", "N2"]


def _outcome(fn, *args, **kw):
    """The bits of fn's result, or the type, text and r_max of its ValueError."""
    try:
        v = fn(*args, **kw)
    except ValueError as e:   # TailCheckError included
        r_max = getattr(e, "r_max", None)
        return type(e), str(e), None if r_max is None else _bits(r_max)
    if isinstance(v, S.SeriesValue):
        return _bits(v.value, v.tail), v.warning
    return _bits(v)


def _reads(table):
    """Every float reader of a table, at points and radii that take both
    sides of the tail checks."""
    pts = [(0.3 + 0.2j, 0.3 - 0.2j), (0.5j, -0.5j), (-0.6, 0.4), (0.97, 0.97),
           (0.999 + 0.01j, 0.999 - 0.01j)]
    out = [_outcome(f, table, w, wbar) for w, wbar in pts for f in (S.eval_theta, S.eval_rho)]
    out += [_outcome(S.integral_means, table, r, n_phi=256) for r in (0.5, 0.9, 0.999)]
    out += [_outcome(S.integral_means, table, 0.9, n_phi=256, tail_tol=1e-12)]
    return out + [_outcome(S.diagonal_growth_exponent, table)]


@pytest.mark.parametrize("g,k,N", _RATIONAL_TABLES, ids=_RATIONAL_IDS)
def test_rational_reads_equal_the_fraction_step(g, k, N):
    t = S.build_theta_table(g, k, N)
    assert t.backend == "rational" and len(t.den) == 2 * N + 1
    ref = _fraction_step(t)
    ent = t.entries
    assert ent.shape == (N, N) and all(type(x) is Fraction for x in ent.flat)
    assert (ent == ref).all()
    gets = [[t.get(i, j) for j in range(1, N + 1)] for i in range(1, N + 1)]
    assert gets == ref.tolist() and all(type(x) is Fraction for row in gets for x in row)
    # every float block a reader takes, bit for bit as the parent's cast of
    # the Fractions: row blocks, integral_means' column blocks, the corner,
    # the diagonal and the whole table
    want = np.asarray(ref, dtype=float)
    k, idx = max(0, N - 2), np.arange(N)
    blocks = [(slice(a, a + 7), slice(None)) for a in range(0, N, 7)]
    blocks += [(slice(a, None), slice(a, a + 7)) for a in range(0, N, 7)]
    blocks += [(slice(k, N), slice(k, N)), (idx, idx), (slice(None), slice(None))]
    for rows, cols in blocks:
        got = coeffs._floats(t, rows, cols)
        assert got.dtype == np.float64 and got.tobytes() == want[rows, cols].tobytes()
    # every reader gives the bits it gives on a table of the reference
    # Fractions over denominators 1, each read as float(Fraction), as the
    # parent's np.asarray(entries, dtype=float) read it
    old = coeffs.CoeffTable(N, t.gamma, t.kappa, num=ref, den=(1,) * (2 * N + 1))
    assert _reads(t) == _reads(old)


# sha256 (first 32 hex digits) of repr((num.tolist(), den)) per table of
# _RATIONAL_TABLES, recorded from the sweep on object arrays that the list
# sweep replaced
_RATIONAL_DIGESTS = {
    "M0-N40": "7b4c6e08073696830d158928a2a455a6",
    "M0-N60": "fb12b4848947ccb67183e5b2f22cfa47",
    "M0-N120": "2846ca7f172a0a89b9ef72859805406c",
    "M1-N40": "5d44e64a6ecc5727f5bafaeb071c88f9",
    "M1-N60": "e6cdf9b9879205c01dad683a3b763e58",
    "M1-N120": "37ce92480bb1ed6c3d8bd8643886861d",
    "M2-N40": "288e214bea4527e390b499c9b307d97b",
    "M2-N60": "ebfe1de875cb9fab4f618ebfc59dd4fc",
    "M2-N120": "3820dc8c38c241f6864f37c8922ce894",
    "M3-N40": "151d26c80efec7dae28c9afb2815c14b",
    "M3-N60": "2828cb07e7294abbbe01e0811655e73a",
    "M3-N120": "62a2cc00c240168722ef67bdb07ba0f0",
    "offcurve-N40": "9e0f4fd2c4b886d9c576a60ab4b23f89",
    "offcurve-N60": "c8aac89e25a03bdd840f250d30716085",
    "negative-g-N40": "73924d31f8557dc7b8bfcdbdb49d8c23",
    "kappa0-N40": "ae56a5625c17844a7d0f701e739391cd",
    "N1": "9bffd73d6b465fbe878b52dea3045a60",
    "N2": "7f1149139f7ddd478a9bf892d2316820",
}


@pytest.mark.parametrize("g,k,N,name", [(*t, n) for t, n in zip(_RATIONAL_TABLES, _RATIONAL_IDS)],
                         ids=_RATIONAL_IDS)
def test_rational_table_representation_is_pinned(g, k, N, name):
    t = S.build_theta_table(g, k, N)
    assert t.num.shape == (N, N) and t.num.dtype == object
    assert all(type(v) is int for v in t.num.flat)
    assert type(t.den) is tuple and all(type(d) is int for d in t.den)
    # den[s] is the least common denominator of anti-diagonal s's values
    num = t.num.tolist()
    for s in range(2 * N + 1):
        row = [Fraction(num[i - 1][s - i - 1], t.den[s])
               for i in range(max(1, s - N), min(N, s - 1) + 1)]
        assert t.den[s] == math.lcm(*(f.denominator for f in row)), s
    got = hashlib.sha256(repr((num, t.den)).encode()).hexdigest()[:32]
    assert got == _RATIONAL_DIGESTS[name]


def test_library_never_builds_the_fraction_view(monkeypatch, capsys):
    # entries builds one Fraction per nonzero entry on each access: no path
    # of the library may fall back to it
    def refused(self):
        raise AssertionError("CoeffTable.entries read")

    monkeypatch.setattr(coeffs.CoeffTable, "entries", property(refused))
    for g, k, N in ((*_OFF_CURVE, 40), _on_curve_exact(2, 60), (Fraction(-3, 10), 4, 40)):
        t = S.build_theta_table(g, k, N)
        S.truncation_width(t)
        S.eval_theta(t, 0.3 + 0.2j, 0.3 - 0.2j)
        S.eval_rho(t, 0.97, 0.97)   # takes the |theta| pass
        S.integral_means(t, 0.5)
        with pytest.raises(S.TailCheckError):
            S.integral_means(t, 0.9, tail_tol=1e-12)
        S.diagonal_growth_exponent(t)
    from slespec import cli
    assert cli.main(["truncate", "--m", "1", "--gamma", "1/2", "--order", "40"]) == 0
    assert cli.main(["truncate", "--m", "2", "--gamma", "3/4", "--kappa", "653/413",
                     "--order", "40"]) == 2
    capsys.readouterr()
