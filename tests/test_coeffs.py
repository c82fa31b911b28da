"""Recurrence tables: exactness, banding, evaluation, asymptotics, fits."""

import math
import tracemalloc
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
    # backend is read off the entries, not stored beside them
    with pytest.raises(TypeError):
        S.CoeffTable(N=t.N, gamma=t.gamma, kappa=t.kappa, entries=t.entries,
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
    {"I": math.nan}, {"I": math.inf},
], ids=lambda b: "-".join(f"{k}={v}" for k, v in b.items()))
def test_fit_beta_rejects_bad_samples_before_the_fit(bad, capfd):
    # a radius of 1 made LAPACK fail (and print to stderr); a NaN mean gave
    # a NaN slope
    samples = [(r, 5.0 / (1 - r) ** 2.5) for r in (0.5, 0.6, 0.7, 0.8)]
    samples[2] = (bad.get("r", samples[2][0]), bad.get("I", samples[2][1]))
    with pytest.raises(ValueError, match="radii" if "r" in bad else "non-finite"):
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

    monkeypatch.setattr(coeffs, "_table_sums", no_pass)
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
