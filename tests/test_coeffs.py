"""Recurrence tables: exactness, banding, evaluation, asymptotics, fits."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import slespec as S


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
                acc += S.recurrence_coeff(i, j, l, m, g, k) * th(i - l, j - m)
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
        return S.recurrence_coeff(i, j, l, m, g, k)

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
    fr = tr._float_entries()
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
def test_backend_follows_entries_dtype(g, k, backend, tmp_path):
    t = S.build_theta_table(g, k, 8)
    assert t.backend == backend
    p = tmp_path / "t.txt"
    S.save_table(t, str(p))
    t2 = S.load_table(str(p))
    assert t2.backend == backend and t2.entries.dtype == t.entries.dtype
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


# ---- fourier slices and the radial ODE ----

def test_fourier_series_diagonal_table():
    t = S.build_theta_table(1, 6, 8, backend="rational")
    f0 = S.fourier_series(t, 0)
    assert list(f0[:4]) == [Fraction(1), Fraction(3), Fraction(6), Fraction(10)]
    assert all(v == 0 for v in S.fourier_series(t, 2))


def test_fourier_series_negative_reflection():
    t = S.build_theta_table(1, 2, 10, backend="rational")
    f2 = S.fourier_series(t, 2)
    fm2 = S.fourier_series(t, -2)
    assert list(fm2[:2]) == [Fraction(0), Fraction(0)]
    assert list(fm2[2:]) == list(f2)
    with pytest.raises(ValueError):
        S.fourier_series(t, 10)


@given(g=gammas, k=kappas, n=st.integers(-2, 2))
def test_radial_ode_residual_vanishes(g, k, n):
    """The mode ODE is an identity of the table, on or off a curve."""
    t = S.build_theta_table(g, k, 12, backend="rational")
    assert S.rec3_residual(t, n, 12 - abs(n) - 2) == 0


def test_rec3_residual_order_guard():
    t = S.build_theta_table(1, 2, 10, backend="rational")
    with pytest.raises(ValueError):
        S.rec3_residual(t, 0, 9)


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
    ent, N = table._float_entries(), table.N
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


def test_slope_fit_offcurve_and_growth_consistency():
    # q = 2, kappa = 6 via the minus root: slope approaches beta = 3
    g = S.gamma_roots(S.SLEParams(2, 6)).gamma_minus
    t = S.build_theta_table(g, 6.0, 400, backend="float")
    rs = [1 - 2.0 ** -k for k in range(3, 8)]
    fit = S.fit_beta([(r, S.integral_means(t, r, tail_tol=1e-3)) for r in rs])
    assert fit.slope == pytest.approx(3.0, rel=0.05)


# ---- persistence ----

@pytest.mark.parametrize("backend,g,k", [("rational", Fraction(1, 2), Fraction(5, 2)),
                                         ("float", 0.5, 2.5)])
def test_save_load_round_trip(backend, g, k, tmp_path):
    t = S.build_theta_table(g, k, 12, backend=backend)
    p = tmp_path / "t.txt"
    S.save_table(t, str(p))
    t2 = S.load_table(str(p))
    assert t2.backend == backend
    assert t2.N == t.N and t2.gamma == t.gamma and t2.kappa == t.kappa
    for i in range(1, 13):
        for j in range(1, 13):
            assert t2.get(i, j) == t.get(i, j)
    # second dump byte-identical
    buf = io.StringIO()
    S.save_table(t2, buf)
    assert buf.getvalue() == p.read_text()


def test_load_rejects_corrupt_header(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a table\n")
    with pytest.raises(ValueError):
        S.load_table(str(p))


@pytest.mark.parametrize("field", ["N", "gamma", "kappa", "backend"])
def test_load_rejects_header_missing_a_field(field):
    fields = {"gamma": "1", "kappa": "2", "N": "3", "backend": "rational"}
    del fields[field]
    header = "theta-table v1 " + " ".join(f"{k}={v}" for k, v in fields.items())
    with pytest.raises(ValueError, match=field):
        S.load_table(io.StringIO(header + "\n"))


def test_load_rejects_empty_table():
    # N=0 would load as an empty table that eval_rho then indexes at -1
    with pytest.raises(ValueError, match="N must be positive"):
        S.load_table(io.StringIO("theta-table v1 gamma=1 kappa=2 N=0 backend=float\n"))


@pytest.mark.parametrize("bad_row,replaces", [
    ("0 0 9", "1 1 "),   # index 0 would wrap to theta(N, N)
    ("1 1 7", "3 3 "),   # duplicate (1,1): the row count still reads N*N
], ids=["index-out-of-range", "duplicate-entry"])
def test_load_rejects_corrupt_entries(bad_row, replaces):
    buf = io.StringIO()
    S.save_table(S.build_theta_table(1, 2, 3, backend="rational"), buf)
    rows = [bad_row if r.startswith(replaces) else r
            for r in buf.getvalue().splitlines()]
    with pytest.raises(ValueError):
        S.load_table(io.StringIO("\n".join(rows) + "\n"))


@pytest.mark.parametrize("text,where", [
    ("theta-table v1 gamma=1 kappa=2 N=1 backend=rational\n1 1 3/0\n", "'1 1 3/0'"),
    ("theta-table v1 gamma=1/0 kappa=2 N=1 backend=rational\n1 1 3\n", "'theta-table v1"),
], ids=["row", "header"])
def test_load_names_a_zero_denominator(text, where):
    # Fraction('1/0') raised ZeroDivisionError, which callers catching
    # ValueError for corrupt files miss
    with pytest.raises(ValueError, match=f"zero denominator in {where}"):
        S.load_table(io.StringIO(text))
