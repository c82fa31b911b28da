"""Tridiagonal angular systems: matrices, eigenvalues, eigenfunctions."""

import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import slespec as S
from conftest import beta_from_lambda, lpsi_residual


def curve_gammas(M, count, seed):
    """Random admissible rational gammas for the M-curve."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        g = Fraction(int(rng.integers(1, 160)), 48)
        try:
            S.curve_point(S.CurveParams(M, g))
        except S.InvalidCurveError:
            continue
        out.append(g)
    return out


# ---- coefficient functions ----

def test_coefficients_at_unit_curve():
    g, k = Fraction(1), Fraction(2)
    assert S.a_coef(1, g, k) == Fraction(-2)
    assert S.a_coef(0, g, k) == Fraction(-2)
    assert S.a_coef(-1, g, k) == 0
    assert S.b_coef(0, g, k) == Fraction(6)
    assert S.b_coef(1, g, k) == Fraction(4)
    assert S.c_coef(0, g, k) == Fraction(-6)
    assert S.c_coef(1, g, k) == Fraction(-6)


@given(g=st.fractions(min_value=Fraction(-1), max_value=Fraction(2),
                      max_denominator=8),
       k=st.fractions(min_value=Fraction(0), max_value=Fraction(8),
                      max_denominator=6),
       n=st.integers(-4, 4))
def test_b_coef_even_in_n(g, k, n):
    assert S.b_coef(n, g, k) == S.b_coef(-n, g, k)


def test_band_closure_on_curves():
    # curve_point's kappa = 2(M + 3g)/D closes the band, A_{-M} = 0, so
    # build_system does not check it: exactly on every admissible k/48 and
    # on the float twins, which build the system of the dyadic rational
    # each float equals
    curves = 0
    for M in range(21):
        for k in range(-200, 300):
            for g in (Fraction(k, 48), k / 48):
                try:
                    sysM = S.build_system(S.CurveParams(M, g))
                except S.InvalidCurveError:
                    continue
                assert sysM == S.build_system(S.CurveParams(M, Fraction(g)))
                assert type(sysM.gamma) is Fraction and type(sysM.kappa) is Fraction
                assert S.a_coef(-M, sysM.gamma, sysM.kappa) == 0, (M, k)
                curves += 1
    # 9123 exact curves, and their float twins but the three whose dyadic
    # gamma lies below -M/3 (test_dyadic_gamma_below_the_curve_is_refused)
    assert curves == 2 * 9123 - 3


# ---- matrices ----

def test_reduced_matrix_anchor():
    sysM = S.build_system(S.CurveParams(1, 1))
    assert S.reduced_matrix(sysM) == [[Fraction(3), Fraction(-2)],
                                      [Fraction(-1), Fraction(2)]]


def test_full_matrix_anchor_and_split():
    sysM = S.build_system(S.CurveParams(1, 1))
    assert _scalar_band_matrix(sysM, range(-1, 2), False) == [
        [Fraction(2), Fraction(-1), Fraction(0)],
        [Fraction(-1), Fraction(3), Fraction(-1)],
        [Fraction(0), Fraction(-1), Fraction(2)],
    ]
    # full spectrum = reduced (even) + antisymmetric (odd)
    full = sorted(S.eigen_solve(_scalar_band_matrix(sysM, range(-1, 2), False)).values)
    red = S.eigen_solve(S.reduced_matrix(sysM)).values
    anti = S.eigen_solve(_scalar_band_matrix(sysM, range(1, 2), False)).values
    merged = sorted(list(red) + list(anti))
    assert np.allclose(full, merged, atol=1e-12)


def _scalar_band_matrix(sysM, ns, fold):
    """R on the basis n in ns from scalar a_coef/b_coef calls: sub A_{-n+1}/2,
    diag B_n/2, super A_{n+1}/2, and fold doubles row 0's super-diagonal.
    The reference for reduced_matrix (ns = 0..M, folded), and the only
    builder of the full (-M..M) and antisymmetric (1..M) bases."""
    g, k = sysM.gamma, sysM.kappa
    size = len(ns)
    R = [[S.b_coef(0, g, k) * 0] * size for _ in range(size)]
    for idx, n in enumerate(ns):
        R[idx][idx] = S.b_coef(n, g, k) / 2
        if idx > 0:
            R[idx][idx - 1] = S.a_coef(-n + 1, g, k) / 2
        if idx < size - 1:
            R[idx][idx + 1] = S.a_coef(n + 1, g, k) / 2
    if fold and size > 1:
        R[0][1] *= 2
    return R


@pytest.mark.parametrize("M", range(1, 21))
def test_matrices_equal_scalar_coefficient_reference(M):
    checked = 0
    for num in (1, 7, 19, 40, 77, 118, 159):
        for g in (Fraction(num, 48), num / 48):   # exact, and the float twin
            try:
                sysM = S.build_system(S.CurveParams(M, g))
            except S.InvalidCurveError:
                continue
            got = S.reduced_matrix(sysM)
            # the float twin's matrix is that of the dyadic rational g equals
            dyadic = S.build_system(S.CurveParams(M, Fraction(g)))
            want = _scalar_band_matrix(dyadic, range(0, M + 1), True)
            assert got == want
            assert repr(got) == repr(want)
            assert all(type(x) is Fraction for row in got for x in row)
            checked += 1
    assert checked >= 6


# ---- eigen._stencil against the evaluators it replaced ----

def _ref_int_quadratics(gamma, kappa):
    """The replaced eigen._int_quadratics: (L, qa, qb, qc), L A_n, L B_n and
    L C_n as integer quadratics read off a_coef, b_coef, c_coef at n = 0, 1, 2."""
    quads = []
    for f in (S.a_coef, S.b_coef, S.c_coef):
        f0, f1, f2 = (f(n, gamma, kappa) for n in (0, 1, 2))
        q2 = (f2 - 2 * f1 + f0) / 2
        quads.append((f0, f1 - f0 - q2, q2))
    L = math.lcm(*(c.denominator for q in quads for c in q))
    return (L, *(tuple(int(c * L) for c in q) for q in quads))


def _ref_quad(q, n):
    return q[0] + (q[1] + q[2] * n) * n


def _pow_a_coef(n, g, k):
    """a_coef as it was, squaring with **."""
    return k * (n - g) ** 2 / 2 + n - 3 * g - k * g * (1 - g) / 2


def test_float_stencil_equals_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    ns = range(-1200, 1202)
    for _ in range(300):
        g, k = float(rng.uniform(-1, 3)), float(rng.uniform(0, 10))
        L, *arrays = S.eigen._stencil(g, k, ns)
        assert L == 1
        for f, arr in zip((S.a_coef, S.b_coef, S.c_coef), arrays):
            assert arr.dtype == np.float64
            assert np.array_equal(arr, [f(m, g, k) for m in ns])
        # against the ** form: the square moves by at most 1 ulp, and A_n,
        # after the sum's own roundings, by at most 2 ulps at these points
        old = np.array([_pow_a_coef(m, g, k) for m in ns])
        assert np.all(np.abs(arrays[0] - old) <= 2 * np.spacing(np.abs(old)))
        sq = np.array([(m - g) ** 2 for m in ns])
        d = np.array(ns) - g
        assert np.all(np.abs(d * d - sq) <= np.spacing(sq))


@pytest.mark.parametrize("g,k", [
    (Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(3)),
    (Fraction(-3, 10), Fraction(4)), (Fraction(7, 4), Fraction(1497, 1337)),
    (Fraction(1, 3), Fraction(0)), (Fraction(-5, 7), Fraction(5, 2)),
    (Fraction(40, 48), S.curve_point(S.CurveParams(20, Fraction(40, 48))).kappa),
])
def test_exact_stencil_is_l_times_the_fraction_values(g, k):
    ns = range(-60, 62)
    L, *arrays = S.eigen._stencil(g, k, ns)
    ref_L, *quads = _ref_int_quadratics(g, k)
    assert L == ref_L
    for f, q, arr in zip((S.a_coef, S.b_coef, S.c_coef), quads, arrays):
        assert arr.dtype == object and all(type(v) is int for v in arr)
        assert arr.tolist() == [L * f(m, g, k) for m in ns]
        assert arr.tolist() == [_ref_quad(q, m) for m in ns]


@example(g=Fraction(-1, 2), k=Fraction(0))
@example(g=Fraction(-3, 2), k=Fraction(7, 999983))
@given(g=st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 6),
       k=st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=0, max_value=50, max_denominator=10 ** 6)))
def test_integer_stencil_restates_the_coefficient_functions(g, k):
    # _stencil forms the quadratics' integers from gamma's and kappa's
    # numerators and denominators; a_coef, b_coef and c_coef, evaluated in
    # Fractions, are the first statement of the same recurrence
    ns = range(-7, 9)
    L, *arrays = S.eigen._stencil(g, k, ns)
    assert L == _ref_int_quadratics(g, k)[0]
    for f, arr in zip((S.a_coef, S.b_coef, S.c_coef), arrays):
        assert arr.dtype == object and all(type(v) is int for v in arr)
        assert arr.tolist() == [L * f(m, g, k) for m in ns]


def test_eigen_solve_certifies_residuals():
    res = S.eigen_solve([[Fraction(3), Fraction(-2)], [Fraction(-1), Fraction(2)]])
    assert sorted(res.values) == [pytest.approx(1.0), pytest.approx(4.0)]
    assert max(res.residuals) < 1e-12


def test_eigen_solve_reports_brackets_on_exact_input():
    # the eigenvalues 1 and 4 are proved by division: their Fractions
    res = S.eigen_solve(S.reduced_matrix(S.build_system(S.CurveParams(1, 1))))
    assert res.exact_values == (Fraction(1), Fraction(4))
    assert list(res.values) == [1.0, 4.0]
    # its float twin is read exactly and proved the same way
    assert S.eigen_solve([[3.0, -2.0], [-1.0, 2.0]]).exact_values == res.exact_values


@pytest.mark.parametrize("kind", [Fraction, float], ids=["exact", "float"])
def test_a_matrix_off_the_tridiagonal_is_refused(kind):
    # the corner 1/2 lies off the tridiagonal: refused by name, exact or
    # float (both took LAPACK's eigenvalues before)
    m = [[kind(2), kind(1), kind(1) / 2],
         [kind(1), kind(3), kind(1)],
         [kind(1) / 2, kind(1), kind(4)]]
    with pytest.raises(ValueError, match=re.escape(f"tridiagonal matrix, got {m[0][2]} at (0, 2)")):
        S.eigen_solve(m)


def test_float_entries_are_read_as_the_rationals_they_equal():
    # float64, float32 and numpy-array entries are the dyadic rationals they
    # equal: the same integer tridiagonal and proved values as their Fractions
    tenth = np.float32(0.1)
    for m in ([[0.1, 0.0], [0.0, 0.75]], [[tenth, 0], [0, 0.75]],
              np.array([[0.1, 0.5], [0.0, 0.75]]), np.array([[tenth, 0.5], [0, 0.75]])):
        twin = [[Fraction(*x.as_integer_ratio()) if isinstance(x, (float, np.floating))
                 else Fraction(x) for x in r] for r in m]
        assert S.eigen._tridiag_exact(m) == S.eigen._tridiag_exact(twin)
        assert S.eigen_solve(m).exact_values == tuple(sorted((twin[0][0], twin[1][1])))
    assert Fraction(*tenth.as_integer_ratio()) == Fraction(13421773, 2 ** 27) != Fraction(0.1)
    # reduced_matrix reads a hand-built system the same way
    g, k = 0.3, 1.7
    got = S.reduced_matrix(S.TridiagSystem(3, g, np.float32(k)))
    assert got == S.reduced_matrix(S.TridiagSystem(3, Fraction(g), Fraction(float(np.float32(k)))))
    assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("M,k", [(5, -80), (7, -112), (10, -160)])
def test_dyadic_gamma_below_the_curve_is_refused(M, k):
    # the float k/48 lies just below -M/3, so its dyadic kappa would be
    # negative: build_system refuses the curve, while curve_point on the
    # float, which rounds 3 gamma to -M, admits it at kappa = 0
    g = k / 48
    assert 3 * Fraction(g) < -M and 3 * g == -M
    assert S.curve_point(S.CurveParams(M, g)).kappa == 0
    with pytest.raises(S.InvalidCurveError, match="below -M/3"):
        S.build_system(S.CurveParams(M, g))


def test_numpy_integer_matrix_takes_exact_path():
    ints = [[3, -2], [-1, 2]]
    arr = np.array(ints)
    assert S.eigen._tridiag_exact(arr) == S.eigen._tridiag_exact(ints)
    a, b = S.eigen_solve(arr), S.eigen_solve(ints)
    assert a.exact_values is not None
    for field in ("values", "vectors", "residuals", "exact_values"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("R", [
    [[True, 0], [0, 1]],
    [[1.0, 0], [0, np.True_]],              # after a float entry: still read
    [[Fraction(1), 0, False], [0, 1, 0], [0, 0, 1]],   # off the band
], ids=["diagonal", "after-float", "off-band"])
def test_tridiag_exact_refuses_bool_anywhere(R):
    with pytest.raises(TypeError, match="bool"):
        S.eigen._tridiag_exact(R)


# ---- exact division against the bracket path it replaced ----

def _ref_polyval(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _ref_char_poly(diag, sub, sup):
    prev = [Fraction(1)]
    cur = [diag[0], Fraction(-1)]
    for k in range(1, len(diag)):
        d, ef = diag[k], sub[k - 1] * sup[k - 1]
        nxt = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(cur):
            nxt[i] += d * c
            nxt[i + 1] -= c
        for i, c in enumerate(prev):
            nxt[i] -= ef * c
        prev, cur = cur, nxt
    return cur


def _ref_exact_eigenvalues(diag, sub, sup, seeds, grid=None):
    """Newton and sign-change brackets in Fraction arithmetic: the bracket
    path that exact division replaced, as the reference.

    With grid None, the integer path's setting: float iterates
    x <- float(x - p/p'), stopping when that equals x.  With grid =
    (den_bits, stop_bits, relative), the Fraction code of the grids the
    float iterates replaced: iterates lie on 2^-(den_bits + k) and Newton
    stops once |step| 2^stop_bits < max(2^-k, |x|), where k = 0, or with
    relative k = min(max(0, -frexp(update)[1]), 104), so that 2^-k follows
    an update below 1/2 down to 2^-104.  (96, 64, True) is the last grid,
    (200, 150, False) the one before it.  Both report the step count and
    half-width the integer path reports.
    """
    p = _ref_char_poly(diag, sub, sup)
    dp = [k * c for k, c in enumerate(p)][1:]
    out = []
    for seed in seeds:
        x = Fraction(seed)
        steps = 0
        for _ in range(8):
            fx = _ref_polyval(p, x)
            if fx == 0:
                break
            dfx = _ref_polyval(dp, x)
            if dfx == 0:
                raise S.EigenCertificationError(
                    f"stationary characteristic polynomial at {float(x)}")
            step = fx / dfx
            last, x = x, x - step
            steps += 1
            if grid is None:
                x = Fraction(float(x))
                if x == last:
                    break
                continue
            den_bits, stop_bits, relative = grid
            k = min(max(0, -math.frexp(float(x))[1]), 104) if relative else 0
            scale = 1 << (den_bits + k)
            x = Fraction(round(x * scale), scale)
            if abs(step) * (1 << stop_bits) < max(Fraction(1, 1 << k), abs(x)):
                break
        h = Fraction(1, 10 ** 13) * max(1, abs(x))
        lo, hi = _ref_polyval(p, x - h), _ref_polyval(p, x + h)
        for _ in range(3):
            if lo != 0 and hi != 0:
                break
            h /= 7
            lo, hi = _ref_polyval(p, x - h), _ref_polyval(p, x + h)
        if lo == 0 or hi == 0 or (lo < 0) == (hi < 0):
            raise S.EigenCertificationError(
                f"no sign-change certificate at eigenvalue {float(x)}")
        out.append((x, h, steps))
    out.sort(key=lambda t: t[0])
    for (a, ha, _), (b, hb, _) in zip(out, out[1:]):
        if b - a <= ha + hb:
            raise S.EigenCertificationError(
                f"eigenvalue brackets at {float(a)} and {float(b)} overlap")
    return ([float(x) for x, _, _ in out], [n for _, _, n in out],
            [float(h) for _, h, _ in out])


# two gamma = k/48 per M that the bracket path certified, then curves it
# failed on: double roots (5, 48) and (15, 150), far-off seeds (15, 8) and
# (20, 33), and no sign change (20, 28)
EQUIVALENCE_CURVES = [(M, k) for M in range(1, 21)
                      for k in (41 if M == 19 else 40, 110)] + [
    (5, 48), (15, 8), (15, 150), (20, 28), (20, 33)]


def _outcome(fn):
    try:
        return fn()
    except S.EigenCertificationError as exc:
        return type(exc), str(exc)


def _closed_spectrum(M, k):
    c = S.CurveParams(M, Fraction(k, 48))
    return sorted(S.eigen_beta_closed(c, l) for l in range(0, 2 * M + 1, 2))


def _ref_tridiag(R):
    """(diag, sub, sup) of R as Fractions, read without the code under test."""
    n = len(R)
    return ([Fraction(R[i][i]) for i in range(n)],
            [Fraction(R[i + 1][i]) for i in range(n - 1)],
            [Fraction(R[i][i + 1]) for i in range(n - 1)])


def _reference_cases():
    """(where, integer tridiagonal, (diag, sub, sup), seeds, spectrum) on
    EQUIVALENCE_CURVES, (12, 144) and three small matrices; spectrum is the
    exact one, sorted, where it is rational."""
    # (12, 144) has the eigenvalue 0, which Newton nears from a nonzero seed;
    # float iterates reach it only by underflow
    matrices = [((M, k), S.reduced_matrix(
        S.build_system(S.CurveParams(M, Fraction(k, 48)))), _closed_spectrum(M, k))
        for M, k in EQUIVALENCE_CURVES + [(12, 144)]]
    # roots 0 and 1e-13: the bracket path shrank the first bracket, whose end
    # 0 + h is the other root, and then refused
    matrices.append(("shrink", [[0, 0], [0, Fraction(1, 10 ** 13)]],
                     [0, Fraction(1, 10 ** 13)]))
    # eigenvalues far below 1, which a grid fixed at 2^-96 rounded to
    # ~1e-10 relative
    matrices.append(("tiny", [[Fraction(1, 10 ** 20)]], [Fraction(1, 10 ** 20)]))
    matrices.append(("tiny pair", [[Fraction(-3, 10 ** 30), Fraction(1, 10 ** 10)],
                                   [Fraction(1, 10 ** 10), 1]], None))
    for where, R, spectrum in matrices:
        # the seeds eigen_solve polishes: real parts, even where LAPACK's
        # spectrum is complex
        vals = np.linalg.eigvals(np.array([[float(x) for x in r] for r in R]))
        yield (where, S.eigen._tridiag_exact(R), _ref_tridiag(R),
               sorted(float(v) for v in vals.real), spectrum)


def _matches_reference(grid):
    """Exact division against the bracket path it replaced, on its own
    seeds: where the reference certifies, the same number of values, each
    within 1e-12 max(1, |x|); where it refuses, exact division certifies,
    and every value is the exact spectrum's, proved (its Fraction).  A
    spectrum that is not rational, which the reference bracketed, is
    refused."""
    refused = 0
    for where, exact, tridiag, seeds, spectrum in _reference_cases():
        if spectrum is None:
            with pytest.raises(S.EigenCertificationError, match="proved 0 of 2 "):
                S.eigen._exact_eigenvalues(*exact)
            continue
        fracs = S.eigen._exact_eigenvalues(*exact)
        vals = [float(x) for x in fracs]
        old = _outcome(lambda: _ref_exact_eigenvalues(*tridiag, seeds, grid))
        if old[0] is S.EigenCertificationError:
            refused += 1
            assert fracs == spectrum, where
            assert vals == [float(x) for x in spectrum], where
            continue
        assert len(vals) == len(old[0]), where
        assert all(abs(x - y) <= 1e-12 * max(1.0, abs(y))
                   for x, y in zip(vals, old[0])), where
    assert 0 < refused < len(EQUIVALENCE_CURVES)


def test_integer_path_matches_fraction_reference():
    # float iterates x <- float(x - p/p'), the bracket path's last setting
    _matches_reference(None)


def test_integer_path_matches_the_grid_it_replaced():
    # Newton on 2^-96 to a step below 2^-64 max(1, |x|), both scaled down
    # to an update below 1/2
    _matches_reference((96, 64, True))


def test_integer_path_matches_the_finer_grid_it_replaced():
    # Newton on 2^-200 to a step below 2^-150 max(1, |x|), the grid before
    _matches_reference((200, 150, False))


def _ref_eigen_solve(matrix):
    """eigen_solve with one SVD and one residual norm per eigenvalue, as it
    was before the stacked SVD: the reference."""
    mat = np.array([[float(x) for x in row] for row in matrix], dtype=float)
    lams = [float(x) for x in S.eigen._exact_eigenvalues(*S.eigen._tridiag_exact(matrix))]
    eye = np.eye(mat.shape[0])
    out_vecs, out_res = [], []
    for lam in lams:
        vec = np.linalg.svd(mat - lam * eye)[2][-1]
        res = float(np.linalg.norm(mat @ vec - lam * vec))
        if res > 1e-10:
            raise S.EigenCertificationError(
                f"residual {res:.3e} > 1e-10 for eigenvalue {lam} of "
                f"matrix {mat.tolist()}")
        out_vecs.append(vec)
        out_res.append(res)
    return np.array(lams), np.array(out_vecs).T, np.array(out_res)


# entries ~1e9, the eigenvalues 3e8 and 1e9 + 1, and a zero super-diagonal
# (SVD vectors): rounding alone leaves the second residual ~1e-7, above the
# absolute bound 1e-10, so eigen_solve raises in its residual check
_RESIDUAL_FAILURE = [[1e9 + 1, 0.0], [1e9, 3e8]]


# the exact curves with a zero super-diagonal, the only ones on SVD vectors
_REDUCIBLE_CURVES = [(5, 60), (6, 36), (12, 96), (12, 144), (15, 72)]


def _svd_columns(R, res):
    """Which columns of eigen_solve's result are SVD vectors: all on a zero
    super-diagonal, else none."""
    return [not all(S.eigen._tridiag_exact(R)[3])] * len(res.values)


def _sign_aligned(v, w):
    return v if v @ w >= 0 else -v


def test_stacked_svd_matches_per_eigenvalue_reference():
    # values bit for bit everywhere; SVD columns (the reducible curves) bit
    # for bit; recurrence columns within 1e-12 of the reference's SVD
    # vector, up to sign; residuals within 1e-14; the same refusals.  The
    # float twins, which took the float path's SVD columns, build the matrix
    # of the dyadic rational k/48 equals, which tests/eigen_sweep.py gates
    matrices = []
    for M, k in EQUIVALENCE_CURVES:
        matrices.append(S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48)))))
        assert S.reduced_matrix(S.build_system(S.CurveParams(M, k / 48))) == S.reduced_matrix(
            S.build_system(S.CurveParams(M, Fraction(k / 48))))
    matrices += [S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))
                 for M, k in _REDUCIBLE_CURVES]
    matrices.append(_RESIDUAL_FAILURE)
    failures = recurrence = svd_columns = 0
    for R in matrices:
        try:
            want = _ref_eigen_solve(R)
        except S.EigenCertificationError as exc:
            failures += 1
            with pytest.raises(S.EigenCertificationError) as got:
                S.eigen_solve(R)
            assert str(got.value) == str(exc)
            continue
        got = S.eigen_solve(R)
        assert np.array_equal(got.values, want[0])
        assert np.max(np.abs(got.residuals - want[2])) <= 1e-14
        for k, svd in enumerate(_svd_columns(R, got)):
            v, w = got.vectors[:, k], want[1][:, k]
            if svd:
                svd_columns += 1
                assert np.array_equal(v, w)
            else:
                recurrence += 1
                assert np.max(np.abs(_sign_aligned(v, w) - w)) <= 1e-12
    assert 0 < failures < len(matrices)
    assert recurrence > 0 and svd_columns > 0


def _parent_tridiag_exact(matrix):
    """_tridiag_exact as it was before the one-pass read: _exact on every
    entry, then an isinstance pass.  The reference."""
    rows = [[S.spectrum._exact(x) for x in r] for r in matrix]
    n = len(rows)
    if any(len(r) != n or not all(isinstance(x, Fraction) for x in r) for r in rows):
        return None
    if any(any(r[:max(i - 1, 0)]) or any(r[i + 2:]) for i, r in enumerate(rows)):
        return None
    diag = [rows[i][i] for i in range(n)]
    sub = [rows[i + 1][i] for i in range(n - 1)]
    sup = [rows[i][i + 1] for i in range(n - 1)]
    L = math.lcm(*(f.denominator for f in (*diag, *sub, *sup)))

    def scaled(fs):
        return [f.numerator * (L // f.denominator) for f in fs]

    return L, scaled(diag), scaled(sub), scaled(sup)


def _parent_recurrence_vectors(L, d, l, u, roots):
    """_recurrence_vectors as it was before P and b u_n moved into locals:
    the reference."""
    ef = [0] + [s * t for s, t in zip(l, u)]
    cols = []
    for x in roots:
        a, b = x.numerator, x.denominator
        La, bb = L * a, b * b
        P, Q = [0, 1], [1]
        for dn, e in zip(d, ef):
            P.append((La - b * dn) * P[-1] - bb * e * P[-2])
        if P.pop():
            raise S.EigenCertificationError(
                f"the three-term recurrence leaves a nonzero last row at eigenvalue {x}")
        for un in u:
            Q.append(Q[-1] * b * un)
        s = max(p.bit_length() - q.bit_length() for p, q in zip(P[1:], Q))
        cols.append([p / (q << s) if s >= 0 else (p << -s) / q for p, q in zip(P[1:], Q)])
    vecs = np.array(cols).T
    return vecs / np.linalg.norm(vecs, axis=0)


# The root search as it was before p-adic lifting, frozen as the reference:
# LAPACK's eigenvalues seed float64 Newton on the integer polynomial, and the
# continued-fraction convergents of its iterates are tried by exact division.
_FROZEN_NEWTON_CAP = 64           # Newton steps per seed
_FROZEN_MAX_ROOT_DEN = 1 << 30    # largest denominator tried as a rational root
_FROZEN_WALK_TOL = 2.0 ** -30     # convergents tried within max(1, |x|) of this of x


def _frozen_homogeneous(coeffs, a, e):
    """(b^d p(a/b), b^(d-1) p'(a/b)) at b = 2^e, in integers."""
    h, dh, k = coeffs[-1], 0, 0
    for c in reversed(coeffs[:-1]):
        k += e
        dh = dh * a + h
        h = h * a + (c << k)
    return h, dh


def _frozen_rational_root(p, x):
    """(a, b, p / (b t - a)) for the first convergent a/b of the float x,
    b <= 2^30 and within 2^-30 max(1, |x|) of x, that divides p; else None."""
    num, den = x.as_integer_ratio()
    a0, a, b0, b = 0, 1, 1, 0
    tol = max(1.0, abs(x)) * _FROZEN_WALK_TOL
    while den:
        q, r = divmod(num, den)
        a0, a, b0, b = a, q * a + a0, b, q * b + b0
        if b > _FROZEN_MAX_ROOT_DEN:
            return None
        if a and abs(x - a / b) <= tol:
            quo = S.eigen._divide(p, a, b)
            if quo is not None:
                return a, b, quo
        num, den = den, r
    return None


def _frozen_newton(p, x):
    """(steps, hit): float64 Newton on p from x, its iterates evaluated
    exactly; the first iterate whose update is within the walk tolerance is
    walked at once, and otherwise the iterate Newton stops at."""
    steps, early = 0, True
    while steps < _FROZEN_NEWTON_CAP:
        a, b = x.as_integer_ratio()
        e = b.bit_length() - 1
        H, dH = _frozen_homogeneous(p, a, e)
        if H == 0 or dH == 0:
            break
        x, last = (a * dH - H) / (dH << e), x
        steps += 1
        if x == last:
            break
        if early and abs(x - last) <= max(1.0, abs(x)) * _FROZEN_WALK_TOL:
            early = False
            hit = _frozen_rational_root(p, x)
            if hit is not None:
                return steps, hit
    return steps, _frozen_rational_root(p, x)


def _frozen_exact_eigenvalues(L, d, l, u):
    """_exact_eigenvalues as it was, with LAPACK's seeds from the float
    matrix eigen_solve built: the root 0 first, then each seed polished and
    walked, each proved root divided out as often as it divides and the
    seeds nearest its repeats retired.  The sorted Fractions, or the same
    refusal with the count proved."""
    n = len(d)
    mat = np.zeros((n, n))
    for start, band in ((0, d), (n, l), (1, u)):
        mat.flat[start::n + 1] = [x / L for x in band]
    seeds = sorted(float(v) for v in np.linalg.eigvals(mat).real)
    p = S.eigen._char_poly(L, d, l, u)
    zeros = next(i for i, c in enumerate(p) if c)
    roots, p = [Fraction(0)] * zeros, p[zeros:]

    def consume(r, m):
        for _ in range(min(m, len(seeds))):
            seeds.remove(min(seeds, key=lambda s: abs(s - r)))

    consume(0.0, zeros)
    while seeds and len(p) > 2:
        _, hit = _frozen_newton(p, seeds.pop(0))
        if hit is None:
            continue
        a, b, p = hit
        roots.append(Fraction(a, b))
        while (q := S.eigen._divide(p, a, b)) is not None:
            p = q
            roots.append(Fraction(a, b))
            consume(a / b, 1)
    if len(p) > 2:
        raise S.EigenCertificationError(
            f"proved {len(roots)} of {len(d)} eigenvalues by exact division; "
            f"no rational root found for the degree-{len(p) - 1} rest")
    if len(p) == 2:
        roots.append(Fraction(-p[0], p[1]))
    return sorted(roots)


def _parent_eigen_solve(matrix):
    """eigen_solve on exact tridiagonal input as it was before the one-pass
    read, the in-place float matrix, the local recurrence and p-adic
    lifting: the frozen _tridiag_exact, np.diag assembly,
    _recurrence_vectors and root search.  The reference."""
    exact = _parent_tridiag_exact(matrix)
    L, d, l, u = exact
    mat = (np.diag([x / L for x in d]) + np.diag([x / L for x in l], -1)
           + np.diag([x / L for x in u], 1))
    fracs = _frozen_exact_eigenvalues(*exact)
    lams = [float(x) for x in fracs]
    lam = np.array(lams)
    proved = fracs if all(u) else (None,) * len(lams)
    vecs = np.empty((len(lams), len(mat))).T
    cols = [k for k, x in enumerate(proved) if x is not None]
    if cols:
        vecs[:, cols] = _parent_recurrence_vectors(*exact, [proved[k] for k in cols])
    rest = [k for k, x in enumerate(proved) if x is None]
    if rest:
        vecs[:, rest] = np.linalg.svd(
            mat - lam[rest, None, None] * np.eye(len(mat)))[2][:, -1].T
    res = np.linalg.norm(mat @ vecs - vecs * lam, axis=0)
    bad = np.nonzero(res > 1e-10)[0]
    if len(bad):
        i = bad[0]
        raise S.EigenCertificationError(
            f"residual {res[i]:.3e} > 1e-10 for eigenvalue {lams[i]} of "
            f"matrix {mat.tolist()}")
    return S.EigenResult(values=lam, vectors=vecs, residuals=res,
                         exact_values=tuple(fracs))


def _bits(result):
    """Every EigenResult field, arrays as (dtype, shape, strides, bytes)."""
    return tuple(v if f == "exact_values" else (v.dtype, v.shape, v.strides, v.tobytes())
                 for f in ("values", "vectors", "residuals", "exact_values")
                 for v in [getattr(result, f)])


# hand-built exact matrices: irrational roots (one 2x2, one 3x3; refused on
# both sides), a root 0 beside 1e-13 (reducible, and by recurrence), a tiny
# 1x1, a triple root and numpy integers
_HAND_BUILT = [[[1, 1], [1, 0]], [[1, 1, 0], [1, 0, 1], [0, 1, 2]],
               [[0, 0], [0, Fraction(1, 10 ** 13)]], [[0, 1], [0, Fraction(1, 10 ** 13)]],
               [[Fraction(1, 10 ** 20)]],
               [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -1]],
               np.array([[3, -2], [-1, 2]])]

# the curves of the frozen comparisons: EQUIVALENCE_CURVES, the reducible
# (5, 60/48) and (12, 144/48), which has the eigenvalue 0
_FROZEN_CURVES = EQUIVALENCE_CURVES + [(5, 60), (12, 144)]


def test_exact_path_is_bit_identical_to_frozen_assembly():
    # every field bit for bit, or the same refusal, against the frozen
    # assembly and Newton search, on the frozen curves and _HAND_BUILT
    matrices = [S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))
                for M, k in _FROZEN_CURVES] + _HAND_BUILT
    refused = 0
    for R in matrices:
        assert S.eigen._tridiag_exact(R) == _parent_tridiag_exact(R)
        got = _outcome(lambda: _bits(S.eigen_solve(R)))
        assert got == _outcome(lambda: _bits(_parent_eigen_solve(R)))
        refused += got[0] is S.EigenCertificationError
    assert refused == 2
    # a float twin is read as the dyadic rationals its entries equal
    F = [[float(x) for x in r] for r in matrices[0]]
    assert S.eigen._tridiag_exact(F) == _parent_tridiag_exact(
        [[Fraction(x) for x in r] for r in F])


def test_lifting_matches_frozen_newton_search():
    # the same Fractions, or the same refusal text with its count, as the
    # frozen seeds, Newton and convergent walks, on the frozen curves and
    # _HAND_BUILT
    matrices = [S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))
                for M, k in _FROZEN_CURVES] + _HAND_BUILT
    for R in matrices:
        exact = S.eigen._tridiag_exact(R)
        got = _outcome(lambda: S.eigen._exact_eigenvalues(*exact))
        assert got == _outcome(lambda: _frozen_exact_eigenvalues(*exact)), R


def _with_off_band(R, fill):
    """R with every entry off the tridiagonal replaced by fill(i, j)."""
    return [[x if abs(i - j) <= 1 else fill(i, j) for j, x in enumerate(r)]
            for i, r in enumerate(R)]


def test_tridiag_exact_takes_equal_zeros_and_refuses_anything_else():
    R = S.reduced_matrix(S.build_system(S.CurveParams(5, Fraction(40, 48))))
    want = _parent_tridiag_exact(R)
    # zeros equal to the shared one but not identical to it
    for zero in (lambda i, j: 0, lambda i, j: Fraction(0), lambda i, j: 0 if i > j else Fraction(0)):
        assert S.eigen._tridiag_exact(_with_off_band(R, zero)) == want
    # a float zero is the rational 0
    assert S.eigen._tridiag_exact(_with_off_band(R, lambda i, j: 0.0)) == want
    # one nonzero or NaN entry behind shared zeros, the corner included, is
    # refused by name, where the frozen copy returns None (the float path)
    for i, j in ((5, 0), (0, 5), (3, 1), (0, 2), (5, 3)):
        for bad in (Fraction(1, 10 ** 30), -1, float("nan")):
            M = [list(r) for r in R]
            M[i][j] = bad
            assert _parent_tridiag_exact(M) is None
            with pytest.raises(ValueError, match=re.escape(f"got {bad} at ({i}, {j})")):
                S.eigen._tridiag_exact(M)
    # every off-band entry one shared nonzero: the first is named
    one = Fraction(1, 3)
    with pytest.raises(ValueError, match=re.escape("tridiagonal matrix, got 1/3 at (0, 2)")):
        S.eigen._tridiag_exact(_with_off_band(R, lambda i, j: one))


# 1-d and 0-d input, rows without a length, raised TypeError: object of
# type 'float' has no len()
@pytest.mark.parametrize("matrix", [
    [], np.zeros((0, 0)), [[Fraction(1), 0], [0]], [[1, 2, 3]],
    [1.0, 2.0], np.array([1.0, 2.0]), np.float64(2.0), np.array(3.0),
], ids=["empty-list", "empty-array", "ragged", "not-square",
        "1-d-list", "1-d-array", "scalar", "0-d"])
def test_eigen_solve_refuses_empty_ragged_and_non_square(matrix):
    with pytest.raises(ValueError, match="nonempty square matrix"):
        S.eigen_solve(matrix)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigen_solve_refuses_a_non_finite_entry_naming_it(bad):
    # LAPACK raised LinAlgError: Array must not contain infs or NaNs
    with pytest.raises(ValueError, match=re.escape(f"got {bad} at (1, 0)")):
        S.eigen_solve([[1.0, 0.0], [bad, 2.0]])
    with pytest.raises(ValueError, match=re.escape(f"got {bad} at (0, 0)")):
        S.eigen_solve([[bad, 0.0], [0.0, 1.0]])


def _exact_recurrence(R, lam):
    """psi from psi_0 = 1 by R's three-term recurrence, in Fractions."""
    psi = [Fraction(1)]
    for n in range(len(R) - 1):
        below = R[n][n - 1] * psi[n - 1] if n else 0
        psi.append(((lam - R[n][n]) * psi[n] - below) / R[n][n + 1])
    return psi


@pytest.mark.parametrize("M,k", [(3, 40), (10, 110), (15, 150), (20, 28)])
def test_recurrence_vectors_are_exact_eigenvectors(M, k):
    # (R - lambda I) psi = 0 in Fractions, last row included, and eigen_solve's
    # column is psi/||psi|| to rounding; (15, 150) has double eigenvalues
    R = S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))
    res = S.eigen_solve(R)
    assert not any(_svd_columns(R, res))
    for j, lam in enumerate(res.exact_values):
        psi = _exact_recurrence(R, lam)
        assert all(sum(R[n][m] * psi[m] for m in range(len(R))) == lam * psi[n]
                   for n in range(len(R)))
        v = np.array([float(x) for x in psi])
        assert np.max(np.abs(res.vectors[:, j] - v / np.linalg.norm(v))) <= 1e-15
        assert res.residuals[j] <= 1e-14


def test_nonzero_last_row_is_refused():
    # [[2, 1], [1, 2]] has the eigenvalues 1 and 3; at 2 the last row is -1
    with pytest.raises(S.EigenCertificationError, match="nonzero last row at eigenvalue 2"):
        S.eigen._recurrence_vectors(*S.eigen._tridiag_exact([[2, 1], [1, 2]]), [Fraction(2)])


@pytest.mark.parametrize("R", [
    S.reduced_matrix(S.build_system(S.CurveParams(5, Fraction(60, 48)))),
], ids=["reducible-(5,60/48)"])
def test_exact_input_without_exact_vectors_takes_svd_columns(R):
    # a zero super-diagonal stops the recurrence: the reference's SVD
    # columns bit for bit
    got, want = S.eigen_solve(R), _ref_eigen_solve(R)
    assert all(_svd_columns(R, got))
    assert np.array_equal(got.values, want[0]) and np.array_equal(got.vectors, want[1])
    assert np.max(np.abs(got.residuals - want[2])) <= 1e-14


@pytest.mark.parametrize("R,vectors", [
    ([[Fraction(1, 10 ** 20)]], [[1.0]]),
    ([[0, 0], [0, Fraction(1, 10 ** 13)]], [[1.0, 0.0], [0.0, 1.0]]),   # reducible
    ([[0, 1], [0, Fraction(1, 10 ** 13)]], None),                       # root 0 by recurrence
], ids=["1x1-tiny", "root-0-reducible", "root-0-recurrence"])
def test_one_by_one_and_root_zero_certify(R, vectors):
    res = S.eigen_solve(R)
    assert all(x is not None for x in res.exact_values)
    assert max(res.residuals) <= 1e-10
    if vectors is not None:
        assert np.allclose(np.abs(res.vectors), vectors, rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4])
def test_recurrence_components_beyond_the_float_range(n):
    # upper bidiagonal, super-diagonal 10^-200: psi_n at the top eigenvalue
    # grows like 10^(200 n), past the float range, yet no OverflowError
    tiny = Fraction(1, 10 ** 200)
    R = [[Fraction(i + 1) if i == j else tiny if j == i + 1 else 0 for j in range(n)]
         for i in range(n)]
    res = S.eigen_solve(R)
    assert res.exact_values == tuple(Fraction(i + 1) for i in range(n))
    assert np.all(np.isfinite(res.vectors)) and max(res.residuals) <= 1e-10
    assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0, rtol=0, atol=1e-15)
    assert abs(res.vectors[-1, -1]) == 1.0   # the top eigenvector is e_n to rounding


# Defects of the bracket path, now certified by exact division: a double
# eigenvalue has no sign change and LAPACK splits it into a complex pair;
# at (20, 28/48) a seed's bracket missed the sign change.
@pytest.mark.parametrize("M,g", [(5, Fraction(1)), (15, Fraction(150, 48)),
                                 (20, Fraction(28, 48))])
def test_certifies_spectrum_on_open_defect_curves(M, g):
    c = S.CurveParams(M, g)
    res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
    want = sorted(float(S.eigen_beta_closed(c, l)) for l in range(0, 2 * M + 1, 2))
    assert len(res.values) == len(want)
    assert max(abs(a - b) for a, b in zip(res.values, want)) < 1e-10


# Every exact curve (M <= 20, gamma = k/48) that the bracket path refused,
# (M, k) by its message: double eigenvalues that LAPACK split into complex
# pairs, seeds whose bracket held no sign change, and one pair of
# overlapping brackets
_FORMERLY_COMPLEX = [
    (5, 48), (14, 8), (14, 43), (15, 8), (15, 150), (16, 8), (17, 8), (17, 102),
    (18, 24), (18, 43), (18, 61), (18, 101), (18, 102), (18, 123), (19, 5), (19, 6),
    (19, 7), (19, 8), (19, 21), (19, 23), (19, 24), (19, 25), (19, 26), (19, 27),
    (19, 40), (19, 60), (19, 61), (19, 80), (19, 81), (19, 100), (19, 101),
    (19, 122), (19, 144), (20, 5), (20, 7), (20, 8), (20, 9), (20, 10), (20, 12),
    (20, 17), (20, 20), (20, 23), (20, 24), (20, 25), (20, 26), (20, 31), (20, 36),
    (20, 39), (20, 41), (20, 42), (20, 47), (20, 57), (20, 60), (20, 63), (20, 78),
    (20, 79), (20, 80), (20, 82), (20, 99), (20, 101), (20, 102), (20, 143)]
_FORMERLY_NO_SIGN_CHANGE = [(6, 96), (20, 28), (20, 33), (20, 100), (20, 121)]
_FORMERLY_OVERLAPPING = [(19, 22)]
FORMERLY_FAILING = _FORMERLY_COMPLEX + _FORMERLY_NO_SIGN_CHANGE + _FORMERLY_OVERLAPPING


def test_certifies_every_formerly_failing_curve():
    assert len(set(FORMERLY_FAILING)) == 68
    repeated = 0
    for M, k in FORMERLY_FAILING:
        c = S.CurveParams(M, Fraction(k, 48))
        res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
        closed = _closed_spectrum(M, k)
        scale = max(1.0, max(abs(float(v)) for v in closed))
        assert len(res.values) == len(closed), (M, k)
        assert max(abs(a - float(b)) for a, b in zip(res.values, closed)) <= 1e-10 * scale
        # every eigenvalue is proved: its exact Fraction
        assert list(res.exact_values) == closed
        bt = S.select_beta_tilde(res, c)
        assert abs(bt - float(S.beta_tilde_on_curve(c))) <= 1e-9 * scale, (M, k)
        repeated += len(set(closed)) < len(closed)
    assert repeated == 5   # every exact curve with a double eigenvalue is here


def test_repeated_eigenvalues_are_proved_on_the_squarefree_part():
    # (15, 150/48) has double eigenvalues: each is a double root mod q, which
    # no pass on p lifts.  The simple ones are proved at 1009; the pass at
    # 1013 proves nothing and turns the search to the squarefree part, where
    # each double eigenvalue is simple mod 1019, and each divides p twice
    c = S.CurveParams(15, Fraction(150, 48))
    res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
    assert len(set(res.values)) < len(res.values)
    assert list(res.exact_values) == _closed_spectrum(15, 150)


# ---- exact input off the curves: the degree-1 remainder and the refusal ----

def test_degree_one_remainder_is_its_own_root():
    # no search: the polynomial 1 - 10^20 x divides itself
    res = S.eigen_solve([[Fraction(1, 10 ** 20)]])
    assert res.exact_values == (Fraction(1, 10 ** 20),)
    assert list(res.values) == [1e-20]


def test_root_zero_comes_off_first():
    # "shrink": the bracket path refused it; 0 divides out as the factor x,
    # and 1e-13 is the degree-1 remainder's root
    res = S.eigen_solve([[0, 0], [0, Fraction(1, 10 ** 13)]])
    assert res.exact_values == (Fraction(0), Fraction(1, 10 ** 13))
    assert list(res.values) == [0.0, 1e-13]


def test_multiplicity_comes_from_division():
    # (x - 2)^3 (x + 1), the integer tridiagonal (L, d, l, u) of
    # diag(2, 2, 2, -1): -1 is proved at 1009; 2 is a triple root mod q, so
    # the pass at 1013 proves nothing and turns the search to the squarefree
    # part x - 2, whose root 2 is proved at 1019, and (x - 2) divides p
    # three times
    fracs = S.eigen._exact_eigenvalues(1, [2, 2, 2, -1], [0] * 3, [0] * 3)
    assert fracs == [-1, 2, 2, 2] and all(type(x) is Fraction for x in fracs)


def _roots_mod_primes(monkeypatch):
    """The primes q at which _roots_mod is called, in order, under a patch."""
    primes, roots_mod = [], S.eigen._roots_mod

    def recorded(p, q):
        primes.append(q)
        return roots_mod(p, q)

    monkeypatch.setattr(S.eigen, "_roots_mod", recorded)
    return primes


def test_roots_congruent_mod_the_first_prime_take_the_next(monkeypatch):
    # 100 and 1109 are one double root mod 1009, which is not lifted: the
    # pass proves nothing and turns the search to the squarefree part, p
    # itself, whose roots are both simple mod 1013
    R = [[100, 2], [0, 1109]]
    p = S.eigen._char_poly(*S.eigen._tridiag_exact(R))
    assert S.eigen._roots_mod(p, 1009) == [100]
    assert S.eigen._roots_mod(p, 1013) == [96, 100]
    primes = _roots_mod_primes(monkeypatch)
    res = S.eigen_solve(R)
    assert res.exact_values == (100, 1109) and primes == [1009, 1013]
    assert max(res.residuals) <= 1e-10


def test_denominators_beyond_two_to_the_thirty_are_proved(monkeypatch):
    # 3^21 and 5^14 exceed 2^30, the largest denominator a float convergent
    # walk tried: lifting proves both at the first prime.  Their residues
    # mod 1009 (817, 886) come before that of -5 (1004), which is rebuilt
    # at q^2, below the modulus that took 1/3^21, since q^2 exceeds the
    # bound of the rest (x + 5)(x + 2); -2 is then the degree-1 remainder
    R = [[Fraction(1, 3 ** 21), 1, 0, 0], [0, Fraction(-2, 5 ** 14), 1, 0],
         [0, 0, -5, 1], [0, 0, 0, -2]]
    primes = _roots_mod_primes(monkeypatch)
    res = S.eigen_solve(R)
    assert res.exact_values == (-5, -2, Fraction(-2, 5 ** 14), Fraction(1, 3 ** 21))
    assert min(x.denominator for x in res.exact_values[2:]) > 2 ** 30
    assert primes == [1009] and max(res.residuals) <= 1e-10


def test_squarefree_search_divides_each_root_out_with_its_multiplicity(monkeypatch):
    # 100 and 1109 are one residue mod 1009, of multiplicity 4, which is not
    # lifted: the pass proves nothing, so the second pass, at 1013, searches
    # the squarefree part (x - 100)(x - 1109), and each root it proves comes
    # out of p twice
    primes = _roots_mod_primes(monkeypatch)
    calls, squarefree = [], S.eigen._squarefree
    monkeypatch.setattr(S.eigen, "_squarefree", lambda p: calls.append(p) or squarefree(p))
    fracs = S.eigen._exact_eigenvalues(1, [100, 100, 1109, 1109], [0] * 3, [0] * 3)
    assert fracs == [100, 100, 1109, 1109] and all(type(x) is Fraction for x in fracs)
    assert primes == [1009, 1013] and len(calls) == 1
    assert squarefree(calls[0]) == [110900, -1209, 1]
    # primitive, with p's leading sign: (x - 1)^2 (x - 2) and its negative
    assert squarefree([-2, 5, -4, 1]) == [2, -3, 1]
    assert squarefree([2, -5, 4, -1]) == [-2, 3, -1]


def _curve_matrix(M, k):
    return S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))


# ---- the search against the one it replaced: derivative lift and pass count ----

def _frozen_lifted_root(p, r, q, floor):
    """_lifted_root as it was: r lifted on the first derivative of p of which
    it is a simple root mod q, the rebuilt a/b proved on p."""
    f = p
    while (h := S.eigen._horner(f, r, q * q))[1] % q == 0:
        f = [k * c for k, c in enumerate(f)][1:]
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
            if a and (quo := S.eigen._divide(p, a, b)) is not None:
                return f is p, (a, b, quo, m)
        if m > bound:
            return f is p, None
        h = S.eigen._horner(f, r, m * m)


def _frozen_counted_eigenvalues(L, d, l, u):
    """_exact_eigenvalues as it was: the derivative lift, the switch to the
    squarefree part, and a refusal on an all-simple pass or on a run of
    unproductive passes of the squarefree part past Mignotte's count."""
    p = S.eigen._char_poly(L, d, l, u)
    zeros = next(i for i, c in enumerate(p) if c)
    roots, p = [Fraction(0)] * zeros, p[zeros:]
    s = None
    q, idle, floor = max(1009, len(p)) - 1, 0, 0
    while len(p) > 2:
        q = next(n for n in itertools.count(q + 1)
                 if p[-1] % n and all(n % k for k in range(2, math.isqrt(n) + 1)))
        found, simple = False, True
        for r in S.eigen._roots_mod(p if s is None else s, q):
            simple_r, hit = _frozen_lifted_root(p if s is None else s, r, q, floor)
            simple = simple and simple_r
            if hit is not None:
                a, b, quo, floor = hit
                if s is None:
                    p = quo
                    roots.append(Fraction(a, b))
                else:
                    s = quo
                while (quo := S.eigen._divide(p, a, b)) is not None:
                    p = quo
                    roots.append(Fraction(a, b))
                found = True
                if len(p) <= 2:
                    break
        idle = 0 if found else idle + 1
        if not found and not simple and s is None:
            s, idle = S.eigen._squarefree(p), 0
        elif not found and (simple or 9 * idle >= len(s) * (
                max(abs(c) for c in s).bit_length() + 2)):
            raise S.EigenCertificationError(
                f"proved {len(roots)} of {len(d)} eigenvalues by exact division; "
                f"no rational root found for the degree-{len(p) - 1} rest")
    if len(p) == 2:
        roots.append(Fraction(-p[0], p[1]))
    return sorted(roots)


# the exact curves with a repeated eigenvalue, all of them up to M = 20
_REPEATED = [(5, 48), (6, 96), (15, 150), (17, 102), (19, 144)]


@pytest.mark.parametrize("M,k", [(24, 79), (24, 151)], ids=["(24,79/48)", "(24,151/48)"])
def test_curves_refused_by_newton_are_proved(M, k):
    # the float Newton search refused both curves, proving 23 of 25: their
    # last rational pairs have 23- to 25-bit denominators, at or beyond a
    # float64 convergent's reach.  Every eigenvalue is now the closed beta_l
    res = S.eigen_solve(_curve_matrix(M, k))
    assert list(res.exact_values) == _closed_spectrum(M, k)
    assert max(res.residuals) <= 1e-10


def _blocks(*blocks):
    """The block-diagonal tridiagonal of 2x2 blocks, zeros between them."""
    n = 2 * len(blocks)
    R = [[0] * n for _ in range(n)]
    for i, B in enumerate(blocks):
        for r in range(2):
            R[2 * i + r][2 * i:2 * i + 2] = B[r]
    return R


# (x^2 - a)(x^2 - b)(x^2 - ab) has roots mod every prime, since one of a, b
# and ab is a square mod q; squared, none of them is simple
def _roots_mod_every_prime(a, b):
    return _blocks(*[[[0, c], [1, 0]] for c in (a, b, a * b, a, b, a * b)])


# (R, proved, rest, passes) per refused exact matrix, and its test id
_REFUSED = [
    ([[1, 1], [1, 0]], 0, 2, 1),                                 # x^2 - x - 1
    ([[0, -1], [1, 0]], 0, 2, 1),                                # x^2 + 1
    ([[0, 0, 0], [0, 0, -1], [0, 1, 0]], 1, 2, 1),               # x (x^2 + 1)
    ([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]], 0, 4, 2),   # (x^2 - 2)^2
    (_roots_mod_every_prime(2, 3), 0, 12, 2),
    (_roots_mod_every_prime(10 ** 20 + 39, 10 ** 20 + 51), 0, 12, 2),
    # (3x - 2^45 - 1)(x^2 - 2): the rational root needs a modulus above
    # 2 (2^45)^2, near the bound 2 max(|p_0|, |p_d|)^2 = 2 (2^46 + 2)^2
    ([[Fraction(2 ** 45 + 1, 3), 0, 0], [0, 0, 2], [0, 1, 0]], 1, 2, 2),
    # x^2 - D, D = 1009 1013 1019, is squarefree, but 0 is a double root of
    # it mod each of the first three primes: three unproductive passes that
    # are not all simple, then 1021, where every residue is simple
    ([[0, 1009 * 1013 * 1019], [1, 0]], 0, 2, 4),
]
_REFUSED_IDS = ["x^2-x-1", "complex", "0-and-complex", "double-sqrt2",
                "roots-mod-every-prime", "roots-mod-every-prime-1e20",
                "large-root-and-sqrt2", "double-residue-mod-three-primes"]


@pytest.mark.parametrize("R,proved,rest,passes", _REFUSED, ids=_REFUSED_IDS)
def test_exact_input_without_a_rational_rest_is_refused(R, proved, rest, passes, monkeypatch):
    # exact input proves every eigenvalue by division or is refused with the
    # count proved, on a proof that the rest has no rational root:
    # irrational, complex and repeated irrational roots alike.  Most are
    # refused at the first pass whose roots mod q are all simple; (x^2 - 2)^2
    # and x^2 - 2 have none mod 1013, the second prime.  The block matrices
    # have double roots mod every prime: the first pass proves nothing and
    # turns the search to the squarefree part, whose roots mod 1013 are all
    # simple, at any size of a and b.  x^2 - D ends with no pass count: a
    # residue of a squarefree polynomial is not simple only at the primes
    # that divide its discriminant, here 4D
    n = proved + rest
    primes = _roots_mod_primes(monkeypatch)
    with pytest.raises(S.EigenCertificationError) as exc:
        S.eigen_solve(R)
    assert str(exc.value) == (f"proved {proved} of {n} eigenvalues by exact division; "
                              f"no rational root found for the degree-{rest} rest")
    assert len(primes) == passes
    assert "irrational" not in str(exc.value)
    # a float twin that equals R is refused with the same message: x^2 - x - 1
    # as floats no longer gets LAPACK's golden-ratio pair
    F = [[float(x) for x in r] for r in R]
    if F == R:
        with pytest.raises(S.EigenCertificationError) as twin:
            S.eigen_solve(F)
        assert str(twin.value) == str(exc.value)


# every hand-built exact matrix above whose search takes a pass: the refused
# ones, _HAND_BUILT but for the 1x1 and the two with roots 0 and 1e-13 (no
# pass: a degree-1 rest), the irrational "tiny pair", [[2, 1], [1, 2]], the
# roots congruent mod 1009, the large denominators, the upper bidiagonals
# and the diagonal matrix with two double roots
_SEARCHED = [R for R, *_ in _REFUSED] + [
    m for m in _HAND_BUILT if len(m) > 1 and m[1][1] != Fraction(1, 10 ** 13)] + [
    [[Fraction(-3, 10 ** 30), Fraction(1, 10 ** 10)], [Fraction(1, 10 ** 10), 1]],
    [[2, 1], [1, 2]], [[100, 2], [0, 1109]],
    [[Fraction(1, 3 ** 21), 1, 0, 0], [0, Fraction(-2, 5 ** 14), 1, 0],
     [0, 0, -5, 1], [0, 0, 0, -2]],
    *([[Fraction(i + 1) if i == j else Fraction(1, 10 ** 200) if j == i + 1 else 0
        for j in range(n)] for i in range(n)] for n in (3, 4)),
    [[100, 0, 0, 0], [0, 100, 0, 0], [0, 0, 1109, 0], [0, 0, 0, 1109]]]


def test_search_matches_the_derivative_lift_and_pass_count(monkeypatch):
    # the same Fractions, or the same refusal text, as the frozen search with
    # the derivative lift and the Mignotte pass count: on the five curves
    # with a repeated eigenvalue, the frozen curves, curves sampled at
    # M = 21..60 and every hand-built exact matrix that the search reaches
    primes = _roots_mod_primes(monkeypatch)
    curves = _REPEATED + _FROZEN_CURVES + [(24, 79), (24, 151)] + [
        (M, k) for M in (21, 24, 28, 32, 40, 60) for k in (7, 43, 85, 157)]
    matrices = [_curve_matrix(M, k) for M, k in curves]
    refused = 0
    for i, R in enumerate(matrices + _SEARCHED):
        exact = S.eigen._tridiag_exact(R)
        primes.clear()
        got = _outcome(lambda: S.eigen._exact_eigenvalues(*exact))
        assert got == _outcome(lambda: _frozen_counted_eigenvalues(*exact)), R
        assert primes or i < len(matrices), R
        refused += got[0] is S.EigenCertificationError
    assert refused == len(_REFUSED) + 3


# ---- closed-form eigenvalues ----

@pytest.mark.parametrize("M", range(0, 11))
def test_reduced_eigenvalues_match_closed_form(M):
    for g in curve_gammas(M, 3, seed=100 + M):
        c = S.CurveParams(M, g)
        res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
        want = sorted(float(S.eigen_beta_closed(c, l)) for l in range(0, 2 * M + 1, 2))
        got = sorted(res.values)
        scale = max(1.0, max(abs(v) for v in want))
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-10 * scale


def test_antisymmetric_eigenvalues_are_odd_levels():
    c = S.CurveParams(2, Fraction(1, 2))
    res = S.eigen_solve(_scalar_band_matrix(S.build_system(c), range(1, 3), False))
    want = sorted(float(S.eigen_beta_closed(c, l)) for l in (1, 3))
    assert np.allclose(sorted(res.values), want, atol=1e-12)


@given(M=st.integers(0, 6), lam=st.integers(0, 12))
def test_beta_from_lambda_interpolates_levels(M, lam):
    if lam > 2 * M:
        return
    c = S.CurveParams(M, Fraction(2, 3))
    try:
        S.curve_point(c)
    except S.InvalidCurveError:
        return
    assert beta_from_lambda(c, lam) == S.eigen_beta_closed(c, lam)


# ---- selection ----

def test_selection_picks_top_and_nonnegative():
    c = S.CurveParams(1, 1)
    res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
    bt = S.select_beta_tilde(res, c)
    assert bt == pytest.approx(4.0, abs=1e-12)
    assert bt == pytest.approx(float(S.beta_tilde_on_curve(c)), abs=1e-10)


@pytest.mark.parametrize("M", range(1, 7))
def test_selection_agrees_with_piecewise_rule(M):
    gM = S.gamma_transition(M)
    for g in (Fraction(1, 32), Fraction(3, 4), Fraction(3, 2)):
        if abs(float(g) - gM) < 1e-3:
            continue
        c = S.CurveParams(M, g)
        try:
            S.curve_point(c)
        except S.InvalidCurveError:
            continue
        res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
        bt = S.select_beta_tilde(res, c)
        assert bt == pytest.approx(float(S.beta_tilde_on_curve(c)), abs=1e-9)


def _angular_profile(vec, x_grid):
    """Psi = psi_0 + 2 sum_n psi_n T_n(1 - 2x) on x_grid by numpy's Clenshaw
    chebval, as select_beta_tilde evaluated profiles before the fixed
    Chebyshev basis: the reference."""
    cheb = np.concatenate(([vec[0]], 2.0 * vec[1:]))
    return np.polynomial.chebyshev.chebval(1.0 - 2.0 * x_grid, cheb)


def _clenshaw_select_beta_tilde(result, curve):
    """select_beta_tilde as it was before the fixed Chebyshev basis: a fresh
    grid per call and _angular_profile.  The reference (tests/eigen_sweep.py
    checks it on every curve)."""
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
    raise S.EigenCertificationError(
        f"the spectral maximum {top} has no nonnegative profile on (M={curve.M}, "
        f"gamma={curve.gamma})")


def _ref_select_beta_tilde(result, curve):
    """select_beta_tilde as it was before it read only the top of the
    spectrum: every profile tested, the largest passing value kept, then
    checked against the spectral maximum.  The reference."""
    x_grid = np.linspace(0.0, 1.0, 1024)
    candidates = []
    for k, lam in enumerate(result.values):
        prof = _angular_profile(result.vectors[:, k], x_grid)
        if prof[np.argmax(np.abs(prof))] < 0:
            prof = -prof
        if prof.min() >= -1e-10 * max(1.0, prof.max()):
            candidates.append(float(lam))
    if not candidates:
        raise S.EigenCertificationError("no eigenvalue with nonnegative profile")
    pick = max(candidates)
    top = float(np.max(result.values))
    if abs(pick - top) > 1e-10 * max(1.0, abs(top)):
        raise S.EigenCertificationError("not the spectral maximum")
    return pick


def _select_outcome(result, curve, select):
    try:
        return select(result, curve)
    except S.EigenCertificationError as exc:
        return type(exc)


def test_selection_matches_all_profiles_reference():
    selected = 0
    for M, k in EQUIVALENCE_CURVES:
        for g in (Fraction(k, 48), k / 48):   # exact and float twins
            c = S.CurveParams(M, g)
            R = S.reduced_matrix(S.build_system(c))
            # the float twin's matrix is that of the dyadic rational g equals
            assert R == S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(g))))
            try:
                res = S.eigen_solve(R)
            except S.EigenCertificationError:
                continue
            got = _select_outcome(res, c, S.select_beta_tilde)
            assert got == _select_outcome(res, c, _ref_select_beta_tilde), (M, g)
            selected += isinstance(got, float)
    assert selected > 60


def _two_level_result(values, columns):
    """A hand-built EigenResult on M = 1: psi = (psi_0, psi_1) per value."""
    return S.EigenResult(values=np.array(values), vectors=np.array(columns).T,
                         residuals=np.zeros(len(values)),
                         exact_values=tuple(map(Fraction, values)))


# psi = (1, 0) has the constant profile 1; psi = (0, 1) has 2 (1 - 2x),
# which changes sign on [0, 1]
_FLAT, _SIGN_CHANGE = (1.0, 0.0), (0.0, 1.0)


def test_selection_raises_when_the_top_profile_changes_sign():
    c = S.CurveParams(1, Fraction(1))
    res = _two_level_result([1.0, 2.0], [_FLAT, _SIGN_CHANGE])
    assert _select_outcome(res, c, _ref_select_beta_tilde) is S.EigenCertificationError
    with pytest.raises(S.EigenCertificationError,
                       match=r"spectral maximum 2\.0 .*\(M=1, gamma=1\)"):
        S.select_beta_tilde(res, c)


def test_selection_takes_a_near_tie_below_the_top():
    # the two top values lie 1e-12 apart, inside the 1e-10 tie band; only the
    # lower one has a nonnegative profile, and it is taken, as before
    c = S.CurveParams(1, Fraction(1))
    res = _two_level_result([1.0, 1.0 + 1e-12], [_FLAT, _SIGN_CHANGE])
    assert S.select_beta_tilde(res, c) == 1.0
    assert _ref_select_beta_tilde(res, c) == 1.0


def _tridiagonal(d, l, u):
    n = len(d)
    return [[d[i] if j == i else l[j] if i == j + 1 else u[i] if j == i + 1
             else Fraction(0) for j in range(n)] for i in range(n)]


def test_fixed_basis_selection_matches_clenshaw_reference(monkeypatch):
    # the profiles move at round-off, the outcome does not: the same value or
    # the same refusal, message included, on seeded exact and float curves,
    # on two exact tridiagonals with M = 60, which widen the basis built for
    # M <= 20, and on a hand-built top profile that changes sign
    monkeypatch.setattr(S.eigen, "_profile_basis", np.empty((1024, 0)))
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 60:
        M, k = int(rng.integers(1, 21)), int(rng.integers(1, 160))
        c = S.CurveParams(M, Fraction(k, 48) if len(cases) % 2 else k / 48)
        try:
            R = S.reduced_matrix(S.build_system(c))
            cases.append((S.eigen_solve(R), c))
        except (S.InvalidCurveError, S.EigenCertificationError):
            continue
        # a float twin's matrix is that of the dyadic rational its gamma equals
        assert R == S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(c.gamma))))
    assert S.eigen._profile_basis.shape[1] == 0   # built on first selection
    sixty = S.CurveParams(60, 1)
    # Clement's matrix: eigenvalues -60, -58, ..., 60, the top one's vector all
    # ones, whose profile (a Dirichlet kernel) changes sign
    clement = _tridiagonal([Fraction(0)] * 61, [Fraction(i + 1) for i in range(60)],
                           [Fraction(60 - i) for i in range(60)])
    # upper bidiagonal: the top eigenvalue 60 has psi_n = (-9/10)^n, a Poisson
    # kernel, positive everywhere
    poisson = _tridiagonal([Fraction(i) for i in range(61)], [Fraction(0)] * 60,
                           [Fraction(-10 * (60 - i), 9) for i in range(60)])
    cases += [(S.eigen_solve(R), sixty) for R in (clement, poisson)]
    cases.append((_two_level_result([1.0, 2.0], [_FLAT, _SIGN_CHANGE]), S.CurveParams(1, 1)))
    outcomes = []
    for res, c in cases:
        got = _outcome(lambda: S.select_beta_tilde(res, c))
        assert got == _outcome(lambda: _clenshaw_select_beta_tilde(res, c)), c
        outcomes.append(got)
    assert outcomes[-3:] == [
        (S.EigenCertificationError,
         "the spectral maximum 60.0 has no nonnegative profile on (M=60, gamma=1)"),
        60.0,
        (S.EigenCertificationError,
         "the spectral maximum 2.0 has no nonnegative profile on (M=1, gamma=1)")]
    assert sum(isinstance(x, float) for x in outcomes[:-3]) > 40
    # widening kept the columns built for M <= 20: the same basis as one
    # built at once to degree 60
    widened = S.eigen._profile_basis.copy()
    assert widened.shape == (1024, 61)
    monkeypatch.setattr(S.eigen, "_profile_basis", np.empty((1024, 0)))
    assert S.eigen._chebyshev_basis(61).tobytes() == widened.tobytes()


_SELECT_RUN = """
import sys
from fractions import Fraction
import slespec as S
c = S.CurveParams(15, Fraction(40, 48))
S.select_beta_tilde(S.eigen_solve(S.reduced_matrix(S.build_system(c))), c)
assert "numpy.polynomial" not in sys.modules
"""


def test_selection_does_not_load_numpy_polynomial():
    src = os.path.dirname(os.path.dirname(os.path.abspath(S.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _SELECT_RUN],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_chebyshev_basis_matches_chebval(monkeypatch):
    # column n is chebval at 1 - 2x of the unit series, doubled for n >= 1,
    # whether the basis is built at once or widened from 1 to 21 to 61 columns
    x = np.linspace(0.0, 1.0, 1024)
    for widths in ((61,), (1, 21, 61)):
        monkeypatch.setattr(S.eigen, "_profile_basis", np.empty((1024, 0)))
        for m in widths:
            basis = S.eigen._chebyshev_basis(m)
        for n in range(61):
            want = np.polynomial.chebyshev.chebval(1.0 - 2.0 * x, [0] * n + [1 if n == 0 else 2])
            assert np.max(np.abs(basis[:, n] - want)) <= 1e-12, (widths, n)


# ---- eigenfunctions ----

def test_eigenfunction_poly_anchor():
    c = S.CurveParams(1, 1)
    assert S.eigenfunction_poly(c, 0) == [Fraction(1), Fraction(-4, 3)]
    assert S.eigenfunction_poly(c, 2) == [Fraction(0), Fraction(1)]


def test_eigenfunction_poly_takes_curves_from_curve_point():
    with pytest.raises(S.InvalidCurveError, match="below -M/3"):
        S.eigenfunction_poly(S.CurveParams(1, Fraction(-1, 2)), 0)
    # (3, -1) is the admissible kappa = 0 curve, where G is singular
    assert S.curve_point(S.CurveParams(3, -1)).kappa == 0
    with pytest.raises(ValueError, match="singular at kappa = 0") as exc:
        S.eigenfunction_poly(S.CurveParams(3, -1), 0)
    assert not isinstance(exc.value, S.InvalidCurveError)


def _ref_polyder(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [coeffs[0] * 0]


def _ref_lpsi_residual(psi, beta_tilde, gamma, kappa, phi_grid):
    """lpsi_residual on hand-written Horner and derivative helpers, as it
    was before numpy's polynomial helpers: the reference."""
    p = [float(c) for c in psi]
    dp = _ref_polyder(p)
    ddp = _ref_polyder(dp)
    g, k, bt = float(gamma), float(kappa), float(beta_tilde)
    phi = np.asarray(phi_grid, dtype=float)
    cphi, sphi = np.cos(phi), np.sin(phi)
    x = (1.0 - cphi) / 2.0
    P = _ref_polyval(p, x)
    P1 = _ref_polyval(dp, x) * sphi / 2.0
    P2 = _ref_polyval(ddp, x) * x * (1.0 - x) + _ref_polyval(dp, x) * (1.0 - 2.0 * x) / 2.0
    res = (k / 2.0) * (1.0 - cphi) * P2 - (1.0 - k * g) * sphi * P1 \
        + ((k * (2 * g - 1) / 2.0 - 3.0) * g * cphi
           - (k * (g - 1) / 2.0 - 3.0) * g - bt) * P
    return float(np.max(np.abs(res)))


def test_lpsi_residual_matches_hand_written_reference():
    cases = 0
    for M, g in [(1, Fraction(1)), (2, Fraction(1, 2)), (3, Fraction(1, 3)),
                 (4, Fraction(5, 4))]:
        c = S.CurveParams(M, g)
        kappa = float(S.curve_point(c).kappa)
        phi = np.linspace(0.15, 2 * np.pi - 0.15, 60)
        for l in range(0, 2 * M + 1, 2):
            psi = [float(v) for v in S.eigenfunction_poly(c, l)]
            for bt in (float(S.eigen_beta_closed(c, l)), 3.9):
                args = (psi, bt, float(g), kappa, phi)
                assert lpsi_residual(*args) == _ref_lpsi_residual(*args)
                cases += 1
    # constant and linear psi: the derivatives reach the zero polynomial
    for psi in ([2.0], [1.0, -0.5]):
        args = (psi, 1.0, 0.5, 2.0, np.linspace(0.1, 3.0, 9))
        assert lpsi_residual(*args) == _ref_lpsi_residual(*args)
    assert cases == 28


def test_lpsi_residual_small_on_eigenpairs():
    c = S.CurveParams(1, 1)
    phi = np.linspace(0.15, 2 * np.pi - 0.15, 40)
    for l in (0, 2):
        psi = [float(v) for v in S.eigenfunction_poly(c, l)]
        bt = float(S.eigen_beta_closed(c, l))
        assert lpsi_residual(psi, bt, 1.0, 2.0, phi) < 1e-12


def test_lpsi_residual_flags_wrong_eigenvalue():
    c = S.CurveParams(1, 1)
    psi = [float(v) for v in S.eigenfunction_poly(c, 2)]
    phi = np.linspace(0.15, 2 * np.pi - 0.15, 40)
    assert lpsi_residual(psi, 3.9, 1.0, 2.0, phi) > 1e-3


@pytest.mark.parametrize("M,g", [(2, Fraction(1, 2)), (3, Fraction(1, 3)),
                                 (4, Fraction(5, 4))])
def test_eigenfunction_satisfies_operator(M, g):
    c = S.CurveParams(M, g)
    p = S.curve_point(c)
    phi = np.linspace(0.2, 2 * np.pi - 0.2, 60)
    for l in range(0, 2 * M + 1, 2):
        psi = [float(v) for v in S.eigenfunction_poly(c, l)]
        bt = float(S.eigen_beta_closed(c, l))
        assert lpsi_residual(psi, bt, float(g), float(p.kappa), phi) < 1e-9


def test_eigenvector_matches_eigenfunction_expansion():
    # numeric eigenvector of the reduced matrix == Chebyshev coefficients of
    # the closed-form polynomial profile, up to scale
    c = S.CurveParams(1, 1)
    res = S.eigen_solve(S.reduced_matrix(S.build_system(c)))
    k = int(np.argmax(res.values))
    vec = res.vectors[:, k]
    x = np.linspace(0.0, 1.0, 33)
    prof_vec = _angular_profile(vec, x)
    poly = [float(v) for v in S.eigenfunction_poly(c, 2)]
    prof_poly = np.polyval(poly[::-1], x)
    ratio = prof_vec[1:] / prof_poly[1:]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-10
