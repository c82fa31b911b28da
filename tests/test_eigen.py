"""Tridiagonal angular systems: matrices, eigenvalues, eigenfunctions."""

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


# ---- exact eigen_solve against its references ----

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


def _refusal(proved, rest):
    """The outcome of an exact search that proves proved eigenvalues and
    finds no rational root for a rest of degree rest."""
    return (S.EigenCertificationError,
            f"proved {proved} of {proved + rest} eigenvalues by exact division; "
            f"no rational root found for the degree-{rest} rest")


def _closed_spectrum(M, k):
    c = S.CurveParams(M, Fraction(k, 48))
    return sorted(S.eigen_beta_closed(c, l) for l in range(0, 2 * M + 1, 2))


def _curve_matrix(M, k):
    return S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))


# entries ~1e9, upper triangular, so its eigenvalues 1e9 + 1 and 3e8 are its
# diagonal: rounding alone leaves the residual at 3e8 ~9e-8, above the
# absolute bound 1e-10, so eigen_solve raises in its residual check
_RESIDUAL_FAILURE = [[1e9 + 1, 1e9], [0.0, 3e8]]


# the exact curves with a zero super-diagonal ("reducible"), at i = 2, 1, 4, 6
# and 3, which the frozen assembly gave SVD vectors
_REDUCIBLE_CURVES = [(5, 60), (6, 36), (12, 96), (12, 144), (15, 72)]


def _null_space(R, x):
    """A basis of the null space of R - x I in Fractions, one vector per free
    column, by Gauss-Jordan elimination: independent of the recurrence."""
    n = len(R)
    A = [[Fraction(R[i][j]) - (x if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = []
    for col in range(n):
        top = len(pivots)
        piv = next((i for i in range(top, n) if A[i][col]), None)
        if piv is None:
            continue
        A[top], A[piv] = A[piv], A[top]
        A[top] = [v / A[top][col] for v in A[top]]
        for i in range(n):
            f = A[i][col]
            if i != top and f:
                A[i] = [a - f * b for a, b in zip(A[i], A[top])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(n)]
        for row, col in enumerate(pivots):
            v[col] = -A[row][free]
        basis.append(v)
    return basis


def _unit(psi):
    """The exact vector psi divided by its first nonzero entry, as floats,
    then normalised to unit 2-norm: the sign of eigen_solve's columns, whose
    first nonzero entry is P_j/Q_j = 1."""
    first = next(x for x in psi if x)
    v = np.array([float(x / first) for x in psi])
    return v / np.linalg.norm(v)


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


def _parent_eigen_solve(matrix, fracs):
    """eigen_solve on exact tridiagonal input with the proved eigenvalues
    fracs, sorted, as it was before the one-pass read, the in-place float
    matrix and the local recurrence: the frozen _tridiag_exact, np.diag
    assembly and _recurrence_vectors.  The reference."""
    exact = _parent_tridiag_exact(matrix)
    L, d, l, u = exact
    mat = (np.diag([x / L for x in d]) + np.diag([x / L for x in l], -1)
           + np.diag([x / L for x in u], 1))
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


# hand-built exact matrices, each with its search's outcome (the sorted
# Fractions, or the refusal) and the number of passes (primes) it takes:
# irrational roots (one 2x2, one 3x3), a root 0 beside 1e-13 ("shrink",
# reducible, and by recurrence; no pass: a degree-1 rest), a tiny 1x1
# ("tiny"), a triple root and numpy integers
_HAND_BUILT = [
    ([[1, 1], [1, 0]], _refusal(0, 2), 1),
    ([[1, 1, 0], [1, 0, 1], [0, 1, 2]], _refusal(0, 3), 1),
    ([[0, 0], [0, Fraction(1, 10 ** 13)]], [0, Fraction(1, 10 ** 13)], 0),
    ([[0, 1], [0, Fraction(1, 10 ** 13)]], [0, Fraction(1, 10 ** 13)], 0),
    ([[Fraction(1, 10 ** 20)]], [Fraction(1, 10 ** 20)], 0),
    ([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, -1]], [-1, 2, 2, 2], 3),
    (np.array([[3, -2], [-1, 2]]), [1, 4], 1)]

# the curves of the frozen comparisons: EQUIVALENCE_CURVES and the reducible
# curves, of which (12, 144/48) has the eigenvalue 0
_FROZEN_CURVES = EQUIVALENCE_CURVES + _REDUCIBLE_CURVES


def test_exact_path_is_bit_identical_to_frozen_assembly():
    # on the proved eigenvalues (the closed spectrum on the frozen curves,
    # the recorded outcome of _HAND_BUILT), or the search's refusal: every
    # matrix without a zero super-diagonal keeps every field bit for bit
    # against the frozen assembly.  A reducible one, where the frozen
    # assembly took SVD columns, keeps its values; each column whose
    # eigenspace is one-dimensional lies within 1e-14 of the SVD's, up to
    # sign, and the largest residual is no larger than the SVD's
    cases = [(_curve_matrix(M, k), _closed_spectrum(M, k)) for M, k in _FROZEN_CURVES]
    cases += [(R, want) for R, want, _ in _HAND_BUILT]
    refused = reducible = 0
    for R, fracs in cases:
        exact = S.eigen._tridiag_exact(R)
        assert exact == _parent_tridiag_exact(R)
        got = _outcome(lambda: S.eigen_solve(R))
        if not isinstance(fracs, list):   # the search's refusal
            assert got == fracs
            refused += 1
            continue
        want = _parent_eigen_solve(R, fracs)
        if all(exact[3]):
            assert _bits(got) == _bits(want)
            continue
        reducible += 1
        assert got.exact_values == want.exact_values
        assert got.values.tobytes() == want.values.tobytes()
        for k, x in enumerate(fracs):
            if len(_null_space(R, x)) == 1:
                v, w = got.vectors[:, k], want.vectors[:, k]
                assert min(np.max(np.abs(v - w)), np.max(np.abs(v + w))) <= 1e-14
        assert got.residuals.max() <= want.residuals.max()
    assert refused == 2 and reducible == len(_REDUCIBLE_CURVES) + 2
    # diag(2, 2, 2, -1): the eigenvalue 2 takes e_3, the last block whose
    # determinant vanishes at 2, where the SVD took any unit vector of e_1..e_3
    got = S.eigen_solve(_HAND_BUILT[5][0])
    assert got.exact_values == (-1, 2, 2, 2)
    assert np.array_equal(np.abs(got.vectors[:, 1:]), np.eye(4)[:, [2, 2, 2]])
    # _RESIDUAL_FAILURE fails the residual check with the frozen copy's
    # text; the frozen copy reads it as the Fractions its floats equal
    F = [[Fraction(x) for x in r] for r in _RESIDUAL_FAILURE]
    want = _outcome(lambda: _bits(_parent_eigen_solve(F, [Fraction(3 * 10 ** 8),
                                                          Fraction(10 ** 9 + 1)])))
    assert want[0] is S.EigenCertificationError
    assert want[1].startswith("residual 8.941e-08 > 1e-10 for eigenvalue 300000000.0 ")
    assert _outcome(lambda: _bits(S.eigen_solve(_RESIDUAL_FAILURE))) == want
    # its lower triangular twin, which the SVD left at residual 1.2e-7 and
    # refused, certifies with residual 0: the columns are e_2 and the exact
    # (1e9 + 1 - 3e8, 1e9) normalised
    low = S.eigen_solve([[1e9 + 1, 0.0], [1e9, 3e8]])
    assert low.exact_values == (3 * 10 ** 8, 10 ** 9 + 1)
    assert not low.residuals.any()
    assert np.array_equal(low.vectors[:, 0], [0.0, 1.0])
    assert np.max(np.abs(low.vectors[:, 1] - _unit([Fraction(7 * 10 ** 8 + 1), 10 ** 9]))) <= 1e-16
    # a float twin is read as the dyadic rationals its entries equal, and a
    # float gamma k/48 builds the matrix of the rational it equals
    F = [[float(x) for x in r] for r in cases[0][0]]
    assert S.eigen._tridiag_exact(F) == _parent_tridiag_exact(
        [[Fraction(x) for x in r] for r in F])
    for M, k in EQUIVALENCE_CURVES:
        assert S.reduced_matrix(S.build_system(S.CurveParams(M, k / 48))) == S.reduced_matrix(
            S.build_system(S.CurveParams(M, Fraction(k / 48))))


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


@pytest.mark.parametrize("M,k", [(3, 40), (10, 110), (15, 150), (20, 28)] + _REDUCIBLE_CURVES)
def test_recurrence_vectors_are_exact_eigenvectors(M, k):
    # (R - lambda I) psi = 0 in Fractions, last row included, and eigen_solve's
    # column is psi/||psi|| to rounding; (15, 150) has double eigenvalues.
    # On the reducible curves psi is the one null vector by Gauss-Jordan
    # elimination: every eigenspace there is one-dimensional
    R = S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(k, 48))))
    res = S.eigen_solve(R)
    irreducible = all(S.eigen._tridiag_exact(R)[3])   # no zero super-diagonal
    assert irreducible == ((M, k) not in _REDUCIBLE_CURVES)
    for j, lam in enumerate(res.exact_values):
        if irreducible:
            psi = _exact_recurrence(R, lam)
        else:
            (psi,) = _null_space(R, lam)
        assert all(sum(R[n][m] * psi[m] for m in range(len(R))) == lam * psi[n]
                   for n in range(len(R)))
        assert np.max(np.abs(res.vectors[:, j] - _unit(psi))) <= 1e-15
        assert res.residuals[j] <= 1e-14


def _random_tridiagonal(rng):
    """An exact tridiagonal, n <= 7: diagonal entries from a pool of three,
    so that they repeat, and each off-diagonal entry zero with probability
    1/2, else a nonzero k/2, |k| <= 4."""
    n = int(rng.integers(1, 8))
    pool = [Fraction(int(k), 2) for k in rng.integers(-4, 5, 3)]
    d = [pool[i] for i in rng.integers(0, 3, n)]
    l, u = ([Fraction(int(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])), 2)
             if rng.random() < 0.5 else Fraction(0) for _ in range(n - 1)] for _ in "lu")
    return _tridiagonal(d, l, u)


def test_recurrence_vectors_span_the_null_space_of_random_tridiagonals():
    # seeded exact tridiagonals with zero super- and sub-diagonals and
    # repeated diagonal entries, at every x among their diagonal entries and
    # k/2, |k| <= 8.  Where Gauss-Jordan elimination finds R - x I regular,
    # the recurrence refuses x; where its null space is one line, the column
    # is that line's vector, normalised, to 1e-15; else the column has a
    # residual below 1e-14
    rng = np.random.default_rng(41)
    counts = dict.fromkeys(("regular", "line", "spans_a_block_end", "wider"), 0)
    for _ in range(200):
        R = _random_tridiagonal(rng)
        exact = S.eigen._tridiag_exact(R)
        u = exact[3]
        for x in sorted({R[i][i] for i in range(len(R))} | {Fraction(k, 2) for k in range(-8, 9)}):
            basis = _null_space(R, x)
            if not basis:
                with pytest.raises(S.EigenCertificationError, match="nonzero last row"):
                    S.eigen._recurrence_vectors(*exact, [x])
                counts["regular"] += 1
                continue
            col = S.eigen._recurrence_vectors(*exact, [x])[:, 0]
            if len(basis) > 1:
                T = np.array([[float(v) for v in r] for r in R])
                assert np.max(np.abs(T @ col - float(x) * col)) <= 1e-14
                counts["wider"] += 1
                continue
            (psi,) = basis
            assert np.max(np.abs(col - _unit(psi))) <= 1e-15, (R, x)
            counts["line"] += 1
            # the vector crosses a zero super-diagonal: rows below its block
            counts["spans_a_block_end"] += any(
                not u[k] and any(psi[:k + 1]) and any(psi[k + 1:]) for k in range(len(u)))
    assert min(counts.values()) >= 40, counts


def test_nonzero_last_row_is_refused():
    # [[2, 1], [1, 2]] has the eigenvalues 1 and 3; at 2 the last row is -1
    with pytest.raises(S.EigenCertificationError, match="nonzero last row at eigenvalue 2"):
        S.eigen._recurrence_vectors(*S.eigen._tridiag_exact([[2, 1], [1, 2]]), [Fraction(2)])


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
    primes = _roots_mod_primes(monkeypatch)
    with pytest.raises(S.EigenCertificationError) as exc:
        S.eigen_solve(R)
    assert (type(exc.value), str(exc.value)) == _refusal(proved, rest)
    assert len(primes) == passes
    assert "irrational" not in str(exc.value)
    # a float twin that equals R is refused with the same message: x^2 - x - 1
    # as floats no longer gets LAPACK's golden-ratio pair
    F = [[float(x) for x in r] for r in R]
    if F == R:
        with pytest.raises(S.EigenCertificationError) as twin:
            S.eigen_solve(F)
        assert str(twin.value) == str(exc.value)


# the other hand-built exact matrices above, with their outcomes and passes
# as in _HAND_BUILT: the refused ones, the irrational "tiny pair",
# [[2, 1], [1, 2]], the roots congruent mod 1009, the large denominators,
# the upper bidiagonals and the diagonal matrix with two double roots
_SEARCHED = [(R, _refusal(proved, rest), passes) for R, proved, rest, passes in _REFUSED] + [
    ([[Fraction(-3, 10 ** 30), Fraction(1, 10 ** 10)], [Fraction(1, 10 ** 10), 1]],
     _refusal(0, 2), 1),
    ([[2, 1], [1, 2]], [1, 3], 1), ([[100, 2], [0, 1109]], [100, 1109], 2),
    ([[Fraction(1, 3 ** 21), 1, 0, 0], [0, Fraction(-2, 5 ** 14), 1, 0],
      [0, 0, -5, 1], [0, 0, 0, -2]], [-5, -2, Fraction(-2, 5 ** 14), Fraction(1, 3 ** 21)], 1),
    *(([[Fraction(i + 1) if i == j else Fraction(1, 10 ** 200) if j == i + 1 else 0
         for j in range(n)] for i in range(n)], list(range(1, n + 1)), 1) for n in (3, 4)),
    ([[100, 0, 0, 0], [0, 100, 0, 0], [0, 0, 1109, 0], [0, 0, 0, 1109]],
     [100, 100, 1109, 1109], 2)]


def test_exact_eigenvalues_are_the_closed_spectrum_or_the_recorded_outcome(monkeypatch):
    # every correct proof returns the same Fractions: the closed spectrum on
    # the five curves with a repeated eigenvalue, the frozen curves, the two
    # curves the float Newton search refused and curves sampled at
    # M = 21..60; the recorded Fractions or refusal text, and the number of
    # passes, on every hand-built exact matrix
    primes = _roots_mod_primes(monkeypatch)
    curves = _REPEATED + _FROZEN_CURVES + [(24, 79), (24, 151)] + [
        (M, k) for M in (21, 24, 28, 32, 40, 60) for k in (7, 43, 85, 157)]
    for M, k in curves:
        exact = S.eigen._tridiag_exact(_curve_matrix(M, k))
        assert S.eigen._exact_eigenvalues(*exact) == _closed_spectrum(M, k), (M, k)
    for R, want, passes in _HAND_BUILT + _SEARCHED:
        exact = S.eigen._tridiag_exact(R)
        primes.clear()
        assert _outcome(lambda: S.eigen._exact_eigenvalues(*exact)) == want, R
        assert len(primes) == passes, R


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
    with pytest.raises(S.EigenCertificationError,
                       match=r"spectral maximum 2\.0 .*\(M=1, gamma=1\)"):
        S.select_beta_tilde(res, c)


def test_selection_takes_a_near_tie_below_the_top():
    # the two top values lie 1e-12 apart, inside the 1e-10 tie band; only the
    # lower one has a nonnegative profile, and it is taken, as before
    c = S.CurveParams(1, Fraction(1))
    res = _two_level_result([1.0, 1.0 + 1e-12], [_FLAT, _SIGN_CHANGE])
    assert S.select_beta_tilde(res, c) == 1.0
    assert _clenshaw_select_beta_tilde(res, c) == 1.0


def _tridiagonal(d, l, u):
    n = len(d)
    return [[d[i] if j == i else l[j] if i == j + 1 else u[i] if j == i + 1
             else Fraction(0) for j in range(n)] for i in range(n)]


def test_fixed_basis_selection_matches_clenshaw_reference(monkeypatch):
    # the profiles move at round-off, the outcome does not: the same value or
    # the same refusal, message included, on seeded exact and float curves,
    # on EQUIVALENCE_CURVES, exact and float, on two exact tridiagonals with
    # M = 60, which widen the basis built for M <= 20, and on a hand-built
    # top profile that changes sign
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
    for M, k in EQUIVALENCE_CURVES:
        for g in (Fraction(k, 48), k / 48):
            c = S.CurveParams(M, g)
            R = S.reduced_matrix(S.build_system(c))
            assert R == S.reduced_matrix(S.build_system(S.CurveParams(M, Fraction(g))))
            cases.append((S.eigen_solve(R), c))
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
    assert sum(isinstance(x, float) for x in outcomes[:60]) > 40
    assert sum(isinstance(x, float) for x in outcomes[60:-3]) > 60
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


def _ref_polyval(coeffs, x):
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
