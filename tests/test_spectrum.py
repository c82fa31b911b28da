"""Closed-form spectrum, gamma roots, and exact truncation-curve geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import slespec as S
from conftest import QuadExt, beta_from_lambda
from curve_values import SLICE_DIGESTS, digest


rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                         max_denominator=12)
small_kappas = st.fractions(min_value=Fraction(0), max_value=Fraction(10),
                            max_denominator=8)


# ---- defining relation ----

def test_q_of_gamma_exact_anchors():
    assert S.q_of_gamma(1, 6) == Fraction(2)
    assert S.q_of_gamma(1, 2) == Fraction(2)
    assert S.q_of_gamma(Fraction(1, 2), 0) == Fraction(1)
    assert S.q_of_gamma(Fraction(2, 3), 6) == Fraction(2)


@given(g=rationals, k=small_kappas)
def test_gamma_roots_invert_q_of_gamma(g, k):
    q = S.q_of_gamma(g, k)
    roots = S.gamma_roots(S.SLEParams(q=q, kappa=k))
    qm = S.q_of_gamma(roots.gamma_minus, float(k))
    assert math.isclose(float(q), qm, rel_tol=0, abs_tol=1e-9)
    if roots.has_plus:
        qp = S.q_of_gamma(roots.gamma_plus, float(k))
        assert math.isclose(float(q), qp, rel_tol=0, abs_tol=1e-9)


def test_gamma_roots_anchor_26():
    r = S.gamma_roots(S.SLEParams(2, 6))
    assert abs(r.gamma_minus - 2 / 3) < 1e-15
    assert abs(r.gamma_plus - 1.0) < 1e-15
    assert r.discriminant == 4.0


def test_gamma_roots_kappa_zero_is_linear():
    r = S.gamma_roots(S.SLEParams(Fraction(3, 2), 0))
    assert r.gamma_minus == 0.75   # q/2 exactly, no cancellation
    assert not r.has_plus


def test_gamma_roots_raise_past_derivative_disc():
    with pytest.raises(S.NoRealGammaError):
        S.gamma_roots(S.SLEParams(10, 4))


def test_negative_kappa_rejected():
    with pytest.raises(ValueError):
        S.SLEParams(q=1, kappa=-1)


# ---- branch boundaries ----

def test_q_tip_exact():
    assert S.q_tip(Fraction(8, 3)) == Fraction(-2)
    assert S.q_tip(0) == Fraction(-1)
    # gamma_minus at the tip edge is exactly -1/2
    for k in (0.5, 2.0, 6.0):
        g = S.gamma_roots(S.SLEParams(float(S.q_tip(k)), k)).gamma_minus
        assert abs(g + 0.5) < 1e-13


def test_q_transition_values():
    assert S.q_transition(0) == pytest.approx(1 / 3, abs=1e-15)
    assert S.q_transition(2) == pytest.approx(0.4551376320574158, abs=1e-14)
    assert S.q_transition(6) == pytest.approx(0.7024404821440479, abs=1e-14)
    with pytest.raises(ValueError):
        S.q_transition(-0.5)


@given(k=st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
def test_transition_sits_between_tip_and_derivative_disc(k):
    qs = S.q_transition(k)
    assert float(S.q_tip(k)) < qs
    # derivative branch must have a real square root at and past qs
    assert 1.0 + 2.0 * qs * k >= -1e-12


# ---- spectrum values ----

def test_beta_anchors():
    assert S.beta_spectrum(S.SLEParams(2, 6)).beta == pytest.approx(3.0, abs=1e-12)
    assert S.beta_spectrum(S.SLEParams(2, 2)).beta == pytest.approx(4.0, abs=1e-12)
    assert S.beta_spectrum(S.SLEParams(1, 4)).beta == pytest.approx(1.0, abs=1e-12)
    assert S.beta_spectrum(S.SLEParams(-2, Fraction(8, 3))).beta == pytest.approx(
        1 / 3, abs=1e-12)
    for k in (0.0, 0.5, 2.0, 6.0, 8.0):
        assert S.beta_spectrum(S.SLEParams(0, k)).beta == pytest.approx(0.0, abs=1e-12)


def test_branch_labels():
    k = 4.0
    qt, qs = float(S.q_tip(k)), S.q_transition(k)
    assert S.beta_spectrum(S.SLEParams(qt - 0.3, k)).branch is S.Branch.TIP
    assert S.beta_spectrum(S.SLEParams(0.0, k)).branch is S.Branch.BULK
    assert S.beta_spectrum(S.SLEParams(qs + 0.3, k)).branch is S.Branch.DERIVATIVE


def test_bulk_beta_tilde_is_beta():
    v = S.beta_spectrum(S.SLEParams(0.3, 3.0))
    assert v.branch is S.Branch.BULK
    assert v.beta == v.beta_tilde
    assert v.gamma is not None and v.gamma > 0


@given(k=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_continuity_at_both_boundaries(k):
    eps = 1e-7
    for q0 in (float(S.q_tip(k)), S.q_transition(k)):
        lo = S.beta_spectrum(S.SLEParams(q0 - eps, k)).beta
        hi = S.beta_spectrum(S.SLEParams(q0 + eps, k)).beta
        assert abs(hi - lo) < 1e-5


def test_derivative_branch_closed_form():
    q, k = 2.0, 1.0
    v = S.beta_spectrum(S.SLEParams(q, k))
    assert v.branch is S.Branch.DERIVATIVE
    assert v.beta == pytest.approx(3 * q - 0.5 - 0.5 * math.sqrt(1 + 2 * q * k),
                                   abs=1e-15)


# ---- truncation curves ----

def test_curve_point_exact_anchors():
    p = S.curve_point(S.CurveParams(0, 1))
    assert (p.q, p.kappa) == (Fraction(2), Fraction(6))
    p = S.curve_point(S.CurveParams(1, 1))
    assert (p.q, p.kappa) == (Fraction(2), Fraction(2))
    p = S.curve_point(S.CurveParams(1, Fraction(1, 2)))
    assert (p.q, p.kappa) == (Fraction(21, 16), Fraction(5, 2))


@given(M=st.integers(min_value=0, max_value=6),
       g=st.fractions(min_value=Fraction(1, 4), max_value=Fraction(3),
                      max_denominator=12))
def test_curve_point_lies_on_defining_relation(M, g):
    try:
        p = S.curve_point(S.CurveParams(M, g))
    except S.InvalidCurveError:
        return
    assert S.q_of_gamma(g, p.kappa) == p.q   # exact Fractions throughout


def test_curve_point_rejections():
    with pytest.raises(S.InvalidCurveError):
        S.curve_point(S.CurveParams(-1, 1))
    with pytest.raises(S.InvalidCurveError):
        S.curve_point(S.CurveParams(2, -1))      # 3g < -M
    with pytest.raises(S.InvalidCurveError):
        S.curve_point(S.CurveParams(0, Fraction(1, 4)))   # D < 0


def test_eigen_beta_closed_anchor():
    c = S.CurveParams(1, 1)
    assert [S.eigen_beta_closed(c, l) for l in range(3)] == \
        [Fraction(1), Fraction(2), Fraction(4)]
    with pytest.raises(ValueError):
        S.eigen_beta_closed(c, 3)


@pytest.mark.parametrize("fn,args", [
    (S.eigen_beta_closed, (S.CurveParams(1, Fraction(-1, 2)), 0)),
    (S.eigen_beta_closed, (S.CurveParams(-1, 1), 0)),
    (S.beta_tilde_on_curve, (S.CurveParams(1, Fraction(-1, 2)),)),
    (S.beta_tilde_on_curve, (S.CurveParams(-1, 1),)),
    (S.beta_on_curve, (S.CurveParams(0, Fraction(1, 4)),)),
    (S.eigenfunction_poly, (S.CurveParams(1, Fraction(-1, 2)), 0)),
    (S.build_system, (S.CurveParams(1, Fraction(-1, 2)),)),
    (S.beta_tilde_on_curve, (S.CurveParams("2", 1),)),
    (S.beta_tilde_on_curve, (S.CurveParams(None, 1),)),
], ids=["eigen_beta_closed-below-M/3", "eigen_beta_closed-negative-M",
        "beta_tilde_on_curve-below-M/3", "beta_tilde_on_curve-negative-M",
        "beta_on_curve-negative-D", "eigenfunction_poly-below-M/3",
        "build_system-below-M/3", "beta_tilde_on_curve-str-M",
        "beta_tilde_on_curve-None-M"])
def test_curve_functions_reject_what_curve_point_rejects(fn, args):
    # (1, -1/2) has D > 0 but 3 gamma < -M; (-1, 1) has M < 0; (0, 1/4) has
    # D < 0; M = "2" and M = None are not integers
    with pytest.raises(S.InvalidCurveError):
        S.curve_point(args[0])
    with pytest.raises(S.InvalidCurveError):
        fn(*args)


@pytest.mark.parametrize("gamma", [1e120, 1e154])
@pytest.mark.parametrize("fn,args", [(S.eigen_beta_closed, (0,)), (S.eigen_beta_closed, (2,)),
                                     (S.eigenfunction_poly, (0,)), (S.eigenfunction_poly, (2,))])
def test_curve_functions_reject_float_overflow_like_curve_point(fn, args, gamma):
    # q = g(M+g)(2M+1+g)/D overflows for these float gammas; the closed
    # eigenvalues and eigenfunctions take no q, and must not return NaN or inf
    curve = S.CurveParams(1, gamma)
    with pytest.raises(ValueError, match="must be finite"):
        S.curve_point(curve)
    with pytest.raises(ValueError, match="must be finite"):
        fn(curve, *args)


@pytest.mark.parametrize("exact,M_max", sorted(SLICE_DIGESTS))
def test_curve_values_equal_recorded(exact, M_max):
    # tests/curve_values.py checks the whole range M <= 20 the same way
    assert digest(exact, M_max) == SLICE_DIGESTS[exact, M_max]


def test_beta_tilde_on_curve_picks_branch():
    assert S.beta_tilde_on_curve(S.CurveParams(1, 1)) == Fraction(4)
    # below the crossing the l=0 eigenvalue wins
    g = Fraction(1, 10)
    c = S.CurveParams(1, g)
    assert S.beta_tilde_on_curve(c) == S.eigen_beta_closed(c, 0)


def test_gamma_transition_matches_crossing_poly():
    for M in range(0, 8):
        gM = S.gamma_transition(M)
        p = 8 * gM * gM + (6 * M - 1) * gM - M
        assert abs(p) < 1e-12


@pytest.mark.parametrize("M", [1.5, math.nan, math.inf, -1, "2"])
def test_gamma_transition_takes_a_nonnegative_integer(M):
    # 1.5 gave a value and nan gave nan
    with pytest.raises(ValueError):
        S.gamma_transition(M)


@pytest.mark.parametrize("M", [np.int64(3), np.int32(3)])
def test_numpy_integer_M_is_the_int(M):
    assert S.gamma_transition(M) == S.gamma_transition(3)
    c = S.CurveParams(M, Fraction(1, 2))
    assert S.curve_point(c) == S.curve_point(S.CurveParams(3, Fraction(1, 2)))
    assert type(S.build_system(c).M) is int


@pytest.mark.parametrize("fn", [S.eigen_beta_closed, S.eigenfunction_poly])
@pytest.mark.parametrize("l", [1.5, 2.0, Fraction(1, 2), Fraction(2), "2", None])
def test_level_index_must_be_an_integer(fn, l):
    # eigen_beta_closed returned 2.875 at l=1.5 and 11/8 at l=1/2;
    # eigenfunction_poly(.., 2.0) died in list repetition with TypeError
    with pytest.raises(ValueError, match="l must be an integer"):
        fn(S.CurveParams(1, 1), l)


@pytest.mark.parametrize("fn", [S.eigen_beta_closed, S.eigenfunction_poly])
def test_numpy_integer_level_is_the_int(fn):
    c = S.CurveParams(2, Fraction(1, 2))
    assert fn(c, np.int64(2)) == fn(c, 2)


@pytest.mark.parametrize("M", range(1, 11))
def test_crossing_is_exact_in_quadratic_extension(M):
    """At gamma_M the extreme eigenvalues agree exactly, not just to rounding."""
    d = 36 * M * M + 20 * M + 1
    gM = QuadExt(Fraction(1 - 6 * M, 16), Fraction(1, 16), d)
    assert float(gM) == pytest.approx(S.gamma_transition(M), abs=1e-13)
    c = S.CurveParams(M, gM)
    lo = S.eigen_beta_closed(c, 0)
    hi = S.eigen_beta_closed(c, 2 * M)
    assert lo == hi
    # and the curve stays admissible there
    p = S.curve_point(c)
    assert p.kappa > 0


def test_spectrum_consistency_on_curves():
    # on-curve beta from the eigen side equals the closed spectrum formula
    for (M, g) in [(0, 1), (1, 1), (1, Fraction(1, 2)), (2, Fraction(1, 2))]:
        c = S.CurveParams(M, g)
        p = S.curve_point(c)
        bt = S.beta_tilde_on_curve(c)
        want = S.beta_spectrum(S.SLEParams(float(p.q), float(p.kappa)))
        assert float(bt) == pytest.approx(want.beta_tilde, abs=1e-10)


@pytest.mark.parametrize("g,tip", [(Fraction(-1, 2), True), (-0.5, True),
                                   (math.nextafter(-0.5, -1), True),
                                   (math.nextafter(-0.5, 0), False)],
                         ids=["fraction", "float", "float-below", "float-above"])
def test_tip_rule_at_minus_one_half(g, tip):
    # beta = beta~ - 2g - 1 exactly when g <= -1/2; at each float here the
    # two branches differ in the last bits, so the value shows which was taken
    c = S.CurveParams(2, g)
    bt = S.beta_tilde_on_curve(c)
    assert S.beta_on_curve(c) == (bt - 2 * g - 1 if tip else bt)
    assert type(S.beta_on_curve(c)) is type(bt)


# ---- one exactness rule (spectrum._exact) for every module ----

def _rule_results(kind):
    """Results that must be exact when gamma, kappa and the rest are of kind."""
    g, k = kind(1), kind(2)
    c = S.CurveParams(2, g)
    p = S.curve_point(c)
    table = S.build_theta_table(g, k, 6)
    return [p.q, p.kappa, S.q_of_gamma(g, k), S.q_tip(k),
            S.eigen_beta_closed(c, 2), S.beta_tilde_on_curve(c), S.beta_on_curve(c),
            S.beta_on_curve(S.CurveParams(4, -g)),   # tip branch: beta~ - 2g - 1
            S.a_coef(3, g, k), S.b_coef(3, g, k), S.c_coef(3, g, k),
            beta_from_lambda(c, k),
            *(x for row in S.reduced_matrix(S.build_system(c)) for x in row),
            table.gamma, table.kappa, *table.entries.flat,
            S.hyp2f1(kind(-2), kind(1), kind(3), kind(-1))]


@pytest.mark.parametrize("kind", [int, np.int32, np.int64, Fraction],
                         ids=lambda t: t.__name__)
def test_rational_scalars_stay_exact_in_every_module(kind):
    got, want = _rule_results(kind), _rule_results(int)
    assert got == want
    # Fractions of Python ints: a numpy integer inside would wrap on overflow
    assert all(type(x) is Fraction and type(x.numerator) is int for x in got)
    m = [[kind(3), kind(-2)], [kind(-1), kind(2)]]
    assert S.eigen_solve(np.array(m) if kind is not Fraction else m).exact_values is not None


@pytest.mark.parametrize("x,want", [
    (3, Fraction(3)), (np.int64(-2), Fraction(-2)), (Fraction(5, 6), Fraction(5, 6)),
    (0.1, Fraction(3602879701896397, 2 ** 55)), (-0.0, Fraction(0)),
    (np.float64(1.25), Fraction(5, 4)), (np.float32(0.1), Fraction(13421773, 2 ** 27)),
    (np.float16(0.1), Fraction(819, 2 ** 13)), (1e300, Fraction(int(1e300))),
], ids=lambda v: type(v).__name__)
def test_rational_reads_a_float_as_the_fraction_it_equals(x, want):
    got = S.spectrum._rational(x)
    assert got == want and type(got) is Fraction and type(got.denominator) is int


@pytest.mark.parametrize("x,err", [
    (math.nan, ValueError), (math.inf, ValueError), (np.float32(-np.inf), ValueError),
    (1j, TypeError), ("1", TypeError), (None, TypeError), (True, TypeError),
    (np.True_, TypeError),
], ids=repr)
def test_rational_refuses_what_is_not_a_finite_rational(x, err):
    with pytest.raises(err):
        S.spectrum._rational(x)


_T = S.CurveParams(2, True)


@pytest.mark.parametrize("fn,args", [
    pytest.param(fn, args, id=f"{fn.__name__}-{i}") for i, (fn, args) in enumerate([
        (S.curve_point, (_T,)), (S.q_of_gamma, (1, True)), (S.q_tip, (True,)),
        (S.eigen_beta_closed, (_T, 2)), (S.beta_tilde_on_curve, (_T,)),
        (S.beta_on_curve, (_T,)), (S.a_coef, (3, True, 2)), (S.b_coef, (3, 1, True)),
        (S.c_coef, (3, True, 2)),
        (beta_from_lambda, (S.CurveParams(2, 1), True)), (S.build_system, (_T,)),
        (S.build_theta_table, (1, True, 6)), (S.hyp2f1, (-2, 1, 3, True)),
        (S.hyp2f1, (-2, True, 3, 0.5)), (S.eigen_solve, ([[True, 0], [0, 1]],)),
        (S.curve_point, (S.CurveParams(True, 1),)), (S.build_system, (S.CurveParams(True, 1),)),
        (S.gamma_transition, (True,)), (S.eigen_beta_closed, (S.CurveParams(1, 1), True)),
        (S.eigenfunction_poly, (S.CurveParams(1, 1), False)),
    ])])
def test_bool_is_refused_at_every_entry_point(fn, args):
    with pytest.raises(TypeError, match="bool"):
        fn(*args)


@pytest.mark.parametrize("fn,args", [
    (S.curve_point, (S.CurveParams(1, np.True_),)),
    (S.build_theta_table, (np.True_, 2, 6)),
    (S.hyp2f1, (-2, np.True_, 3, 0.5)),
    (S.curve_point, (S.CurveParams(np.True_, 1),)),
    (S.gamma_transition, (np.True_,)),
    (S.eigen_beta_closed, (S.CurveParams(1, 1), np.False_)),
], ids=["curve_point", "build_theta_table", "hyp2f1", "curve_point-M", "gamma_transition",
        "eigen_beta_closed-l"])
def test_numpy_bool_is_refused_like_bool(fn, args):
    with pytest.raises(TypeError, match="bool"):
        fn(*args)


@pytest.mark.parametrize("q,kappa", [(math.nan, 2.0), (math.inf, 2.0),
                                     (1.0, math.nan), (1.0, math.inf)])
def test_non_finite_parameters_are_rejected(q, kappa):
    with pytest.raises(ValueError):
        S.SLEParams(q, kappa)
    if not math.isfinite(kappa):
        with pytest.raises(ValueError):
            S.q_transition(kappa)
    S.SLEParams(Fraction(1, 2), Fraction(8, 3))   # exact inputs still pass
