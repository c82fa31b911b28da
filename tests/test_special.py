"""Hypergeometric evaluation, closed-form moment functions, PDE residual."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import slespec as S


# ---- 2F1 ----

def test_hyp2f1_log_anchor():
    # 2F1(1,1;2;x) = -log(1-x)/x; x=0.95 has the logarithmic case c-a-b = 0
    got = S.hyp2f1(1.0, 1.0, 2.0, 0.5)
    assert got == pytest.approx(2 * math.log(2.0), abs=5e-15)
    got = S.hyp2f1(1.0, 1.0, 2.0, 0.95)
    assert got == pytest.approx(-math.log(0.05) / 0.95, rel=1e-12)


def test_hyp2f1_terminating_exact():
    x = Fraction(1, 3)
    got = S.hyp2f1(Fraction(-2), Fraction(1, 2), Fraction(3, 2), x)
    want = 1 - Fraction(2) * Fraction(1, 2) / Fraction(3, 2) * x \
        + Fraction(1, 2) * Fraction(3, 2) / (Fraction(3, 2) * Fraction(5, 2)) * x * x
    assert got == want
    assert isinstance(got, Fraction)
    # termination before the c pole is reached is fine
    assert S.hyp2f1(Fraction(-1), 1, Fraction(-1), x) == 1 + x


def test_hyp2f1_pole_before_termination():
    with pytest.raises(ValueError):
        S.hyp2f1(Fraction(-3), 1, Fraction(-1), Fraction(1, 3))


def test_hyp2f1_domain():
    with pytest.raises(ValueError):
        S.hyp2f1(0.5, 0.5, 1.5, 1.1)
    with pytest.raises(ValueError):
        S.hyp2f1(0.5, 0.5, 1.5, -1.0)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3),
       c=st.floats(0.3, 4.0), x=st.floats(-0.9, 0.95))
def test_hyp2f1_against_scipy(a, b, c, x):
    # scipy is unreliable at (near-)integer c-a-b; mpmath checks those below
    scipy_special = pytest.importorskip("scipy.special")
    cab = c - a - b
    assume(abs(cab - round(cab)) > 1e-3)
    want = float(scipy_special.hyp2f1(a, b, c, x))
    assume(math.isfinite(want) and abs(want) < 1e8)
    got = S.hyp2f1(a, b, c, x)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def _mp_hyp2f1(a, b, c, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(a, b, c, x))


@pytest.mark.parametrize("x", [-0.999, -0.9999, -0.999999, -0.9, -0.5, -1e-3])
@pytest.mark.parametrize("a,b,c", [(0.5, 0.5, 1.5), (0.3, 0.4, 1.7), (1.25, 2.0, 0.75),
                                   (-2.5, 1.5, 0.3), (2.5, -1.3, 0.7)])
def test_hyp2f1_negative_x_against_mpmath(a, b, c, x):
    # the direct series converges like |x|^k and gave up at x = -0.9999;
    # Pfaff's transformation sums a series in x/(x-1) < 1/2 instead
    assert S.hyp2f1(a, b, c, x) == pytest.approx(_mp_hyp2f1(a, b, c, x), rel=1e-12)


@given(a=st.floats(0.1, 1.5), b=st.floats(-1.5, 1.5), c=st.floats(0.3, 4.0),
       x=st.floats(-0.999999, -1e-6))
def test_hyp2f1_generic_negative_x_against_mpmath(a, b, c, x):
    assert S.hyp2f1(a, b, c, x) == pytest.approx(_mp_hyp2f1(a, b, c, x), rel=1e-12)


@pytest.mark.parametrize("x", [0.999, 0.9999, 1 - 1e-9])
@pytest.mark.parametrize("a,b,c", [(0.3, 0.4, 0.7), (0.3, 0.4, 1.7), (0.3, 0.4, 2.7),
                                   (1.25, 0.5, 1.75), (1.25, 0.5, 3.75),
                                   (1.25, 0.5, 0.75)])
def test_hyp2f1_integer_c_minus_a_minus_b_near_one(a, b, c, x):
    # c-a-b in {-1, 0, 1, 2}: the logarithmic cases of the 1-x connection;
    # at c-a-b = -1, x = 1 - 1e-9 the value grows like 1/(1-x), so a step
    # that ended one rounding away from its stored x would err by ~1e-8
    assert S.hyp2f1(a, b, c, x) == pytest.approx(_mp_hyp2f1(a, b, c, x), rel=1e-12)


@pytest.mark.parametrize("x", [0.95, 0.99])
@pytest.mark.parametrize("ds", [1e-6, -1e-6])
def test_hyp2f1_near_integer_c_minus_a_minus_b(ds, x):
    # c-a-b = 1 +- 1e-6, where the Gamma(s) and Gamma(-s) terms of the 1-x
    # connection formula nearly cancel
    a, b = 0.35, 0.8
    c = a + b + 1 + ds
    assert S.hyp2f1(a, b, c, x) == pytest.approx(_mp_hyp2f1(a, b, c, x), rel=1e-12)


@given(a=st.floats(0.1, 1.5), b=st.floats(0.1, 1.5), n=st.integers(-1, 2),
       kind=st.sampled_from(["generic", "integer", "near-integer"]),
       frac=st.floats(0.05, 0.95), log_ds=st.floats(-7, -5),
       sign=st.sampled_from([-1, 1]), x=st.floats(0.9, 0.9999))
def test_hyp2f1_near_one_against_mpmath(a, b, n, kind, frac, log_ds, sign, x):
    # c-a-b generic, an integer, or within 1e-7..1e-5 of an integer
    s = {"generic": n + frac, "integer": n,
         "near-integer": n + sign * 10 ** log_ds}[kind]
    c = a + b + s
    assume(c > 0.05)      # clear of the poles of 2F1 at c = 0, -1, ...
    want = _mp_hyp2f1(a, b, c, x)
    assert S.hyp2f1(a, b, c, x) == pytest.approx(want, rel=1e-12)


# ---- closed-form moment functions ----

def test_rho_M0_values_and_domain():
    assert S.rho_M0(0.0, 0.0, 6.0) == pytest.approx(1.0, abs=1e-15)
    assert S.rho_M0(0.5, 0.5, 6.0) == pytest.approx(16 / 27, rel=1e-14)
    with pytest.raises(ValueError):
        S.rho_M0(1.0, 1.0, 6.0)
    with pytest.raises(ValueError):
        S.rho_M0(0.5, 0.5, 0.0)


@pytest.mark.parametrize("w,wbar,kappa", [(0.5, 0.5, math.nan), (0.5, 0.5, math.inf),
                                          (math.nan, 0.5, 6.0), (0.5, complex(math.nan, 0), 6.0)])
def test_rho_M0_rejects_non_finite(w, wbar, kappa):
    # NaN slipped through the k <= 0 and |w| >= 1 tests and came back as NaN
    with pytest.raises(ValueError):
        S.rho_M0(w, wbar, kappa)


@pytest.mark.parametrize("kappa,gamma", [(6.0, 1.0), (2.0, 2.0)])
def test_rho_M0_matches_recurrence_table(kappa, gamma):
    # the width-0 curve at this kappa resums to the closed form
    t = S.build_theta_table(gamma, kappa, 200, backend="float")
    rng = np.random.default_rng(3)
    for _ in range(12):
        w = 0.8 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        want = S.rho_M0(w, np.conj(w), kappa)
        got = S.eval_rho(t, w, np.conj(w)).value
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_rho_M1_scalar_fields():
    v = S.rho_M1(0.3, 0.3, 1.0)
    assert v.q == pytest.approx(2.0, abs=1e-15)
    assert v.kappa == pytest.approx(2.0, abs=1e-15)
    assert v.value == pytest.approx(0.3501277966457756, rel=1e-12)
    with pytest.raises(ValueError):
        S.rho_M1(0.3, 0.3, -0.4)       # gamma <= -1/3 leaves the family
    with pytest.raises(ValueError):
        S.rho_M1(0.3, 0.5j, 1.0)       # w*wbar not real


def test_rho_M1_matches_recurrence_table():
    t = S.build_theta_table(1.0, 2.0, 200, backend="float")
    rng = np.random.default_rng(11)
    for _ in range(12):
        w = 0.8 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        want = S.rho_M1(w, np.conj(w), 1.0).value
        got = S.eval_rho(t, w, np.conj(w)).value
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_rho_M1_near_one_where_phi1_is_logarithmic():
    # at gamma = (-3 + sqrt 57)/8 the first Gauss function has c-a-b = 2
    g = (-3.0 + math.sqrt(57.0)) / 8.0
    D1 = 2.0 * g * g + g + 1.0
    a, b = (g + 1.0) * (1.0 - 3.0 * g) / D1, (1.0 - g - 4.0 * g * g) / D1
    assert (g + 1.0) ** 2 / D1 - a - b == pytest.approx(2.0, abs=1e-12)
    w = math.sqrt(0.9999)
    v = S.rho_M1(w, w, g).value
    assert math.isfinite(v.real) and math.isfinite(v.imag)


def test_deterministic_map_derivative():
    assert S.deterministic_map_derivative(0.5, 0.0) == pytest.approx(4 / 27,
                                                                     rel=1e-15)
    assert S.deterministic_map_derivative(0.0, 1.0) == pytest.approx(math.e,
                                                                     rel=1e-15)
    with pytest.raises(ValueError):
        S.deterministic_map_derivative(-1.0, 0.0)


# ---- stationarity PDE ----

def test_pde_residual_closed_forms():
    res0 = S.pde_residual(lambda w, wb: S.rho_M0(w, wb, 6.0),
                          q=2.0, kappa=6.0, w=0.4 + 0.1j, wbar=0.4 - 0.1j)
    assert res0 < 1e-8
    # rho_M1 wants a real product w*wbar, and the stencil shifts the two
    # arguments independently, so probe it on real pairs
    res1 = S.pde_residual(lambda w, wb: S.rho_M1(w.real, wb.real, 1.0).value,
                          q=2.0, kappa=2.0, w=0.3, wbar=0.45)
    assert res1 < 1e-8


def test_pde_residual_detects_wrong_exponent():
    res = S.pde_residual(lambda w, wb: S.rho_M0(w, wb, 6.0),
                         q=2.3, kappa=6.0, w=0.4, wbar=0.4)
    assert res > 1e-3


def test_pde_residual_const_zero_q():
    # rho = 1, q = 0 is an exact stationary point; only FD noise remains
    res = S.pde_residual(lambda w, wb: 1.0 + 0j, q=0.0, kappa=3.0,
                         w=0.2 + 0.3j, wbar=0.2 - 0.3j)
    assert res < 1e-12
