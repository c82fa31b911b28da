"""Interior-flow Monte Carlo: integrator, driving, estimator, reproducibility."""

import io
import math
import warnings

import numpy as np
import pytest

import slespec as S


def unit_path(T, n):
    # constant driving = the kappa -> 0 limit
    return S.sample_driving(0.0, T, n, np.random.default_rng(0))


# ---- driving ----

def test_sample_driving_shapes_and_kappa_zero():
    p = S.sample_driving(0.0, 4.0, 160, np.random.default_rng(1))
    assert len(p.u) == 160
    assert p.delta == pytest.approx(0.025)
    assert np.all(p.u == 1.0 + 0j)
    assert p.b_total == 0.0


def test_sample_driving_variance_scale():
    # total variance of B(T) is kappa*T
    kappa, T = 3.0, 2.0
    vals = [S.sample_driving(kappa, T, 200, np.random.default_rng(s)).b_total
            for s in range(400)]
    var = np.var(vals)
    assert abs(var - kappa * T) < 0.8   # ~4 sigma for 400 draws


# ---- elementary step and the exact conic solution ----

def test_elementary_step_fixed_point_origin():
    z, logd = S.elementary_step(0.0, 0.0, 1.0 + 0j, 0.01)
    assert z == 0
    assert logd == pytest.approx(-0.01, abs=1e-12)


def test_elementary_step_identity_at_zero_delta():
    z, logd = S.elementary_step(0.3 + 0.1j, 0.2j, 1.0 + 0j, 0.0)
    assert z == 0.3 + 0.1j and logd == 0.2j


def test_elementary_step_rejects_negative_delta():
    with pytest.raises(ValueError):
        S.elementary_step(0.1, 0.0, 1.0 + 0j, -0.01)


def test_single_step_matches_conic():
    w = 0.4 + 0.2j
    zc, _ = S.conic_flow(w, 0.01)
    z, _ = S.elementary_step(w, 0.0, 1.0 + 0j, 0.01)
    assert abs(z - zc) < 1e-8


def test_conic_flow_limits_and_guards():
    # e^T dz -> the infinite-horizon closed form
    for w in (0.5, 0.2 + 0.4j):
        _, dz = S.conic_flow(w, 30.0)
        lim = S.deterministic_map_derivative(w, 0.0)
        assert abs(math.exp(30.0) * dz - lim) < 1e-12 * abs(lim)
    z0, d0 = S.conic_flow(0.0, 5.0)
    assert z0 == 0 and d0 == pytest.approx(math.exp(-5.0))
    with pytest.raises(ValueError):
        S.conic_flow(1.2, 1.0)


def test_composed_flow_matches_conic():
    T, n = 12.0, 4800
    p = unit_path(T, n)
    for w in (0.5, -0.3, 0.35 + 0.45j):
        zf, logd = S.whole_plane_map_derivative(w, p)
        zc, dz = S.conic_flow(w, T)
        assert abs(zf - zc) < 1e-9
        assert abs(np.exp(logd) - dz) < 1e-8 * abs(dz)


def test_whole_plane_derivative_infinite_horizon_limit():
    T, n = 20.0, 8000
    p = unit_path(T, n)
    rng = np.random.default_rng(42)
    for _ in range(10):
        w = 0.9 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        _, logd = S.whole_plane_map_derivative(w, p)
        target = S.deterministic_map_derivative(w, 0.0)
        assert abs(np.exp(T + logd) - target) < 1e-6 * abs(target)


def test_kappa_zero_flow_exact_near_driving_point():
    # the flow is composed from exact steps, so it holds to round-off even
    # where w sits close to the driving point 1
    T, n = 20.0, 8000
    ws = np.array([0.9, 0.95, 0.99, 0.88 + 0.03j])
    _, logd = S.whole_plane_map_derivative(ws, unit_path(T, n))
    for w, ld in zip(ws, logd):
        _, dz = S.conic_flow(w, T)
        assert abs(np.exp(ld) - dz) < 1e-10 * abs(dz)


def rk4_reference(w, path, min_substeps=16):
    """Fixed-frame composition by classical RK4.

    Each increment is split into at least min_substeps substeps, and finely
    enough that h <= 0.002 d^2 for the lane closest to the driving point.
    Returns (z, logd, closest approach of z to the driving point).
    """
    def fields(z, u):
        return z * (z + u) / (z - u), (z * z - 2 * u * z - u * u) / (z - u) ** 2

    z = np.asarray(w, dtype=complex) * np.exp(1j * path.b_total)
    logd = np.zeros_like(z)
    closest = np.full(z.shape, np.inf)
    for u in path.u[::-1]:
        closest = np.minimum(closest, abs(z - u))
        d = np.min(abs(z - u))
        m = max(min_substeps, math.ceil(path.delta / (0.002 * d * d)))
        h = path.delta / m
        for _ in range(m):
            k1, l1 = fields(z, u)
            k2, l2 = fields(z + h / 2 * k1, u)
            k3, l3 = fields(z + h / 2 * k2, u)
            k4, l4 = fields(z + h * k3, u)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            logd = logd + h / 6 * (l1 + 2 * l2 + 2 * l3 + l4)
    return z, logd, closest


def test_exact_steps_match_finely_substepped_rk4():
    p = S.sample_driving(6.0, 0.5, 200, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    ws = np.concatenate((
        [0.9, 0.93 * np.exp(0.05j)],
        0.97 * np.exp(2j * np.pi * np.arange(16) / 16),
        0.9 * np.sqrt(rng.uniform(size=46)) * np.exp(2j * np.pi * rng.uniform(size=46))))
    z, logd = S.whole_plane_map_derivative(ws, p)
    z_ref, logd_ref, closest = rk4_reference(ws, p)
    # lanes within 0.11 of the driving point, and a lane whose arg F' has
    # wound past pi, are included
    assert np.sum(closest < 0.11) >= 3
    assert np.max(np.abs(logd.imag)) > np.pi
    assert np.max(np.abs(z - z_ref)) < 1e-9
    # imaginary parts compared as they are: no reduction mod 2 pi
    assert np.max(np.abs(logd.real - logd_ref.real)) < 1e-9
    assert np.max(np.abs(logd.imag - logd_ref.imag)) < 1e-9


def test_flow_from_the_driving_point_raises():
    # the step's derivative vanishes at v = 1, so log F' is not finite
    with pytest.raises(S.StepUnderflowError):
        S.whole_plane_map_derivative(np.array([0.5, 1.0]), unit_path(1.0, 100))


def test_array_and_scalar_paths_agree():
    p = S.sample_driving(2.0, 3.0, 1200, np.random.default_rng(9))
    ws = np.array([0.5, -0.2 + 0.3j, 0.1j])
    zs, lds = S.whole_plane_map_derivative(ws, p)
    for k, w in enumerate(ws):
        z1, l1 = S.whole_plane_map_derivative(complex(w), p)
        assert z1 == zs[k] and l1 == lds[k]


# ---- config validation ----

def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        S.MCConfig(kappa=2.0, q=1.0, T=8.0, n_steps=100, n_samples=10,
                   seed=0, w=0.5)   # delta too coarse
    with pytest.raises(ValueError):
        S.MCConfig(kappa=2.0, q=1.0, T=8.0, n_steps=3200, n_samples=10,
                   seed=0, w=1.1)
    with pytest.raises(ValueError):
        S.MCConfig(kappa=2.0, q=1.0, T=1.0, n_steps=400, n_samples=10,
                   seed=0, w=0.95)  # horizon too short for this w
    with pytest.raises(ValueError):
        S.MCConfig(kappa=-1.0, q=1.0, T=8.0, n_steps=3200, n_samples=10,
                   seed=0, w=0.5)


# ---- estimator ----

def small_config(**kw):
    base = dict(kappa=2.0, q=1.0, T=4.0, n_steps=1600, n_samples=64,
                seed=0, w=0.4)
    base.update(kw)
    return S.MCConfig(**base)


def test_estimate_deterministic_and_thread_invariant():
    a = S.moment_estimate(small_config())
    b = S.moment_estimate(small_config())
    c = S.moment_estimate(small_config(), threads=4)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.mean == c.mean and a.stderr == c.stderr
    assert a.n_samples == 64 and a.seed == 0
    d = S.moment_estimate(small_config(seed=1))
    assert d.mean != a.mean


def test_estimate_q_zero_trivial():
    est = S.moment_estimate(small_config(q=0.0))
    assert est.mean == 1.0 and est.stderr == 0.0


def test_estimate_kappa_zero_hits_conic_value():
    est = S.moment_estimate(small_config(kappa=0.0, n_samples=4))
    _, dz = S.conic_flow(0.4, 4.0)
    want = math.exp(1.0 * (4.0 + math.log(abs(dz))))
    assert est.stderr == 0.0
    assert est.mean == pytest.approx(want, rel=1e-8)


def test_estimate_warns_outside_envelope():
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        S.moment_estimate(small_config(q=2.5, n_samples=8))
    assert any("envelope" in str(w.message) for w in got)


def test_dump_file_reproducible(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    S.moment_estimate(small_config(n_samples=16), dump=str(p1))
    S.moment_estimate(small_config(n_samples=16), dump=str(p2), threads=3)
    t1 = p1.read_text()
    assert t1 == p2.read_text()
    rows = [ln.split() for ln in t1.strip().splitlines()]
    assert len(rows) == 16
    assert [int(r[0]) for r in rows] == list(range(16))
    # column 1 is Re log F'; the estimator mean must be recomputable from it
    x = np.array([float(r[1]) for r in rows])
    est = S.moment_estimate(small_config(n_samples=16))
    assert np.mean(np.exp(1.0 * (4.0 + x))) == pytest.approx(est.mean, rel=1e-12)


def test_dump_matches_per_path_flow():
    # the batched kernel and whole_plane_map_derivative see the same paths:
    # path i draws from child i of the seed's SeedSequence
    cfg = small_config(kappa=6.0, n_steps=1000, n_samples=6, w=0.6 + 0.2j)
    buf = io.StringIO()
    S.moment_estimate(cfg, dump=buf)
    rows = np.array([[float(x) for x in ln.split()] for ln in buf.getvalue().splitlines()])
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_samples)):
        p = S.sample_driving(cfg.kappa, cfg.T, cfg.n_steps, np.random.default_rng(child))
        _, logd = S.whole_plane_map_derivative(cfg.w, p)
        assert abs(rows[i, 1] - logd.real) < 1e-9 and abs(rows[i, 2] - logd.imag) < 1e-9
        assert rows[i, 3] == pytest.approx(p.b_total, abs=1e-12)


def test_finite_difference_consistency_of_logd():
    # tracked derivative vs a centered difference of the flow itself; the
    # difference in w carries the extra rotation dz0/dw = e^{i b_total}
    p = S.sample_driving(3.0, 5.0, 2000, np.random.default_rng(4))
    w, h = 0.35 + 0.15j, 1e-5
    _, logd = S.whole_plane_map_derivative(w, p)
    zp, _ = S.whole_plane_map_derivative(w + h, p)
    zm, _ = S.whole_plane_map_derivative(w - h, p)
    fd = (zp - zm) / (2 * h)
    tracked = np.exp(logd + 1j * p.b_total)
    assert abs(tracked - fd) < 1e-4 * abs(fd)


def test_moment_estimate_matches_series_oracle_cheap():
    # small-sample smoke against the series route; 3 sigma with margin
    cfg = S.MCConfig(kappa=6.0, q=1.0, T=6.0, n_steps=2400, n_samples=400,
                     seed=0, w=0.4)
    est = S.moment_estimate(cfg, threads=4)
    g = S.gamma_roots(S.SLEParams(1.0, 6.0)).gamma_minus
    t = S.build_theta_table(g, 6.0, 200, backend="float")
    oracle = S.eval_rho(t, 0.4, 0.4).value.real
    assert abs(est.mean - oracle) < 3.5 * est.stderr
