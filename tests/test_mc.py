"""Interior-flow Monte Carlo: integrator, driving, estimator, reproducibility."""

import cmath
import io
import math
import operator
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import slespec as S


def unit_path(T, n):
    # constant driving = the kappa -> 0 limit
    return S.sample_driving(0.0, T, n, np.random.default_rng(0))


# ---- driving ----

def one_step(delta):
    return S.DrivingPath(inc=np.zeros(1), delta=delta, b_total=0.0)


def test_sample_driving_shapes_and_kappa_zero():
    p = S.sample_driving(0.0, 4.0, 160, np.random.default_rng(1))
    assert p.inc.shape == (160,)
    assert p.delta == pytest.approx(0.025)
    assert np.all(p.inc == 0.0)
    assert p.b_total == 0.0


@pytest.mark.parametrize("kappa,T,n", [(0.0, -1.0, 10), (1.0, -1.0, 10),
                                       (2.0, 0.0, 10), (2.0, math.nan, 10),
                                       (2.0, 1.0, 0), (math.nan, 1, 10),
                                       (math.inf, 1, 10), (2, math.inf, 10),
                                       (2.0, 1.0, 10.5), (2.0, 1.0, True)])
def test_sample_driving_rejects_impossible_horizon(kappa, T, n):
    # a negative horizon would run the flow backwards, silently; a NaN kappa
    # or an infinite T would make a NaN or infinite path, which the flow
    # would report as a misleading StepUnderflowError
    with pytest.raises(ValueError, match="T > 0"):
        S.sample_driving(kappa, T, n, np.random.default_rng(0))


@pytest.mark.parametrize("field", ["kappa", "q", "T", "w"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite(field, bad):
    base = dict(kappa=2.0, q=1.0, T=8.0, n_steps=3200, n_samples=4, seed=0,
                w=0.5 + 0j)
    S.MCConfig(**base)
    with pytest.raises(ValueError):
        S.MCConfig(**{**base, field: bad})


@pytest.mark.parametrize("field,bad", [
    ("n_steps", 3200.5), ("n_steps", 3200.0), ("n_samples", 4.5),
    ("n_samples", True), ("n_samples", np.True_), ("n_samples", "4"),
])
def test_config_rejects_non_integer_counts(field, bad):
    # a float count passed here and failed later inside numpy with TypeError
    base = dict(kappa=2.0, q=1.0, T=8.0, n_steps=3200, n_samples=4, seed=0,
                w=0.5 + 0j)
    with pytest.raises(ValueError, match="must be integers"):
        S.MCConfig(**{**base, field: bad})


@pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
def test_config_rejects_seeds_that_seed_sequence_would(bad):
    # -1 failed later inside numpy ("expected non-negative integer"), 1.5 with
    # a TypeError from SeedSequence, and True was taken as seed 1
    base = dict(kappa=2.0, q=1.0, T=8.0, n_steps=3200, n_samples=4, seed=0,
                w=0.5 + 0j)
    with pytest.raises(ValueError, match=f"^seed must be a nonnegative integer, "
                       f"got {re.escape(repr(bad))}$"):
        S.MCConfig(**{**base, "seed": bad})


def test_config_takes_numpy_and_wide_integer_seeds():
    cfg = dict(kappa=2.0, q=1.0, T=4.0, n_steps=400, n_samples=8, w=0.4)
    want = S.moment_estimate(S.MCConfig(seed=3, **cfg))
    got = S.moment_estimate(S.MCConfig(seed=np.int64(3), **cfg))
    assert (got.mean, got.stderr) == (want.mean, want.stderr)
    wide = S.moment_estimate(S.MCConfig(seed=2 ** 70, **cfg))
    assert wide.seed == 2 ** 70 and math.isfinite(wide.mean)


def test_sample_driving_variance_scale():
    # total variance of B(T) is kappa*T
    kappa, T = 3.0, 2.0
    vals = [S.sample_driving(kappa, T, 200, np.random.default_rng(s)).b_total
            for s in range(400)]
    var = np.var(vals)
    assert abs(var - kappa * T) < 0.8   # ~4 sigma for 400 draws


# ---- one step and the exact conic solution ----

def test_one_step_path_fixes_origin():
    z, logd = S.whole_plane_map_derivative(0.0, one_step(0.01))
    assert z == 0
    assert logd == pytest.approx(-0.01, abs=1e-12)


def test_single_step_matches_conic():
    w = 0.4 + 0.2j
    zc, _ = S.conic_flow(w, 0.01)
    z, _ = S.whole_plane_map_derivative(w, one_step(0.01))
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


@pytest.mark.parametrize("w,T", [(math.nan, 1.0), (complex(0.1, math.nan), 1.0),
                                 (0.5, math.inf), (0.5, math.nan), (0.0, math.inf)])
def test_conic_flow_rejects_non_finite(w, T):
    # each returned a NaN pair (or, at w = 0, a silent zero derivative)
    with pytest.raises(ValueError):
        S.conic_flow(w, T)


def test_composed_flow_matches_conic():
    # 128 / 256 = 0.5 per step: Re log F' takes one log per block of a
    # running product, which must not leave the float range at coarse steps
    for T, n in [(12.0, 4800), (128.0, 256)]:
        p = unit_path(T, n)
        for w in (0.5, -0.3, 0.35 + 0.45j):
            zf, logd = S.whole_plane_map_derivative(w, p)
            zc, dz = S.conic_flow(w, T)
            assert abs(zf - zc) < 1e-9
            assert abs(np.exp(logd) - dz) < 1e-8 * abs(dz)


@pytest.mark.parametrize("w", [0.5, -0.3, 0.35 + 0.45j, np.array([0.5, 0.2j])])
def test_coarse_path_flushes_the_running_product(w):
    # 300 / 256 per step: a whole block's running product of r would fall
    # below the float range (m (2 delta + log 2) > 700) and raised
    # StepUnderflowError; the block now takes one log per shorter span
    T, p = 300.0, unit_path(300.0, 256)
    zf, logd = S.whole_plane_map_derivative(w, p)
    for z, ld, w0 in zip(np.atleast_1d(zf), np.atleast_1d(logd), np.atleast_1d(w)):
        zc, dz = S.conic_flow(w0, T)
        assert abs(z - zc) <= 1e-12 * abs(zc)
        assert abs(ld - cmath.log(dz)) <= 1e-12   # dz/dw to 1e-12, relatively


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
    for u in np.exp(1j * np.cumsum(path.inc))[::-1]:
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


def old_unit(angle):
    """_unit as it stood: cos and sin read angle in its own layout."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


@pytest.mark.parametrize("shape", [(512, 256), (2048, 256), (8, 232), (232,)],
                         ids=["512x256", "2048x256", "8x232", "shared-232"])
def test_unit_step_major_keeps_bits(shape):
    # a batch passes blk.T, a strided (steps, lanes) view of a (lanes, steps)
    # block; a shared path passes its 1-d block as it is
    blk = np.random.default_rng(len(shape) * shape[0]).standard_normal(shape)
    blk[..., :3] = [0.0, -0.0, 1e-300]
    blk *= math.sqrt(6.0 * 0.0025)
    rot = S.mc._unit(blk.T)
    assert rot.flags.c_contiguous and rot.shape == blk.T.shape
    assert rot.tobytes() == old_unit(blk.T).tobytes()
    assert rot.tobytes() == old_unit(np.ascontiguousarray(blk.T)).tobytes()


def streamed_blocks(path):
    return (path.inc[a:a + S.mc._BLOCK] for a in S.mc._block_starts(len(path.inc)))


def old_increment(v, delta, log_re, log_im):
    """The exact step as it stood with one log per step, kept as a reference.

    Returns the endpoint; adds log|2 e^delta r| and arg r to log_re and log_im.
    """
    e = math.exp(delta)
    two_v = v + v
    one_m = 1.0 - v
    one_p = 1.0 + v
    P = one_m * one_m
    P *= e
    P += (4.0 * math.expm1(delta)) * v
    A = P + two_v
    t = one_p / A
    Q = A * np.sqrt(t * t * e * P)
    D = A + Q
    r = one_m * one_p / (Q * D)
    log_re += np.log(np.abs(r) * (2.0 * e))
    log_im += np.arctan2(r.imag, r.real)
    return two_v / D


def old_compose(w, delta, blocks):
    """_compose as it stood with old_increment, on 1-d lanes.

    Also returns each lane's closest approach |v - 1| to the driving point,
    and log|R| per block and lane, R the product of the block's r.
    """
    v = np.atleast_1d(np.asarray(w, dtype=complex))
    log_re, log_im = np.zeros(v.shape), np.zeros(v.shape)
    closest = np.full(v.shape, np.inf)
    log_R = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for blk in blocks:
            rot = old_unit(blk.T)
            before = log_re.copy()
            for k in range(len(rot) - 1, -1, -1):
                closest = np.minimum(closest, np.abs(v - 1.0))
                v = old_increment(v, delta, log_re, log_im) * rot[k]
            log_R.append(log_re - before - len(rot) * math.log(2.0 * math.exp(delta)))
    return v, log_re + 1j * log_im, closest, np.array(log_R)


def u_quotient_reference(w, path):
    """The composition as it stood before paths carried only increments.

    The driving u_k = e^{i B(t_k)} is divided back into the rotations
    u_k / u_{k-1}, and old_increment composes latest-first.
    """
    u = np.exp(1j * np.cumsum(path.inc))
    rot = u / np.concatenate(([1.0], u[:-1]))
    v = np.atleast_1d(np.asarray(w, dtype=complex))
    log_re, log_im = np.zeros(v.shape), np.zeros(v.shape)
    for k in range(len(rot) - 1, -1, -1):
        v = old_increment(v, path.delta, log_re, log_im) * rot[k]
    return v, log_re + 1j * log_im


def assert_one_log_per_block_keeps_bits(ws, delta, make_blocks):
    """New kernel against old_compose on the same blocks.

    make_blocks() returns (b_total, blocks) afresh.  z, Im log F' and B_T
    must keep every bit; Re log F' moves by round-off only.  No block's
    running product R underflows or overflows: the block takes one log.
    """
    b_new, blocks = make_blocks()
    z, logd = S.mc._compose(ws, delta, blocks)
    b_old, blocks = make_blocks()
    z_old, logd_old, closest, log_R = old_compose(ws, delta, blocks)
    assert np.sum(closest < 0.11) >= 3   # lanes near the driving point
    assert math.log(1e-250) < np.min(log_R) and np.max(log_R) < math.log(np.finfo(float).max)
    assert z.tobytes() == z_old.tobytes()
    assert logd.imag.tobytes() == logd_old.imag.tobytes()
    assert b_new.tobytes() == b_old.tobytes()
    assert np.max(np.abs(logd.real - logd_old.real)) <= 1e-12


# two full blocks and a partial one of 100 steps, which is drawn first
EQUIV_STEPS = 2 * 256 + 100


@pytest.mark.parametrize("kappa", [0.0, 6.0])
def test_one_log_per_block_keeps_bits_on_a_shared_path(kappa):
    assert EQUIV_STEPS % S.mc._BLOCK == 100
    p = S.sample_driving(kappa, 4.0, EQUIV_STEPS, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    ws = np.concatenate((
        [0.9, 0.93 * np.exp(0.05j)],
        0.999 * np.exp(2j * np.pi * np.arange(16) / 16),
        0.9 * np.sqrt(rng.uniform(size=30)) * np.exp(2j * np.pi * rng.uniform(size=30))))
    assert_one_log_per_block_keeps_bits(
        ws, p.delta, lambda: (np.array([p.b_total]), streamed_blocks(p)))


@pytest.mark.parametrize("kappa", [0.0, 6.0])
@pytest.mark.parametrize("w", [0.999, 0.93 * np.exp(0.05j)], ids=["0.999", "0.93e^0.05i"])
def test_one_log_per_block_keeps_bits_on_a_batch(kappa, w):
    seeds = np.random.SeedSequence(23).spawn(64)

    def make_blocks():
        streams = [np.random.default_rng(child) for child in seeds]
        b_total = np.zeros(len(seeds))
        return b_total, (blk for _, blk in S.mc._driving_blocks(
            kappa, 4.0, EQUIV_STEPS, streams, b_total))

    assert_one_log_per_block_keeps_bits(np.full(len(seeds), complex(w)),
                                        4.0 / EQUIV_STEPS, make_blocks)


@pytest.mark.parametrize("seed", range(5))
def test_increment_composition_matches_u_quotient(seed):
    rng = np.random.default_rng(100 + seed)
    kappa = (1.0, 2.0, 8 / 3, 4.0, 6.0)[seed]
    p = S.sample_driving(kappa, 2.0, 600, rng)
    ws = 0.85 * np.sqrt(rng.uniform(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
    z, logd = S.whole_plane_map_derivative(ws, p)
    z_ref, logd_ref = u_quotient_reference(ws, p)
    assert np.max(np.abs(z - z_ref)) < 1e-12
    assert np.max(np.abs(logd - logd_ref)) < 1e-12


def test_flow_from_the_driving_point_raises():
    # the step's derivative vanishes at v = 1, so log F' is not finite
    with pytest.raises(S.StepUnderflowError):
        S.whole_plane_map_derivative(np.array([0.5, 1.0]), unit_path(1.0, 100))


def test_array_and_scalar_paths_agree():
    # a scalar w runs as a numpy complex128 through the array kernel
    rng = np.random.default_rng(10)
    ws64 = np.concatenate(([0.999, 0.93 * np.exp(0.05j)],
                           0.95 * np.sqrt(rng.uniform(size=62))
                           * np.exp(2j * np.pi * rng.uniform(size=62))))
    for kappa, T, n, ws in [(2.0, 3.0, 1200, np.array([0.5, -0.2 + 0.3j, 0.1j])),
                            (6.0, 4.0, 1000, ws64)]:
        p = S.sample_driving(kappa, T, n, np.random.default_rng(9))
        zs, lds = S.whole_plane_map_derivative(ws, p)
        for k, w in enumerate(ws):
            z1, l1 = S.whole_plane_map_derivative(complex(w), p)
            assert z1 == zs[k] and l1 == lds[k], (kappa, k)


def _inplace(op):
    # arrays update in place, as the kernel's P *= e and P += c v do; on a
    # numpy scalar the same statement rebinds to an out-of-place result
    return lambda a, b: op(a.copy(), b)


_E, _C = math.exp(0.0025), 4.0 * math.expm1(0.0025)
KERNEL_OPS = {
    "a + b": lambda a, b: a + b,
    "1 - a": lambda a, b: 1.0 - a,
    "1 + a": lambda a, b: 1.0 + a,
    "a * e": lambda a, b: a * _E,
    "c * a": lambda a, b: _C * a,
    "a *= e": _inplace(lambda x, b: operator.imul(x, _E)),
    "a += b": _inplace(operator.iadd),
    "a / b": lambda a, b: a / b,
    "multiply(a, b)": np.multiply,
    "multiply(1.0, a)": lambda a, b: np.multiply(1.0, a),
    "sqrt(a)": lambda a, b: np.sqrt(a),
    "log(|a| s)": lambda a, b: np.log(np.abs(a) * np.ldexp(np.exp(0.64), 256)),
    "arctan2(a)": lambda a, b: np.arctan2(a.imag, a.real),
    "x += y": lambda a, b: operator.iadd(a.real.copy(), b.imag),
    "x + 1j y": lambda a, b: a.real + 1j * b.imag,
}


@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_kernel_ops_agree_on_numpy_scalars_and_arrays(name):
    # the one-point flow's bit-for-bit equality with its batched lane rests
    # on each of these giving the array loop's bits on numpy scalars; numpy's
    # scalar `*` of two complex numbers does not, so the kernel avoids it
    op = KERNEL_OPS[name]
    rng = np.random.default_rng(sorted(KERNEL_OPS).index(name))
    n = 20000
    a, b = ((rng.normal(size=n) + 1j * rng.normal(size=n))
            * 10.0 ** rng.uniform(-3, 3, size=n) for _ in range(2))
    want = op(a, b)
    got = np.array([op(x, y) for x, y in zip(a, b)])
    differ = np.sum(got.view(np.uint64).reshape(n, -1) != want.view(np.uint64).reshape(n, -1))
    assert differ == 0, f"{name}: {differ} of {n} lanes differ"


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


@pytest.mark.parametrize("threads", [0, -3, 2.5, True])
def test_estimate_rejects_threads_below_one_or_not_integer(threads):
    with pytest.raises(ValueError, match="threads must be an integer >= 1"):
        S.moment_estimate(small_config(n_samples=4), threads=threads)


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


def test_estimate_overflow_raises():
    # at kappa = 0 every sample is the conic flow's; q = 150 at w = -0.9
    # takes exp(q (T + Re log F')) past the float range
    cfg = S.MCConfig(kappa=0.0, q=150.0, T=5.0, n_steps=500, n_samples=2,
                     seed=0, w=-0.9)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="sample overflow"):
            S.moment_estimate(cfg)
    assert any("envelope" in str(w.message) for w in got)


def test_estimate_overflow_is_reported_once():
    # numpy's own overflow warning from exp must not escape before the
    # OverflowError that reports the same failure
    cfg = S.MCConfig(kappa=0.0, q=150.0, T=5.0, n_steps=500, n_samples=2,
                     seed=0, w=-0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message="outside the validated envelope")
        with pytest.raises(OverflowError, match="sample overflow"):
            S.moment_estimate(cfg)


def test_estimate_warns_when_not_converged():
    # eight heavy-tailed samples near |w| = 0.9: stderr exceeds mean/2
    cfg = S.MCConfig(kappa=6.0, q=2.0, T=5.0, n_steps=500, n_samples=8,
                     seed=1, w=0.89)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        est = S.moment_estimate(cfg)
    assert est.stderr > 0.5 * est.mean
    assert [str(w.message) for w in got] == [
        "estimate not converged: stderr exceeds mean/2"]


def test_dump_file_reproducible(tmp_path):
    # the caller opens the dump and closes it; the run leaves it open, and
    # a file and a string buffer get the same text
    p1, p2, buf = tmp_path / "a.txt", tmp_path / "b.txt", io.StringIO()
    with open(p1, "w") as f1, open(p2, "w") as f2:
        S.moment_estimate(small_config(n_samples=16), dump=f1)
        S.moment_estimate(small_config(n_samples=16), dump=f2, threads=3)
        assert not (f1.closed or f2.closed)
    S.moment_estimate(small_config(n_samples=16), dump=buf)
    t1 = p1.read_text()
    assert t1 == p2.read_text() == buf.getvalue()
    rows = [ln.split() for ln in t1.strip().splitlines()]
    assert len(rows) == 16
    assert [int(r[0]) for r in rows] == list(range(16))
    # column 1 is Re log F'; the estimator mean must be recomputable from it
    x = np.array([float(r[1]) for r in rows])
    est = S.moment_estimate(small_config(n_samples=16))
    assert np.mean(np.exp(1.0 * (4.0 + x))) == pytest.approx(est.mean, rel=1e-12)


@pytest.mark.parametrize("dump", ["paths.txt", pathlib.Path("paths.txt"), 3],
                         ids=["str", "Path", "int"])
def test_dump_that_is_not_an_open_file_is_refused_before_any_chunk(dump, monkeypatch,
                                                                     tmp_path):
    # a path was opened only after the whole run; now nothing is simulated
    def fail(*args, **kwargs):
        raise AssertionError("composed a chunk although the dump is not a file")

    monkeypatch.setattr(S.mc, "_flow_chunk", fail)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(TypeError, match=re.escape(repr(dump))):
        S.moment_estimate(small_config(n_samples=4), dump=dump)
    assert not (tmp_path / "paths.txt").exists()


def dump_rows(cfg):
    buf = io.StringIO()
    S.moment_estimate(cfg, dump=buf)
    return np.array([[float(x) for x in ln.split()] for ln in buf.getvalue().splitlines()])


def test_dump_matches_per_path_flow():
    # the batched kernel and whole_plane_map_derivative see the same paths:
    # path i draws from child i of the seed's SeedSequence, and a single
    # flow equals its batched lane bit for bit
    cfg = small_config(kappa=6.0, n_steps=1000, n_samples=6, w=0.6 + 0.2j)
    rows = dump_rows(cfg)
    for i, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.n_samples)):
        p = S.sample_driving(cfg.kappa, cfg.T, cfg.n_steps, np.random.default_rng(child))
        _, logd = S.whole_plane_map_derivative(cfg.w, p)
        assert rows[i, 1] == logd.real and rows[i, 2] == logd.imag
        assert rows[i, 3] == p.b_total


# Re log F', Im log F', B_T per path of the dump above, as float.hex.  The
# mc-moments benchmark gates on seeded samples, so batch samples must not
# move silently; the literals come from numpy's float64 log, arctan2, sqrt,
# cos and sin as built for x86-64 (numpy 2.4), with each path's increments
# drawn block by block, latest block first, and Re log F' taken as one log
# per block of the running product R.
PINNED_DUMP = [
    ("-0x1.4c54bcac3cd78p+2", "-0x1.48e05773bb69fp-1", "0x1.3a31be86d8b46p+2"),
    ("-0x1.2fcdb55213af0p+2", "-0x1.3365557d2bcf5p+0", "0x1.ac9e11d8e4181p+1"),
    ("-0x1.3a189a090c6c7p+2", "-0x1.6ef92617c3f2bp+0", "0x1.1f9ce92de1eeep+3"),
    ("-0x1.8080abcde8f3fp+1", "0x1.7a5d250d82aefp-2", "0x1.d161553294b06p+1"),
    ("-0x1.bf5f0e92ab88ep+1", "-0x1.b9b589e48b944p+0", "0x1.68677bb0e3afbp+1"),
    ("-0x1.35e6c8a492d35p+2", "-0x1.12b8d1215b81fp+0", "0x1.6f488f0781e30p-1"),
]


def test_batch_samples_are_pinned():
    cfg = small_config(kappa=6.0, n_steps=1000, n_samples=6, w=0.6 + 0.2j)
    rows = dump_rows(cfg)
    assert rows[:, 0].tolist() == list(range(6))
    want = np.array([[float.fromhex(x) for x in r] for r in PINNED_DUMP])
    assert rows[:, 1:].tolist() == want.tolist()


def materialised_chunk(w, T, n_steps, kappa, seeds):
    """The batch draw as it stood before increments were streamed.

    Every path's increments are drawn at once and held, (lanes, n_steps),
    then composed by _compose block by block from the held array.  The
    draws are assigned to steps in block order, latest block first, and B_T
    is summed block by block in that order, as the streamed chunk does.
    """
    B = S.mc._BLOCK
    starts = S.mc._block_starts(n_steps)
    delta = T / n_steps
    inc = np.empty((len(seeds), n_steps))
    for row, child in zip(inc, seeds):
        draws = np.random.default_rng(child).standard_normal(n_steps) * math.sqrt(kappa * delta)
        used = 0
        for a in starts:
            m = min(B, n_steps - a)
            row[a:a + m] = draws[used:used + m]
            used += m
    b_total = np.zeros(len(seeds))
    for a in starts:
        b_total += inc[:, a:a + B].sum(axis=1)
    assert np.max(np.abs(b_total - inc.sum(axis=1))) < 1e-13
    _, logd = S.mc._compose(np.full(len(seeds), w, dtype=complex), delta,
                            (inc[:, a:a + B] for a in starts))
    return logd, b_total


def test_streamed_chunk_equals_materialised_chunk():
    # 1000 steps: the latest block, drawn first, holds only 232 steps
    assert 1000 % S.mc._BLOCK == 232
    seeds = np.random.SeedSequence(7).spawn(8)
    args = (0.6 + 0.2j, 4.0, 1000, 6.0)
    logd, b_total = S.mc._flow_chunk(*args, seeds)
    logd_ref, b_ref = materialised_chunk(*args, seeds)
    assert logd.real.tolist() == logd_ref.real.tolist()
    assert logd.imag.tolist() == logd_ref.imag.tolist()
    assert b_total.tolist() == b_ref.tolist()


@pytest.mark.parametrize("kappa", [0.0, 6.0])
@pytest.mark.parametrize("w", [0.5, 0.999 * np.exp(0.05j)], ids=["0.5", "0.999e^0.05i"])
def test_chunk_without_im_keeps_re_bits(kappa, w):
    # 1000 steps: a 232-step partial block, drawn first, and three full ones
    seeds = np.random.SeedSequence(31).spawn(64)
    args = (complex(w), 10.0, 1000, kappa)
    re, b_re = S.mc._flow_chunk(*args, seeds, im=False)
    logd, b_total = S.mc._flow_chunk(*args, seeds)
    assert re.dtype == np.float64 and logd.dtype == np.complex128
    assert re.tobytes() == logd.real.tobytes()
    assert b_re.tobytes() == b_total.tobytes()


@pytest.mark.parametrize("kappa", [0.0, 6.0])
@pytest.mark.parametrize("w", [0.5, 0.999 * np.exp(0.05j)], ids=["0.5", "0.999e^0.05i"])
@pytest.mark.parametrize("lanes", [64, S.mc._CHUNK + 5], ids=["64", "2-chunk"])
def test_estimate_without_dump_equals_estimate_with_one(kappa, w, lanes):
    # without a dump the batch skips Im log F'; the estimate keeps its bits
    cfg = S.MCConfig(kappa=kappa, q=1.0, T=10.0, n_steps=1000, n_samples=lanes,
                     seed=5, w=w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # |w| = 0.999 is outside the envelope
        est = S.moment_estimate(cfg)
        buf = io.StringIO()
        assert S.moment_estimate(cfg, dump=buf) == est
    rows = buf.getvalue().splitlines()
    assert len(rows) == lanes
    x = np.array([float(r.split()[1]) for r in rows])
    assert est.mean == float(np.mean(np.exp(1.0 * (10.0 + x))))


@pytest.mark.parametrize("im", [False, True])
def test_chunk_from_the_driving_point_raises(im):
    # r = 0 at v = 1 makes R, and so Re log F', non-finite: the check on
    # Re log F' alone still sees it
    seeds = np.random.SeedSequence(8).spawn(4)
    with pytest.raises(S.StepUnderflowError):
        S.mc._flow_chunk(1.0 + 0j, 4.0, 400, 2.0, seeds, im=im)


def traced_peak(**kw):
    # tracemalloc peak of one moment_estimate run at kappa=2, q=1, w=0.5
    cfg = S.MCConfig(kappa=2.0, q=1.0, seed=0, w=0.5, **kw)
    tracemalloc.start()
    try:
        S.moment_estimate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_steps():
    # a chunk holds one block of increments, not all of its steps
    def peak(n_steps):
        return traced_peak(T=8.0, n_steps=n_steps, n_samples=256)

    peak(800)   # warm-up: first-call allocations are not the batch's
    assert peak(3200) <= 1.05 * peak(800)


def test_chunk_traced_peak_has_an_absolute_bound():
    # one 512-lane chunk holds one block of increments and one of rotations;
    # a name that kept a row (a view) of a spent rotation block alive would
    # hold two rotation blocks at once (+2 MB here), which the step-count
    # comparison above cannot see.  3 706 784 B is the peak of the one-log-
    # per-step kernel this one replaced, measured with Python 3.11, numpy 2.4
    traced_peak(T=8.0, n_steps=800, n_samples=256)   # warm-up
    peak = traced_peak(T=8.0, n_steps=3200, n_samples=512)
    assert peak <= 1.01 * 3_706_784, f"{peak} B traced"


def test_batch_memory_does_not_grow_with_samples():
    # a batch holds its running chunks' state only: the per-path seeds are
    # rebuilt chunk by chunk, so what grows with n_samples is the per-sample
    # results (log F', B_T and the moments), tens of bytes per sample
    def peak(n_samples):
        return traced_peak(T=3.0, n_steps=300, n_samples=n_samples)

    peak(64)   # warm-up: first-call allocations are not the batch's
    chunk = S.mc._CHUNK
    growth = (peak(4 * chunk) - peak(chunk)) / (3 * chunk)
    assert growth <= 100, f"{growth:.0f} B traced per extra sample"


def test_chunk_boundary_thread_invariant():
    # one full chunk and a 3-lane one; 300 steps are a 44-step block and a
    # full one
    cfg = small_config(T=3.0, n_steps=300, n_samples=S.mc._CHUNK + 3)
    ests, dumps = [], []
    for threads in (1, 2):
        buf = io.StringIO()
        ests.append(S.moment_estimate(cfg, dump=buf, threads=threads))
        dumps.append(buf.getvalue())
    assert ests[0] == ests[1]
    assert dumps[0] == dumps[1]


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
