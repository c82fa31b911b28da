"""Monte Carlo moments of the interior whole-plane map derivative.

Independent of the series/closed-form modules on purpose: the finite-horizon
interior map is built by composing frozen-driving elementary flows
dz/ds = z (z + u)/(z - u) (latest increment applied first, which is the
backward-characteristic order).  Each increment is solved exactly in the
driving frame v = z/u, where the singularity sits at 1, and the
log-derivative is accumulated from the exact step's derivative.  The moment
estimator is the sample mean of exp(q (T + Re log F')) at the rotated point
w e^{i B(T)}.

Each path's Brownian increments are drawn from its own generator one block of
_BLOCK steps at a time, latest block first, as the composition consumes them,
so a batch holds one block of increments per lane, never all of its steps.
"""
from __future__ import annotations

import cmath
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_MAX_DELTA = 1e-2
_CHUNK = 2048
_BLOCK = 256          # steps whose increments and rotations are held at once


def _is_count(n) -> bool:   # steps, samples, threads: int or numpy integer, not bool
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


class StepUnderflowError(RuntimeError):
    """Trajectory approached the driving singularity beyond recovery."""


@dataclass(frozen=True)
class DrivingPath:
    inc: np.ndarray      # driving increments dB_k, time order
    delta: float
    b_total: float       # B(T), the sum of inc's block sums, latest first


@dataclass(frozen=True)
class MCConfig:
    kappa: float
    q: float
    T: float
    n_steps: int
    n_samples: int
    seed: int
    w: complex

    def __post_init__(self):
        if not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")
        if not all(math.isfinite(float(x)) for x in (self.kappa, self.q, self.T)):
            raise ValueError(f"kappa, q and T must be finite, got {self.kappa}, "
                             f"{self.q} and {self.T}")
        if not (_is_count(self.n_steps) and _is_count(self.n_samples)):
            raise ValueError(f"n_steps and n_samples must be integers: {self.n_steps!r}, "
                             f"{self.n_samples!r}")
        if self.T <= 0 or self.n_steps < 1 or self.n_samples < 1:
            raise ValueError("T, n_steps, n_samples must be positive")
        if self.delta > _MAX_DELTA * (1 + 1e-12):
            raise ValueError(
                f"delta = T/n_steps = {self.delta:.3e} exceeds {_MAX_DELTA}")
        aw = abs(complex(self.w))
        if not aw < 1:   # NaN and inf too
            raise ValueError(f"|w| must be below 1, got w={self.w}")
        if math.exp(-self.T) > (1 - aw) / 10 + 1e-300:
            raise ValueError(
                f"horizon too short: need exp(-T) <= (1-|w|)/10 = {(1 - aw) / 10:.3e}")

    @property
    def delta(self) -> float:
        return self.T / self.n_steps


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    n_samples: int
    seed: int


# ---- driving ----

def sample_driving(kappa: float, T: float, n_steps: int,
                   stream: np.random.Generator) -> DrivingPath:
    """Brownian driving on the circle: B(0) = 0, var kappa * delta per step.

    Increment k freezes the driving at B(t_k), its right endpoint.  The
    increments are drawn one _BLOCK of steps at a time, latest block first
    (time order within a block), as the composition consumes them; a batch
    lane of `moment_estimate` draws the same way, so it sees this very path.
    """
    if not (0 <= kappa < math.inf and 0 < T < math.inf  # NaN too
            and _is_count(n_steps) and n_steps >= 1):
        raise ValueError(f"need finite kappa >= 0, finite T > 0 and integer "
                         f"n_steps >= 1, got {kappa}, {T} and {n_steps}")
    inc = np.empty(n_steps)
    b_total = np.zeros(1)
    for a, blk in _driving_blocks(kappa, T, n_steps, [stream], b_total):
        inc[a:a + blk.shape[1]] = blk[0]
    return DrivingPath(inc=inc, delta=T / n_steps, b_total=float(b_total[0]))


def _block_starts(n_steps: int) -> range:
    """First step of each _BLOCK of steps, latest block first."""
    return range((n_steps - 1) // _BLOCK * _BLOCK, -1, -_BLOCK)


def _driving_blocks(kappa: float, T: float, n_steps: int, streams, b_total):
    """Draw one path per stream, one block at a time, latest block first.

    Yields (a, blk) with blk[i] = dB_a, ..., dB_{a+m-1} of path i, time order
    within the block; blk is overwritten by the next block.  Adds each
    block's row sums to b_total, so that after the last block it holds B(T)
    as a sum of block sums.
    """
    scale = math.sqrt(kappa * (T / n_steps))
    buf = np.empty((len(streams), min(_BLOCK, n_steps)))
    for a in _block_starts(n_steps):
        blk = buf[:, :min(_BLOCK, n_steps - a)]
        for row, stream in zip(blk, streams):
            stream.standard_normal(out=row)
        blk *= scale
        b_total += blk.sum(axis=1)
        yield a, blk


# ---- elementary frozen-driving flow ----

def _increment(v: np.ndarray, delta: float, log_re: np.ndarray,
               log_im: np.ndarray) -> np.ndarray:
    """Exact flow of dv/ds = v (v+1)/(v-1) over time delta, a batch of lanes.

    This is dz/ds = z (z+u)/(z-u) in the driving frame v = z/u.  (v+1)^2/v
    grows as e^s, so the endpoint is the small root 2v/D of a quadratic,
    written without dividing by v (the origin stays a fixed point).  Returns
    the endpoint; adds the real and imaginary parts of the log of its
    derivative, delta + log(-2 (v-1)(v+1)/(D Q)), to log_re and log_im.
    """
    e = math.exp(delta)
    two_v = v + v
    one_m = 1.0 - v
    one_p = 1.0 + v
    P = one_m * one_m
    P *= e
    P += (4.0 * math.expm1(delta)) * v
    A = P + two_v
    # Q = sqrt(P (A + 2v)) with Re(conj(A) Q) >= 0, as A sqrt(P (A + 2v)/A^2)
    # and A + 2v = e^delta (1+v)^2, which does not cancel near v = -1.
    # Complex products stay out of place: numpy's in-place product rounds a
    # single lane differently, and scalar and array calls must agree bitwise.
    t = one_p / A
    Q = A * np.sqrt(t * t * e * P)
    D = A + Q
    r = one_m * one_p / (Q * D)
    # the factor 2 e^delta goes inside the log so each summand stays small
    log_re += np.log(np.abs(r) * (2.0 * e))
    log_im += np.arctan2(r.imag, r.real)
    return two_v / D


def _compose(w, delta: float, blocks):
    """Compose frozen-driving increments latest-first in the driving frame.

    blocks yields the driving increments dB_k one block at a time, latest
    block first, each with time in order on its last axis: shape (m,) for one
    path shared by every lane of w, (lanes, m) for one path per lane.  The
    point starts as w in the frame of the latest increment, where the driving
    sits at 1; after increment k it is rotated by e^{i dB_k} into the frame
    of increment k-1, and after increment 0 into the fixed frame.  Returns
    (z, log dz/dw) as 1-d arrays.
    """
    v = np.atleast_1d(np.asarray(w, dtype=complex))
    log_re = np.zeros(v.shape)
    log_im = np.zeros(v.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for blk in blocks:
            # _unit writes a fresh C-ordered array, so one step's rotations
            # for all lanes form one contiguous row without copying blk.T
            rot = _unit(blk.T)
            for k in range(len(rot) - 1, -1, -1):
                v = _increment(v, delta, log_re, log_im) * rot[k]
            del rot   # freed before the next block is drawn
    if not (np.isfinite(v).all() and np.isfinite(log_re + log_im).all()):
        raise StepUnderflowError(
            "flow reached the driving singularity: non-finite result")
    return v, log_re + 1j * log_im


def conic_flow(w, T: float):
    """Exact endpoint and w-derivative of the constant-driving flow (u = 1).

    (z+1)^2/z grows as e^s along dz/ds = z(z+u)/(z-u) at u = 1, which pins
    the endpoint algebraically: z_T solves z^2 + (2 - K e^T) z + 1 = 0 with
    K = (w+1)^2/w, small root.  Returns (z_T, dz_T/dw).
    """
    w = complex(w)
    if not (abs(w) < 1.0 and math.isfinite(T)):   # NaN too
        raise ValueError(f"need |w| < 1 and a finite T, got |w| = {abs(w)}, T = {T}")
    if w == 0:
        return 0j, complex(math.exp(-T))
    E = math.exp(T)
    b = (w + 1.0) ** 2 / w * E - 2.0
    s = cmath.sqrt(b * b - 4.0)
    big = (b + s) / 2.0
    if abs(big) < 1.0:
        big = (b - s) / 2.0
    z = 1.0 / big     # roots multiply to 1; avoids b - sqrt cancellation
    dz = E * (w * w - 1.0) * z * z / (w * w * (z * z - 1.0))
    return z, dz


# ---- finite-horizon interior map ----

def whole_plane_map_derivative(w, path: DrivingPath):
    """F(w e^{i B(T)}, T) and log of its derivative in the first argument.

    Increments compose latest-first in the frame of the latest one, where
    the start point w e^{i B(T)} is w itself.  Log-space throughout: the raw
    value contracts like e^{-T}.  w may be a scalar or a 1-d array (one
    shared driving path); a lane equals its batched lane bit for bit.
    """
    scalar = np.ndim(w) == 0
    inc = path.inc
    z, logd = _compose(w, path.delta,
                       (inc[a:a + _BLOCK] for a in _block_starts(len(inc))))
    if scalar:
        return complex(z[0]), complex(logd[0])
    return z, logd


def _unit(angle: np.ndarray) -> np.ndarray:
    """e^{i angle} from cos and sin, cheaper than a complex exp."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _flow_chunk(w: complex, T: float, n_steps: int, kappa: float,
                seeds) -> tuple:
    # each path's generator draws its increments block by block as the
    # composition consumes them: a chunk holds one block, never all steps
    streams = [np.random.default_rng(child) for child in seeds]
    b_total = np.zeros(len(seeds))
    blocks = (blk for _, blk in _driving_blocks(kappa, T, n_steps, streams, b_total))
    _, logd = _compose(np.full(len(seeds), w), T / n_steps, blocks)
    return logd, b_total


def moment_estimate(config: MCConfig, dump=None, threads: int = 1) -> MCEstimate:
    """Sample mean and stderr of exp(q (T + Re log F')).

    Per-path RNG streams are spawned from the seed, so the estimate is
    independent of chunking and thread count, and bit-identical per seed.
    Optional dump: one `index log_deriv_re log_deriv_im B_T` line per path.
    """
    if not _is_count(threads) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    if abs(config.q) > 2 or abs(complex(config.w)) > 0.9:
        warnings.warn("outside the validated envelope |q| <= 2, |w| <= 0.9",
                      RuntimeWarning, stacklevel=2)
    entropy = np.random.SeedSequence(config.seed).entropy
    spans = [(a, min(a + _CHUNK, config.n_samples))
             for a in range(0, config.n_samples, _CHUNK)]

    def work(span):
        # path i draws from child i of root.spawn, rebuilt here so that a
        # batch holds only its running chunks' seeds, not all n_samples
        seeds = [np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(*span)]
        return _flow_chunk(complex(config.w), config.T,
                           config.n_steps, config.kappa, seeds)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(work, spans))
    else:
        parts = [work(s) for s in spans]
    logd = np.concatenate([p[0] for p in parts])
    bT = np.concatenate([p[1] for p in parts])
    with np.errstate(over="ignore"):   # reported below as one OverflowError
        X = np.exp(config.q * (config.T + logd.real))
    if not np.all(np.isfinite(X)):
        raise OverflowError(
            "sample overflow in the moment estimator; reduce |q| or |w|")
    mean = float(np.mean(X))
    stderr = float(np.std(X, ddof=1) / math.sqrt(config.n_samples)) \
        if config.n_samples > 1 else math.inf
    if stderr > 0.5 * abs(mean):
        warnings.warn("estimate not converged: stderr exceeds mean/2",
                      RuntimeWarning, stacklevel=2)
    if dump is not None:
        own = not hasattr(dump, "write")
        fh = open(dump, "w") if own else dump
        try:
            for i in range(config.n_samples):
                fh.write("%d %.17g %.17g %.17g\n"
                         % (i, logd.real[i], logd.imag[i], bT[i]))
        finally:
            if own:
                fh.close()
    return MCEstimate(mean=mean, stderr=stderr, n_samples=config.n_samples,
                      seed=config.seed)
