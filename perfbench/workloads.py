"""The benchmark's three workloads.

Each workload draws its inputs and oracle values from the seed at set-up and
then serves a fixed cycle of ops.  The shape of a cycle (which op kinds, in
which order, at which sizes) never depends on the seed; only the parameters
inside it do, so every seed does the same mix of work.  An op calls the
library through the tracer and raises if an output disagrees with its
oracle.

A run cycles through a pool of input draws (`pool_size`); every op's time
is scaled by the reference kernel timed around it (refclock.py), so ops need
not repeat to be compared.

The timed cycles draw from inputs the library handles at this version, so
no timed op is expected to fail.  The known defects run instead in a census
(`census`): a few seeded inputs, each once a run, outside the timed pass,
reported by input with their failures counted.  A census op carries a test
(`known`) that accepts only its documented failure mode; any other failure,
in the census or the timed pass, means a wrong answer the benchmark has no
excuse for, and the run reports `correct: false`.  Known defects at this
library version:

- hyp2f1 raising at x >= 0.999 with integer c-a-b, and losing precision at
  x > 0.9 with c-a-b within ~1e-6 of an integer;
- eigen_solve's "unexpected complex spectrum" refusals (gamma in FAILING),
  and its "no sign-change certificate" failures at M = 20;
- the kappa = 0 flow losing accuracy (relative error above 1e-6) for w
  within 0.25 of the driving point 1.

The MC z-gate can also fail by chance (`chance`), in the timed pass.
"""
from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import slespec as S
from slespec import cli
from slespec.eigen import EigenCertificationError

import oracle
from spans import Mismatch, check

Z_GATE = 4.0      # MC ops pass at |z| <= 4 against their oracle
FAR_FROM_ONE = 0.3   # timed kappa = 0 flows keep |w - 1| at least this
# M -> k of the admissible gamma = k/48 on which eigen_solve fails at this
# library version (a scan of k = 1..159): "unexpected complex spectrum", or
# at M = 20 "no sign-change certificate" for the k in NO_SIGN_CHANGE_M20.
FAILING = {5: (48,), 15: (8, 150),
           20: (5, 7, 8, 9, 10, 12, 17, 20, 23, 24, 25, 26, 28, 31, 33, 36, 39, 41, 42,
                47, 57, 60, 63, 78, 79, 80, 82, 99, 100, 101, 102, 121, 143)}
NO_SIGN_CHANGE_M20 = (28, 33, 100, 121)


@dataclass(frozen=True)
class Op:
    kind: str
    desc: str
    fn: Callable
    known: Optional[Callable[[Exception], bool]] = None
    chance: bool = False


def _mismatch_at(layer: str, also: bool = True) -> Callable[[Exception], bool]:
    """Accepts an oracle disagreement at `layer`, and nothing that raised."""
    return lambda e: also and isinstance(e, Mismatch) and e.layer == layer


def _conj_point(rng, rmax: float) -> complex:
    return complex(rmax * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform()))


def _near_one(rng) -> complex:
    """A point 0.1 to 0.14 from the driving point 1, where kappa = 0 flows
    lose accuracy."""
    return complex(rng.uniform(0.87, 0.9) * cmath.exp(1j * rng.uniform(-0.05, 0.05)))


def _rel(got, want) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _cli(tr, layer: str, argv, work: float = 1.0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tr.call(layer, cli.main, argv, work=work)
    return code, out.getvalue()


def _den_bits(rows) -> int:
    return max(v.denominator.bit_length() for row in rows for v in row)


class Workload:
    name = ""
    pool_size = 1   # distinct input cycles a run draws and repeats
    census = ()     # known-defect ops, each run once outside the timed pass

    def cycle(self, c: int) -> list:
        return self.pool[c % len(self.pool)]

    def traced_extras(self, tr) -> dict:
        """Trace-only measurements outside the op cycle."""
        return {}


# ---------------------------------------------------------------- mc-moments

class MCMoments(Workload):
    """Monte Carlo moments in wide batches plus single-path flows."""

    name = "mc-moments"
    KAPPAS = (2.0, 8 / 3, 4.0, 6.0)

    def __init__(self, seed: int, small: bool = False):
        self.T, self.steps, self.lanes = (5.0, 500, 16) if small else (8.0, 3200, 512)
        self.single_T, self.single_steps = (5.0, 500) if small else (20.0, 8000)
        self.t2 = dict(T=3.0, n_steps=300) if small else dict(T=8.0, n_steps=800)
        rng = np.random.default_rng(seed)
        self.pool = [self._draw(rng) for _ in range(self.pool_size)]
        self.census = [self._single(rng, near_one=True), self._flat_batch_near_one(rng)]

    def _draw(self, rng) -> list:
        b = [self._batch(rng, k) for k in self.KAPPAS + (0.0,)]
        s = [self._single(rng) for _ in range(2)]
        return [b[0], b[1], s[0], b[2], b[3], b[4], s[1]]

    def _batch(self, rng, kappa: float) -> Op:
        # q shrinks as |w| grows so that the per-path moments keep a tail the
        # z-gate can judge with this many lanes
        while True:
            r = rng.uniform(0.3, 0.85)
            q = rng.uniform(0.5, 2.0 - 1.5 * (r - 0.3) / 0.55)
            w = complex(r * cmath.exp(2j * math.pi * rng.uniform()))
            if kappa > 0.0 or abs(w - 1) >= FAR_FROM_ONE:
                break
        cfg = S.MCConfig(kappa=kappa, q=q, T=self.T, n_steps=self.steps,
                         n_samples=self.lanes, seed=int(rng.integers(2 ** 31)), w=w)
        if kappa == 0.0:
            _, dz = S.conic_flow(w, self.T)
            want = math.exp(q * (self.T + math.log(abs(dz))))
        else:
            g = oracle.gamma_roots(q, kappa)[0]
            table = S.build_theta_table(g, kappa, 250, backend="float")
            want = S.eval_rho(table, w, w.conjugate()).value.real
        work = self.lanes * self.steps

        def fn(tr):
            est = tr.call("mc.moment_estimate", S.moment_estimate, cfg, work=work)
            if kappa == 0.0:
                rel = abs(est.mean - want) / want
                check(rel <= 1e-6, "mc.moment_estimate", f"rel err {rel:.2e} vs conic_flow")
            else:
                z = (est.mean - want) / est.stderr if est.stderr > 0 else math.inf
                check(abs(z) <= Z_GATE, "mc.moment_estimate",
                      f"z={z:+.2f} (mean {est.mean:.6g}, series {want:.6g})")

        desc = f"moment_estimate(kappa={kappa:.4g}, q={q:.4f}, w={w:.4f}, seed={cfg.seed})"
        known = _mismatch_at("mc.moment_estimate") if kappa > 0.0 else None
        return Op("mc.batch", desc, fn, known=known, chance=kappa > 0.0)

    def _flat_batch_near_one(self, rng) -> Op:
        """Census: a kappa = 0 batch at w near 1, checked against conic_flow.
        With no driving noise every lane is the same path, so few lanes do."""
        w = _near_one(rng)
        q = rng.uniform(0.5, 2.0)
        cfg = S.MCConfig(kappa=0.0, q=q, T=self.T, n_steps=self.steps, n_samples=8,
                         seed=int(rng.integers(2 ** 31)), w=w)
        _, dz = S.conic_flow(w, self.T)
        want = math.exp(q * (self.T + math.log(abs(dz))))

        def fn(tr):
            est = tr.call("mc.moment_estimate", S.moment_estimate, cfg,
                          work=cfg.n_samples * self.steps)
            rel = abs(est.mean - want) / want
            check(rel <= 1e-6, "mc.moment_estimate", f"rel err {rel:.2e} vs conic_flow")

        return Op("mc.batch.near_one", f"moment_estimate(kappa=0, q={q:.4f}, w={w:.4f}, "
                  f"steps={self.steps})", fn, known=_mismatch_at("mc.moment_estimate"))

    def _single(self, rng, near_one=False) -> Op:
        if near_one:
            w = _near_one(rng)
        else:
            w = _conj_point(rng, 0.9)
            while abs(w - 1) < FAR_FROM_ONE:
                w = _conj_point(rng, 0.9)
        path_seed = int(rng.integers(2 ** 31))
        T, n = self.single_T, self.single_steps
        want = S.conic_flow(w, T)[1]

        def fn(tr):
            path = tr.call("mc.sample_driving", S.sample_driving, 0.0, T, n,
                           np.random.default_rng(path_seed))
            _, logd = tr.call("mc.whole_plane_map_derivative",
                              S.whole_plane_map_derivative, w, path, work=n)
            rel = abs(cmath.exp(logd) - want) / abs(want)
            check(rel <= 1e-6, "mc.whole_plane_map_derivative",
                  f"rel err {rel:.2e} vs conic_flow")

        desc = f"whole_plane_map_derivative(w={w:.4f}, T={T}, steps={n})"
        if near_one:
            return Op("mc.single.near_one", desc, fn,
                      known=_mismatch_at("mc.whole_plane_map_derivative"))
        return Op("mc.single", desc, fn)

    def traced_extras(self, tr) -> dict:
        """Busy time at threads=2 over threads=1 on one config that spans two
        chunks, timed in the order 1, 2, 2, 1 so that a steady drift in
        machine speed cancels."""
        cfg = S.MCConfig(kappa=6.0, q=2.0, n_samples=4096, seed=0, w=0.5, **self.t2)
        busy, ests = {1: 0.0, 2: 0.0}, set()
        for threads in (1, 2, 2, 1):
            est = tr.call(f"mc.moment_estimate.threads{threads}", S.moment_estimate, cfg,
                          threads=threads)
            busy[threads] += tr.spans[-1].end - tr.spans[-1].start
            ests.add((est.mean, est.stderr))
        if len(ests) != 1:   # the estimate must not depend on the thread count
            tr.blame("mc.moment_estimate")
        return {"mc.moment_estimate.threads2_ratio": busy[2] / busy[1]}


# ---------------------------------------------------------------- series-fit

class SeriesFit(Workload):
    """The float route: float theta tables, integral means, closed forms, 2F1."""

    name = "series-fit"
    pool_size = 8
    SIZES = (250, 400, 600, 1200)

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        self.pool = [self._draw(rng, c) for c in range(self.pool_size)]
        self.census = [self._hyp_defect(0.3, 0.4, 1.7, 0.9999, "integer")]
        for c in range(2):
            a, b = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 1.5))
            self.census += [self._hyp_defect(a, b, a + b + float(c + 1), x, "integer")
                            for x in (0.999, 0.9999)]
            s = c + 1 + float(rng.choice((-1, 1))) * 10 ** rng.uniform(-6.5, -5.5)
            self.census.append(self._hyp_defect(a, b, a + b + s,
                                                float(rng.uniform(0.99, 0.9999)),
                                                "near-integer"))

    def _draw(self, rng, c: int) -> list:
        state = {}
        n0, n1, n2, n3 = self.SIZES
        # 14 eval_rho ops, all on the N=400 table, put the run's median op
        # (op_ms_p50) inside one group of like ops, clear of the jump to the
        # table builds (an eval_rho at N=250 costs 0.4x one at N=400)
        t0 = self._table(rng, state, "t0", n0, width=0, root=c % 2, points=1)
        t1 = self._table(rng, state, "t1", n1, width=1, root=0, points=15)
        t2 = self._table(rng, state, "t2", n2, width=0, root=(c + 1) % 2, points=1)
        t3 = self._table(rng, state, "t3", n3, width=1, root=0, points=1)
        return [t0[0], *t0[1:], self._hyp(rng, "generic", c), t1[0], *t1[1:],
                self._pde(rng, width=0), self._hyp(rng, "integer", c), t2[0],
                self._slope(2.0, 6.0, 400, 0.05, 3.0), self._pde(rng, width=1),
                self._hyp(rng, "near-integer", c), t3[0],
                self._slope(1.0, 4.0, 600, 0.10, 1.0), self._growth()]

    def _table(self, rng, state, key, N, width, root, points):
        """One float-table build checked at a point, then eval_rho ops on it."""
        if width == 0:
            kappa = rng.uniform(2.0, 8.0)
            gamma = oracle.gamma_roots(oracle.width0_q(kappa), kappa)[root]
            closed = lambda w: S.rho_M0(w, w.conjugate(), kappa)
        else:
            gamma = rng.uniform(0.3, 1.5)
            kappa = oracle.width1_kappa(gamma)
            closed = lambda w: S.rho_M1(w, w.conjugate(), gamma).value
        ws = [_conj_point(rng, 0.8) for _ in range(points)]
        wants = [closed(w) for w in ws]
        label = f"width-{width} gamma={gamma:.6f} kappa={kappa:.6f}"

        def check_at(tr, w, want):
            table = state.get(key)
            check(table is not None, "coeffs.build_float", "no table to evaluate")
            got = tr.call("coeffs.eval_rho", S.eval_rho, table, w, w.conjugate()).value
            dev = _rel(got, want)
            check(dev <= 1e-8, "coeffs.eval_rho", f"w={w:.4f}: rel dev {dev:.2e}")

        def build(tr):
            state.pop(key, None)
            state[key] = tr.call("coeffs.build_float", S.build_theta_table, gamma, kappa, N,
                                 backend="float", work=N * N)
            check_at(tr, ws[0], wants[0])

        ops = [Op(f"coeffs.float{N}", f"build_theta_table({label}, N={N}) at w={ws[0]:.4f}",
                  build)]
        for w, want in zip(ws[1:], wants[1:]):
            ops.append(Op("coeffs.eval_rho", f"eval_rho({label}, N={N}, w={w:.4f})",
                          lambda tr, w=w, want=want: check_at(tr, w, want)))
        return ops

    def _slope(self, q, kappa, N, tol, closed):
        gamma = oracle.gamma_roots(q, kappa)[0]
        radii = [1 - 2.0 ** -k for k in range(3, 8)]

        def fn(tr):
            table = tr.call("coeffs.build_float", S.build_theta_table, gamma, kappa, N,
                            backend="float", work=N * N)
            samples = [(r, tr.call("coeffs.integral_means", S.integral_means, table, r,
                                   tail_tol=1e-3)) for r in radii]
            fit = tr.call("coeffs.fit_beta", S.fit_beta, samples)
            dev = abs(fit.slope - closed) / closed
            check(dev < tol, "coeffs.integral_means", f"slope {fit.slope:.4f} vs {closed}")

        return Op("coeffs.slope", f"integral-means slope at (q={q}, kappa={kappa}), N={N}", fn)

    def _growth(self):
        def fn(tr):
            table = tr.call("coeffs.build_float", S.build_theta_table, 1.0, 2.0, 400,
                            backend="float", work=400 * 400)
            e = tr.call("coeffs.diagonal_growth_exponent", S.diagonal_growth_exponent, table)
            check(abs(e - 4.0) / 4.0 < 0.05, "coeffs.diagonal_growth_exponent", f"{e:.6f} vs 4")

        return Op("coeffs.growth", "diagonal_growth_exponent(gamma=1, kappa=2, N=400)", fn)

    def _pde(self, rng, width):
        if width == 0:
            kappa = rng.uniform(2.0, 8.0)
            q = oracle.width0_q(kappa)
            w = _conj_point(rng, 0.55)
            wbar = w.conjugate()
            rho = lambda tr: lambda a, b: tr.call("special.rho_M0", S.rho_M0, a, b, kappa)
            label = f"width-0 kappa={kappa:.6f} w={w:.4f}"
        else:
            gamma = rng.uniform(0.3, 1.5)
            kappa, q = oracle.width1_kappa(gamma), oracle.width1_q(gamma)
            w, wbar = rng.uniform(-0.3, 0.5), rng.uniform(-0.3, 0.5)
            rho = lambda tr: lambda a, b: tr.call("special.rho_M1", S.rho_M1,
                                                  a.real, b.real, gamma).value
            label = f"width-1 gamma={gamma:.6f} (w, wbar)=({w:.4f}, {wbar:.4f})"

        def fn(tr):
            res = tr.call("special.pde_residual", S.pde_residual, rho(tr), q, kappa, w, wbar)
            check(res < 1e-6, "special.pde_residual", f"residual {res:.2e}")

        return Op("special.pde", f"pde_residual({label})", fn)

    def _hyp(self, rng, kind, c):
        """2F1 on a seeded x grid of six points.

        generic: c-a-b at least 0.05 from an integer, x up to 0.9999;
        integer: c-a-b in {0, 1, 2}, x up to 0.99; near-integer: 1 or 2 plus
        ~1e-6, x up to 0.9.  Beyond those x the integer and near-integer
        cases hit known defects (no log connection formula yet), which the
        census covers.
        """
        a, b = float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 1.5))
        if kind == "generic":
            s = float(rng.uniform(0.2, 2.4))
            while abs(s - round(s)) < 0.05:
                s = float(rng.uniform(0.2, 2.4))
        elif kind == "integer":
            s = float(c % 3)
        else:
            s = 1 + c % 2 + float(rng.choice((-1, 1))) * 10 ** rng.uniform(-6.5, -5.5)
        cc = float(a + b + s)
        if kind == "generic":
            xs = sorted(rng.uniform(-0.9, 0.9, 3).tolist())
            xs += [float(rng.uniform(0.9, 0.99)), 0.999, 0.9999]
        elif kind == "integer":
            xs = sorted(rng.uniform(-0.9, 0.9, 4).tolist())
            xs += sorted(rng.uniform(0.9, 0.99, 2).tolist())
        else:
            xs = sorted(rng.uniform(-0.9, 0.9, 6).tolist())
        wants = [oracle.hyp2f1(a, b, cc, x) for x in xs]

        def fn(tr):
            for x, want in zip(xs, wants):
                got = tr.call("special.hyp2f1", S.hyp2f1, a, b, cc, x)
                rel = abs(got - want) / abs(want)
                check(rel <= 1e-10, "special.hyp2f1", f"x={x!r}: rel err {rel:.1e}")

        desc = f"hyp2f1(a={a!r}, b={b!r}, c={cc!r}; c-a-b={s:.9g}) on x up to {xs[-1]:.4g}"
        return Op(f"special.hyp2f1.{kind}", desc, fn)

    @staticmethod
    def _hyp_defect(a, b, cc, x, kind) -> Op:
        """Census: one 2F1 point past the known limits.  With integer c-a-b
        the direct series gives up (RuntimeError) at x >= 0.999; with c-a-b
        near an integer the 1-x connection formula cancels (a mismatch)."""
        want = oracle.hyp2f1(a, b, cc, x)

        def fn(tr):
            got = tr.call("special.hyp2f1", S.hyp2f1, a, b, cc, x)
            rel = abs(got - want) / abs(want)
            check(rel <= 1e-10, "special.hyp2f1", f"rel err {rel:.1e}")

        def known(e):
            if getattr(e, "layer", None) != "special.hyp2f1":
                return False
            if kind == "integer":
                return isinstance(e, RuntimeError)
            return isinstance(e, Mismatch)

        return Op(f"special.hyp2f1.{kind}", f"hyp2f1({a!r}, {b!r}; {cc!r}; {x!r})", fn,
                  known=known)


# ---------------------------------------------------------------- exact-certify

SPECTRUM_ARGV = ["spectrum", "--q=-2:3:41", "--kappa", "2,8/3,6", "--format", "csv"]
CURVES_ARGV = ["curves", "--m-max", "3", "--gamma", "0.05:3:60", "--kappa", "0:10:41"]
TRUNCATE_ON = ["truncate", "--m", "2", "--gamma", "1/2", "--order", "40"]
TRUNCATE_OFF = ["truncate", "--m", "2", "--gamma", "1/2", "--kappa", "3", "--order", "40"]


class ExactCertify(Workload):
    """The exact route: rational tables, exact eigen solves, README commands."""

    name = "exact-certify"
    pool_size = 10   # about as many cycles as a run has: fresh inputs each cycle
    EIGEN_M = {2: 3, 5: 3, 10: 2, 15: 7, 20: 3}   # M -> solves per cycle

    def __init__(self, seed: int, small: bool = False):
        self.band_sizes = (40, 60, 60) if small else (40, 60, 120)
        self.grid = [(float(q), k) for q in np.linspace(-2.0, 3.0, 41) for k in (2.0, 8 / 3, 6.0)]
        self.grid_want = [oracle.spectrum(q, k) for q, k in self.grid]
        self.curves_want = self._curves_oracle()
        rng = np.random.default_rng(seed)
        self.pool = [self._draw(rng) for _ in range(self.pool_size)]
        complex_m20 = [k for k in FAILING[20] if k not in NO_SIGN_CHANGE_M20]
        self.census = [self._eigen(rng, 5, FAILING[5], defect=True),
                       self._eigen(rng, 15, FAILING[15], defect=True),
                       self._eigen(rng, 20, complex_m20, defect=True),
                       self._eigen(rng, 20, NO_SIGN_CHANGE_M20, defect=True)]

    def _draw(self, rng) -> list:
        solved = {M: [k for k in range(1, 160) if k not in FAILING.get(M, ())]
                  for M in self.EIGEN_M}
        eig = {M: [self._eigen(rng, M, solved[M]) for _ in range(n)]
               for M, n in self.EIGEN_M.items()}
        e = lambda M: eig[M].pop()
        n40, n60, n120 = self.band_sizes
        b60 = lambda: self._band(rng, n60)
        # one N=120 table and four N=60 tables per cycle: from three cycles a
        # run on, the eleventh slowest op (op_ms_tail) is an N=60 table; the
        # seven M=15 solves take the middle ranks of the 30 ops, so that the
        # median op (op_ms_p50) is the middle of seven draws, not one draw
        return [self._band(rng, n40), e(2), e(5), self._cli_spectrum(), e(15), b60(),
                e(15), e(20), self._beta_grid(), self._offcurve(rng), e(2), b60(), e(5),
                e(15), self._cli_curves(), e(10), self._band(rng, n120), e(15), e(20),
                self._truncate(TRUNCATE_ON, 0, True), e(2), e(15), b60(), e(5), e(10),
                self._truncate(TRUNCATE_OFF, 2, False), e(15), b60(), e(15), e(20)]

    @staticmethod
    def _curve(rng, max_m=3):
        while True:
            M = int(rng.integers(0, max_m + 1))
            d = int(rng.integers(2, 9))
            g = Fraction(int(rng.integers(1, 3 * d + 1)), d)
            pt = oracle.curve_point(M, g)
            if pt is not None:
                return M, g, pt[1]

    def _build_and_width(self, tr, g, kappa, N):
        table = tr.call("coeffs.build_rational", S.build_theta_table, g, kappa, N,
                        backend="rational", work=N * N)
        tr.defer(lambda: tr.peak("coeffs.build_rational.max_den_bits", _den_bits(table.entries)))
        return tr.call("coeffs.truncation_width", S.truncation_width, table)

    def _band(self, rng, N) -> Op:
        M, g, kappa = self._curve(rng)

        def fn(tr):
            width = self._build_and_width(tr, g, kappa, N)
            check(width is not None and width <= M, "coeffs.build_rational",
                  f"band width {width} on an M={M} curve")

        return Op(f"coeffs.band{N}", f"band certificate(M={M}, gamma={g}, N={N})", fn)

    def _offcurve(self, rng) -> Op:
        M, g, kappa = self._curve(rng)
        # no curve of any width M' < N-1 may pass through (gamma, kappa_off)
        on_curves = {pt[1] for m in range(40) if (pt := oracle.curve_point(m, g)) is not None}
        k_off = kappa
        while k_off in on_curves or k_off < 0:
            k_off = kappa + Fraction(int(rng.integers(-9, 10)), int(rng.integers(2, 10)))

        def fn(tr):
            width = self._build_and_width(tr, g, k_off, 40)
            check(width is None or width > M, "coeffs.truncation_width",
                  f"off-curve kappa passed the band check with width {width}")

        return Op("coeffs.offcurve40",
                  f"negative control(M={M}, gamma={g}, kappa={k_off}, N=40)", fn)

    def _eigen(self, rng, M, numerators, defect=False) -> Op:
        """An exact solve at gamma = k/48, k drawn from `numerators`.  A
        `defect` op is a census op, drawn from the k eigen_solve fails on."""
        while True:
            g = Fraction(int(rng.choice(numerators)), 48)
            if oracle.curve_point(M, g) is not None:
                break
        want = sorted(float(oracle.eigen_closed(M, g, l)) for l in range(0, 2 * M + 1, 2))
        want_bt = float(oracle.beta_tilde_on_curve(M, g))
        scale = max(1.0, max(abs(v) for v in want))
        curve = S.CurveParams(M, g)

        def fn(tr):
            R = tr.call("eigen.reduced_matrix", lambda: S.reduced_matrix(S.build_system(curve)))
            res = tr.call("eigen.eigen_solve", S.eigen_solve, R)
            bt = tr.call("eigen.select_beta_tilde", S.select_beta_tilde, res, curve)
            dev = max(abs(a - b) for a, b in zip(sorted(res.values), want)) / scale
            check(len(res.values) == len(want) and dev <= 1e-10, "eigen.eigen_solve",
                  f"eigenvalue dev {dev:.2e}")
            check(abs(bt - want_bt) <= 1e-9 * scale, "eigen.select_beta_tilde",
                  f"selected {bt!r} vs {want_bt!r}")

        def known(e):
            return isinstance(e, EigenCertificationError) and (
                str(e).startswith("unexpected complex spectrum")
                or (M == 20 and str(e).startswith("no sign-change certificate")))

        return Op(f"eigen.M{M}", f"eigen_solve(M={M}, gamma={g})", fn,
                  known=known if defect else None)

    def _check_spectrum_rows(self, rows, layer):
        check(len(rows) == len(self.grid_want), layer, f"{len(rows)} rows")
        for (beta, branch, gamma), (want, want_branch, want_g) in zip(rows, self.grid_want):
            check(_rel(beta, want) <= 1e-12 and branch == want_branch, layer,
                  f"beta {beta!r} {branch} vs {want!r} {want_branch}")
            check((gamma is None) == (want_g is None)
                  and (gamma is None or _rel(gamma, want_g) <= 1e-12), layer,
                  f"gamma_minus {gamma!r} vs {want_g!r}")

    def _beta_grid(self) -> Op:
        def fn(tr):
            def sweep():
                return [S.beta_spectrum(S.SLEParams(q=q, kappa=k)) for q, k in self.grid]
            out = tr.call("spectrum.beta_spectrum", sweep, work=len(self.grid),
                          calls=len(self.grid))
            self._check_spectrum_rows([(v.beta, v.branch.value, v.gamma) for v in out],
                                      "spectrum.beta_spectrum")

        return Op("spectrum.grid", "beta_spectrum over the README spectrum grid", fn)

    def _cli_spectrum(self) -> Op:
        def fn(tr):
            code, out = _cli(tr, "cli.spectrum", SPECTRUM_ARGV, work=len(self.grid))
            check(code == 0, "cli.spectrum", f"exit {code}")
            rows = list(csv.DictReader(io.StringIO(out)))
            self._check_spectrum_rows(
                [(float(r["beta"]), r["branch"],
                  float(r["gamma_minus"]) if r["gamma_minus"] else None) for r in rows],
                "cli.spectrum")

        return Op("cli.spectrum", "slespec " + " ".join(SPECTRUM_ARGV), fn)

    @staticmethod
    def _curves_oracle() -> list:
        rows = []
        for M in range(4):
            for g in np.linspace(0.05, 3.0, 60):
                pt = oracle.curve_point(M, float(g))
                if pt is not None:
                    bt = oracle.beta_tilde_on_curve(M, float(g))
                    rows.append((str(M), pt[0], pt[1], bt, bt))
        for k in np.linspace(0.0, 10.0, 41):
            qs = oracle.q_transition(float(k))
            beta = oracle.spectrum(qs, float(k))[0]
            rows.append(("Q", qs, float(k), beta, beta))
        return rows

    def _cli_curves(self) -> Op:
        def fn(tr):
            code, out = _cli(tr, "cli.curves", CURVES_ARGV)
            check(code == 0, "cli.curves", f"exit {code}")
            rows = list(csv.DictReader(io.StringIO(out)))
            check(len(rows) == len(self.curves_want), "cli.curves", f"{len(rows)} rows")
            for r, (M, q, kappa, bt, beta) in zip(rows, self.curves_want):
                got = [float(Fraction(r[f])) for f in ("q", "kappa", "beta_tilde", "beta")]
                dev = max(_rel(a, b) for a, b in zip(got, (q, kappa, bt, beta)))
                check(r["M"] == M and dev <= 1e-9, "cli.curves", f"row {r} off by {dev:.1e}")

        return Op("cli.curves", "slespec " + " ".join(CURVES_ARGV), fn)

    def _truncate(self, argv, want_code, want_pass) -> Op:
        def fn(tr):
            code, out = _cli(tr, "cli.truncate", argv)
            doc = json.loads(out)
            check(code == want_code and doc["band_pass"] is want_pass
                  and (not want_pass or doc["band_width"] == 2), "cli.truncate",
                  f"exit {code}, band_pass {doc['band_pass']}, width {doc['band_width']}")

        return Op("cli.truncate", "slespec " + " ".join(argv), fn)


WORKLOADS = {w.name: w for w in (MCMoments, SeriesFit, ExactCertify)}

