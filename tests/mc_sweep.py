"""Monte Carlo at criterion 8's point with ten times its samples, and at one
more point, printed and not gated.

Criterion 8's point: kappa = 6, q = 2, w = 0.5, T = 8, 3200 steps, 10^5
samples on seeds 1 and 2, two threads.  At (q, kappa) = (2, 6) the root
gamma = 1 has a diagonal table, so rho(w, conj w) = |1 - w|^2 / (1 - |w|^2)^3,
which is 16/27 at w = 0.5.  A standard error of about 3.5e-3 shows a bias
that criterion 8's 10^4 samples (about 1.1e-2) cannot: the driving frozen at
each step's right endpoint reads z of about -2 here, so the script prints
and does not gate.

The extra point, (q, kappa, w) = (1, 4, 0.3 + 0.4i) at T = 8, 3200 steps and
10^5 samples on seed 1, is checked against the oracle that `slespec mc`
builds: eval_rho on an N = 250 float table at gamma_minus.  It lies inside
the validated envelope |q| <= 2, |w| <= 0.9; its table is not criterion 8's
diagonal one; its w is complex and its kappa differs; and the oracle's
corner tail is 3.0e-150, so the series error is nothing beside the
standard error.  About 20 s per run on two cores:

    PYTHONPATH=src python tests/mc_sweep.py
"""
import time

import slespec as S

ORACLE = 16 / 27


def series_oracle(q, kappa, w):
    """The series value `slespec mc` checks against, and its tail."""
    roots = S.gamma_roots(S.SLEParams(q=q, kappa=kappa))
    table = S.build_theta_table(roots.gamma_minus, kappa, 250)
    got = S.eval_rho(table, w, w.conjugate())
    return got.value.real, got.tail


def main():
    start = time.perf_counter()
    for seed in (1, 2):
        cfg = S.MCConfig(kappa=6.0, q=2.0, T=8.0, n_steps=3200, n_samples=100_000,
                         seed=seed, w=0.5)
        t = time.perf_counter()
        est = S.moment_estimate(cfg, threads=2)
        z = (est.mean - ORACLE) / est.stderr
        print(f"(q, kappa, w) = (2, 6, 0.5), 10^5 x 3200, seed {seed}: mean {est.mean:.5f}, "
              f"stderr {est.stderr:.5f}, z = {z:+.2f} against 16/27 "
              f"({time.perf_counter() - t:.1f} s)")
    w = 0.3 + 0.4j
    oracle, tail = series_oracle(1.0, 4.0, w)
    cfg = S.MCConfig(kappa=4.0, q=1.0, T=8.0, n_steps=3200, n_samples=100_000, seed=1, w=w)
    t = time.perf_counter()
    est = S.moment_estimate(cfg, threads=2)
    z = (est.mean - oracle) / est.stderr
    print(f"(q, kappa, w) = (1, 4, 0.3+0.4i), 10^5 x 3200, seed 1: mean {est.mean:.5f}, "
          f"stderr {est.stderr:.5f}, z = {z:+.2f} against the series oracle {oracle:.5f} "
          f"(tail {tail:.1e}) ({time.perf_counter() - t:.1f} s)")
    print(f"mc sweep: 3 runs in {time.perf_counter() - start:.1f} s; printed, not gated")


if __name__ == "__main__":
    main()
