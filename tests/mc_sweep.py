"""Monte Carlo at criterion 8's point with ten times its samples, printed and
not gated: kappa = 6, q = 2, w = 0.5, T = 8, 3200 steps, 10^5 samples on
seeds 1 and 2, two threads.  At (q, kappa) = (2, 6) the root gamma = 1 has
a diagonal table, so rho(w, conj w) = |1 - w|^2 / (1 - |w|^2)^3, which is
16/27 at w = 0.5.  A standard error of about 3.5e-3 shows a bias that
criterion 8's 10^4 samples (about 1.1e-2) cannot: the driving frozen at
each step's right endpoint reads z of about -2 here, so the script prints
and does not gate.  About 20 s per seed on two cores:

    PYTHONPATH=src python tests/mc_sweep.py
"""
import time

import slespec as S

ORACLE = 16 / 27


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
    print(f"mc sweep: 2 runs in {time.perf_counter() - start:.1f} s; printed, not gated")


if __name__ == "__main__":
    main()
