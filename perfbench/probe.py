"""Set-up probe: a fresh interpreter imports slespec, warms one workload up
and prints `ready`.  run.py times it from spawn to that line.  The probe then
times the reference kernel (refclock.py) a few times on its own core and
prints the median, in ms, so that run.py can scale the set-up time by the
speed of the core it ran on.

    python3 perfbench/probe.py mc-moments      # from the repository root
"""
import contextlib
import io
import pathlib
import sys
from fractions import Fraction

REF_SAMPLES = 9


def warm_up(name: str) -> None:
    """One small call into each layer the workload uses."""
    import numpy as np

    import slespec as S
    from slespec import cli

    if name == "mc-moments":
        S.moment_estimate(S.MCConfig(kappa=2.0, q=1.0, T=3.0, n_steps=300, n_samples=8,
                                     seed=0, w=0.3))
        S.whole_plane_map_derivative(0.3, S.sample_driving(0.0, 1.0, 10, np.random.default_rng(0)))
    elif name == "series-fit":
        S.integral_means(S.build_theta_table(1.0, 6.0, 64, backend="float"), 0.5, n_phi=256)
        S.rho_M1(0.3, 0.3, 1.0)
        S.hyp2f1(0.3, 0.4, 1.2, 0.95)
    elif name == "exact-certify":
        S.truncation_width(S.build_theta_table(Fraction(1), Fraction(2), 8, backend="rational"))
        curve = S.CurveParams(1, 1)
        S.select_beta_tilde(S.eigen_solve(S.reduced_matrix(S.build_system(curve))), curve)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["spectrum", "--q", "2", "--kappa", "6"])
    else:
        raise KeyError(name)


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path.cwd() / "src"))
    warm_up(sys.argv[1])
    print("ready", flush=True)
    import statistics

    import refclock
    print(statistics.median(refclock.sample_ms() for _ in range(REF_SAMPLES)), flush=True)
