"""The library needs numpy only: scipy is a test-suite dependency."""

import os
import subprocess
import sys

import slespec as S

_BLOCKED_RUN = """
import sys
sys.modules["scipy"] = None   # any `import scipy...` now raises ImportError
import slespec as S
t = S.build_theta_table(1.0, 6.0, 300, backend="float")
r = 0.6
got = S.integral_means(t, r)
want = 2 * 3.141592653589793 * (1 + r * r) / (1 - r * r) ** 3
assert abs(got - want) <= 1e-10 * want, (got, want)
"""


def test_build_and_integral_means_run_without_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(S.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _BLOCKED_RUN],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
