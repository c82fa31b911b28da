"""Eigen route sweep over every curve (M, k/48), M = 1..20, k = 1..159, with
gamma exact (Fraction(k, 48)) and as its float twin (k / 48).

Run as a script (pytest does not collect it; it takes several seconds):

    PYTHONPATH=src python tests/eigen_sweep.py

It fails (exit 1) when select_beta_tilde on a certified curve, exact or
float, disagrees with beta_tilde_on_curve beyond criterion 4's scale
1e-9 max(1, max |beta_l|), or when eigen_solve fails on an exact curve
outside the known failures below, or fails there in another way.  Curves
may leave the known list: the set may only shrink.  Float failures are
counted, not pinned: which curves fail depends on LAPACK.

It also prints, without gating them, the Newton steps that the exact curves
took in total and how many of their eigenvalues stopped at the 8-step cap
short of a fixed point: one more Newton update, taken here in Fractions on
the characteristic polynomial and rounded to float64, moves them.
"""
import sys
from fractions import Fraction

import slespec as S

# known eigen_solve failures, (M, k) -> the start of the error message:
# double eigenvalues that LAPACK splits into complex pairs, float seeds with
# no sign change in their bracket, and one pair of overlapping brackets
_COMPLEX = [(5, 48), (14, 8), (14, 43), (15, 8), (15, 150), (16, 8), (17, 8),
            (17, 102), (18, 24), (18, 43), (18, 61), (18, 101), (18, 102),
            (18, 123), (19, 5), (19, 6), (19, 7), (19, 8), (19, 21), (19, 23),
            (19, 24), (19, 25), (19, 26), (19, 27), (19, 40), (19, 60), (19, 61),
            (19, 80), (19, 81), (19, 100), (19, 101), (19, 122), (19, 144),
            (20, 5), (20, 7), (20, 8), (20, 9), (20, 10), (20, 12), (20, 17),
            (20, 20), (20, 23), (20, 24), (20, 25), (20, 26), (20, 31), (20, 36),
            (20, 39), (20, 41), (20, 42), (20, 47), (20, 57), (20, 60), (20, 63),
            (20, 78), (20, 79), (20, 80), (20, 82), (20, 99), (20, 101),
            (20, 102), (20, 143)]
_NO_SIGN_CHANGE = [(6, 96), (20, 28), (20, 33), (20, 100), (20, 121)]
_OVERLAP = [(19, 22)]
KNOWN_FAILURES = {
    **{c: "unexpected complex spectrum" for c in _COMPLEX},
    **{c: "no sign-change certificate" for c in _NO_SIGN_CHANGE},
    **{c: "eigenvalue brackets" for c in _OVERLAP},
}


def _moves(R, x):
    """Whether one more Newton update on det(R - x I), rounded, leaves x."""
    p = S.eigen._char_poly(*S.eigen._tridiag_exact(R))
    x = Fraction(x)
    h, dh = Fraction(0), Fraction(0)
    for c in reversed(p):
        h, dh = h * x + c, dh * x + h
    return h != 0 and float(x - h / dh) != x


def sweep(exact=True):
    """(curves, failures, problems, steps, capped): problems lists what
    breaks the guard; steps and capped count the exact curves' Newton steps
    and the eigenvalues that the cap stopped short of a fixed point."""
    curves, failures, problems, steps, capped = 0, 0, [], 0, 0
    for M in range(1, 21):
        for k in range(1, 160):
            c = S.CurveParams(M, Fraction(k, 48) if exact else k / 48)
            try:
                sysM = S.build_system(c)
            except S.InvalidCurveError:
                continue
            curves += 1
            R = S.reduced_matrix(sysM)
            try:
                res = S.eigen_solve(R)
            except S.EigenCertificationError as exc:
                failures += 1
                known = KNOWN_FAILURES.get((M, k))
                if exact and (known is None or not str(exc).startswith(known)):
                    problems.append(f"(M={M}, k={k}): new failure: {exc}"[:200])
                continue
            if exact:
                steps += int(res.newton_steps.sum())
                capped += sum(_moves(R, x) for x, n in zip(res.values, res.newton_steps)
                              if n == 8)
            scale = max(1.0, max(abs(float(S.eigen_beta_closed(c, l)))
                                 for l in range(0, 2 * M + 1, 2)))
            try:
                bt = S.select_beta_tilde(res, c)
            except S.EigenCertificationError as exc:
                problems.append(f"(M={M}, k={k}): selection failed: {exc}"[:200])
                continue
            want = float(S.beta_tilde_on_curve(c))
            if abs(bt - want) > 1e-9 * scale:
                problems.append(f"(M={M}, k={k}): selected {bt}, closed {want}")
    return curves, failures, problems, steps, capped


def main() -> int:
    bad = 0
    for exact, known in ((True, f"at most {len(KNOWN_FAILURES)} known"),
                         (False, "not pinned")):
        curves, failures, problems, steps, capped = sweep(exact)
        print(f"eigen sweep: {curves} {'exact' if exact else 'float'} curves, "
              f"{failures} failures ({known}), {len(problems)} problems")
        if exact:
            print(f"eigen sweep: {steps} Newton steps on the exact curves, {capped} "
                  f"eigenvalues stopped at the 8-step cap short of a fixed point "
                  f"(printed, not gated)")
        for line in problems:
            print(line)
        bad += len(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
