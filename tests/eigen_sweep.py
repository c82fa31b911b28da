"""Eigen route sweep over every curve (M, k/48), M = 1..20, k = 1..159, with
gamma exact (Fraction(k, 48)) and as its float twin (k / 48).

Run as a script (pytest does not collect it; it takes several seconds):

    PYTHONPATH=src python tests/eigen_sweep.py

It fails (exit 1) when eigen_solve fails on any exact curve, when an exact
curve's eigenvalues miss the closed beta_l (even l) by more than 1e-10
max(1, max |beta_l|), when an exact curve's proved Fractions are not
exactly the closed beta_l, sorted, when select_beta_tilde on a certified curve, exact
or float, disagrees with beta_tilde_on_curve beyond criterion 4's scale
1e-9 max(1, max |beta_l|), or when it returns another value or refusal
than the Clenshaw selection it replaced (test_eigen's frozen reference).
Float failures are counted, not pinned: which curves fail depends on LAPACK.

It also prints, without gating them, the Newton steps that the exact curves
took in total and the most that one eigenvalue took (with its curve; the
cap is 64), how many continued-fraction walks for a rational root ran and
how many of those, tried at Newton's first small update, found nothing
before Newton's fixed point, how many of their eigenvalues were proved by
exact division, how many curves have a repeated eigenvalue,
the largest bit length of a proved eigenvalue's denominator, how many
exact curves took any vector from the SVD instead of the exact recurrence,
the largest vector residual on the exact and on the float curves, and how
many exact curves eigen_solve refuses among gamma = k/48, k = 1, 7, ..., 157,
at M = 21, 24, 28, 32 and 40, past the swept range.
"""
import sys
from fractions import Fraction
from unittest import mock

import numpy as np

import slespec as S
from test_eigen import _clenshaw_select_beta_tilde


def _outcome(select, res, c):
    try:
        return select(res, c)
    except S.EigenCertificationError as exc:
        return type(exc), str(exc)


def counted_walks(stats):
    """A patch of eigen's _newton and _rational_root under which
    stats["walks"] counts the continued-fraction walks and
    stats["early_misses"] the walks at Newton's first small update that
    found nothing: a Newton call walks again at its fixed point only then,
    so each of its walks but the last is such a miss."""
    walk, newton = S.eigen._rational_root, S.eigen._newton

    def counted_walk(p, x):
        stats["walks"] += 1
        return walk(p, x)

    def counted_newton(*args, **kwargs):
        before = stats["walks"]
        out = newton(*args, **kwargs)
        stats["early_misses"] += max(stats["walks"] - before - 1, 0)
        return out

    return mock.patch.multiple(S.eigen, _rational_root=counted_walk, _newton=counted_newton)


def sweep(exact=True):
    """(curves, failures, problems, stats): problems lists what breaks the
    guard; stats holds the largest vector residual and, on the exact curves
    only, the Newton steps (total, and the most on one eigenvalue with its
    curve), the convergent walks and the early ones that found nothing, the
    eigenvalues proved by division, the curves with a repeated eigenvalue,
    the largest denominator bit length and the curves on which eigen_solve
    called the SVD."""
    curves, failures, problems = 0, 0, []
    stats = dict.fromkeys(("steps", "walks", "early_misses", "proved",
                           "repeated", "den_bits", "svd_curves", "residual"), 0)
    stats["max_steps"] = (0, None)
    for M in range(1, 21):
        for k in range(1, 160):
            c = S.CurveParams(M, Fraction(k, 48) if exact else k / 48)
            try:
                sysM = S.build_system(c)
            except S.InvalidCurveError:
                continue
            curves += 1
            try:
                with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                        counted_walks(stats):
                    res = S.eigen_solve(S.reduced_matrix(sysM))
            except S.EigenCertificationError as exc:
                failures += 1
                if exact:
                    problems.append(f"(M={M}, k={k}): eigen_solve failed: {exc}"[:200])
                continue
            betas = sorted(S.eigen_beta_closed(c, l) for l in range(0, 2 * M + 1, 2))
            closed = [float(v) for v in betas]
            scale = max(1.0, max(abs(v) for v in closed))
            stats["residual"] = max(stats["residual"], float(res.residuals.max()))
            if exact:
                stats["svd_curves"] += svd.called
                if res.newton_steps.max() > stats["max_steps"][0]:
                    stats["max_steps"] = (int(res.newton_steps.max()), f"(M={M}, k={k})")
                stats["steps"] += int(res.newton_steps.sum())
                stats["proved"] += len(res.exact_values)
                if list(res.exact_values) != betas:
                    problems.append(f"(M={M}, k={k}): the proved Fractions are not "
                                    f"the closed beta_l")
                stats["repeated"] += len(set(res.values)) < len(res.values)
                stats["den_bits"] = max([stats["den_bits"]] + [
                    x.denominator.bit_length() for x in res.exact_values])
                dev = max(abs(a - b) for a, b in zip(res.values, closed))
                if len(res.values) != len(closed) or dev > 1e-10 * scale:
                    problems.append(f"(M={M}, k={k}): eigenvalues off the closed "
                                    f"beta_l by {dev:.3e}")
            bt = _outcome(S.select_beta_tilde, res, c)
            if bt != _outcome(_clenshaw_select_beta_tilde, res, c):
                problems.append(f"(M={M}, k={k}): selection differs from the Clenshaw "
                                f"reference: {bt}"[:200])
            if not isinstance(bt, float):
                problems.append(f"(M={M}, k={k}): selection failed: {bt[1]}"[:200])
                continue
            want = float(S.beta_tilde_on_curve(c))
            if abs(bt - want) > 1e-9 * scale:
                problems.append(f"(M={M}, k={k}): selected {bt}, closed {want}")
    return curves, failures, problems, stats


def refused_past_the_sweep():
    """{M: (refused, curves)}: exact curves gamma = k/48, k = 1, 7, ..., 157,
    on which eigen_solve raises EigenCertificationError, at M = 21, 24, 28,
    32 and 40."""
    out = {}
    for M in (21, 24, 28, 32, 40):
        refused = curves = 0
        for k in range(1, 160, 6):
            try:
                sysM = S.build_system(S.CurveParams(M, Fraction(k, 48)))
            except S.InvalidCurveError:
                continue
            curves += 1
            try:
                S.eigen_solve(S.reduced_matrix(sysM))
            except S.EigenCertificationError:
                refused += 1
        out[M] = (refused, curves)
    return out


def main() -> int:
    bad = 0
    for exact, known in ((True, "none allowed"), (False, "not pinned")):
        curves, failures, problems, stats = sweep(exact)
        print(f"eigen sweep: {curves} {'exact' if exact else 'float'} curves, "
              f"{failures} failures ({known}), {len(problems)} problems")
        if exact:
            most, where = stats["max_steps"]
            print(f"eigen sweep (printed, not gated): {stats['steps']} Newton steps on "
                  f"the exact curves, at most {most} on one eigenvalue at {where} "
                  f"(cap {S.eigen._NEWTON_CAP}); {stats['walks']} convergent walks, "
                  f"{stats['early_misses']} of them at Newton's first small update "
                  f"finding nothing; {stats['proved']} eigenvalues proved by "
                  f"exact division, each the closed beta_l (gated); {stats['repeated']} "
                  f"curves with a repeated eigenvalue; largest denominator "
                  f"{stats['den_bits']} bits; {stats['svd_curves']} exact curves took "
                  f"SVD vectors, the rest the exact recurrence")
        print(f"eigen sweep (printed, not gated): largest vector residual on the "
              f"{'exact' if exact else 'float'} curves {stats['residual']:.2e}")
        for line in problems:
            print(line)
        bad += len(problems)
    counts = ", ".join(f"{r} of {n} at M={M}" for M, (r, n) in refused_past_the_sweep().items())
    print(f"eigen sweep (printed, not gated): exact curves refused past M = 20, "
          f"gamma = k/48, k = 1, 7, ..., 157: {counts}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
