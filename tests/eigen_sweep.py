"""Eigen route sweep over every curve (M, k/48), M = 1..20, k = 1..159, with
gamma exact (Fraction(k, 48)) and as its float twin (k / 48), and over the
exact curves gamma = k/48, k = 1, 7, ..., 157, at M = 21, 24, 28, 32, 40
and 60, past the swept range.

Run as a script (pytest does not collect it; it takes several seconds):

    PYTHONPATH=src python tests/eigen_sweep.py

build_system reads a float gamma as the dyadic rational it equals, so
exact and float curves are gated alike.  It fails (exit 1) when eigen_solve
refuses any curve, when a curve's eigenvalues miss the closed beta_l (even
l) at the gamma its system holds (k/48, or the dyadic rational of the
float) by more than 1e-10 max(1, max |beta_l|), when its proved Fractions
are not exactly those closed beta_l, sorted, when select_beta_tilde
disagrees with beta_tilde_on_curve on the curve as given (exact, or the
float closed beta~) beyond criterion 4's scale 1e-9 max(1, max |beta_l|),
or when it returns another value or refusal than the Clenshaw selection
it replaced (test_eigen's frozen reference).  Past the swept range it fails
when eigen_solve refuses a sampled curve or when that curve's proved
Fractions are not exactly the closed beta_l, sorted.

It also prints, without gating them, for the exact and the float curves:
how many eigenvalues were proved by exact division, how many curves have a
repeated eigenvalue, the largest bit length of a proved eigenvalue's
denominator, how many curves switched the root search to the squarefree
part, the most passes (primes) the search took on one curve, the largest
vector residual, and how many curves are reducible (a zero super-diagonal,
so that some vectors come from the adjugate below a block of the exact
recurrence) with their largest residual; and, past the swept range, the
curves solved and the median solve time at each M.
"""
import statistics
import sys
import time
from fractions import Fraction
from unittest import mock

import slespec as S
from test_eigen import _clenshaw_select_beta_tilde


def _outcome(select, res, c):
    try:
        return select(res, c)
    except S.EigenCertificationError as exc:
        return type(exc), str(exc)


def sweep(exact=True):
    """(curves, refusals, problems, stats): problems lists what breaks the
    guard, refusals included; stats holds the eigenvalues proved by
    division, the curves with a repeated eigenvalue, the largest
    denominator bit length, the curves whose search switched to the
    squarefree part, the most passes of one search, the largest vector
    residual, and the reducible curves (a zero super-diagonal) and their
    largest residual."""
    curves, refusals, problems = 0, 0, []
    stats = dict.fromkeys(("proved", "repeated", "den_bits", "squarefree", "passes",
                           "residual", "reducible", "reducible_residual"), 0)
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
                with mock.patch.object(S.eigen, "_roots_mod",
                                       wraps=S.eigen._roots_mod) as passes, \
                        mock.patch.object(S.eigen, "_squarefree",
                                          wraps=S.eigen._squarefree) as squarefree:
                    res = S.eigen_solve(R)
            except S.EigenCertificationError as exc:
                refusals += 1
                problems.append(f"(M={M}, k={k}): eigen_solve failed: {exc}"[:200])
                continue
            # the closed beta_l at the gamma the system holds
            held = S.CurveParams(M, sysM.gamma)
            betas = sorted(S.eigen_beta_closed(held, l) for l in range(0, 2 * M + 1, 2))
            closed = [float(v) for v in betas]
            scale = max(1.0, max(abs(v) for v in closed))
            stats["residual"] = max(stats["residual"], float(res.residuals.max()))
            if not all(R[i][i + 1] for i in range(M)):
                stats["reducible"] += 1
                stats["reducible_residual"] = max(stats["reducible_residual"],
                                                  float(res.residuals.max()))
            stats["squarefree"] += squarefree.called
            stats["passes"] = max(stats["passes"], passes.call_count)
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
    return curves, refusals, problems, stats


def past_the_sweep():
    """(problems, {M: (curves, median ms)}) on the exact curves gamma = k/48,
    k = 1, 7, ..., 157, at M = 21, 24, 28, 32, 40 and 60: each must be
    solved, its proved Fractions exactly the closed beta_l, sorted."""
    problems, out = [], {}
    for M in (21, 24, 28, 32, 40, 60):
        times = []
        for k in range(1, 160, 6):
            c = S.CurveParams(M, Fraction(k, 48))
            try:
                R = S.reduced_matrix(S.build_system(c))
            except S.InvalidCurveError:
                continue
            t = time.perf_counter()
            try:
                res = S.eigen_solve(R)
            except S.EigenCertificationError as exc:
                problems.append(f"(M={M}, k={k}): eigen_solve failed: {exc}"[:200])
                continue
            times.append(time.perf_counter() - t)
            betas = sorted(S.eigen_beta_closed(c, l) for l in range(0, 2 * M + 1, 2))
            if list(res.exact_values) != betas:
                problems.append(f"(M={M}, k={k}): the proved Fractions are not "
                                f"the closed beta_l")
        out[M] = (len(times), statistics.median(times) * 1e3 if times else float("nan"))
    return problems, out


def main() -> int:
    bad = 0
    for exact in (True, False):
        kind = "exact" if exact else "float"
        curves, refusals, problems, stats = sweep(exact)
        print(f"eigen sweep: {curves} {kind} curves, {refusals} refused (none allowed), "
              f"{len(problems)} problems")
        print(f"eigen sweep (printed, not gated), {kind} curves: {stats['proved']} "
              f"eigenvalues proved by exact division, each the closed beta_l (gated); "
              f"{stats['repeated']} curves with a repeated eigenvalue; largest "
              f"denominator {stats['den_bits']} bits; {stats['squarefree']} curves "
              f"searched the squarefree part; at most {stats['passes']} passes on one "
              f"curve; largest vector residual {stats['residual']:.2e}; "
              f"{stats['reducible']} reducible curves (a zero super-diagonal), largest "
              f"residual {stats['reducible_residual']:.2e}")
        for line in problems:
            print(line)
        bad += len(problems)
    problems, solved = past_the_sweep()
    counts = ", ".join(f"{n} at M={M} ({ms:.1f} ms median)" for M, (n, ms) in solved.items())
    print(f"eigen sweep: exact curves past M = 20, gamma = k/48, k = 1, 7, ..., 157, "
          f"each the closed beta_l (gated): {counts} solved, {len(problems)} problems")
    for line in problems:
        print(line)
    bad += len(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
