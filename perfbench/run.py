"""slespec benchmark: one workload per process, one op at a time, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload mc-moments --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 runs
each cycle twice, untraced and traced, and reports per-layer metrics plus
the tracing overhead.  Either way the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the failing inputs, op counts and the machine stamp.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

# one op at a time on one core: keep BLAS from spreading a matmul over the
# machine's other core, where neighbours' load turns it into timing noise.
# Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import refclock  # noqa: E402
from probe import warm_up  # noqa: E402
from spans import Mismatch, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
# The MC z-gate fails by chance about once in 1e3 distinct ops (a repeat reruns
# the same seed and fails alike); with a handful of gated ops a run, more than
# this many failing is not chance.
CHANCE_FAILS = 2


class Record(NamedTuple):
    key: tuple      # the op's inputs: its pool entry and place in the cycle
    op: object
    dt: float       # wall seconds
    err: object     # the exception, or None if the op passed
    scale: float    # REFERENCE_MS over the reference kernel's time around the op


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(root: str) -> dict:
    import numpy
    return {"git_sha": git_sha(root), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def time_setup(root: str, workload: str) -> tuple:
    """Seconds from spawning a fresh interpreter to slespec imported and warm,
    and the reference scale the probe measured on its core right after."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload],
                            cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        took = time.perf_counter() - t0
        ref_ms = proc.stdout.readline().strip()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return took, refclock.REFERENCE_MS / float(ref_ms)


def attempt(op, tr) -> tuple:
    """Run one op; (wall seconds, exception or None).  The clock stops before
    the tracer's deferred bookkeeping runs."""
    err = None
    t0 = time.perf_counter()
    try:
        op.fn(tr)
    except Exception as e:   # an op that raises is a failed op, never a crash
        err = e
    dt = time.perf_counter() - t0
    tr.run_deferred()
    if isinstance(err, Mismatch):
        tr.blame(err.layer)
    elif err is not None and not hasattr(err, "layer"):
        tr.blame("harness")
    return dt, err


def fits(seconds: float, elapsed: float, done: int) -> bool:
    """Whether one more cycle of the mean length so far still ends within
    `seconds` (at least one always runs)."""
    return done == 0 or elapsed + elapsed / done <= seconds


def run_pass(wl, tr, seconds=None, cycles=None, first=0, between=None):
    """Whole cycles from cycle `first` on, for about `seconds` of wall time
    (see fits) or for `cycles` of them.

    The reference kernel runs between every two ops, outside their clocks,
    and each op's record carries the scale from the samples on either side.
    Returns the records and each cycle's op time (the sum of its ops' wall
    times).  `between(elapsed)` runs at each cycle boundary.
    """
    records, cycle_s = [], []
    t_start = time.perf_counter()
    before = refclock.sample_ms()
    while (len(cycle_s) < cycles if cycles is not None
           else fits(seconds, time.perf_counter() - t_start, len(cycle_s))):
        c = first + len(cycle_s)
        busy = 0.0
        for place, op in enumerate(wl.cycle(c)):
            tr.op = len(records)
            dt, err = attempt(op, tr)
            after = refclock.sample_ms()
            records.append(Record((c % len(wl.pool), place), op, dt, err,
                                  2 * refclock.REFERENCE_MS / (before + after)))
            before = after
            busy += dt
        cycle_s.append(busy)
        if between is not None:
            between(time.perf_counter() - t_start)
    return records, cycle_s


def run_census(wl, tr) -> list:
    """The workload's known-defect inputs, each once, outside every timed pass."""
    records = []
    for place, op in enumerate(wl.census):
        tr.op = -1 - place
        dt, err = attempt(op, tr)
        records.append(Record(("census", place), op, dt, err, 1.0))
    return records


def judge(records) -> tuple:
    """(correct, failure listing).  A failure is expected only if the op's
    `known` test accepts it; chance-gate failures only up to CHANCE_FAILS
    distinct ops."""
    failures, chance_keys, correct = [], set(), True
    for r in records:
        if r.err is None:
            continue
        known = r.op.known is not None and bool(r.op.known(r.err))
        if known and r.op.chance:
            chance_keys.add(r.key)
        correct &= known
        failures.append({"op": r.op.kind, "input": r.op.desc,
                         "layer": getattr(r.err, "layer", "harness"),
                         "error": f"{type(r.err).__name__}: {str(r.err)[:300]}",
                         "known": known})
    if len(chance_keys) > CHANCE_FAILS:
        correct = False
    return correct, failures


def tail(times: list) -> tuple:
    """The slowest time with at least ten slower ones beyond it, and its
    percentile (times sorted)."""
    n = len(times)
    k = max(0, n - 11)
    return times[k], (round(100.0 * k / (n - 1), 3) if n > 1 else 0.0), n - 1 - k


def end_to_end(records, setup: list) -> tuple:
    """The bounded metrics, from op times (and set-up probe times) scaled to
    the reference speed."""
    speed = statistics.median(r.scale for r in records)
    scaled = sorted(r.dt * r.scale for r in records)
    raw = sorted(r.dt for r in records)
    ok = sum(r.err is None for r in records)
    tail_s, pct, beyond = tail(scaled)
    metrics = {
        "setup_s": {"value": statistics.median(s * k for s, k in setup), "unit": "s"},
        "ops_per_s": {"value": ok / sum(scaled), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "op_ms_tail": {"value": tail_s * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    wall = {"setup_s": statistics.median(s for s, _ in setup),
            "ops_per_s": ok / sum(raw),
            "op_ms_p50": statistics.median(raw) * 1e3,
            "op_ms_tail": tail(raw)[0] * 1e3}
    details = {"op_ms_tail": {"percentile": pct, "ops_beyond": beyond, "ops": len(scaled)},
               "wall_clock": wall,
               "speed_vs_reference": 1.0 / speed}
    return metrics, details


def per_layer(summary: dict, peaks: dict, extras: dict, overhead: float) -> dict:
    def row(name):
        return summary.get(name, {"self_s": 0.0, "calls": 0, "work": 0.0, "failures": 0})

    def per_work(name, scale):
        r = row(name)
        return r["self_s"] / r["work"] * scale if r["work"] else 0.0

    def layer_total(prefix, key):
        return sum(r[key] for n, r in summary.items() if n.startswith(prefix + "."))

    m = {}
    for name in ("mc.moment_estimate", "coeffs.build_float", "coeffs.integral_means",
                 "coeffs.eval_rho", "coeffs.build_rational", "coeffs.truncation_width",
                 "eigen.eigen_solve", "eigen.reduced_matrix", "eigen.select_beta_tilde",
                 "special.hyp2f1", "special.rho_M1", "special.pde_residual",
                 "cli.truncate", "cli.curves"):
        m[f"{name}.busy_s"] = (row(name)["self_s"], "s")
    m["mc.moment_estimate.ns_per_lane_step"] = (per_work("mc.moment_estimate", 1e9), "ns")
    m["mc.whole_plane_map_derivative.us_per_step"] = (
        per_work("mc.whole_plane_map_derivative", 1e6), "us")
    m["mc.failures"] = (layer_total("mc", "failures"), "count")
    m["mc.moment_estimate.threads2_ratio"] = (
        extras.get("mc.moment_estimate.threads2_ratio", 0.0), "ratio")
    m["coeffs.build_float.ns_per_entry"] = (per_work("coeffs.build_float", 1e9), "ns")
    m["coeffs.build_rational.us_per_entry"] = (per_work("coeffs.build_rational", 1e6), "us")
    m["coeffs.build_rational.max_den_bits"] = (
        peaks.get("coeffs.build_rational.max_den_bits", 0), "count")
    for name in ("eigen.eigen_solve", "special.hyp2f1"):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.failures"] = (row(name)["failures"], "count")
    m["spectrum.beta_spectrum.us_per_point"] = (per_work("spectrum.beta_spectrum", 1e6), "us")
    m["cli.spectrum.us_per_point"] = (per_work("cli.spectrum", 1e6), "us")
    for layer in ("mc", "coeffs", "eigen", "special", "spectrum", "cli"):
        m[f"{layer}.calls"] = (layer_total(layer, "calls"), "count")
    m["trace.overhead_frac"] = (overhead, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced_pass(wl, seconds=None, cycles=None) -> tuple:
    """Each cycle twice on the same inputs, untraced and traced.  Which goes
    first alternates, so that a warm second run cancels.

    Returns the tracer, then records and cycle times untraced, then traced."""
    off, tr = Tracer(False), Tracer(True)
    plain, plain_s, records, cycle_s = [], [], [], []
    t_start = time.perf_counter()
    while (len(cycle_s) < cycles if cycles is not None
           else fits(seconds, time.perf_counter() - t_start, len(cycle_s))):
        c = len(cycle_s)
        both = [(off, plain, plain_s), (tr, records, cycle_s)]
        for tracer, recs, times in both[::-1] if c % 2 else both:
            r, t = run_pass(wl, tracer, cycles=1, first=c)
            recs += r
            times += t
    return tr, plain, plain_s, records, cycle_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced op sizes and one set-up probe, for the smoke test")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "slespec", "__init__.py")):
        print(f"perfbench: no slespec sources under {os.path.join(root, 'src')}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    warm_up(args.workload)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stamp": stamp(root)}
    plain_ok = True
    if args.trace:
        tr, plain, plain_s, records, cycle_s = traced_pass(wl, seconds=args.seconds)
        extras = wl.traced_extras(tr)
        census = run_census(wl, tr)
        overhead = statistics.median(t / u - 1.0 for t, u in zip(cycle_s, plain_s))
        metrics = per_layer(tr.summary(), tr.peaks, extras, overhead)
        plain_ok, _ = judge(plain)
        report.update(untraced_cycle_s=plain_s, traced_cycle_s=cycle_s)
    else:
        # set-up probes spread over the pass, so that they sample the machine
        # at several moments
        repeats = 1 if args.small else SETUP_REPEATS
        setup = [time_setup(root, args.workload)]

        def probe_between(elapsed):
            if len(setup) < repeats and elapsed >= len(setup) * args.seconds / repeats:
                setup.append(time_setup(root, args.workload))

        records, cycle_s = run_pass(wl, Tracer(False), seconds=args.seconds,
                                    between=probe_between)
        while len(setup) < repeats:
            setup.append(time_setup(root, args.workload))
        metrics, details = end_to_end(records, setup)
        census = run_census(wl, Tracer(False))
        report.update(cycle_s=cycle_s, setup_s_samples=[s for s, _ in setup], **details)
    ok, failures = judge(records)
    census_ok, census_failures = judge(census)
    correct = ok and plain_ok and census_ok
    attempted, failed = len(records), len(failures)
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.dt * 1e3)
    report.update(cycles=len(cycle_s), ops={k: len(v) for k, v in by_kind.items()},
                  op_ms_median_by_kind={k: statistics.median(v) for k, v in by_kind.items()},
                  fail_frac={"value": failed / attempted, "failed": failed,
                             "attempted": attempted,
                             "census": {"value": len(census_failures) / len(census),
                                        "failed": len(census_failures),
                                        "attempted": len(census)}},
                  failures=failures, census_failures=census_failures)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
