"""Reduced-size smoke test of the benchmark.  Not part of the tier-1 suite
(pytest's testpaths stop at tests/); run it explicitly from the repository root:

    python -m pytest perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "metrics_map.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--small")
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    want = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want)
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(report["stamp"]) == {"git_sha", "nproc", "python", "numpy"}
    assert sum(report["ops"].values()) == result["attempted"]
    assert report["fail_frac"]["failed"] == result["failed"]
    assert report["fail_frac"]["census"]["attempted"] >= 1
    assert len(report["census_failures"]) == report["fail_frac"]["census"]["failed"]
    assert all(f["known"] for f in report["census_failures"])


def test_map_names_match_benchmark():
    assert sorted(MAP["workloads"]) == sorted(WORKLOADS)
    assert sorted(MAP["per_layer"]) == sorted(m["name"] for m in BENCH["per_layer"])
    e2e = {m["name"] for m in BENCH["end_to_end"]} | {"fail_frac"}
    for moves in MAP["per_layer"].values():
        for metric, workload in moves:
            assert metric in e2e and workload in WORKLOADS


def _bench_modules():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads
    from spans import Tracer
    return run, workloads, Tracer


def test_wrong_oracle_is_a_failure():
    run, workloads, Tracer = _bench_modules()
    wl = workloads.ExactCertify(seed=3, small=True)
    records, _ = run.run_pass(wl, Tracer(False), cycles=1)
    assert all(r.err is None for r in records if r.op.kind.startswith(("cli.", "spectrum.")))

    beta, branch, gamma = wl.grid_want[7]
    wl.grid_want[7] = (beta + 1e-6, branch, gamma)
    records, _ = run.run_pass(wl, Tracer(True), cycles=1)
    bad = [(r.op.kind, r.err.layer) for r in records
           if r.op.kind.startswith(("cli.", "spectrum.")) and r.err is not None]
    assert sorted(bad) == [("cli.spectrum", "cli.spectrum"),
                           ("spectrum.grid", "spectrum.beta_spectrum")]
    correct, failures = run.judge(records)
    assert not correct
    assert {f["op"] for f in failures if not f["known"]} == {"cli.spectrum", "spectrum.grid"}


def test_refuses_to_run_without_sources(tmp_path):
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_traced_and_untraced_runs_pair_the_same_inputs():
    run, workloads, _ = _bench_modules()
    wl = workloads.SeriesFit(seed=3, small=True)
    assert len(wl.pool) > 1
    _, plain, _, traced, _ = run.traced_pass(wl, cycles=3)
    assert [(r.key, r.op.desc) for r in plain] == [(r.key, r.op.desc) for r in traced]
    assert {r.key[0] for r in traced} == {0, 1, 2}


def test_times_are_scaled_by_the_reference_kernel():
    run, workloads, Tracer = _bench_modules()
    wl = workloads.ExactCertify(seed=3, small=True)
    records, _ = run.run_pass(wl, Tracer(False), cycles=1)
    assert all(r.scale > 0 for r in records)
    ops = [run.Record(("k", i), records[0].op, dt, None, scale)
           for i, (dt, scale) in enumerate([(0.1, 2.0), (0.3, 0.5), (0.2, 1.0)])]
    metrics, details = run.end_to_end(ops, [(0.5, 1.0), (0.7, 2.0), (0.6, 0.5)])
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["ops_per_s"]["value"] == pytest.approx(3 / 0.55)
    assert metrics["op_ms_p50"]["value"] == pytest.approx(200.0)
    assert details["wall_clock"]["ops_per_s"] == pytest.approx(3 / 0.6)


def _failure(exc, layer, **attrs):
    exc.layer = layer
    exc.__dict__.update(attrs)
    return exc


def test_unknown_failure_modes_are_not_excused():
    run, workloads, _ = _bench_modules()
    from slespec.eigen import EigenCertificationError
    from spans import Mismatch

    exact = workloads.ExactCertify(seed=3, small=True)
    eig = next(op for op in exact.census if op.kind == "eigen.M20")
    assert eig.known(EigenCertificationError("unexpected complex spectrum [1j]"))
    assert not eig.known(EigenCertificationError("residual 1e-3 > 1e-9"))
    assert not eig.known(Mismatch("eigen.eigen_solve", "eigenvalue dev 1e-3"))

    series = workloads.SeriesFit(seed=3, small=True)
    hyp = next(op for op in series.census if op.kind == "special.hyp2f1.integer")
    assert hyp.known(_failure(RuntimeError("no convergence"), "special.hyp2f1"))
    assert not hyp.known(Mismatch("special.hyp2f1", "rel err 1e-3"))

    # a timed op excuses nothing but the MC z-gate's chance failures
    timed = exact.pool[0] + series.pool[0]
    assert not any(op.known for op in timed)

    gated = [op for op in workloads.MCMoments(seed=3, small=True).pool[0] if op.chance]
    assert gated and all(op.known(Mismatch("mc.moment_estimate", "z=5")) for op in gated)
    assert not any(op.known(_failure(RuntimeError("nan"), "mc.moment_estimate"))
                   for op in gated)
    records = [run.Record((0, i), op, 0.0, Mismatch("mc.moment_estimate", "z=5"), 1.0)
               for i, op in enumerate(gated[:3])]
    assert run.judge(records[:2])[0]
    assert not run.judge(records)[0]
