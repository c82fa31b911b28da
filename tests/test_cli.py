"""Command-line surface: formats, exit codes, determinism."""

import csv
import io
import json
import pathlib
from fractions import Fraction

import pytest

import slespec as S
from slespec import cli
from slespec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- spectrum ----

def test_spectrum_csv_anchor_rows(capsys):
    code, out, _ = run(capsys, "spectrum", "--q", "0,2", "--kappa", "2,6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,kappa,gamma_minus,branch,beta"
    cells = [ln.split(",") for ln in lines[1:]]
    assert len(cells) == 4
    by_pt = {(c[0], c[1]): c for c in cells}
    assert float(by_pt[("2", "2")][4]) == pytest.approx(4.0, abs=1e-12)
    assert float(by_pt[("2", "6")][4]) == pytest.approx(3.0, abs=1e-12)
    assert by_pt[("2", "6")][3] == "Derivative"
    assert float(by_pt[("0", "2")][4]) == pytest.approx(0.0, abs=1e-12)


def test_spectrum_json_and_determinism(capsys):
    # negative grid values need the = form, else argparse reads them as flags
    args = ("spectrum", "--q=-2:3:21", "--kappa", "0,8/3,6",
            "--format", "json")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert len(doc["rows"]) == 63
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_spectrum_grid_accepts_fractions(capsys):
    code, out, _ = run(capsys, "spectrum", "--q=-2", "--kappa", "8/3")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "-2" and row[1] == "8/3"
    assert float(row[4]) == pytest.approx(1 / 3, abs=1e-12)


def test_empty_grid_is_a_usage_error(capsys):
    code, out, err = run(capsys, "spectrum", "--q", ",", "--kappa", "2")
    assert code == 1
    assert out == ""
    assert "argument --q: cannot read ',': empty grid" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "spectrum", "--q", "1", "--kappa", "2",
                       "--nope", "1")
    assert code == 1


def test_threads_only_on_mc(capsys):
    code, _, err = run(capsys, "spectrum", "--q", "1", "--kappa", "2",
                       "--threads", "2")
    assert code == 1
    assert "--threads" in err


def test_missing_subcommand_exits_1(capsys):
    assert run(capsys)[0] == 1


def test_one_parser_serves_every_call_as_fresh_ones_would(capsys):
    # main builds its parser once: a usage error followed by a valid call,
    # and two valid calls in a row, give the exit codes and bytes of calls
    # that each build a fresh parser
    calls = [("truncate", "--m", "1"), ("truncate", "--m", "1", "--gamma", "1/2"),
             ("spectrum", "--q", "1,2", "--kappa", "2/3"),
             ("spectrum", "--q", "1,2", "--kappa", "2/3", "--format", "json")]

    def outputs(fresh):
        cli._build_parser.cache_clear()
        out = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            out.append(run(capsys, *argv))
        return out, cli._build_parser.cache_info().misses

    kept, built = outputs(False)
    assert built == 1 and [code for code, _, _ in kept] == [1, 0, 0, 0]
    assert "--gamma" in kept[0][2]
    assert kept == outputs(True)[0]


@pytest.mark.parametrize("argv,option", [
    (("spectrum", "--q", "1/0", "--kappa", "2"), "--q"),
    (("curves", "--gamma", "1/0"), "--gamma"),
    (("truncate", "--m", "1", "--gamma", "1/0"), "--gamma"),
    (("betafit", "--q", "1", "--kappa", "1/0"), "--kappa"),
    (("spectrum", "--q", "abc", "--kappa", "2"), "--q"),
    (("spectrum", "--q", "0:1:-2", "--kappa", "2"), "--q"),
    (("mc", "--q", "1", "--kappa", "2", "--w", "abc", "--samples", "4"), "--w"),
], ids=["spectrum-zero-den", "curves-zero-den", "truncate-zero-den",
        "betafit-zero-den", "spectrum-not-a-number", "spectrum-negative-count",
        "mc-not-complex"])
def test_unreadable_number_is_a_usage_error(capsys, tmp_path, argv, option):
    # read by the parser, before any work: exit 1 naming the option, no traceback
    dest = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(dest))
    assert code == 1
    assert out == "" and not dest.exists()
    assert f"argument {option}: cannot read" in err


# ---- curves ----

def test_curves_contains_known_anchor(capsys):
    code, out, err = run(capsys, "curves", "--m-max", "1",
                         "--gamma", "1/2,1", "--kappa", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,gamma,q,kappa,beta_tilde,beta"
    rows = [ln.split(",") for ln in lines[1:]]
    anchor = [r for r in rows if r[0] == "1" and r[1] == "1"]
    assert anchor and anchor[0][2] == "2" and anchor[0][3] == "2"
    assert anchor[0][4] == "4" and anchor[0][5] == "4"
    # one transition row per kappa grid point
    assert sum(1 for r in rows if r[0] == "Q") == 1


def test_curves_json(capsys):
    code, out, err = run(capsys, "curves", "--m-max", "0", "--gamma", "1/4,1",
                         "--kappa", "2", "--format", "json")
    assert code == 0
    assert "skipped 1" in err
    doc = json.loads(out)
    assert doc["schema_version"] == 1 and doc["skipped"] == 1
    assert doc["rows"] == [
        {"M": "0", "gamma": "1", "q": "2", "kappa": "6", "beta_tilde": "3",
         "beta": "3"},
        dict(doc["rows"][1], M="Q", gamma="", kappa="2")]


def test_curves_skips_invalid_points(capsys):
    # gamma = 1/4 is below the M=0 admissible range
    code, out, err = run(capsys, "curves", "--m-max", "0",
                         "--gamma", "1/4,1", "--kappa", "2")
    assert code == 0
    assert "skipped 1" in err


def test_curves_beta_matches_closed_spectrum(capsys):
    # the README grid and gamma = k/48 (tip rows included), every row checked
    # against the closed spectrum at the curve's (q, kappa)
    grids = ["0.05:3:60", ",".join(f"{k}/48" for k in range(-60, 160))]
    rows = []
    for grid in grids:
        code, out, _ = run(capsys, "curves", "--m-max", "3", f"--gamma={grid}",
                           "--kappa", "0")
        assert code == 0
        rows += [r for r in csv.DictReader(io.StringIO(out)) if r["M"] != "Q"]
    assert len(rows) == 941
    tip = 0
    for r in rows:
        g = Fraction(r["gamma"]) if "/" in r["gamma"] else float(r["gamma"])
        tip += g <= Fraction(-1, 2)
        want = S.beta_spectrum(S.curve_point(S.CurveParams(int(r["M"]), g))).beta
        assert float(Fraction(r["beta"])) == pytest.approx(want, rel=1e-9, abs=1e-9), r
    assert tip > 0


# ---- truncate ----

def test_truncate_certificate_pass(capsys):
    code, out, _ = run(capsys, "truncate", "--m", "1", "--gamma", "1/2",
                       "--order", "24")
    assert code == 0
    doc = json.loads(out)
    assert doc["band_pass"] is True
    assert doc["band_width"] == 1
    assert doc["a_minus_M_is_zero"] is True
    assert doc["kappa_used"] == doc["kappa_curve"] == "5/2"
    assert doc["q"] == "21/16"


def test_truncate_negative_control(capsys):
    # off-curve kappa must not produce a band
    code, out, _ = run(capsys, "truncate", "--m", "1", "--gamma", "1/2",
                       "--kappa", "3", "--order", "24")
    assert code == 2
    doc = json.loads(out)
    assert doc["band_pass"] is False
    assert doc["band_width"] is None


def test_truncate_order_below_m_plus_2_is_a_usage_error(capsys):
    # a table of order M+1 has no corner beyond width M, so it cannot show a band
    code, out, err = run(capsys, "truncate", "--m", "2", "--gamma", "1/2",
                         "--order", "3")
    assert code == 1
    assert out == ""
    assert "at least M+2 = 4" in err
    code, out, _ = run(capsys, "truncate", "--m", "2", "--gamma", "1/2",
                       "--order", "4")
    assert code == 0
    assert json.loads(out)["band_width"] == 2


def test_truncate_invalid_curve_exits_2(capsys):
    code, _, err = run(capsys, "truncate", "--m", "0", "--gamma", "1/4")
    assert code == 2
    assert "validation failure" in err


# ---- betafit ----

def test_betafit_on_curve_slope(capsys):
    code, out, _ = run(capsys, "betafit", "--q", "2", "--kappa", "6",
                       "--order", "300", "--k-lo", "3", "--k-hi", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta_closed_form"] == pytest.approx(3.0, abs=1e-12)
    assert doc["relative_deviation"] < 0.05
    assert len(doc["radii"]) == len(doc["integral_means"]) == 4


def test_betafit_no_real_gamma_exits_2(capsys):
    code, _, err = run(capsys, "betafit", "--q", "10", "--kappa", "4")
    assert code == 2
    assert "validation failure" in err


def test_betafit_plus_root(capsys):
    code, out, _ = run(capsys, "betafit", "--q", "1", "--kappa", "4",
                       "--root", "plus", "--order", "200", "--k-lo", "3",
                       "--k-hi", "6")
    assert code == 0
    doc = json.loads(out)
    roots = S.gamma_roots(S.SLEParams(1.0, 4.0))
    assert doc["root"] == "plus"
    assert doc["gamma"] == roots.gamma_plus != roots.gamma_minus
    assert doc["relative_deviation"] < 0.05


def test_betafit_plus_root_rejected_at_kappa_zero(capsys):
    code, _, err = run(capsys, "betafit", "--q", "1", "--kappa", "0",
                       "--root", "plus")
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_betafit_tail_tol_that_disables_the_gate_fails_validation(capsys, tol):
    # nan passed every radius: exit 0, a slope 32% off and "tail_tol": NaN
    code, out, err = run(capsys, "betafit", "--q", "2", "--kappa", "6",
                         "--order", "60", f"--tail-tol={tol}")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "tail_tol must be finite and positive" in err


# ---- mc ----

def test_mc_kappa_zero_gate(capsys, tmp_path):
    dump = tmp_path / "paths.txt"
    code, out, _ = run(capsys, "mc", "--q", "1.5", "--kappa", "0",
                       "--w", "0.4", "--samples", "4", "--t-horizon", "6",
                       "--steps", "2400", "--dump", str(dump))
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_source"] == "deterministic"
    assert doc["rel_dev"] < 1e-6
    assert doc["stderr"] == 0.0
    assert len(dump.read_text().strip().splitlines()) == 4


def test_mc_kappa_zero_gate_survives_roundoff_stderr(capsys):
    # 64 identical samples make np.std report ~1 ulp instead of 0 (naive
    # accumulation rounds k*x for non-power-of-two k); the gate must still
    # take the deterministic branch instead of a z-score in the millions
    code, out, _ = run(capsys, "mc", "--q", "2", "--kappa", "0",
                       "--w", "0.4", "--samples", "64", "--t-horizon", "8",
                       "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_source"] == "deterministic"
    assert doc["rel_dev"] < 1e-6
    assert doc["stderr"] < 1e-12 * abs(doc["mean"])
    assert doc["z_score"] == 0.0


def test_mc_series_oracle_small_run(capsys):
    code, out, _ = run(capsys, "mc", "--q", "1", "--kappa", "6",
                       "--w", "0.4", "--samples", "400", "--t-horizon", "6",
                       "--steps", "2400", "--threads", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_source"] == "series"
    assert abs(doc["z_score"]) <= 3.0


def test_mc_rejects_bad_w(capsys):
    code, _, err = run(capsys, "mc", "--q", "1", "--kappa", "2", "--w", "1.5",
                       "--samples", "4")
    assert code == 2
    assert "validation failure" in err


@pytest.mark.parametrize("samples", ["1", "0"])
def test_mc_samples_below_two_is_a_usage_error(capsys, samples):
    # one sample has no standard error (stderr = inf made z = 0 and the gate
    # passed whatever the mean)
    code, out, err = run(capsys, "mc", "--q", "2", "--kappa", "6", "--w", "0.5",
                         "--samples", samples, "--t-horizon", "4")
    assert code == 1
    assert out == ""
    assert "--samples must be at least 2" in err


def test_mc_zero_steps_fails_validation(capsys):
    # --steps 0 is an invalid step count, not "use the default"
    code, out, err = run(capsys, "mc", "--q", "1", "--kappa", "2", "--w", "0.4",
                         "--samples", "4", "--t-horizon", "4", "--steps", "0")
    assert code == 2
    assert out == ""
    assert "validation failure" in err and "n_steps" in err


def test_mc_negative_seed_names_the_seed(capsys):
    # numpy's "expected non-negative integer" named no option
    code, out, err = run(capsys, "mc", "--q", "1", "--kappa", "2", "--w", "0.4",
                         "--samples", "4", "--t-horizon", "4", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "validation failure: seed must be a nonnegative integer, got -1" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_mc_non_finite_horizon_names_t(capsys, value):
    # the default --steps comes from T, so it must not be derived from nan/inf
    code, out, err = run(capsys, "mc", "--q", "1", "--kappa", "2", "--w", "0.4",
                         "--samples", "4", "--t-horizon", value)
    assert code == 2
    assert out == ""
    assert "T must be finite" in err and value in err
    assert "convert" not in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_mc_threads_below_one_is_a_usage_error(capsys, monkeypatch, threads):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated although --threads is invalid")

    monkeypatch.setattr(S.mc, "moment_estimate", simulate)
    code, out, err = run(capsys, "mc", "--q", "1", "--kappa", "2", "--w", "0.4",
                         "--samples", "4", "--t-horizon", "4", "--threads", threads)
    assert code == 1
    assert out == ""
    assert f"--threads must be at least 1, got {threads}" in err


# ---- output redirection ----

def test_out_file(capsys, tmp_path):
    dest = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "spectrum", "--q", "2", "--kappa", "6",
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == "q,kappa,gamma_minus,branch,beta"


def test_unwritable_out_path_exits_1(capsys, tmp_path):
    bad = str(tmp_path / "missing" / "rows.csv")
    code, out, err = run(capsys, "spectrum", "--q", "2", "--kappa", "6",
                         "--out", bad)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and bad in err
    assert len(err.strip().splitlines()) == 1


def test_unwritable_dump_path_fails_before_simulating(capsys, tmp_path,
                                                      monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("simulated although the dump path is unwritable")

    monkeypatch.setattr(S.mc, "moment_estimate", simulate)
    bad = str(tmp_path / "missing" / "paths.txt")
    code, out, err = run(capsys, "mc", "--q", "1", "--kappa", "2", "--w", "0.4",
                         "--samples", "4", "--t-horizon", "4", "--dump", bad)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err and bad in err


def test_mc_without_an_oracle_fails_before_simulating(capsys, tmp_path,
                                                      monkeypatch):
    # no real gamma at (3, 6): the run used to simulate every path and write
    # the whole dump before the series oracle refused the point
    def simulate(*args, **kwargs):
        raise AssertionError("simulated although the point has no oracle")

    monkeypatch.setattr(S.mc, "moment_estimate", simulate)
    dump = tmp_path / "paths.txt"
    code, out, err = run(capsys, "mc", "--q", "3", "--kappa", "6", "--w", "0.5",
                         "--samples", "2000", "--dump", str(dump))
    assert code == 2
    assert out == ""
    assert "no real gamma for q=3.0, kappa=6.0: discriminant -44.0 < 0" in err
    assert not dump.exists()


# ---- non-finite numbers ----

@pytest.mark.parametrize("argv", [
    ("spectrum", "--q", "nan", "--kappa", "2"),
    ("spectrum", "--q", "2", "--kappa", "nan"),
    ("spectrum", "--q", "inf", "--kappa", "2"),
    ("spectrum", "--q", "2", "--kappa", "inf"),
    ("curves", "--m-max", "0", "--gamma", "1", "--kappa", "nan"),
    ("curves", "--m-max", "0", "--gamma", "1", "--kappa", "inf"),
    ("mc", "--q", "nan", "--kappa", "2", "--w", "0.4", "--samples", "4"),
    ("mc", "--q", "1", "--kappa", "nan", "--w", "0.4", "--samples", "4"),
    ("mc", "--q", "1", "--kappa", "2", "--w", "nan", "--samples", "4"),
], ids=["spectrum-q-nan", "spectrum-kappa-nan", "spectrum-q-inf",
        "spectrum-kappa-inf", "curves-kappa-nan", "curves-kappa-inf",
        "mc-q-nan", "mc-kappa-nan", "mc-w-nan"])
def test_non_finite_number_fails_validation(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "validation failure" in err


# ---- one report writer ----

# the per-format writers the single writer replaced, kept as its reference
OLD_HEADERS = {"spectrum": ["q", "kappa", "gamma_minus", "branch", "beta"],
               "curves": ["M", "gamma", "q", "kappa", "beta_tilde", "beta"]}


def old_csv(header, rows):
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def old_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--q=-2:3:21", "--kappa", "0,8/3,6"),
    ("spectrum", "--q=-2:3:21", "--kappa", "0,8/3,6", "--format", "json"),
    ("curves", "--m-max", "1", "--gamma", "1/4,1/2,1", "--kappa", "0,2"),
    ("curves", "--m-max", "1", "--gamma", "1/4,1/2,1", "--kappa", "0,2",
     "--format", "json"),
    ("truncate", "--m", "1", "--gamma", "1/2", "--order", "24"),
    ("truncate", "--m", "1", "--gamma", "1/2", "--kappa", "3", "--order", "24"),
    ("betafit", "--q", "2", "--kappa", "6", "--order", "200", "--k-lo", "3",
     "--k-hi", "6"),
    ("mc", "--q", "1.5", "--kappa", "0", "--w", "0.4", "--samples", "4",
     "--t-horizon", "6", "--steps", "2400"),
], ids=["spectrum-csv", "spectrum-json", "curves-csv", "curves-json",
        "truncate-pass", "truncate-fail", "betafit", "mc"])
def test_report_writer_matches_old_writers(capsys, argv):
    args = cli._build_parser().parse_args(argv)
    code, report = args.func(args)
    got_code, out, _ = run(capsys, *argv)
    assert got_code == code
    if args.format == "csv":
        header = OLD_HEADERS[args.command]
        assert out == old_csv(header, [[r[h] for h in header] for r in report["rows"]])
    else:
        assert out == old_json({"schema_version": 1, **report})


@pytest.mark.parametrize("command", ["truncate", "betafit", "mc"])
def test_json_only_commands_reject_csv(capsys, command):
    code, out, err = run(capsys, command, "--format", "csv")
    assert code == 1
    assert out == ""
    assert "argument --format: invalid choice: 'csv'" in err


# ---- golden outputs of the exact README commands ----

_GOLDEN = pathlib.Path(__file__).parent / "golden"
_SKIPPED = "skipped 10 invalid (M, gamma) points\n"
_SPECTRUM = ("spectrum", "--q=-2:3:41", "--kappa", "2,8/3,6")
_CURVES = ("curves", "--m-max", "3", "--gamma", "0.05:3:60", "--kappa", "0:10:41")


@pytest.mark.parametrize("name,code,err,argv", [
    ("spectrum.csv", 0, "", (*_SPECTRUM, "--format", "csv")),
    ("spectrum.json", 0, "", (*_SPECTRUM, "--format", "json")),
    ("curves.csv", 0, _SKIPPED, _CURVES),
    ("curves.json", 0, _SKIPPED, (*_CURVES, "--format", "json")),
    ("truncate.json", 0, "", ("truncate", "--m", "2", "--gamma", "1/2", "--order", "40")),
    ("truncate_kappa3.json", 2, "", ("truncate", "--m", "2", "--gamma", "1/2",
                                     "--kappa", "3", "--order", "40")),
], ids=["spectrum-csv", "spectrum-json", "curves-csv", "curves-json",
        "truncate-pass", "truncate-fail"])
def test_readme_commands_match_golden_output(capsys, name, code, err, argv):
    # tests/golden/<name> is `python -m slespec <argv>` stdout, byte for byte;
    # betafit and mc are left out: their FFT, LAPACK and complex ufunc
    # round-off may differ between numpy versions
    assert run(capsys, *argv) == (code, (_GOLDEN / name).read_bytes().decode(), err)


def test_curves_validates_each_point_once(capsys, monkeypatch):
    # the README grid has 240 (M, gamma) points, 10 of them skipped: one
    # _checked_curve call each; curve_point, beta_tilde_on_curve and
    # beta_on_curve each validate once per call
    calls, checked = [], S.spectrum._checked_curve
    monkeypatch.setattr(S.spectrum, "_checked_curve",
                        lambda c: calls.append(c) or checked(c))
    assert run(capsys, *_CURVES)[0] == 0
    assert len(calls) == 240 and len(set(calls)) == 240
    c = S.CurveParams(2, Fraction(1, 2))
    for f in (S.curve_point, S.beta_tilde_on_curve, S.beta_on_curve):
        calls.clear()
        f(c)
        assert calls == [c], f.__name__
