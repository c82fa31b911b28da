"""Command line front end: spectrum sweeps, curve tables, truncation
certificates, integral-means slope fits, and Monte Carlo cross-checks.

Exit codes: 0 success, 1 usage error, 2 validation failure.  Outputs are
deterministic for a fixed invocation (CSV floats as %.17g, JSON with sorted
keys); fraction inputs `p/q` stay exact wherever the math is rational.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import coeffs, eigen, mc, special
from . import spectrum as sp

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_number(tok: str):
    tok = tok.strip()
    if "/" in tok:
        return Fraction(tok)
    try:
        return Fraction(int(tok))
    except ValueError:
        return float(tok)


def _parse_grid(spec: str):
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            a, b, n = tok.split(":")
            out.extend(float(v) for v in np.linspace(float(a), float(b), int(n)))
        else:
            out.append(_parse_number(tok))
    if not out:
        raise ValueError(f"empty grid {spec!r}")
    return out


def _arg(parse):
    # argparse type: an unreadable value is a usage error (exit 1); argparse
    # itself lets the ZeroDivisionError of Fraction('1/0') escape
    def read(tok: str):
        try:
            return parse(tok)
        except (ValueError, ZeroDivisionError) as e:
            why = e if isinstance(e, ValueError) else "zero denominator"
            raise argparse.ArgumentTypeError(f"cannot read {tok!r}: {why}") from None
    return read


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return "%.17g" % float(v)


def _emit(args, text: str) -> None:
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)


def _emit_csv(args, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    _emit(args, "\n".join(lines) + "\n")


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# ---- spectrum ----

def _cmd_spectrum(args) -> int:
    rows = []
    for q in args.q:
        for k in args.kappa:
            sv = sp.beta_spectrum(sp.SLEParams(q=float(q), kappa=float(k)))
            gtxt = "" if sv.gamma is None else _fmt(sv.gamma)
            rows.append({"q": _fmt(q), "kappa": _fmt(k), "gamma_minus": gtxt,
                         "branch": sv.branch.value, "beta": _fmt(sv.beta)})
    if args.format == "csv":
        header = ["q", "kappa", "gamma_minus", "branch", "beta"]
        _emit_csv(args, header, [[r[h] for h in header] for r in rows])
    else:
        _emit_json(args, {"schema_version": SCHEMA_VERSION, "rows": rows})
    return 0


# ---- curves ----

def _cmd_curves(args) -> int:
    rows = []
    skipped = 0
    for M in range(args.m_max + 1):
        for g in args.gamma:
            curve = sp.CurveParams(M=M, gamma=g)
            try:
                params = sp.curve_point(curve)
            except sp.InvalidCurveError:
                skipped += 1
                continue
            bt = sp.beta_tilde_on_curve(curve)
            beta = sp.beta_on_curve(curve)
            rows.append({"M": str(M), "gamma": _fmt(g), "q": _fmt(params.q),
                         "kappa": _fmt(params.kappa), "beta_tilde": _fmt(bt),
                         "beta": _fmt(beta)})
    for k in args.kappa:
        qs = sp.q_transition(k)
        sv = sp.beta_spectrum(sp.SLEParams(q=qs, kappa=float(k)))
        rows.append({"M": "Q", "gamma": "", "q": _fmt(qs), "kappa": _fmt(k),
                     "beta_tilde": _fmt(sv.beta_tilde), "beta": _fmt(sv.beta)})
    if skipped:
        print(f"skipped {skipped} invalid (M, gamma) points", file=sys.stderr)
    if args.format == "csv":
        header = ["M", "gamma", "q", "kappa", "beta_tilde", "beta"]
        _emit_csv(args, header, [[r[h] for h in header] for r in rows])
    else:
        _emit_json(args, {"schema_version": SCHEMA_VERSION, "rows": rows,
                          "skipped": skipped})
    return 0


# ---- truncate ----

def _cmd_truncate(args) -> int:
    if args.order < args.m + 2:
        print(f"slespec truncate: error: --order must be at least M+2 = {args.m + 2} "
              f"to show a band of width M={args.m}, got {args.order}", file=sys.stderr)
        return 1
    curve = sp.CurveParams(M=args.m, gamma=args.gamma)
    params = sp.curve_point(curve)
    kappa_curve = params.kappa
    kappa_used = args.kappa if args.kappa is not None else kappa_curve
    N = args.order
    table = coeffs.build_theta_table(args.gamma, kappa_used, N, backend="rational")
    width = coeffs.truncation_width(table)
    a_minus = eigen.a_coef(-args.m, args.gamma, kappa_used)
    band_pass = width is not None and width <= args.m and a_minus == 0
    report = {
        "schema_version": SCHEMA_VERSION,
        "M": args.m,
        "gamma": str(args.gamma),
        "q": str(params.q),
        "kappa_curve": str(kappa_curve),
        "kappa_used": str(kappa_used),
        "order": N,
        "band_width": width,
        "a_minus_M": str(a_minus),
        "a_minus_M_is_zero": a_minus == 0,
        "band_pass": band_pass,
    }
    _emit_json(args, report)
    return 0 if band_pass else 2


# ---- betafit ----

def _cmd_betafit(args) -> int:
    q, kappa = float(args.q), float(args.kappa)
    roots = sp.gamma_roots(sp.SLEParams(q=q, kappa=kappa))
    if args.root == "plus":
        if not roots.has_plus:
            raise ValueError("gamma_plus undefined at kappa = 0")
        gamma = roots.gamma_plus
    else:
        gamma = roots.gamma_minus
    table = coeffs.build_theta_table(gamma, kappa, args.order, backend="float")
    radii = [1.0 - 2.0 ** (-k) for k in range(args.k_lo, args.k_hi + 1)]
    samples = []
    for r in radii:
        samples.append((r, coeffs.integral_means(
            table, r, n_phi=args.n_phi, tail_tol=args.tail_tol)))
    fit = coeffs.fit_beta(samples)
    closed = sp.beta_spectrum(sp.SLEParams(q=q, kappa=kappa)).beta
    rel_dev = abs(fit.slope - closed) / max(1.0, abs(closed))
    report = {
        "schema_version": SCHEMA_VERSION,
        "q": q, "kappa": kappa, "gamma": gamma, "root": args.root,
        "order": args.order, "n_phi": args.n_phi, "tail_tol": args.tail_tol,
        "radii": radii,
        "integral_means": [s[1] for s in samples],
        "slope": fit.slope, "intercept": fit.intercept,
        "fit_residual": fit.residual,
        "beta_closed_form": closed,
        "relative_deviation": rel_dev,
    }
    _emit_json(args, report)
    return 0


# ---- mc ----

def _cmd_mc(args) -> int:
    if args.samples < 2:
        print(f"slespec mc: error: --samples must be at least 2 for a standard "
              f"error, got {args.samples}", file=sys.stderr)
        return 1
    q, kappa, w = float(args.q), float(args.kappa), args.w
    n_steps = (args.steps if args.steps is not None
               else max(1, math.ceil(args.t_horizon / 2.5e-3)))
    config = mc.MCConfig(kappa=kappa, q=q, T=args.t_horizon, n_steps=n_steps,
                         n_samples=args.samples, seed=args.seed, w=w)
    caught = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        est = mc.moment_estimate(config, dump=args.dump, threads=args.threads)
        caught = [str(x.message) for x in wlist]
    if kappa == 0.0:
        # exact finite-horizon flow, so the gate sees only integrator error
        _, dz = mc.conic_flow(w, config.T)
        oracle = math.exp(q * (config.T + math.log(abs(dz))))
        oracle_source = "deterministic"
    else:
        roots = sp.gamma_roots(sp.SLEParams(q=q, kappa=kappa))
        table = coeffs.build_theta_table(roots.gamma_minus, kappa, 250,
                                         backend="float")
        oracle = coeffs.eval_rho(table, w, w.conjugate()).value.real
        oracle_source = "series"
    rel_dev = abs(est.mean - oracle) / max(1e-300, abs(oracle))
    if est.stderr > 1e-12 * abs(est.mean):
        z = (est.mean - oracle) / est.stderr
        ok = abs(z) <= 3.0
    else:
        # negligible spread happens only when every path is the same
        # deterministic flow (kappa=0): the samples are identical and the
        # reported stderr is accumulation roundoff (np.std of a constant
        # array is ~1 ulp, not 0); gate on relative deviation, not a z-score
        ok = rel_dev <= 1e-6
        z = 0.0 if ok else math.inf
    report = {
        "schema_version": SCHEMA_VERSION,
        "q": q, "kappa": kappa, "w_re": w.real, "w_im": w.imag,
        "T": config.T, "n_steps": config.n_steps,
        "n_samples": est.n_samples, "seed": est.seed,
        "mean": est.mean, "stderr": est.stderr,
        "oracle": oracle, "oracle_source": oracle_source,
        "z_score": z, "rel_dev": rel_dev,
        "warnings": caught,
    }
    _emit_json(args, report)
    return 0 if ok else 2


# ---- parser ----

def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="slespec",
                description="average integral-means spectrum toolkit for "
                            "interior whole-plane SLE")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp_):
        sp_.add_argument("--out", default="-", help="output path, '-' = stdout")

    ps = sub.add_parser("spectrum", help="closed-form beta(q; kappa) sweep")
    common(ps)
    ps.add_argument("--q", required=True, type=_arg(_parse_grid),
                    help="grid: comma list of numbers/fractions or a:b:n")
    ps.add_argument("--kappa", required=True, type=_arg(_parse_grid),
                    help="grid, same syntax")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.set_defaults(func=_cmd_spectrum)

    pc = sub.add_parser("curves", help="exact truncation-curve table")
    common(pc)
    pc.add_argument("--m-max", type=int, default=3)
    pc.add_argument("--gamma", default="0.05:3:60", type=_arg(_parse_grid),
                    help="gamma grid")
    pc.add_argument("--kappa", default="0:10:41", type=_arg(_parse_grid),
                    help="kappa grid for the transition locus rows")
    pc.add_argument("--format", choices=("csv", "json"), default="csv")
    pc.set_defaults(func=_cmd_curves)

    pt = sub.add_parser("truncate", help="exact band truncation certificate")
    common(pt)
    pt.add_argument("--m", type=int, required=True)
    pt.add_argument("--gamma", required=True, type=_arg(Fraction),
                    help="rational, e.g. 1/2")
    pt.add_argument("--kappa", default=None, type=_arg(Fraction),
                    help="override kappa (negative control); default curve value")
    pt.add_argument("--order", type=int, default=40, help="table size N")
    pt.add_argument("--format", choices=("json",), default="json")
    pt.set_defaults(func=_cmd_truncate)

    pb = sub.add_parser("betafit", help="integral-means slope fit vs closed form")
    common(pb)
    pb.add_argument("--q", required=True, type=_arg(_parse_number))
    pb.add_argument("--kappa", required=True, type=_arg(_parse_number))
    pb.add_argument("--order", type=int, default=400, help="table size N")
    pb.add_argument("--k-lo", type=int, default=3, help="radii 1 - 2^-k from")
    pb.add_argument("--k-hi", type=int, default=7, help="radii 1 - 2^-k to")
    pb.add_argument("--n-phi", type=int, default=1024)
    pb.add_argument("--tail-tol", type=float, default=1e-3)
    pb.add_argument("--root", choices=("minus", "plus"), default="minus")
    pb.add_argument("--format", choices=("json",), default="json")
    pb.set_defaults(func=_cmd_betafit)

    pm = sub.add_parser("mc", help="Monte Carlo moment vs oracle")
    common(pm)
    pm.add_argument("--q", required=True, type=_arg(_parse_number))
    pm.add_argument("--kappa", required=True, type=_arg(_parse_number))
    pm.add_argument("--w", required=True, type=_arg(complex),
                    help="evaluation point, e.g. 0.5 or 0.3+0.2j")
    pm.add_argument("--samples", type=int, default=10000)
    pm.add_argument("--t-horizon", type=float, default=8.0)
    pm.add_argument("--steps", type=int, default=None,
                    help="default: t-horizon / 2.5e-3")
    pm.add_argument("--dump", default=None, help="raw per-path dump file")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--threads", type=int, default=1)
    pm.add_argument("--format", choices=("json",), default="json")
    pm.set_defaults(func=_cmd_mc)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OverflowError, RuntimeError) as e:
        print(f"slespec: validation failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
