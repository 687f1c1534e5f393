"""Command-line front end: reproducible experiments with JSON/CSV reports.

Exit codes: 0 success (all verdicts pass), 1 a verification verdict failed,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import counterexample as cx
from .autsolve import shell_points, solve_model
from .errors import CrlabError
from .fields import linear_diag_field
from .flow import integrate_field
from .germs import CATALOG_IDS, get_germ
from .mapverify import Negate, Rotate, Scale, TranslateIm, default_grid, verdict_report
from .models import FAMILIES, M_NONMINIMAL, ModelSpec, ONE_NONMINIMAL, surface_point
from .vtype import write_scan_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2

EXAMPLES = ("strict-inclusion", "rotational", "asymmetric", "tubular", "higher-order")


def _out_dir(args) -> Path:
    base = args.out_dir or os.environ.get("CRLAB_OUT", ".")
    p = Path(base)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _resolved_config(args) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write_report(args, default_name: str, payload: dict) -> Path:
    out = _out_dir(args) / (args.out or default_name)
    _write_json(out, payload)
    return out


def _make_model(args) -> ModelSpec:
    m = args.m if args.family == M_NONMINIMAL else 1
    return ModelSpec(family=args.family, germ=get_germ(args.germ, a=args.a), m=m)


def cmd_solve(args) -> int:
    model = _make_model(args)
    basis, report = solve_model(
        model, N=args.jet, tau=args.tau, vanish_at_origin=not args.allow_origin
    )
    report["config"] = _resolved_config(args)
    out = _write_report(args, "solve_report.json", report)
    print(f"dimension={basis.dimension} status={basis.status} labels={basis.labels}")
    print(f"report: {out}")
    return EXIT_OK if basis.confident else EXIT_FAIL


def cmd_flow(args) -> int:
    model = _make_model(args)
    field = linear_diag_field(args.alpha, args.beta)
    z0 = surface_point(model, args.t0, complex(args.z2_re, args.z2_im))
    traj = integrate_field(field, z0, (0.0, args.t_end), tol=args.tol, model=model)
    out = _out_dir(args) / (args.out or "trajectory.csv")
    traj.to_csv(out)
    max_rho = float(np.max(np.abs(traj.rho_residuals)))
    summary = {
        "config": _resolved_config(args),
        "status": traj.status,
        "n_samples": len(traj.times),
        "nfev": traj.nfev,
        "accepted_steps": traj.accepted_steps,
        "max_abs_rho": max_rho,
    }
    _write_json(out.with_suffix(".json"), summary)
    print(f"status={traj.status} max|rho|={max_rho:.3e}")
    print(f"trajectory: {out}")
    return EXIT_OK


def cmd_vtype(args) -> int:
    germ = get_germ(args.germ, a=args.a)
    pts = [0j, *shell_points((0.15, 0.3, 0.45), 8)]
    out = _out_dir(args) / (args.out or "vtype_scan.csv")
    rows = write_scan_csv(out, germ, pts, K_max=args.k_max)
    n_inf = sum(1 for est in rows if est.infinite)
    print(f"scanned {len(rows)} points, {n_inf} flagged infinite")
    print(f"scan: {out}")
    return EXIT_OK


def _parse_map(spec: str):
    kind, _, val = spec.partition(":")
    if kind == "scale":
        return Scale(float(val))
    if kind == "rotate":
        return Rotate(float(val))
    if kind == "translate-im":
        return TranslateIm(float(val))
    if kind == "negate":
        return Negate()
    raise CrlabError(f"unknown map spec {spec!r} (scale:s, rotate:theta, translate-im:t, negate)")


def cmd_verify(args) -> int:
    model = _make_model(args)
    mp = _parse_map(args.map)
    report = verdict_report(model, mp, default_grid())
    report["config"] = _resolved_config(args)
    out = _write_report(args, "verify_verdict.json", report)
    print(f"residual={report['residual']:.3e} verdict={report['verdict']}")
    print(f"verdict: {out}")
    return EXIT_OK if report["verdict"] == "pass" else EXIT_FAIL


def cmd_counterexample(args) -> int:
    params = cx.CounterexampleParams(
        z20=complex(args.z20_re, args.z20_im), C=args.C, t0=args.t0, r=args.r
    )
    cert = cx.certificate(params)
    cert["config"] = _resolved_config(args)
    out = _write_report(args, "counterexample_certificate.json", cert)
    print(
        f"increment_dev={cert['increment_max_dev']:.3e} "
        f"order_at_z20={cert['order_at_z20']} verdict={cert['verdict']}"
    )
    print(f"certificate: {out}")
    return EXIT_OK if cert["verdict"] == "pass" else EXIT_FAIL


def _run_example(which: str) -> tuple[bool, dict]:
    if which == "strict-inclusion":
        cert = cx.certificate(cx.CounterexampleParams())
        return cert["verdict"] == "pass", cert
    if which == "rotational":
        model = ModelSpec(ONE_NONMINIMAL, get_germ("p1"))
        basis, report = solve_model(model)
        ok = (
            basis.confident
            and basis.dimension == 2
            and set(basis.labels) == {"z1 dz1", "i z2 dz2"}
        )
        return ok, report
    if which == "asymmetric":
        model = ModelSpec(ONE_NONMINIMAL, get_germ("p2"))
        basis, report = solve_model(model)
        ok = basis.confident and basis.dimension == 1 and basis.labels == ["z1 dz1"]
        return ok, report
    if which == "tubular":
        model = ModelSpec(ONE_NONMINIMAL, get_germ("p3"))
        free, rep_free = solve_model(model, vanish_at_origin=False)
        fixed, rep_fixed = solve_model(model, vanish_at_origin=True)
        ok = (
            free.dimension == 2
            and set(free.labels) == {"z1 dz1", "i dz2"}
            and fixed.dimension == 1
            and fixed.labels == ["z1 dz1"]
        )
        return ok, {"without_origin_constraint": rep_free, "with_origin_constraint": rep_fixed}
    # higher-order
    model = ModelSpec(M_NONMINIMAL, get_germ("p1"), m=2)
    basis, report = solve_model(model)
    ok = basis.dimension == 1 and basis.labels == ["i z2 dz2"]
    return ok, report


def cmd_examples(args) -> int:
    results = {}
    all_ok = True
    for w in args.which or EXAMPLES:
        ok, report = _run_example(w)
        results[w] = {"ok": ok, "report": report}
        all_ok = all_ok and ok
        print(f"example {w}: {'pass' if ok else 'FAIL'}")
    out = _write_report(
        args, "examples_report.json", {"config": _resolved_config(args), "results": results}
    )
    print(f"report: {out}")
    return EXIT_OK if all_ok else EXIT_FAIL


def _apply_config_file(argv: list[str]) -> list[str]:
    """A --config FILE of key=value lines is expanded to leading --key value
    pairs (flags on the command line win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv) or argv[i + 1].startswith("--"):
        raise CrlabError("--config needs a file path")
    path = Path(argv[i + 1])
    rest = argv[: i] + argv[i + 2 :]
    extra: list[str] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        extra += [f"--{key.strip()}", val.strip()]
    # subcommand first, then config-derived defaults, then explicit flags
    return rest[:1] + extra + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="crlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--out", default=None, help="output file name")
        sp.add_argument("--out-dir", default=None, help="output directory (or $CRLAB_OUT)")

    def add_common(sp, with_model=True):
        sp.add_argument("--germ", choices=CATALOG_IDS, default="p1")
        sp.add_argument("--a", type=float, default=1.0, help="flatness exponent")
        if with_model:
            sp.add_argument("--family", choices=FAMILIES, default=ONE_NONMINIMAL)
            sp.add_argument("--m", type=int, default=2, help="order for m-nonminimal")
        add_output(sp)

    sp = sub.add_parser("solve", help="compute the infinitesimal automorphism basis")
    add_common(sp)
    sp.add_argument("--jet", type=int, default=5)
    sp.add_argument(
        "--tau", type=float, default=1e-8,
        help="relative singular-value cutoff in [max(rows, unknowns) * eps, 1), a floor"
        " of about 1.4e-13 for a one-nonminimal model at --jet 5; 'confident' also needs"
        " every null singular value at or below that floor",
    )
    sp.add_argument(
        "--allow-origin", action="store_true",
        help="drop the vanish-at-origin constraint (aut instead of aut_0)",
    )
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("flow", help="integrate alpha z1 dz1 + i beta z2 dz2 from a surface point")
    add_common(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--t0", type=float, default=0.1, help="surface parameter of the start point")
    sp.add_argument("--z2-re", type=float, default=0.5)
    sp.add_argument("--z2-im", type=float, default=0.0)
    sp.add_argument("--t-end", type=float, default=5.0)
    sp.add_argument(
        "--tol", type=float, default=1e-10,
        help="integrator tolerance in [100 * eps, 1e-2), about [2.2e-14, 1e-2)",
    )
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("vtype", help="scan vanishing orders on a point grid")
    add_common(sp, with_model=False)
    sp.add_argument("--k-max", type=int, default=20)
    sp.set_defaults(func=cmd_vtype)

    sp = sub.add_parser("verify", help="verify a candidate automorphism")
    add_common(sp)
    sp.add_argument("--map", required=True, help="scale:s | rotate:theta | translate-im:t | negate")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("counterexample", help="emit the strict-inclusion certificate")
    sp.add_argument("--z20-re", type=float, default=0.5)
    sp.add_argument("--z20-im", type=float, default=0.0)
    sp.add_argument("--C", type=float, default=0.3)
    sp.add_argument("--t0", type=float, default=0.5)
    sp.add_argument("--r", type=float, default=0.1)
    add_output(sp)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("examples", help="reproduce the worked examples")
    sp.add_argument("--which", nargs="*", choices=EXAMPLES, help="default: all of them")
    add_output(sp)
    sp.set_defaults(func=cmd_examples)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CrlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
