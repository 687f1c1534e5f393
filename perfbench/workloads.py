"""The benchmark's workloads: fixed operation lists built from a seed.

Each operation is timed around ``run`` alone.  ``check`` then turns the
result into a deterministic payload (digested across the whole pass) and an
oracle verdict: True or False where the answer has a closed-form or pinned
oracle, None where it has none.  An exception from ``run`` or ``check`` is
an error.  ``gates`` marks oracles whose failure makes the run incorrect;
the others are only counted in ``answer_ok_ratio`` (see README.md).

Workloads call crlab through attribute lookups at call time
(``crlab.solve_model``, not a name imported once), so a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

CLI_TIMEOUT_S = 60.0
FLOW_RHO_BOUND = 1e-8       # criterion-06: flows of tangent fields stay on the surface
ROTATION_MODULUS_BOUND = 1e-8  # criterion-07
BLOWUP_REL_BOUND = 0.01     # criterion-07


@dataclass(frozen=True)
class Op:
    key: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[Any, bool | None]]
    gates: bool = True


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _complex_pairs(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


# --------------------------------------------------------------- solve-sweep

JET_ORDERS = tuple(range(5, 13))
DEFAULT_JET = 5

# (label, germ, family, m, vanish_at_origin, oracle).  The oracle is
# (dimension, labels or None, status or None): the worked examples of
# acceptance criteria 01-04 and the hyperquadric Re z1 + |z2|^2 = 0, whose
# aut_0 has dimension 5 (Chern-Moser).  The counterexample germ has none.
SWEEP_MODELS = (
    ("p1-aut0", "p1", "one-nonminimal", 1, True, (2, ("i z2 dz2", "z1 dz1"), None)),
    ("p2-aut0", "p2", "one-nonminimal", 1, True, (1, ("z1 dz1",), None)),
    ("p3-aut", "p3", "one-nonminimal", 1, False, (2, ("i dz2", "z1 dz1"), None)),
    ("p3-aut0", "p3", "one-nonminimal", 1, True, (1, ("z1 dz1",), None)),
    ("p1-m2-aut0", "p1", "m-nonminimal", 2, True, (1, ("i z2 dz2",), None)),
    ("hyperquadric-aut0", "control", "rigid", 1, True, (5, None, "confident")),
    ("counterexample-aut0", "counterexample", "one-nonminimal", 1, True, None),
)


def _solve_check(oracle):
    def check(result):
        basis, report = result
        if oracle is None:
            return report, None
        dim, labels, status = oracle
        ok = basis.dimension == dim
        if labels is not None:
            ok = ok and tuple(sorted(basis.labels)) == labels
        if status is not None:
            ok = ok and basis.status == status
        return report, ok
    return check


def solve_sweep(crlab, rng: random.Random) -> list[Op]:
    ops = []
    for label, germ, family, m, vanish, oracle in SWEEP_MODELS:
        model = crlab.ModelSpec(family, crlab.get_germ(germ), m=m)
        for n in JET_ORDERS:
            ops.append(Op(
                key=f"{label}/N{n:02d}",
                kind="solve_model",
                run=lambda model=model, n=n, vanish=vanish: crlab.solve_model(
                    model, N=n, vanish_at_origin=vanish),
                check=_solve_check(oracle),
                # The test suite pins the worked examples at the default
                # jet order; the rest of the sweep is ROADMAP item 2.
                gates=n == DEFAULT_JET and label != "hyperquadric-aut0",
            ))
    rng.shuffle(ops)
    return ops


def solve_sweep_warmup(crlab) -> None:
    crlab.solve_model(crlab.ModelSpec("one-nonminimal", crlab.get_germ("p1")), N=DEFAULT_JET)


# ----------------------------------------------------------------- flow-scan

FLOW_T_END = 5.0
VTYPE_POINTS = 25


def _trajectory_payload(traj) -> dict:
    states = traj.states if traj.states.ndim == 2 else traj.states[:, None]
    return {
        "status": traj.status,
        "times": _floats(traj.times),
        "states": [_complex_pairs(row) for row in states],
        "rho": None if traj.rho_residuals is None else _floats(traj.rho_residuals),
    }


def _flow_fields(crlab):
    """Each model with a field in its algebra (alpha = 1, beta = 2 as in
    criterion-06; translations slow enough to stay in the germ's disk)."""
    VF = crlab.VectorFieldPoly
    return (
        ("p1", "p1", "one-nonminimal", 1, crlab.linear_diag_field(1.0, 2.0)),
        ("p2", "p2", "one-nonminimal", 1, crlab.monomial_field(1, 1, 0, 1.0)),
        ("p3", "p3", "one-nonminimal", 1, VF({(1, 0): 1.0 + 0j}, {(0, 0): 0.05j})),
        ("p1-m2", "p1", "m-nonminimal", 2, crlab.linear_diag_field(0.0, 2.0)),
        ("hyperquadric", "control", "rigid", 1, VF({(0, 0): 0.05j}, {(0, 1): 2j})),
        ("counterexample", "counterexample", "one-nonminimal", 1, crlab.monomial_field(1, 1, 0, 1.0)),
    )


def _check_surface_flow(traj):
    rho_max = float(max(abs(r) for r in traj.rho_residuals))
    return _trajectory_payload(traj), traj.status == "ok" and rho_max <= FLOW_RHO_BOUND


def _vtype_payload(est) -> dict:
    return {
        "point": [est.point.real, est.point.imag], "order": est.order,
        "infinite": est.infinite, "slope": est.slope, "r2": est.r2, "note": est.note,
    }


def _vtype_check(expect):
    """expect: "infinite", an order, or None (no oracle)."""
    def check(est):
        if expect is None:
            ok = None
        elif expect == "infinite":
            ok = est.infinite
        else:
            ok = est.finite and est.order == expect
        return _vtype_payload(est), ok
    return check


def _disk_point(rng, r_lo, r_hi) -> complex:
    """Uniform over the annulus r_lo <= |z| <= r_hi."""
    r = math.sqrt(rng.uniform(r_lo**2, r_hi**2))
    phi = 2 * math.pi * rng.random()
    return complex(r * math.cos(phi), r * math.sin(phi))


def flow_scan(crlab, rng: random.Random) -> list[Op]:
    ops = []
    models = {}
    for label, germ, family, m, field in _flow_fields(crlab):
        model = models[label] = crlab.ModelSpec(family, crlab.get_germ(germ), m=m)
        t0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)
        z0 = crlab.surface_point(model, t0, _disk_point(rng, 0.3, 0.45))
        ops.append(Op(
            key=f"flow/{label}", kind="integrate_field",
            run=lambda field=field, z0=z0, model=model: crlab.integrate_field(
                field, z0, (0.0, FLOW_T_END), tol=1e-10, model=model),
            check=_check_surface_flow,
        ))

    g0 = _disk_point(rng, 0.2, 0.5)
    r0 = abs(g0)

    def check_rotation(traj):
        dev = max(abs(abs(s) - r0) for s in traj.states)
        return _trajectory_payload(traj), dev <= ROTATION_MODULUS_BOUND

    ops.append(Op(
        key="characteristic/rotation", kind="characteristic_flow",
        run=lambda: crlab.characteristic_flow(1j, 1, None, g0, (0.0, FLOW_T_END), tol=1e-10),
        check=check_rotation,
    ))
    x0 = rng.uniform(0.25, 0.4)

    def run_blowup():
        traj = crlab.characteristic_flow(1.0, 2, None, x0, (0.0, 30.0), tol=1e-12)
        return traj, crlab.blowup_time_estimate(traj, 1.0, 2)

    def check_blowup(result):
        traj, est = result
        payload = dict(_trajectory_payload(traj), blowup_time=float(est))
        return payload, abs(est - 1.0 / x0) * x0 <= BLOWUP_REL_BOUND

    ops.append(Op(key="characteristic/blow-up", kind="characteristic_flow",
                  run=run_blowup, check=check_blowup))

    # Vanishing orders: the flat germs are infinite at the origin
    # (criterion-08); P1 and P2 have order 1 on 0.3 <= |z| <= 0.6, where
    # their gradient is nonzero.  P3 and the counterexample germ get points
    # without an oracle.  |z| <= 0.6 keeps the radius window in the disk.
    for germ_id in ("p1", "p2", "p3", "counterexample"):
        germ = crlab.get_germ(germ_id)
        points = [] if germ_id == "counterexample" else [(0j, "infinite")]
        while len(points) < VTYPE_POINTS:
            if germ_id in ("p1", "p2"):
                points.append((_disk_point(rng, 0.3, 0.6), 1))
            else:
                points.append((_disk_point(rng, 0.0, 0.6), None))
        for i, (z, expect) in enumerate(points):
            ops.append(Op(
                key=f"vtype/{germ_id}/{i:02d}", kind="vanishing_order",
                run=lambda germ=germ, z=z: crlab.vanishing_order(germ, z),
                check=_vtype_check(expect),
            ))

    # Maps in each model's automorphism group, parameters drawn from the
    # ranges where the image of the default grid stays in the germ's disk.
    theta = rng.uniform(0.0, 2 * math.pi)
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-0.15, 0.15)
    maps = (
        ("p1", crlab.Rotate(theta)),
        ("p1", crlab.Scale(scale)),
        ("p2", crlab.Scale(scale)),
        ("p3", crlab.TranslateIm(shift)),
        ("p3", crlab.Negate()),
        ("p1-m2", crlab.Rotate(theta)),
        ("hyperquadric", crlab.Rotate(theta)),
        ("counterexample", crlab.Scale(scale)),
    )
    grid = crlab.default_grid()
    for i, (label, mp) in enumerate(maps):
        ops.append(Op(
            key=f"verdict/{i}/{label}/{type(mp).__name__}", kind="verdict_report",
            run=lambda model=models[label], mp=mp: crlab.mapverify.verdict_report(model, mp, grid),
            check=lambda report: (report, report["verdict"] == "pass"),
        ))

    ops.append(Op(
        key="certificate", kind="certificate",
        run=lambda: crlab.counterexample_certificate(crlab.CounterexampleParams()),
        check=lambda cert: (cert, cert["verdict"] == "pass"),
    ))
    rng.shuffle(ops)
    return ops


def flow_scan_warmup(ops) -> None:
    """One operation of each kind, so lazy imports and caches are settled."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


# -------------------------------------------------------------- cli-commands

CLI_OUT_DIR = "out"  # constant and relative: the CLI copies it into every report

CLI_REPORTS = {
    "solve": ("solve_report.json",),
    "flow": ("trajectory.csv", "trajectory.json"),
    "vtype": ("vtype_scan.csv",),
    "verify": ("verify_verdict.json",),
    "counterexample": ("counterexample_certificate.json",),
    "examples": ("examples_report.json",),
}

WORKED_SOLVE = {  # germ -> (dimension, sorted labels) at the default jet order
    "p1": (2, ["i z2 dz2", "z1 dz1"]),
    "p2": (1, ["z1 dz1"]),
    "p3": (1, ["z1 dz1"]),
}


@dataclass
class CliResult:
    returncode: int
    stderr: str
    files: dict


class CliRunner:
    """Runs ``python3 -m crlab.cli`` one command at a time in a scratch
    directory inside the checkout.  With a tracer set, the command runs
    through ``cli_child.py`` instead, and its spans are merged."""

    def __init__(self, root: Path, workdir: Path, env: dict):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.tracer = None
        workdir.mkdir(parents=True, exist_ok=True)

    def __call__(self, argv: list[str]) -> CliResult:
        out = self.workdir / CLI_OUT_DIR
        shutil.rmtree(out, ignore_errors=True)
        argv = [*argv, "--out-dir", CLI_OUT_DIR]
        env = self.env
        spans_file = self.workdir / "child-spans.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "crlab.cli", *argv]
        else:
            spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"), str(spans_file), *argv]
            env = dict(env, PERFBENCH_SPAWN_NS=str(perf_counter_ns()))
        proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        files = {}
        for name in CLI_REPORTS[argv[0]]:
            path = out / name
            if path.exists():
                files[name] = path.read_text()
        if self.tracer is not None:
            self.tracer.counts["cli.report_bytes"] += sum(len(v.encode()) for v in files.values())
            if spans_file.exists():
                self.tracer.merge(json.loads(spans_file.read_text()))
        return CliResult(proc.returncode, proc.stderr, files)

    def warmup(self) -> None:
        subprocess.run([sys.executable, "-m", "crlab.cli", "--help"], cwd=self.workdir,
                       env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S, check=True)


def _cli_check(sub: str, oracle: Callable[[dict], bool]):
    def check(res: CliResult):
        # 0, 1 and 2 are the documented exit codes; a traceback is a crash
        # even when the interpreter exits 1.
        if res.returncode not in (0, 1, 2) or "Traceback" in res.stderr:
            raise RuntimeError(f"crlab {sub} exited {res.returncode}: {res.stderr.strip()[-300:]}")
        missing = [n for n in CLI_REPORTS[sub] if n not in res.files]
        if res.returncode == 0 and missing:
            raise RuntimeError(f"crlab {sub} wrote no {missing}")
        payload = {n: (json.loads(t) if n.endswith(".json") else t) for n, t in res.files.items()}
        ok = res.returncode == 0 and oracle(payload)
        return payload, ok
    return check


def cli_commands(runner: CliRunner, rng: random.Random) -> list[Op]:
    germ = rng.choice(sorted(WORKED_SOLVE))
    dim, labels = WORKED_SOLVE[germ]
    z2 = _disk_point(rng, 0.3, 0.6)
    flow_args = [
        "--germ", "p1", "--t0", repr(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)),
        "--z2-re", repr(z2.real), "--z2-im", repr(z2.imag),
    ]
    vtype_germ = rng.choice(("p1", "p2", "p3"))
    theta = rng.uniform(0.0, 2 * math.pi)
    shift = rng.uniform(-0.15, 0.15)
    # Seven commands, verify twice: with an odd count the median latency
    # falls inside one command's cluster, not in the gap between two.
    commands = (
        ("solve", ["--germ", germ],
         lambda p: (p["solve_report.json"]["dimension"] == dim
                    and sorted(p["solve_report.json"]["labels"]) == labels)),
        ("flow", flow_args,
         lambda p: (p["trajectory.json"]["status"] == "ok"
                    and p["trajectory.json"]["max_abs_rho"] <= FLOW_RHO_BOUND)),
        # The scan starts at the origin, where the flat germs are infinite.
        ("vtype", ["--germ", vtype_germ],
         lambda p: p["vtype_scan.csv"].splitlines()[1].split(",")[3] == "inf"),
        ("verify", ["--germ", "p1", "--map", f"rotate:{theta!r}"],
         lambda p: p["verify_verdict.json"]["verdict"] == "pass"),
        ("verify", ["--germ", "p3", "--map", f"translate-im:{shift!r}"],
         lambda p: p["verify_verdict.json"]["verdict"] == "pass"),
        ("counterexample", [],
         lambda p: p["counterexample_certificate.json"]["verdict"] == "pass"),
        ("examples", [],
         lambda p: all(r["ok"] for r in p["examples_report.json"]["results"].values())),
    )
    ops = [
        Op(key=f"cli/{i}/{sub}", kind=f"cli.{sub}", run=lambda argv=[sub, *args]: runner(argv),
           check=_cli_check(sub, oracle))
        for i, (sub, args, oracle) in enumerate(commands)
    ]
    rng.shuffle(ops)
    return ops


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
