"""Smoke test of the benchmark itself.

Runs each workload once plain and once traced with the shortest run
length, and checks that

- the last line of output has exactly the keys correct, attempted, failed
  and metrics, with correct true and no failed operation;
- every end-to-end metric of BENCHMARK.json is emitted (plain run) and
  every per-layer metric (traced run), each with its declared unit;
- the payload digest of the plain run equals that of the traced run;
- the tracer still counts right-hand-side evaluations when crlab.flow has
  no module-global ``solve_ivp`` (a lazy ``scipy.integrate`` import).

Usage, from the root of a checkout (takes about two minutes):

    python3 perfbench/smoke.py

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
SEED = 1


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split(" ", 1)[1] for ln in lines if ln.startswith("digest: ")), "")
    return json.loads(lines[-1]), digest


def check(workload: str, trace: int, result: dict, declared: list[dict]) -> list[str]:
    where = f"{workload} trace={trace}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"{where}: missing {sorted(set(want) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is not None and (got.get("unit") != unit or not isinstance(got.get("value"), (int, float))):
            problems.append(f"{where}: {name} = {got}, declared unit {unit}")
    return problems


def check_lazy_solve_ivp() -> list[str]:
    """Install the tracer with ``crlab.flow.solve_ivp`` deleted, then call
    ``solve_ivp`` the way a lazy import inside crlab would."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import tracing
    from crlab import flow

    saved = flow.__dict__.pop("solve_ivp", None)
    tracer = tracing.Tracer()
    try:
        uninstall = tracing.install(tracer)
        try:
            from scipy.integrate import solve_ivp
            solve_ivp(lambda t, y: -y, (0.0, 1.0), [1.0])
        finally:
            uninstall()
    except Exception as exc:
        return [f"traced run without flow.solve_ivp: {type(exc).__name__}: {exc}"]
    finally:
        if saved is not None:
            flow.solve_ivp = saved
    if tracer.counts["flow.rhs_evals"] == 0:
        return ["traced run without flow.solve_ivp counted no right-hand-side evaluations"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_lazy_solve_ivp()
    for w in bench["workloads"]:
        plain, plain_digest = run(w["name"], 0)
        traced, traced_digest = run(w["name"], 1)
        problems += check(w["name"], 0, plain, bench["end_to_end"])
        problems += check(w["name"], 1, traced, bench["per_layer"])
        if not plain_digest.startswith("sha256:") or plain_digest != traced_digest:
            problems.append(f"{w['name']}: plain digest {plain_digest} != traced {traced_digest}")
        print(f"{w['name']}: digest {plain_digest}")
    for line in problems:
        print(f"FAIL {line}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
