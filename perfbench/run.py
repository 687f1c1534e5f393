"""Run one crlab benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): solve-sweep, cli-commands, flow-scan.  The seed
fixes the operation order and, for flow-scan and cli-commands, the start
points and map parameters.  One caller runs the operations one at a time
(a closed loop), in passes over the workload's fixed operation list, until
the next pass would end after S seconds, but at least the workload's
minimum pass count.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 plain and traced passes alternate and
the object holds the per-layer metrics.  The lines before it
give the payload digest, the provenance and each metric with its base.
The exit code is 0 when a result was printed, 2 on bad arguments or when
the checkout holds no crlab source.
"""

from time import perf_counter, perf_counter_ns

T_FIRST_LINE = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Fixed before numpy loads, here and (through the environment) in every
# child.  Two threads: a solve-sweep pass is ~20 % slower on one.
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (this file's directory is sys.path[0])
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve-sweep", "cli-commands", "flow-scan")
# solve-sweep has 56 operations a pass: two passes give the 100 latency
# samples that leave ten beyond the 90th percentile.
MIN_PASSES = {"solve-sweep": 2, "cli-commands": 1, "flow-scan": 1}
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120.0
TRACE_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def process_age_s() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return perf_counter() - T_FIRST_LINE


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class PassResult:
    seconds: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    errors: list = field(default_factory=list)
    oracle_cases: int = 0
    oracle_ok: int = 0
    gate_failures: list = field(default_factory=list)
    digest: str = ""


def run_pass(ops, tracer=None, pass_no: int = 0) -> PassResult:
    res = PassResult()
    payloads = []
    for i, op in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.op_id = pass_no * len(ops) + i
            span = tracer.open(f"op.{op.kind}")
        res.attempted += 1
        t0 = perf_counter_ns()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failed operation is counted, not raised
            error = exc
        t1 = perf_counter_ns()
        if span is not None:
            tracer.close(span)
        res.seconds += (t1 - t0) * 1e-9
        if error is None:
            try:
                payload, ok = op.check(result)
                payloads.append((op.key, canonical(payload)))
            except Exception as exc:  # a malformed answer is an error too
                error = exc
        if error is not None:
            res.errors.append(f"{op.key}: {type(error).__name__}: {error}")
            continue
        res.latencies.append((t1 - t0) * 1e-9)
        if ok is not None:
            res.oracle_cases += 1
            res.oracle_ok += bool(ok)
            if not ok and op.gates:
                res.gate_failures.append(op.key)
    h = hashlib.sha256()
    for key, text in sorted(payloads):
        h.update(f"{key}\n{text}\n".encode())
    res.digest = h.hexdigest()
    return res


def measure(ops, deadline: float, min_passes: int):
    """Passes until the next one would end after the deadline, assuming it
    lasts as long as the last one; at least ``min_passes``."""
    passes = []
    last = 0.0
    while len(passes) < min_passes or perf_counter() + last <= deadline:
        start = perf_counter()
        passes.append(run_pass(ops))
        last = perf_counter() - start
    return passes


class Workload:
    """A workload's operations after set-up, and what set-up measured."""

    def __init__(self, name: str, seed: int):
        self.runner = None
        self.import_ns = None
        rng = random.Random(seed)
        if name == "cli-commands":
            workdir = WORK_DIR / str(os.getpid())
            self.runner = workloads.CliRunner(ROOT, workdir, workloads.child_env(ROOT))
            self.runner.warmup()
            self.ops = workloads.cli_commands(self.runner, rng)
            return
        t0 = perf_counter_ns()
        import crlab
        import crlab.mapverify  # noqa: F401  (verdict_report is reached through it)
        self.import_ns = (t0, perf_counter_ns())
        src = (ROOT / "src").resolve()
        if src not in Path(crlab.__file__).resolve().parents:
            raise SystemExit(f"error: imported crlab from {crlab.__file__}, not from {src}")
        if name == "solve-sweep":
            self.ops = workloads.solve_sweep(crlab, rng)
            workloads.solve_sweep_warmup(crlab)
        else:
            self.ops = workloads.flow_scan(crlab, rng)
            workloads.flow_scan_warmup(self.ops)

    def record_setup(self, tracer) -> None:
        """In-process counterparts of the CLI's start-up layers."""
        if self.runner is None:
            first_line_age = process_age_s() - (perf_counter() - T_FIRST_LINE)
            tracer.record("cli.python_start", 0, int(first_line_age * 1e9))
            tracer.record("cli.import", *self.import_ns)

    def traced_pass(self, pass_no: int, tracer) -> PassResult:
        if self.runner is not None:
            self.runner.tracer = tracer
            try:
                return run_pass(self.ops, tracer, pass_no)
            finally:
                self.runner.tracer = None
        uninstall = tracing.install(tracer)
        try:
            return run_pass(self.ops, tracer, pass_no)
        finally:
            uninstall()

    def close(self) -> None:
        if self.runner is not None:
            shutil.rmtree(self.runner.workdir, ignore_errors=True)


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process and of SETUP_SAMPLES - 1 fresh ones."""
    samples = [first]
    # Started like this process (``python3`` from PATH, through any
    # launcher in front of the interpreter), so every sample counts the same.
    cmd = [shutil.which("python3") or sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> str:
    """The checkout's commit, read from .git without running git (a
    checkout without .git gives 'unknown')."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "commit": git_commit(),
    }


def summarize(passes) -> dict:
    attempted = sum(p.attempted for p in passes)
    errors = [e for p in passes for e in p.errors]
    digests = {p.digest for p in passes}
    gate_failures = sorted({k for p in passes for k in p.gate_failures})
    return {
        "attempted": attempted,
        "errors": errors,
        "oracle_cases": sum(p.oracle_cases for p in passes),
        "oracle_ok": sum(p.oracle_ok for p in passes),
        "gate_failures": gate_failures,
        "digests": digests,
        "correct": not errors and not gate_failures and len(digests) == 1,
    }


def harrell_davis(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.

    A plain sample quantile reads one or two order statistics.  solve-sweep's
    90th percentile falls on a gap between two clusters of operations, so
    that reading jumps whenever noise swaps one operation across the gap;
    the weighted mean spreads the estimate over the neighbouring samples
    (README.md, "Bounds and noise")."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def end_to_end(passes, setup: list[float], peak_rss_mb: float, summary: dict):
    # If every operation failed there is no latency; the run is incorrect
    # and reports 0 rather than no result.
    lat = [x for p in passes for x in p.latencies] or [0.0]
    p90 = harrell_davis(lat, 0.9)
    beyond = sum(1 for x in lat if x > p90)
    attempted = summary["attempted"]
    cases = summary["oracle_cases"]
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        # A mean, not a median: on a shared machine whose speed switches
        # between two modes every few seconds, the median of a run's passes
        # jumps to whichever mode held most of the run, while the mean
        # follows the share of slow time (README.md, "Bounds and noise").
        "pass_s": (statistics.fmean(p.seconds for p in passes), "s",
                   f"mean of {len(passes)} passes of {passes[0].attempted} operations"),
        "latency_p50_s": (harrell_davis(lat, 0.5), "s", f"{len(lat)} samples"),
        "latency_p90_s": (p90, "s", f"{len(lat)} samples, {beyond} beyond it"
                          + ("" if beyond >= 10 else " (fewer than 10: an upper-tail indicator)")),
        "peak_rss_mb": (peak_rss_mb, "MB", ""),
        "completed_ratio": (1.0 - len(summary["errors"]) / attempted, "ratio",
                            f"error_ratio = {len(summary['errors'])}/{attempted}"),
        "answer_ok_ratio": (summary["oracle_ok"] / cases if cases else 0.0, "ratio",
                            f"{summary['oracle_ok']}/{cases} oracle cases"),
    }
    return metrics


def emit(args, summary: dict, metrics: dict) -> None:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    digests = sorted(summary["digests"])
    print("digest: " + (f"sha256:{digests[0]}" if len(digests) == 1
                        else "MISMATCH across passes " + " ".join(digests)))
    for key in summary["gate_failures"]:
        print(f"oracle failed: {key}")
    for err in summary["errors"][:10]:
        print(f"error: {err}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": len(summary["errors"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def run(args) -> int:
    workload = Workload(args.workload, args.seed)
    try:
        setup_age = process_age_s()
        if args.setup_only:
            print(setup_age)
            return 0
        deadline = perf_counter() + args.seconds
        if not args.trace:
            passes = measure(workload.ops, deadline, MIN_PASSES[args.workload])
            who = resource.RUSAGE_CHILDREN if workload.runner else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            summary = summarize(passes)
            setup = setup_samples(args, setup_age)
            emit(args, summary, end_to_end(passes, setup, peak_rss_mb, summary))
            return 0

        # Plain and traced passes alternate, so drift in the machine's load
        # falls on both sides of the overhead estimate.
        tracer = tracing.Tracer()
        workload.record_setup(tracer)
        plain, traced = [], []
        last = 0.0
        while not traced or perf_counter() + last <= deadline:
            start = perf_counter()
            plain.append(run_pass(workload.ops))
            traced.append(workload.traced_pass(len(traced), tracer))
            last = perf_counter() - start
        summary = summarize(plain + traced)
        metrics = {name: (value, unit, "")
                   for name, (value, unit) in tracing.per_layer(tracer, len(traced)).items()}
        overhead = (statistics.fmean(p.seconds for p in traced)
                    - statistics.fmean(p.seconds for p in plain))
        metrics["trace.overhead_s"] = (overhead, "s", f"traced minus plain pass_s, "
                                       f"means of {len(traced)} passes each")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.save(TRACE_DIR / f"{args.workload}.trace.json")
        emit(args, summary, metrics)
        return 0
    finally:
        workload.close()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crlab" / "__init__.py").is_file():
        print(f"error: no crlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
