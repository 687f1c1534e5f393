"""Run one crlab CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_FILE SUBCOMMAND [ARGS...]

The traced counterpart of ``python3 -m crlab.cli SUBCOMMAND [ARGS...]``.
Besides the layer spans it records ``cli.python_start`` (from the parent's
spawn time in $PERFBENCH_SPAWN_NS to this file's first line; both clocks
are CLOCK_MONOTONIC), ``cli.import`` and ``cli.<subcommand>``, then saves
every span to SPANS_FILE and exits with the command's exit code.
"""

from time import perf_counter_ns

T_FIRST_LINE = perf_counter_ns()

import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (this file's directory is sys.path[0])


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    spawn = os.environ.get("PERFBENCH_SPAWN_NS")
    if spawn is not None:
        tracer.record("cli.python_start", int(spawn), T_FIRST_LINE)
    t0 = perf_counter_ns()
    import crlab.cli
    tracer.record("cli.import", t0, perf_counter_ns())
    tracing.install(tracer)
    span = tracer.open(f"cli.{argv[0]}")
    try:
        return crlab.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.save(spans_file)


if __name__ == "__main__":
    sys.exit(main())
