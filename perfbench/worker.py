"""One benchmark worker: a fresh process that runs one workload closed-loop.

It imports numpy and bundleforms, prints ``READY`` (the parent times set-up
up to that line), then runs operations one after another while the next one
is expected to end within ``--seconds`` (at least one), and prints one JSON
line with every operation's wall time, host slowdown, report dicts and, when
traced, per-layer metrics.  With ``--setup-only`` it exits right after
``READY``.

With ``--trace 1`` operations alternate untraced and traced, so the tracing
overhead is measured in the same process.

The speed of the shared host this was tuned on drifts by up to 3x over
seconds to minutes, which no run length averages out.  So while an
operation runs, a SIGALRM handler times a fixed pure-Python loop every
50 ms, on the same CPU and at the same moments; the operation's slowdown is
the loop's mean time over its uncontended time REF_NOMINAL_S.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402


REF_LOOP = 2000
REF_NOMINAL_S = 110e-6     # the loop's time on the tuning host, uncontended
REF_EVERY_S = 0.05


class HostSpeed:
    """Samples the reference loop on SIGALRM while the context is open."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self) -> float:
        if not self.samples:
            return 1.0
        return statistics.mean(self.samples) / REF_NOMINAL_S


def measure(workload: str, seed: int, tracer=None) -> dict:
    """Run and time one operation; report its verdicts and layer metrics."""
    if tracer is not None:
        tracer.reset()
    tracing = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with tracing, HostSpeed() as host:
            t0 = time.perf_counter()
            result = workloads.run_operation(workload, seed)
            wall = time.perf_counter() - t0
    except Exception:  # an operation that raises is a failed operation
        return {"traced": tracer is not None, "error": traceback.format_exc()}
    out = {"traced": tracer is not None, "wall_s": wall,
           "slowdown": host.slowdown(), "host_samples": len(host.samples),
           "reports": workloads.verdict_reports(workload, result)}
    if tracer is not None:
        out["layers"] = tracer.snapshot()
        fields = workloads.witness_fields(workload, result)
        nodes, groups = (layertrace.witness_dag_size(fields)
                         if fields is not None else (0, 0))
        out["layers"]["expr.witness_dag_nodes"] = nodes
        out["layers"]["expr.witness_matrix_groups"] = groups
    return out


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.setup_only or args.workload):
        parser.error("--workload is required")
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.workload == "spec-homotopy":
        workloads.check_plane_spec(args.seed)
    tracer = layertrace.LayerTracer() if args.trace else None
    ops = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        ops.append(measure(args.workload, args.seed))
        if tracer is not None:
            ops.append(measure(args.workload, args.seed, tracer))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ops": ops, "peak_rss_kb": peak_kb,
                      "environment": environment()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
