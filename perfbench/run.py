"""bundleforms benchmark: time-to-verdict on three certificate workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spec-circle --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): spec-circle, spec-homotopy,
deep-ladder.  Each runs closed-loop with one client in a fresh worker process
(worker.py), one operation after another, while the next one is expected to
end within --seconds (at least one).  The seed becomes the CLI's --seed /
SamplePlan.seed.

verdict_s is the median operation time at the host's uncontended speed: each
operation's wall time divided by the host slowdown the worker sampled while
it ran (see worker.py).  The raw wall times and slowdowns are printed too.

Every operation's verdicts are checked against expected.json, written by hand.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics (verdict_s, setup_s, peak_rss_mb); --trace 1 reports the per-layer
metrics of layertrace.py from operations that alternate untraced and traced.
The exit code is 0 only when every verdict matched and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("spec-circle", "spec-homotopy", "deep-ladder")
SETUP_PROBES = 4          # set-up-only workers, besides the measuring one
DEADLINE_S = 170.0        # the whole run, set-up probes included

# Layers each workload is known to use; a traced run that sees no call to
# one of them has lost its instrumentation and fails.
KNOWN_USED = {
    "spec-circle": [
        "specfile.parse_spec", "semialg.sample", "semialg.membership",
        "expr.eval", "matrixgroup.pencil_pos", "matrixgroup.pencil_neg",
        "unity.partition_of_unity", "bundles.gauss_embedding",
        "bundles.validate_cocycle", "bundles.s1_line_class",
        "forms.signature", "forms.gram_schmidt_frame", "forms.decompose",
        "forms.validate_form", "rings.witt_class", "rings.witt_is_zero",
        "rings.roundtrip_k0", "rings.roundtrip_witt",
    ],
    "spec-homotopy": [
        "specfile.parse_spec", "semialg.sample", "expr.eval",
        "matrixgroup.colproj", "matrixgroup.solve",
        "bundles.check_isomorphism", "homotopy.homotopy_isomorphism",
        "homotopy.homotopy_isometry", "homotopy.trivialize_contractible",
    ],
    "deep-ladder": [
        "semialg.sample", "expr.eval", "matrixgroup.colproj",
        "matrixgroup.solve", "bundles.gauss_embedding", "bundles.pullback",
        "bundles.check_isomorphism", "homotopy.homotopy_isomorphism",
        "homotopy.induced_iso_from_homotopy",
    ],
}


def load_expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def count_mismatches(expected: dict, workload: str, reports: list) -> tuple[int, int]:
    """(task verdicts that differ from the expected file, reports whose exit
    code differs) for one operation."""
    tolerance = expected["tolerance"]
    want_reports = expected["workloads"][workload]
    mismatches, bad_exits = abs(len(reports) - len(want_reports)), 0
    for want, got in zip(want_reports, reports):
        bad_exits += got["exit_code"] != want["exit_code"]
        mismatches += abs(len(got["tasks"]) - len(want["tasks"]))
        for w, g in zip(want["tasks"], got["tasks"]):
            ok = (g["name"] == w["name"] and g["status"] == w["status"]
                  and g["invariants"] == w["invariants"])
            if "tolerance" in w:
                res = g.get("max_residual")
                ok = ok and isinstance(res, (int, float)) \
                    and res <= tolerance[w["tolerance"]]
            mismatches += not ok
    return mismatches, bad_exits


def layer_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    names = layertrace.metric_names() + [
        "expr.witness_dag_nodes", "expr.witness_matrix_groups",
        "trace.verdict_s", "trace.overhead", "host.slowdown"]
    units = {}
    for name in names:
        if name.endswith("_s") or name.endswith(".s"):
            units[name] = "s"
        elif name in ("semialg.sample.fill", "trace.overhead", "host.slowdown"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


class Worker:
    """A worker process; set-up time runs from spawn to its READY line."""

    def __init__(self, args: list[str]):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.t0
        if line.strip() != "READY":
            self.stop()
            raise RuntimeError(f"worker did not start (exit {self.proc.returncode})")

    def finish(self, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("worker timed out") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workers(args) -> tuple[list[float], dict]:
    """Set-up probes, then the measuring worker; returns (set-up samples,
    the worker's result)."""
    started = time.perf_counter()
    Worker(["--setup-only"]).finish(30.0)    # warm-up: byte-code caches
    setups = []
    for _ in range(SETUP_PROBES):
        probe = Worker(["--setup-only"])
        setups.append(probe.setup_s)
        probe.finish(30.0)
    worker = Worker(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        setups.append(worker.setup_s)
        out = worker.finish(DEADLINE_S - (time.perf_counter() - started))
    finally:
        worker.stop()
    return setups, json.loads(out.strip().splitlines()[-1])


def median_layers(ops: list[dict]) -> dict:
    traced = [op["layers"] for op in ops if "layers" in op]
    return {k: statistics.median(t[k] for t in traced) for k in traced[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bundleforms" / "__init__.py").is_file():
        print(f"error: no bundleforms sources under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    expected = load_expected()
    try:
        setups, result = run_workers(args)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failed = mismatches = 0
    for op in ops:
        if "error" in op:
            failed += 1
            print(op["error"], file=sys.stderr)
            continue
        bad, bad_exits = count_mismatches(expected, args.workload, op["reports"])
        mismatches += bad
        failed += bad_exits > 0
    done = [op for op in ops if "error" not in op]
    for op in done:
        op["host_s"] = op["wall_s"] / op["slowdown"]
    untraced = [op["host_s"] for op in done if not op["traced"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, closed loop, one client")
    print("environment " + ", ".join(
        f"{k} {v}" for k, v in result["environment"].items()))
    print(f"verdict_mismatch {mismatches} count")
    print(f"failed_ops {failed / len(ops):.4f} share")
    if done:
        print("wall_s per operation: " + ", ".join(
            f"{op['wall_s']:.3f}" for op in done)
            + "; host slowdown: " + ", ".join(
            f"{op['slowdown']:.3f} ({op['host_samples']} samples)" for op in done))

    metrics = {}
    if args.trace == 0 and untraced:
        metrics = {
            "verdict_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        }
    elif args.trace == 1 and untraced and any(op["traced"] for op in done):
        layers = median_layers(done)
        traced_s = statistics.median(op["host_s"] for op in done if op["traced"])
        layers["trace.verdict_s"] = traced_s
        layers["host.slowdown"] = statistics.median(
            op["slowdown"] for op in done if op["traced"])
        layers["trace.overhead"] = traced_s / statistics.median(untraced) - 1.0
        metrics = {name: (layers[name], unit)
                   for name, unit in layer_units().items()}
        unused = [k for k in KNOWN_USED[args.workload]
                  if layers[f"{k}.calls"] == 0]
        if unused:
            print(f"error: trace saw no calls to {unused}; the layer "
                  "instrumentation is broken", file=sys.stderr)
            return 3
        print_split(args.workload, layers)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float)
              else f"{name} {value} {unit}")

    correct = mismatches == 0 and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def print_split(workload: str, layers: dict):
    """The time split each workload was chosen for, as measured."""
    total = layers["trace.verdict_s"]
    if workload == "deep-ladder":
        share = layers["semialg.sample.s"] / total
        print(f"split: semialg.sample.s is {share:.2%} of traced time "
              f"({'under' if share < 0.02 else 'NOT under'} 2%)")
    elif workload == "spec-circle":
        calls = sum(v for k, v in layers.items()
                    if k.startswith("homotopy.") and k.endswith(".calls"))
        print(f"split: {calls} homotopy.* calls "
              f"({'none' if calls == 0 else 'expected none'})")
    else:
        for k in ("homotopy.trivialize_contractible", "homotopy.homotopy_isometry"):
            print(f"split: {k}.calls = {layers[k + '.calls']}")


if __name__ == "__main__":
    sys.exit(main())
