"""Print one sha256 line per deterministic output of the program.

Covered, each at seeds 0 and 1:
- the CLI machine report and exit code of `report`, `decompose`, `rings`,
  `operate` and `homotopy` on every `demos/specs/*.json`, at the default
  `--samples`;
- the verdict reports of every benchmark workload (`perfbench/`);
- the deep-ladder witness values: each chart field evaluated at 37 angles
  of the circle and at that chart's samples.

Run it on two checkouts and diff the output: a refactor that keeps every
report byte-identical prints the same lines.  It reads `perfbench/` and
writes nothing.

    python3 tools/report_hashes.py > hashes.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from bundleforms import cli  # noqa: E402
from bundleforms.bundles import sampled_regions  # noqa: E402
from bundleforms.errors import BundleformsError  # noqa: E402
from bundleforms.matexpr import em_eval  # noqa: E402
from bundleforms.semialg import SamplePlan  # noqa: E402

SEEDS = (0, 1)
SUBCOMMANDS = ("report", "decompose", "rings", "operate", "homotopy")
ANGLES = 37


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_lines(seed: int):
    for spec in sorted((ROOT / "demos" / "specs").glob("*.json")):
        for sub in SUBCOMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([sub, str(spec), "--seed", str(seed),
                                 "--format", "machine"])
            data = f"exit {code}\n{out.getvalue()}".encode()
            yield f"cli {sub} {spec.name} seed {seed}", digest(data)


def _values(field, pts) -> bytes:
    try:
        return np.ascontiguousarray(em_eval(field, pts)).tobytes()
    except BundleformsError as err:
        return f"{type(err).__name__}: {err}".encode()


def witness_digest(result, seed: int) -> str:
    # the plan of workloads._deep_ladder
    plan = SamplePlan(seed, 70, 50, 40)
    theta = np.linspace(0.0, 2.0 * np.pi, ANGLES)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    h = hashlib.sha256()
    fields = workloads.witness_fields("deep-ladder", result)
    for field in fields:
        h.update(_values(field, circle))
    for (i,), pts, _ in sampled_regions(result.morphism.source.cover, plan, 1):
        h.update(pts.tobytes())
        h.update(_values(fields[i], pts))
    return h.hexdigest()


def workload_lines(seed: int):
    for name in workloads.WORKLOADS:
        result = workloads.run_operation(name, seed)
        reports = workloads.verdict_reports(name, result)
        data = json.dumps(reports, sort_keys=True).encode()
        yield f"workload {name} seed {seed}", digest(data)
        if name == "deep-ladder":
            yield f"witness deep-ladder seed {seed}", witness_digest(result, seed)


def main() -> int:
    for seed in SEEDS:
        for label, value in (*cli_lines(seed), *workload_lines(seed)):
            print(f"{value}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
