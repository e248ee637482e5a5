"""The three benchmark operations and their verdict extraction.

Every operation rebuilds its inputs (parses its spec afresh, or rebuilds the
catalog objects), so each `Cover._sample_cache` starts empty, as in one CLI
invocation.  `run_operation` is the timed part: from spec text or inputs to
the complete report.  `verdict_reports` turns its result into report dicts
shaped like the CLI's machine report; it is not timed.

- spec-circle: `report`, `decompose` and `rings` task lists of the Moebius
  circle spec through `cli.run_tasks` at the CLI defaults (21 tasks).
- spec-homotopy: `operate` on the Moebius cylinder spec, then `homotopy`
  on the scrambled plane spec, which dispatches to `trivialize` (4 tasks).
- deep-ladder: `induced_iso_from_homotopy` of the Moebius bundle along the
  antipodal path of the circle, whose transport ladder reaches its cap.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Timed calls go through the library's module attributes, which the
# layer tracer patches.
from bundleforms import cli, homotopy, specfile
from bundleforms import expr as ex
from bundleforms.bundles import s1_line_class
from bundleforms.catalog import circle_base, moebius, scrambled_plane_bundle
from bundleforms.matexpr import em_eval
from bundleforms.semialg import Polynomial, SamplePlan

SPECS = Path(__file__).resolve().parent / "specs"
WORKLOADS = ("spec-circle", "spec-homotopy", "deep-ladder")

# (spec file, CLI subcommands run on one parse of it), per workload.
SPEC_RUNS = {
    "spec-circle": [("moebius.json", ("report", "decompose", "rings"))],
    "spec-homotopy": [("moebius_cylinder.json", ("operate",)),
                      ("scrambled_plane.json", ("homotopy",))],
}


def _run_spec(name: str, subcommands, seed: int) -> list[str]:
    """Machine reports of the CLI subcommands on one parse of the spec."""
    path = SPECS / name
    doc = specfile.parse_spec(path.read_text(encoding="utf-8"))
    texts = []
    for sub in subcommands:
        args = cli.build_parser().parse_args(
            [sub, str(path), "--seed", str(seed), "--format", "machine"])
        # the CLI's own task list and sample plan for this subcommand
        tasks = cli._SUBCOMMANDS[sub](doc, args)
        report = cli.run_tasks(doc, tasks, cli._plan(args), args.tol,
                               args.witness_tol)
        texts.append(report.machine_text())
    return texts


def antipodal_homotopy():
    """H(x, t) = (a x + b Jx) / sqrt(a^2 + b^2), a = 1 - 2t, b = 4t(1 - t):
    stays on the circle, is the identity at t = 0 and x -> -x at t = 1."""
    x0, x1, t = ex.Var(0), ex.Var(1), ex.Var(2)
    a = ex.Sub(ex.Const(1.0), ex.Mul(ex.Const(2.0), t))
    b = ex.Mul(ex.Const(4.0), ex.Mul(t, ex.Sub(ex.Const(1.0), t)))
    norm = ex.Sqrt(ex.Add(ex.Mul(a, a), ex.Mul(b, b)), guard_tol=1e-12)
    return [ex.Div(ex.Sub(ex.Mul(a, x0), ex.Mul(b, x1)), norm, guard_tol=1e-12),
            ex.Div(ex.Add(ex.Mul(b, x0), ex.Mul(a, x1)), norm, guard_tol=1e-12)]


def _deep_ladder(seed: int):
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    return homotopy.induced_iso_from_homotopy(
        moebius(), ident, anti, antipodal_homotopy(), circle_base(),
        SamplePlan(seed, 70, 50, 40))


def run_operation(workload: str, seed: int):
    """One operation of the workload: the timed unit."""
    if workload == "deep-ladder":
        return _deep_ladder(seed)
    texts = []
    for name, subcommands in SPEC_RUNS[workload]:
        texts += _run_spec(name, subcommands, seed)
    return texts


def verdict_reports(workload: str, result) -> list[dict]:
    """Machine-report dicts ({"tasks": [...], "exit_code": n}) of one
    operation's result."""
    if workload != "deep-ladder":
        return [json.loads(text) for text in result]
    rep = result.report
    task = {
        "name": "induced-iso moebius identity~antipodal",
        "status": "pass" if rep.passed else "fail",
        "max_residual": float(rep.max_residual),
        "invariants": {"det_class_at_zero": s1_line_class(result.at_zero),
                       "det_class_at_one": s1_line_class(result.at_one)},
    }
    return [{"tasks": [task], "exit_code": 0 if rep.passed else 1}]


def witness_fields(workload: str, result):
    """Per-chart matrices of the returned MorphismField, where there is one."""
    return result.morphism.fields if workload == "deep-ladder" else None


def check_plane_spec(seed: int, n_points: int = 256, tol: float = 1e-12) -> float:
    """The plane spec's transitions must equal the catalog's scrambled plane
    bundle at seeded points; returns the largest difference."""
    text = (SPECS / "scrambled_plane.json").read_text(encoding="utf-8")
    spec = specfile.parse_spec(text)
    ours = spec.bundles["scrambled"]
    ref = scrambled_plane_bundle()
    box = np.array(ref.base.box, dtype=float)
    rng = np.random.default_rng(seed)
    pts = box[:, 0] + rng.random((n_points, 2)) * (box[:, 1] - box[:, 0])
    worst = 0.0
    for key in ((0, 1), (1, 0)):
        diff = np.abs(em_eval(ours.transition(*key), pts)
                      - em_eval(ref.transition(*key), pts)).max()
        worst = max(worst, float(diff))
    if not worst <= tol:
        raise ValueError(f"plane spec transitions differ from the catalog's "
                         f"scrambled plane bundle by {worst:.3e} > {tol:.0e}")
    return worst
