"""CLI machine reports against golden files recorded before refactors.

The files under tests/golden/ were written by `cli.run_tasks` at seed 0,
at `--samples 200` (`<spec>.<subcommand>.json`) and at the CLI's default
`--samples 1000` (`<spec>.<subcommand>.samples1000.json`); the plane spec
is the benchmark's own (`perfbench/specs/`), read here and never written.
They are the behaviour baseline: a change that breaks this test has
changed a verdict, an invariant, a message or a witness point, and the
golden files are not rewritten to hide that.
Residuals may move in the last rounded digit under reordered arithmetic,
so they are held only to the tolerance of their task.

`deep_ladder.seed0.json` holds the verdict report of the benchmark's
deep-ladder operation (rebuilt here from the catalog) and a sha256 of its
witness values. It is compared exactly: every matrix kernel the transport
runs must keep those values bit for bit.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bundleforms import cli, specfile
from bundleforms.bundles import s1_line_class, sampled_regions
from bundleforms.catalog import circle_base, moebius
from bundleforms.errors import BundleformsError
from bundleforms.homotopy import induced_iso_from_homotopy
from bundleforms.matexpr import em_eval
from bundleforms.semialg import Polynomial, SamplePlan
from helpers import antipodal_path

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"
BENCH_SPECS = Path(__file__).resolve().parent.parent / "perfbench" / "specs"

RUNS = [("moebius", "report"), ("moebius", "decompose"), ("moebius", "rings"),
        ("moebius_cylinder", "report")]
DEFAULT_SAMPLE_RUNS = [("moebius", "report"), ("moebius", "decompose"),
                       ("moebius", "rings")]
# the homotopy paths: cylinder transport, and trivialization on the plane
HOMOTOPY_RUNS = [(SPECS, "moebius_cylinder", "operate"),
                 (BENCH_SPECS, "scrambled_plane", "homotopy")]

# residual tolerance per task kind, as the CLI checks each one
TOLERANCE = {
    "validate-bundle": cli.IDENTITY_TOL,
    "validate-form": cli.IDENTITY_TOL,
    "decompose": 1e-8,
    "witt-zero": 1e-8,
    "homotopy-iso": cli.WITNESS_TOL,
    "homotopy-isometry": cli.WITNESS_TOL,
    "trivialize": cli.WITNESS_TOL,
    "check-witness": cli.WITNESS_TOL,
}


def machine_report(stem: str, subcommand: str, samples: int,
                   specs: Path = SPECS) -> dict:
    path = specs / f"{stem}.json"
    doc = specfile.parse_spec(path.read_text(encoding="utf-8"))
    args = cli.build_parser().parse_args(
        [subcommand, str(path), "--samples", str(samples), "--seed", "0"])
    tasks = cli._SUBCOMMANDS[subcommand](doc, args)
    report = cli.run_tasks(doc, tasks, cli._plan(args), args.tol, args.witness_tol)
    return json.loads(report.machine_text())


def assert_matches_golden(name: str, got: dict):
    want = json.loads((GOLDEN / name).read_text())
    assert (got["seed"], got["exit_code"]) == (want["seed"], want["exit_code"])
    assert [t["name"] for t in got["tasks"]] == [t["name"] for t in want["tasks"]]
    for new, old in zip(got["tasks"], want["tasks"]):
        for key in ("status", "invariants", "message", "witness_point"):
            assert new[key] == old[key], (new["name"], key)
        if old["max_residual"] is None:
            assert new["max_residual"] is None, new["name"]
        elif new["status"] == "pass":
            tol = TOLERANCE[new["name"].split()[0]]
            assert new["max_residual"] < tol, new["name"]


@pytest.mark.parametrize("stem,subcommand", RUNS)
def test_machine_report_matches_golden(stem, subcommand):
    assert_matches_golden(f"{stem}.{subcommand}.json",
                          machine_report(stem, subcommand, 200))


@pytest.mark.parametrize("stem,subcommand", DEFAULT_SAMPLE_RUNS)
def test_machine_report_at_default_samples_matches_golden(stem, subcommand):
    assert_matches_golden(f"{stem}.{subcommand}.samples1000.json",
                          machine_report(stem, subcommand, 1000))


@pytest.mark.parametrize("specs,stem,subcommand", HOMOTOPY_RUNS)
def test_homotopy_report_at_default_samples_matches_golden(specs, stem,
                                                           subcommand):
    assert_matches_golden(f"{stem}.{subcommand}.samples1000.json",
                          machine_report(stem, subcommand, 1000, specs))


# --- the deep-ladder transport witness ---------------------------------------

def _witness_values(field, pts) -> bytes:
    try:
        return np.ascontiguousarray(em_eval(field, pts)).tobytes()
    except BundleformsError as err:
        return f"{type(err).__name__}: {err}".encode()


def witness_digest(result, plan: SamplePlan) -> str:
    """sha256 of every chart field of the witness at 37 equally spaced
    angles of the circle, then at each chart's own samples (the points and
    the values), in the order of `tools/report_hashes.py`."""
    theta = np.linspace(0.0, 2.0 * np.pi, 37)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    h = hashlib.sha256()
    fields = result.morphism.fields
    for field in fields:
        h.update(_witness_values(field, circle))
    for (i,), pts, _ in sampled_regions(result.morphism.source.cover, plan, 1):
        h.update(pts.tobytes())
        h.update(_witness_values(fields[i], pts))
    return h.hexdigest()


def deep_ladder_report(seed: int) -> dict:
    """The benchmark's deep-ladder operation rebuilt from the catalog: the
    Moebius bundle along the antipodal path, whose ladder reaches its cap."""
    plan = SamplePlan(seed, 70, 50, 40)
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    result = induced_iso_from_homotopy(moebius(), ident, anti, antipodal_path(),
                                       circle_base(), plan)
    rep = result.report
    task = {
        "name": "induced-iso moebius identity~antipodal",
        "status": "pass" if rep.passed else "fail",
        "max_residual": float(rep.max_residual),
        "invariants": {"det_class_at_zero": s1_line_class(result.at_zero),
                       "det_class_at_one": s1_line_class(result.at_one)},
    }
    return {"seed": seed, "plan": [plan.seed, plan.n_chart, plan.n_overlap,
                                   plan.n_triple],
            "report": {"tasks": [task], "exit_code": 0 if rep.passed else 1},
            "witness_sha256": witness_digest(result, plan)}


def test_deep_ladder_witness_matches_golden():
    # the transport witness values, bit for bit: every kernel on the path
    # product (colproj, solve, guards) feeds them
    want = json.loads((GOLDEN / "deep_ladder.seed0.json").read_text())
    assert deep_ladder_report(0) == want
