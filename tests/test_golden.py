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
"""

import json
from pathlib import Path

import pytest

from bundleforms import cli, specfile

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
