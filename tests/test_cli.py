"""Command dispatch, report rendering, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from bundleforms.cli import main
from bundleforms.reporting import Report, timed_entry

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_validate_moebius_passes(capsys):
    code, out = run_cli(capsys, "validate", SPECS / "moebius.json",
                        "--samples", "200")
    assert code == 0
    assert "validate-bundle moebius" in out and "pass" in out


def test_operate_runs_declared_tasks(capsys):
    code, out = run_cli(capsys, "operate", SPECS / "moebius.json",
                        "--samples", "200")
    assert code == 0
    assert "line-class moebius" in out
    assert "det_class=1" in out
    assert "det_class=0" in out
    assert "is_zero=true" in out


def test_machine_format_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "operate", SPECS / "moebius.json",
                          "--samples", "150", "--format", "machine",
                          "--seed", "3")
    code2, out2 = run_cli(capsys, "operate", SPECS / "moebius.json",
                          "--samples", "150", "--format", "machine",
                          "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["exit_code"] == 0
    assert all(t["status"] == "pass" for t in doc["tasks"])


def test_failing_bundle_exit_code(tmp_path, capsys):
    raw = json.loads((SPECS / "moebius.json").read_text())
    # flip one transition sign: the cocycle check must fail
    raw["bundles"]["moebius"]["transitions"]["U2,U1"] = [["1"]]
    raw["tasks"] = [{"op": "validate-bundle", "bundle": "moebius"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "operate", bad, "--samples", "200")
    assert code == 1
    assert "fail" in out


def test_unknown_verdict_exit_code(tmp_path, capsys):
    raw = {
        "version": 1,
        "base": {"catalog": "point"},
        "charts": {"all": []},
        "bundles": {"e6": {"rank": 6, "charts": ["all"], "transitions": {}}},
        "forms": {"big": {"bundle": "e6",
                          "upper": {"all": ["1", "0", "0", "0", "0", "0",
                                            "1", "0", "0", "0", "0",
                                            "1", "0", "0", "0",
                                            "-1", "0", "0",
                                            "-1", "0",
                                            "-1"]}}},
        "tasks": [{"op": "witt-zero", "form": "big"}],
    }
    spec = tmp_path / "unknown.json"
    spec.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "operate", spec, "--samples", "64")
    assert code == 3
    assert "unknown" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["validate", str(bad)])
    assert code == 2


def test_error_status_entry(tmp_path, capsys):
    # a near-singular form makes signature raise; reported as error, exit 2
    raw = {
        "version": 1,
        "base": {"catalog": "line"},
        "charts": {"all": []},
        "bundles": {"e1": {"rank": 1, "charts": ["all"], "transitions": {}}},
        "forms": {"degenerate": {"bundle": "e1", "upper": {"all": ["0"]}}},
        "tasks": [{"op": "signature", "form": "degenerate"}],
    }
    spec = tmp_path / "degenerate.json"
    spec.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "operate", spec, "--samples", "100")
    assert code == 2
    assert "error" in out


def test_signature_subcommand(capsys):
    code, out = run_cli(capsys, "signature", SPECS / "moebius.json",
                        "--form", "hyperbolic1", "--samples", "150")
    assert code == 0
    assert "positive=1" in out and "negative=1" in out


def test_invariants_subcommand(capsys):
    code, out = run_cli(capsys, "invariants", SPECS / "moebius.json",
                        "--samples", "150")
    assert code == 0
    assert "det_class=1" in out


def test_homotopy_subcommand_cylinder(capsys):
    code, out = run_cli(capsys, "homotopy", SPECS / "moebius_cylinder.json",
                        "--bundle", "moebius_cyl", "--samples", "150")
    assert code == 0
    assert "homotopy-iso" in out


def test_homotopy_subcommand_on_circle_is_an_error_not_a_vacuous_pass(capsys):
    # the circle is neither a cylinder nor star-shaped: every bundle and
    # form gets a task, and each reports the catalog-base error
    code, out = run_cli(capsys, "homotopy", SPECS / "moebius.json",
                        "--format", "machine")
    assert code == 2
    tasks = json.loads(out)["tasks"]
    assert [t["name"] for t in tasks] == [
        "homotopy-iso moebius", "homotopy-iso eps1", "homotopy-iso eps2",
        "homotopy-isometry unit_moebius", "homotopy-isometry hyperbolic1"]
    assert all(t["status"] == "error" for t in tasks)
    assert all(t["message"].startswith("NotCatalogBase: ") for t in tasks)


def test_check_witness_tasks_from_the_spec(tmp_path, capsys):
    raw = json.loads((SPECS / "moebius.json").read_text())
    assert set(raw["sections"]) == {"one"}
    raw["tasks"] = [
        {"op": "check-witness", "witness": "id"},
        {"op": "check-witness", "witness": "id", "label": "id isometry",
         "source_form": "unit_moebius", "target_form": "unit_moebius"},
        {"op": "check-witness", "witness": "flip"},
    ]
    spec = tmp_path / "witnesses.json"
    spec.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "operate", spec, "--samples", "200",
                        "--format", "machine")
    assert code == 1
    ident, isometry, flip = json.loads(out)["tasks"]
    assert (ident["name"], ident["status"]) == ("check-witness id", "pass")
    assert ident["max_residual"] == 0.0
    assert (isometry["name"], isometry["status"]) == ("id isometry", "pass")
    assert isometry["max_residual"] == 0.0
    # eps1 -> moebius by 1: u g1 - g2 u = 1 - sign(x0) on the overlaps
    assert (flip["name"], flip["status"]) == ("check-witness flip", "fail")
    assert flip["max_residual"] == 2.0
    assert flip["witness_point"][0] < 0


def test_rings_subcommand(capsys):
    code, out = run_cli(capsys, "rings", SPECS / "moebius.json",
                        "--samples", "150")
    assert code == 0
    assert "roundtrip-k0 moebius" in out


def test_decompose_subcommand(capsys):
    code, out = run_cli(capsys, "decompose", SPECS / "moebius.json",
                        "--form", "hyperbolic1", "--samples", "150")
    assert code == 0
    assert "positive=1" in out and "negative=1" in out


def test_report_subcommand_runs_validations_and_tasks(capsys):
    code, out = run_cli(capsys, "report", SPECS / "moebius.json",
                        "--samples", "150")
    assert code == 0
    # implicit validations plus the declared tasks
    assert "validate-bundle eps2" in out
    assert "witt-zero hyperbolic1" in out


def test_deep_spec_entry_is_an_error_entry(tmp_path, capsys):
    # a 700-term sum overflows the recursive evaluator: an error entry with
    # exit code 2, not a traceback
    raw = json.loads((SPECS / "moebius.json").read_text())
    deep = " + ".join(["x0"] * 700)
    raw["forms"]["deep"] = {"bundle": "eps1", "upper": {"U1": [deep], "U2": [deep]}}
    raw["tasks"] = [{"op": "validate-form", "form": "deep"}]
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "operate", spec, "--samples", "100",
                        "--format", "machine")
    assert code == 2
    (task,) = json.loads(out)["tasks"]
    assert task["status"] == "error"
    assert task["message"].startswith("RecursionError: ")


@pytest.mark.parametrize("task", [
    {"op": "signature"},
    {"op": "line-class"},
    {"op": "check-witness"},
    {"op": "check-witness", "witness": "w", "source_form": "f"},
    {"op": "check-witness", "witness": "w", "source_form": "f",
     "target_form": "nowhere"},
    {"op": "signature", "form": ["f"]},
])
def test_task_missing_or_unknown_reference_is_a_spec_error(tmp_path, capsys, task):
    raw = json.loads((SPECS / "moebius.json").read_text())
    raw["forms"]["f"] = {"bundle": "eps1", "upper": {"U1": ["1"], "U2": ["1"]}}
    raw["witnesses"] = {"w": {"source": "eps1", "target": "eps1",
                              "fields": {"U1": [["1"]], "U2": [["1"]]}}}
    raw["tasks"] = [task]
    spec = tmp_path / "task.json"
    spec.write_text(json.dumps(raw))
    code = main(["operate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: task " + task["op"])
    assert captured.out == ""


@pytest.mark.parametrize("where,edit", [
    ("form unit_moebius", lambda raw: raw["forms"]["unit_moebius"].update(
        bundle=["moebius"])),
    ("witness w", lambda raw: raw.update(witnesses={"w": {
        "source": ["eps1"], "target": "eps1",
        "fields": {"U1": [["1"]], "U2": [["1"]]}}})),
    ("witness w", lambda raw: raw.update(witnesses={"w": {
        "source": "eps1", "target": {"name": "eps1"},
        "fields": {"U1": [["1"]], "U2": [["1"]]}}})),
    ("section s", lambda raw: raw.update(sections={"s": {
        "bundle": ["eps1"], "values": {"U1": ["1"], "U2": ["1"]}}})),
    ("bundle eps1", lambda raw: raw["bundles"]["eps1"].update(
        charts=[["U1"], "U2"])),
    ("unknown catalog base", lambda raw: raw.update(base={"catalog": ["circle"]})),
])
def test_unhashable_declaration_reference_is_a_spec_error(tmp_path, capsys,
                                                          where, edit):
    # a list or object where a name belongs is an error line, not a
    # TypeError traceback
    raw = json.loads((SPECS / "moebius.json").read_text())
    edit(raw)
    spec = tmp_path / "refs.json"
    spec.write_text(json.dumps(raw))
    code = main(["operate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: " + where)
    assert captured.out == ""


CUSTOM_BASE = {"dim": 2, "box": [[-1.3, 1.3], [-1.3, 1.3]],
               "conditions": [["x0^2 + x1^2 - 1", "=="]]}


@pytest.mark.parametrize("where,edit", [
    ("base", lambda raw: raw.update(base="circle")),
    ("charts", lambda raw: raw.update(charts=[1, 2])),
    ("bundle eps1", lambda raw: raw["bundles"].update(eps1=[1, "U1"])),
    ("bundle eps1", lambda raw: raw["bundles"]["eps1"].update(rank="one")),
    ("bundle eps1", lambda raw: raw["bundles"]["eps1"].update(transitions=[1])),
    ("bundle eps1", lambda raw: raw["bundles"]["eps1"].update(charts=5)),
    ("base", lambda raw: raw.update(base=dict(CUSTOM_BASE, box=5))),
    ("base", lambda raw: raw.update(base=dict(CUSTOM_BASE, dim="x"))),
    ("task validate-bundle", lambda raw: raw["tasks"][0].update(label=["x"])),
])
def test_wrongly_typed_declaration_is_a_spec_error(tmp_path, capsys, where, edit):
    # a value of the wrong JSON type is an error line at exit 2, not a
    # traceback at exit 1
    raw = json.loads((SPECS / "moebius.json").read_text())
    edit(raw)
    spec = tmp_path / "types.json"
    spec.write_text(json.dumps(raw))
    code = main(["validate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {where}: "), captured.err
    assert captured.out == ""


def test_timed_entry_records_linalg_error_and_passes_others():
    report = Report(seed=0)
    with timed_entry(report, "singular"):
        np.linalg.inv(np.zeros((2, 2)))
    (entry,) = report.entries
    assert entry.status == "error"
    assert entry.message == "LinAlgError: Singular matrix"
    assert report.exit_code() == 2
    with pytest.raises(KeyboardInterrupt):
        with timed_entry(report, "interrupted"):
            raise KeyboardInterrupt
    assert len(report.entries) == 1
