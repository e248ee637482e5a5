"""Command dispatch, report rendering, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from bundleforms.cli import main
from bundleforms.forms import FiberProjectorPair, decompose
from bundleforms.reporting import Report, timed_entry
from bundleforms.semialg import SamplePlan
from bundleforms.specfile import parse_spec

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


def test_error_entry_carries_the_violating_point(tmp_path, capsys):
    # sqrt(x0) is evaluated on chart U1 of the circle, which holds x0 < 0
    raw = json.loads((SPECS / "moebius.json").read_text())
    raw["forms"] = {"bad": {"bundle": "eps1",
                            "upper": {"U1": ["sqrt(x0)"], "U2": ["1"]}}}
    raw["tasks"] = [{"op": "validate-form", "form": "bad"}]
    spec = tmp_path / "sqrt.json"
    spec.write_text(json.dumps(raw))
    code, out = run_cli(capsys, "operate", spec, "--samples", "200",
                        "--format", "machine")
    assert code == 2
    (entry,) = json.loads(out)["tasks"]
    assert entry["status"] == "error"
    assert entry["message"].startswith("GuardViolation: sqrt argument")
    point = np.array(entry["witness_point"])
    assert point[0] < 0
    plan = SamplePlan(seed=0, n_chart=200, n_overlap=100, n_triple=66)
    samples = parse_spec(spec.read_text()).bundles["eps1"].cover.samples(
        (0,), plan)
    assert np.abs(samples - point).max(axis=1).min() < 1e-11


def test_decompose_with_failed_restricted_definiteness_fails(monkeypatch,
                                                             capsys):
    # the split of hyperbolic1 has both parts; neither stays definite
    monkeypatch.setattr(FiberProjectorPair, "restricted_definiteness",
                        lambda self, plan: (-1.0, 1.0))
    code, out = run_cli(capsys, "decompose", SPECS / "moebius.json",
                        "--form", "hyperbolic1", "--samples", "150",
                        "--format", "machine")
    assert code == 1
    (entry,) = json.loads(out)["tasks"]
    assert entry["status"] == "fail"


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


@pytest.mark.parametrize("spec", ["moebius.json", "moebius_cylinder.json"])
def test_every_decompose_entry_reports_its_mean_residual(capsys, spec):
    # the projector pair's check computes the mean; the entry used to drop it
    code, out = run_cli(capsys, "decompose", SPECS / spec, "--samples", "150",
                        "--format", "machine")
    tasks = [t for t in json.loads(out)["tasks"] if t["name"].startswith("decompose ")]
    assert code == 0 and tasks
    for task in tasks:
        assert isinstance(task["mean_residual"], float)
        assert task["mean_residual"] <= task["max_residual"]


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


def _with_base(base):
    return lambda raw: raw.update(base=base)


@pytest.mark.parametrize("where,edit", [
    ("bundle moebius", lambda raw: raw["bundles"]["moebius"].update(
        transition=raw["bundles"]["moebius"].pop("transitions"))),
    ("base", _with_base(dict(CUSTOM_BASE, connected="false"))),
    ("base", _with_base(dict(CUSTOM_BASE, circle="no"))),
    ("base", _with_base(dict(CUSTOM_BASE, name=3))),
    ("base", _with_base(dict(CUSTOM_BASE, center=[0, 0]))),
    ("base", _with_base({"catalog": "circle",
                         "conditions": [["x0", ">"]]})),
    ("form unit_moebius", lambda raw: raw["forms"]["unit_moebius"].update(
        lower={"U1": ["1"], "U2": ["1"]})),
    ("section one", lambda raw: raw["sections"]["one"].update(chart="U1")),
    ("witness id", lambda raw: raw["witnesses"]["id"].update(tol=1e-6)),
    ("task line-class", lambda raw: raw["tasks"].append(
        {"op": "line-class", "bundle": "moebius", "section": "one"})),
    ("task validate-bundle", lambda raw: raw["tasks"].append(
        {"op": "validate-bundle", "bundle": "moebius",
         "source_form": "unit_moebius", "target_form": "unit_moebius"})),
])
def test_key_the_format_does_not_define_is_a_spec_error(tmp_path, capsys,
                                                        where, edit):
    # never ignored or read loosely: a renamed "transitions" made Moebius
    # trivial, and "false" was a true "connected"
    raw = json.loads((SPECS / "moebius.json").read_text())
    edit(raw)
    spec = tmp_path / "keys.json"
    spec.write_text(json.dumps(raw))
    code = main(["operate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {where}: "), captured.err
    assert captured.out == ""


def test_diagonal_transition_is_a_spec_error(tmp_path, capsys):
    # g_ii is the identity by definition: a declared one is not ignored
    raw = json.loads((SPECS / "moebius.json").read_text())
    raw["bundles"]["moebius"]["transitions"]["U1,U1"] = [["2"]]
    spec = tmp_path / "diagonal.json"
    spec.write_text(json.dumps(raw))
    code = main(["validate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: bundle moebius: transition (0,0)")
    assert captured.out == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_a_usage_error(capsys, samples):
    # zero points would certify every identity vacuously
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(SPECS / "moebius.json"), "--samples", samples,
              "--format", "machine"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--samples: must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("old,new,where", [
    ('"rank": 1', '"rank": 1e400', "bundle eps1: rank"),
    ('"rank": 1', '"rank": 1.5', "bundle eps1: rank"),
    ('{"catalog": "circle"}', '{"dim": 1e400, "box": [[-1, 1]]}', "base: dim"),
])
def test_non_integral_rank_or_dim_is_a_spec_error(tmp_path, capsys, old, new,
                                                  where):
    # neither truncated to an integer nor an OverflowError traceback
    raw = json.loads((SPECS / "moebius.json").read_text())
    del raw["bundles"]["moebius"]
    raw.update(forms={}, witnesses={}, tasks=[])
    text = json.dumps(raw).replace(old, new, 1)
    assert new in text
    spec = tmp_path / "numbers.json"
    spec.write_text(text)
    code = main(["validate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {where} must be an integer"), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rank,transitions,message", [
    (0, {}, "rank must be at least 1, got 0"),
    (0, {"U1,U2": []}, "rank must be at least 1, got 0"),
    (-1, {}, "rank must be at least 1, got -1"),
    (None, {}, "missing rank"),
])
def test_rank_below_one_is_a_spec_error(tmp_path, capsys, rank, transitions,
                                        message):
    # an error line at exit 2, not an IndexError traceback in the matrix
    # helpers, and an explicit -1 is not reported as missing
    raw = json.loads((SPECS / "moebius.json").read_text())
    raw["bundles"]["small"] = {"rank": rank, "charts": ["U1", "U2"],
                               "transitions": transitions}
    if rank is None:
        del raw["bundles"]["small"]["rank"]
    spec = tmp_path / "rank.json"
    spec.write_text(json.dumps(raw))
    code = main(["validate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: bundle small: {message}"), captured.err
    assert captured.out == ""


def test_non_utf8_spec_is_an_error_line(tmp_path, capsys):
    spec = tmp_path / "latin1.json"
    spec.write_bytes('{"version": 1, "base": {"catalog": "line"}, "x": "\xe9"}'
                     .encode("latin-1"))
    code = main(["validate", str(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: 'utf-8' codec can't decode")
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


def tilted_spec(tmp_path):
    """moebius.json with one more form on the trivial rank-2 bundle: the
    constant indefinite [[2, 1], [1, -3]], whose sign projectors have
    irrational entries, so their residual is a rounding error above 1e-17
    under the closed form and under LAPACK alike (hyperbolic1's is 0)."""
    raw = json.loads((SPECS / "moebius.json").read_text())
    tilted = ["2", "1", "-3"]
    raw["forms"]["tilted"] = {"bundle": "eps2",
                              "upper": {"U1": tilted, "U2": tilted}}
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(raw))
    return path


def test_decompose_certifies_at_the_identity_tolerance(tmp_path, capsys):
    # tilted's projector pair has a residual of rounding size: above
    # --tol 1e-17, so its decomposition fails, where a fixed 1e-8 passed it
    code, out = run_cli(capsys, "decompose", tilted_spec(tmp_path),
                        "--tol", "1e-17", "--format", "machine")
    tasks = {t["name"]: t for t in json.loads(out)["tasks"]}
    assert code == 1
    tilted = tasks["decompose tilted"]
    assert tilted["status"] == "fail" and 1e-17 < tilted["max_residual"] < 1e-15
    assert tasks["decompose unit_moebius"]["status"] == "pass"


def test_failed_decompose_names_the_check_witness(tmp_path, capsys):
    # the failing tilted task reports the point where the projector pair's
    # residual peaks; the passing task names no point
    spec = tilted_spec(tmp_path)
    code, out = run_cli(capsys, "decompose", spec, "--tol", "1e-17",
                        "--samples", "150", "--format", "machine")
    tasks = {t["name"]: t for t in json.loads(out)["tasks"]}
    assert code == 1 and tasks["decompose unit_moebius"]["witness_point"] is None
    tilted = tasks["decompose tilted"]
    assert tilted["status"] == "fail" and tilted["witness_point"] is not None
    plan = SamplePlan(seed=0, n_chart=150, n_overlap=75, n_triple=50)
    form = parse_spec(spec.read_text()).forms["tilted"]
    check = decompose(form, plan).check(plan, 1e-17)
    assert not check.passed
    assert np.abs(np.array(tilted["witness_point"]) - check.witness).max() < 1e-11
