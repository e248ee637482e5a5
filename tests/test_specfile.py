"""Spec-file parsing, resolution errors, and round-trip serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import exprparse
from bundleforms.bundles import gauss_embedding, s1_line_class, validate_cocycle
from bundleforms.errors import (
    BundleformsError,
    DimensionMismatch,
    SpecParseError,
    UnresolvedReference,
)
from bundleforms.exprparse import parse_expression
from bundleforms.semialg import SamplePlan
from bundleforms.cli import main
from bundleforms.specfile import parse_spec

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def load(name):
    return (SPECS / name).read_text()


def test_moebius_fixture_resolves():
    doc = parse_spec(load("moebius.json"))
    assert set(doc.bundles) == {"moebius", "eps1", "eps2"}
    assert doc.bundles["moebius"].cover.n_charts == 2
    assert doc.bundles["moebius"].rank == 1
    assert set(doc.forms) == {"unit_moebius", "hyperbolic1"}
    assert len(doc.tasks) == 7
    assert doc.base.circle


def test_moebius_fixture_sections_and_witnesses():
    doc = parse_spec(load("moebius.json"))
    (section,) = doc.sections.values()
    assert section.bundle is doc.bundles["eps1"]
    assert section.check(SamplePlan(seed=0, n_chart=100, n_overlap=64,
                                    n_triple=48)).passed
    assert set(doc.witnesses) == {"id", "flip"}
    flip = doc.witnesses["flip"]
    assert flip.source is doc.bundles["eps1"]
    assert flip.target.transitions == doc.bundles["moebius"].transitions



def test_section_and_projector_checks_report_their_mean_residual():
    doc = parse_spec(load("moebius.json"))
    (section,) = doc.sections.values()
    plan = SamplePlan(seed=0, n_chart=100, n_overlap=64, n_triple=48)
    projector = gauss_embedding(doc.bundles["moebius"], plan=plan)
    for report in (section.check(plan), projector.check(plan)):
        assert type(report.mean_residual) is float
        assert 0.0 <= report.mean_residual <= report.max_residual

def test_one_object_and_one_cover_per_declaration():
    # a witness joining two bundles neither copies nor replaces either
    doc = parse_spec(load("moebius.json"))
    m = doc.bundles["moebius"]
    assert m is doc.forms["unit_moebius"].bundle is doc.witnesses["flip"].target
    assert m is doc.witnesses["id"].source
    assert doc.bundles["eps1"].cover is doc.bundles["eps2"].cover is m.cover


def test_declared_transition_completes_the_table_when_parsed():
    raw = json.loads(load("moebius.json"))
    del raw["bundles"]["moebius"]["transitions"]["U2,U1"]
    doc = parse_spec(json.dumps(raw))
    bundle = doc.bundles["moebius"]
    table = dict(bundle.transitions)
    assert set(table) == {(0, 1), (1, 0)}
    report = validate_cocycle(bundle, SamplePlan(seed=0, n_chart=100,
                                                 n_overlap=64, n_triple=48))
    assert bundle.transitions == table
    assert all(bundle.transitions[k] is table[k] for k in table)
    assert report.passed and report.max_residual == 0.0
    assert s1_line_class(bundle) == 1


@pytest.mark.parametrize("text,oracle", [
    ("sqrt(x0 + 1)", lambda x0, x1: np.sqrt(x0 + 1)),
    ("abs(x1 - 0.5)", lambda x0, x1: np.abs(x1 - 0.5)),
    ("clamp(x1)", lambda x0, x1: np.maximum(x1, 0.0)),
    ("min(x0, x1)", np.minimum),
    ("max(x0, 2 * x1)", lambda x0, x1: np.maximum(x0, 2 * x1)),
    ("(x0 - x1) * (x0 + x1)", lambda x0, x1: (x0 - x1) * (x0 + x1)),
    ("x0**3 - x1^2", lambda x0, x1: x0**3 - x1**2),
])
def test_parsed_functions_match_numpy(text, oracle):
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.0, 2.0, 50), rng.uniform(-2.0, 2.0, 50)])
    values = ex.evaluate(parse_expression(text, 2), pts)
    np.testing.assert_allclose(values, oracle(pts[:, 0], pts[:, 1]),
                               rtol=1e-14, atol=0.0)


def test_round_trip_serialization():
    doc = parse_spec(load("moebius.json"))
    text = doc.to_json()
    again = parse_spec(text)
    assert again.to_json() == text
    assert again.raw == doc.raw


def test_misspelled_chart_reference():
    raw = json.loads(load("moebius.json"))
    raw["bundles"]["moebius"]["transitions"]["U1,Uoops"] = [["1"]]
    with pytest.raises(UnresolvedReference):
        parse_spec(json.dumps(raw))


def test_bad_expression_reports_column():
    raw = json.loads(load("moebius.json"))
    raw["charts"]["U1"] = [["x0 ++ 1", ">"]]
    with pytest.raises(SpecParseError) as err:
        parse_spec(json.dumps(raw))
    assert err.value.column is not None


def test_a_bad_matrix_entry_names_its_row_column_and_text_column():
    raw = json.loads(load("moebius.json"))
    raw["bundles"]["moebius"]["transitions"]["U1,U2"] = [["x0 + y"]]
    with pytest.raises(SpecParseError) as err:
        parse_spec(json.dumps(raw))
    assert str(err.value) == ("bundle moebius transition U1,U2 row 0 column 0, "
                              "text column 6: unknown identifier 'y'")
    assert err.value.column == 6


def test_dimension_mismatch_in_transition():
    raw = json.loads(load("moebius.json"))
    raw["bundles"]["moebius"]["transitions"]["U1,U2"] = [["1", "0"]]
    with pytest.raises(DimensionMismatch):
        parse_spec(json.dumps(raw))


def test_unknown_task_op():
    raw = json.loads(load("moebius.json"))
    raw["tasks"] = [{"op": "frobnicate"}]
    with pytest.raises(SpecParseError):
        parse_spec(json.dumps(raw))


def test_list_task_op_is_a_parse_error():
    raw = json.loads(load("moebius.json"))
    raw["tasks"] = [{"op": ["signature"]}]
    with pytest.raises(SpecParseError):
        parse_spec(json.dumps(raw))


def test_unknown_variable_rejected():
    raw = json.loads(load("moebius.json"))
    raw["charts"]["U1"] = [["x7 - 1", ">"]]
    with pytest.raises(SpecParseError):
        parse_spec(json.dumps(raw))


def test_t_variable_on_cylinder_only():
    raw = json.loads(load("moebius.json"))
    raw["charts"]["U1"] = [["t - 1", ">"]]
    with pytest.raises(SpecParseError):
        parse_spec(json.dumps(raw))
    cyl = json.loads(load("moebius_cylinder.json"))
    doc = parse_spec(json.dumps(cyl))   # uses t in a form: fine
    assert doc.base.t_index == 2


def test_custom_base_declaration():
    raw = {
        "version": 1,
        "base": {"name": "halfline", "dim": 1, "box": [[0.0, 3.0]],
                 "conditions": [["x0", ">="]], "star_center": [1.0]},
        "charts": {"all": []},
        "bundles": {"e1": {"rank": 1, "charts": ["all"], "transitions": {}}},
        "tasks": [{"op": "validate-bundle", "bundle": "e1"}],
    }
    doc = parse_spec(json.dumps(raw))
    assert doc.base.dim == 1 and doc.base.star_center == (1.0,)


WRONG_TYPES = ([1], 7, "x", {"k": 1}, None)


def declaration_paths(node, path=()):
    """Every key path into a spec document, top-level keys included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from declaration_paths(child, path + (key,))


@pytest.mark.parametrize("name", sorted(p.name for p in SPECS.glob("*.json")))
def test_wrongly_typed_values_parse_or_raise_library_errors(name):
    # replacing any declaration value by a list, number, string, object or
    # null either parses or raises a library error, never a TypeError
    raw = json.loads(load(name))
    for path in declaration_paths(raw):
        for value in WRONG_TYPES:
            doc = json.loads(load(name))
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                parse_spec(json.dumps(doc))
            except BundleformsError:
                pass


def test_less_than_conditions_flip_to_greater_than():
    raw = json.loads(load("moebius.json"))
    written = parse_spec(json.dumps(raw)).charts["U1"]          # 1/2 - x1 > 0
    raw["charts"]["U1"] = [["x1 - 1/2", "<"]]
    flipped = parse_spec(json.dumps(raw)).charts["U1"]
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.uniform(-1.3, 1.3, (200, 2)), [[0.0, 0.5]]])
    np.testing.assert_array_equal(flipped.membership(pts), written.membership(pts))
    # a base condition may be non-strict on either side
    base = {"name": "ray", "dim": 1, "box": [[-3.0, 3.0]],
            "conditions": [["x0 - 1", "<="]], "star_center": [0.0]}
    doc = parse_spec(json.dumps({
        "version": 1, "base": base, "charts": {"all": []},
        "bundles": {"e1": {"rank": 1, "charts": ["all"], "transitions": {}}},
        "tasks": []}))
    np.testing.assert_array_equal(
        doc.base.sset.membership(np.array([[0.0], [1.0], [2.0]])),
        [True, True, False])


def test_non_strict_chart_is_an_error_line(tmp_path, capsys):
    raw = json.loads(load("moebius.json"))
    raw["charts"]["U1"] = [["1/2 - x1", ">="]]
    spec = tmp_path / "closed_chart.json"
    spec.write_text(json.dumps(raw))
    code = main(["validate", str(spec), "--samples", "64"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: chart U1: charts need strict conditions\n"


# each parser entry and the numpy function its class must evaluate as
NODE_ORACLES = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "sqrt": np.sqrt, "abs": np.abs, "clamp": lambda v: np.maximum(v, 0.0),
    "min": np.minimum, "max": np.maximum,
}


_X0, _X1 = ex.Var(0), ex.Var(1)
# one expression per node kind the printer writes, and nested mixes
ROUND_TRIPS = {
    "const zero": ex.Const(0.0),
    "const": ex.Const(2.5),
    "var": _X1,
    "add": ex.Add(_X0, _X1),
    "sub": ex.Sub(_X0, ex.Const(0.75)),
    "mul": ex.Mul(ex.Const(3.0), _X1),
    "div": ex.Div(_X0, _X1),
    "pow": ex.Pow(ex.Add(_X0, _X1), 3),
    "sqrt": ex.Sqrt(_X0),
    "abs": ex.Abs(_X1),
    "clamp": ex.Clamp(ex.Sub(_X0, ex.Const(0.5))),
    "min": ex.Min(_X0, _X1),
    "max": ex.Max(_X1, ex.Const(1.0)),
    "nested": ex.Div(ex.Sqrt(ex.Add(ex.Pow(_X0, 2), ex.Const(1.0))),
                     ex.Max(ex.Abs(_X1), ex.Pow(ex.Clamp(ex.Sub(_X0, _X1)), 2))),
    "nested min": ex.Mul(ex.Min(ex.Sub(ex.Const(0.0), _X0), ex.Pow(_X1, 4)),
                         ex.Sub(ex.Add(_X0, ex.Abs(ex.Div(_X1, ex.Const(2.0)))),
                                ex.Sqrt(ex.Max(_X0, _X1)))),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_printed_expression_parses_to_the_same_node(name):
    node = ROUND_TRIPS[name]
    assert parse_expression(repr(node), 2) is node


@pytest.mark.parametrize("name", sorted(NODE_ORACLES))
def test_parser_table_entry_builds_its_class(name):
    node = exprparse._NODES[name]
    args = ("x0", "x1")[:node.arity]
    text = (f"x0 {name} x1" if not name.isalpha()
            else f"{name}({', '.join(args)})")
    parsed = parse_expression(text, 2)
    assert type(parsed) is node
    rng = np.random.default_rng(1)
    # x0 > 0 keeps sqrt in its domain, |x1| >= 0.1 keeps / off its guard
    pts = np.column_stack([rng.uniform(0.1, 2.0, 64),
                           rng.choice([-1.0, 1.0], 64) * rng.uniform(0.1, 2.0, 64)])
    want = NODE_ORACLES[name](*(pts[:, i] for i in range(node.arity)))
    np.testing.assert_array_equal(ex.evaluate(parsed, pts), want)


def test_parser_table_is_the_node_vocabulary():
    assert set(exprparse._NODES) == set(NODE_ORACLES)
