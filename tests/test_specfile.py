"""Spec-file parsing, resolution errors, and round-trip serialization."""

import json
from pathlib import Path

import pytest

from bundleforms.errors import (
    BundleformsError,
    DimensionMismatch,
    SpecParseError,
    UnresolvedReference,
)
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
    assert doc.base.circle is not None


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
