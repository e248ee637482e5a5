"""The census of defaulted parameters that only tests set."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"

# Each defaulted parameter that no call in src/, demos/, perfbench/ or
# tools/ sets, with the reason it stays a parameter.
ALLOWED_UNSET = {
    "forms.blend_positive_subbundle(overlap_pts)":
        "an opt-in certificate check of the blend's graph norm",
}


def _census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unset_defaults_are_the_allowlist():
    assert sorted(_census().unset_defaults()) == sorted(ALLOWED_UNSET)


def test_a_stated_receiver_reaches_its_own_class_method_alone():
    census = _census()
    _, by_name, classes = census._package_functions()
    tree = ast.parse("pair = fo.decompose(form, plan)\n"
                     "pair.check(plan, tol)\n"
                     "other.check(plan, tol)\n")
    scope = census._Scope(by_name, classes, {"fo": "forms"}, tree, None)
    stated, unstated = (stmt.value.func for stmt in tree.body[1:])
    assert [fn.label for fn in scope.targets(stated)] == ["forms.FiberProjectorPair.check"]
    assert scope.targets(unstated) is None


def test_unresolved_calls_of_an_ambiguous_name_are_listed():
    unresolved = _census()._census_calls()[1]
    # `gauss_embedding` checks the field its builder returned, whose class
    # no assignment states
    assert any(label.startswith("src/bundleforms/bundles.py:")
               and label.endswith(" field.check") for label in unresolved)
