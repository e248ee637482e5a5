"""The census of defaulted parameters that only tests set."""

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
