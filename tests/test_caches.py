"""The construction caches: Gauss embeddings per bundle, candidate clouds
per base, and one evaluation context per membership call.

Each cached value is a pure function of its key, so a hit must return what
a fresh computation would; these tests pin what is built how often, that
a cache never outlives its owner, and that shared evaluation keeps every
per-point verdict.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bundleforms import bundles as bu
from bundleforms import cli, specfile
from bundleforms import expr as ex
from bundleforms import semialg
from bundleforms.bundles import CheckReport, ProjectorField, gauss_embedding
from bundleforms.catalog import circle_base, circle_two_arc_cover, moebius
from bundleforms.errors import RankDrop
from bundleforms.semialg import GT, Condition, SamplePlan, SemialgebraicSet, sample

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"
PLAN = SamplePlan(seed=0, n_chart=120, n_overlap=80, n_triple=60)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its calls' args."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# --- Gauss embeddings, per (bundle, r, plan) ---------------------------------

def test_gauss_embedding_is_built_once_per_r_and_plan(monkeypatch):
    pou_calls = counting(monkeypatch, bu, "partition_of_unity")
    m = moebius()
    first = gauss_embedding(m, plan=PLAN)
    assert gauss_embedding(m, 1, plan=PLAN) is first
    assert len(pou_calls) == 1
    other_r = gauss_embedding(m, 2, plan=PLAN)
    other_plan = gauss_embedding(m, plan=SamplePlan(seed=1, n_chart=120,
                                                    n_overlap=80, n_triple=60))
    assert len({id(first), id(other_r), id(other_plan)}) == 3
    assert len(pou_calls) == 3
    # another bundle object builds its own, with its own cover
    assert gauss_embedding(moebius(), plan=PLAN) is not first
    assert len(pou_calls) == 4


def test_failed_certification_is_not_cached(monkeypatch):
    pou_calls = counting(monkeypatch, bu, "partition_of_unity")
    m = moebius()
    with monkeypatch.context() as patched:
        patched.setattr(ProjectorField, "check", lambda self, plan:
                        CheckReport("projector", False, 1.0, witness=(1.0, 0.0)))
        with pytest.raises(RankDrop):
            gauss_embedding(m, plan=PLAN)
    assert m.embeddings == {}
    proj = gauss_embedding(m, plan=PLAN)      # certified this time, and kept
    assert m.embeddings == {(1, PLAN): proj}
    assert len(pou_calls) == 2


# --- candidate clouds, per base ----------------------------------------------

def test_each_cloud_is_projected_once_per_base(monkeypatch):
    projections = counting(monkeypatch, semialg, "_project_to_variety")
    base = circle_base()
    cover = circle_two_arc_cover(base)
    plan = SamplePlan(seed=0, n_chart=100, n_overlap=100, n_triple=100)
    pts = base.sample_points(plan)
    assert len(projections) == 1
    # the same (box, count, seed, equations) from any region of the base
    assert base.sample_points(plan).tobytes() == pts.tobytes()
    cover.samples((0,), plan)
    cover.samples((0, 1), plan)
    assert len(projections) == 1
    base.sample_points(SamplePlan(seed=1, n_chart=100))
    assert len(projections) == 2
    keys = {(args[0].tobytes(), tuple(map(repr, args[1]))) for args in projections}
    assert len(keys) == len(projections)


def test_memoised_sampling_matches_a_fresh_draw():
    base = circle_base()
    cover = circle_two_arc_cover(base)
    region = base.sset.intersect(cover.charts[0]).intersect(cover.charts[1])
    for plan in (PLAN, SamplePlan(seed=3, n_chart=40)):
        for count in (None, 16, 300):
            want, want_warn = sample(region, plan, base.box, count)
            for _ in range(2):     # the first call fills the memo, the second reads it
                got, warn = base.sample_region(region, plan, count)
                assert (got.tobytes(), warn) == (want.tobytes(), want_warn)
    assert base.clouds and all(not a.flags.writeable for a in base.clouds.values())


def test_fresh_bases_share_no_clouds(monkeypatch):
    projections = counting(monkeypatch, semialg, "_project_to_variety")
    a, b = circle_base(), circle_base()
    assert a.clouds is not b.clouds
    a.sample_points(PLAN)
    b.sample_points(PLAN)
    assert len(projections) == 2
    assert not set(map(id, a.clouds.values())) & set(map(id, b.clouds.values()))


def test_document_base_is_freed_by_reference_counting():
    # a cached object never points back at its owner, so a finished
    # document (bundles, their embeddings, the base and its clouds) is
    # freed without the cycle collector
    path = SPECS / "moebius.json"
    gc.collect()
    gc.disable()
    try:
        doc = specfile.parse_spec(path.read_text(encoding="utf-8"))
        args = cli.build_parser().parse_args(["report", str(path), "--samples", "64"])
        report = cli.run_tasks(doc, cli._SUBCOMMANDS["report"](doc, args),
                               cli._plan(args))
        assert report.exit_code() == 0
        assert any(b.embeddings for b in doc.bundles.values())
        assert doc.base.clouds
        base = weakref.ref(doc.base)
        del doc
        assert base() is None
    finally:
        gc.enable()


# --- one context per membership call -----------------------------------------

def _guarded_set():
    """Two conditions sharing the guarded quotient q = 1/x0 (violated at
    x0 = 0): {q - 1/2 > 0 and 2 - q > 0}, or else {x1 - q > 0}."""
    q = ex.Div(ex.Const(1.0), ex.Var(0))
    first = [Condition(ex.Sub(q, ex.Const(0.5)), GT),
             Condition(ex.Sub(ex.Const(2.0), q), GT)]
    second = [Condition(ex.Sub(ex.Var(1), q), GT)]
    return q, SemialgebraicSet(2, [first, second])


def _one_point_at_a_time(sset, points, margin):
    out = []
    for p in points:
        verdicts = []
        for piece in sset.pieces:
            ok = True
            for cond in piece:
                try:
                    ok &= bool(ex.evaluate_at(cond.expression, p) > margin)
                except ex.GuardViolation:
                    ok = False
            verdicts.append(ok)
        out.append(any(verdicts))
    return np.array(out)


def test_shared_context_membership_matches_pointwise_evaluation():
    q, sset = _guarded_set()
    xs, ys = np.meshgrid(np.linspace(-2.0, 2.0, 17), np.linspace(-1.0, 3.0, 9))
    points = np.column_stack([xs.ravel(), ys.ravel()])
    with pytest.raises(ex.GuardViolation):       # so the NaN bisection runs
        ex.evaluate(q, points)
    for margin in (0.0, 0.25):
        got = sset.membership(points, margin=margin)
        want = _one_point_at_a_time(sset, points, margin)
        assert got.tolist() == want.tolist()
    assert 0 < got.sum() < len(points)


def test_membership_computes_a_shared_matrix_group_once(monkeypatch):
    inv = ex.MatrixGroup(ex.INV, [[ex.Add(ex.Const(1.0), ex.Mul(ex.Var(0), ex.Var(0)))]])
    entry = ex.MatEntry(inv, 0, 0)
    sset = SemialgebraicSet(1, [[Condition(entry, GT),
                                 Condition(ex.Sub(ex.Const(0.5), entry), GT)]])
    computed = []
    compute = ex.MatrixGroup.compute

    def counted(group, ctx):
        if id(group) not in ctx.group_cache:
            computed.append(group)
        return compute(group, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "compute", counted)
    got = sset.membership(np.linspace(-3.0, 3.0, 13).reshape(-1, 1))
    assert computed == [inv]
    # 1 / (1 + x^2) < 1/2 exactly where |x| > 1
    assert got.tolist() == (np.abs(np.linspace(-3.0, 3.0, 13)) > 1.0).tolist()
