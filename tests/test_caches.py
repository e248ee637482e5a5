"""The construction caches: certified results per bundle or form (Gauss
embeddings, homotopy witnesses, definite splits, line classes), candidate
clouds and their kernel memos per base, one evaluation context per membership
call, one kernel memo per sampled point set of a base, which every
cover region sampling that set reads, the condition values a sampling
batch holds per cloud, and the intern table that makes structurally
equal expression nodes one object.

Each cached value is a pure function of its key, so a hit must return what
a fresh computation would; these tests pin what is built how often, that
a cache never outlives its owner, and that shared evaluation keeps every
per-point verdict.
"""

import gc
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from bundleforms import bundles as bu
from bundleforms import cli, homotopy, rings, specfile
from bundleforms import expr as ex
from bundleforms import semialg, unity
from bundleforms.bundles import (CheckReport, ProjectorField, bundle_from_projector,
                                 gauss_embedding)
from bundleforms.catalog import circle_base, circle_two_arc_cover, moebius
from bundleforms.errors import (CoverageFailure, DimensionMismatch, GuardViolation,
                                NearSingular, NotPolynomial, RankDrop)
from bundleforms.forms import FormField, decompose
from bundleforms.homotopy import _adaptive_t_ladder, induced_iso_from_homotopy
from bundleforms.matexpr import em_eval, em_path_product, em_subst
from bundleforms.semialg import (GT, Condition, Polynomial, SamplePlan, SemialgebraicSet,
                                 memberships, sample)
from bundleforms.unity import shrink_cover

from helpers import antipodal_path, counting

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"
PLAN = SamplePlan(seed=0, n_chart=120, n_overlap=80, n_triple=60)


# --- Gauss embeddings, per (bundle, plan) ------------------------------------

def test_gauss_embedding_is_built_once_per_plan(monkeypatch):
    pou_calls = counting(monkeypatch, bu, "partition_of_unity")
    m = moebius()
    first = gauss_embedding(m, plan=PLAN)
    assert gauss_embedding(m, plan=PLAN) is first
    assert len(pou_calls) == 1
    other_plan = gauss_embedding(m, plan=SamplePlan(seed=1, n_chart=120,
                                                    n_overlap=80, n_triple=60))
    assert other_plan is not first
    assert len(pou_calls) == 2
    # another bundle object builds its own, with its own cover
    assert gauss_embedding(moebius(), plan=PLAN) is not first
    assert len(pou_calls) == 3


def test_failed_certification_is_not_cached(monkeypatch):
    pou_calls = counting(monkeypatch, bu, "partition_of_unity")
    m = moebius()
    with monkeypatch.context() as patched:
        patched.setattr(ProjectorField, "check", lambda self, plan:
                        CheckReport("projector", False, 1.0, witness=(1.0, 0.0)))
        with pytest.raises(RankDrop):
            gauss_embedding(m, plan=PLAN)
    assert m.certified == {}
    proj = gauss_embedding(m, plan=PLAN)      # certified this time, and kept
    assert m.certified == {("gauss embedding", PLAN): proj}
    assert len(pou_calls) == 2


def test_a_sum_embeds_from_its_summands_kept_embeddings(monkeypatch):
    # the summands' embeddings are built once and kept; the sum reads them,
    # shrinks no cover and samples nothing but the base's own samples (its
    # weights' denominator and the projector certificate)
    m = moebius()
    t = bu.trivial_bundle(circle_two_arc_cover(m.base), 1)
    kept = [gauss_embedding(b, plan=PLAN) for b in (m, t)]
    total = bu.whitney_sum(m, t)
    assert total.cover.n_charts == 4
    pou_calls = counting(monkeypatch, bu, "partition_of_unity")
    shrinks = counting(monkeypatch, unity, "shrink_cover")
    batches = counting(monkeypatch, semialg.Base, "region_memos")
    proj = gauss_embedding(total, plan=PLAN)
    assert pou_calls == [] and shrinks == []
    assert batches and all(region is m.base.sset
                           for _, regions, _, _ in batches for region in regions)
    assert [b.certified[("gauss embedding", PLAN)] for b in (m, t)] == kept
    assert total.certified == {("gauss embedding", PLAN): proj}


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
        for count in (plan.n_chart, 16, 300):
            want, want_warn = sample(region, plan, base.box, count)
            for _ in range(2):     # the first call fills the memo, the second reads it
                got = base.region_memo(region, plan, count)
                assert (got.points.tobytes(), not len(got)) == (want.tobytes(), want_warn)
    assert base.clouds and all(not m.points.flags.writeable
                               for m in base.clouds.values())


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
    # document (bundles and forms, what they certified, the base and its
    # clouds) is freed without the cycle collector, after each task list
    # that fills a cache: embeddings and line classes (report), definite
    # splits (rings) and homotopy witnesses (operate)
    runs = [("moebius.json", "report", "line class"),
            ("moebius.json", "rings", "definite parts"),
            ("moebius_cylinder.json", "operate", "homotopy witness")]
    gc.collect()
    gc.disable()
    try:
        for name, sub, kind in runs:
            path = SPECS / name
            doc = specfile.parse_spec(path.read_text(encoding="utf-8"))
            args = cli.build_parser().parse_args([sub, str(path), "--samples", "64"])
            report = cli.run_tasks(doc, cli._SUBCOMMANDS[sub](doc, args),
                                   cli._plan(args))
            assert report.exit_code() == 0
            owners = [*doc.bundles.values(), *doc.forms.values()]
            kinds = {key if isinstance(key, str) else key[0]
                     for owner in owners for key in owner.certified}
            assert kind in kinds and "gauss embedding" in kinds
            assert doc.base.clouds
            base = weakref.ref(doc.base)
            del doc, owners
            assert base() is None, (name, sub)
    finally:
        gc.enable()


# --- certified results, per owner and key ------------------------------------

def circle_spec():
    return specfile.parse_spec((SPECS / "moebius.json").read_text(encoding="utf-8"))


def counting_kernels(monkeypatch):
    """Count every MatrixGroup output computed (not read from a memo)."""
    computed = []
    compute = ex.MatrixGroup._compute

    def recorded(group, ctx):
        computed.append(group)
        return compute(group, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "_compute", recorded)
    return computed


def test_a_second_witt_class_reads_the_cached_split(monkeypatch):
    form = circle_spec().forms["hyperbolic1"]
    first = rings.witt_class(form, PLAN)
    (key, (_, *parts)), = form.certified.items()
    assert key == ("definite parts", PLAN) and tuple(parts) == first.parts
    splits = counting(monkeypatch, rings, "decompose")
    walks = counting(monkeypatch, bu, "refined_loop")
    computed = counting_kernels(monkeypatch)
    second = rings.witt_class(form, PLAN)
    assert second.parts[0] is first.parts[0] and second.parts[1] is first.parts[1]
    assert (second.sig_diff, second.rank_parity, second.det_classes) == (
        first.sig_diff, first.rank_parity, first.det_classes)
    assert (splits, walks, computed) == ([], [], [])
    # another plan is another split
    rings.witt_class(form, SamplePlan(seed=1, n_chart=120, n_overlap=80,
                                      n_triple=60))
    assert len(splits) == 1 and len(form.certified) == 2


def test_a_second_line_class_reads_the_cached_class(monkeypatch):
    bundle = moebius()
    walks = counting(monkeypatch, bu, "refined_loop")
    assert bu.s1_line_class(bundle) == 1
    assert bundle.certified == {"line class": 1}
    computed = counting_kernels(monkeypatch)
    assert bu.s1_line_class(bundle) == 1
    assert len(walks) == 1 and computed == []


def cylinder_spec():
    return specfile.parse_spec(
        (SPECS / "moebius_cylinder.json").read_text(encoding="utf-8"))


def test_homotopy_isometry_reads_the_witness_homotopy_iso_certified(monkeypatch):
    doc = cylinder_spec()
    bundle, form = doc.bundles["moebius_cyl"], doc.forms["indefinite_cyl"]
    hw = homotopy.homotopy_isomorphism(bundle, PLAN, 1e-6)
    assert bundle.certified[("homotopy witness", PLAN, 1e-6)] is hw
    details = dict(hw.report.details)
    ladders = counting(monkeypatch, homotopy, "_adaptive_t_ladder")
    slices = counting(monkeypatch, homotopy, "restrict_cylinder")
    first = homotopy.homotopy_isometry(form, PLAN, 1e-6)
    second = homotopy.homotopy_isometry(form, PLAN, 1e-6)
    assert first.report.passed and second.report.passed
    assert first.at_zero.bundle is hw.at_zero and second.at_one.bundle is hw.at_one
    assert (ladders, slices) == ([], [])
    # the isometry's report carries the ladder; the witness's report is as it was
    assert first.report.details["ladder_points"] == details["ladder_points"]
    assert hw.report.details == details
    assert homotopy.homotopy_isomorphism(bundle, PLAN, 1e-6) is hw
    # another tolerance is another witness
    assert homotopy.homotopy_isomorphism(bundle, PLAN, 1e-7) is not hw
    assert len(ladders) == 1


def test_a_witness_along_a_path_is_not_cached(monkeypatch):
    pulled = []
    pullback = homotopy.pullback

    def recorded(*args, **kwargs):
        pulled.append(pullback(*args, **kwargs))
        return pulled[-1]

    monkeypatch.setattr(homotopy, "pullback", recorded)
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    hw = induced_iso_from_homotopy(moebius(), ident, ident, [ex.Var(0), ex.Var(1)],
                                   circle_base(), PLAN)
    assert hw.report.passed
    (bundle,) = pulled
    assert bundle.certified == {}


def test_a_construction_that_raises_caches_nothing(monkeypatch):
    # the line class: a cover that leaves the loop's start uncovered
    x0 = Polynomial.coordinate(2, 0)
    cover = semialg.Cover(circle_base(), [SemialgebraicSet(
        2, [[Condition.from_poly(Polynomial.constant(2, 0.9) - x0, GT)]])])
    bundle = bu.trivial_bundle(cover, 1)
    with pytest.raises(CoverageFailure):
        bu.s1_line_class(bundle)
    assert bundle.certified == {}
    # the definite split: a form whose signature has no pivot
    doc = circle_spec()
    form = FormField.from_upper(doc.bundles["eps1"], [[0.0], [0.0]], name="zero")
    with pytest.raises(NearSingular):
        rings.witt_class(form, PLAN)
    assert form.certified == {}
    # the homotopy witness: a check that raises once
    doc = cylinder_spec()
    bundle = doc.bundles["moebius_cyl"]
    with monkeypatch.context() as patched:
        patched.setattr(homotopy, "check_isomorphism", raising)
        with pytest.raises(GuardViolation):
            homotopy.homotopy_isomorphism(bundle, PLAN, 1e-6)
    assert all(key[0] == "gauss embedding" for key in bundle.certified)
    hw = homotopy.homotopy_isomorphism(bundle, PLAN, 1e-6)
    assert bundle.certified[("homotopy witness", PLAN, 1e-6)] is hw


def raising(*args):
    raise GuardViolation("check interrupted")


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
        got = memberships([sset], points, margin)[:, 0]
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


# --- kernel memos, per candidate cloud -----------------------------------------

def pencil_split_cover():
    """The minor cover of hyperbolic1's positive range bundle: each chart
    condition is a minor of a glued pencil projector, so its MatrixGroups
    run under ZeroGate sub-contexts."""
    doc = specfile.parse_spec((SPECS / "moebius.json").read_text(encoding="utf-8"))
    plus, _ = decompose(doc.forms["hyperbolic1"], PLAN).to_ambient()
    cover = bundle_from_projector(plus, PLAN, name="hyperbolic1+").cover
    assert any(g.op == ex.PENCIL_PROJ_POS for g in _groups(cover.charts[0]))
    return cover


def _groups(sset):
    seen, stack, groups = set(), [c.expression for p in sset.pieces for c in p], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ex.MatEntry):
            groups.append(node.group)
            stack.extend(node.group.child_exprs())
        stack.extend(node.children())
    return groups


def without_memo(monkeypatch):
    """Make every membership call evaluate in a context of its own: on the
    array of a memo it is given, without the memo."""
    plain = SemialgebraicSet.membership
    monkeypatch.setattr(SemialgebraicSet, "membership",
                        lambda self, points, eq_tol=semialg._EQ_TOL:
                        plain(self, getattr(points, "points", points), eq_tol))


def test_memo_membership_matches_a_fresh_context(monkeypatch):
    cover = pencil_split_cover()
    base = cover.base
    regions = [*cover.charts, cover.charts[0].complement(),
               cover.charts[0].intersect(cover.charts[1])]
    cloud = semialg._cloud(base.box, 300, 0, [], {})
    for region in regions:
        got = memberships([region], cloud, 1e-3)
        assert got.tolist() == memberships([region], cloud.points, 1e-3).tolist()
    assert cloud.outputs
    # the sampled regions, each drawn after the others filled the memo
    shared = [base.region_memo(base.sset.intersect(r), PLAN, 50).points.tobytes()
              for r in regions]
    without_memo(monkeypatch)
    fresh = [sample(base.sset.intersect(r), PLAN, base.box, 50)[0].tobytes()
             for r in regions]
    assert shared == fresh


def test_second_region_reruns_no_computed_kernel(monkeypatch):
    cover, fresh = pencil_split_cover(), pencil_split_cover()
    computing, eigh_keys = [], []
    compute, eigh = ex.MatrixGroup._compute, ex._pencil_eigh

    def keyed_compute(group, ctx):
        computing.append((group, ctx.memo, ctx.path))
        try:
            return compute(group, ctx)
        finally:
            computing.pop()

    def keyed_eigh(s, g, tol, ctx):
        eigh_keys.append(computing[-1])
        return eigh(s, g, tol, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "_compute", keyed_compute)
    monkeypatch.setattr(ex, "_pencil_eigh", keyed_eigh)
    whitened = counting(monkeypatch, ex, "_whitened_eigh")
    cover.samples((0,), PLAN)
    first = list(eigh_keys)
    cover.samples((1,), PLAN)
    second = eigh_keys[len(first):]
    assert first and all(memo is not None for _, memo, _ in eigh_keys)
    assert len(set(eigh_keys)) == len(eigh_keys)
    assert whitened == []                   # the closed form served every row
    # without the memo, the second region computes its pencils again
    without_memo(monkeypatch)
    before = len(eigh_keys)
    fresh.samples((1,), PLAN)
    assert len(eigh_keys) - before > len(second)


# --- kernel memos, per sampled cover region ----------------------------------

def recording_transports(monkeypatch):
    """Record every array `PathProduct.compute` hands to its readers."""
    reads = []
    compute = ex.PathProduct.compute

    def recorded(group, ctx):
        out = compute(group, ctx)
        reads.append(out)
        return out

    monkeypatch.setattr(ex.PathProduct, "compute", recorded)
    return reads


def test_overlap_visits_read_one_transport_array(monkeypatch):
    m = moebius()
    proj = gauss_embedding(m, plan=PLAN)
    field = em_path_product(proj.entries, antipodal_path(), 2, [k / 8 for k in range(1, 9)])
    computed = counting(monkeypatch, ex.PathProduct, "_compute")
    reads = recording_transports(monkeypatch)
    visits = []
    for idx, _, ev in bu.sampled_regions(m.cover, PLAN, 2):
        ev(field)
        visits.append(idx)
    assert visits == [(0, 1), (1, 0)]
    # the (1, 0) visit and every entry read the array the (0, 1) visit computed
    assert len(computed) == 1 and len(reads) == 8
    assert all(r is reads[0] for r in reads) and not reads[0].flags.writeable
    # and it is what a fresh context computes
    assert np.array_equal(em_eval(field, m.cover.samples((0, 1), PLAN)), reads[0])


def test_a_transport_that_crosses_a_guard_stores_nothing():
    # sqrt(x0 - t) is violated on the path wherever x0 < t
    field = em_path_product([[ex.Var(0)]], [ex.Sqrt(ex.Sub(ex.Var(0), ex.Var(2)))], 2,
                            [k / 8 for k in range(1, 9)])
    memo = moebius().cover.region_memo((0, 1), PLAN)
    errors = []
    for _ in range(2):      # the second context finds nothing kept and fails again
        with pytest.raises(ex.GuardViolation) as info:
            ex._eval_matrix(field, ex.EvalContext(memo))
        errors.append((str(info.value), info.value.point))
        assert not memo.outputs
    assert errors[0] == errors[1] and errors[0][1] is not None


def test_dropping_a_witness_frees_its_region_memo_entries():
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    small = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)
    m = moebius()
    hw = induced_iso_from_homotopy(m, ident, anti, antipodal_path(), circle_base(), small)
    assert hw.report.passed
    cover = hw.morphism.source.cover
    memos = [cover.region_memo(idx, small) for idx in [(0,), (1,), (0, 1)]]
    transports = [weakref.ref(g) for memo in memos for g in memo.outputs
                  if isinstance(g, ex.PathProduct)]
    assert len(transports) == len(memos)
    gc.collect()
    gc.disable()
    try:
        del hw
        assert all(t() is None for t in transports)
        assert not any(isinstance(g, ex.PathProduct) for memo in memos for g in memo.outputs)
    finally:
        gc.enable()


# --- path products: each base point transported once --------------------------

def counting_rows(monkeypatch):
    """The number of base points each `PathProduct._transport` call moves:
    counts only, so no path product is kept alive (as `counting` would)."""
    rows = []
    transport = ex.PathProduct._transport

    def counted(group, x, callers):
        rows.append(len(x))
        return transport(group, x, callers)

    monkeypatch.setattr(ex.PathProduct, "_transport", counted)
    return rows


def dropped(field):
    """Drop the path product of the one matrix in the list `field`, with its
    row store, and check that it is gone, so that the next construction of
    equal structure starts empty."""
    group = weakref.ref(field[0][0][0].group)
    del field[:]
    gc.collect()
    assert group() is None


ANTIPODAL_TS = [k / 16 for k in range(1, 17)]


def test_a_second_point_set_transports_only_its_new_rows(monkeypatch):
    proj = gauss_embedding(moebius(), plan=PLAN)
    pts = circle_base().sample_points(PLAN)
    rows = counting_rows(monkeypatch)
    field = [em_path_product(proj.entries, antipodal_path(), 2, ANTIPODAL_TS)]
    em_eval(field[0], pts[:40])
    # 20 rows met before, 20 new ones, each new one twice
    second = np.vstack([pts[20:60], pts[40:60]])
    got = em_eval(field[0], second)
    assert rows == [40, 20]
    assert len(field[0][0][0].group.store.index) == 60
    dropped(field)
    fresh = em_eval(em_path_product(proj.entries, antipodal_path(), 2, ANTIPODAL_TS),
                    second)
    assert rows == [40, 20, 40]
    assert got.tobytes() == fresh.tobytes()


def test_a_transport_that_raises_stores_no_row_and_names_the_caller():
    # sqrt(x0 - t) is violated on the path wherever x0 < t
    field = em_path_product([[ex.Var(0)]], [ex.Sqrt(ex.Sub(ex.Var(0), ex.Var(1)))], 1,
                            [k / 8 for k in range(1, 9)])
    store = field[0][0].group.store
    em_eval(field, np.array([[2.0]]))
    assert len(store.index) == 1
    for _ in range(2):      # the second compute finds nothing kept and fails again
        with pytest.raises(ex.GuardViolation) as info:
            em_eval(field, np.array([[2.0], [3.0], [0.25], [0.5], [0.25]]))
        assert info.value.point == (0.25,) and "t = 0.375" in str(info.value)
        assert len(store.index) == 1
    # after a substitution x = 2y, the caller's row y, not x
    halved = em_subst(field, {0: ex.Mul(ex.Const(2.0), ex.Var(0))})
    with pytest.raises(ex.GuardViolation) as info:
        em_eval(halved, np.array([[1.0], [0.125], [0.125]]))
    assert info.value.point == (0.125,) and "t = 0.375" in str(info.value)
    assert not halved[0][0].group.store.index


def test_seeded_probe_rows_equal_computed_rows(monkeypatch):
    small = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)
    proj = gauss_embedding(moebius(), plan=small)
    values = partial(ex.path_projectors, proj.entries, antipodal_path(), 2)
    ts, _, probes, vals = _adaptive_t_ladder(values, circle_base(), small)
    assert len(ts) == 1025      # so the seed multiplies its rows a few at a time
    field = [em_path_product(proj.entries, antipodal_path(), 2, ts[1:])]
    group = field[0][0][0].group
    with pytest.raises(DimensionMismatch):
        group.seed(probes, vals)
    group.seed(probes, vals[1:])
    del group
    rows = counting_rows(monkeypatch)
    seeded = em_eval(field[0], probes)
    assert rows == []
    dropped(field)
    computed = em_eval(em_path_product(proj.entries, antipodal_path(), 2, ts[1:]), probes)
    assert rows == [len(probes)]
    assert seeded.tobytes() == computed.tobytes()


def test_a_row_store_goes_with_its_path_product():
    proj = gauss_embedding(moebius(), plan=PLAN)
    field = [em_path_product(proj.entries, antipodal_path(), 2, ANTIPODAL_TS)]
    em_eval(field[0], circle_base().sample_points(PLAN))
    values = weakref.ref(field[0][0][0].group.store.values)
    assert values() is not None
    dropped(field)
    assert values() is None


# --- region samples, interned per base by their selection --------------------

DEEP_PLAN = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)


@pytest.fixture(scope="module")
def deep_ladder_cover():
    """The common refinement that the antipodal-homotopy witness is checked on."""
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    hw = induced_iso_from_homotopy(moebius(), ident, anti, antipodal_path(),
                                   circle_base(), DEEP_PLAN)
    assert hw.report.passed
    return hw.at_zero.cover


def test_regions_with_one_selection_read_one_array_and_memo(deep_ladder_cover):
    cover = deep_ladder_cover
    for a, b in [((0,), (3,)), ((0, 1), (0, 2))]:
        assert cover.region_memo(a, DEEP_PLAN) is cover.region_memo(b, DEEP_PLAN)
        assert cover.samples(a, DEEP_PLAN) is cover.samples(b, DEEP_PLAN)
    # a chart whose conditions keep other rows has its own array
    assert cover.samples((1,), DEEP_PLAN).tobytes() != cover.samples((0,), DEEP_PLAN).tobytes()


def test_a_repeated_region_request_reads_its_memo_with_no_membership_pass(monkeypatch):
    base = circle_base()
    cover = circle_two_arc_cover(base)
    memo = cover.region_memo((0, 1), PLAN)
    sampled = counting(monkeypatch, semialg, "sample")
    kept = counting(monkeypatch, semialg, "_kept")
    # any order of the indices, another cover with those charts, and the
    # region rebuilt from the same conditions are one request
    assert cover.region_memo((1, 0), PLAN) is memo
    assert semialg.Cover(base, cover.charts, name="again").region_memo((0, 1), PLAN) is memo
    region = base.sset.intersect(cover.charts[0]).intersect(cover.charts[1])
    assert base.region_memo(region, PLAN, PLAN.n_overlap) is memo
    assert sampled == [] and kept == []
    # another count is another request, sampled once
    fewer = base.region_memo(region, PLAN, 50)
    assert base.region_memo(region, PLAN, 50) is fewer
    assert len(sampled) == 1 and fewer is not memo


def test_interned_region_depends_on_seed_and_count():
    base = circle_base()
    region = base.sset.intersect(circle_two_arc_cover(base).charts[0])
    memo = base.region_memo(region, PLAN, 50)
    assert base.region_memo(region, PLAN, 50) is memo
    assert memo.points.tobytes() == sample(region, PLAN, base.box, 50)[0].tobytes()
    with pytest.raises(ValueError):
        memo.points[0, 0] = 0.0
    # 40 points keep the same rows of the same clouds; only the count differs
    fewer = base.region_memo(region, PLAN, 40)
    assert fewer is not memo and fewer.points.tobytes() == memo.points[:40].tobytes()
    # another seed draws other clouds, so another key and array, though its
    # first 50 points are the seed-free Halton half's and equal these
    other_plan = SamplePlan(seed=1, n_chart=120)
    other_seed = base.region_memo(region, other_plan, 50)
    assert other_seed is not memo and other_seed.points is not memo.points
    assert other_seed.points.tobytes() == sample(region, other_plan, base.box, 50)[0].tobytes()
    assert not (fewer.points.flags.writeable or other_seed.points.flags.writeable)


def test_a_transport_on_a_second_region_of_one_point_set_is_a_memo_hit(
        monkeypatch, deep_ladder_cover):
    cover = deep_ladder_cover
    proj = gauss_embedding(moebius(), plan=DEEP_PLAN)
    field = em_path_product(proj.entries, antipodal_path(), 2, [k / 8 for k in range(1, 9)])
    computed = counting(monkeypatch, ex.PathProduct, "_compute")
    reads = recording_transports(monkeypatch)
    for idx in [(0,), (3,)]:
        memo = cover.region_memo(idx, DEEP_PLAN)
        ex._eval_matrix(field, ex.EvalContext(memo))
    assert len(computed) == 1
    assert reads and all(r is reads[0] for r in reads)


# --- one evaluation scope per base point set ---------------------------------

def test_base_samples_are_one_read_only_array():
    base = circle_base()
    pts = base.sample_points(PLAN)
    assert base.sample_points(PLAN) is pts and not pts.flags.writeable
    assert base.sample_memo(PLAN).points is pts
    assert pts.tobytes() == sample(base.sset, PLAN, base.box)[0].tobytes()


def hyperbolic_split():
    """hyperbolic1's ambient positive and negative projectors, on the base
    of the parsed Moebius spec."""
    doc = specfile.parse_spec((SPECS / "moebius.json").read_text(encoding="utf-8"))
    return doc, decompose(doc.forms["hyperbolic1"], PLAN).to_ambient()


def recording_pencils(monkeypatch):
    """Record (group, memo) for every pencil projector computed, and every
    pencil lookup that neither a context's cache nor a kernel memo served."""
    computed, missed = [], []
    compute, lookup = ex.MatrixGroup._compute, ex.MatrixGroup.compute

    def recorded_compute(group, ctx):
        if group.op in (ex.PENCIL_PROJ_POS, ex.PENCIL_PROJ_NEG):
            computed.append((group, ctx.memo))
        return compute(group, ctx)

    def recorded_lookup(group, ctx):
        if (group.op in (ex.PENCIL_PROJ_POS, ex.PENCIL_PROJ_NEG)
                and id(group) not in ctx.group_cache
                and (ctx.memo is None
                     or ctx.path not in ctx.memo.outputs.get(group, {}))):
            missed.append(group)
        return lookup(group, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "_compute", recorded_compute)
    monkeypatch.setattr(ex.MatrixGroup, "compute", recorded_lookup)
    return computed, missed


def test_minus_range_bundle_reads_the_pencils_its_plus_twin_computed(monkeypatch):
    doc, (plus, minus) = hyperbolic_split()
    computed, missed = recording_pencils(monkeypatch)
    bundle_from_projector(plus, PLAN, name="hyperbolic1+")
    memo = doc.base.sample_memo(PLAN)
    assert computed and all(scope is memo for _, scope in computed)
    assert {g.op for g, _ in computed} == {ex.PENCIL_PROJ_POS}
    before = len(computed), len(missed)
    bundle_from_projector(minus, PLAN, name="hyperbolic1-")
    assert (len(computed), len(missed)) == before


# the key of the circle walk's grid: its angles' bytes
LOOP_GRID = np.append(2.0 * np.pi * np.arange(bu.LOOP_STEPS) / bu.LOOP_STEPS,
                      2.0 * np.pi).tobytes()


def test_loop_grid_kernels_run_once_per_base(monkeypatch):
    doc, (plus, _) = hyperbolic_split()
    bundle = bundle_from_projector(plus, PLAN, name="hyperbolic1+")
    other = bu.BundleRep(bundle.cover, bundle.rank, bundle.transitions, name="again")
    memos = []
    compute = ex.MatrixGroup._compute

    def recorded(group, ctx):
        memos.append(ctx.memo)
        return compute(group, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "_compute", recorded)
    first = bu.s1_line_class(bundle)
    grid = doc.base.regions[LOOP_GRID]
    assert grid.points.shape[0] == bu.LOOP_STEPS + 1 and not grid.points.flags.writeable
    on_grid = sum(k is grid for k in memos)
    assert on_grid and grid.outputs
    assert bu.s1_line_class(other) == first
    assert sum(k is grid for k in memos) == on_grid


def test_dropping_the_bundles_frees_the_loop_grid_entries():
    doc, (plus, minus) = hyperbolic_split()
    bundles = [bundle_from_projector(p, PLAN, name=n)
               for p, n in ((plus, "hyperbolic1+"), (minus, "hyperbolic1-"))]
    classes = [bu.s1_line_class(b) for b in bundles]
    assert classes == [bu.s1_line_class(b) for b in bundles]
    base = doc.base
    grid = base.regions[LOOP_GRID]
    groups = [weakref.ref(g) for g in grid.outputs]
    assert groups
    gc.collect()
    gc.disable()
    try:
        del doc, plus, minus, bundles
        assert all(g() is None for g in groups)
        assert not grid.outputs and base.regions[LOOP_GRID] is grid
    finally:
        gc.enable()


# --- one sampling batch per shrink: condition values held per cloud ----------

def three_arc_cover(base):
    """Three arcs of the circle whose conditions are general expressions, so
    sampling evaluates them in contexts: U0 = {x1 > -0.3},
    U1 = {x1 < 0.3, x0 > -0.5}, U2 = {x1 < 0.3, x0 < 0.5}."""
    x0, x1 = ex.Var(0), ex.Var(1)
    below = Condition(ex.Sub(ex.Const(0.3), x1), GT)
    charts = [SemialgebraicSet(2, [[Condition(ex.Add(x1, ex.Const(0.3)), GT)]]),
              SemialgebraicSet(2, [[below, Condition(ex.Add(x0, ex.Const(0.5)), GT)]]),
              SemialgebraicSet(2, [[below, Condition(ex.Sub(ex.Const(0.5), x0), GT)]])]
    return semialg.Cover(base, charts, name="three-arcs")


def test_a_batch_returns_the_memos_of_sampling_each_region_alone(monkeypatch):
    batches = []
    original = semialg.Base.region_memos

    def recording(base, regions, plan, count):
        batches.append((list(regions), count))
        return original(base, regions, plan, count)

    monkeypatch.setattr(semialg.Base, "region_memos", recording)
    shrink_cover(three_arc_cover(circle_base()), plan=PLAN)
    monkeypatch.undo()
    regions, count = max(batches, key=lambda b: len(b[0]))
    assert len(regions) == 9        # 2 disjointness regions and a closure per chart
    base = circle_base()
    memos = base.region_memos(regions, PLAN, count)
    for region, memo in zip(regions, memos):
        assert base.region_memo(region, PLAN, count) is memo
        alone = circle_base().region_memo(region, PLAN, count)
        assert memo.points.tobytes() == alone.points.tobytes()
        assert memo.points.tobytes() == sample(region, PLAN, base.box, count)[0].tobytes()
    assert any(len(memo) for memo in memos)


def test_a_shrink_evaluates_each_condition_root_once_per_cloud(monkeypatch):
    """Every condition a sampling pass tests on a cloud is evaluated there
    at most once per batch: a later piece or region reads the held value
    (a root that violated a guard is not held, and is not counted)."""
    base = circle_base()
    cover = three_arc_cover(base)
    evaluated = {}
    safe_eval = semialg._safe_eval

    def counted(node, ctx):
        fresh = node not in ctx.cache
        out = safe_eval(node, ctx)
        if (fresh and node in ctx.cache and ctx.path == ()
                and any(ctx.memo is c for c in base.clouds.values())):
            key = (node, id(ctx.memo))      # the base keeps its clouds alive
            evaluated[key] = evaluated.get(key, 0) + 1
        return out

    monkeypatch.setattr(semialg, "_safe_eval", counted)
    shrink_cover(cover, plan=PLAN)
    assert len(evaluated) > len(cover.charts)
    assert max(evaluated.values()) == 1


def test_a_condition_that_fails_its_guard_is_not_held():
    box = ((-2.0, 2.0),)
    x = ex.Var(0)
    guarded = ex.Sub(ex.Sqrt(x), ex.Const(0.5))     # violates its guard at x < 0
    free = ex.Add(x, ex.Const(1.5))
    first = SemialgebraicSet(1, [[Condition(free, GT), Condition(guarded, GT)]])
    clouds, held = {}, {}
    semialg._selection(first, PLAN, box, 50, clouds, held)
    assert held.keys() == set(clouds.values())
    assert all(free in h and guarded not in h for h in held.values())
    # a later region reads the guarded root under a gate, where it passes:
    # it keeps the rows of the clouds that it keeps when sampled alone
    gated = SemialgebraicSet(1, [[Condition(ex.ZeroGate(x, guarded), GT)]])
    later = semialg._selection(gated, PLAN, box, 50, clouds, held)
    alone = semialg._selection(gated, PLAN, box, 50, {}, {})
    assert [(cloud.points.tobytes(), keep.tobytes()) for cloud, keep in later] == \
        [(cloud.points.tobytes(), keep.tobytes()) for cloud, keep in alone]
    line = semialg.Base(SemialgebraicSet.whole_space(1), box)
    together = line.region_memos([first, gated], PLAN, 50)[1]
    memo = semialg.Base(SemialgebraicSet.whole_space(1), box).region_memo(gated, PLAN, 50)
    assert len(memo) and together.points.tobytes() == memo.points.tobytes()
    assert (together.points[:, 0] > 0.25).all()


def test_no_held_value_outlives_its_batch(monkeypatch):
    base = circle_base()
    cover = three_arc_cover(base)
    held_sizes = []     # per `_kept` call: the values its cloud held before
    kept = semialg._kept

    def recording(piece, dim, cloud, held):
        held_sizes.append(len(held))
        return kept(piece, dim, cloud, held)

    monkeypatch.setattr(semialg, "_kept", recording)
    shrink_cover(cover, plan=PLAN)
    assert max(held_sizes) > 1
    # the clouds hold no values of their own, and each batch starts empty
    assert base.clouds and not any(hasattr(c, "held") for c in base.clouds.values())
    batches = []
    batch = semialg.SamplingBatch

    def new_batch(owner):
        batches.append(batch(owner))
        return batches[-1]

    monkeypatch.setattr(semialg, "SamplingBatch", new_batch)
    # new counts, so that each batch samples rather than reads its requests
    for count in (50, 60):
        del held_sizes[:]
        base.region_memos(cover.charts, PLAN, count)
        assert held_sizes[0] == 0 and max(held_sizes) >= 1
    assert len(batches) == 2 and batches[0].held is not batches[1].held
    # a region whose equality is not polynomial raises after the first held
    # values, and the next batch starts empty all the same
    not_polynomial = SemialgebraicSet(2, [[Condition(ex.Var(0), semialg.EQ)]])
    with pytest.raises(NotPolynomial):
        base.region_memos([cover.charts[0], not_polynomial], PLAN, 70)
    del held_sizes[:]
    base.region_memos(cover.charts, PLAN, 80)
    assert held_sizes[0] == 0


# --- the intern table: one node per structure, held weakly -------------------

def test_dropping_a_dag_returns_the_intern_table_to_its_size():
    gc.collect()
    gc.disable()
    try:
        before = len(ex._INTERNED)
        x = ex.Var(7001)
        group = ex.MatrixGroup(ex.COLSPAN_PROJ, [[x], [ex.Add(x, 0.5)]])
        path = ex.PathProduct([[ex.Mul(ex.Var(0), 2.0)]], [ex.Var(7002)], 1, [0.5])
        dag = ex.Add(ex.MatEntry(group, 1, 0), ex.MatEntry(path, 0, 0))
        assert len(ex._INTERNED) > before
        del x, group, path, dag
        assert len(ex._INTERNED) == before
    finally:
        gc.enable()


def test_a_rebuilt_subterm_is_evaluated_once_per_context(monkeypatch):
    def zero_function():        # as every partition of unity rebuilds it
        c = ex.Sub(ex.Mul(ex.Var(0), ex.Var(0)), 0.25)
        return ex.Pow(ex.Clamp(-c), 3)

    def total():
        return ex.Sub(zero_function(), ex.Mul(zero_function(), ex.Var(0)))

    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 1))
    # un-shared: each copy in a context of its own
    unshared = np.subtract(ex.evaluate(zero_function(), pts),
                           np.multiply(ex.evaluate(zero_function(), pts), pts[:, 0]))
    contexts = []
    pow_eval = ex.Pow._eval

    def recorded(node, ctx):
        contexts.append(ctx)
        return pow_eval(node, ctx)

    monkeypatch.setattr(ex.Pow, "_eval", recorded)
    ctx = ex.EvalContext(pts)
    out = total().eval(ctx)
    assert contexts == [ctx]
    assert out.tobytes() == unshared.tobytes()
