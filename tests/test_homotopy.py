"""Product covers, endpoint transport witnesses and the path product."""

from functools import partial

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import homotopy, semialg
from bundleforms.bundles import (
    BundleRep,
    CheckReport,
    common_cover,
    gauss_embedding,
    pullback,
    s1_line_class,
    sampled_regions,
    trivial_bundle,
    validate_cocycle,
)
from bundleforms.catalog import (
    circle_base,
    circle_two_arc_cover,
    cylinder_base,
    cylinder_projection_map,
    full_cover,
    line_base,
    moebius,
    plane_base,
    scaling_homotopy_map,
    scrambled_plane_bundle,
)
from bundleforms.cli import _apply_check
from bundleforms.errors import (
    ContractionEscapesBase,
    EndpointMismatch,
    GuardViolation,
    NotCatalogBase,
    TCoverGap,
)
from bundleforms.forms import FormField, check_isometry, signature, validate_form
from bundleforms.homotopy import (
    _adaptive_t_ladder,
    _ladder_details,
    homotopy_isometry,
    homotopy_isomorphism,
    induced_iso_from_homotopy,
    product_cylinder_cover,
    restrict_cylinder,
    trivialize_contractible,
)
from bundleforms.matexpr import (
    em_eval,
    em_mul,
    em_path_product,
    em_subst,
)
from bundleforms.reporting import Report, TaskEntry
from bundleforms.semialg import (
    GE,
    Base,
    Condition,
    Polynomial,
    SamplePlan,
    SemialgebraicSet,
)
from helpers import antipodal_path, counting

PLAN = SamplePlan(seed=0, n_chart=160, n_overlap=120, n_triple=80)


def line_cylinder_cover(intervals):
    base = line_base()
    cyl = cylinder_base(base, t_lo=-1.5, t_hi=2.5)
    whole = SemialgebraicSet.whole_space(1)
    return cyl, product_cylinder_cover(cyl, [whole] * len(intervals), intervals)


def moebius_cylinder(plan=PLAN):
    circle = circle_base()
    cyl = cylinder_base(circle)
    return pullback(moebius(), cylinder_projection_map(circle), cyl, plan,
                    name="moebius-cylinder")


def scaled_moebius_cylinder():
    """Rank-1 bundle on the Moebius cylinder's cover whose transition
    g = sign(x0) * (1 + t^2/4) grows with t."""
    circle = circle_base()
    cyl = cylinder_base(circle)
    cover = pullback(moebius(), cylinder_projection_map(circle), cyl, PLAN).cover
    s = ex.Div(ex.Var(0), ex.Abs(ex.Var(0)))
    scale = ex.Add(ex.Const(1.0), ex.Mul(ex.Const(0.25), ex.Pow(ex.Var(2), 2)))
    g = ((ex.Mul(s, scale),),)
    ginv = ((ex.Div(ex.Const(1.0), ex.Mul(s, scale)),),)
    return BundleRep(cover, 1, {(0, 1): g, (1, 0): ginv}, name="scaled-moebius-cyl")


def symbolic_chain(entries, maps, t_index, ts):
    """Reference transport: one substituted copy of the projector per rung,
    multiplied as expression matrices in a balanced product from the last
    rung, P(h(x, t_K)) ... P(h(x, t_1))."""
    factors = []
    for t in reversed(ts):
        at_t = {i: ex.substitute(h, {t_index: ex.Const(t)})
                for i, h in enumerate(maps)}
        factors.append(em_subst(entries, at_t))
    while len(factors) > 1:
        reduced = [em_mul(factors[k], factors[k + 1])
                   for k in range(0, len(factors) - 1, 2)]
        factors = reduced + factors[len(reduced) * 2:]
    return factors[0]


def dag_nodes(fields) -> int:
    """Unique expression nodes reachable from per-chart matrices."""
    seen = set()
    stack = [e for matrix in fields for row in matrix for e in row]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children())
    return len(seen)


# --- product covers ------------------------------------------------------------

def test_homotopy_isomorphism_certifies_product_covers_by_slab_sampling():
    cyl, cover = line_cylinder_cover([(None, 0.6), (0.4, None)])
    hw = homotopy_isomorphism(trivial_bundle(cover, 1), PLAN)
    assert hw.report.passed, hw.report.as_dict()


@pytest.mark.parametrize("gap", [(0.3, 0.7), (0.52, 0.53), (0.52, 0.5201),
                                 (0.52, 0.520001)])
def test_product_cover_t_gap_is_named_at_its_lower_end(gap):
    # the slab slices are multiples of 0.05, and only the first gap holds
    # one: the others show only at the upper end of the interval before them
    cyl, gapped = line_cylinder_cover([(None, gap[0]), (gap[1], None)])
    with pytest.raises(TCoverGap,
                       match=f"slab point uncovered at t = {gap[0]:.6f}") as err:
        homotopy_isomorphism(trivial_bundle(gapped, 1), PLAN)
    assert err.value.point[-1] == gap[0]


# --- restriction ------------------------------------------------------------------

def test_restrict_moebius_cylinder_keeps_class():
    b = moebius_cylinder()
    b0, kept = restrict_cylinder(b, 0.0)
    assert validate_cocycle(b0, PLAN).passed
    assert s1_line_class(b0) == 1
    assert b0.base.circle


def test_slices_and_refinements_probe_their_charts_by_one_rule(monkeypatch):
    # which charts survive is part of the cover, so no caller's plan sets it
    cylinder, m = moebius_cylinder(), moebius()
    requests = []
    original = semialg.Base.region_memo

    def recording(base, region, plan, count):
        requests.append((plan, count))
        return original(base, region, plan, count)

    monkeypatch.setattr(semialg.Base, "region_memo", recording)
    restrict_cylinder(cylinder, 0.0)
    common_cover(m, trivial_bundle(circle_two_arc_cover(m.base), 1))
    assert requests and set(requests) == {(SamplePlan(), 16)}


def test_slab_coverage_is_one_membership_pass(monkeypatch):
    b = moebius_cylinder()
    passes = counting(monkeypatch, semialg, "memberships")
    homotopy._certify_slab_coverage(b, PLAN)
    assert len(passes) == 1
    n = b.base.cylinder_base.sample_points(PLAN).shape[0]
    assert len(passes[0][1]) == n * homotopy.SLAB_T_VALUES


# --- homotopy isomorphism ----------------------------------------------------------

def test_homotopy_isomorphism_product_bundle():
    b = moebius_cylinder()
    hw = homotopy_isomorphism(b, PLAN)
    assert hw.report.passed, hw.report.as_dict()
    # t-independence: identity-grade witness on the shortest ladder
    assert hw.report.max_residual < 1e-12
    assert hw.report.details["ladder_points"] == 17
    assert hw.report.details["ladder_gap"] < 1e-12
    assert "ladder_capped" not in hw.report.details
    assert s1_line_class(hw.at_zero) == 1
    assert s1_line_class(hw.at_one) == 1


def test_homotopy_isomorphism_t_dependent():
    b = scaled_moebius_cylinder()
    assert validate_cocycle(b, PLAN).passed
    hw = homotopy_isomorphism(b, PLAN)
    assert hw.report.passed, hw.report.as_dict()
    assert s1_line_class(hw.at_zero) == 1 and s1_line_class(hw.at_one) == 1


# --- homotopy isometry --------------------------------------------------------------

def test_homotopy_isometry_t_independent_positive():
    b = moebius_cylinder()
    f = FormField.constant(b, np.array([[2.0]]))
    hi = homotopy_isometry(f, PLAN)
    assert hi.report.passed, hi.report.as_dict()
    assert hi.report.max_residual < 1e-10


def test_homotopy_isometry_straight_line_spd_family():
    # sigma(t) = (1-t) s + t s' between two SPD forms on eps^2 over the circle
    circle = circle_base()
    cyl = cylinder_base(circle)
    cover = product_cylinder_cover(
        cyl, [c for c in circle_two_arc_cover(circle).charts],
        [(None, None), (None, None)])
    b = trivial_bundle(cover, 2)
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2, 2))
    s0 = a @ a.T + 0.4 * np.eye(2)
    c = rng.normal(size=(2, 2))
    s1 = c @ c.T + 0.4 * np.eye(2)
    t = ex.Var(2)
    one_minus = ex.Sub(ex.Const(1.0), t)
    upper = []
    for i in range(2):
        for j in range(i, 2):
            upper.append(ex.Add(ex.Mul(one_minus, ex.Const(s0[i, j])),
                                ex.Mul(t, ex.Const(s1[i, j]))))
    f = FormField.from_upper(b, [upper, upper], name="line-family")
    assert validate_form(f, PLAN).passed
    hi = homotopy_isometry(f, PLAN)
    assert hi.report.passed, hi.report.as_dict()
    assert hi.report.max_residual < 1e-8
    # endpoint forms match the prescribed matrices
    pts = circle.sample_points(PLAN)[:5]
    assert np.abs(hi.at_zero.mats and em_eval(hi.at_zero.mats[0], pts) - s0).max() < 1e-12


def test_homotopy_isometry_indefinite_cylinder_form():
    b = moebius_cylinder()
    e2 = trivial_bundle(b.cover, 2)
    f = FormField.constant(e2, np.diag([1.0, -1.0]))
    hi = homotopy_isometry(f, PLAN)
    assert hi.report.passed, hi.report.as_dict()
    assert signature(hi.at_zero, PLAN) == signature(hi.at_one, PLAN)


def test_homotopy_isometry_restricts_each_end_once(monkeypatch):
    # the form's slices come from the witness's parent charts, so the
    # cylinder is restricted (and its chart slices sampled) once per end
    calls = []
    original = homotopy.restrict_cylinder

    def counted(bundle, t_value):
        calls.append(t_value)
        return original(bundle, t_value)

    monkeypatch.setattr(homotopy, "restrict_cylinder", counted)
    b = moebius_cylinder()
    f = FormField.constant(trivial_bundle(b.cover, 2), np.diag([1.0, -1.0]))
    hi = homotopy_isometry(f, PLAN)
    assert hi.report.passed, hi.report.as_dict()
    assert calls == [0.0, 1.0]


# --- contractible trivialization ------------------------------------------------------

def test_trivialize_scrambled_plane_bundle():
    b = scrambled_plane_bundle()
    tw = trivialize_contractible(b, PLAN)
    assert tw.report.passed, tw.report.as_dict()
    assert tw.trivial.rank == 2
    assert tw.report.max_residual < 1e-6


def test_trivialize_single_chart_identity():
    base = plane_base()
    b = trivial_bundle(full_cover(base), 2)
    tw = trivialize_contractible(b, PLAN)
    assert tw.report.passed


def test_trivialize_rejects_circle():
    m = moebius()
    with pytest.raises(NotCatalogBase):
        trivialize_contractible(m, PLAN)


def test_trivialize_rejects_a_base_not_star_shaped_about_its_center():
    # {x0^2 >= 1/4} with center 1: the segment from 1 to -1 leaves the base
    x0 = Polynomial.coordinate(1, 0)
    quarter = Polynomial.constant(1, 0.25)
    rays = SemialgebraicSet(1, [[Condition.from_poly(x0 * x0 - quarter, GE)]])
    base = Base(rays, box=((-2.0, 2.0),), name="two-rays", star_center=(1.0,))
    with pytest.raises(ContractionEscapesBase):
        trivialize_contractible(trivial_bundle(full_cover(base), 1), PLAN)


def test_trivialize_is_the_induced_isomorphism_from_the_constant_map(monkeypatch):
    calls = []
    original = homotopy.induced_iso_from_homotopy

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(homotopy, "induced_iso_from_homotopy", counted)
    tw = trivialize_contractible(scrambled_plane_bundle(), PLAN)
    assert tw.report.passed, tw.report.as_dict()
    assert len(calls) == 1


# --- induced isomorphisms ---------------------------------------------------------------

def test_induced_iso_identity_vs_antipodal_on_moebius():
    circle = circle_base()
    m = moebius()
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    small = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)
    hw = induced_iso_from_homotopy(m, ident, anti, antipodal_path(), circle, small)
    assert hw.report.passed, hw.report.as_dict()
    assert s1_line_class(hw.at_zero) == 1
    assert s1_line_class(hw.at_one) == 1
    # the ladder reaches its last doubling with the gap met
    assert hw.report.details["ladder_points"] == 1025
    assert hw.report.details["ladder_gap"] <= 0.35
    assert "ladder_capped" not in hw.report.details
    # one path-product node instead of a symbolic copy per rung
    assert dag_nodes(hw.morphism.fields) < 5000


def test_witness_check_computes_the_transport_once_per_region(monkeypatch):
    # every chart field of the antipodal witness shares one transport node;
    # the check evaluates it in each region's kernel memo, which the base
    # interns per sampled point set, so every visit of one point set (the
    # (i, j) and (j, i) visits of an overlap, and regions whose conditions
    # keep the same sampled rows) reads one computation
    computed = []
    compute = ex.PathProduct._compute

    def counted(self, ctx):
        computed.append(ctx.points.shape[0])
        return compute(self, ctx)

    monkeypatch.setattr(ex.PathProduct, "_compute", counted)
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    small = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)
    hw = induced_iso_from_homotopy(moebius(), ident, anti, antipodal_path(),
                                   circle_base(), small)
    assert hw.report.passed, hw.report.as_dict()
    cover = hw.at_zero.cover
    visited = [pts for arity in (1, 2) for _, pts, _ in sampled_regions(cover, small, arity)]
    assert len(visited) == 16
    # charts 0 and 3 sample one point set, and all twelve overlaps another
    assert len({id(pts) for pts in visited}) == 4
    assert len(computed) == 4


def test_induced_iso_constant_homotopy():
    circle = circle_base()
    m = moebius()
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    h = [Polynomial.coordinate(3, 0), Polynomial.coordinate(3, 1)]
    hw = induced_iso_from_homotopy(m, ident, ident, h, circle, PLAN)
    assert hw.report.passed
    assert hw.report.max_residual < 1e-12


def test_induced_iso_endpoint_mismatch():
    circle = circle_base()
    m = moebius()
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    anti = [-Polynomial.coordinate(2, 0), -Polynomial.coordinate(2, 1)]
    h = [Polynomial.coordinate(3, 0), Polynomial.coordinate(3, 1)]
    with pytest.raises(EndpointMismatch):
        induced_iso_from_homotopy(m, ident, anti, h, circle, PLAN)


# --- path product -----------------------------------------------------------------------

def test_path_product_matches_symbolic_chain_on_moebius_cylinder():
    ts = [k / 9 for k in range(1, 10)]
    pts = circle_base().sample_points(PLAN)
    # the cylinder bundle's own projector along the identity of the cylinder
    proj = gauss_embedding(scaled_moebius_cylinder(), plan=PLAN)
    maps = [ex.Var(0), ex.Var(1), ex.Var(2)]
    got = em_eval(em_path_product(proj.entries, maps, 2, ts), pts)
    want = em_eval(symbolic_chain(proj.entries, maps, 2, ts), pts)
    assert np.abs(got - want).max() < 1e-12
    # the Moebius projector along the antipodal path
    proj = gauss_embedding(moebius(), plan=PLAN)
    got = em_eval(em_path_product(proj.entries, antipodal_path(), 2, ts), pts)
    want = em_eval(symbolic_chain(proj.entries, antipodal_path(), 2, ts), pts)
    assert np.abs(got - want).max() < 1e-12
    assert np.abs(got).max() > 0.1


def test_path_product_is_bit_identical_on_power_of_two_ladders(monkeypatch):
    ts = [k / 16 for k in range(1, 17)]
    pts = circle_base().sample_points(PLAN)
    proj = gauss_embedding(moebius(), plan=PLAN)
    want = em_eval(symbolic_chain(proj.entries, antipodal_path(), 2, ts), pts)
    # one block of rungs, then blocks of four rungs each
    for rows in (ex.PATH_BLOCK_ROWS, 4 * pts.shape[0]):
        monkeypatch.setattr(ex, "PATH_BLOCK_ROWS", rows)
        got = em_eval(em_path_product(proj.entries, antipodal_path(), 2, ts), pts)
        assert np.array_equal(got, want)


def test_path_product_substitutes_into_maps_only():
    proj = gauss_embedding(moebius(), plan=PLAN)
    ts = [k / 8 for k in range(1, 9)]
    field = em_path_product(proj.entries, antipodal_path(), 2, ts)
    c, s = np.cos(0.9), np.sin(0.9)
    x0, x1 = ex.Var(0), ex.Var(1)
    rotation = {0: ex.Sub(ex.Mul(ex.Const(c), x0), ex.Mul(ex.Const(s), x1)),
                1: ex.Add(ex.Mul(ex.Const(s), x0), ex.Mul(ex.Const(c), x1)),
                2: ex.Const(0.3)}     # no base coordinate: never reaches t
    moved = em_subst(field, rotation)
    single = ex.substitute(field[1][0], rotation)
    group = field[0][0].group
    for other in (moved[0][0].group, single.group):
        assert other is not group and other.ts == group.ts
        # the path and the target-space entries are the very same nodes
        assert all(a is b for a, b in zip(other.maps, group.maps))
        assert all(a is b for ra, rb in zip(other.entries, group.entries)
                   for a, b in zip(ra, rb))
    assert all(e.group is moved[0][0].group for row in moved for e in row)
    pts = circle_base().sample_points(PLAN)
    rotated = pts @ np.array([[c, s], [-s, c]])
    want = em_eval(field, rotated)
    assert np.abs(em_eval(moved, pts) - want).max() < 1e-12
    assert np.abs(ex.evaluate(single, pts) - want[:, 1, 0]).max() < 1e-12
    # into a space of higher dimension, whose x2 is not the path's t
    lifted = em_subst(field, {0: ex.Var(0), 1: ex.Var(1)})
    extra = np.column_stack([pts, np.linspace(-3.0, 3.0, pts.shape[0])])
    assert np.array_equal(em_eval(lifted, extra), em_eval(field, pts))


@pytest.mark.parametrize("entries, maps", [
    # the projector's own guard, crossed where h(x, t) = x - t vanishes
    ([[ex.Div(ex.Const(1.0), ex.Var(0))]], [ex.Sub(ex.Var(0), ex.Var(1))]),
    # a guard inside the path itself
    ([[ex.Var(0)]], [ex.Div(ex.Const(1.0), ex.Sub(ex.Var(0), ex.Var(1)))]),
])
def test_path_product_guard_reports_base_point(entries, maps):
    field = em_path_product(entries, maps, 1, [k / 8 for k in range(1, 9)])
    with pytest.raises(GuardViolation) as info:
        em_eval(field, np.array([[0.9], [0.5]]))
    assert info.value.point == (0.5,)
    assert "t = 0.5" in str(info.value)
    # after a substitution x = 2y, the witness is the caller's y
    doubled = em_subst(field, {0: ex.Mul(ex.Const(2.0), ex.Var(0))})
    with pytest.raises(GuardViolation) as info:
        em_eval(doubled, np.array([[0.45], [0.25]]))
    assert info.value.point == (0.25,)
    assert "t = 0.5" in str(info.value)


def test_capped_ladder_is_flagged_and_reported_unknown(monkeypatch):
    small = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)
    proj = gauss_embedding(moebius(), plan=small)
    values = partial(ex.path_projectors, proj.entries, antipodal_path(), 2)
    with monkeypatch.context() as capped:
        capped.setattr(homotopy, "LADDER_MAX_POINTS", 17)
        ts, gap, _, _ = _adaptive_t_ladder(values, circle_base(), small)
    assert len(ts) == 17 and gap > 0.35
    details = _ladder_details(ts, gap)
    assert details["ladder_capped"] is True
    entry = TaskEntry("homotopy-iso", "error")
    _apply_check(entry, CheckReport("isomorphism", True, details=details))
    assert entry.status == "unknown"
    assert "capped at 17 points" in entry.message
    report = Report(seed=0)
    report.add(entry)
    assert report.exit_code() == 3
    # the same ladder with the gap met passes
    ts, gap, _, _ = _adaptive_t_ladder(values, circle_base(), small)
    assert len(ts) == 1025 and gap <= 0.35
    entry = TaskEntry("homotopy-iso", "error")
    _apply_check(entry, CheckReport("isomorphism", True,
                                    details=_ladder_details(ts, gap)))
    assert entry.status == "pass" and entry.message == ""
