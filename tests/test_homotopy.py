"""Strips, clutching, endpoint transport witnesses and the path product."""

from functools import partial

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms.bundles import (
    BundleRep,
    CheckReport,
    gauss_embedding,
    pullback,
    s1_line_class,
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
    BandMismatch,
    EndpointMismatch,
    GuardViolation,
    NotCatalogBase,
    TCoverGap,
)
from bundleforms.forms import FormField, check_isometry, signature, validate_form
from bundleforms.homotopy import (
    _adaptive_t_ladder,
    _ladder_details,
    clutch,
    homotopy_isometry,
    homotopy_isomorphism,
    induced_iso_from_homotopy,
    product_cylinder_cover,
    restrict_cylinder,
    strip_subdivision,
    trivialize_contractible,
)
from bundleforms.matexpr import (
    em_const,
    em_eval,
    em_identity,
    em_mul,
    em_path_product,
    em_subst,
)
from bundleforms.reporting import Report, TaskEntry
from bundleforms.semialg import Polynomial, SamplePlan, SemialgebraicSet

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


def antipodal_path():
    """H(x, t) = (a x + b Jx) / sqrt(a^2 + b^2) with a = 1 - 2t and
    b = 4t(1 - t): stays on the circle, the identity at t = 0 and the
    antipodal map at t = 1."""
    x0, x1, t = ex.Var(0), ex.Var(1), ex.Var(2)
    a = ex.Sub(ex.Const(1.0), ex.Mul(ex.Const(2.0), t))
    b = ex.Mul(ex.Const(4.0), ex.Mul(t, ex.Sub(ex.Const(1.0), t)))
    norm = ex.Sqrt(ex.Add(ex.Mul(a, a), ex.Mul(b, b)), guard_tol=1e-12)
    return [ex.Div(ex.Sub(ex.Mul(a, x0), ex.Mul(b, x1)), norm, guard_tol=1e-12),
            ex.Div(ex.Add(ex.Mul(b, x0), ex.Mul(a, x1)), norm, guard_tol=1e-12)]


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


# --- strip subdivision --------------------------------------------------------

def test_strips_two_overlapping_intervals():
    cyl, cover = line_cylinder_cover([(None, 0.6), (0.4, None)])
    b = trivial_bundle(cover, 1)
    strips = strip_subdivision(b, PLAN)
    assert len(strips) == 1
    assert strips[0].breakpoints == [0.0, 0.5, 1.0]
    assert strips[0].strip_charts == [0, 1]


def test_strips_single_chart():
    cyl, cover = line_cylinder_cover([(-1.0, 2.0)])
    b = trivial_bundle(cover, 2)
    strips = strip_subdivision(b, PLAN)
    assert strips[0].breakpoints == [0.0, 1.0]
    assert strips[0].strip_charts == [0]


def test_strips_gap_detected():
    cyl, cover = line_cylinder_cover([(None, 0.3), (0.7, None)])
    b = trivial_bundle(cover, 1)
    with pytest.raises(TCoverGap):
        strip_subdivision(b, PLAN)


# --- clutch ---------------------------------------------------------------------

def test_clutch_trivial_bundle_identity_gluing():
    cyl, cover = line_cylinder_cover([(None, 0.6), (0.4, None)])
    b = trivial_bundle(cover, 2)
    strips = strip_subdivision(b, PLAN)[0]
    glued = clutch(b, strips, plan=PLAN)
    assert glued.report.passed
    pts = np.array([[0.3, 0.5]])
    for field in glued.fields:
        assert np.allclose(em_eval(field, pts)[0], np.eye(2))


def test_clutch_composes_frame_changes():
    # t-independent rotation transition between the two slabs
    cyl, cover = line_cylinder_cover([(None, 0.6), (0.4, None)])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    b = BundleRep(cover, 2, {(0, 1): em_const(rot),
                             (1, 0): em_const(rot.T)}, name="rot-slab")
    strips = strip_subdivision(b, PLAN)[0]
    glued = clutch(b, strips, plan=PLAN)
    assert glued.report.passed, glued.report.as_dict()
    # second strip's field transports through the band frame change
    pts = np.array([[0.2, 0.7]])
    got = em_eval(glued.fields[1], pts)[0]
    assert np.allclose(got, np.linalg.inv(rot.T @ np.eye(2)), atol=1e-12) or \
        np.allclose(got, rot, atol=1e-12)


def test_clutch_band_mismatch():
    cyl, cover = line_cylinder_cover([(None, 0.6), (0.4, None)])
    t = ex.Var(1)
    # transition varies with t inside the band: not a valid product cocycle
    g = ((ex.Add(ex.Const(1.0), ex.Mul(ex.Const(0.5), t)),),)
    ginv = ((ex.Div(ex.Const(1.0), ex.Add(ex.Const(1.0),
                                          ex.Mul(ex.Const(0.5), t))),),)
    b = BundleRep(cover, 1, {(0, 1): g, (1, 0): ginv}, name="t-dependent")
    strips = strip_subdivision(b, PLAN)[0]
    with pytest.raises(BandMismatch):
        clutch(b, strips, plan=PLAN)


# --- restriction ------------------------------------------------------------------

def test_restrict_moebius_cylinder_keeps_class():
    b = moebius_cylinder()
    b0, kept = restrict_cylinder(b, 0.0, PLAN)
    assert validate_cocycle(b0, PLAN).passed
    assert s1_line_class(b0) == 1
    assert b0.base.circle is not None


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


def test_path_product_smoothness_bounds_the_composite():
    entries, ts = [[ex.Var(0)]], [0.5, 1.0]
    smooth = em_path_product(entries, [ex.Mul(ex.Var(0), ex.Var(1))], 1, ts)
    kinked = em_path_product(entries, [ex.Abs(ex.Sub(ex.Var(0), ex.Var(1)))], 1, ts)
    assert smooth[0][0].smoothness() == ex.SMOOTH
    assert kinked[0][0].smoothness() == 0
    # a substitution's kink bounds the composite too
    assert ex.substitute(smooth[0][0], {0: ex.Abs(ex.Var(0))}).smoothness() == 0


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


def test_capped_ladder_is_flagged_and_reported_unknown():
    small = SamplePlan(seed=0, n_chart=70, n_overlap=50, n_triple=40)
    proj = gauss_embedding(moebius(), plan=small)
    values = partial(ex.path_projectors, proj.entries, antipodal_path(), 2)
    ts, gap = _adaptive_t_ladder(values, circle_base(), small, 16, max_points=17)
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
    ts, gap = _adaptive_t_ladder(values, circle_base(), small, 16)
    assert len(ts) == 1025 and gap <= 0.35
    entry = TaskEntry("homotopy-iso", "error")
    _apply_check(entry, CheckReport("isomorphism", True,
                                    details=_ladder_details(ts, gap)))
    assert entry.status == "pass" and entry.message == ""
