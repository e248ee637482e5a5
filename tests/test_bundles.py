"""Cocycle validation, bundle algebra, sections, and the projector bridge."""

from fractions import Fraction

import numpy as np
import pytest

from bundleforms import bundles as bu
from bundleforms import expr as ex
from bundleforms.bundles import (
    BundleRep,
    MorphismField,
    ProjectorField,
    SectionRep,
    bundle_from_projector,
    check_isomorphism,
    coefficients,
    complement,
    dual,
    gauss_embedding,
    generating_sections,
    hom,
    projector_frames,
    pullback,
    s1_line_class,
    sampled_regions,
    section_value_matrix,
    splitting_witness,
    tensor,
    trivial_bundle,
    validate_cocycle,
    whitney_sum,
)
from bundleforms.catalog import (
    circle_base,
    circle_two_arc_cover,
    circle_trivial,
    cylinder_base,
    cylinder_projection_map,
    full_cover,
    line_base,
    moebius,
    moebius_corrupted,
    plane_base,
    scrambled_plane_bundle,
)
from bundleforms.errors import (
    CoverageFailure,
    GeneratorsDegenerate,
    GuardViolation,
    NoChartFound,
)
from bundleforms.matexpr import em_const, em_eval, em_identity, em_inv, em_transpose
from bundleforms.semialg import GT, Condition, Cover, Polynomial, SamplePlan, SemialgebraicSet

PLAN = SamplePlan(seed=0, n_chart=220, n_overlap=160, n_triple=100)


# --- the sampled-region walk -------------------------------------------------

def test_sampled_regions_visit_order_and_points():
    m = moebius()
    charts = [(idx, pts) for idx, pts, _ in sampled_regions(m.cover, PLAN, 1)]
    assert [idx for idx, _ in charts] == [(0,), (1,)]
    assert all(np.array_equal(pts, m.cover.samples((i,), PLAN))
               for (i,), pts in charts)
    overlaps = [(idx, pts) for idx, pts, _ in sampled_regions(m.cover, PLAN, 2)]
    assert [idx for idx, _ in overlaps] == [(0, 1), (1, 0)]
    assert all(np.array_equal(pts, m.cover.samples((0, 1), PLAN))
               for _, pts in overlaps)
    assert list(sampled_regions(m.cover, PLAN, 3)) == []


def test_sampled_regions_share_one_context_per_visit(monkeypatch):
    misses = []
    compute = ex.MatrixGroup.compute

    def counted(self, ctx):
        if id(self) not in ctx.group_cache:
            misses.append(self.op)
        return compute(self, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "compute", counted)
    m = moebius()
    inv = em_inv(m.transition(0, 1))
    for _, pts, ev in sampled_regions(m.cover, PLAN, 2):
        assert np.array_equal(ev(inv), em_eval(inv, pts))
        assert np.array_equal(ev(em_transpose(inv)), ev(inv).swapaxes(1, 2))
    # one computation per visit for the two evaluations through `ev`, and
    # one for each separate em_eval call
    assert misses == ["inv"] * 4


# --- cocycle validation -----------------------------------------------------

def test_moebius_cocycle_passes_exactly():
    report = validate_cocycle(moebius(), PLAN)
    assert report.passed
    # constant-sign transitions: the residual is exactly zero
    assert report.max_residual == 0.0
    assert report.min_abs_det == pytest.approx(1.0)


def test_moebius_overlap_components_by_hand():
    # enumeration oracle: the overlap has one component with x0 > 0 where
    # g01 = +1 and one with x0 < 0 where g01 = -1
    m = moebius()
    pts = m.cover.samples((0, 1), PLAN)
    assert pts.shape[0] > 0
    vals = em_eval(m.transition(0, 1), pts)[:, 0, 0]
    assert set(np.sign(pts[:, 0])) == {-1.0, 1.0}
    assert np.array_equal(vals, np.sign(pts[:, 0]))


def test_corrupted_moebius_fails_with_witness():
    report = validate_cocycle(moebius_corrupted(), PLAN)
    assert not report.passed
    assert report.max_residual == pytest.approx(2.0)  # |(-1) - 1|
    assert report.witness is not None and report.witness[0] < 0


def test_single_chart_trivial_passes_vacuously():
    b = trivial_bundle(full_cover(line_base()), 3)
    report = validate_cocycle(b, PLAN)
    assert report.passed and report.max_residual == 0.0


def three_arc_cover():
    """{x1 < 1/2}, {x1 > -1/2}, {x0 > 1/2}: all three meet where x0 > sqrt(3)/2."""
    x0, x1 = Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)
    half = Polynomial.constant(2, Fraction(1, 2))
    arcs = [half - x1, x1 + half, x0 - half]
    return Cover(circle_base(), [SemialgebraicSet(2, [[Condition.from_poly(p, GT)]])
                                 for p in arcs], name="three-arcs")


def test_triple_cocycle_law_is_certified():
    plan = SamplePlan(seed=0, n_chart=120, n_overlap=80, n_triple=60)
    cover = three_arc_cover()
    assert cover.samples((0, 1, 2), plan).shape[0] > 0
    trivial = validate_cocycle(trivial_bundle(cover, 1), plan)
    assert trivial.passed
    assert trivial.details["cocycle_residual"] == 0.0
    # g_13 = g_31 = -1 and +1 elsewhere: every g_ij g_ji = 1, but
    # g_12 g_23 = 1 != g_13 on the triple overlap
    sign = {(i, j): -1.0 if {i, j} == {0, 2} else 1.0
            for i in range(3) for j in range(3) if i != j}
    twisted = BundleRep(cover, 1, {k: em_const(np.array([[v]]))
                                   for k, v in sign.items()}, name="twisted")
    report = validate_cocycle(twisted, plan)
    assert not report.passed
    assert report.details["identity_residual"] == 0.0
    assert report.details["cocycle_residual"] == 2.0
    assert report.max_residual == 2.0
    assert report.witness[0] > np.sqrt(3.0) / 2.0


# --- bundle algebra ---------------------------------------------------------

def test_rank_laws():
    m = moebius()
    e1 = circle_trivial(1, m.cover)
    assert whitney_sum(e1, e1).rank == 2
    assert tensor(m, m).rank == 1
    assert dual(m).rank == 1
    assert hom(m, whitney_sum(e1, e1)).rank == 2


def test_tensor_with_trivial_line_keeps_transitions():
    m = moebius()
    e1 = circle_trivial(1, m.cover)
    t = tensor(e1, m)
    pts = m.cover.samples((0, 1), PLAN)
    got = em_eval(t.transition(0, 1), pts)
    want = em_eval(m.transition(0, 1), pts)
    assert np.allclose(got, want, atol=1e-14)


def test_dual_of_moebius_equals_moebius():
    # (+-1)^(-T) = +-1 on the two overlap components
    m = moebius()
    d = dual(m)
    pts = m.cover.samples((0, 1), PLAN)
    got = em_eval(d.transition(0, 1), pts)[:, 0, 0]
    assert np.allclose(got, np.sign(pts[:, 0]), atol=1e-14)
    assert validate_cocycle(d, PLAN).passed


def test_algebra_closure_random_constant_cocycles():
    rng = np.random.default_rng(11)
    cover = circle_two_arc_cover()
    for _ in range(4):
        g = rng.normal(size=(2, 2))
        while abs(np.linalg.det(g)) < 0.3:
            g = rng.normal(size=(2, 2))
        b = BundleRep(cover, 2, {(0, 1): em_const(g),
                                 (1, 0): em_const(np.linalg.inv(g))},
                      name="random-const")
        assert validate_cocycle(b, PLAN).passed
        for derived in (whitney_sum(b, b), tensor(b, b), dual(b)):
            rep = validate_cocycle(derived, PLAN)
            assert rep.passed, rep.as_dict()


def test_pullback_identity_and_constant():
    from bundleforms.semialg import Polynomial
    m = moebius()
    ident = [Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)]
    back = pullback(m, ident, circle_base(), PLAN)
    pts = back.cover.samples((0, 1), PLAN)
    got = em_eval(back.transition(0, 1), pts)[:, 0, 0]
    assert np.array_equal(got, np.sign(pts[:, 0]))
    assert validate_cocycle(back, PLAN).passed


def test_pullback_moebius_to_cylinder():
    m = moebius()
    cyl = cylinder_base(circle_base())
    back = pullback(m, cylinder_projection_map(circle_base()), cyl, PLAN)
    assert validate_cocycle(back, PLAN).passed
    pts = back.cover.samples((0, 1), PLAN)
    got = em_eval(back.transition(0, 1), pts)[:, 0, 0]
    assert np.array_equal(got, np.sign(pts[:, 0]))  # t-independent


def test_pullback_along_constant_map_is_constant():
    from bundleforms.semialg import Polynomial
    m = moebius()
    # constant map from the line into the right overlap component
    const = [Polynomial.constant(1, 1), Polynomial.constant(1, 0)]
    back = pullback(m, const, line_base(), PLAN)
    pts = np.linspace(-2, 2, 9).reshape(-1, 1)
    vals = em_eval(back.transition(0, 1), pts)[:, 0, 0]
    assert np.all(vals == 1.0)          # constant cocycle, trivializable
    assert validate_cocycle(back, PLAN).passed


# --- sections and coefficients ----------------------------------------------

def test_generating_sections_trivial_single_chart():
    b = trivial_bundle(full_cover(line_base()), 2)
    system = generating_sections(b, r=1, plan=PLAN)
    assert len(system.sections) == 2
    pts = np.linspace(-2, 2, 9).reshape(-1, 1)
    mat = section_value_matrix(system.sections, 0, pts)
    assert np.allclose(mat, np.broadcast_to(np.eye(2), (9, 2, 2)))


def test_generating_sections_moebius():
    m = moebius()
    system = generating_sections(m, r=1, plan=PLAN)
    assert len(system.sections) == 2
    for chart in range(2):
        pts = m.cover.samples((chart,), PLAN)
        mat = section_value_matrix(system.sections, chart, pts)
        sv = np.linalg.svd(mat, compute_uv=False)[:, 0]
        assert (sv > 1e-9).all()      # rank 1 everywhere sampled
    for s in system.sections:
        rep = s.check(PLAN, tol=1e-9)
        assert rep.passed, rep.as_dict()


def test_coefficients_trivial_unique_solve():
    b = trivial_bundle(full_cover(line_base()), 2)
    system = generating_sections(b, r=1, plan=PLAN)
    target = SectionRep(b, [((ex.Const(1.0),), (ex.Const(0.0),))])
    coeffs = coefficients(target, system, PLAN)
    pts = np.linspace(-2, 2, 11).reshape(-1, 1)
    assert np.allclose(ex.evaluate(coeffs[0], pts), 1.0)
    assert np.allclose(ex.evaluate(coeffs[1], pts), 0.0)


def test_coefficients_reconstruct_moebius_section():
    m = moebius()
    system = generating_sections(m, r=1, plan=PLAN)
    target = system.sections[0]
    coeffs = coefficients(target, system, PLAN)
    for chart in range(2):
        pts = m.cover.samples((chart,), PLAN)
        gen_vals = section_value_matrix(system.sections, chart, pts)  # (N,1,2)
        coef_vals = np.stack([ex.evaluate(c, pts) for c in coeffs], axis=1)
        recon = (gen_vals @ coef_vals[:, :, None])[:, :, 0]
        want = em_eval(target.values[chart], pts)[:, :, 0]
        assert np.abs(recon - want).max() < 1e-8


def test_coefficients_refined_chart_count(monkeypatch):
    # each Moebius chart needs both generators' minors: 2 charts x 2 subsets
    seen = []
    glue = bu.partition_of_unity

    def spy(cover, *, plan):
        seen.append(cover.n_charts)
        return glue(cover, plan=plan)

    m = moebius()
    system = generating_sections(m, r=1, plan=PLAN)
    monkeypatch.setattr(bu, "partition_of_unity", spy)
    coefficients(system.sections[0], system, PLAN)
    assert seen == [4]


def test_coefficients_degenerate_generators():
    b = trivial_bundle(full_cover(line_base()), 1)
    system = generating_sections(b, r=1, plan=PLAN)
    zero = SectionRep(b, [((ex.Const(0.0),),)])
    system.sections[0] = zero
    with pytest.raises(GeneratorsDegenerate):
        coefficients(zero, system, PLAN)


# --- projector bridge -------------------------------------------------------

def test_gauss_embedding_trivial_single_chart():
    b = trivial_bundle(full_cover(line_base()), 2)
    proj = gauss_embedding(b, plan=PLAN)
    assert proj.ambient == 2 and proj.rank == 2
    pts = np.linspace(-2, 2, 7).reshape(-1, 1)
    p = proj.eval(pts)
    assert np.allclose(p, np.broadcast_to(np.eye(2), (7, 2, 2)), atol=1e-12)


def test_gauss_embedding_moebius_idempotent_trace_one():
    proj = gauss_embedding(moebius(), plan=PLAN)
    assert proj.ambient == 2 and proj.rank == 1
    pts = proj.base.sample_points(PLAN)
    p = proj.eval(pts)
    assert np.abs(p @ p - p).max() < 1e-8
    assert np.abs(p - np.swapaxes(p, 1, 2)).max() < 1e-8
    assert np.abs(np.trace(p, axis1=1, axis2=2) - 1.0).max() < 1e-6


def test_bundle_from_constant_projector():
    base = line_base()
    proj = ProjectorField(base, em_const(np.diag([1.0, 0.0])), 1)
    b = bundle_from_projector(proj, PLAN)
    assert b.rank == 1 and b.cover.n_charts == 1
    assert validate_cocycle(b, PLAN).passed


def test_bundle_from_zero_projector():
    base = line_base()
    proj = ProjectorField(base, em_const(np.zeros((2, 2))), 0)
    b = bundle_from_projector(proj, PLAN)
    assert b.rank == 0


def test_moebius_projector_round_trip_keeps_class():
    m = moebius()
    proj = gauss_embedding(m, plan=PLAN)
    rebuilt = bundle_from_projector(proj, PLAN)
    assert rebuilt.rank == 1
    assert validate_cocycle(rebuilt, PLAN).passed
    assert s1_line_class(rebuilt) == 1


def test_moebius_projector_frame_subsets():
    rebuilt = bundle_from_projector(gauss_embedding(moebius(), plan=PLAN), PLAN)
    assert rebuilt.frame_subsets == [(0,), (1,)]


def test_round_trip_projector_range_agrees():
    m = moebius()
    proj = gauss_embedding(m, plan=PLAN)
    rebuilt = bundle_from_projector(proj, PLAN)
    proj2 = ProjectorField(proj.base, proj.entries, proj.rank)  # original
    pts = proj.base.sample_points(PLAN)
    p1 = proj.eval(pts)
    # range comparison: P applied to the rebuilt frames reproduces them
    for frame in projector_frames(rebuilt):
        f = em_eval(frame, pts)
        assert np.abs(p1 @ f - f).max() < 1e-6


def test_no_chart_found_for_bad_projector():
    base = line_base()
    # symmetric idempotent nowhere: rank says 1 but matrix is near-zero
    proj = ProjectorField(base, em_const(np.diag([1e-9, 0.0])), 1)
    with pytest.raises(NoChartFound):
        bundle_from_projector(proj, PLAN)


def test_complement_of_trivial_is_rank_zero():
    b = trivial_bundle(full_cover(line_base()), 2)
    comp = complement(b, plan=PLAN)
    assert comp.rank == 0


def test_moebius_complement_and_splitting_witness():
    m = moebius()
    proj = gauss_embedding(m, plan=PLAN)
    comp = complement(m, plan=PLAN)
    assert comp.rank == proj.ambient - 1
    total, triv, witness = splitting_witness(m, comp, proj)
    report = check_isomorphism(total, triv, witness, PLAN, tol=1e-6)
    assert report.passed, report.as_dict()
    # the certified isomorphism preserves the determinant class
    assert s1_line_class(total) == s1_line_class(triv) == 0


# --- isomorphism checking and the determinant class --------------------------

def test_identity_witness_passes():
    m = moebius()
    u = MorphismField(m, m, [em_identity(1), em_identity(1)])
    report = check_isomorphism(m, m, u, PLAN)
    assert report.passed and report.max_residual == 0.0


def test_singular_witness_fails_with_point():
    m = moebius()
    zero = ex.Const(0.0)
    u = MorphismField(m, m, [((zero,),), ((zero,),)])  # det = 0 at every sample
    report = check_isomorphism(m, m, u, PLAN, tol=1e-6)
    assert not report.passed
    assert report.min_abs_det == 0.0
    assert report.witness is not None


def test_s1_line_class_values():
    m = moebius()
    assert s1_line_class(m) == 1
    assert s1_line_class(circle_trivial(1, m.cover)) == 0
    assert s1_line_class(whitney_sum(m, m)) == 0
    assert s1_line_class(tensor(m, m)) == 0


def _circle_cover(*polys):
    charts = [SemialgebraicSet(2, [[Condition.from_poly(p, GT)]]) for p in polys]
    return Cover(circle_base(), charts)


def _coord(i):
    return Polynomial.coordinate(2, i)


def _tenth():
    return Polynomial.constant(2, Fraction(1, 10))


def test_s1_line_class_start_not_covered():
    cover = _circle_cover(Polynomial.constant(2, Fraction(9, 10)) - _coord(0))
    with pytest.raises(CoverageFailure, match="loop start not covered"):
        s1_line_class(trivial_bundle(cover, 1))


def test_s1_line_class_no_chart_chain():
    # {x1 > 0.1} and {x1 < 0.1} leave the points with x1 = 0.1 uncovered
    cover = _circle_cover(_coord(1) - _tenth(), _tenth() - _coord(1))
    with pytest.raises(CoverageFailure) as err:
        s1_line_class(trivial_bundle(cover, 1))
    assert str(err.value) == "no chart chain near loop angle 0.100167"


def test_s1_line_class_zero_transition_has_witness():
    zero = ((ex.Const(0.0),),)
    b = BundleRep(circle_two_arc_cover(), 1, {(0, 1): zero, (1, 0): zero})
    with pytest.raises(GuardViolation, match="degenerate transition") as err:
        s1_line_class(b)
    assert err.value.point == pytest.approx(
        (0.8703556959398997, 0.49242356010346705), abs=1e-12)


def test_scrambled_plane_bundle_validates():
    b = scrambled_plane_bundle(plane_base())
    assert validate_cocycle(b, PLAN).passed
