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
    scrambled_plane_bundle,
)
from bundleforms.errors import (
    CoverageFailure,
    GeneratorsDegenerate,
    ImageEscapesBase,
    GuardViolation,
    NoChartFound,
    NotCatalogBase,
    RankDrop,
)
from bundleforms.matexpr import em_const, em_eval, em_identity, em_inv, em_transpose
from bundleforms.unity import partition_of_unity
from bundleforms.semialg import (GT, Condition, Cover, Polynomial, SamplePlan,
                                 SemialgebraicSet, memberships)
from helpers import counting, machine_task, named_point, nan_where_positive

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
    system = generating_sections(b, plan=PLAN)
    assert len(system.sections) == 2
    pts = np.linspace(-2, 2, 9).reshape(-1, 1)
    mat = section_value_matrix(system.sections, 0,
                               lambda matrix: em_eval(matrix, pts))
    assert np.allclose(mat, np.broadcast_to(np.eye(2), (9, 2, 2)))


def test_generating_sections_moebius():
    m = moebius()
    system = generating_sections(m, plan=PLAN)
    assert len(system.sections) == 2
    for chart in range(2):
        pts = m.cover.samples((chart,), PLAN)
        mat = section_value_matrix(system.sections, chart,
                                   lambda matrix: em_eval(matrix, pts))
        sv = np.linalg.svd(mat, compute_uv=False)[:, 0]
        assert (sv > 1e-9).all()      # rank 1 everywhere sampled
    for s in system.sections:
        rep = s.check(PLAN)
        assert rep.passed, rep.as_dict()


def test_nan_transition_is_a_rank_drop_at_its_point():
    # LAPACK's SVD raised LinAlgError on NaN section values, with no point
    m = moebius()
    nan = ((ex.Const(np.nan),),)
    bundle = BundleRep(m.cover, 1, {(0, 1): nan, (1, 0): nan}, name="nan")
    with pytest.raises(RankDrop, match="section values drop below rank 1"
                       ) as err:
        generating_sections(bundle, plan=PLAN)
    # chart 0's first sample where the weight of chart 1, which gates the
    # NaN transition, is positive
    pts = m.cover.samples((0,), PLAN)
    weight = partition_of_unity(m.cover, plan=PLAN).weights[1]
    first = pts[int(np.argmax(ex.evaluate(weight, pts) > 0.0))]
    assert str(err.value).endswith(f" at {tuple(first.tolist())}")


def test_coefficients_trivial_unique_solve():
    b = trivial_bundle(full_cover(line_base()), 2)
    system = generating_sections(b, plan=PLAN)
    target = SectionRep(b, [((ex.Const(1.0),), (ex.Const(0.0),))])
    coeffs = coefficients(target, system, PLAN)
    pts = np.linspace(-2, 2, 11).reshape(-1, 1)
    assert np.allclose(ex.evaluate(coeffs[0], pts), 1.0)
    assert np.allclose(ex.evaluate(coeffs[1], pts), 0.0)


def test_coefficients_reconstruct_moebius_section():
    m = moebius()
    system = generating_sections(m, plan=PLAN)
    target = system.sections[0]
    coeffs = coefficients(target, system, PLAN)
    for chart in range(2):
        pts = m.cover.samples((chart,), PLAN)
        gen_vals = section_value_matrix(system.sections, chart,
                                        lambda matrix: em_eval(matrix, pts))  # (N,1,2)
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
    system = generating_sections(m, plan=PLAN)
    monkeypatch.setattr(bu, "partition_of_unity", spy)
    coefficients(system.sections[0], system, PLAN)
    assert seen == [4]


def test_coefficients_degenerate_generators():
    b = trivial_bundle(full_cover(line_base()), 1)
    system = generating_sections(b, plan=PLAN)
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


# --- the block-sum embedding of a Whitney sum ---------------------------------

def _moebius_plus_trivial(shared: bool):
    """moebius + eps^1, and the sum's parent chart pairs: eps^1 on moebius's
    own cover (the sum keeps it, parents (k, k)) or on a second two-arc cover
    of its base (the sum lives on their four-chart refinement)."""
    m = moebius()
    t = circle_trivial(1, m.cover if shared else circle_two_arc_cover(m.base))
    total = whitney_sum(m, t)
    parents = [(0, 0), (1, 1)] if shared else total.cover.parents
    return m, t, total, parents


@pytest.mark.parametrize("shared", [False, True])
def test_a_sum_embeds_as_the_block_diagonal_of_its_summands_kept_embeddings(shared):
    m, t, total, parents = _moebius_plus_trivial(shared)
    assert total.summands == (m, t) and total.cover.n_charts == len(parents)
    proj = gauss_embedding(total, plan=PLAN)
    e1, e2 = (b.certified[("gauss embedding", PLAN)] for b in (m, t))
    assert proj.ambient == e1.ambient + e2.ambient == 4 and proj.rank == 2
    pts = total.base.sample_points(PLAN)

    def block_diag(a, b):
        out = np.zeros((len(pts), a.shape[1] + b.shape[1], a.shape[2] + b.shape[2]))
        out[:, :a.shape[1], :a.shape[2]] = a
        out[:, a.shape[1]:, a.shape[2]:] = b
        return out

    assert proj.eval(pts).tobytes() == block_diag(e1.eval(pts), e2.eval(pts)).tobytes()
    # each chart's frame and Gram are its parent charts' blocks
    for k, (i, j) in enumerate(parents):
        for got, a, b in ((proj.frames[k], e1.frames[i], e2.frames[j]),
                          (proj.grams[k], e1.grams[i], e2.grams[j])):
            want = block_diag(em_eval(a, pts), em_eval(b, pts))
            assert em_eval(got, pts).tobytes() == want.tobytes()
    assert s1_line_class(total) == 1


@pytest.mark.parametrize("shared", [False, True])
def test_block_sum_weights_sum_to_one_and_vanish_off_their_chart(shared):
    _, _, total, _ = _moebius_plus_trivial(shared)
    proj = gauss_embedding(total, plan=PLAN)
    pts = total.base.sample_points(PLAN)
    weights = np.stack([ex.evaluate(w, pts) for w in proj.pou.weights], axis=1)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-12
    inside = memberships(total.cover.charts, pts, 0.0)
    assert (weights[~inside] == 0.0).all() and (weights >= 0.0).all()


@pytest.mark.parametrize("dropped, raises", [(0, True), (1, False), (2, False),
                                             (3, True)])
def test_a_refinement_that_drops_a_chart_certifies_or_names_a_point(monkeypatch,
                                                                    dropped, raises):
    # the refinement's probe keeps only intersections it samples; drop a
    # nonempty chart by hand.  The overlaps (0, 1) and (1, 0) are also held
    # by (0, 0) and (1, 1), so the sum still certifies; (0, 0) and (1, 1)
    # alone hold the arcs x1 < -1/2 and x1 > 1/2, where the kept weights'
    # denominator vanishes: an error at a sampled point of the dropped chart
    refined_with = Cover.refined_with

    def dropping(self, other):
        cover, parents = refined_with(self, other)
        keep = [k for k in range(cover.n_charts) if k != dropped]
        parents = [parents[k] for k in keep]
        return Cover(self.base, [cover.charts[k] for k in keep],
                     name=cover.name, parents=parents), parents

    monkeypatch.setattr(Cover, "refined_with", dropping)
    m, t, total, _ = _moebius_plus_trivial(shared=False)
    lost = refined_with(m.cover, t.cover)[0].charts[dropped]
    assert total.cover.n_charts == 3
    if raises:
        with pytest.raises(CoverageFailure,
                           match="partition denominator vanishes") as err:
            gauss_embedding(total, plan=PLAN)
        assert memberships([lost], np.array([err.value.point]), 0.0).all()
        assert total.certified == {}
    else:
        proj = gauss_embedding(total, plan=PLAN)
        pts = total.base.sample_points(PLAN)
        total_weight = sum(ex.evaluate(w, pts) for w in proj.pou.weights)
        assert np.abs(total_weight - 1.0).max() < 1e-12


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


def test_determinant_failure_names_its_own_point():
    # both fields are nearly equal multiples of x0, so the intertwining
    # residual is ~1e-20 and passes; |det| = 1e-4 |x0| fails near x0 = 0,
    # and a later residual peak must not take the witness over
    m = moebius()
    x0 = ex.Mul(ex.Const(1e-4), ex.Var(0))
    u = MorphismField(m, m, [((x0,),),
                             ((ex.Mul(x0, ex.Const(1.0 + 2.0 ** -50)),),)])
    report = check_isomorphism(m, m, u, SamplePlan(0, 200, 100, 60), tol=1e-6)
    assert not report.passed
    assert report.max_residual < 1e-18 and report.min_abs_det < 1e-6
    assert 1e-4 * abs(report.witness[0]) == pytest.approx(report.min_abs_det)


def test_projector_check_names_the_point_of_its_worst_residual():
    # idempotent with trace 1 everywhere; only the symmetry fails, by
    # clamp(x0 - 1/2), which is worst at x0 = 1
    off = ex.Clamp(ex.Sub(ex.Var(0), ex.Const(0.5)))
    one, zero = ex.Const(1.0), ex.Const(0.0)
    field = ProjectorField(circle_base(), ((one, off), (zero, zero)), 1)
    plan = SamplePlan(0, 200, 100, 60)
    report = field.check(plan)
    assert not report.passed
    assert report.max_residual > 0.49
    assert report.details["trace_error"] == 0.0
    assert report.witness[0] - 0.5 == pytest.approx(report.max_residual)


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


def test_s1_line_class_on_a_base_other_than_the_circle_is_not_a_catalog_base():
    bundle = trivial_bundle(full_cover(line_base()), 1)
    with pytest.raises(NotCatalogBase, match="needs a circle catalog base"):
        s1_line_class(bundle)
    assert bundle.certified == {}


def test_s1_line_class_of_rank_zero_is_not_a_catalog_base():
    bundle = trivial_bundle(circle_two_arc_cover(), 0)
    with pytest.raises(NotCatalogBase, match="needs rank >= 1"):
        s1_line_class(bundle)
    assert bundle.certified == {}


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
    _assert_names_its_angle(err.value)


def test_s1_line_class_uncovered_loop_angle_raises_before_halving(monkeypatch):
    # {x1 < 1/2} and {x1 > 0.9} leave the arc 1/2 <= x1 <= 0.9 uncovered:
    # the walk names its first grid angle, pi/6, and halves no step
    cover = _circle_cover(Polynomial.constant(2, Fraction(1, 2)) - _coord(1),
                          _coord(1) - Polynomial.constant(2, Fraction(9, 10)))
    flip = ((ex.Div(ex.Var(0), ex.Abs(ex.Var(0))),),)
    bundle = BundleRep(cover, 1, {(0, 1): flip, (1, 0): flip}, name="moebius")
    passes = counting(monkeypatch, Cover, "chart_memberships")
    with pytest.raises(CoverageFailure) as err:
        s1_line_class(bundle)
    assert str(err.value) == "circle loop angle 0.523599 not covered by any chart"
    assert err.value.point == pytest.approx((np.cos(np.pi / 6), 0.5), abs=1e-12)
    # the grid is the only membership pass
    assert [len(memo) for _, memo in passes] == [bu.LOOP_STEPS + 1]
    assert bundle.certified == {}


def test_s1_line_class_gap_below_the_step_floor_is_no_chart_chain():
    # {x1 > 0.1} and {1e6 (0.1 + 1e-9 - x1) > 0}: at margin 1e-9 they leave
    # a gap about 1e-15 wide in x1, which no halving down to 1e-9 meets
    x1 = ex.Var(1)
    conditions = [Condition(ex.Sub(x1, ex.Const(0.1)), GT),
                  Condition(ex.Mul(ex.Const(1e6), ex.Sub(ex.Const(0.1 + 1e-9), x1)),
                            GT)]
    cover = Cover(circle_base(), [SemialgebraicSet(2, [[c]]) for c in conditions])
    with pytest.raises(CoverageFailure) as err:
        s1_line_class(trivial_bundle(cover, 1))
    assert str(err.value) == "no chart chain near loop angle 0.100167"
    _assert_names_its_angle(err.value)


def _assert_names_its_angle(err):
    """The error's point is the loop point at the angle its message names."""
    angle = float(str(err).rsplit(" ", 1)[1])
    assert err.point == pytest.approx((np.cos(angle), np.sin(angle)), abs=1e-6)


def _plain_loop(cover):
    """The circle walk's loop halved one round at a time, each round's
    midpoints evaluated on their own, and its number of rounds."""
    def members(angles):
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        return memberships(cover.charts, pts, 1e-9)

    angles = np.append(2.0 * np.pi * np.arange(bu.LOOP_STEPS) / bu.LOOP_STEPS,
                       2.0 * np.pi)
    member, rounds = members(angles), 0
    while True:
        bad = np.flatnonzero(~(member[:-1] & member[1:]).any(axis=1))
        if not bad.size:
            return angles, member, rounds
        mids = 0.5 * (angles[bad] + angles[bad + 1])
        angles = np.insert(angles, bad + 1, mids)
        member = np.insert(member, bad + 1, members(mids), axis=0)
        rounds += 1


def _plain_class(bundle, angles, member):
    """The walk of `s1_line_class` along a given loop."""
    def sign(old, new, angle):
        at = [[np.cos(angle), np.sin(angle)]]
        return np.sign(np.linalg.det(em_eval(bundle.transition(new, old), at)[0]))

    start = current = int(np.argmax(member[0]))
    product = 1.0
    for i in range(len(angles) - 1):
        if not member[i + 1, current]:
            new = int(np.argmax(member[i] & member[i + 1]))
            product *= sign(current, new, angles[i])
            current = new
    if current != start:
        product *= sign(current, start, 0.0)
    return 0 if product > 0 else 1


def test_narrow_crossover_refines_one_round_at_a_time_as_plain_halving(monkeypatch):
    # {x1 > 0.1} and {x1 < 0.1001} overlap in two arcs about 1e-4 wide,
    # far narrower than a loop step of 2 pi / 720
    x1 = ex.Var(1)
    conditions = [Condition(ex.Sub(x1, ex.Const(0.1)), GT),
                  Condition(ex.Sub(ex.Const(0.1001), x1), GT)]
    cover = Cover(circle_base(), [SemialgebraicSet(2, [[c]]) for c in conditions])
    flip = ((ex.Div(ex.Var(0), ex.Abs(ex.Var(0))),),)
    bundle = BundleRep(cover, 1, {(0, 1): flip, (1, 0): flip})
    angles, member, rounds = _plain_loop(cover)
    assert rounds >= 5
    contexts = []                   # every context a chart condition is read in
    expressions = {c.expression for c in conditions}
    node_eval = ex.Expr.eval

    def recorded(node, ctx):
        if node in expressions and ctx not in contexts:
            contexts.append(ctx)
        return node_eval(node, ctx)

    monkeypatch.setattr(ex.Expr, "eval", recorded)
    assert s1_line_class(bundle) == _plain_class(bundle, angles, member) == 1
    # the loop grid, then one context for every round
    assert [len(ctx.points) for ctx in contexts][0] == bu.LOOP_STEPS + 1
    assert len(contexts) == 1 + rounds
    monkeypatch.undo()
    got_angles, got_member = bu.refined_loop(cover)
    assert got_angles.tobytes() == angles.tobytes()
    assert (got_member == member).all()


def test_s1_line_class_zero_transition_has_witness():
    zero = ((ex.Const(0.0),),)
    b = BundleRep(circle_two_arc_cover(), 1, {(0, 1): zero, (1, 0): zero})
    with pytest.raises(GuardViolation, match="degenerate transition") as err:
        s1_line_class(b)
    assert err.value.point == pytest.approx(
        (0.8703556959398997, 0.49242356010346705), abs=1e-12)


def test_s1_line_class_nan_transition_raises_at_its_angle():
    nan = ((ex.Const(np.nan),),)
    b = BundleRep(circle_two_arc_cover(), 1, {(0, 1): nan, (1, 0): nan})
    with pytest.raises(GuardViolation, match="determinant nan not finite") as err:
        s1_line_class(b)
    # the first switch of the walk, as for the zero transition above
    assert err.value.point == pytest.approx(
        (0.8703556959398997, 0.49242356010346705), abs=1e-12)


# --- a non-finite value fails its check at its first point -------------------

def nan_right(e):
    """`e` where x0 <= 0, NaN where x0 > 0."""
    return ex.Add(e, nan_where_positive(ex.Var(0)))


def first_right(pts) -> tuple:
    return tuple(pts[int(np.argmax(pts[:, 0] > 0))].tolist())


def test_validate_cocycle_fails_at_the_first_nan_transition():
    m = moebius()
    (s,), = m.transitions[(0, 1)]
    b = BundleRep(m.cover, 1, {(0, 1): ((nan_right(s),),), (1, 0): ((s,),)})
    report = validate_cocycle(b, PLAN)
    assert not report.passed
    assert report.witness == first_right(m.cover.samples((0, 1), PLAN))
    task = machine_task(report)
    assert task["status"] == "fail"
    assert task["max_residual"] == task["min_abs_det"] == "nan"


def test_check_isomorphism_fails_at_the_first_nan_field():
    m = moebius()
    one = ((ex.Const(1.0),),)
    u = MorphismField(m, m, [((nan_right(ex.Const(1.0)),),), one])
    report = check_isomorphism(m, m, u, PLAN)
    assert not report.passed
    assert report.witness == first_right(m.cover.samples((0,), PLAN))
    assert machine_task(report)["status"] == "fail"


def test_a_nan_projector_fails_at_its_first_nan_point():
    # 1 + (x0 - 1) (inf - inf) where x0 > 1: NaN right of 1, 1 elsewhere
    huge = ex.Pow(ex.Const(1e200), 2)
    entry = ex.Add(ex.Const(1.0), ex.ZeroGate(ex.Sub(ex.Var(0), ex.Const(1.0)),
                                              ex.Sub(huge, huge)))
    base = line_base()
    report = ProjectorField(base, ((entry,),), 1).check(PLAN)
    pts = base.sample_points(PLAN)
    assert not report.passed and np.isnan(report.max_residual)
    assert report.witness == tuple(pts[int(np.argmax(pts[:, 0] > 1.0))].tolist())
    assert machine_task(report)["status"] == "fail"


def test_scrambled_plane_bundle_validates():
    b = scrambled_plane_bundle()
    assert validate_cocycle(b, PLAN).passed


def test_escaping_image_and_witnesses_are_plain_floats():
    # x -> (x, x) leaves the circle at the line's first sample
    with pytest.raises(ImageEscapesBase, match="leaves the target base") as err:
        pullback(moebius(), [ex.Var(0), ex.Var(0)], line_base(), PLAN)
    assert named_point(str(err.value)) == tuple(
        line_base().sample_points(PLAN)[0].tolist())
    # 2 I is no projector, and a flipped transition is no cocycle: both
    # reports name their witness in Python floats
    base = circle_base()
    two = bu.ProjectorField(base, em_const(2.0 * np.eye(2)), 1)
    for report in (two.check(PLAN), validate_cocycle(moebius_corrupted(), PLAN)):
        assert not report.passed
        assert all(type(v) is float for v in report.witness)
