"""Form validation, diagonalization, decomposition, isometries."""

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import forms as fo
from bundleforms import semialg
from bundleforms.bundles import (
    BundleRep,
    gauss_embedding,
    sampled_regions,
    trivial_bundle,
    validate_cocycle,
    whitney_sum,
)
from bundleforms.catalog import (
    circle_base,
    circle_trivial,
    circle_two_arc_cover,
    full_cover,
    line_base,
    moebius,
    point_base,
)
from bundleforms.errors import (
    DimensionMismatch,
    InconsistentSignature,
    NearSingular,
    NonFiniteForm,
    OmegaViolation,
)
from bundleforms.forms import (
    NEARLY_SINGULAR,
    PIVOT_RATIO,
    FormField,
    SignatureType,
    blend_positive_subbundle,
    check_isometry,
    decompose,
    eigenvalue_signature,
    gram_schmidt_frame,
    hyperbolic_space,
    isometry_same_bundle,
    j_matrix,
    local_trivializing_cover,
    negate_form,
    orthogonal_sum,
    signature,
    signature_types,
    standard_positive_form,
    tensor_form,
    validate_form,
    _events_of,
    _gs_events,
)
from bundleforms.matexpr import em_const, em_eval
from bundleforms.reporting import Report, timed_entry
from bundleforms.semialg import Cover, SamplePlan
from helpers import (
    counting,
    interval,
    machine_task,
    nan_where_positive,
    reference_gram_schmidt_frame,
    reference_gs_events,
)

PLAN = SamplePlan(seed=0, n_chart=200, n_overlap=140, n_triple=90)


# --- gram_schmidt_frame -------------------------------------------------------

def test_gs_diagonal_rescaling():
    g, sig = gram_schmidt_frame(np.diag([4.0, -9.0]))
    assert (sig.pos, sig.neg) == (1, 1)
    assert np.allclose(g, np.diag([0.5, 1.0 / 3.0]))


def test_gs_hyperbolic_pair_fix():
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    g, sig = gram_schmidt_frame(s)
    # eigenvalue-sign oracle: one +1, one -1
    assert eigenvalue_signature(s) == SignatureType(1, 1)
    assert (sig.pos, sig.neg) == (1, 1)
    assert np.abs(g.T @ s @ g - j_matrix(sig)).max() < 1e-8


def test_gs_identity():
    g, sig = gram_schmidt_frame(np.eye(5))
    assert (sig.pos, sig.neg) == (5, 0)
    assert np.allclose(g, np.eye(5))


def test_gs_near_singular():
    with pytest.raises(NearSingular):
        gram_schmidt_frame(np.diag([1.0, 1e-14]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gs_sylvester_agreement_sample(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        d = int(rng.integers(1, 7))
        s = rng.normal(size=(d, d))
        s = 0.5 * (s + s.T)
        if abs(np.linalg.det(s)) <= 0.1:
            continue
        g, sig = gram_schmidt_frame(s)
        assert np.abs(g.T @ s @ g - j_matrix(sig)).max() < 1e-8
        assert sig == eigenvalue_signature(s)


def test_gs_congruence_invariance_sample():
    rng = np.random.default_rng(9)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        s = rng.normal(size=(d, d))
        s = 0.5 * (s + s.T) + np.eye(d)
        t = rng.normal(size=(d, d))
        if abs(np.linalg.det(t)) <= 0.1 or abs(np.linalg.det(s)) <= 0.1:
            continue
        _, sig1 = gram_schmidt_frame(s)
        _, sig2 = gram_schmidt_frame(t.T @ s @ t)
        assert sig1 == sig2


# --- validation ---------------------------------------------------------------

def test_validate_identity_form():
    b = circle_trivial(2)
    f = FormField.constant(b, np.eye(2))
    assert validate_form(f, PLAN).passed


def test_validate_indefinite_form():
    b = circle_trivial(2)
    f = FormField.constant(b, np.diag([1.0, -1.0]))
    assert validate_form(f, PLAN).passed


def test_validate_degenerate_form_fails():
    b = trivial_bundle(full_cover(line_base()), 2)
    x0 = ex.Var(0)
    f = FormField.from_upper(b, [[x0, ex.Const(0.0), ex.Const(1.0)]])
    report = validate_form(f, PLAN, tol=0.05)
    assert not report.passed
    assert report.min_abs_det < 0.05
    assert report.witness is not None and abs(report.witness[0]) < 0.05


def test_moebius_compatible_sign_form():
    # s_i = |x0|-weighted 1x1 fields would break compatibility; the constant
    # field is compatible because (+-1)^2 = 1
    m = moebius()
    f = FormField.constant(m, np.array([[1.0]]))
    assert validate_form(f, PLAN).passed


# --- standard positive form -----------------------------------------------------

def test_standard_positive_form_trivial():
    b = trivial_bundle(full_cover(line_base()), 3)
    f = standard_positive_form(b, plan=PLAN)
    pts = np.linspace(-2, 2, 7).reshape(-1, 1)
    assert np.allclose(f.eval_chart(0, pts),
                       np.broadcast_to(np.eye(3), (7, 3, 3)), atol=1e-12)


def test_standard_positive_form_moebius():
    m = moebius()
    f = standard_positive_form(m, plan=PLAN)
    report = validate_form(f, PLAN, tol=1e-9)
    assert report.passed, report.as_dict()
    for i in range(2):
        pts = m.cover.samples((i,), PLAN)
        vals = f.eval_chart(i, pts)[:, 0, 0]
        assert (vals > 0).all()


def test_standard_positive_form_reads_the_embeddings_gram_matrices():
    # A^T A is built once per embedding: every call, and every decompose,
    # reads the same nodes
    m = moebius()
    f1, f2 = (standard_positive_form(m, plan=PLAN) for _ in range(2))
    proj = gauss_embedding(m, plan=PLAN)
    assert len(f1.mats) == len(proj.grams) == 2
    for a, b, g in zip(f1.mats, f2.mats, proj.grams):
        assert all(x is y is z for ra, rb, rg in zip(a, b, g)
                   for x, y, z in zip(ra, rb, rg))
    assert decompose(f1, PLAN).proj is proj


# --- signature ------------------------------------------------------------------

def test_signature_identity_rank3():
    b = circle_trivial(3)
    f = FormField.constant(b, np.eye(3))
    assert signature(f, PLAN) == SignatureType(3, 0)


def test_signature_hyperbolic_over_circle():
    b = circle_trivial(2)
    f = FormField.constant(b, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert signature(f, PLAN) == SignatureType(1, 1)


def test_signature_variable_form_over_line():
    b = trivial_bundle(full_cover(line_base()), 2)
    one_plus = ex.Add(ex.Const(1.0), ex.Pow(ex.Var(0), 2))
    f = FormField.from_upper(b, [[one_plus, ex.Const(0.0), ex.Const(-1.0)]])
    assert signature(f, PLAN) == SignatureType(1, 1)


# --- local trivializing cover ----------------------------------------------------

def test_trivializing_cover_constant_form():
    b = circle_trivial(2)
    f = FormField.constant(b, np.diag([2.0, -3.0]))
    cover = local_trivializing_cover(f, PLAN)
    assert len(cover.charts) == 2  # one pattern per parent chart
    for tc in cover.charts:
        pts = b.cover.samples((tc.parent,), PLAN)
        g = em_eval(tc.frame, pts)
        s = f.eval_chart(tc.parent, pts)
        res = np.abs(np.swapaxes(g, 1, 2) @ s @ g - j_matrix(tc.sig)).max()
        assert res < 1e-8


def test_trivializing_cover_replays_a_hyperbolic_pair_fix(monkeypatch):
    # both diagonals vanish: the symbolic replay must add slot 1 to slot 0
    b = trivial_bundle(full_cover(line_base()), 2)
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = FormField.constant(b, s)
    patterns = []
    replay = fo._symbolic_gs

    def spy(s_mat, events):
        patterns.append(events)
        return replay(s_mat, events)

    monkeypatch.setattr(fo, "_symbolic_gs", spy)
    (tc,) = local_trivializing_cover(f, PLAN).charts
    assert patterns == [(("fix", 0, 1), ("pivot", 0, 1.0), ("pivot", 1, -1.0))]
    assert tc.sig == SignatureType(1, 1)
    pts = b.cover.samples((0,), PLAN)
    assert tc.chart.membership(pts).all()
    g = em_eval(tc.frame, pts)
    assert np.abs(np.swapaxes(g, 1, 2) @ s @ g - np.diag([1.0, -1.0])).max() < 1e-12


def test_trivializing_cover_splits_on_pivot_change():
    b = trivial_bundle(full_cover(line_base()), 2)
    x0 = ex.Var(0)
    minus_two_x0 = ex.Mul(ex.Const(-2.0), x0)
    f = FormField.from_upper(b, [[x0, ex.Const(1.0), minus_two_x0]])
    cover = local_trivializing_cover(f, PLAN)
    assert len(cover.charts) >= 2
    for tc in cover.charts:
        region = tc.chart.intersect(b.base.sset)
        from bundleforms.semialg import sample
        pts, _ = sample(region, PLAN, b.base.box, 60)
        if pts.shape[0] == 0:
            continue
        g = em_eval(tc.frame, pts)
        s = f.eval_chart(tc.parent, pts)
        res = np.abs(np.swapaxes(g, 1, 2) @ s @ g - j_matrix(tc.sig)).max()
        assert res < 1e-8


# --- decomposition ---------------------------------------------------------------

def test_decompose_already_split():
    b = trivial_bundle(full_cover(line_base()), 2)
    f = FormField.constant(b, np.diag([1.0, -1.0]))
    pair = decompose(f, PLAN)
    assert pair.sig == SignatureType(1, 1)
    pts = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert np.allclose(em_eval(pair.plus[0], pts),
                       np.broadcast_to(np.diag([1.0, 0.0]), (9, 2, 2)), atol=1e-10)
    assert np.allclose(em_eval(pair.minus[0], pts),
                       np.broadcast_to(np.diag([0.0, 1.0]), (9, 2, 2)), atol=1e-10)


def test_decompose_hyperbolic_eigenprojectors():
    b = trivial_bundle(full_cover(line_base()), 2)
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = FormField.constant(b, s)
    pair = decompose(f, PLAN)
    pts = np.zeros((1, 1))
    # oracle: eigenvectors (1, +-1)/sqrt(2)
    vplus = np.array([1.0, 1.0]) / np.sqrt(2)
    want = np.outer(vplus, vplus)
    assert np.abs(em_eval(pair.plus[0], pts)[0] - want).max() < 1e-10


def test_decompose_positive_definite():
    b = trivial_bundle(full_cover(line_base()), 2)
    f = FormField.constant(b, np.diag([2.0, 5.0]))
    pair = decompose(f, PLAN)
    assert pair.sig == SignatureType(2, 0)
    pts = np.zeros((1, 1))
    assert np.allclose(em_eval(pair.plus[0], pts)[0], np.eye(2), atol=1e-10)
    assert np.allclose(em_eval(pair.minus[0], pts)[0], 0.0, atol=1e-10)


def test_decompose_moebius_twisted_positive():
    m = moebius()
    f = standard_positive_form(m, plan=PLAN)
    pair = decompose(f, PLAN)
    assert pair.sig == SignatureType(1, 0)
    rep = pair.check(PLAN, tol=1e-8)
    assert rep.passed, rep.as_dict()
    min_pos, _ = pair.restricted_definiteness(PLAN)
    assert min_pos > 0


def test_decompose_hyperbolic_over_moebius():
    m = moebius()
    bundle, form = hyperbolic_space(m)
    assert validate_cocycle(bundle, PLAN).passed
    pair = decompose(form, PLAN)
    assert pair.sig == SignatureType(1, 1)
    rep = pair.check(PLAN, tol=1e-8)
    assert rep.passed, rep.as_dict()
    min_pos, max_neg = pair.restricted_definiteness(PLAN)
    assert min_pos > 0 and max_neg < 0


# --- blend cross-validation -------------------------------------------------------

def _blend_fixture():
    base = line_base()
    b = trivial_bundle(full_cover(base), 2)
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = FormField.constant(b, s)
    rt = 1.0 / np.sqrt(2.0)
    h = em_const(np.array([[rt, rt], [rt, -rt]]))
    return base, b, f, h


def test_blend_zero_weight_gives_standard_subspace():
    base, b, f, h = _blend_fixture()
    nu = em_const(np.array([[1.0], [1.0]]))
    proj = blend_positive_subbundle(h, 1, nu, ex.Const(0.0))
    pts = np.zeros((1, 1))
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.abs(em_eval(proj, pts)[0] - np.outer(v, v)).max() < 1e-10


def test_blend_full_weight_reproduces_nu():
    base, b, f, h = _blend_fixture()
    nu = em_const(np.array([[1.0], [0.3]]))   # s-positive: s(v,v) = 0.6 > 0
    proj = blend_positive_subbundle(h, 1, nu, ex.Const(1.0))
    pts = np.zeros((1, 1))
    v = np.array([1.0, 0.3])
    v = v / np.linalg.norm(v)
    assert np.abs(em_eval(proj, pts)[0] - np.outer(v, v)).max() < 1e-10


def test_blend_midway_positive_restriction():
    base, b, f, h = _blend_fixture()
    nu = em_const(np.array([[1.0], [0.3]]))
    proj = blend_positive_subbundle(h, 1, nu, ex.Const(0.5))
    pts = np.zeros((1, 1))
    p = em_eval(proj, pts)[0]
    u, sv, _ = np.linalg.svd(p)
    basis = u[:, :1]
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    restricted = basis.T @ s @ basis
    assert np.linalg.eigvalsh(restricted).min() > 0


def test_blend_omega_violation():
    base, b, f, h = _blend_fixture()
    nu = em_const(np.array([[1.0], [-0.3]]))  # s(v,v) = -0.6: not in Omega
    with pytest.raises(OmegaViolation):
        blend_positive_subbundle(h, 1, nu, ex.Const(0.5),
                                 overlap_pts=np.zeros((1, 1)))


def test_blend_agrees_with_decompose_on_aligned_fixture():
    base, b, f, h = _blend_fixture()
    pair = decompose(f, PLAN)
    nu = em_const(np.array([[1.0], [1.0]]))   # the spectral positive subspace
    mu = ex.Div(ex.Const(1.0), ex.Add(ex.Const(1.0), ex.Pow(ex.Var(0), 2)))
    proj = blend_positive_subbundle(h, 1, nu, mu)
    pts = np.linspace(-2, 2, 21).reshape(-1, 1)
    blended = em_eval(proj, pts)
    spectral = em_eval(pair.plus[0], pts)
    assert np.abs(blended - spectral).max() < 1e-6


# --- sums, tensors, hyperbolic spaces ----------------------------------------------

POINT = point_base()


def point_form(matrix):
    b = trivial_bundle(full_cover(POINT), matrix.shape[0])
    return FormField.constant(b, matrix)


def test_orthogonal_sum_signature():
    f1 = point_form(np.eye(1))
    f2 = point_form(np.diag([-1.0]))
    s = orthogonal_sum(f1, f2)
    assert signature(s, PLAN) == SignatureType(1, 1)


def test_a_sum_of_forms_on_one_refined_cover_pairs_each_chart_with_itself():
    # both forms live on a Whitney sum's refined cover, which the sum keeps:
    # chart k of f + (-f) holds f's chart-k matrix, not its parent's.  A
    # cocycle with a factor 2 makes the charts' standard forms differ
    m = moebius()
    scaled = BundleRep(circle_two_arc_cover(m.base), 1,
                       {(0, 1): ((ex.Const(2.0),),)}, name="scaled")
    f = standard_positive_form(whitney_sum(m, scaled), PLAN)
    total = orthogonal_sum(f, negate_form(f))
    assert total.bundle.cover is f.bundle.cover
    assert validate_form(total, PLAN).passed
    pts = f.bundle.base.sample_points(PLAN)
    for mat, own in zip(total.mats, f.mats):
        assert em_eval(mat, pts)[:, :2, :2].tobytes() == em_eval(own, pts).tobytes()


def test_tensor_signature_law():
    f1 = point_form(np.diag([1.0, -1.0]))
    f2 = point_form(np.eye(1))
    t = tensor_form(f1, f2)
    assert signature(t, PLAN) == SignatureType(1, 1)


def test_tensor_with_a_rank_zero_form_is_the_rank_zero_form():
    m = moebius()
    f0 = FormField(trivial_bundle(m.cover, 0), [()] * m.cover.n_charts, name="0")
    f1 = FormField.constant(trivial_bundle(full_cover(m.base), 1), np.eye(1))
    for a, b in ((f0, f1), (f1, f0)):
        t = tensor_form(a, b)
        assert t.rank == 0 and t.mats == [()] * t.bundle.cover.n_charts


def test_sum_with_rank_zero_is_identity():
    f = point_form(np.eye(2))
    zero_bundle = trivial_bundle(f.bundle.cover, 0)
    zero_form = FormField(zero_bundle, [()] if False else [tuple()], name="0")
    out = orthogonal_sum(f, zero_form)
    assert out is f


def test_signature_laws_against_eigen_oracle():
    rng = np.random.default_rng(5)
    for _ in range(6):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s1 = rng.normal(size=(d1, d1))
        s1 = 0.5 * (s1 + s1.T) + np.eye(d1) * 0.3
        s2 = rng.normal(size=(d2, d2))
        s2 = 0.5 * (s2 + s2.T) - np.eye(d2) * 0.2
        if abs(np.linalg.det(s1)) < 0.1 or abs(np.linalg.det(s2)) < 0.1:
            continue
        f1, f2 = point_form(s1), point_form(s2)
        a = eigenvalue_signature(s1)
        c = eigenvalue_signature(s2)
        got_sum = signature(orthogonal_sum(f1, f2), PLAN)
        assert (got_sum.pos, got_sum.neg) == (a.pos + c.pos, a.neg + c.neg)
        got_tensor = signature(tensor_form(f1, f2), PLAN)
        want = eigenvalue_signature(np.kron(s1, s2))
        assert got_tensor == want
        assert (got_tensor.pos, got_tensor.neg) == (
            a.pos * c.pos + a.neg * c.neg, a.pos * c.neg + a.neg * c.pos)


def test_hyperbolic_space_trivial_line():
    b = trivial_bundle(full_cover(line_base()), 1)
    total, form = hyperbolic_space(b)
    assert total.rank == 2
    pts = np.zeros((1, 1))
    assert np.allclose(form.eval_chart(0, pts)[0],
                       np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert signature(form, PLAN) == SignatureType(1, 1)


def test_hyperbolic_space_moebius_compatibility():
    m = moebius()
    total, form = hyperbolic_space(m)
    rep = validate_form(form, PLAN, tol=1e-9)
    assert rep.passed, rep.as_dict()
    assert signature(form, PLAN) == SignatureType(1, 1)


def test_hyperbolic_rank3_signature():
    b = trivial_bundle(full_cover(line_base()), 3)
    total, form = hyperbolic_space(b)
    assert signature(form, PLAN) == SignatureType(3, 3)


# --- isometries ------------------------------------------------------------------

def test_positive_isometry_scalar():
    b = trivial_bundle(full_cover(line_base()), 2)
    f = FormField.constant(b, np.eye(2))
    g = FormField.constant(b, 4.0 * np.eye(2))
    w = isometry_same_bundle(f, g, PLAN)
    pts = np.zeros((1, 1))
    assert np.allclose(em_eval(w.morphism.fields[0], pts)[0], 0.5 * np.eye(2))
    assert check_isometry(w, PLAN, tol=1e-10).passed


def test_positive_isometry_random_spd_pair():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    s = a @ a.T + 0.5 * np.eye(4)
    b_mat = rng.normal(size=(4, 4))
    sp = b_mat @ b_mat.T + 0.5 * np.eye(4)
    b = trivial_bundle(full_cover(line_base()), 4)
    w = isometry_same_bundle(FormField.constant(b, s),
                             FormField.constant(b, sp), PLAN)
    rep = check_isometry(w, PLAN, tol=1e-10)
    assert rep.passed, rep.as_dict()


def test_positive_isometry_rejects_indefinite():
    b = trivial_bundle(full_cover(line_base()), 2)
    f = FormField.constant(b, np.eye(2))
    g = FormField.constant(b, np.diag([1.0, -1.0]))
    with pytest.raises(InconsistentSignature, match="signatures differ") as err:
        isometry_same_bundle(f, g, PLAN)
    assert err.value.types == [SignatureType(2, 0), SignatureType(1, 1)]


def test_positive_isometry_rejects_a_nan_form_at_its_point():
    # the signature names the first sample where the form is NaN, before
    # the congruence Gram-Schmidt sees the matrix
    b = trivial_bundle(full_cover(line_base()), 2)
    x = ex.Var(0)
    off = ex.ZeroGate(ex.Sub(x, ex.Const(0.5)), ex.Const(np.nan))
    f = FormField.from_upper(b, [[ex.Const(1.0), off, ex.Const(1.0)]],
                             name="nan-right")
    g = FormField.constant(b, np.eye(2))
    with pytest.raises(NonFiniteForm, match="form nan-right is not finite "
                       "at") as err:
        isometry_same_bundle(f, g, PLAN)
    pts = b.cover.samples((0,), PLAN)
    first = pts[int(np.argmax(pts[:, 0] > 0.5))]
    assert str(err.value).endswith(f" at {tuple(first.tolist())}")
    assert err.value.point == tuple(first.tolist())


def test_positive_isometry_on_moebius():
    m = moebius()
    f = standard_positive_form(m, plan=PLAN)
    g = FormField.constant(m, np.array([[2.0]]))
    w = isometry_same_bundle(f, g, PLAN)
    assert check_isometry(w, PLAN, tol=1e-8).passed


def test_check_isometry_identity():
    b = circle_trivial(2)
    f = FormField.constant(b, np.eye(2))
    from bundleforms.bundles import MorphismField
    from bundleforms.forms import IsometryWitness
    from bundleforms.matexpr import em_identity
    w = IsometryWitness(MorphismField(b, b, [em_identity(2), em_identity(2)]), f, f)
    rep = check_isometry(w, PLAN)
    assert rep.passed and rep.max_residual == 0.0


def test_accepted_witnesses_connect_equal_signatures():
    # every accepted isometry witness connects forms whose sampled
    # signatures agree, across a few random constant pairs
    rng = np.random.default_rng(21)
    b = trivial_bundle(full_cover(line_base()), 3)
    for _ in range(5):
        s = rng.normal(size=(3, 3))
        s = 0.5 * (s + s.T) + np.diag([1.5, 1.5, -1.5])
        q = rng.normal(size=(3, 3))
        while abs(np.linalg.det(q)) < 0.2:
            q = rng.normal(size=(3, 3))
        s2 = q.T @ s @ q                 # congruent: same signature
        if abs(np.linalg.det(s)) < 0.1:
            continue
        f1 = FormField.constant(b, s)
        f2 = FormField.constant(b, s2)
        w = isometry_same_bundle(f1, f2, PLAN)
        rep = check_isometry(w, PLAN, tol=1e-8)
        assert rep.passed, rep.as_dict()
        assert signature(f1, PLAN) == signature(f2, PLAN)


def test_check_isometry_signature_obstruction():
    b = trivial_bundle(full_cover(line_base()), 2)
    f = FormField.constant(b, np.eye(2))
    g = FormField.constant(b, np.diag([1.0, -1.0]))
    from bundleforms.bundles import MorphismField
    from bundleforms.matexpr import em_identity
    from bundleforms.forms import IsometryWitness
    w = IsometryWitness(MorphismField(b, b, [em_identity(2)]), f, g)
    assert not check_isometry(w, PLAN).passed


def test_check_isometry_keeps_the_determinant_witness():
    # the isomorphism part fails only on |det u| = 1e-4 |x0| near x0 = 0;
    # the form residual |u^T 1 u - 0| <= 1e-8 passes, and its peak near
    # |x0| = 1 must not take the witness over
    from bundleforms.bundles import MorphismField
    from bundleforms.forms import IsometryWitness
    m = moebius()
    x0 = ex.Mul(ex.Const(1e-4), ex.Var(0))
    u = MorphismField(m, m, [((x0,),),
                             ((ex.Mul(x0, ex.Const(1.0 + 2.0 ** -50)),),)])
    w = IsometryWitness(u, FormField.constant(m, np.zeros((1, 1))),
                        FormField.constant(m, np.eye(1)))
    rep = check_isometry(w, SamplePlan(0, 200, 100, 60), tol=1e-6)
    assert not rep.passed
    assert 1e-10 < rep.max_residual < 1e-6 and rep.min_abs_det < 1e-6
    assert 1e-4 * abs(rep.witness[0]) == pytest.approx(rep.min_abs_det)


# --- a non-finite value fails its check at its first point -------------------

def nan_line_form():
    """A form on the trivial plane bundle over the line: the identity, with
    NaN off the diagonal where x0 > 0.5; and that first sample of its chart."""
    b = trivial_bundle(full_cover(line_base()), 2)
    off = nan_where_positive(ex.Sub(ex.Var(0), ex.Const(0.5)))
    f = FormField.from_upper(b, [[ex.Const(1.0), off, ex.Const(1.0)]], name="nan")
    pts = b.cover.samples((0,), PLAN)
    return f, tuple(pts[int(np.argmax(pts[:, 0] > 0.5))].tolist())


def test_validate_form_fails_at_the_first_nan_entry():
    f, first = nan_line_form()
    report = validate_form(f, PLAN)
    assert not report.passed and report.witness == first
    task = machine_task(report)
    assert task["status"] == "fail" and task["max_residual"] == "nan"


def test_check_isometry_fails_at_the_first_nan_residual():
    from bundleforms.bundles import MorphismField
    from bundleforms.forms import IsometryWitness
    from bundleforms.matexpr import em_identity
    f, first = nan_line_form()
    g = FormField.constant(f.bundle, np.eye(2))
    w = IsometryWitness(MorphismField(f.bundle, f.bundle, [em_identity(2)]), f, g)
    report = check_isometry(w, PLAN)
    assert not report.passed and report.witness == first
    assert machine_task(report)["status"] == "fail"


def test_decomposition_check_fails_at_the_first_nan_projector():
    import dataclasses
    b = trivial_bundle(full_cover(line_base()), 2)
    pair = decompose(FormField.constant(b, np.diag([2.0, -1.0])), PLAN)
    assert pair.check(PLAN).passed
    gate = nan_where_positive(ex.Sub(ex.Var(0), ex.Const(0.5)))
    plus = [tuple(tuple(ex.Add(e, gate) for e in row) for row in mat)
            for mat in pair.plus]
    report = dataclasses.replace(pair, plus=plus).check(PLAN)
    pts = b.cover.samples((0,), PLAN)
    assert not report.passed
    assert report.witness == tuple(pts[int(np.argmax(pts[:, 0] > 0.5))].tolist())
    assert machine_task(report)["status"] == "fail"


def test_trivializing_cover_names_its_first_stuck_sample():
    f, first = nan_line_form()
    with pytest.raises(NearSingular, match="no usable pivot") as err:
        local_trivializing_cover(f, PLAN)
    assert err.value.point == first


def test_signature_names_the_first_sample_without_a_pivot():
    # pivots below PIVOT_RATIO * 1e12 = 100 are unusable: the second one is
    # 1e4 (0.5 - x0), floored at 1, so every sample with x0 >= 0.49 is stuck
    b = trivial_bundle(full_cover(line_base()), 2)
    x = ex.Var(0)
    low = ex.Max(ex.Const(1.0), ex.Mul(ex.Const(1e4), ex.Sub(ex.Const(0.5), x)))
    f = FormField.from_upper(b, [[ex.Const(1e12), ex.Const(0.0), low]])
    pts = b.cover.samples((0,), PLAN)
    stuck = np.maximum(1.0, 1e4 * (0.5 - pts[:, 0])) <= PIVOT_RATIO * 1e12
    assert stuck.any() and not stuck.all()
    with pytest.raises(NearSingular, match="no usable pivot") as err:
        signature(f, PLAN)
    assert err.value.point == tuple(pts[int(np.argmax(stuck))].tolist())


# --- batched Gram-Schmidt engine against the per-matrix reference -------------

def _adversarial_rows(d):
    """Exact ties, hyperbolic blocks and pivots at the PIVOT_RATIO edge."""
    rows = [np.eye(d), np.diag([(-1.0) ** k for k in range(d)])]
    hyp = np.zeros((d, d))
    for k in range(0, d - 1, 2):
        hyp[k, k + 1] = hyp[k + 1, k] = 1.0
    if d % 2:
        hyp[-1, -1] = -1.0
    rows.append(hyp)
    # every diagonal at, just above or just below PIVOT_RATIO * scale with
    # scale 1: the pivot test and the hyperbolic-pair fix sit on the edge
    edge = PIVOT_RATIO * 1.0
    for t in (edge, np.nextafter(edge, 1.0), np.nextafter(edge, 0.0)):
        rows.append(np.ones((d, d)) - np.eye(d) + t * np.eye(d))
    return rows


def _engine_stack(d, seed):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(300, d, d))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    zero_diag = s[:100].copy()
    zero_diag[:, np.arange(d), np.arange(d)] = 0.0
    ints = np.triu(rng.integers(-1, 2, size=(200, d, d)).astype(float))
    ints = ints + np.triu(ints, 1).transpose(0, 2, 1)
    return np.concatenate([s, zero_diag, ints, np.array(_adversarial_rows(d))])


@pytest.mark.parametrize("d", range(1, 7))
def test_gs_engine_matches_reference_per_row(d):
    stack = _engine_stack(d, 300 + d)
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1e-30)
    cols, signs, events, stuck = _gs_events(stack, scale)
    usable = 0
    for k, s in enumerate(stack):
        try:
            ref_events, ref_cols, ref_signs = reference_gs_events(s, scale[k])
        except NearSingular:
            assert stuck[k], k
            continue
        assert not stuck[k], k
        assert _events_of(events[k], d) == tuple(ref_events), k
        np.testing.assert_array_equal(cols[k], ref_cols)
        np.testing.assert_array_equal(signs[k], ref_signs)
        usable += 1
    assert usable > 300


@pytest.mark.parametrize("d", range(1, 7))
def test_gs_frame_stack_matches_reference_types(d):
    stack = _engine_stack(d, 400 + d)
    keep, want = [], []
    for s in stack:
        try:
            want.append(reference_gram_schmidt_frame(s))
        except (NearSingular, DimensionMismatch):
            continue
        keep.append(s)
    frames, pos = gram_schmidt_frame(np.array(keep))
    assert [(int(p), d - int(p)) for p in pos] == [sig for _, sig in want]
    for frame, (ref_frame, _) in zip(frames, want):
        np.testing.assert_array_equal(frame, ref_frame)
    # a single matrix goes through the same engine
    g, sig = gram_schmidt_frame(keep[-1])
    assert (sig.pos, sig.neg) == want[-1][1]
    np.testing.assert_array_equal(g, want[-1][0])


def _bad_row(kind, d):
    if kind == "asymmetric":
        s = np.eye(d)
        s[0, 1] = 0.5
    elif kind == "singular":
        s = np.diag([1.0] * (d - 1) + [0.0])
    else:   # passes the determinant floor, but no pivot or pair is usable
        s = np.diag([1e-11] + [1.0] * (d - 1))
    return s


@pytest.mark.parametrize("order", [("asymmetric", "singular", "no-pair"),
                                   ("singular", "no-pair", "asymmetric"),
                                   ("no-pair", "asymmetric", "singular")])
@pytest.mark.parametrize("d", [2, 4])
def test_gs_stack_raises_for_first_bad_row(order, d):
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(12, d, d))
    stack = 0.5 * (stack + np.swapaxes(stack, 1, 2)) + 3 * np.eye(d)
    for pos, kind in zip((5, 7, 9), order):
        stack[pos] = _bad_row(kind, d)
    want = None
    for s in stack:                      # the per-matrix loop, in stack order
        try:
            reference_gram_schmidt_frame(s)
        except (NearSingular, DimensionMismatch) as err:
            want = err
            break
    assert want is not None
    with pytest.raises(type(want)) as got:
        gram_schmidt_frame(stack)
    assert str(got.value) == str(want)


# --- closed-form typing against the engine -----------------------------------

ULP = 2.0 ** -52


def typing_outcome(typer, stack, points):
    """The types `typer` gives the stack, or its error's type, message and
    point."""
    try:
        return typer(stack, points).tolist()
    except (NearSingular, DimensionMismatch) as err:
        return type(err), str(err), err.point


def gram_schmidt_frame_outcome(stack, points):
    return typing_outcome(lambda s, p: gram_schmidt_frame(s, p)[1], stack, points)


def random_type_rows(rng, d, n):
    """n symmetric Gaussian d x d rows scaled to sizes 1e-150 to 1e150,
    the first third of them to sizes 1e-3 to 1e3."""
    s = rng.standard_normal((n, d, d))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    exponents = rng.uniform(-150.0, 150.0, (n, 1, 1))
    exponents[: n // 3] = rng.uniform(-3.0, 3.0, (n // 3, 1, 1))
    return s / np.abs(s).max(axis=(1, 2), keepdims=True) * 10.0 ** exponents


def adversarial_type_rows(rng, d):
    """Rows at the edges of the closed form's test and of the engine's:
    |det| on both sides of each floor, pivots on both sides of
    PIVOT_RATIO sigma, zero diagonals, asymmetry on both sides of
    `isclose`'s 1e-12, huge, tiny, NaN and infinite entries."""
    steps = (1.0 + np.arange(-12, 13) * ULP)[:, None]
    if d == 1:
        edges = np.concatenate([
            NEARLY_SINGULAR * steps,
            NEARLY_SINGULAR * (1.0 + np.array([[-1e-9], [1e-11], [1e-10], [2e-10], [1e-9]])),
            [[0.0], [-0.0], [5e-324], [1e-300], [1e300], [1.7e308],
             [np.nan], [np.inf], [-np.inf]]])
        return np.concatenate([edges, -edges])[:, :, None]
    rows = []
    for sigma in (1e-4, 1e-3, 1.0, 1e6, 1e150, 1e154, 1.5e154):
        for b in (sigma, -sigma):
            # hyperbolic: both diagonals at or around PIVOT_RATIO sigma
            for t in (0.0, -0.0, 1e-11, 1e-10, -1e-10, 1.000001e-10, 9.99999e-11):
                rows += [[[t * sigma, b], [b, 0.0]], [[t * sigma, b], [b, -t * sigma]],
                         [[0.0, b], [b, t * sigma]]]
            # a diagonal pivot on both sides of PIVOT_RATIO sigma
            for t in (1e-10, 1.000001e-10, 9.99999e-11, 1e-9):
                rows += [[[t * sigma, b], [b, 0.5 * t * sigma]],
                         [[t * sigma, 0.1 * b], [0.1 * b, -t * sigma]]]
            # |det| on both sides of 1e-8 sigma^2 and 1e-12 + 1e-10 sigma^2
            for floor in (1e-8 * sigma * sigma, NEARLY_SINGULAR + 1e-10 * sigma * sigma):
                for f in (1.0 - 1e-6, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-6):
                    for det in (f * floor, -f * floor):
                        for a in (sigma, 0.3 * sigma, -sigma):
                            rows.append([[a, b], [b, (det + b * b) / a]])
                            rows.append([[a, 0.5 * b], [0.5 * b, (det + 0.25 * b * b) / a]])
            # asymmetry inside and outside isclose's 1e-12
            for gap in (1e-13, 1e-12, 1e-11, 4 * ULP * sigma):
                rows.append([[sigma, 0.5 * b], [0.5 * b + gap, -sigma]])
    base = np.array([[2.0, 0.5], [0.5, -3.0]])
    for bad in (np.nan, np.inf, -np.inf):
        for k in range(4):
            row = base.copy()
            row.flat[k] = bad
            rows.append(row)
    rows = np.array(rows, dtype=float)
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_types_match_the_engine_row_by_row(d):
    rng = np.random.default_rng(35 + d)
    stack = np.concatenate([random_type_rows(rng, d, 3000),
                            adversarial_type_rows(rng, d)])
    points = rng.standard_normal((len(stack), 2))
    outcomes = set()
    for k in range(len(stack)):
        one, at = stack[k:k + 1], points[k:k + 1]
        engine = gram_schmidt_frame_outcome(one, at)
        assert typing_outcome(signature_types, one, at) == engine, stack[k]
        outcomes.add(engine[0] if isinstance(engine, tuple) else "typed")
    # both kinds of error, and typed rows, occur
    assert {"typed", NearSingular} <= outcomes
    if d == 2:
        assert DimensionMismatch in outcomes


@pytest.mark.parametrize("d", [1, 2])
def test_closed_form_stack_raises_for_the_engines_first_bad_row(monkeypatch, d):
    rng = np.random.default_rng(70 + d)
    adversarial = adversarial_type_rows(rng, d)
    points = rng.standard_normal((len(adversarial) + 60, 3))
    for start in range(0, len(adversarial), 7):
        stack = np.concatenate([random_type_rows(rng, d, 60)[:30],
                                adversarial[start:start + 7],
                                random_type_rows(rng, d, 60)[:30]])
        at = points[:len(stack)]
        assert (typing_outcome(signature_types, stack, at)
                == gram_schmidt_frame_outcome(stack, at))
    # Gaussian rows at moderate scales never reach the engine
    stack = random_type_rows(rng, d, 3000)[:1000]
    want = gram_schmidt_frame(stack)[1].tolist()
    sent = counting(monkeypatch, fo, "gram_schmidt_frame")
    assert signature_types(stack, points[:1].repeat(1000, axis=0)).tolist() == want
    assert sent == []


def test_numpy_one_by_one_determinant_is_not_the_entry_but_close():
    # numpy forms det as exp(sum log |u_ii|), so a 1 x 1 determinant is
    # not s bit for bit; the closed form's margin covers a relative
    # 3 * 745 u, which the worst case over all exponents stays inside
    rng = np.random.default_rng(3)
    s = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-300.0, 300.0, 200_000)
    det = np.linalg.det(s[:, None, None])
    assert (det != s).any()
    assert np.abs(det / s - 1.0).max() < 3 * 745 * 2.0 ** -53
    near = NEARLY_SINGULAR * (1.0 + np.arange(1, 4000) * ULP)
    assert (np.linalg.det(near[:, None, None]) != near).any()


def test_signature_types_its_samples_without_the_engine(monkeypatch):
    b = trivial_bundle(full_cover(line_base()), 2)
    x0 = ex.Var(0)
    f = FormField.from_upper(b, [[ex.Add(ex.Const(1.0), ex.Mul(x0, x0)), x0,
                                  ex.Const(-2.0)]])
    sent = counting(monkeypatch, fo, "gram_schmidt_frame")
    assert signature(f, PLAN) == SignatureType(1, 1)
    assert sent == []


def test_signature_reports_first_sample_of_each_type():
    line = line_base()
    cover = Cover(line, [interval(hi=0.5), interval(lo=-0.5)], name="two")
    b = trivial_bundle(cover, 3)
    x0 = ex.Var(0)
    zero = ex.Const(0.0)
    f = FormField.from_upper(b, [[x0, zero, zero, ex.Sub(x0, ex.Const(1.0)), zero,
                                  ex.Add(x0, ex.Const(1.0))]] * 2)
    seen = {}
    for (i,), pts, ev in sampled_regions(cover, PLAN, 1):
        for k, s in enumerate(ev(f.mats[i])):
            seen.setdefault(reference_gram_schmidt_frame(s)[1], tuple(pts[k]))
    assert len(seen) == 4
    with pytest.raises(InconsistentSignature) as got:
        signature(f, PLAN)
    assert [(t.pos, t.neg) for t in got.value.types] == sorted(seen)
    assert got.value.points == [seen[k] for k in sorted(seen)]


def test_disagreeing_signature_names_the_first_sample_of_the_second_type():
    b = trivial_bundle(full_cover(line_base()), 1)
    f = FormField(b, [((ex.Var(0),),)], name="x0")
    order = {}
    for _, pts, ev in sampled_regions(b.cover, PLAN, 1):
        for pt, s in zip(pts, ev(f.mats[0])):
            order.setdefault(s[0, 0] > 0, tuple(pt.tolist()))
    with pytest.raises(InconsistentSignature) as got:
        signature(f, PLAN)
    assert got.value.point == list(order.values())[1]
    # so the CLI's error entry names it
    with timed_entry(Report(seed=0), "signature") as entry:
        signature(f, PLAN)
    assert entry.witness_point == list(got.value.point)


def test_a_form_with_no_sampled_point_says_so():
    b = trivial_bundle(Cover(line_base(), [interval(lo=5.0)], name="far"), 1)
    f = FormField(b, [((ex.Var(0),),)], name="x0")
    with pytest.raises(InconsistentSignature,
                       match="no chart of form x0 sampled a point") as got:
        signature(f, PLAN)
    assert got.value.types == [] and got.value.point is None


def test_signature_types_the_base_samples_without_sampling_a_chart(monkeypatch):
    # the sum lives on the refinement of two covers of one circle, whose
    # charts the sum's signature never samples: it types the base's own
    # samples, each in every chart that holds it
    base = circle_base()
    f1 = FormField.constant(trivial_bundle(circle_two_arc_cover(base), 1),
                            np.eye(1))
    f2 = FormField.constant(trivial_bundle(circle_two_arc_cover(base), 1),
                            -np.eye(1))
    s = orthogonal_sum(f1, f2)
    assert s.bundle.cover.n_charts == 4
    memo = base.sample_memo(PLAN)
    samples = counting(monkeypatch, semialg, "sample")
    batches = counting(monkeypatch, semialg.Base, "region_memos")
    interned = []
    intern = semialg.Base.intern

    def kept(*args):
        interned.append(intern(*args))
        return interned[-1]

    monkeypatch.setattr(semialg.Base, "intern", kept)
    assert signature(s, PLAN) == SignatureType(1, 1)
    assert samples == []
    assert [regions for _, regions, *_ in batches] == [[base.sset]]
    assert len(interned) == 4
    assert sum(map(len, interned)) >= len(memo)
    first = list(interned)
    interned.clear()
    assert signature(s, PLAN) == SignatureType(1, 1)
    assert len(interned) == 4
    assert all(a is b for a, b in zip(interned, first))
    assert samples == []


@pytest.mark.parametrize("lo, hi, held", [(0.3, 0.4, True), (1.1, 1.13, False)])
def test_signature_checks_a_thin_chart(lo, hi, held):
    # chart 1 is a band that holds a few of the base's samples or, too
    # narrow for any, is typed at its own sample: its matrix has another
    # type than chart 0's, and the signature finds it there
    b = trivial_bundle(Cover(line_base(), [interval(lo=-5.0),
                                           interval(lo=lo, hi=hi)]), 1)
    f = FormField(b, [((ex.Const(1.0),),), ((ex.Const(-1.0),),)], name="thin")
    pts = b.base.sample_points(PLAN)
    inside = (pts[:, 0] > lo) & (pts[:, 0] < hi)
    assert inside.any() == held and inside.sum() < 0.05 * len(pts)
    with pytest.raises(InconsistentSignature, match="sampled types disagree") as got:
        signature(f, PLAN)
    assert got.value.types == [SignatureType(0, 1), SignatureType(1, 0)]
    typed = pts[inside] if held else b.cover.samples((1,), PLAN)
    assert got.value.point == tuple(typed[0].tolist())


def test_trivializing_cover_raises_for_stuck_row():
    b = trivial_bundle(full_cover(line_base()), 2)
    x0 = ex.Var(0)
    # x0^2 * 1e-11 next to 1: near x0 = 0 no pivot or pair is usable
    tiny = ex.Mul(ex.Const(1e-11), ex.Mul(x0, x0))
    f = FormField.from_upper(b, [[tiny, ex.Const(0.0), ex.Const(1.0)]])
    with pytest.raises(NearSingular, match="no usable pivot"):
        local_trivializing_cover(f, PLAN)
