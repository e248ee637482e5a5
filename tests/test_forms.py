"""Form validation, diagonalization, decomposition, isometries."""

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import forms as fo
from bundleforms.bundles import sampled_regions, trivial_bundle, validate_cocycle
from bundleforms.catalog import (
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
    NotPositive,
    OmegaViolation,
)
from bundleforms.forms import (
    PIVOT_RATIO,
    FormField,
    SignatureType,
    blend_positive_subbundle,
    check_isometry,
    decompose,
    eigenvalue_signature,
    gram_schmidt_frame,
    hyperbolic_space,
    j_matrix,
    local_trivializing_cover,
    negate_form,
    orthogonal_sum,
    positive_isometry,
    signature,
    standard_positive_form,
    tensor_form,
    validate_form,
    _events_of,
    _gs_events,
)
from bundleforms.matexpr import em_const, em_eval
from bundleforms.semialg import Cover, SamplePlan
from helpers import interval, reference_gram_schmidt_frame, reference_gs_events

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
    report = validate_form(f, PLAN, det_floor=0.05)
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


def test_tensor_signature_law():
    f1 = point_form(np.diag([1.0, -1.0]))
    f2 = point_form(np.eye(1))
    t = tensor_form(f1, f2)
    assert signature(t, PLAN) == SignatureType(1, 1)


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
    w = positive_isometry(f, g, PLAN)
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
    w = positive_isometry(FormField.constant(b, s),
                          FormField.constant(b, sp), PLAN)
    rep = check_isometry(w, PLAN, tol=1e-10)
    assert rep.passed, rep.as_dict()


def test_positive_isometry_rejects_indefinite():
    b = trivial_bundle(full_cover(line_base()), 2)
    f = FormField.constant(b, np.eye(2))
    g = FormField.constant(b, np.diag([1.0, -1.0]))
    with pytest.raises(NotPositive):
        positive_isometry(f, g, PLAN)


def test_positive_isometry_on_moebius():
    m = moebius()
    f = standard_positive_form(m, plan=PLAN)
    g = FormField.constant(m, np.array([[2.0]]))
    w = positive_isometry(f, g, PLAN)
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
    from bundleforms.forms import isometry_same_bundle
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


def test_trivializing_cover_raises_for_stuck_row():
    b = trivial_bundle(full_cover(line_base()), 2)
    x0 = ex.Var(0)
    # x0^2 * 1e-11 next to 1: near x0 = 0 no pivot or pair is usable
    tiny = ex.Mul(ex.Const(1e-11), ex.Mul(x0, x0))
    f = FormField.from_upper(b, [[tiny, ex.Const(0.0), ex.Const(1.0)]])
    with pytest.raises(NearSingular, match="no usable pivot"):
        local_trivializing_cover(f, PLAN)
