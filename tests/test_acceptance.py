"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  Criteria:

 1. cocycle soundness on the Moebius bundle and its corrupted variant
 2. partitions of unity on the two-arc circle and a three-chart line cover
 3. Sylvester agreement of the congruence frame with the eigenvalue oracle
 4. congruence invariance of the signature
 5. orthogonal-sum and tensor signature laws up to rank 4
 6. decomposition soundness on the catalog forms + blend cross-validation
 7. homotopy theorem for bundles on the Moebius cylinder
 8. homotopy theorem for bilinear spaces (SPD line family, indefinite form)
 9. determinant class values and Moebius + Moebius stabilization
10. contractible-base trivialization of a scrambled plane bundle
11. the K0-Witt correspondence on point, plane and circle
12. byte-identical machine reports for a fixed seed
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms.bundles import (
    check_isomorphism,
    s1_line_class,
    trivial_bundle,
    validate_cocycle,
    whitney_sum,
)
from bundleforms.catalog import (
    circle_base,
    circle_trivial,
    circle_two_arc_cover,
    cylinder_base,
    cylinder_projection_map,
    full_cover,
    line_base,
    moebius,
    moebius_corrupted,
    moebius_double_trivialization,
    plane_base,
    point_base,
    scrambled_plane_bundle,
)
from bundleforms.cli import run_tasks
from bundleforms.forms import (
    FormField,
    SignatureType,
    blend_positive_subbundle,
    check_isometry,
    decompose,
    eigenvalue_signature,
    gram_schmidt_frame,
    hyperbolic_space,
    j_matrix,
    orthogonal_sum,
    signature,
    standard_positive_form,
    tensor_form,
)
from bundleforms.homotopy import (
    homotopy_isometry,
    homotopy_isomorphism,
    product_cylinder_cover,
    trivialize_contractible,
)
from bundleforms.matexpr import em_const, em_eval
from bundleforms.rings import (
    cancellation_witness,
    delta,
    k0_class,
    nabla,
    roundtrip_k0,
    roundtrip_witt,
    witt_class,
    witt_is_zero,
    witt_neg,
    witt_add,
)
from bundleforms.semialg import Cover, SamplePlan, SemialgebraicSet, sample
from bundleforms.specfile import parse_spec
from bundleforms.unity import partition_of_unity
from helpers import interval

SPECS = Path(__file__).resolve().parent.parent / "demos" / "specs"


def announce(num, text):
    print(f"\nACCEPTANCE {num:2d}: {text}: PASS")


# --------------------------------------------------------------------------
# 1. Cocycle soundness.

def test_01_cocycle_soundness():
    plan = SamplePlan(seed=0, n_chart=600, n_overlap=1000, n_triple=200)
    m = moebius()
    pts = m.cover.samples((0, 1), plan)
    assert pts.shape[0] >= 1000
    report = validate_cocycle(m, plan, tol=1e-9)
    assert report.passed and report.max_residual == 0.0
    bad = validate_cocycle(moebius_corrupted(), plan, tol=1e-9)
    assert not bad.passed
    assert bad.witness is not None
    announce(1, "Moebius cocycle residual 0, corrupted variant fails")


# --------------------------------------------------------------------------
# 2. Partition of unity.

def _check_partition(cover, base_pts, plan):
    pou = partition_of_unity(cover, plan=plan)
    total = sum(ex.evaluate(w, base_pts) for w in pou.weights)
    assert np.abs(total - 1.0).max() < 1e-9
    for i, w in enumerate(pou.weights):
        vals = ex.evaluate(w, base_pts)
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12
        outside = ~cover.charts[i].membership(base_pts)
        if outside.any():
            assert np.all(vals[outside] == 0.0)


def test_02_partition_of_unity():
    plan = SamplePlan(seed=0, n_chart=500, n_overlap=300, n_triple=150)
    circle = circle_base()
    cover = circle_two_arc_cover(circle)
    angles = np.linspace(0, 2 * np.pi, 10000, endpoint=False)
    circle_pts = np.column_stack([np.cos(angles), np.sin(angles)])
    _check_partition(cover, circle_pts, plan)
    line = line_base()
    three = Cover(line, [interval(hi=-0.5), interval(lo=-1.0, hi=1.0),
                         interval(lo=0.5)], name="three-intervals")
    line_pts = np.linspace(-2.9, 2.9, 10000).reshape(-1, 1)
    _check_partition(three, line_pts, plan)
    announce(2, "partitions sum to 1 within 1e-9 at 10^4 samples")


# --------------------------------------------------------------------------
# 3 and 4. Sylvester agreement and congruence invariance.

def _random_symmetric(rng):
    d = int(rng.integers(1, 7))
    s = rng.normal(size=(d, d))
    return 0.5 * (s + s.T)


def test_03_sylvester_agreement():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        s = _random_symmetric(rng)
        if abs(np.linalg.det(s)) <= 0.1:
            continue
        g, sig = gram_schmidt_frame(s)
        assert np.abs(g.T @ s @ g - j_matrix(sig)).max() < 1e-8
        assert sig == eigenvalue_signature(s)
        checked += 1
    announce(3, "1000/1000 random frames match the eigenvalue-sign oracle")


def test_04_congruence_invariance():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        s = _random_symmetric(rng)
        d = s.shape[0]
        t = rng.normal(size=(d, d))
        if abs(np.linalg.det(s)) <= 0.1 or abs(np.linalg.det(t)) <= 0.1:
            continue
        _, sig1 = gram_schmidt_frame(s)
        _, sig2 = gram_schmidt_frame(t.T @ s @ t)
        assert sig1 == sig2
        checked += 1
    announce(4, "signature(T^t S T) = signature(S) for 1000 seeded T")


# --------------------------------------------------------------------------
# 5. Signature laws.

def test_05_signature_laws():
    plan = SamplePlan(seed=0, n_chart=32)
    point = point_base()
    rng = np.random.default_rng(5)

    def form_of(matrix):
        b = trivial_bundle(full_cover(point), matrix.shape[0])
        return FormField.constant(b, matrix)

    for d1 in range(1, 5):
        for d2 in range(1, 5 - d1 + 1):
            s1 = rng.normal(size=(d1, d1))
            s1 = 0.5 * (s1 + s1.T) + np.eye(d1) * 0.1
            s2 = rng.normal(size=(d2, d2))
            s2 = 0.5 * (s2 + s2.T) - np.eye(d2) * 0.1
            if (abs(np.linalg.det(s1)) <= 0.05
                    or abs(np.linalg.det(s2)) <= 0.05):
                continue
            a = eigenvalue_signature(s1)
            c = eigenvalue_signature(s2)
            f1, f2 = form_of(s1), form_of(s2)
            got_sum = signature(orthogonal_sum(f1, f2), plan)
            assert (got_sum.pos, got_sum.neg) == (a.pos + c.pos, a.neg + c.neg)
            got_tensor = signature(tensor_form(f1, f2), plan)
            assert got_tensor == eigenvalue_signature(np.kron(s1, s2))
            assert (got_tensor.pos, got_tensor.neg) == (
                a.pos * c.pos + a.neg * c.neg,
                a.pos * c.neg + a.neg * c.pos,
            )
    announce(5, "sum and tensor signature laws hold against the oracle")


# --------------------------------------------------------------------------
# 6. Decomposition soundness.

def test_06_decomposition_soundness():
    plan = SamplePlan(seed=0, n_chart=300, n_overlap=200, n_triple=100)
    catalog_forms = []
    m = moebius()
    catalog_forms.append(("moebius-positive",
                          standard_positive_form(m, plan=plan)))
    e2 = circle_trivial(2)
    catalog_forms.append(("hyperbolic-S1",
                          FormField.constant(e2, np.array([[0.0, 1.0],
                                                           [1.0, 0.0]]))))
    catalog_forms.append(("indefinite-S1",
                          FormField.constant(circle_trivial(2),
                                             np.diag([1.0, -1.0]))))
    hm, hform = hyperbolic_space(m)
    catalog_forms.append(("hyperbolic-moebius", hform))
    for name, form in catalog_forms:
        pair = decompose(form, plan)
        rep = pair.check(plan, tol=1e-8)
        assert rep.passed, (name, rep.as_dict())
        min_pos, max_neg = pair.restricted_definiteness(plan)
        if pair.sig.pos:
            assert min_pos > 0, name
        if pair.sig.neg:
            assert max_neg < 0, name
    # blend cross-validation on the aligned two-chart fixture
    line = line_base()
    b = trivial_bundle(full_cover(line), 2)
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = FormField.constant(b, s)
    pair = decompose(f, plan)
    rt = 1.0 / np.sqrt(2.0)
    h = em_const(np.array([[rt, rt], [rt, -rt]]))
    nu = em_const(np.array([[1.0], [1.0]]))
    mu = ex.Div(ex.Const(1.0), ex.Add(ex.Const(1.0), ex.Pow(ex.Var(0), 2)))
    proj = blend_positive_subbundle(h, 1, nu, mu)
    pts = np.linspace(-2, 2, 41).reshape(-1, 1)
    assert np.abs(em_eval(proj, pts) - em_eval(pair.plus[0], pts)).max() < 1e-6
    announce(6, "catalog decompositions definite on both parts; blend agrees")


# --------------------------------------------------------------------------
# 7. Homotopy theorem for bundles.

def test_07_homotopy_bundles():
    plan = SamplePlan(seed=0, n_chart=1000, n_overlap=500, n_triple=200)
    circle = circle_base()
    cyl = cylinder_base(circle)
    from bundleforms.bundles import pullback
    mc = pullback(moebius(), cylinder_projection_map(circle), cyl, plan,
                  name="moebius-cylinder")
    hw = homotopy_isomorphism(mc, plan, tol=1e-6)
    assert hw.report.passed, hw.report.as_dict()
    assert hw.report.max_residual < 1e-6
    assert hw.report.min_abs_det > 1e-6
    assert s1_line_class(hw.at_zero) == 1
    assert s1_line_class(hw.at_one) == 1
    announce(7, "Moebius-cylinder endpoints certified isomorphic")


# --------------------------------------------------------------------------
# 8. Homotopy theorem for bilinear spaces.

def test_08_homotopy_bilinear():
    plan = SamplePlan(seed=0, n_chart=300, n_overlap=200, n_triple=100)
    circle = circle_base()
    cyl = cylinder_base(circle)
    cover = product_cylinder_cover(
        cyl, list(circle_two_arc_cover(circle).charts),
        [(None, None), (None, None)])
    b = trivial_bundle(cover, 2)
    rng = np.random.default_rng(88)
    a_mat = rng.normal(size=(2, 2))
    s0 = a_mat @ a_mat.T + 0.4 * np.eye(2)
    c_mat = rng.normal(size=(2, 2))
    s1 = c_mat @ c_mat.T + 0.4 * np.eye(2)
    t = ex.Var(2)
    one_minus = ex.Sub(ex.Const(1.0), t)
    upper = [ex.Add(ex.Mul(one_minus, ex.Const(s0[i, j])),
                    ex.Mul(t, ex.Const(s1[i, j])))
             for i in range(2) for j in range(i, 2)]
    family = FormField.from_upper(b, [upper, upper], name="spd-line")
    hi = homotopy_isometry(family, plan, tol=1e-8)
    assert hi.report.passed, hi.report.as_dict()
    assert hi.report.max_residual < 1e-8

    indefinite = FormField.constant(b, np.diag([1.0, -1.0]))
    hi2 = homotopy_isometry(indefinite, plan, tol=1e-6)
    assert hi2.report.passed, hi2.report.as_dict()
    assert signature(hi2.at_zero, plan) == signature(hi2.at_one, plan)
    announce(8, "SPD line family and indefinite cylinder form certified")


# --------------------------------------------------------------------------
# 9. Non-triviality and stabilization.

def test_09_line_class_and_stabilization():
    plan = SamplePlan(seed=0, n_chart=400, n_overlap=250, n_triple=120)
    m = moebius()
    assert s1_line_class(m) == 1
    assert s1_line_class(circle_trivial(1, m.cover)) == 0
    total, triv, witness = moebius_double_trivialization(plan=plan)
    report = check_isomorphism(total, triv, witness, plan, tol=1e-8)
    assert report.passed, report.as_dict()
    assert report.max_residual < 1e-8
    assert s1_line_class(total) == 0
    announce(9, "det classes 1/0; Moebius + Moebius trivialized, residual < 1e-8")


# --------------------------------------------------------------------------
# 10. Contractible trivialization.

def test_10_contractible_trivialization():
    plan = SamplePlan(seed=0, n_chart=350, n_overlap=200, n_triple=100)
    b = scrambled_plane_bundle()
    assert validate_cocycle(b, plan).passed
    tw = trivialize_contractible(b, plan, tol=1e-6)
    assert tw.report.passed, tw.report.as_dict()
    assert tw.report.max_residual < 1e-6
    assert tw.trivial.rank == 2
    announce(10, "scrambled plane bundle certified trivial, residual < 1e-6")


# --------------------------------------------------------------------------
# 11. The K0-Witt correspondence.

def test_11_k0_witt_correspondence():
    plan = SamplePlan(seed=0, n_chart=300, n_overlap=180, n_triple=100)
    point = point_base()
    plane = plane_base()
    m = moebius()
    items = [
        ("point-e2", k0_class(trivial_bundle(full_cover(point), 2))),
        ("plane-e2", k0_class(trivial_bundle(full_cover(plane), 2))),
        ("circle-moebius", k0_class(m)),
        ("circle-diff", k0_class(m, circle_trivial(1, m.cover))),
    ]
    for name, k in items:
        w = delta(k, plan)
        assert w.sig_diff == k.rank_diff, name
        out = roundtrip_k0(k, plan)
        assert out["passed"], (name, out)
        if name in ("point-e2", "plane-e2"):
            # over a star-shaped base the round-tripped positive part is
            # certified trivial by an explicit witness
            tw = trivialize_contractible(nabla(delta(k, plan), plan).plus, plan)
            assert tw.report.passed, (name, tw.report.as_dict())
            assert tw.report.max_residual < 1e-6, (name, tw.report.as_dict())
    witt_items = [
        ("point-split", witt_class(FormField.constant(
            trivial_bundle(full_cover(point), 3), np.diag([1.0, 1.0, -1.0])),
            plan)),
        ("circle-moebius-positive", witt_class(
            standard_positive_form(m, plan=plan), plan)),
    ]
    for name, w in witt_items:
        k = nabla(w, plan)
        assert k.rank_diff == w.sig_diff, name
        out = roundtrip_witt(w, plan)
        assert out["passed"], (name, out)
    # hyperbolic cancellation witnesses for eps^1 and the Moebius bundle
    for name, bundle in (("eps1", trivial_bundle(full_cover(point), 1)),
                         ("moebius", m)):
        form = standard_positive_form(bundle, plan=plan)
        witness = cancellation_witness(bundle, form)
        rep = check_isometry(witness, plan, tol=1e-8)
        assert rep.passed, (name, rep.as_dict())
        assert rep.max_residual < 1e-8
    # witt_is_zero certifies the cancellation sum
    w1 = witt_class(FormField.constant(
        trivial_bundle(full_cover(point), 1), np.eye(1)), plan)
    total = witt_add(w1, witt_neg(w1), plan)
    verdict, witness, _ = witt_is_zero(total, plan)
    assert verdict == "true" and witness is not None
    announce(11, "delta/nabla preserve invariants; cancellation witnessed")


# --------------------------------------------------------------------------
# 12. Determinism of the machine report.

def test_12_deterministic_reports():
    text = (SPECS / "moebius.json").read_text()
    outputs = []
    for _ in range(2):
        doc = parse_spec(text)
        plan = SamplePlan(seed=11, n_chart=300, n_overlap=180, n_triple=100)
        report = run_tasks(doc, doc.tasks, plan)
        outputs.append(report.machine_text())
        assert report.exit_code() == 0
    assert outputs[0] == outputs[1]
    parsed = json.loads(outputs[0])
    assert parsed["exit_code"] == 0
    announce(12, "machine report byte-identical across two runs")
