"""K-classes, Witt classes, the correspondence maps and cancellation."""

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import forms as fo
from bundleforms import rings as ri
from bundleforms.bundles import s1_line_class, trivial_bundle, whitney_sum
from bundleforms.catalog import (
    circle_trivial,
    full_cover,
    line_base,
    moebius,
    plane_base,
    point_base,
)
from bundleforms.forms import (
    FormField,
    check_isometry,
    hyperbolic_space,
    signature,
    standard_positive_form,
)
from bundleforms.rings import (
    K0Class,
    cancellation_witness,
    delta,
    k0_add,
    k0_class,
    k0_invariants,
    k0_mul,
    k0_neg,
    nabla,
    roundtrip_k0,
    roundtrip_witt,
    witt_add,
    witt_class,
    witt_is_zero,
    witt_mul,
    witt_neg,
)
from bundleforms.errors import InconsistentSignature
from bundleforms.semialg import SamplePlan

PLAN = SamplePlan(seed=0, n_chart=200, n_overlap=140, n_triple=90)
POINT = point_base()


def point_class(rank):
    return k0_class(trivial_bundle(full_cover(POINT), rank))


def point_witt(matrix):
    b = trivial_bundle(full_cover(POINT), np.asarray(matrix).shape[0])
    return witt_class(FormField.constant(b, matrix), PLAN)


# --- K0 arithmetic -----------------------------------------------------------

def test_k0_trivial_sum():
    a = k0_class(circle_trivial(1))
    out = k0_add(a, a)
    assert out.rank_diff == 2 and out.det_class == 0


def test_k0_moebius_difference():
    m = moebius()
    a = k0_class(m, circle_trivial(1, m.cover))
    assert a.rank_diff == 0 and a.det_class == 1


def test_k0_moebius_square():
    m = moebius()
    a = k0_class(m)
    out = k0_mul(a, a)
    assert out.rank_diff == 1
    # Kronecker sign product (-1)(-1) = 1 on the twisted overlap
    assert out.det_class == 0


def test_k0_neg_and_cache_coherence():
    m = moebius()
    a = k0_class(m, circle_trivial(1, m.cover))
    n = k0_neg(a)
    assert n.rank_diff == -a.rank_diff
    s = k0_add(a, n)
    assert s.rank_diff == 0 and s.det_class == 0
    # caches recompute equal after operations
    assert k0_invariants(s.plus, s.minus) == (s.rank_diff, s.det_class)


def test_k0_product_det_rule():
    # rank-weighted product rule: c(a.b) = d1 c2 + d2 c1 mod 2
    m = moebius()
    e1 = circle_trivial(1, m.cover)
    a = k0_class(whitney_sum(m, e1))          # rank 2, class 1
    b = k0_class(m)                           # rank 1, class 1
    out = k0_mul(a, b)
    assert out.rank_diff == 2
    assert out.det_class == (2 * 1 + 1 * 1) % 2


# --- Witt arithmetic -----------------------------------------------------------

def test_witt_sum_of_ones():
    w = point_witt(np.eye(1))
    out = witt_add(w, w, PLAN)
    assert out.sig_diff == 2


def test_witt_one_plus_minus_one_is_zero_class():
    w = point_witt(np.eye(1))
    n = witt_neg(w)
    out = witt_add(w, n, PLAN)
    assert out.sig_diff == 0
    verdict, witness = witt_is_zero(out, PLAN)
    assert verdict == "true" and witness is not None


def test_witt_product_signature():
    w1 = point_witt(np.eye(1))
    w2 = point_witt(-np.eye(1))
    out = witt_mul(w1, w2, PLAN)
    assert out.sig_diff == -1


def test_witt_single_one_not_zero():
    w = point_witt(np.eye(1))
    verdict, _ = witt_is_zero(w, PLAN)
    assert verdict == "false"


def test_witt_unit_line_form_is_obstructed():
    # <1> on eps^1 over the line: signature difference 1, no witness
    b = trivial_bundle(full_cover(line_base()), 1)
    w = witt_class(FormField.constant(b, np.eye(1)), PLAN)
    assert witt_is_zero(w, PLAN) == ("false", None)


def test_hyperbolic_is_zero_with_identity_witness():
    b = trivial_bundle(full_cover(POINT), 1)
    total, form = hyperbolic_space(b)
    w = witt_class(form, PLAN)
    assert w.sig_diff == 0
    verdict, witness = witt_is_zero(w, PLAN)
    assert verdict == "true" and witness is not None


def test_witt_constant_normal_form_route():
    # no provenance tags: the constant-form route must still find a witness
    w = point_witt(np.diag([1.0, -1.0]))
    verdict, witness = witt_is_zero(w, PLAN)
    assert verdict == "true"
    assert check_isometry(witness, PLAN, tol=1e-8).passed


def test_witt_unknown_for_large_rank():
    w = point_witt(np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]))
    verdict, _ = witt_is_zero(w, PLAN)
    assert verdict == "unknown"


# --- delta and nabla ------------------------------------------------------------

def test_delta_rank_to_signature():
    k = point_class(2)
    w = delta(k, PLAN)
    assert w.sig_diff == 2


def test_delta_moebius_difference():
    m = moebius()
    k = k0_class(m, circle_trivial(1, m.cover))
    w = delta(k, PLAN)
    assert w.sig_diff == 0
    assert w.det_classes == (1, 0)


def test_nabla_constant_split():
    w = point_witt(np.diag([1.0, 1.0, -1.0]))
    k = nabla(w, PLAN)
    assert k.rank_diff == 1
    assert k.plus.rank == 2 and k.minus.rank == 1


def test_nabla_hyperbolic():
    b = trivial_bundle(full_cover(POINT), 1)
    _, form = hyperbolic_space(b)
    k = nabla(witt_class(form, PLAN), PLAN)
    assert k.rank_diff == 0


def test_nabla_moebius_twisted_positive():
    m = moebius()
    f = standard_positive_form(m, plan=PLAN)
    w = witt_class(f, PLAN)
    assert w.det_classes == (1, 0)
    k = nabla(w, PLAN)
    assert k.rank_diff == 1
    assert k.det_class == 1
    assert s1_line_class(k.plus) == 1


def test_delta_additive_on_invariants():
    m = moebius()
    e1 = circle_trivial(1, m.cover)
    items = [k0_class(m), k0_class(e1), k0_class(m, e1)]
    for a in items:
        for b in items:
            lhs = delta(k0_add(a, b), PLAN)
            r1 = delta(a, PLAN)
            r2 = delta(b, PLAN)
            assert lhs.sig_diff == r1.sig_diff + r2.sig_diff


# --- round trips and cancellation --------------------------------------------------

def test_roundtrip_point_diag():
    w = point_witt(np.diag([1.0, 1.0, -1.0]))
    k = nabla(w, PLAN)
    assert k.rank_diff == 1
    out = roundtrip_witt(w, PLAN)
    assert out["passed"], out


def test_roundtrip_moebius_class():
    m = moebius()
    k = k0_class(m)
    out = roundtrip_k0(k, PLAN)
    assert out["passed"], out


def test_roundtrip_plane_rank2():
    base = plane_base()
    k = k0_class(trivial_bundle(full_cover(base), 2))
    out = roundtrip_k0(k, PLAN)
    assert out["passed"], out


def test_roundtrip_with_catalog_witness():
    # over a star-shaped base the round trip also returns a certified
    # trivialization witness for the positive part
    k = point_class(2)
    out = roundtrip_k0(k, PLAN, want_witness=True)
    assert out["passed"], out
    assert out["witness_residual"] < 1e-6


@pytest.mark.parametrize("make_bundle", [
    lambda: trivial_bundle(full_cover(point_base()), 1),
    lambda: moebius(),
])
def test_cancellation_witness(make_bundle):
    bundle = make_bundle()
    form = standard_positive_form(bundle, plan=PLAN)
    witness = cancellation_witness(bundle, form)
    rep = check_isometry(witness, PLAN, tol=1e-8)
    assert rep.passed, rep.as_dict()


def test_restricted_form_on_split_bundle():
    # transport the twisted positive form to the ambient trivial bundle and
    # pull it back through the split-off subbundle's frames
    from bundleforms.forms import (
        ambient_form,
        restrict_form_to_range_bundle,
        validate_form,
    )
    from bundleforms.forms import decompose
    m = moebius()
    f = standard_positive_form(m, plan=PLAN)
    pair = decompose(f, PLAN)
    plus_amb, _ = pair.to_ambient()
    from bundleforms.bundles import bundle_from_projector
    sub = bundle_from_projector(plus_amb, PLAN, name="twisted+")
    amb = ambient_form(f, f.proj)
    restricted = restrict_form_to_range_bundle(amb, sub)
    rep = validate_form(restricted, PLAN, tol=1e-7)
    assert rep.passed, rep.as_dict()
    assert signature(restricted, PLAN).pos == 1


def test_cancellation_matrix_shape():
    # the explicit [[1, 1], [1/2, -1/2]] matrix for the unit form on eps^1
    b = trivial_bundle(full_cover(POINT), 1)
    f = FormField.constant(b, np.eye(1))
    witness = cancellation_witness(b, f)
    from bundleforms.matexpr import em_eval
    got = em_eval(witness.morphism.fields[0], np.zeros((1, 1)))[0]
    assert np.allclose(got, np.array([[1.0, 1.0], [0.5, -0.5]]))


# --- one signature per Witt class --------------------------------------------

def _count_signatures(monkeypatch):
    calls = []
    original = fo.signature

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    # rings binds the name itself; decompose reaches it through forms
    monkeypatch.setattr(fo, "signature", counted)
    monkeypatch.setattr(ri, "signature", counted)
    return calls


def test_witt_class_on_circle_computes_one_signature(monkeypatch):
    calls = _count_signatures(monkeypatch)
    m = moebius()
    w = witt_class(standard_positive_form(m, plan=PLAN), PLAN)
    assert len(calls) == 1
    assert (w.sig_diff, w.rank_parity, w.det_classes) == (1, 1, (1, 0))
    hyp = FormField.constant(circle_trivial(2), [[0.0, 1.0], [1.0, 0.0]])
    assert witt_class(hyp, PLAN).sig_diff == 0
    assert len(calls) == 2


def test_witt_class_on_circle_rejects_inconsistent_signature():
    x0 = ex.Var(0)
    form = FormField.from_upper(circle_trivial(1), [[x0], [x0]])
    with pytest.raises(InconsistentSignature):
        witt_class(form, PLAN)
