"""Grothendieck and Witt classes over catalog bases.

A K-class is a formal difference of bundles over one base; a Witt class is
a form field remembered together with its stable invariants.  Equality is
decided through invariants plus explicit witnesses on catalog bases only;
when the invariants vanish but no witness is found, the answer is
"unknown" rather than a claim.

The correspondence maps: delta equips a bundle difference with standard
positive forms; nabla splits a form into its definite subbundles.  Their
composites preserve the cached invariants, and the hyperbolic cancellation
(P, b) + (P, -b) = H(P) carries the explicit witness
(x, y) -> (x + y, (1/2) b(x - y)).

Smoothness classes add nothing at this level: expression fields carry
their smoothness bounds along, so a class and its continuous counterpart
share one representation and the comparison map is the identity here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .bundles import (
    BundleRep,
    MorphismField,
    bundle_from_projector,
    dual,
    s1_line_class,
    sampled_regions,
    tensor,
    trivial_bundle,
    whitney_sum,
)
from .errors import BaseMismatch, BundleformsError, NotCatalogBase
from .forms import (
    FormField,
    IsometryWitness,
    SignatureType,
    check_isometry,
    decompose,
    gram_schmidt_frame,
    hyperbolic_space,
    negate_form,
    orthogonal_sum,
    signature,
    standard_positive_form,
    tensor_form,
)
from .matexpr import (
    em_const,
    em_hstack,
    em_identity,
    em_scale,
    em_vstack,
)
from .semialg import SamplePlan


def _safe_line_class(bundle: BundleRep) -> int:
    if bundle.rank == 0:
        return 0
    return s1_line_class(bundle)


def _is_circle(base) -> bool:
    return base.circle is not None


@dataclass
class K0Class:
    """Formal difference [plus] - [minus] with cached stable invariants."""

    plus: BundleRep
    minus: BundleRep
    rank_diff: int
    det_class: int | None     # circle bases only: parity difference

    @property
    def base(self):
        return self.plus.base


def k0_invariants(plus: BundleRep, minus: BundleRep):
    rank_diff = plus.rank - minus.rank
    det_class = None
    if _is_circle(plus.base):
        det_class = (_safe_line_class(plus) + _safe_line_class(minus)) % 2
    return rank_diff, det_class


def k0_class(plus: BundleRep, minus: BundleRep | None = None) -> K0Class:
    if minus is None:
        minus = trivial_bundle(plus.cover, 0, "rank0")
    if plus.base.sset is not minus.base.sset:
        raise BaseMismatch("K-class representatives need one base")
    rank_diff, det_class = k0_invariants(plus, minus)
    return K0Class(plus, minus, rank_diff, det_class)


def k0_add(a: K0Class, b: K0Class) -> K0Class:
    if a.base.sset is not b.base.sset:
        raise BaseMismatch("K-classes live over different bases")
    return k0_class(whitney_sum(a.plus, b.plus), whitney_sum(a.minus, b.minus))


def k0_neg(a: K0Class) -> K0Class:
    return k0_class(a.minus, a.plus)


def k0_mul(a: K0Class, b: K0Class) -> K0Class:
    if a.base.sset is not b.base.sset:
        raise BaseMismatch("K-classes live over different bases")
    plus = whitney_sum(tensor(a.plus, b.plus), tensor(a.minus, b.minus))
    minus = whitney_sum(tensor(a.plus, b.minus), tensor(a.minus, b.plus))
    return k0_class(plus, minus)


@dataclass
class WittClass:
    """Form field with cached stable invariants of its Witt class."""

    form: FormField
    sig_diff: int
    rank_parity: int
    det_classes: tuple | None     # circle: (plus-part class, minus-part class)

    @property
    def base(self):
        return self.form.bundle.base


def witt_invariants(form: FormField, plan: SamplePlan):
    circle = _is_circle(form.bundle.base)
    if form.rank == 0:
        return SignatureType(0, 0), ((0, 0) if circle else None)
    if not circle:
        return signature(form, plan), None
    sig, plus_b, minus_b = _definite_parts(form, plan, "witt")
    return sig, (_safe_line_class(plus_b), _safe_line_class(minus_b))


def _definite_parts(form: FormField, plan: SamplePlan, name: str):
    """The form's signature (certified once, by `decompose`) and its
    positive and negative range bundles, named `name`+ and `name`-."""
    pair = decompose(form, plan)
    plus_amb, minus_amb = pair.to_ambient()
    return (pair.sig, bundle_from_projector(plus_amb, plan, name=f"{name}+"),
            bundle_from_projector(minus_amb, plan, name=f"{name}-"))


def witt_class(form: FormField, plan: SamplePlan) -> WittClass:
    sig, det_classes = witt_invariants(form, plan)
    return WittClass(form, sig.difference, sig.rank % 2, det_classes)


def witt_add(a: WittClass, b: WittClass, plan: SamplePlan) -> WittClass:
    if a.base.sset is not b.base.sset:
        raise BaseMismatch("Witt classes live over different bases")
    return witt_class(orthogonal_sum(a.form, b.form), plan)


def witt_neg(a: WittClass) -> WittClass:
    return WittClass(negate_form(a.form), -a.sig_diff, a.rank_parity,
                     None if a.det_classes is None else
                     (a.det_classes[1], a.det_classes[0]))


def witt_mul(a: WittClass, b: WittClass, plan: SamplePlan) -> WittClass:
    if a.base.sset is not b.base.sset:
        raise BaseMismatch("Witt classes live over different bases")
    return witt_class(tensor_form(a.form, b.form), plan)


# ---------------------------------------------------------------------------
# The correspondence maps.


def delta(k: K0Class, plan: SamplePlan) -> WittClass:
    """Equip both representatives with standard positive forms:
    delta([P+] - [P-]) = [(P+, pos)] - [(P-, pos)]."""
    parts = []
    for bundle, flip in ((k.plus, False), (k.minus, True)):
        if bundle.rank == 0:
            continue
        pos = standard_positive_form(bundle, plan=plan)
        parts.append(negate_form(pos) if flip else pos)
    if not parts:
        zero = trivial_bundle(k.plus.cover, 0, "rank0")
        empty = FormField(zero, [tuple() for _ in range(zero.cover.n_charts)], "0")
        return WittClass(empty, 0, 0,
                         (0, 0) if _is_circle(k.base) else None)
    total = parts[0]
    for part in parts[1:]:
        total = orthogonal_sum(total, part)
    return witt_class(total, plan)


def nabla(w: WittClass, plan: SamplePlan) -> K0Class:
    """Split the form into definite subbundles:
    nabla([(P, b)]) = [P+] - [P-]."""
    form = w.form
    if form.rank == 0:
        zero = trivial_bundle(form.bundle.cover, 0, "rank0")
        return k0_class(zero, zero)
    _, plus_b, minus_b = _definite_parts(form, plan, "nabla")
    return k0_class(plus_b, minus_b)


def cancellation_witness(bundle: BundleRep, form: FormField) -> IsometryWitness:
    """(P, b) + (P, -b) = H(P) via (x, y) -> (x + y, (1/2) b(x - y)).

    The chart matrix is [[I, I], [S/2, -S/2]]; its form pullback equals
    diag(S, -S) exactly, and the blocks intertwine because S obeys the
    form-compatibility law while the dual factor of H(P) uses the
    inverse-transpose cocycle.
    """
    if form.bundle is not bundle:
        raise BaseMismatch("cancellation needs the form on the given bundle")
    source_form = orthogonal_sum(form, negate_form(form))
    source = source_form.bundle
    target, target_form = hyperbolic_space(bundle)
    if source.cover is not target.cover:
        raise BundleformsError("cancellation expects aligned covers")
    d = bundle.rank
    fields = []
    for i in range(source.cover.n_charts):
        s_half = em_scale(ex.Const(0.5), form.mats[i])
        top = em_hstack(em_identity(d), em_identity(d))
        bottom = em_hstack(s_half, em_scale(ex.Const(-1.0), s_half))
        fields.append(em_vstack(top, bottom))
    morphism = MorphismField(source, target, fields)
    return IsometryWitness(morphism, source_form, target_form)


# ---------------------------------------------------------------------------
# Decisions on catalog bases.


def _constant_mats(form: FormField, plan: SamplePlan):
    """The common constant matrix of the form, or None if it varies."""
    value = None
    for (i,), _, ev in sampled_regions(form.bundle.cover, plan, 1):
        mats = ev(form.mats[i])
        if np.abs(mats - mats[0]).max() > 1e-12:
            return None
        if value is None:
            value = mats[0]
        elif np.abs(value - mats[0]).max() > 1e-12:
            return None
    return value


def witt_is_zero(w: WittClass, plan: SamplePlan):
    """Decide triviality of a Witt class on a catalog base.

    Returns (verdict, witness) with verdict in {"true", "false",
    "unknown"}: "true" only with a certified isometry to a hyperbolic
    space, "false" only on an invariant obstruction, "unknown" otherwise.
    """
    base = w.base
    if not (base.connected and (base.star_center is not None or _is_circle(base))):
        raise NotCatalogBase("witt_is_zero decides only on catalog bases")
    if w.sig_diff != 0 or w.rank_parity != 0:
        return "false", None
    if w.det_classes is not None and w.det_classes[0] != w.det_classes[1]:
        return "false", None
    form = w.form
    if form.rank == 0:
        return "true", None
    if form.rank > 4:
        return "unknown", None
    # already a hyperbolic space: identity witness
    if form.hyperbolic_of is not None:
        ident = [em_identity(form.rank)
                 for _ in range(form.bundle.cover.n_charts)]
        witness = IsometryWitness(
            MorphismField(form.bundle, form.bundle, ident), form, form)
        if check_isometry(witness, plan).passed:
            return "true", witness
    # built as b + (-b): reuse the cancellation witness
    cancel = form.cancellation_of
    if cancel is not None:
        witness = cancellation_witness(cancel.bundle, cancel)
        if check_isometry(witness, plan).passed:
            return "true", witness
    # constant form on a trivial presentation: diagonalize numerically and
    # rotate the split form onto the hyperbolic block
    const = _constant_mats(form, plan)
    if const is not None and form.bundle.default_identity:
        g, sig = gram_schmidt_frame(const)
        if sig.pos != sig.neg:
            return "false", None
        k = sig.pos
        w_rot = np.block([[np.eye(k), np.eye(k)],
                          [np.eye(k), -np.eye(k)]]) / np.sqrt(2.0)
        u = w_rot @ np.linalg.inv(g)
        half = trivial_bundle(form.bundle.cover, k)
        target, target_form = hyperbolic_space(half)
        fields = [em_const(u) for _ in range(form.bundle.cover.n_charts)]
        witness = IsometryWitness(
            MorphismField(form.bundle, target, fields), form, target_form)
        if check_isometry(witness, plan).passed:
            return "true", witness
    return "unknown", None


# ---------------------------------------------------------------------------
# Round trips.


def roundtrip_k0(k: K0Class, plan: SamplePlan,
                 want_witness: bool = False) -> dict:
    """nabla(delta(k)) must preserve the K-invariants exactly.

    Over a star-shaped base with a trivially presented representative the
    catalog also provides an explicit isomorphism witness between the
    round-tripped positive part and the trivial bundle of its rank; its
    residual is reported when requested.
    """
    back = nabla(delta(k, plan), plan)
    out = {
        "rank_diff": (k.rank_diff, back.rank_diff),
        "det_class": (k.det_class, back.det_class),
        "passed": (k.rank_diff == back.rank_diff
                   and k.det_class == back.det_class),
    }
    if (want_witness and k.base.star_center is not None
            and k.minus.rank == 0 and back.plus.rank == k.plus.rank):
        from .homotopy import trivialize_contractible
        tw = trivialize_contractible(back.plus, plan)
        out["witness_residual"] = tw.report.max_residual
        out["passed"] = out["passed"] and tw.report.passed
    return out


def roundtrip_witt(w: WittClass, plan: SamplePlan) -> dict:
    """delta(nabla(w)) must preserve the signature difference."""
    back = delta(nabla(w, plan), plan)
    return {
        "sig_diff": (w.sig_diff, back.sig_diff),
        "det_classes": (w.det_classes, back.det_classes),
        "passed": (w.sig_diff == back.sig_diff
                   and (w.det_classes is None
                        or w.det_classes == back.det_classes)),
    }
