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

The classes carry no C^r degree, and no expression records one.
A bundle or form is one expression field whatever C^r class it is meant
in; the partitions of unity behind its embeddings are built with clamp
power 2 (`unity.CLAMP_POWER`), and the invariants (rank difference,
signature difference, rank parity, circle determinant classes) are read
off sampled values alone.  So the comparison between the C^r and C^0
groups is neither computed nor checked here.
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


def _line_classes(plus: BundleRep, minus: BundleRep):
    """The line classes of plus and minus over a circle base, else None."""
    if not plus.base.circle:
        return None
    return tuple(0 if b.rank == 0 else s1_line_class(b) for b in (plus, minus))


def _invariants(plus: BundleRep, minus: BundleRep, line_classes):
    """Rank difference and det class of [plus] - [minus] from the line
    classes of plus and minus (None off the circle)."""
    return (plus.rank - minus.rank,
            None if line_classes is None else sum(line_classes) % 2)


def k0_invariants(plus: BundleRep, minus: BundleRep):
    return _invariants(plus, minus, _line_classes(plus, minus))


def k0_class(plus: BundleRep, minus: BundleRep | None = None) -> K0Class:
    if minus is None:
        minus = trivial_bundle(plus.cover, 0, "rank0")
    if plus.base.sset is not minus.base.sset:
        raise BaseMismatch("K-class representatives need one base")
    return K0Class(plus, minus, *k0_invariants(plus, minus))


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
    parts: tuple | None           # circle: the (plus, minus) bundles split off

    @property
    def base(self):
        return self.form.bundle.base


def _definite_parts(form: FormField, plan: SamplePlan):
    """The form's signature (certified once, by `decompose`) and its
    positive and negative range bundles.  They are kept in `form.certified`
    under ("definite parts", plan) once built without raising, and later
    calls return them.  Neither part points back at the form: the
    `FiberProjectorPair`, which does, is dropped."""
    key = ("definite parts", plan)
    known = form.certified.get(key)
    if known is not None:
        return known
    pair = decompose(form, plan)
    plus_amb, minus_amb = pair.to_ambient()
    parts = (pair.sig,
             bundle_from_projector(plus_amb, plan, name=f"{form.name}+"),
             bundle_from_projector(minus_amb, plan, name=f"{form.name}-"))
    form.certified[key] = parts
    return parts


def witt_class(form: FormField, plan: SamplePlan) -> WittClass:
    """The form's class and invariants.  On a circle base they are read off
    the form's definite split, which the class keeps for `nabla`."""
    circle = form.bundle.base.circle
    if form.rank == 0:
        return WittClass(form, 0, 0, (0, 0) if circle else None, None)
    if not circle:
        sig = signature(form, plan)
        return WittClass(form, sig.difference, sig.rank % 2, None, None)
    sig, plus_b, minus_b = _definite_parts(form, plan)
    return WittClass(form, sig.difference, sig.rank % 2,
                     _line_classes(plus_b, minus_b), (plus_b, minus_b))


def witt_add(a: WittClass, b: WittClass, plan: SamplePlan) -> WittClass:
    if a.base.sset is not b.base.sset:
        raise BaseMismatch("Witt classes live over different bases")
    return witt_class(orthogonal_sum(a.form, b.form), plan)


def witt_neg(a: WittClass) -> WittClass:
    return WittClass(negate_form(a.form), -a.sig_diff, a.rank_parity,
                     a.det_classes and a.det_classes[::-1],
                     a.parts and a.parts[::-1])


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
                         (0, 0) if k.base.circle else None, None)
    total = parts[0]
    for part in parts[1:]:
        total = orthogonal_sum(total, part)
    return witt_class(total, plan)


def nabla(w: WittClass, plan: SamplePlan) -> K0Class:
    """Split the form into definite subbundles:
    nabla([(P, b)]) = [P+] - [P-].  On a circle base these are the bundles
    the Witt class was split into, with its line classes."""
    form = w.form
    if form.rank == 0:
        zero = trivial_bundle(form.bundle.cover, 0, "rank0")
        return k0_class(zero, zero)
    if w.parts is None:
        return k0_class(*_definite_parts(form, plan)[1:])
    return K0Class(*w.parts, *_invariants(*w.parts, w.det_classes))


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

    Returns (verdict, witness, report) with verdict in {"true", "false",
    "unknown"}: "true" only with a certified isometry to a hyperbolic
    space, "false" only on an invariant obstruction, "unknown" otherwise.
    The witness and its `check_isometry` report are those of a "true", None
    otherwise (and for the rank-0 class, which needs no witness).
    """
    base = w.base
    if not (base.connected and (base.star_center is not None or base.circle)):
        raise NotCatalogBase("witt_is_zero decides only on catalog bases")
    if w.sig_diff != 0 or w.rank_parity != 0:
        return "false", None, None
    if w.det_classes is not None and w.det_classes[0] != w.det_classes[1]:
        return "false", None, None
    form = w.form
    if form.rank == 0:
        return "true", None, None
    if form.rank > 4:
        return "unknown", None, None
    for witness in _hyperbolic_witnesses(form, plan):
        report = check_isometry(witness, plan)
        if report.passed:
            return "true", witness, report
    return "unknown", None, None


def _hyperbolic_witnesses(form: FormField, plan: SamplePlan):
    """Candidate isometries of a form with signature difference 0 onto a
    hyperbolic space, in the order `witt_is_zero` tries them."""
    # already a hyperbolic space: identity witness
    if form.hyperbolic_of is not None:
        ident = [em_identity(form.rank)
                 for _ in range(form.bundle.cover.n_charts)]
        yield IsometryWitness(
            MorphismField(form.bundle, form.bundle, ident), form, form)
    # built as b + (-b): reuse the cancellation witness
    cancel = form.cancellation_of
    if cancel is not None:
        yield cancellation_witness(cancel.bundle, cancel)
    # constant form on a trivial presentation: diagonalize numerically and
    # rotate the split form onto the hyperbolic block; the constant is a
    # sample of the form, so its type is split (sig.pos == sig.neg)
    const = _constant_mats(form, plan)
    if const is not None and form.bundle.default_identity:
        g, sig = gram_schmidt_frame(const)
        k = sig.pos
        w_rot = np.block([[np.eye(k), np.eye(k)],
                          [np.eye(k), -np.eye(k)]]) / np.sqrt(2.0)
        u = w_rot @ np.linalg.inv(g)
        half = trivial_bundle(form.bundle.cover, k)
        target, target_form = hyperbolic_space(half)
        fields = [em_const(u) for _ in range(form.bundle.cover.n_charts)]
        yield IsometryWitness(
            MorphismField(form.bundle, target, fields), form, target_form)


# ---------------------------------------------------------------------------
# Round trips.


def roundtrip_k0(k: K0Class, plan: SamplePlan) -> dict:
    """nabla(delta(k)) must preserve the K-invariants exactly."""
    back = nabla(delta(k, plan), plan)
    return {
        "rank_diff": (k.rank_diff, back.rank_diff),
        "det_class": (k.det_class, back.det_class),
        "passed": (k.rank_diff == back.rank_diff
                   and k.det_class == back.det_class),
    }


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
