"""Homotopy witnesses: endpoint transport and contractible trivializations.

Bundles over a cylinder base X x R containing X x [0,1] restrict at t = 0
and t = 1 to isomorphic bundles over X, and form fields restrict to
isometric forms.  The witnesses here are explicit expression fields,
certified by the generic checkers.

The endpoint transport is one path-product node (`expr.PathProduct`): an
ambient projector chained along a path over a t ladder,
P(h(x, t_K)) ... P(h(x, t_1)), evaluated on stacked rungs with batched
matmul.  Each chained projection is chart-free, so the chart fields
obtained by solving against the restricted frames intertwine the
restricted cocycles exactly.  One t-coverage certificate,
`_certify_slab_coverage`, checks every cylinder cover the transport runs on;
on a product cover of base charts by open t-intervals it is exact at each
declared interval endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import expr as ex
from .bundles import (
    BundleRep,
    CheckReport,
    MorphismField,
    check_isomorphism,
    common_cover,
    gauss_embedding,
    parent_charts,
    pullback,
    trivial_bundle,
)
from .catalog import cylinder_base, extend_set, scaling_homotopy_map
from .errors import (
    ContainmentFailure,
    ContractionEscapesBase,
    CoverageFailure,
    EndpointMismatch,
    ImageEscapesBase,
    NotCatalogBase,
    TCoverGap,
)
from .forms import (
    FormField,
    IsometryWitness,
    check_isometry,
    isometry_same_bundle,
)
from .matexpr import (
    em_eval,
    em_identity,
    em_inv,
    em_mul,
    em_path_product,
    em_solve,
    em_subst,
    em_transpose,
)
from .semialg import Base, Condition, Cover, Polynomial, SamplePlan, component_expr

DEFAULT_TRANSPORT_STEPS = 16
LADDER_GAP = 0.35           # largest probe jump between consecutive rungs
SLAB_T_VALUES = 21          # t slices of the slab coverage check
LADDER_MAX_POINTS = 1025    # cap on the transport ladder's t values


def _require_cylinder(base: Base) -> tuple[Base, int]:
    if base.cylinder_base is None or base.t_index is None:
        raise NotCatalogBase("operation needs a declared cylinder base")
    return base.cylinder_base, base.t_index


# ---------------------------------------------------------------------------
# Product covers.


def product_cylinder_cover(cyl: Base, base_charts, intervals) -> Cover:
    """Cover of the cylinder by base-chart x open-t-interval product charts.

    `intervals` holds one (lo, hi) pair per chart; None means unbounded.
    """
    dim = cyl.dim
    t_poly = Polynomial.coordinate(dim, dim - 1)
    charts, t_intervals = [], []
    for chart, (lo, hi) in zip(base_charts, intervals):
        ext = extend_set(chart, dim)
        if lo is not None:
            ext = ext.with_condition(
                Condition.from_poly(t_poly - Polynomial.constant(dim, lo), ">"))
        if hi is not None:
            ext = ext.with_condition(
                Condition.from_poly(Polynomial.constant(dim, hi) - t_poly, ">"))
        charts.append(ext)
        t_intervals.append((lo, hi))
    return Cover(cyl, charts, name=f"{cyl.name}-product",
                 t_intervals=t_intervals)


# ---------------------------------------------------------------------------
# Restriction to a t-slice.


def restrict_cylinder(bundle: BundleRep, t_value: float):
    """Restrict a cylinder bundle to the slice t = c.

    Returns (bundle over the cylinder's base, kept-chart index map).
    Charts whose slice misses the base's probe (`Base.meets`) are dropped.
    """
    cyl = bundle.base
    base_x, t_index = _require_cylinder(cyl)
    const_maps = [Polynomial.coordinate(base_x.dim, i) for i in range(base_x.dim)]
    const_maps.append(Polynomial.constant(base_x.dim, t_value))
    mapping = {t_index: ex.Const(float(t_value))}
    charts, kept = [], []
    for i, chart in enumerate(bundle.cover.charts):
        sliced = chart.mapped(base_x.dim, lambda p: p.compose(const_maps),
                              lambda e: ex.substitute(e, mapping))
        if base_x.meets(sliced):
            charts.append(sliced)
            kept.append(i)
    if not charts:
        raise CoverageFailure(f"no chart survives restriction to t = {t_value}")
    cover = Cover(base_x, charts, name=f"{bundle.cover.name}@t={t_value}")
    transitions = {}
    for (i, j), g in bundle.transitions.items():
        if i in kept and j in kept:
            transitions[(kept.index(i), kept.index(j))] = em_subst(g, mapping)
    restricted = BundleRep(cover, bundle.rank, transitions,
                           name=f"{bundle.name}@t={t_value}",
                           default_identity=bundle.default_identity)
    return restricted, kept


# ---------------------------------------------------------------------------
# Endpoint transport witnesses.


@dataclass
class HomotopyWitness:
    at_zero: BundleRep
    at_one: BundleRep
    morphism: MorphismField       # between common-cover lifts of the above
    report: CheckReport
    parent_charts: list           # per chart: (t = 0 chart, t = 1 chart) of the cylinder


def homotopy_isomorphism(bundle: BundleRep, plan: SamplePlan,
                         tol: float = 1e-6, path=None) -> HomotopyWitness:
    """Certified isomorphism between the t = 0 and t = 1 restrictions.

    The transport is a path product of the bundle's ambient projector along
    the identity of the cylinder over a t ladder, evaluated on stacked
    rungs.  It maps the t = 0 fiber into the t = 1 fiber and is chart-free,
    so solving against the restricted frames yields fields with exact
    intertwining.  For t-independent bundles every factor is the same
    projector and the witness is identity-grade.

    When the cylinder bundle is a pullback along a homotopy, pass
    `path = (target_projector, h_component_exprs)`: the product then chains
    the target bundle's projector along the path, which moves at the
    geometry's own speed instead of the pullback partition's.  The report's
    details hold `ladder_points`, `ladder_gap` (worst probe jump) and, for a
    ladder capped with the gap unmet, `ladder_capped`.

    Without a `path`, the witness is kept in `bundle.certified` under
    ("homotopy witness", plan, tol) once it is built without raising, and
    later calls return that same object; its report is never changed.
    """
    key = ("homotopy witness", plan, tol)
    if path is None and key in bundle.certified:
        return bundle.certified[key]
    cyl = bundle.base
    base_x, t_index = _require_cylinder(cyl)
    _certify_slab_coverage(bundle, plan)

    target_proj, h_exprs = path or (gauss_embedding(bundle, plan=plan),
                                    [ex.Var(i) for i in range(cyl.dim)])
    h_exprs = [ex.as_expr(h) for h in h_exprs]

    def frame_at(chart: int, t: float):
        at_t = {t_index: ex.Const(t)}
        return em_subst(target_proj.frames[chart],
                        {i: ex.substitute(h, at_t) for i, h in enumerate(h_exprs)})

    transport, ladder = _seeded_transport(target_proj.entries, h_exprs,
                                          t_index, base_x, plan)
    b0, kept0 = restrict_cylinder(bundle, 0.0)
    b1, kept1 = restrict_cylinder(bundle, 1.0)
    a, b = common_cover(b0, b1)
    charts = [(kept0[i0], kept1[i1]) for i0, i1 in parent_charts(b0, b1, a.cover)]
    fields = []
    for c0, c1 in charts:
        f0 = frame_at(c0, 0.0)
        f1 = frame_at(c1, 1.0)
        gram = em_mul(em_transpose(f1), f1)
        rhs = em_mul(em_transpose(f1), em_mul(transport, f0))
        fields.append(em_solve(gram, rhs))
    witness = MorphismField(a, b, fields)
    report = check_isomorphism(a, b, witness, plan, tol)
    report.details.update(ladder)
    hw = HomotopyWitness(a, b, witness, report, charts)
    if path is None:
        bundle.certified[key] = hw
    return hw


def _seeded_transport(entries, h_exprs, t_index: int, base_x: Base,
                      plan: SamplePlan):
    """The transport over the adaptive ladder, as an expression matrix of
    one path product, and the ladder's report details.  The path product
    starts with the probes' transports in its row store: the product of
    the rungs the ladder evaluated at each probe, which is what the path
    product would compute there, since the ladder has 16 * 2^j rungs.  The
    ladder's values are dropped on return."""
    t_values, gap, probes, vals = _adaptive_t_ladder(
        partial(ex.path_projectors, entries, h_exprs, t_index), base_x, plan)
    transport = em_path_product(entries, h_exprs, t_index, t_values[1:])
    transport[0][0].group.seed(probes, vals[1:])
    return transport, _ladder_details(t_values, gap)


def _adaptive_t_ladder(values, base_x: Base, plan: SamplePlan):
    """Uniform t ladder, doubled until consecutive projectors stay close.

    The chained product is invertible on the fibers when each consecutive
    projector pair is closer than 1 in operator norm.  Partition
    crossovers concentrate the subspace's rotation in narrow t bands whose
    position translates with the base point, so the ladder must be
    uniformly finer than the band width; probe points measure the worst
    consecutive jump and the resolution doubles, from
    DEFAULT_TRANSPORT_STEPS steps, until it clears LADDER_GAP.
    `values(points, ts)` yields the projector along the path in rung blocks
    (`expr.path_projectors`); each round evaluates only the new midpoints.
    Returns the ladder, its worst probe gap (NaN without probes), which
    exceeds LADDER_GAP only when doubling would pass LADDER_MAX_POINTS,
    the probes, and the projector at each ladder value and probe.
    """
    n = DEFAULT_TRANSPORT_STEPS
    probes = base_x.sample_points(plan)
    if probes.shape[0] == 0:
        return ([k / n for k in range(n + 1)], float("nan"), probes,
                np.empty((n + 1, 0)))
    if probes.shape[0] > 512:
        stride = probes.shape[0] // 512 + 1
        probes = probes[::stride]
    vals = np.concatenate(list(values(probes, [k / n for k in range(n + 1)])))
    while True:
        worst = float(np.abs(np.diff(vals, axis=0)).max())
        if worst <= LADDER_GAP or 2 * n + 1 > LADDER_MAX_POINTS:
            return [k / n for k in range(n + 1)], worst, probes, vals
        finer = np.empty((2 * n + 1, *vals.shape[1:]))
        finer[0::2] = vals
        finer[1::2] = np.concatenate(list(
            values(probes, [k / (2 * n) for k in range(1, 2 * n, 2)])))
        n, vals = 2 * n, finer


def _ladder_details(t_values, gap: float) -> dict:
    """Report details of a transport ladder; `ladder_capped` marks a ladder
    that stopped at its point cap with the gap unmet."""
    details = {"ladder_points": len(t_values), "ladder_gap": gap}
    if gap > LADDER_GAP:
        details["ladder_capped"] = True
    return details


def _ladder_of(report: CheckReport) -> dict:
    return {k: v for k, v in report.details.items() if k.startswith("ladder_")}


def _certify_slab_coverage(bundle: BundleRep, plan: SamplePlan):
    """Check that the charts cover {x} x [0, 1] over each sampled base
    point x: on SLAB_T_VALUES t-slices and, on a product cover, at every
    endpoint in [0, 1] of its `t_intervals`, where any gap between the open
    intervals shows, so that there the check is exact in t.  One membership
    pass tests the slices stacked t-major."""
    base_x, t_index = _require_cylinder(bundle.base)
    pts = base_x.sample_points(plan)
    if pts.shape[0] == 0:
        raise CoverageFailure("cylinder base yielded no samples")
    ends = [e for interval in bundle.cover.t_intervals or ()
            for e in interval if e is not None and 0.0 <= e <= 1.0]
    ts = np.union1d(np.linspace(0.0, 1.0, SLAB_T_VALUES), ends)
    lifted = np.column_stack([np.tile(pts, (len(ts), 1)),
                              np.repeat(ts, pts.shape[0])])
    bad = bundle.cover.first_uncovered(ex.KernelMemo(lifted))
    if bad is not None:
        raise TCoverGap(f"slab point uncovered at t = {bad[-1]:.6f}", point=bad)


@dataclass
class HomotopyIsometry:
    at_zero: FormField
    at_one: FormField
    witness: IsometryWitness
    report: CheckReport


def homotopy_isometry(form: FormField, plan: SamplePlan,
                      tol: float = 1e-6) -> HomotopyIsometry:
    """Certified isometry between the t = 0 and t = 1 restrictions of a form.

    Composes the bundle transport witness with a same-bundle isometry
    between the t = 0 form and the pulled-back t = 1 form (split into
    definite parts against the standard positive reference).  The report
    carries the transport ladder's details.
    """
    bundle = form.bundle
    hw = homotopy_isomorphism(bundle, plan, tol)
    _, t_index = _require_cylinder(bundle.base)

    def sliced(end: int, t: float):
        # per chart of the witness, its parent chart's form matrix at t
        return [em_subst(form.mats[charts[end]], {t_index: ex.Const(t)})
                for charts in hw.parent_charts]

    f0_mats, f1_mats = sliced(0, 0.0), sliced(1, 1.0)
    f0_lift = FormField(hw.at_zero, f0_mats, name=f"{form.name}@0")
    f1_lift = FormField(hw.at_one, f1_mats, name=f"{form.name}@1")
    pulled_mats = [em_mul(em_transpose(u), em_mul(m, u))
                   for u, m in zip(hw.morphism.fields, f1_mats)]
    pulled = FormField(hw.at_zero, pulled_mats, name=f"{form.name}@1-pulled")
    inner = isometry_same_bundle(f0_lift, pulled, plan)
    fields = [em_mul(u, c) for u, c in zip(hw.morphism.fields,
                                           inner.morphism.fields)]
    morphism = MorphismField(hw.at_zero, hw.at_one, fields)
    witness = IsometryWitness(morphism, f0_lift, f1_lift)
    report = check_isometry(witness, plan, tol)
    report.details.update(_ladder_of(hw.report))
    return HomotopyIsometry(f0_lift, f1_lift, witness, report)


# ---------------------------------------------------------------------------
# Contractible bases and induced isomorphisms.


@dataclass
class TrivializationWitness:
    presented: BundleRep          # the t = 1 restriction, matching the input
    trivial: BundleRep
    morphism: MorphismField
    report: CheckReport


def trivialize_contractible(bundle: BundleRep, plan: SamplePlan,
                            tol: float = 1e-6) -> TrivializationWitness:
    """Certified trivialization over a base star-shaped about a declared center.

    The constant map at the center c and the identity are homotopic through
    H(x, t) = c + t(x - c), so the induced isomorphism carries t = 0 (a
    constant cocycle, trivialized by its own transition values at the
    center) to t = 1 (the bundle as presented).  The report carries the
    transport ladder's details.
    """
    base = bundle.base
    if base.star_center is None:
        raise NotCatalogBase("trivialization needs a declared star center")
    center = np.asarray(base.star_center, dtype=float)
    constant = [Polynomial.constant(base.dim, c) for c in base.star_center]
    identity = [Polynomial.coordinate(base.dim, i) for i in range(base.dim)]
    try:
        hw = induced_iso_from_homotopy(bundle, constant, identity,
                                       scaling_homotopy_map(base), base, plan,
                                       tol)
    except ImageEscapesBase as err:
        raise ContractionEscapesBase(str(err), point=err.point) from err
    # t = 0 restriction is the constant cocycle g(center); its values at the
    # first sampled point of each overlap with chart 0 (else the center)
    # transport every refined chart to chart 0's frame
    const_fields = [em_identity(bundle.rank)]
    for r in range(1, hw.at_zero.cover.n_charts):
        at = hw.at_zero.cover.samples((0, r), plan)[:1]
        g = em_eval(hw.at_zero.transition(0, r),
                    at if at.shape[0] else center.reshape(1, -1))[0]
        const_fields.append(tuple(tuple(ex.Const(v) for v in row) for row in g))
    triv = trivial_bundle(hw.at_zero.cover, bundle.rank)
    to_trivial = MorphismField(hw.at_zero, triv, const_fields)
    zero_report = check_isomorphism(hw.at_zero, triv, to_trivial, plan, tol)
    if not zero_report.passed:
        raise ContainmentFailure(
            f"constant-cocycle trivialization failed: {zero_report.as_dict()}"
        )
    # compose: presented (t=1) -> t=0 via transport inverse -> trivial
    fields = [em_mul(c, em_inv(u, guard_tol=1e-12))
              for c, u in zip(const_fields, hw.morphism.fields)]
    triv1 = trivial_bundle(hw.at_one.cover, bundle.rank)
    morphism = MorphismField(hw.at_one, triv1, fields)
    report = check_isomorphism(hw.at_one, triv1, morphism, plan, tol)
    report.details.update(_ladder_of(hw.report))
    return TrivializationWitness(hw.at_one, triv1, morphism, report)


def induced_iso_from_homotopy(bundle: BundleRep, f_map, g_map, h_map,
                              domain: Base, plan: SamplePlan,
                              tol: float = 1e-6) -> HomotopyWitness:
    """Isomorphism between f*(bundle) and g*(bundle) from a homotopy H.

    H must restrict to f at t = 0 and to g at t = 1 (within 1e-9 at
    samples) and map into the bundle's base.
    """

    pts = domain.sample_points(plan)
    if pts.shape[0]:
        lifted0 = np.column_stack([pts, np.zeros(pts.shape[0])])
        lifted1 = np.column_stack([pts, np.ones(pts.shape[0])])
        for cf, cg, ch in zip(f_map, g_map, h_map):
            ef, eg, eh = (component_expr(c) for c in (cf, cg, ch))
            err0 = np.abs(ex.evaluate(eh, lifted0) - ex.evaluate(ef, pts)).max()
            err1 = np.abs(ex.evaluate(eh, lifted1) - ex.evaluate(eg, pts)).max()
            if err0 > 1e-9 or err1 > 1e-9:
                raise EndpointMismatch(
                    f"H restricts to the endpoints with errors {err0:.2e}, "
                    f"{err1:.2e}"
                )
    cyl = cylinder_base(domain)
    pulled = pullback(bundle, h_map, cyl, plan, name=f"H*({bundle.name})")
    target_proj = gauss_embedding(bundle, plan=plan)
    h_exprs = [component_expr(c) for c in h_map]
    return homotopy_isomorphism(pulled, plan, tol,
                                path=(target_proj, h_exprs))
