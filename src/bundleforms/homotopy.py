"""Homotopy witnesses: strip subdivision, clutching, endpoint transport.

Bundles over a cylinder base X x R containing X x [0,1] restrict at t = 0
and t = 1 to isomorphic bundles over X, and form fields restrict to
isometric forms.  The witnesses here are explicit expression fields,
certified by the generic checkers.

The endpoint transport is one path-product node (`expr.PathProduct`): an
ambient projector chained along a path over a t ladder,
P(h(x, t_K)) ... P(h(x, t_1)), evaluated on stacked rungs with batched
matmul.  Each chained projection is chart-free, so the chart fields
obtained by solving against the restricted frames intertwine the
restricted cocycles exactly.  Strip subdivision and clutching are kept for
product covers, where the t direction reduces to interval combinatorics.
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
    pullback,
    sampled_regions,
    trivial_bundle,
)
from .catalog import cylinder_base, extend_set, scaling_homotopy_map
from .errors import (
    BandMismatch,
    BundleformsError,
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
from .semialg import (Base, Condition, Cover, Polynomial, SamplePlan,
                      SemialgebraicSet)
from .unity import shrink_cover

DEFAULT_TRANSPORT_STEPS = 16
LADDER_GAP = 0.35           # largest probe jump between consecutive rungs
STRIP_MARGIN = 1e-9         # t-interval overlap a strip chain must keep
SLAB_T_VALUES = 21          # t slices of the slab coverage check
LADDER_MAX_POINTS = 1025    # cap on the transport ladder's t values
CLUTCH_TOL = 1e-8           # band variation and continuity bound of clutch


def _require_cylinder(base: Base) -> tuple[Base, int]:
    if base.cylinder_base is None or base.t_index is None:
        raise NotCatalogBase("operation needs a declared cylinder base")
    return base.cylinder_base, base.t_index


# ---------------------------------------------------------------------------
# Product covers, strips, clutching.


def product_cylinder_cover(cyl: Base, base_charts, intervals) -> Cover:
    """Cover of the cylinder by base-chart x open-t-interval product charts.

    `intervals` holds one (lo, hi) pair per chart; None means unbounded.
    """
    dim = cyl.dim
    t_poly = Polynomial.coordinate(dim, dim - 1)
    charts = []
    structure = []
    for chart, (lo, hi) in zip(base_charts, intervals):
        ext = extend_set(chart, dim)
        if lo is not None:
            ext = ext.with_condition(
                Condition.from_poly(t_poly - Polynomial.constant(dim, lo), ">"))
        if hi is not None:
            ext = ext.with_condition(
                Condition.from_poly(Polynomial.constant(dim, hi) - t_poly, ">"))
        charts.append(ext)
        structure.append((chart, (lo, hi)))
    return Cover(cyl, charts, name=f"{cyl.name}-product",
                 product_structure=structure)


@dataclass
class StripDecomposition:
    """Per base chart: constant breakpoints 0 = b_0 < ... < b_R = 1 and the
    cylinder chart assigned to each strip."""

    base_chart: SemialgebraicSet
    breakpoints: list[float]
    strip_charts: list[int]


def strip_subdivision(bundle: BundleRep,
                      plan: SamplePlan) -> list[StripDecomposition]:
    """Cut [0,1] into strips per base chart, each inside one product chart.

    Breakpoints sit at the midpoints of consecutive chosen t-intervals'
    overlaps.  A sampled t value over some base point covered by no chart
    raises TCoverGap with the witness.
    """
    cyl = bundle.base
    base_x, t_index = _require_cylinder(cyl)
    structure = bundle.cover.product_structure
    if structure is None:
        raise BundleformsError("strip subdivision needs declared product charts")
    groups: dict[int, list[tuple[int, tuple]]] = {}
    keyed: dict[bytes, int] = {}
    base_charts: list[SemialgebraicSet] = []
    for idx, (chart, interval) in enumerate(structure):
        key = repr([(c.op, repr(c.poly)) for piece in chart.pieces
                    for c in piece]).encode()
        gid = keyed.setdefault(key, len(base_charts))
        if gid == len(base_charts):
            base_charts.append(chart)
        groups.setdefault(gid, []).append((idx, interval))
    out = []
    for gid, members in groups.items():
        intervals = [( -np.inf if lo is None else lo, np.inf if hi is None else hi)
                     for _, (lo, hi) in members]
        order = sorted(range(len(members)), key=lambda k: (intervals[k][0],
                                                           intervals[k][1]))
        # greedy chain covering [0, 1]
        chain: list[int] = []
        reach = 0.0
        for _ in range(len(members) + 1):
            if reach >= 1.0 and chain:
                break
            best, best_hi = None, reach
            for k in order:
                lo, hi = intervals[k]
                if lo < reach + STRIP_MARGIN and hi > best_hi:
                    best, best_hi = k, hi
            if best is None or best_hi <= reach + STRIP_MARGIN:
                raise TCoverGap(
                    f"t = {reach:.6f} not covered over base chart {gid}",
                    point=None,
                )
            if chain and best == chain[-1]:
                raise TCoverGap(f"t coverage stalls at {reach:.6f}")
            chain.append(best)
            reach = best_hi
        breakpoints = [0.0]
        for a, b in zip(chain, chain[1:]):
            lo_next = intervals[b][0]
            hi_prev = intervals[a][1]
            if lo_next >= hi_prev - STRIP_MARGIN:
                raise TCoverGap(
                    f"gap between t-intervals {intervals[a]} and {intervals[b]}"
                )
            mid = 0.5 * (max(lo_next, 0.0) + min(hi_prev, 1.0))
            breakpoints.append(float(mid))
        breakpoints.append(1.0)
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise TCoverGap(f"breakpoints not increasing: {breakpoints}")
        strip_charts = [members[k][0] for k in chain]
        decomp = StripDecomposition(base_charts[gid], breakpoints, strip_charts)
        _certify_strips(bundle, decomp, plan)
        out.append(decomp)
    return out


def _certify_strips(bundle: BundleRep, decomp: StripDecomposition,
                    plan: SamplePlan):
    cyl = bundle.base
    region = cyl.cylinder_base.sset.intersect(decomp.base_chart)
    pts, _ = cyl.cylinder_base.sample_region(region, plan, plan.n_overlap)
    if pts.shape[0] == 0:
        return
    for k, chart_idx in enumerate(decomp.strip_charts):
        lo, hi = decomp.breakpoints[k], decomp.breakpoints[k + 1]
        for t in np.linspace(lo, hi, 5):
            lifted = np.column_stack([pts, np.full(pts.shape[0], t)])
            inside = bundle.cover.charts[chart_idx].membership(lifted)
            if not inside.all():
                bad = lifted[~inside][0]
                raise TCoverGap(
                    f"strip {k} escapes its chart at t = {t:.4f}",
                    point=tuple(float(v) for v in bad),
                )


@dataclass
class ClutchedTrivialization:
    """Glued per-strip trivialization fields over base_chart x [0,1]."""

    strips: StripDecomposition
    fields: list          # per strip: d x d ExprMatrix in that strip's chart
    report: CheckReport


def clutch(bundle: BundleRep, strips: StripDecomposition,
           plan: SamplePlan) -> ClutchedTrivialization:
    """Glue the strips' chart frames by the frame change on breakpoint bands.

    The first strip keeps its chart frame; each later one is carried back
    through the inverse frame changes at the breakpoints before it.  The
    frame change g_{next,k} between consecutive strips must be
    t-independent across the band at samples (it is a function of the base
    point only); variation beyond CLUTCH_TOL raises BandMismatch.
    """
    cyl = bundle.base
    base_x, t_index = _require_cylinder(cyl)
    d = bundle.rank
    region = base_x.sset.intersect(strips.base_chart)
    pts, _ = base_x.sample_region(region, plan, plan.n_overlap)
    glued = [em_identity(d)]
    accumulated = em_identity(d)
    max_var = 0.0
    for k in range(len(strips.strip_charts) - 1):
        c_k, c_next = strips.strip_charts[k], strips.strip_charts[k + 1]
        bp = strips.breakpoints[k + 1]
        m_field = bundle.transition(c_next, c_k)
        if pts.shape[0]:
            band_ts = [bp - 1e-3, bp, bp + 1e-3]
            vals = []
            for t in band_ts:
                lifted = np.column_stack([pts, np.full(pts.shape[0], t)])
                vals.append(em_eval(m_field, lifted))
            spread = max(np.abs(vals[a] - vals[b]).max()
                         for a in range(3) for b in range(a + 1, 3))
            max_var = max(max_var, float(spread))
            if spread > CLUTCH_TOL:
                raise BandMismatch(
                    f"frame change varies by {spread:.3e} across the band at "
                    f"t = {bp}"
                )
        m_at_bp = em_subst(m_field, {t_index: ex.Const(bp)})
        accumulated = em_mul(accumulated, em_inv(m_at_bp, guard_tol=1e-12))
        glued.append(accumulated)
    report = CheckReport("clutch", True, max_var)
    if pts.shape[0]:
        # continuity of the glued map across each band
        worst = 0.0
        for k in range(len(strips.strip_charts) - 1):
            bp = strips.breakpoints[k + 1]
            lifted = np.column_stack([pts, np.full(pts.shape[0], bp)])
            low = em_eval(glued[k], lifted)
            g = em_eval(bundle.transition(strips.strip_charts[k],
                                          strips.strip_charts[k + 1]), lifted)
            high = em_eval(glued[k + 1], lifted)
            worst = max(worst, float(np.abs(low @ g - high).max()))
        report = CheckReport("clutch", worst < CLUTCH_TOL, max(max_var, worst))
    return ClutchedTrivialization(strips, glued, report)


# ---------------------------------------------------------------------------
# Restriction to a t-slice.


def restrict_cylinder(bundle: BundleRep, t_value: float, plan: SamplePlan):
    """Restrict a cylinder bundle to the slice t = c.

    Returns (bundle over the cylinder's base, kept-chart index map).
    Charts whose slice at t = c has no sampled points are dropped.
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
        pts, warn = base_x.sample_region(base_x.sset.intersect(sliced), plan, 24)
        if warn or pts.shape[0] == 0:
            continue
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
    """
    cyl = bundle.base
    base_x, t_index = _require_cylinder(cyl)
    if bundle.cover.product_structure is not None:
        strip_subdivision(bundle, plan)          # certifies t-coverage
    else:
        _certify_slab_coverage(bundle, plan)
    shrink_cover(bundle.cover, plan=plan)   # one shrink pass must succeed

    target_proj, h_exprs = path or (gauss_embedding(bundle, plan=plan),
                                    [ex.Var(i) for i in range(cyl.dim)])
    h_exprs = [ex.as_expr(h) for h in h_exprs]

    def frame_at(chart: int, t: float):
        at_t = {t_index: ex.Const(t)}
        return em_subst(target_proj.frames[chart],
                        {i: ex.substitute(h, at_t) for i, h in enumerate(h_exprs)})

    t_values, gap = _adaptive_t_ladder(
        partial(ex.path_projectors, target_proj.entries, h_exprs, t_index),
        base_x, plan)
    transport = em_path_product(target_proj.entries, h_exprs, t_index,
                                t_values[1:])
    b0, kept0 = restrict_cylinder(bundle, 0.0, plan)
    b1, kept1 = restrict_cylinder(bundle, 1.0, plan)
    a, b = common_cover(b0, b1)
    parent_charts = [(kept0[i0], kept1[i1]) for i0, i1 in a.cover.parents]
    fields = []
    for c0, c1 in parent_charts:
        f0 = frame_at(c0, 0.0)
        f1 = frame_at(c1, 1.0)
        gram = em_mul(em_transpose(f1), f1)
        rhs = em_mul(em_transpose(f1), em_mul(transport, f0))
        fields.append(em_solve(gram, rhs, guard_tol=1e-12))
    witness = MorphismField(a, b, fields)
    report = check_isomorphism(a, b, witness, plan, tol)
    report.details.update(_ladder_details(t_values, gap))
    return HomotopyWitness(a, b, witness, report, parent_charts)


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
    Returns the ladder and its worst probe gap (NaN without probes), which
    exceeds LADDER_GAP only when doubling would pass LADDER_MAX_POINTS.
    """
    n = DEFAULT_TRANSPORT_STEPS
    probes = base_x.sample_points(plan)
    if probes.shape[0] == 0:
        return [k / n for k in range(n + 1)], float("nan")
    if probes.shape[0] > 512:
        stride = probes.shape[0] // 512 + 1
        probes = probes[::stride]
    vals = np.concatenate(list(values(probes, [k / n for k in range(n + 1)])))
    while True:
        worst = float(np.abs(np.diff(vals, axis=0)).max())
        if worst <= LADDER_GAP or 2 * n + 1 > LADDER_MAX_POINTS:
            return [k / n for k in range(n + 1)], worst
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
    """Sampled check that the charts cover base x [0, 1]."""
    base_x, t_index = _require_cylinder(bundle.base)
    pts = base_x.sample_points(plan)
    if pts.shape[0] == 0:
        raise CoverageFailure("cylinder base yielded no samples")
    for t in np.linspace(0.0, 1.0, SLAB_T_VALUES):
        lifted = np.column_stack([pts, np.full(pts.shape[0], t)])
        covered = np.zeros(pts.shape[0], dtype=bool)
        for chart in bundle.cover.charts:
            covered |= chart.membership(lifted)
        if not covered.all():
            bad = lifted[~covered][0]
            raise TCoverGap(
                f"slab point uncovered at t = {t:.3f}",
                point=tuple(float(v) for v in bad),
            )


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
        raise ContractionEscapesBase(str(err)) from err
    # t = 0 restriction is the constant cocycle g(center); its cocycle values
    # transport every refined chart to chart 0's frame
    at = {}     # per chart r: the first sampled point of its overlap with chart 0
    for (i, r), pts, _ in sampled_regions(hw.at_zero.cover, plan, 2):
        if i > 0:
            break
        at[r] = pts[:1]
    const_fields = [em_identity(bundle.rank)]
    for r in range(1, hw.at_zero.cover.n_charts):
        g = em_eval(hw.at_zero.transition(0, r),
                    at.get(r, center.reshape(1, -1)))[0]
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

    def as_component_expr(c):
        return c.to_expr() if isinstance(c, Polynomial) else ex.as_expr(c)

    pts = domain.sample_points(plan)
    if pts.shape[0]:
        lifted0 = np.column_stack([pts, np.zeros(pts.shape[0])])
        lifted1 = np.column_stack([pts, np.ones(pts.shape[0])])
        for cf, cg, ch in zip(f_map, g_map, h_map):
            ef, eg, eh = (as_component_expr(c) for c in (cf, cg, ch))
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
    h_exprs = [as_component_expr(c) for c in h_map]
    return homotopy_isomorphism(pulled, plan, tol,
                                path=(target_proj, h_exprs))
