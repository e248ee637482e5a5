"""Vector bundles presented by transition cocycles, and their algebra.

A bundle is a cover, a rank, and per-overlap transition matrices of
expressions satisfying the cocycle laws.  Identity transitions are stored
canonically, everything else is certified at sampled overlap points.  The
projector bridge (generating sections -> ambient embedding -> idempotent
matrix field -> minor-chart bundle) makes the bundle/projective-module
correspondence executable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import (
    BaseMismatch,
    BundleformsError,
    CoverageFailure,
    GeneratorsDegenerate,
    GuardViolation,
    ImageEscapesBase,
    NoChartFound,
    NotCatalogBase,
    RankDrop,
)
from .matexpr import (
    em_block_diag,
    em_colspan_proj,
    em_const,
    em_det,
    em_eval,
    em_glue,
    em_hstack,
    em_identity,
    em_inv,
    em_kron,
    em_scale,
    em_shape,
    em_solve,
    em_sub,
    em_submatrix,
    em_subst,
    em_transpose,
    em_zero_gate,
)
from .semialg import GT, Base, Condition, Cover, SamplePlan, SemialgebraicSet
from .unity import PartitionOfUnity, partition_of_unity

DEFAULT_IDENTITY_TOL = 1e-9
DEFAULT_WITNESS_TOL = 1e-6
MINOR_THRESHOLD = 1e-6
GENERATING_TOL = 1e-9        # least normalized singular value of section values
LOOP_STEPS = 720             # initial equal steps of the circle walk


class BundleRep:
    """Cover + rank + transition matrix fields g_ij on chart overlaps."""

    def __init__(self, cover: Cover, rank: int, transitions=None,
                 name: str = "", default_identity: bool = False, *,
                 projector: "ProjectorField | None" = None,
                 frame_subsets: list | None = None):
        self.cover = cover
        self.rank = int(rank)
        self.transitions = dict(transitions or {})
        self.name = name
        self.default_identity = default_identity
        # minor-chart bundles: the projector and each chart's column subset
        self.projector = projector
        self.frame_subsets = frame_subsets
        # certified Gauss embeddings by (r, plan), filled by gauss_embedding
        self.embeddings: dict = {}
        for (i, j), g in self.transitions.items():
            if em_shape(g) != (self.rank, self.rank):
                raise BundleformsError(
                    f"transition ({i},{j}) has shape {em_shape(g)}, want rank {rank}"
                )

    def transition(self, i: int, j: int):
        """g_ij, mapping chart-j fiber coordinates to chart-i coordinates."""
        if i == j:
            return em_identity(self.rank)
        got = self.transitions.get((i, j))
        if got is not None:
            return got
        rev = self.transitions.get((j, i))
        if rev is not None:
            inv = em_inv(rev)
            self.transitions[(i, j)] = inv
            return inv
        if self.default_identity:
            return em_identity(self.rank)
        raise BundleformsError(f"no transition declared between charts {i} and {j}")

    @property
    def base(self) -> Base:
        return self.cover.base

    def __repr__(self):
        return (f"BundleRep({self.name or '?'}, rank={self.rank}, "
                f"charts={self.cover.n_charts})")


def trivial_bundle(cover: Cover, rank: int, name: str = "") -> BundleRep:
    return BundleRep(cover, rank, {}, name=name or f"eps^{rank}",
                     default_identity=True)


@dataclass
class CheckReport:
    """Residual summary of a sampled certification run."""

    name: str
    passed: bool
    max_residual: float = 0.0
    min_abs_det: float = float("inf")
    witness: tuple | None = None
    details: dict = field(default_factory=dict)
    mean_residual: float | None = None

    def as_dict(self):
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "mean_residual": (None if self.mean_residual is None
                              else float(self.mean_residual)),
            "min_abs_det": (None if np.isinf(self.min_abs_det)
                            else float(self.min_abs_det)),
        }
        if self.witness is not None:
            out["witness"] = [float(v) for v in self.witness]
        if self.details:
            out["details"] = {k: (float(v) if isinstance(v, (int, float, np.floating))
                                  else v)
                              for k, v in self.details.items()}
        return out


class _ResidualStat:
    """Running max/mean/min-det accumulator for sampled residual batches."""

    def __init__(self):
        self.max = 0.0
        self.total = 0.0
        self.count = 0
        self.min_det = float("inf")
        self.witness = None

    def add_residuals(self, res: np.ndarray, pts: np.ndarray):
        if res.size == 0:
            return
        self.total += float(res.sum())
        self.count += res.size
        peak = float(res.max())
        if peak > self.max:
            self.max = peak
            self.witness = tuple(pts[int(res.argmax())])

    def add_dets(self, dets: np.ndarray, pts: np.ndarray, floor: float):
        if dets.size == 0:
            return
        low = float(dets.min())
        if low < self.min_det:
            self.min_det = low
            if low < floor:
                self.witness = tuple(pts[int(dets.argmin())])

    @property
    def mean(self):
        return self.total / self.count if self.count else None


def sampled_regions(cover: Cover, plan: SamplePlan, arity: int):
    """Yield (indices, points, ev) for each sampled region of the cover.

    Arity 1 visits the charts in ascending order, arity 2 the ordered
    overlaps and arity 3 the ordered triples, in `itertools.permutations`
    order; regions without sample points are skipped.  `ev(matrix)`
    evaluates an expression matrix at the points in one context per visit,
    so a node shared by several matrices (the transport of a witness's
    chart fields, say) is computed once; the context is dropped when the
    visit ends.
    """
    for idx in itertools.permutations(range(cover.n_charts), arity):
        pts = cover.samples(idx, plan)
        if pts.shape[0] == 0:
            continue
        ctx = ex.EvalContext(pts)
        yield idx, pts, lambda matrix: ex._eval_matrix(matrix, ctx)
        del ctx


def validate_cocycle(bundle: BundleRep, plan: SamplePlan,
                     tol: float = DEFAULT_IDENTITY_TOL) -> CheckReport:
    """Certify g_ii = id (canonical), g_ij g_jk = g_ik, and invertibility."""
    cover = bundle.cover
    stat = _ResidualStat()
    identity_res = 0.0
    cocycle_res = 0.0
    q = cover.n_charts
    for (i, j), pts, ev in sampled_regions(cover, plan, 2):
        if i > j:
            continue
        gij = ev(bundle.transition(i, j))
        res = np.abs(gij @ ev(bundle.transition(j, i))
                     - np.eye(bundle.rank)).max(axis=(1, 2))
        identity_res = max(identity_res, float(res.max()))
        stat.add_residuals(res, pts)
        stat.add_dets(np.abs(np.linalg.det(gij)), pts, floor=tol)
    for (i, j, k), pts, ev in sampled_regions(cover, plan, 3):
        res = np.abs(ev(bundle.transition(i, j)) @ ev(bundle.transition(j, k))
                     - ev(bundle.transition(i, k))).max(axis=(1, 2))
        cocycle_res = max(cocycle_res, float(res.max()))
        stat.add_residuals(res, pts)
    passed = stat.max < tol and stat.min_det >= tol
    return CheckReport("cocycle", passed, stat.max, stat.min_det, stat.witness,
                       details={"charts": q, "rank": bundle.rank,
                                "identity_residual": identity_res,
                                "cocycle_residual": cocycle_res},
                       mean_residual=stat.mean)


# ---------------------------------------------------------------------------
# Bundle algebra on a common cover.


def _require_same_base(b1: BundleRep, b2: BundleRep):
    if b1.base is not b2.base and b1.base.sset is not b2.base.sset:
        raise BaseMismatch("bundles live over different bases")


def common_cover(b1: BundleRep, b2: BundleRep) -> tuple[BundleRep, BundleRep]:
    """Lift both bundles to the pairwise-intersection refinement."""
    _require_same_base(b1, b2)
    if b1.cover is b2.cover:
        return b1, b2
    refined, parents = b1.cover.refined_with(b2.cover)

    def lift(b: BundleRep, side: int) -> BundleRep:
        transitions = {}
        for (r, pr), (s, ps) in itertools.permutations(enumerate(parents), 2):
            if pr[side] == ps[side]:
                transitions[(r, s)] = em_identity(b.rank)
                continue
            try:
                transitions[(r, s)] = b.transition(pr[side], ps[side])
            except BundleformsError:
                # parents never overlap; the pair is only reachable when the
                # refined overlap is empty, so leave it undeclared
                pass
        return BundleRep(refined, b.rank, transitions, name=b.name,
                         default_identity=b.default_identity)

    return lift(b1, 0), lift(b2, 1)


def _paired(a: BundleRep, b: BundleRep):
    """(i, j) pairs for which both lifted bundles can state a transition."""
    q = a.cover.n_charts
    for i, j in itertools.permutations(range(q), 2):
        try:
            yield i, j, a.transition(i, j), b.transition(i, j)
        except BundleformsError:
            continue


def whitney_sum(b1: BundleRep, b2: BundleRep) -> BundleRep:
    _require_same_base(b1, b2)
    if b1.rank == 0:
        return b2
    if b2.rank == 0:
        return b1
    a, b = common_cover(b1, b2)
    transitions = {}
    for i, j, ga, gb in _paired(a, b):
        transitions[(i, j)] = em_block_diag(ga, gb)
    return BundleRep(a.cover, a.rank + b.rank, transitions,
                     name=f"({b1.name})+({b2.name})")


def tensor(b1: BundleRep, b2: BundleRep) -> BundleRep:
    _require_same_base(b1, b2)
    if b1.rank == 0 or b2.rank == 0:
        return trivial_bundle(b1.cover, 0, "rank0")
    a, b = common_cover(b1, b2)
    transitions = {}
    for i, j, ga, gb in _paired(a, b):
        transitions[(i, j)] = em_kron(ga, gb)
    return BundleRep(a.cover, a.rank * b.rank, transitions,
                     name=f"({b1.name})x({b2.name})")


def dual(b: BundleRep) -> BundleRep:
    q = b.cover.n_charts
    transitions = {}
    for i, j in itertools.permutations(range(q), 2):
        try:
            transitions[(i, j)] = em_transpose(em_inv(b.transition(i, j)))
        except BundleformsError:
            continue
    return BundleRep(b.cover, b.rank, transitions, name=f"dual({b.name})",
                     default_identity=b.default_identity)


def hom(b1: BundleRep, b2: BundleRep) -> BundleRep:
    """Hom(b1, b2) = dual(b1) tensor b2 on the cocycle level."""
    return tensor(dual(b1), b2)


def pullback(b: BundleRep, components, new_base: Base,
             plan: SamplePlan, name: str = "") -> BundleRep:
    """Pull the bundle back along a map new_base -> b.base.

    The map is a list of components, polynomials or expressions.  Charts
    become preimages (conditions composed with the map; polynomial
    conditions stay polynomial under polynomial maps) and the transitions
    are the originals with target variables substituted.
    """
    from .semialg import Polynomial
    if len(components) != b.base.dim:
        raise BaseMismatch("map components must match the target dimension")
    all_poly = all(isinstance(c, Polynomial) for c in components)
    comp_exprs = [c.to_expr() if isinstance(c, Polynomial) else ex.as_expr(c)
                  for c in components]
    pts = new_base.sample_points(plan)
    if pts.shape[0]:
        images = np.stack([ex.evaluate(e, pts) for e in comp_exprs], axis=1)
        inside = b.base.sset.membership(images, eq_tol=1e-7)
        if not inside.all():
            raise ImageEscapesBase(
                f"map image leaves the target base at {tuple(pts[~inside][0])}"
            )
    mapping = dict(enumerate(comp_exprs))
    compose = (lambda p: p.compose(list(components))) if all_poly else None
    charts = [chart.mapped(new_base.dim, compose,
                           lambda e: ex.substitute(e, mapping))
              for chart in b.cover.charts]
    cover = Cover(new_base, charts, name=f"pullback({b.cover.name})")
    transitions = {key: em_subst(g, mapping) for key, g in b.transitions.items()}
    return BundleRep(cover, b.rank, transitions, name=name or f"f*({b.name})",
                     default_identity=b.default_identity)


# ---------------------------------------------------------------------------
# Sections, morphisms, projectors.


@dataclass
class SectionRep:
    """Per-chart value vectors v_i with v_i = g_ij v_j on overlaps."""

    bundle: BundleRep
    values: list  # one (d x 1) ExprMatrix per chart

    def check(self, plan: SamplePlan,
              tol: float = DEFAULT_IDENTITY_TOL) -> CheckReport:
        stat = _ResidualStat()
        for (i, j), pts, ev in sampled_regions(self.bundle.cover, plan, 2):
            vi, vj = ev(self.values[i]), ev(self.values[j])
            gij = ev(self.bundle.transition(i, j))
            res = np.abs(vi - gij @ vj).max(axis=(1, 2))
            stat.add_residuals(res, pts)
        return CheckReport("section-compat", stat.max < tol, stat.max,
                           witness=stat.witness)


@dataclass
class MorphismField:
    """Per-chart matrices intertwining two cocycles over one cover."""

    source: BundleRep
    target: BundleRep
    fields: list  # per chart: (target_rank x source_rank) ExprMatrix

    def __post_init__(self):
        if self.source.cover is not self.target.cover:
            raise BaseMismatch("morphism needs source and target on one cover")


def check_isomorphism(b1: BundleRep, b2: BundleRep, u: MorphismField,
                      plan: SamplePlan,
                      tol: float = DEFAULT_WITNESS_TOL) -> CheckReport:
    """Certify u_i g1_ij = g2_ij u_j and min |det u_i| > tol at samples."""
    cover = u.source.cover
    stat = _ResidualStat()
    for (i,), pts, ev in sampled_regions(cover, plan, 1):
        ui = ev(u.fields[i])
        if ui.shape[1] == ui.shape[2]:
            stat.add_dets(np.abs(np.linalg.det(ui)), pts, floor=tol)
    for (i, j), pts, ev in sampled_regions(cover, plan, 2):
        ui, uj = ev(u.fields[i]), ev(u.fields[j])
        g1, g2 = ev(u.source.transition(i, j)), ev(u.target.transition(i, j))
        res = np.abs(ui @ g1 - g2 @ uj).max(axis=(1, 2))
        stat.add_residuals(res, pts)
    passed = stat.max < tol and stat.min_det > tol
    return CheckReport("isomorphism", passed, stat.max, stat.min_det,
                       stat.witness, mean_residual=stat.mean)


# ---------------------------------------------------------------------------
# Generating sections and the projector bridge.


@dataclass
class GeneratingSystem:
    bundle: BundleRep
    sections: list          # SectionRep, q*d of them
    pou: PartitionOfUnity


def _weighted_transition(bundle: BundleRep, weight, a: int, b: int):
    """weight * g_ab: weight * I on one chart, zero-gated by the weight
    elsewhere, and zero where the charts never meet."""
    if a == b:
        return em_scale(weight, em_identity(bundle.rank))
    try:
        return em_zero_gate(weight, bundle.transition(a, b))
    except BundleformsError:
        return em_const(np.zeros((bundle.rank, bundle.rank)))


def generating_sections(bundle: BundleRep, r: int = 1, *,
                        plan: SamplePlan) -> GeneratingSystem:
    """Sections lambda_i e_j (transported to every chart) generating each fiber.

    On chart k, the sections of lambda_i are the columns of lambda_i g_ki.
    """
    pou = partition_of_unity(bundle.cover, r, plan=plan)
    d, q = bundle.rank, bundle.cover.n_charts
    sections = []
    for i in range(q):
        blocks = [_weighted_transition(bundle, pou.weights[i], k, i)
                  for k in range(q)]
        for j in range(d):
            sections.append(SectionRep(bundle, [em_submatrix(block, range(d), [j])
                                                for block in blocks]))
    _check_generating(sections, plan)
    return GeneratingSystem(bundle, sections, pou)


def section_value_matrix(sections, chart: int, pts: np.ndarray) -> np.ndarray:
    """(N, d, m) array of the m section values in one chart frame."""
    ctx = ex.EvalContext(pts)
    return np.concatenate([ex._eval_matrix(s.values[chart], ctx)
                           for s in sections], axis=2)


def _normalized_min_sv(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    sv = np.linalg.svd(mat / safe, compute_uv=False)
    return sv[:, min(mat.shape[1], mat.shape[2]) - 1]


def _check_generating(sections, plan: SamplePlan):
    bundle = sections[0].bundle
    d = bundle.rank
    for (k,), pts, _ in sampled_regions(bundle.cover, plan, 1):
        mat = section_value_matrix(sections, k, pts)
        bad = _normalized_min_sv(mat) <= GENERATING_TOL
        if bad.any():
            raise RankDrop(
                f"section values drop below rank {d} at "
                f"{tuple(pts[int(np.argmax(bad))])}"
            )


@dataclass(frozen=True)
class ProjectorField:
    """Global idempotent symmetric matrix field presenting a subbundle of eps^n.

    Frozen: `gauss_embedding` hands one cached field to every caller.
    """

    base: Base
    entries: tuple        # n x n ExprMatrix over the base
    rank: int
    frames: list | None = None        # per bundle chart: ambient frame (n x d)
    pou: PartitionOfUnity | None = None

    @property
    def ambient(self) -> int:
        return em_shape(self.entries)[0]

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return em_eval(self.entries, pts)

    def check(self, plan: SamplePlan, tol: float = 1e-8) -> CheckReport:
        pts = self.base.sample_points(plan)
        p = self.eval(pts)
        sym = np.abs(p - np.swapaxes(p, 1, 2)).max()
        idem = np.abs(p @ p - p).max(axis=(1, 2))
        traces = np.trace(p, axis1=1, axis2=2)
        trace_err = np.abs(traces - self.rank).max()
        max_res = float(max(sym, idem.max(), trace_err))
        witness = tuple(pts[int(idem.argmax())]) if max_res >= tol else None
        return CheckReport("projector", max_res < tol, max_res, witness=witness,
                           details={"trace_error": trace_err})


def gauss_embedding(bundle: BundleRep, r: int = 1, *,
                    plan: SamplePlan) -> ProjectorField:
    """Ambient projector onto the bundle, via the generating-section frames.

    In chart k the ambient frame stacks lambda_i * g_ik blockwise; the
    orthogonal projector onto its column span is chart-independent, and the
    charts' formulas are glued with the partition of unity.

    The projector is certified when it is built and then kept in
    `bundle.embeddings` under (r, plan), so later calls return that same
    object; a projector that fails certification raises and is not kept.
    """
    field = bundle.embeddings.get((r, plan))
    if field is not None:
        return field
    pou = generating_sections(bundle, r, plan=plan).pou
    d, q = bundle.rank, bundle.cover.n_charts
    frames = []
    projs = []
    for k in range(q):
        blocks = [_weighted_transition(bundle, pou.weights[i], i, k)
                  for i in range(q)]
        frame = tuple(row for block in blocks for row in block)  # (qd x d)
        frames.append(frame)
        projs.append(em_colspan_proj(frame, guard_tol=1e-12))
    entries = em_glue(pou.weights, projs)
    field = ProjectorField(bundle.base, entries, d, frames, pou)
    report = field.check(plan)
    if not report.passed:
        raise RankDrop(
            f"embedding projector failed certification: residual "
            f"{report.max_residual:.3e} at {report.witness}"
        )
    bundle.embeddings[(r, plan)] = field
    return field


def _minor_cover(subsets, n_points: int, clears):
    """The subsets, in order, that are the first to clear their minor at
    some point, and the mask of points that none clears.

    `clears(subset)` is the (n_points,) mask where the subset's minor clears
    the threshold; no subset is evaluated once every point is covered.
    """
    used = []
    missed = np.ones(n_points, dtype=bool)
    for subset in subsets:
        if not missed.any():
            break
        ok = clears(subset)
        if (ok & missed).any():
            used.append(subset)
            missed &= ~ok
    return used, missed


def bundle_from_projector(proj: ProjectorField, plan: SamplePlan,
                          name: str = "") -> BundleRep:
    """Bundle of the projector's range, on minor-selected frame charts.

    Chart U_I exists for each column subset I (|I| = rank) whose frame Gram
    determinant det P[I, I] clears MINOR_THRESHOLD somewhere; the subsets
    are scanned lexicographically at each sample so chart selection is
    deterministic.  Transitions are the frame-change solves
    g_JI = P[J,J]^-1 P[J,I].
    """
    d = proj.rank
    base = proj.base
    if d == 0:
        cover = Cover(base, [SemialgebraicSet.whole_space(base.dim)],
                      name=f"{name or 'rank0'}-cover")
        return trivial_bundle(cover, 0, name or "rank0")
    pts = base.sample_points(plan)
    if pts.shape[0] == 0:
        raise CoverageFailure("projector base yielded no sample points")
    p = proj.eval(pts)
    used, missed = _minor_cover(
        itertools.combinations(range(proj.ambient), d), pts.shape[0],
        lambda idx: np.linalg.det(p[:, list(idx), :][:, :, list(idx)])
        > MINOR_THRESHOLD)
    if missed.any():
        raise NoChartFound(
            f"no {d}-column minor of the projector clears {MINOR_THRESHOLD:.1e}",
            point=pts[int(np.argmax(missed))],
        )
    charts = []
    for idx in used:
        det_expr = em_det(em_submatrix(proj.entries, idx, idx))
        gate = ex.Sub(det_expr, ex.Const(MINOR_THRESHOLD))
        charts.append(SemialgebraicSet(base.dim, [[Condition(gate, GT)]]))
    cover = Cover(base, charts, name=f"{name or 'proj'}-minors")
    transitions = {}
    for (a, idx_a), (b, idx_b) in itertools.permutations(enumerate(used), 2):
        paa = em_submatrix(proj.entries, idx_a, idx_a)
        pab = em_submatrix(proj.entries, idx_a, idx_b)
        transitions[(a, b)] = em_solve(paa, pab, guard_tol=1e-12)
    return BundleRep(cover, d, transitions, name=name or f"range({proj.rank})",
                     projector=proj, frame_subsets=used)


def projector_frames(bundle: BundleRep):
    """Ambient frames (n x d submatrices of P) for a minor-chart bundle."""
    proj = bundle.projector
    return [em_submatrix(proj.entries, range(proj.ambient), idx)
            for idx in bundle.frame_subsets]


def complement(bundle: BundleRep, plan: SamplePlan) -> BundleRep:
    """Orthogonal complement inside the ambient trivial bundle."""
    proj = gauss_embedding(bundle, plan=plan)
    n = proj.ambient
    q_entries = em_sub(em_identity(n), proj.entries)
    comp_proj = ProjectorField(proj.base, q_entries, n - proj.rank)
    return bundle_from_projector(comp_proj, plan, name=f"comp({bundle.name})")


def splitting_witness(bundle: BundleRep, comp: BundleRep,
                      proj: ProjectorField) -> tuple[BundleRep, BundleRep, MorphismField]:
    """Witness that bundle + complement is trivial of the ambient rank.

    Returns (sum_bundle, trivial, morphism); the chart fields stack the
    ambient frame of the bundle with the complement's minor frame.
    """
    total = whitney_sum(bundle, comp)
    cover = total.cover
    triv = trivial_bundle(cover, proj.ambient)
    comp_frames = projector_frames(comp)
    fields = [em_hstack(proj.frames[i], comp_frames[j]) for i, j in cover.parents]
    witness = MorphismField(total, triv, fields)
    return total, triv, witness


def coefficients(section: SectionRep, system: GeneratingSystem,
                 plan: SamplePlan) -> list:
    """Express a section in a generating system: s = sum_j c_j s_j.

    Per chart, a lexicographically chosen subset of generators with a
    nondegenerate value minor is solved against the section; the local
    solutions are glued with a partition of unity over the minor charts.
    """
    bundle = system.bundle
    d = bundle.rank
    m = len(system.sections)
    refined_charts = []
    chart_data = []  # (chart index, generator subset, value matrix)
    for (k,), pts, _ in sampled_regions(bundle.cover, plan, 1):
        values = section_value_matrix(system.sections, k, pts)  # (N, d, m)
        used, missed = _minor_cover(
            itertools.combinations(range(m), d), pts.shape[0],
            lambda subset: np.abs(np.linalg.det(values[:, :, subset]))
            > MINOR_THRESHOLD)
        if missed.any():
            raise GeneratorsDegenerate(
                f"no generator minor clears {MINOR_THRESHOLD:.1e} at "
                f"{tuple(pts[int(np.argmax(missed))])}"
            )
        for subset in used:
            cols = [system.sections[idx].values[k] for idx in subset]
            vmat = tuple(tuple(col[a][0] for col in cols) for a in range(d))
            det_expr = em_det(vmat)
            gate = ex.Sub(ex.Mul(det_expr, det_expr),
                          ex.Const(MINOR_THRESHOLD**2))
            refined_charts.append(
                bundle.cover.charts[k].with_condition(Condition(gate, GT)))
            chart_data.append((k, subset, vmat))
    if not refined_charts:
        raise GeneratorsDegenerate("no sampled chart points to solve on")
    refined = Cover(bundle.base, refined_charts, name="coefficient-minors")
    pou = partition_of_unity(refined, plan=plan)
    coeffs: list = [None] * m
    for weight, (k, subset, vmat) in zip(pou.weights, chart_data):
        rhs = section.values[k]
        solve = em_solve(vmat, rhs, guard_tol=1e-12)
        for pos, idx in enumerate(subset):
            term = ex.ZeroGate(weight, solve[pos][0])
            coeffs[idx] = term if coeffs[idx] is None else ex.Add(coeffs[idx], term)
    return [c if c is not None else ex.Const(0.0) for c in coeffs]


# ---------------------------------------------------------------------------
# Circle determinant class.


def s1_line_class(bundle: BundleRep) -> int:
    """Mod-2 monodromy of transition determinant signs around the circle.

    The loop starts as LOOP_STEPS equal steps.  Each round halves every
    step whose two ends no single chart contains (chart crossover bands
    can be narrow for derived covers), with one membership call per chart
    for all the new midpoints.  The walk then stays in its chart while the
    chart holds the next point and otherwise switches, at the step's start,
    to the first chart holding both ends.
    """
    circ = bundle.base.circle
    if circ is None:
        raise NotCatalogBase("determinant class needs a circle catalog base")
    if bundle.rank < 1:
        raise NotCatalogBase("determinant class needs rank >= 1")
    dim = bundle.base.dim
    charts = bundle.cover.charts

    def points(angles) -> np.ndarray:
        pts = np.zeros((len(angles), dim))
        pts[:, circ.coord_x] = np.cos(angles)
        pts[:, circ.coord_y] = np.sin(angles)
        return pts

    def members(angles) -> np.ndarray:
        pts = points(angles)
        return np.stack([c.membership(pts, margin=1e-9) for c in charts], axis=1)

    def switch_sign(old: int, new: int, angle: float) -> float:
        at = points([angle])
        det = float(np.linalg.det(em_eval(bundle.transition(new, old), at)[0]))
        if abs(det) < 1e-12:
            raise GuardViolation("degenerate transition on the loop", point=at[0])
        return np.sign(det)

    angles = np.append(2.0 * np.pi * np.arange(LOOP_STEPS) / LOOP_STEPS,
                       2.0 * np.pi)
    member = members(angles)
    if not member[0].any():
        raise CoverageFailure("circle loop start not covered by any chart")
    while True:
        bad = np.flatnonzero(~(member[:-1] & member[1:]).any(axis=1))
        if not bad.size:
            break
        narrow = bad[angles[bad + 1] - angles[bad] < 1e-9]
        if narrow.size:
            raise CoverageFailure(
                f"no chart chain near loop angle {angles[narrow[0]]:.6f}"
            )
        mids = 0.5 * (angles[bad] + angles[bad + 1])
        angles = np.insert(angles, bad + 1, mids)
        member = np.insert(member, bad + 1, members(mids), axis=0)
    start = int(np.argmax(member[0]))
    current, sign = start, 1.0
    for i in range(len(angles) - 1):
        if member[i + 1, current]:
            continue
        new = int(np.argmax(member[i] & member[i + 1]))
        sign *= switch_sign(current, new, angles[i])
        current = new
    if current != start:
        sign *= switch_sign(current, start, 0.0)
    return 0 if sign > 0 else 1
