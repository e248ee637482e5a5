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
    em_det,
    em_eval,
    em_hstack,
    em_identity,
    em_inv,
    em_inv_transpose,
    em_kron,
    em_shape,
    em_solve,
    em_sub,
    em_submatrix,
    em_subst,
    em_zero_gate,
)
from .semialg import GT, Base, Condition, Cover, SamplePlan, SemialgebraicSet
from .unity import PartitionOfUnity, partition_of_unity

DEFAULT_IDENTITY_TOL = 1e-9
DEFAULT_WITNESS_TOL = 1e-6
MINOR_THRESHOLD = 1e-6


class BundleRep:
    """Cover + rank + transition matrix fields g_ij on chart overlaps."""

    def __init__(self, cover: Cover, rank: int, transitions=None,
                 name: str = "", default_identity: bool = False):
        self.cover = cover
        self.rank = int(rank)
        self.transitions = dict(transitions or {})
        self.name = name
        self.default_identity = default_identity
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


def validate_cocycle(bundle: BundleRep, plan: SamplePlan | None = None,
                     tol: float = DEFAULT_IDENTITY_TOL) -> CheckReport:
    """Certify g_ii = id (canonical), g_ij g_jk = g_ik, and invertibility."""
    plan = plan or SamplePlan()
    cover = bundle.cover
    stat = _ResidualStat()
    identity_res = 0.0
    cocycle_res = 0.0
    q = cover.n_charts
    for i, j in itertools.combinations(range(q), 2):
        pts = cover.overlap_samples(i, j, plan)
        if pts.shape[0] == 0:
            continue
        gij = em_eval(bundle.transition(i, j), pts)
        gji = em_eval(bundle.transition(j, i), pts)
        res = np.abs(gij @ gji - np.eye(bundle.rank)).max(axis=(1, 2))
        identity_res = max(identity_res, float(res.max()) if res.size else 0.0)
        stat.add_residuals(res, pts)
        stat.add_dets(np.abs(np.linalg.det(gij)), pts, floor=tol)
    for i, j, k in itertools.permutations(range(q), 3):
        pts = cover.triple_samples(i, j, k, plan)
        if pts.shape[0] == 0:
            continue
        gij = em_eval(bundle.transition(i, j), pts)
        gjk = em_eval(bundle.transition(j, k), pts)
        gik = em_eval(bundle.transition(i, k), pts)
        res = np.abs(gij @ gjk - gik).max(axis=(1, 2))
        cocycle_res = max(cocycle_res, float(res.max()) if res.size else 0.0)
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
        return BundleRep(b1.cover, 0, {}, name="rank0", default_identity=True)
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
            transitions[(i, j)] = em_inv_transpose(b.transition(i, j))
        except BundleformsError:
            continue
    return BundleRep(b.cover, b.rank, transitions, name=f"dual({b.name})",
                     default_identity=b.default_identity)


def hom(b1: BundleRep, b2: BundleRep) -> BundleRep:
    """Hom(b1, b2) = dual(b1) tensor b2 on the cocycle level."""
    return tensor(dual(b1), b2)


def pullback(b: BundleRep, components, new_base: Base,
             plan: SamplePlan | None = None, name: str = "") -> BundleRep:
    """Pull the bundle back along a map new_base -> b.base.

    The map is a list of components, polynomials or expressions.  Charts
    become preimages (conditions composed with the map; polynomial
    conditions stay polynomial under polynomial maps) and the transitions
    are the originals with target variables substituted.
    """
    from .semialg import Polynomial
    plan = plan or SamplePlan()
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

    def check(self, plan: SamplePlan | None = None,
              tol: float = DEFAULT_IDENTITY_TOL) -> CheckReport:
        plan = plan or SamplePlan()
        cover = self.bundle.cover
        max_res, witness = 0.0, None
        for i, j in itertools.permutations(range(cover.n_charts), 2):
            pts = cover.overlap_samples(i, j, plan)
            if pts.shape[0] == 0:
                continue
            vi = em_eval(self.values[i], pts)
            vj = em_eval(self.values[j], pts)
            gij = em_eval(self.bundle.transition(i, j), pts)
            res = np.abs(vi - gij @ vj).max(axis=(1, 2))
            if res.max() > max_res:
                max_res = float(res.max())
                witness = tuple(pts[int(res.argmax())])
        return CheckReport("section-compat", max_res < tol, max_res,
                           witness=witness)


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
                      plan: SamplePlan | None = None,
                      tol: float = DEFAULT_WITNESS_TOL) -> CheckReport:
    """Certify u_i g1_ij = g2_ij u_j and min |det u_i| > tol at samples."""
    plan = plan or SamplePlan()
    cover = u.source.cover
    stat = _ResidualStat()
    for i in range(cover.n_charts):
        pts = cover.chart_samples(i, plan)
        if pts.shape[0] == 0:
            continue
        ui = em_eval(u.fields[i], pts)
        if ui.shape[1] == ui.shape[2]:
            stat.add_dets(np.abs(np.linalg.det(ui)), pts, floor=tol)
    for i, j in itertools.permutations(range(cover.n_charts), 2):
        pts = cover.overlap_samples(i, j, plan)
        if pts.shape[0] == 0:
            continue
        ui = em_eval(u.fields[i], pts)
        uj = em_eval(u.fields[j], pts)
        g1 = em_eval(u.source.transition(i, j), pts)
        g2 = em_eval(u.target.transition(i, j), pts)
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


def generating_sections(bundle: BundleRep, r: int = 1,
                        plan: SamplePlan | None = None) -> GeneratingSystem:
    """Sections lambda_i e_j (transported to every chart) generating each fiber."""
    plan = plan or SamplePlan()
    pou = partition_of_unity(bundle.cover, r, plan)
    d, q = bundle.rank, bundle.cover.n_charts
    sections = []
    zero_col = tuple((ex.Const(0.0),) for _ in range(d))
    for i in range(q):
        lam = pou.weights[i]
        for j in range(d):
            values = []
            for k in range(q):
                if k == i:
                    col = tuple((ex.Mul(lam, ex.Const(1.0 if a == j else 0.0)),)
                                for a in range(d))
                else:
                    try:
                        g = bundle.transition(k, i)
                    except BundleformsError:
                        # charts never overlap: the section vanishes on chart k
                        col = zero_col
                    else:
                        col = tuple((ex.ZeroGate(lam, g[a][j]),) for a in range(d))
                values.append(col)
            sections.append(SectionRep(bundle, values))
    _check_generating(sections, plan)
    return GeneratingSystem(bundle, sections, pou)


def section_value_matrix(sections, chart: int, pts: np.ndarray) -> np.ndarray:
    """(N, d, m) array of the m section values in one chart frame."""
    cols = [em_eval(s.values[chart], pts) for s in sections]
    return np.concatenate(cols, axis=2)


def _normalized_min_sv(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    sv = np.linalg.svd(mat / safe, compute_uv=False)
    return sv[:, min(mat.shape[1], mat.shape[2]) - 1]


def _check_generating(sections, plan: SamplePlan, tol: float = 1e-9):
    bundle = sections[0].bundle
    d = bundle.rank
    for k in range(bundle.cover.n_charts):
        pts = bundle.cover.chart_samples(k, plan)
        if pts.shape[0] == 0:
            continue
        mat = section_value_matrix(sections, k, pts)
        bad = _normalized_min_sv(mat) <= tol
        if bad.any():
            raise RankDrop(
                f"section values drop below rank {d} at "
                f"{tuple(pts[int(np.argmax(bad))])}"
            )


@dataclass
class ProjectorField:
    """Global idempotent symmetric matrix field presenting a subbundle of eps^n."""

    base: Base
    entries: tuple        # n x n ExprMatrix over the base
    rank: int
    source: BundleRep | None = None
    frames: list | None = None        # per source chart: ambient frame (n x d)
    pou: PartitionOfUnity | None = None

    @property
    def ambient(self) -> int:
        return em_shape(self.entries)[0]

    def eval(self, pts: np.ndarray) -> np.ndarray:
        return em_eval(self.entries, pts)

    def check(self, plan: SamplePlan | None = None,
              tol: float = 1e-8) -> CheckReport:
        plan = plan or SamplePlan()
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


def gauss_embedding(bundle: BundleRep, r: int = 1,
                    plan: SamplePlan | None = None,
                    system: GeneratingSystem | None = None) -> ProjectorField:
    """Ambient projector onto the bundle, via the generating-section frames.

    In chart k the ambient frame stacks lambda_i * g_ik blockwise; the
    orthogonal projector onto its column span is chart-independent, and the
    charts' formulas are glued with the partition of unity.
    """
    plan = plan or SamplePlan()
    system = system or generating_sections(bundle, r, plan)
    pou = system.pou
    d, q = bundle.rank, bundle.cover.n_charts
    n = q * d
    frames = []
    projs = []
    zero_block = tuple(tuple(ex.Const(0.0) for _ in range(d)) for _ in range(d))
    for k in range(q):
        blocks = []
        for i in range(q):
            if i == k:
                block = tuple(
                    tuple(ex.Mul(pou.weights[i], ex.Const(1.0 if a == b else 0.0))
                          for b in range(d))
                    for a in range(d))
            else:
                try:
                    gik = bundle.transition(i, k)
                except BundleformsError:
                    block = zero_block
                else:
                    block = em_zero_gate(pou.weights[i], gik)
            blocks.append(block)
        frame = tuple(row for block in blocks for row in block)  # (qd x d)
        frames.append(frame)
        projs.append(em_colspan_proj(frame, guard_tol=1e-12))
    entries = []
    for a in range(n):
        row = []
        for b in range(n):
            acc = None
            for k in range(q):
                term = ex.ZeroGate(pou.weights[k], projs[k][a][b])
                acc = term if acc is None else ex.Add(acc, term)
            row.append(acc)
        entries.append(tuple(row))
    field = ProjectorField(bundle.base, tuple(entries), d, bundle, frames, pou)
    report = field.check(plan)
    if not report.passed:
        raise RankDrop(
            f"embedding projector failed certification: residual "
            f"{report.max_residual:.3e} at {report.witness}"
        )
    return field


def bundle_from_projector(proj: ProjectorField, plan: SamplePlan | None = None,
                          threshold: float = MINOR_THRESHOLD,
                          name: str = "") -> BundleRep:
    """Bundle of the projector's range, on minor-selected frame charts.

    Chart U_I exists for each column subset I (|I| = rank) whose frame Gram
    determinant det P[I, I] clears the threshold somewhere; the subsets are
    scanned lexicographically at each sample so chart selection is
    deterministic.  Transitions are the frame-change solves
    g_JI = P[J,J]^-1 P[J,I].
    """
    plan = plan or SamplePlan()
    d = proj.rank
    base = proj.base
    if d == 0:
        cover = Cover(base, [SemialgebraicSet.whole_space(base.dim)],
                      name=f"{name or 'rank0'}-cover")
        return BundleRep(cover, 0, {}, name=name or "rank0", default_identity=True)
    pts = base.sample_points(plan)
    if pts.shape[0] == 0:
        raise CoverageFailure("projector base yielded no sample points")
    p = proj.eval(pts)
    subsets = list(itertools.combinations(range(proj.ambient), d))
    grams = np.stack(
        [np.linalg.det(p[:, list(idx), :][:, :, list(idx)]) for idx in subsets],
        axis=1,
    )
    chosen = np.full(pts.shape[0], -1)
    for col in range(len(subsets)):
        fresh = (chosen < 0) & (grams[:, col] > threshold)
        chosen[fresh] = col
    if (chosen < 0).any():
        bad = pts[int(np.argmax(chosen < 0))]
        raise NoChartFound(
            f"no {d}-column minor of the projector clears {threshold:.1e}",
            point=bad,
        )
    used = sorted(set(int(c) for c in chosen))
    charts = []
    for col in used:
        idx = subsets[col]
        det_expr = em_det(em_submatrix(proj.entries, idx, idx))
        gate = ex.Sub(det_expr, ex.Const(threshold))
        charts.append(SemialgebraicSet(base.dim, [[Condition(gate, GT)]]))
    cover = Cover(base, charts, name=f"{name or 'proj'}-minors")
    transitions = {}
    for a, ca in enumerate(used):
        for b, cb in enumerate(used):
            if a == b:
                continue
            idx_a, idx_b = subsets[ca], subsets[cb]
            paa = em_submatrix(proj.entries, idx_a, idx_a)
            pab = em_submatrix(proj.entries, idx_a, idx_b)
            transitions[(a, b)] = em_solve(paa, pab, guard_tol=1e-12)
    bundle = BundleRep(cover, d, transitions, name=name or f"range({proj.rank})")
    bundle.frame_subsets = [subsets[c] for c in used]
    bundle.projector = proj
    return bundle


def projector_frames(bundle: BundleRep):
    """Ambient frames (n x d submatrices of P) for a minor-chart bundle."""
    proj = bundle.projector
    return [em_submatrix(proj.entries, range(proj.ambient), idx)
            for idx in bundle.frame_subsets]


def complement(bundle: BundleRep, r: int = 1, plan: SamplePlan | None = None,
               proj: ProjectorField | None = None) -> BundleRep:
    """Orthogonal complement inside the ambient trivial bundle."""
    plan = plan or SamplePlan()
    proj = proj or gauss_embedding(bundle, r, plan)
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
    fields = []
    for r_idx, (i, j) in enumerate(cover.parents):
        fields.append(em_hstack(proj.frames[i], comp_frames[j]))
    witness = MorphismField(total, triv, fields)
    return total, triv, witness


def coefficients(section: SectionRep, system: GeneratingSystem,
                 plan: SamplePlan | None = None, r: int = 1,
                 threshold: float = 1e-6) -> list:
    """Express a section in a generating system: s = sum_j c_j s_j.

    Per chart, a lexicographically chosen subset of generators with a
    nondegenerate value minor is solved against the section; the local
    solutions are glued with a partition of unity over the minor charts.
    """
    plan = plan or SamplePlan()
    bundle = system.bundle
    d, q = bundle.rank, bundle.cover.n_charts
    m = len(system.sections)
    refined_charts = []
    chart_data = []  # (chart index, generator subset)
    for k in range(q):
        pts = bundle.cover.chart_samples(k, plan)
        if pts.shape[0] == 0:
            continue
        values = section_value_matrix(system.sections, k, pts)  # (N, d, m)
        remaining = np.ones(pts.shape[0], dtype=bool)
        for subset in itertools.combinations(range(m), d):
            sub = values[:, :, subset]
            dets = np.abs(np.linalg.det(sub))
            ok = dets > threshold
            if not (ok & remaining).any():
                continue
            cols = [em_submatrix(system.sections[idx].values[k], range(d), [0])
                    for idx in subset]
            vmat = cols[0]
            for c in cols[1:]:
                vmat = em_hstack(vmat, c)
            det_expr = em_det(vmat)
            gate = ex.Sub(ex.Mul(det_expr, det_expr), ex.Const(threshold**2))
            chart = bundle.cover.charts[k].with_condition(Condition(gate, GT))
            refined_charts.append(chart)
            chart_data.append((k, subset, vmat))
            remaining &= ~ok
            if not remaining.any():
                break
        if remaining.any():
            raise GeneratorsDegenerate(
                f"no generator minor clears {threshold:.1e} at "
                f"{tuple(pts[int(np.argmax(remaining))])}"
            )
    if not refined_charts:
        raise GeneratorsDegenerate("no sampled chart points to solve on")
    refined = Cover(bundle.base, refined_charts, name="coefficient-minors")
    pou = partition_of_unity(refined, r, plan)
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


def s1_line_class(bundle: BundleRep, n_steps: int = 720) -> int:
    """Mod-2 monodromy of transition determinant signs around the circle.

    The loop is walked with adaptive bisection: where no single chart
    contains two consecutive loop points (chart crossover bands can be
    narrow for derived covers), the step is halved until a chart chain
    connects them.
    """
    circ = bundle.base.circle
    if circ is None:
        raise NotCatalogBase("determinant class needs a circle catalog base")
    if bundle.rank < 1:
        raise NotCatalogBase("determinant class needs rank >= 1")
    dim = bundle.base.dim
    charts = bundle.cover.charts

    def point(angle: float) -> np.ndarray:
        p = np.zeros((1, dim))
        p[0, circ.coord_x] = np.cos(angle)
        p[0, circ.coord_y] = np.sin(angle)
        return p

    member_cache: dict[float, np.ndarray] = {}

    def precompute(angle_list):
        pts = np.zeros((len(angle_list), dim))
        pts[:, circ.coord_x] = np.cos(angle_list)
        pts[:, circ.coord_y] = np.sin(angle_list)
        rows = np.stack([c.membership(pts, margin=1e-9) for c in charts], axis=1)
        for a, row in zip(angle_list, rows):
            member_cache[a] = row

    def membership(angle: float) -> np.ndarray:
        row = member_cache.get(angle)
        if row is None:
            row = np.array([c.membership(point(angle), margin=1e-9)[0]
                            for c in charts])
            member_cache[angle] = row
        return row

    def switch_sign(old: int, new: int, angle: float) -> float:
        g = em_eval(bundle.transition(new, old), point(angle))
        det = float(np.linalg.det(g[0]))
        if abs(det) < 1e-12:
            raise GuardViolation("degenerate transition on the loop",
                                 point=point(angle)[0])
        return np.sign(det)

    angles = [2.0 * np.pi * k / n_steps for k in range(n_steps)]
    angles.append(2.0 * np.pi)
    precompute(angles)
    start_members = membership(0.0)
    if not start_members.any():
        raise CoverageFailure("circle loop start not covered by any chart")
    start = int(np.argmax(start_members))
    current, sign = start, 1.0
    i = 0
    while i < len(angles) - 1:
        a, b = angles[i], angles[i + 1]
        mb = membership(b)
        if mb[current]:
            i += 1
            continue
        ma = membership(a)
        both = np.flatnonzero(ma & mb)
        if both.size:
            new = int(both[0])
            sign *= switch_sign(current, new, a)
            current = new
            i += 1
            continue
        if b - a < 1e-9:
            raise CoverageFailure(
                f"no chart chain near loop angle {a:.6f}"
            )
        angles.insert(i + 1, 0.5 * (a + b))
    if current != start:
        sign *= switch_sign(current, start, 0.0)
    return 0 if sign > 0 else 1
