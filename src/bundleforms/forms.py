"""Bilinear form fields over cocycle bundles.

A form field is one symmetric matrix of expressions per chart, compatible
across overlaps through the transitions.  Diagonalization runs a pivoted
congruence Gram-Schmidt (columns normalized by |s(w,w)|^(-1/2)); where all
candidate diagonals vanish a hyperbolic-pair fix restores a usable pivot.
The positive/negative splitting uses the sign-projectors of the pencil
G^-1 S against the standard positive form, which is chart-free up to
conjugation; the two-chart convex-blend construction is kept as a separate
operation for cross-validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .bundles import (
    BundleRep,
    CheckReport,
    MorphismField,
    ProjectorField,
    _ResidualStat,
    check_isomorphism,
    dual,
    gauss_embedding,
    parent_charts,
    projector_frames,
    sampled_regions,
    tensor as tensor_bundle,
    whitney_sum,
)
from .errors import (
    BaseMismatch,
    BundleformsError,
    CoverageFailure,
    DimensionMismatch,
    InconsistentSignature,
    NearSingular,
    NonFiniteForm,
    OmegaViolation,
)
from .matexpr import (
    em_add,
    em_block_diag,
    em_colspan_proj,
    em_const,
    em_eval,
    em_glue,
    em_hstack,
    em_identity,
    em_inv,
    em_kron,
    em_mul,
    em_pencil_pair,
    em_pencil_sqrt,
    em_scale,
    em_shape,
    em_solve,
    em_sub,
    em_submatrix,
    em_transpose,
    em_vstack,
    em_zero_gate,
)
from .semialg import Condition, GT, SamplePlan, SemialgebraicSet, first_flagged

NEARLY_SINGULAR = 1e-12
PIVOT_RATIO = 1e-10


@dataclass(frozen=True)
class SignatureType:
    pos: int
    neg: int

    @property
    def rank(self) -> int:
        return self.pos + self.neg

    @property
    def difference(self) -> int:
        return self.pos - self.neg

    def __iter__(self):
        return iter((self.pos, self.neg))

    def __repr__(self):
        return f"({self.pos},{self.neg})"


def j_matrix(sig: SignatureType) -> np.ndarray:
    return np.diag([1.0] * sig.pos + [-1.0] * sig.neg)


class FormField:
    """Per-chart symmetric matrices of expressions over a bundle.

    Provenance, where a construction knows it: `hyperbolic_of`, the bundle
    of a hyperbolic space; `negation_of`, the form a negation flips;
    `cancellation_of`, the form b of a sum b + (-b).  `certified` holds
    results certified on the form, as `BundleRep.certified` does on a
    bundle: the definite split of `rings._definite_parts`.
    """

    def __init__(self, bundle: BundleRep, mats, name: str = "", *,
                 hyperbolic_of: BundleRep | None = None,
                 negation_of: "FormField | None" = None,
                 cancellation_of: "FormField | None" = None):
        self.bundle = bundle
        self.mats = [tuple(tuple(ex.as_expr(e) for e in row) for row in m)
                     for m in mats]
        self.name = name
        self.hyperbolic_of = hyperbolic_of
        self.negation_of = negation_of
        self.cancellation_of = cancellation_of
        self.certified: dict = {}
        d = bundle.rank
        if len(self.mats) != bundle.cover.n_charts:
            raise DimensionMismatch("need one matrix field per chart")
        for m in self.mats:
            if d and em_shape(m) != (d, d):
                raise DimensionMismatch("form matrix size differs from rank")

    @classmethod
    def from_upper(cls, bundle: BundleRep, uppers, name: str = "") -> "FormField":
        """Build from upper-triangle entries so symmetry holds structurally."""
        d = bundle.rank
        mats = []
        for upper in uppers:
            grid = [[None] * d for _ in range(d)]
            k = 0
            for i in range(d):
                for j in range(i, d):
                    e = ex.as_expr(upper[k])
                    grid[i][j] = e
                    grid[j][i] = e
                    k += 1
            if k != len(upper):
                raise DimensionMismatch("upper triangle length mismatch")
            mats.append(tuple(tuple(row) for row in grid))
        return cls(bundle, mats, name)

    @classmethod
    def constant(cls, bundle: BundleRep, matrix) -> "FormField":
        matrix = np.asarray(matrix, dtype=float)
        if not np.allclose(matrix, matrix.T):
            raise DimensionMismatch("constant form must be symmetric")
        sym = 0.5 * (matrix + matrix.T)
        return cls(bundle, [em_const(sym)] * bundle.cover.n_charts)

    @property
    def rank(self) -> int:
        return self.bundle.rank

    def eval_chart(self, i: int, pts: np.ndarray) -> np.ndarray:
        return em_eval(self.mats[i], pts)

    def __repr__(self):
        return f"FormField({self.name or '?'}, rank={self.rank})"


def validate_form(form: FormField, plan: SamplePlan,
                  tol: float = 1e-9) -> CheckReport:
    """Certify symmetry, nondegeneracy, and overlap compatibility at samples:
    residuals below `tol`, and |det| at least `tol`, as in `validate_cocycle`."""
    cover = form.bundle.cover
    stat = _ResidualStat()
    for (i,), pts, ev in sampled_regions(cover, plan, 1):
        s = ev(form.mats[i])
        sym = np.abs(s - np.swapaxes(s, 1, 2)).max(axis=(1, 2))
        stat.add_residuals(sym, pts)
        stat.add_dets(np.abs(np.linalg.det(s)), pts, floor=tol)
    for (i, j), pts, ev in sampled_regions(cover, plan, 2):
        si, sj = ev(form.mats[i]), ev(form.mats[j])
        gji = ev(form.bundle.transition(j, i))
        res = np.abs(np.swapaxes(gji, 1, 2) @ sj @ gji - si).max(axis=(1, 2))
        stat.add_residuals(res, pts)
    passed = stat.max < tol and stat.min_det >= tol
    return CheckReport("form", passed, stat.max, stat.min_det, stat.witness,
                       mean_residual=stat.mean)


def standard_positive_form(bundle: BundleRep, plan: SamplePlan) -> FormField:
    """Restrict the ambient inner product through the Gauss embedding:
    s_i = A_i^T A_i with A_i the chart frame in the ambient trivial bundle,
    the embedding's own `grams`."""
    proj = gauss_embedding(bundle, plan=plan)
    return FormField(bundle, proj.grams, name=f"pos({bundle.name})")


# ---------------------------------------------------------------------------
# Congruence Gram-Schmidt diagonalization.


def gram_schmidt_frame(s: np.ndarray, points: np.ndarray | None = None):
    """Congruence frames g with g^T S g = diag(+1...,-1...) and their types.

    One d x d matrix gives (g, SignatureType).  A stack (N, d, d) gives
    (frames (N, d, d), pos (N,)): every row is nondegenerate, so its type
    is (pos, d - pos).  Pivots greedily on the largest |s(w, w)|; when every
    remaining diagonal is below PIVOT_RATIO * scale the hyperbolic-pair fix
    (w_a += w_b for the largest off-diagonal pair) restores a pivot.  If
    any row fails, the error is raised for the first failing row, at its
    row of `points` (the sample each row of the stack was evaluated at),
    if given.
    """
    s = np.asarray(s, dtype=float)
    stack = s[None] if s.ndim == 2 else s
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch("gram_schmidt_frame needs a symmetric matrix")
    n, d = stack.shape[:2]
    frames, pos = np.zeros((n, d, d)), np.zeros(n, dtype=int)
    if d:
        asym = ~np.isclose(stack, np.swapaxes(stack, 1, 2),
                           atol=1e-12).all(axis=(1, 2))
        dets = np.linalg.det(stack)
        singular = np.abs(dets) <= NEARLY_SINGULAR
        usable = np.where((asym | singular)[:, None, None], np.eye(d), stack)
        scale = np.maximum(np.abs(usable).max(axis=(1, 2)), 1e-30)
        cols, signs, _, stuck = _gs_events(usable, scale)
        bad = asym | singular | stuck
        if bad.any():
            k = int(np.argmax(bad))
            point = None if points is None else points[k]
            if asym[k]:
                raise DimensionMismatch("gram_schmidt_frame needs a symmetric matrix",
                                        point=point)
            if singular[k]:
                raise NearSingular(f"determinant {dets[k]:.3e} too close to zero",
                                   point=point)
            raise NearSingular("no usable pivot or hyperbolic pair", point=point)
        # positive columns first, each group in pivot order
        order = np.argsort(signs < 0, axis=1, kind="stable")
        frames = np.take_along_axis(cols, order[:, None, :], axis=2)
        pos = (signs > 0).sum(axis=1)
    if s.ndim == 2:
        return frames[0], SignatureType(int(pos[0]), d - int(pos[0]))
    return frames, pos


def _gs_events(s: np.ndarray, scale: np.ndarray):
    """Pivoted congruence Gram-Schmidt over a stack s (N, d, d), per row.

    Each of the d steps pivots on the first largest |w_j^T S w_j| over the
    unused slots.  While that is at most PIVOT_RATIO * scale, up to d + 1
    hyperbolic-pair fixes add slot b's vector to slot a's, for the first
    largest |w_a^T S w_b| in itertools.combinations order.  The pivot
    column is normalized and the unused slots are orthogonalized against
    it.  Returns (cols, signs, events, stuck): pivot columns and signs in
    pivot order, per-row event codes (read with `_events_of`), and the rows
    with neither a usable pivot nor a usable pair.
    """
    n, d = s.shape[:2]
    thr = PIVOT_RATIO * scale
    rows = np.arange(n)
    work = np.broadcast_to(np.eye(d), (n, d, d)).copy()
    unused = np.ones((n, d), dtype=bool)
    cols, signs = np.zeros((n, d, d)), np.zeros((n, d))
    stuck = np.zeros(n, dtype=bool)
    pair_a, pair_b = np.array(list(itertools.combinations(range(d), 2)),
                              dtype=int).reshape(-1, 2).T
    events = np.full((n, d, _event_width(d)), -1, dtype=np.int16)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ws = _slot_rows(work, s)
        for step in range(d):
            quad = (ws @ _slot_cols(work))[:, :, 0, 0]      # w_j^T S w_j
            best = np.zeros(n, dtype=int)
            pending = ~stuck
            for fix_round in range(d + 1):
                idx = np.flatnonzero(pending)
                if not idx.size:
                    break
                diag = np.where(unused[idx], np.abs(quad[idx]), -1.0)
                best[idx] = np.argmax(diag, axis=1)
                ok = diag[np.arange(idx.size), best[idx]] > thr[idx]
                pending[idx[ok]] = False
                idx = idx[~ok]
                if not idx.size:
                    break
                if not pair_a.size:     # d = 1: no pair to fix with
                    stuck[idx] = True
                    break
                q = (ws[idx][:, :, None] @ _slot_cols(work[idx])[:, None])[..., 0, 0]
                off = np.abs(q[:, pair_a, pair_b])
                live = unused[idx][:, pair_a] & unused[idx][:, pair_b] & ~np.isnan(off)
                off = np.where(live, off, -1.0)
                pick = np.argmax(off, axis=1)
                found = off[np.arange(idx.size), pick] > thr[idx]
                stuck[idx[~found]] = True
                pending[idx[~found]] = False
                idx, a, b = idx[found], pair_a[pick[found]], pair_b[pick[found]]
                work[idx, :, a] += work[idx, :, b]
                ws[idx] = _slot_rows(work[idx], s[idx])
                quad[idx] = (ws[idx] @ _slot_cols(work[idx]))[:, :, 0, 0]
                events[idx, step, 2 * fix_round] = a
                events[idx, step, 2 * fix_round + 1] = b
            val = quad[rows, best]
            sign = np.where(val > 0, 1.0, -1.0)
            v = work[rows, :, best] / np.sqrt(np.abs(val))[:, None]
            events[:, step, -2] = best
            events[:, step, -1] = sign
            cols[:, :, step] = v
            signs[:, step] = sign
            unused[rows, best] = False
            coeff = (ws @ v[:, None, :, None])[:, :, 0, 0]
            coeff = np.where(unused, sign[:, None] * coeff, 0.0)
            work -= coeff[:, None, :] * v[:, :, None]
            ws = _slot_rows(work, s)
    return cols, signs, events.reshape(n, d * _event_width(d)), stuck


# One row's `w_a @ s @ w_b` is a gemv on the strided column w_a, then a dot
# with the column w_b.  The two helpers below lay the stack out with those
# strides, so numpy's batched matmul makes the same BLAS calls row by row and
# every quadratic value, hence every pivot tie, matches the per-matrix loop.

def _slot_rows(work: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(N, d, 1, d): the row vectors w_j^T S of every slot j."""
    return np.swapaxes(work, 1, 2)[:, :, None, :] @ s[:, None]


def _slot_cols(work: np.ndarray) -> np.ndarray:
    """(N, d, d, 1): every slot's column w_j, as a strided view."""
    return np.swapaxes(work, 1, 2)[..., None]


def _event_width(d: int) -> int:
    # per step: d + 1 fix pairs (a, b), then the pivot's slot and sign
    return 2 * (d + 1) + 2


def _events_of(code: np.ndarray, d: int) -> tuple:
    """One row's event codes as ("fix", a, b) / ("pivot", slot, sign) events."""
    out = []
    for step in code.reshape(d, _event_width(d)):
        for a, b in step[:-2].reshape(-1, 2):
            if a < 0:
                break
            out.append(("fix", int(a), int(b)))
        out.append(("pivot", int(step[-2]), float(step[-1])))
    return tuple(out)


# A 2 x 2 row is typed in closed form only with |det| above this share of
# its squared scale, so its second pivot clears PIVOT_RATIO by far.
_TYPE_FLOOR = 1e-8


def signature_types(s: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per row of the stack s (N, d, d), its number of positive pivots:
    the `pos` of `gram_schmidt_frame(s, points)`, which raises for the
    first failing row.

    By Sylvester's law of inertia the type of a nondegenerate row is the
    signs of its eigenvalues, so rows with d = 1 or 2 are typed in closed
    form where a bound proves the engine would give the same type without
    raising; every other row goes to the engine in one call.  With sigma =
    max |s_ij| and D = s00 (d = 1) or s00 s11 - s01^2 (d = 2), a row is
    certified when s01 == s10 and |D| > max(_TYPE_FLOOR sigma^2 (d = 2),
    NEARLY_SINGULAR + delta sigma^d), delta = expr._FILTER_MARGIN.  A NaN
    or infinite entry, or a sigma^d that overflows, makes the test false.
    Its type is (1, 0) or (0, 1) by the sign of s00 (d = 1), else (1, 1)
    if D < 0, else (2, 0) or (0, 2) by the sign of s00.  With u = 2^-53
    (bounds as in Higham, Accuracy and Stability of Numerical Algorithms):

    - Determinant: numpy's is exp(sum log |u_ii|) over LAPACK's LU, within
      a relative 3 * 745 d u (not s00 bit for bit at d = 1) of the LU's
      product, which is s00 (d = 1) or within a small multiple of u
      sigma^2 of D.  As sigma^d >= |D| / 2, it exceeds NEARLY_SINGULAR
      wherever the test passes.  The symmetry test passes.
    - d = 1: the pivot is s00 exactly, above PIVOT_RATIO |s00|.
    - d = 2: the first pivot p1 is a diagonal entry above PIVOT_RATIO
      sigma, or, after the pair fix (both diagonals below it, so |s01| =
      sigma and D < 0), s00 + s11 + 2 s01, of size within 4e-10 sigma of
      2 sigma.  So |p1| <= 4 sigma.  The second vector w = e_j - c w_1
      (|c| <= sigma / |p1|, or 1.1 after the fix) has q(w) = D / p1 but
      for a term second order in c's rounding (the Schur complement is
      stationary in c), and the computed q(w) is within a small multiple
      of u sigma (1 + |c|)^2 of it.  Relative to |D / p1| that is at most
      u (6 sigma^2 / |D| + 4 sigma / |p1|) <= 5e10 u, as |D| >= s01^2 / 2
      where s01^2 >= 2 p1^2.  So the second pivot has the sign of D / p1
      and size at least |D| / (4 sigma) >= 2.5e-9 sigma, far above
      PIVOT_RATIO sigma: the type is (1, 1) if D < 0, and otherwise both
      pivots have the sign of s00, as s00 s11 > 0.
    """
    d = s.shape[1]
    if d not in (1, 2):
        return gram_schmidt_frame(s, points)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # uncertified
        size = np.abs(s).max(axis=(1, 2)) ** d
        if d == 1:
            det, floor = s[:, 0, 0], 0.0
            pos = (det > 0.0).astype(int)
        else:
            det = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 0, 1]
            floor = _TYPE_FLOOR * size
            pos = np.where(det < 0.0, 1, np.where(s[:, 0, 0] > 0.0, 2, 0))
        certified = ((s[:, 0, -1] == s[:, -1, 0]) & (np.abs(det) > np.maximum(
            floor, NEARLY_SINGULAR + ex._FILTER_MARGIN * size)))
    rest = np.flatnonzero(~certified)
    if rest.size:
        pos[rest] = gram_schmidt_frame(s[rest], points[rest])[1]
    return pos


def eigenvalue_signature(s: np.ndarray) -> SignatureType:
    """Independent oracle: count eigenvalue signs."""
    w = np.linalg.eigvalsh(np.asarray(s, dtype=float))
    return SignatureType(int((w > 0).sum()), int((w < 0).sum()))


def signature(form: FormField, plan: SamplePlan) -> SignatureType:
    """Diagonalization type at the base's samples, required constant.

    The evidence is the plan's n_chart samples of the base, each typed in
    every chart that holds it (`Cover.chart_memberships`): chart i's
    matrix is evaluated at the base samples inside chart i, in the kernel
    memo the base interns for that selection.  A chart too thin to hold a
    base sample is typed at its own sample (`Cover.region_memo`), and
    skipped only when that finds no point either.
    A base sample that no chart holds raises CoverageFailure at its point,
    unless no chart holds any base sample.  No typed point at all, or a
    second type, raises InconsistentSignature, the latter at the second
    type's first sample.  A sampled matrix with a NaN or infinite entry
    raises NonFiniteForm at its point."""
    base, cover = form.bundle.base, form.bundle.cover
    if not base.connected:
        raise InconsistentSignature(
            "signature needs a base declared connected", [], []
        )
    memo = base.sample_memo(plan)
    inside = cover.chart_memberships(memo)
    gap = first_flagged(memo.points, ~inside.any(axis=1))
    if gap is not None and inside.any():
        raise CoverageFailure(
            f"no chart of form {form.name or '?'} holds base sample {gap}",
            point=gap)
    seen: dict[tuple, tuple] = {}
    for i, held in enumerate(inside.T):
        chart = (base.intern([(memo, held)], plan.n_chart) if held.any()
                 else cover.region_memo((i,), plan))
        if len(chart) == 0:
            continue
        pts = chart.points
        mats = em_eval(form.mats[i], chart)
        bad = first_flagged(pts, ~np.isfinite(mats).all(axis=(1, 2)))
        if bad is not None:
            raise NonFiniteForm(f"form {form.name or '?'} is not finite at {bad}",
                                point=bad)
        pos = signature_types(mats, pts)
        for p in np.unique(pos):
            seen.setdefault((int(p), form.rank - int(p)),
                            first_flagged(pts, pos == p))
    if len(seen) != 1:
        raise InconsistentSignature(
            f"sampled types disagree: {sorted(seen)}" if seen else
            f"no chart of form {form.name or '?'} sampled a point",
            types=[SignatureType(*k) for k in sorted(seen)],
            points=[seen[k] for k in sorted(seen)],
            point=list(seen.values())[1] if seen else None,
        )
    ((pos, neg),) = seen.keys()
    return SignatureType(pos, neg)


# ---------------------------------------------------------------------------
# Local trivializing frames as expression fields.


@dataclass
class TrivializingChart:
    chart: SemialgebraicSet       # parent chart cut by pivot-validity guards
    parent: int                   # index of the form's chart
    frame: tuple                  # d x d ExprMatrix, g^T s g = J(sig)
    sig: SignatureType


@dataclass
class TrivializingCover:
    form: FormField
    charts: list


def local_trivializing_cover(form: FormField,
                             plan: SamplePlan) -> TrivializingCover:
    """Frame fields diagonalizing the form, one chart per pivot pattern.

    The pivot pattern observed numerically at each sample fixes the symbolic
    replay; samples with different patterns split the chart.  Each output
    chart carries guard conditions keeping its pivots nonzero.
    """
    out = []
    for (i,), pts, ev in sampled_regions(form.bundle.cover, plan, 1):
        mats = ev(form.mats[i])
        scale = np.maximum(np.abs(mats).max(axis=(1, 2), initial=0.0), 1e-30)
        _, _, events, stuck = _gs_events(mats, scale)
        if stuck.any():
            raise NearSingular("no usable pivot or hyperbolic pair",
                               point=first_flagged(pts, stuck))
        patterns = {_events_of(code, form.rank) for code in np.unique(events, axis=0)}
        for pattern in sorted(patterns):
            frame, sig, guards = _symbolic_gs(form.mats[i], pattern)
            chart = form.bundle.cover.charts[i]
            for guard in guards:
                chart = chart.with_condition(Condition(guard, GT))
            out.append(TrivializingChart(chart, i, frame, sig))
    if not out:
        raise NearSingular("no sampled chart points to diagonalize on")
    return TrivializingCover(form, out)


def _symbolic_gs(s_mat, events):
    """Replay a pivot pattern on the expression matrix."""
    d = em_shape(s_mat)[0]
    cols = {j: tuple((ex.Const(1.0 if a == j else 0.0),) for a in range(d))
            for j in range(d)}

    def quad(u, w):
        return em_mul(em_transpose(u), em_mul(s_mat, w))[0][0]

    pos_cols, neg_cols, guards = [], [], []
    for event in events:
        if event[0] == "fix":
            _, a, b = event
            cols[a] = tuple((ex.Add(cols[a][r][0], cols[b][r][0]),)
                            for r in range(d))
            continue
        _, slot, sign = event
        w = cols[slot]
        val = quad(w, w)
        # pin both the magnitude and the recorded sign of the pivot
        guards.append(ex.Sub(ex.Mul(ex.Const(float(sign)), val), ex.Const(1e-10)))
        denom = ex.Sqrt(ex.Abs(val), guard_tol=1e-14)
        v = tuple((ex.Div(w[r][0], denom, guard_tol=1e-14),) for r in range(d))
        (pos_cols if sign > 0 else neg_cols).append(v)
        del cols[slot]
        for j in list(cols):
            coeff = quad(cols[j], v)
            shift = ex.Const(float(sign))
            cols[j] = tuple(
                (ex.Sub(cols[j][r][0], ex.Mul(shift, ex.Mul(coeff, v[r][0]))),)
                for r in range(d))
    ordered = pos_cols + neg_cols
    frame = ordered[0]
    for col in ordered[1:]:
        frame = em_hstack(frame, col)
    return frame, SignatureType(len(pos_cols), len(neg_cols)), guards


# ---------------------------------------------------------------------------
# Positive/negative decomposition.


@dataclass
class FiberProjectorPair:
    """Per-chart fiberwise projectors splitting the form's bundle."""

    form: FormField
    proj: ProjectorField    # the bundle's Gauss embedding; its grams are G
    plus: list      # per chart d x d ExprMatrix
    minus: list
    sig: SignatureType

    def check(self, plan: SamplePlan, tol: float = 1e-8) -> CheckReport:
        bundle = self.form.bundle
        stat = _ResidualStat()
        for (i,), pts, ev in sampled_regions(bundle.cover, plan, 1):
            p, q = ev(self.plus[i]), ev(self.minus[i])
            res = np.abs(p + q - np.eye(bundle.rank)).max(axis=(1, 2))
            res = np.maximum(res, np.abs(p @ p - p).max(axis=(1, 2)))
            res = np.maximum(res, np.abs(q @ q - q).max(axis=(1, 2)))
            stat.add_residuals(res, pts)
        for (i, j), pts, ev in sampled_regions(bundle.cover, plan, 2):
            gij = ev(bundle.transition(i, j))
            for mats in (self.plus, self.minus):
                res = np.abs(ev(mats[i]) @ gij - gij @ ev(mats[j])).max(axis=(1, 2))
                stat.add_residuals(res, pts)
        return CheckReport("decomposition", stat.max < tol, stat.max,
                           witness=stat.witness, mean_residual=stat.mean)

    def restricted_definiteness(self, plan: SamplePlan):
        """(min eig on range P+, max eig on range P-) over all samples."""
        bundle = self.form.bundle
        min_pos, max_neg = float("inf"), float("-inf")
        for (i,), _, ev in sampled_regions(bundle.cover, plan, 1):
            s = ev(self.form.mats[i])
            for mats, positive in ((self.plus, True), (self.minus, False)):
                proj = ev(mats[i])
                rank = self.sig.pos if positive else self.sig.neg
                if rank == 0:
                    continue
                u, sv, _ = np.linalg.svd(proj)
                basis = u[:, :, :rank]
                restr = np.swapaxes(basis, 1, 2) @ s @ basis
                w = np.linalg.eigvalsh(restr)
                if positive:
                    min_pos = min(min_pos, float(w.min()))
                else:
                    max_neg = max(max_neg, float(w.max()))
        return min_pos, max_neg

    def to_ambient(self) -> tuple[ProjectorField, ProjectorField]:
        """Glue chartwise A_i Pi A_i^+ into global ambient projectors."""
        proj = self.proj
        outs = []
        pinvs = [_left_inverse(f, g) for f, g in zip(proj.frames, proj.grams)]
        for mats, rank in ((self.plus, self.sig.pos), (self.minus, self.sig.neg)):
            locals_k = [em_mul(f, em_mul(m, p))
                        for f, m, p in zip(proj.frames, mats, pinvs)]
            outs.append(ProjectorField(proj.base, em_glue(proj.pou.weights, locals_k),
                                       rank))
        return outs[0], outs[1]


def decompose(form: FormField, plan: SamplePlan) -> FiberProjectorPair:
    """Split the bundle into positive/negative subbundles of the form.

    Chart-free spectral construction: the sign-projectors of the pencil
    G^-1 S against the standard positive form G of the bundle conjugate
    correctly across charts, so the chartwise formulas agree where charts
    overlap.  Each chart's two sign-projector groups differ in their op
    alone (`em_pencil_pair`), so one eigensolve per point set serves both.
    """
    proj = gauss_embedding(form.bundle, plan=plan)
    sig = signature(form, plan)
    pairs = [em_pencil_pair(s, g) for s, g in zip(form.mats, proj.grams)]
    return FiberProjectorPair(form, proj, [p for p, _ in pairs],
                              [m for _, m in pairs], sig)


def blend_positive_subbundle(frame_field, r_plus: int, nu_plus, mu: ex.Expr,
                             overlap_pts: np.ndarray | None = None):
    """Convex blend of a positive subbundle across a two-chart cover.

    `frame_field` trivializes the form on chart U (g^T s g = J); `nu_plus`
    is a positive subbundle frame on chart V.  In the trivialized
    coordinates the V-side subspace is the graph of theta with operator
    norm < 1, so scaling theta by the weight mu stays inside the convex
    set of positive graphs.  Returns the blended subspace projector (valid
    on U; where mu = 0 it is the standard positive coordinate subspace).
    """
    d = em_shape(frame_field)[0]
    r_minus = d - r_plus
    coords = em_solve(frame_field, nu_plus)  # d x r_plus
    top = em_submatrix(coords, range(r_plus), range(r_plus))
    bottom = em_submatrix(coords, range(r_plus, d), range(r_plus))
    theta = em_mul(bottom, em_inv(top, guard_tol=1e-12))       # r_minus x r_plus
    if overlap_pts is not None and overlap_pts.shape[0]:
        th = em_eval(theta, overlap_pts)
        norms = np.linalg.svd(th, compute_uv=False)[:, 0]
        bad = first_flagged(overlap_pts, norms >= 1.0)
        if bad is not None:
            raise OmegaViolation(
                f"graph operator norm {norms.max():.3f} >= 1 at {bad}", point=bad)
    # ZeroGate(mu, theta) = mu * theta where mu > 0 and exactly 0 elsewhere,
    # so the graph matrix is valid on all of U even where nu_plus is not
    graph = em_vstack(em_identity(r_plus), em_zero_gate(mu, theta))
    columns = em_mul(frame_field, graph)
    return em_colspan_proj(columns)


# ---------------------------------------------------------------------------
# Orthogonal sum, tensor, hyperbolic spaces.


def _lifted_mats(f1: FormField, f2: FormField, bundle_out: BundleRep):
    parents = parent_charts(f1.bundle, f2.bundle, bundle_out.cover)
    return [f1.mats[i] for i, _ in parents], [f2.mats[j] for _, j in parents]


def orthogonal_sum(f1: FormField, f2: FormField) -> FormField:
    if f1.bundle.base.sset is not f2.bundle.base.sset:
        raise BaseMismatch("orthogonal sum needs forms over one base")
    if f2.rank == 0:
        return f1
    if f1.rank == 0:
        return f2
    bundle = whitney_sum(f1.bundle, f2.bundle)
    m1, m2 = _lifted_mats(f1, f2, bundle)
    mats = [em_block_diag(a, b) for a, b in zip(m1, m2)]
    # b + (-b) carries its own hyperbolic witness
    cancelled = (f1 if f2.negation_of is f1 else
                 f2 if f1.negation_of is f2 else None)
    return FormField(bundle, mats, name=f"({f1.name})perp({f2.name})",
                     cancellation_of=cancelled)


def tensor_form(f1: FormField, f2: FormField) -> FormField:
    if f1.bundle.base.sset is not f2.bundle.base.sset:
        raise BaseMismatch("tensor needs forms over one base")
    bundle = tensor_bundle(f1.bundle, f2.bundle)
    name = f"({f1.name})ox({f2.name})"
    if bundle.rank == 0:
        return FormField(bundle, [()] * bundle.cover.n_charts, name=name)
    m1, m2 = _lifted_mats(f1, f2, bundle)
    return FormField(bundle, [em_kron(a, b) for a, b in zip(m1, m2)], name=name)


def negate_form(form: FormField) -> FormField:
    mats = [em_scale(ex.Const(-1.0), m) for m in form.mats]
    return FormField(form.bundle, mats, name=f"-({form.name})", negation_of=form)


def hyperbolic_space(bundle: BundleRep) -> tuple[BundleRep, FormField]:
    """H(b): form [[0, I], [I, 0]] on b + dual(b) in dual-paired frames."""
    d = bundle.rank
    total = whitney_sum(bundle, dual(bundle))
    block = np.zeros((2 * d, 2 * d))
    block[:d, d:] = np.eye(d)
    block[d:, :d] = np.eye(d)
    mats = [em_const(block)] * total.cover.n_charts
    return total, FormField(total, mats, name=f"H({bundle.name})",
                            hyperbolic_of=bundle)


# ---------------------------------------------------------------------------
# Isometries.


@dataclass
class IsometryWitness:
    morphism: MorphismField
    source_form: FormField
    target_form: FormField


def check_isometry(witness: IsometryWitness, plan: SamplePlan,
                   tol: float = 1e-8) -> CheckReport:
    """Intertwining + invertibility + u^T s' u = s, all at samples."""
    iso = check_isomorphism(witness.morphism.source, witness.morphism.target,
                            witness.morphism, plan, tol)
    stat = _ResidualStat()
    stat.max, stat.min_det = iso.max_residual, iso.min_abs_det
    if not iso.min_abs_det >= tol:  # the isomorphism's determinant failure
        stat.det_witness = iso.witness
    else:
        stat.residual_witness = iso.witness
    for (i,), pts, ev in sampled_regions(witness.morphism.source.cover, plan, 1):
        u = ev(witness.morphism.fields[i])
        s, sp = ev(witness.source_form.mats[i]), ev(witness.target_form.mats[i])
        res = np.abs(np.swapaxes(u, 1, 2) @ sp @ u - s).max(axis=(1, 2))
        stat.add_residuals(res, pts)
    passed = stat.max < tol and stat.min_det > tol
    return CheckReport("isometry", passed, stat.max, stat.min_det,
                       stat.witness, mean_residual=stat.mean)


def isometry_same_bundle(form: FormField, target: FormField,
                         plan: SamplePlan) -> IsometryWitness:
    """Isometry between two forms of equal signature on one bundle.

    Split both forms against the standard positive form; the projector
    swap phi = P+' P+ + P-' P- aligns the decompositions, the pulled-back
    form then block-diagonalizes along the source split, and the principal
    pencil square root of the blockwise absolute values corrects the
    definite parts.  Every factor is congruence-covariant, so the fields
    glue into a bundle morphism.
    """
    if form.bundle is not target.bundle:
        raise BaseMismatch("same-bundle isometry needs a shared bundle")
    src = decompose(form, plan)
    tgt = decompose(target, plan)
    if src.sig != tgt.sig:
        raise InconsistentSignature(
            f"signatures differ: {src.sig} vs {tgt.sig}",
            types=[src.sig, tgt.sig],
        )
    bundle = form.bundle
    fields = []
    for i in range(bundle.cover.n_charts):
        phi = em_add(em_mul(tgt.plus[i], src.plus[i]),
                     em_mul(tgt.minus[i], src.minus[i]))
        pulled = em_mul(em_transpose(phi), em_mul(target.mats[i], phi))
        # blockwise absolute values along the source split are SPD
        refl = em_sub(src.plus[i], src.minus[i])
        abs_src = em_mul(form.mats[i], refl)
        abs_pulled = em_mul(pulled, refl)
        correction = em_pencil_sqrt(abs_src, abs_pulled)
        fields.append(em_mul(phi, correction))
    witness = MorphismField(bundle, bundle, fields)
    return IsometryWitness(witness, form, target)


# ---------------------------------------------------------------------------
# Ambient transport of forms (for subbundle restrictions).


def ambient_form(form: FormField, proj: ProjectorField):
    """n x n expression matrix representing the form on range(P) in eps^n."""
    if proj.pou is None:
        raise BundleformsError("ambient form needs an embedding with a partition")
    locals_k = []
    for frame, gram, mat in zip(proj.frames, proj.grams, form.mats):
        pinv = _left_inverse(frame, gram)
        locals_k.append(em_mul(em_transpose(pinv), em_mul(mat, pinv)))
    return em_glue(proj.pou.weights, locals_k)


def _left_inverse(frame, gram):
    """(A^T A)^-1 A^T for an ambient frame A of full column rank and its
    Gram matrix A^T A."""
    return em_solve(gram, em_transpose(frame))


def restrict_form_to_range_bundle(ambient_mat, subbundle: BundleRep) -> FormField:
    """Pull an ambient form back through a minor-chart bundle's frames."""
    mats = []
    for frame in projector_frames(subbundle):
        mats.append(em_mul(em_transpose(frame), em_mul(ambient_mat, frame)))
    return FormField(subbundle, mats, name=f"restr({subbundle.name})")
