"""Gluing toolbox: zero functions, separation, shrinking, partitions of unity.

These are the executable forms of the standard covering constructions.  Every
construction returns an expression with a smoothness lower bound of at
least the requested r, and every claimed identity is certified at sampled
points rather than symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import (
    ContainmentFailure,
    CoverageFailure,
    NotDisjoint,
    OpenSetRejected,
)
from .semialg import (
    GE,
    GT,
    EQ,
    Base,
    Condition,
    Cover,
    SamplePlan,
    SemialgebraicSet,
)


def zero_function(closed: SemialgebraicSet, r: int) -> ex.Expr:
    """Nonnegative C^r expression vanishing exactly on the closed set.

    Per basic piece, each condition contributes its clamped violation
    raised to the (r+1)-st power; the piece functions are multiplied so the
    product vanishes exactly on the union.
    """
    if not closed.is_closed_form():
        raise OpenSetRejected("zero_function needs nonstrict conditions only")
    if not closed.pieces:
        return ex.Const(1.0)  # empty set: nowhere zero
    piece_funcs = []
    for piece in closed.pieces:
        total: ex.Expr | None = None
        for cond in piece:
            if cond.op == GE:
                viol: ex.Expr = ex.Pow(ex.Clamp(-cond.expression), r + 1)
            elif cond.op == EQ:
                viol = ex.Add(ex.Pow(ex.Clamp(cond.expression), r + 1),
                              ex.Pow(ex.Clamp(-cond.expression), r + 1))
            else:  # pragma: no cover - is_closed_form filtered GT out
                raise OpenSetRejected("strict condition in a closed set")
            total = viol if total is None else ex.Add(total, viol)
        piece_funcs.append(total if total is not None else ex.Const(0.0))
    out = piece_funcs[0]
    for f in piece_funcs[1:]:
        out = ex.Mul(out, f)
    return out


def separating_function(x_set: SemialgebraicSet, y_set: SemialgebraicSet, r: int,
                        plan: SamplePlan, base: Base) -> ex.Expr:
    """C^r function with value exactly 0 on X and exactly 1 on Y.

    Built as g^2 / (g^2 + h^2) from the zero functions of the two sets.
    Disjointness is always certified on samples of the base.
    """
    g = zero_function(x_set, r)
    h = zero_function(y_set, r)
    for a, b in ((x_set, y_set), (y_set, x_set)):
        pts, _ = base.sample_region(a.intersect(base.sset), plan, plan.n_overlap)
        if pts.shape[0]:
            inside = b.membership(pts, eq_tol=1e-9)
            if inside.any():
                raise NotDisjoint(
                    f"sampled point {tuple(pts[inside][0])} lies in both sets"
                )
    g2 = ex.Mul(g, g)
    h2 = ex.Mul(h, h)
    return ex.Div(g2, ex.Add(g2, h2))


@dataclass
class ShrunkCover:
    cover: Cover                    # the shrunk charts V_i
    original: Cover
    support_gates: list[ex.Expr]    # f_i, vanishing exactly off V_i


def shrink_cover(cover: Cover, r: int = 1, *, plan: SamplePlan) -> ShrunkCover:
    """Shrink each chart so its closure sits inside the original chart.

    Inductive construction: the part of the base not covered by the other
    charts is separated from the complement of the current chart, and the
    new chart is the sublevel set {h < 1/2} of the separating function.
    """
    cover.require_coverage(plan)
    base = cover.base
    dim = base.dim
    new_charts: list[SemialgebraicSet] = []
    gates: list[ex.Expr] = []
    for k in range(cover.n_charts):
        remaining = []
        for v in new_charts:
            remaining.extend(v.pieces)
        for u in cover.charts[k + 1:]:
            remaining.extend(u.pieces)
        others = SemialgebraicSet(dim, remaining)
        c_k = others.complement()          # closed, possibly off-base junk included
        u_complement = cover.charts[k].complement()
        h = separating_function(c_k, u_complement, r, plan, base)
        # V_k = {h < 1/2}; its closure {h <= 1/2} avoids {h = 1} = complement(U_k)
        v_expr = ex.Sub(ex.Const(0.5), h)
        v_k = SemialgebraicSet(dim, [[Condition(v_expr, GT)]])
        new_charts.append(v_k)
        # gate vanishing exactly off V_k: clamp(1/2 - h)^(r+1)
        gates.append(ex.Pow(ex.Clamp(v_expr), r + 1))
    shrunk = Cover(base, new_charts, name=f"{cover.name}~shrunk")
    report = shrunk.coverage(plan)
    if not report.ok:
        raise CoverageFailure(
            f"shrunk cover misses sampled base point {report.witness}"
        )
    # closure-containment certificate: closure(V_k) stays inside U_k at samples
    for k, v_k in enumerate(new_charts):
        closed = v_k.closure().intersect(base.sset)
        pts, _ = base.sample_region(closed, plan, plan.n_overlap)
        if pts.shape[0]:
            inside = cover.charts[k].membership(pts)
            if not inside.all():
                raise CoverageFailure(
                    f"shrunk chart {k} escapes its original chart at "
                    f"{tuple(pts[~inside][0])}"
                )
    return ShrunkCover(shrunk, cover, gates)


@dataclass
class PartitionOfUnity:
    weights: list[ex.Expr]          # lambda_i, summing to one on the base
    shrunk: ShrunkCover

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)


def partition_of_unity(cover: Cover, r: int = 1, *,
                       plan: SamplePlan) -> PartitionOfUnity:
    """Weights lambda_i = f_i^2 / sum f_j^2 subordinate to the cover.

    Each f_i vanishes exactly off the shrunk chart V_i, so lambda_i is zero
    exactly outside chart i and the weights sum to one wherever the shrunk
    cover covers, certified at base samples.
    """
    shrunk = shrink_cover(cover, r, plan=plan)
    squares = [ex.Mul(f, f) for f in shrunk.support_gates]
    total = squares[0]
    for s in squares[1:]:
        total = ex.Add(total, s)
    pts = cover.base.sample_points(plan)
    if pts.shape[0]:
        vals = ex.evaluate(total, pts)
        if (vals <= 1e-12).any():
            bad = pts[int(np.argmax(vals <= 1e-12))]
            raise CoverageFailure(
                f"partition denominator vanishes at sampled base point {tuple(bad)}"
            )
    weights = [ex.Div(s, total) for s in squares]
    return PartitionOfUnity(weights, shrunk)


def vertical_retraction(u_set: SemialgebraicSet, v_set: SemialgebraicSet, r: int,
                        plan: SamplePlan, base: Base) -> ex.Expr:
    """tau(x, t) with tau = 1 over U, tau = t off V, interpolating between.

    Built as (f^2 t + g^2) / (f^2 + g^2) with f vanishing on closure(U) and
    g on the complement of V; t is the variable right after the ambient x
    variables.  closure(U) inside V is always certified on samples of the
    base.
    """
    if not u_set.is_open() or not v_set.is_open():
        raise ContainmentFailure("vertical retraction expects open U and V")
    closure_u = u_set.closure()
    pts, _ = base.sample_region(closure_u.intersect(base.sset), plan, plan.n_overlap)
    if pts.shape[0]:
        inside = v_set.membership(pts)
        if not inside.all():
            raise ContainmentFailure(
                f"closure(U) escapes V at sampled point {tuple(pts[~inside][0])}"
            )
    f = zero_function(closure_u, r)
    g = zero_function(v_set.complement(), r)
    f2 = ex.Mul(f, f)
    g2 = ex.Mul(g, g)
    t = ex.Var(u_set.dim)
    return ex.Div(ex.Add(ex.Mul(f2, t), g2), ex.Add(f2, g2))
