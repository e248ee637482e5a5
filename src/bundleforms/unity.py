"""Gluing toolbox: zero functions, separation, shrinking, partitions of unity.

These are the executable forms of the standard covering constructions.
Zero functions raise clamped violations to the power r + 1.  Every
partition of unity is built with clamp power `CLAMP_POWER` = 2, that is
r = 1, and no C^r degree is recorded on the expressions.  Every claimed
identity is certified at sampled points rather than symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    first_flagged,
)

CLAMP_POWER = 2     # power of the clamped violations in every partition of unity


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
    Disjointness is always certified on samples of the base, the samples of
    both sets drawn in one batch (`Base.region_memos`).
    """
    h = _separating(x_set, y_set, r)
    regions = [s.intersect(base.sset) for s in (x_set, y_set)]
    _certify_disjoint(x_set, y_set,
                      base.region_memos(regions, plan, plan.n_overlap))
    return h


def _separating(x_set: SemialgebraicSet, y_set: SemialgebraicSet,
                r: int) -> ex.Expr:
    """The function of `separating_function`, uncertified."""
    g = zero_function(x_set, r)
    h = zero_function(y_set, r)
    g2 = ex.Mul(g, g)
    h2 = ex.Mul(h, h)
    return ex.Div(g2, ex.Add(g2, h2))


def _certify_disjoint(x_set: SemialgebraicSet, y_set: SemialgebraicSet,
                      memos) -> None:
    """Raise NotDisjoint at the first sample of X (`memos[0]`) that lies in
    Y, else at the first sample of Y (`memos[1]`) that lies in X."""
    for memo, other in zip(memos, (y_set, x_set)):
        both = first_flagged(memo.points, other.membership(memo, eq_tol=1e-9))
        if both is not None:
            raise NotDisjoint(f"sampled point {both} lies in both sets", point=both)


@dataclass
class ShrunkCover:
    cover: Cover                    # the shrunk charts V_i
    support_gates: list[ex.Expr]    # f_i, vanishing exactly off V_i


def shrink_cover(cover: Cover, *, plan: SamplePlan) -> ShrunkCover:
    """Shrink each chart so its closure sits inside the original chart.

    Inductive construction: the part of the base not covered by the other
    charts is separated from the complement of the current chart, and the
    new chart is the sublevel set {h < 1/2} of the separating function.
    The samples only certify, so every separating function and shrunk chart
    is built first.  Then, step by step, the two separated sets and the
    closure of the shrunk chart are sampled on the base in one batch
    (`Base.region_memos`), which evaluates each condition once per cloud:
    a shrunk chart's condition is held before the later steps' complements,
    built on it, read it.  The samples are certified in the order of the
    induction: each step's disjointness, the shrunk cover's coverage, then
    each closure's containment in its original chart.
    """
    cover.require_coverage(plan)
    base = cover.base
    dim = base.dim
    new_charts: list[SemialgebraicSet] = []
    gates: list[ex.Expr] = []
    # per step: c_k, complement(U_k) and closure(V_k)
    regions: list[SemialgebraicSet] = []
    for k in range(cover.n_charts):
        remaining = []
        for v in new_charts:
            remaining.extend(v.pieces)
        for u in cover.charts[k + 1:]:
            remaining.extend(u.pieces)
        others = SemialgebraicSet(dim, remaining)
        c_k = others.complement()          # closed, possibly off-base junk included
        u_complement = cover.charts[k].complement()
        h = _separating(c_k, u_complement, CLAMP_POWER - 1)
        # V_k = {h < 1/2}; its closure {h <= 1/2} avoids {h = 1} = complement(U_k)
        v_expr = ex.Sub(ex.Const(0.5), h)
        v_k = SemialgebraicSet(dim, [[Condition(v_expr, GT)]])
        new_charts.append(v_k)
        # gate vanishing exactly off V_k: clamp(1/2 - h)^CLAMP_POWER
        gates.append(ex.Pow(ex.Clamp(v_expr), CLAMP_POWER))
        regions += [c_k, u_complement, v_k.closure()]
    memos = base.region_memos([s.intersect(base.sset) for s in regions], plan,
                              plan.n_overlap)
    for k in range(0, len(regions), 3):
        _certify_disjoint(*regions[k:k + 2], memos[k:k + 2])
    shrunk = Cover(base, new_charts, name=f"{cover.name}~shrunk")
    report = shrunk.coverage(plan)
    if not report.ok:
        raise CoverageFailure(
            f"shrunk cover misses sampled base point {report.witness}",
            point=report.witness)
    # closure-containment certificate: closure(V_k) stays inside U_k at samples
    for k, memo in enumerate(memos[2::3]):
        out = first_flagged(memo.points, ~cover.charts[k].membership(memo))
        if out is not None:
            raise CoverageFailure(
                f"shrunk chart {k} escapes its original chart at {out}", point=out)
    return ShrunkCover(shrunk, gates)


@dataclass
class PartitionOfUnity:
    weights: list[ex.Expr]          # lambda_i, summing to one on the base

    def __len__(self):
        return len(self.weights)


def partition_of_unity(cover: Cover, *, plan: SamplePlan) -> PartitionOfUnity:
    """Weights lambda_i = f_i^2 / sum f_j^2 subordinate to the cover.

    Each f_i vanishes exactly off the shrunk chart V_i, so lambda_i is zero
    exactly outside chart i and the weights sum to one wherever the shrunk
    cover covers, certified at base samples.
    """
    shrunk = shrink_cover(cover, plan=plan)
    return normalized_partition([ex.Mul(f, f) for f in shrunk.support_gates],
                                cover.base, plan)


def normalized_partition(parts: list[ex.Expr], base: Base,
                         plan: SamplePlan) -> PartitionOfUnity:
    """Weights w_k / sum_j w_j of nonnegative functions w_k, each zero
    exactly where its w_k is.  The denominator is certified positive at
    the base samples: CoverageFailure names the first where it is not."""
    total = parts[0]
    for part in parts[1:]:
        total = ex.Add(total, part)
    memo = base.sample_memo(plan)
    if len(memo):
        bad = first_flagged(memo.points, ~(ex.evaluate(total, memo) > 1e-12))
        if bad is not None:
            raise CoverageFailure(
                f"partition denominator vanishes at sampled base point {bad}",
                point=bad)
    return PartitionOfUnity([ex.Div(part, total) for part in parts])


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
    memo = base.region_memo(closure_u.intersect(base.sset), plan, plan.n_overlap)
    out = first_flagged(memo.points, ~v_set.membership(memo))
    if out is not None:
        raise ContainmentFailure(f"closure(U) escapes V at sampled point {out}",
                                 point=out)
    f = zero_function(closure_u, r)
    g = zero_function(v_set.complement(), r)
    f2 = ex.Mul(f, f)
    g2 = ex.Mul(g, g)
    t = ex.Var(u_set.dim)
    return ex.Div(ex.Add(ex.Mul(f2, t), g2), ex.Add(f2, g2))
