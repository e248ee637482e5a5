"""Semialgebraic sets, deterministic sampling, base spaces and covers.

A set is a finite union of basic pieces; each piece is a conjunction of
sign conditions on scalar functions.  Hand-declared sets use polynomials
with rational coefficients (kept exact for gradients and composition);
derived charts may additionally carry strict conditions on general
expressions, e.g. minor-determinant thresholds.

Coverage of a cover and membership of sampled points are certified by
deterministic sampling with a declared bounding box and margin, never
decided symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import (
    CoverageFailure,
    DimensionMismatch,
    NotPolynomial,
)

GT = ">"
GE = ">="
EQ = "=="

_EQ_TOL = 1e-9
_PROJ_TOL = 1e-13
_PROJ_STEPS = 40  # Gauss-Newton steps onto the equations


class Polynomial:
    """Multivariate polynomial with Fraction coefficients.

    Monomials are a dict {exponent tuple: Fraction}; all exponent tuples
    share the ambient dimension.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        self.dim = int(dim)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in (terms or {}).items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            if len(exps) != dim:
                raise DimensionMismatch("monomial arity does not match dimension")
            clean[tuple(int(e) for e in exps)] = coef
        self.terms = clean

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "Polynomial":
        exps = [0] * dim
        exps[index] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coef
        return Polynomial(self.dim, terms)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return Polynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Polynomial(self.dim, terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise DimensionMismatch("polynomial dimensions differ")
            return other
        return Polynomial.constant(self.dim, other)

    def eval(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[0])
        for exps, coef in self.terms.items():
            term = np.full(points.shape[0], float(coef))
            for i, e in enumerate(exps):
                if e:
                    term = term * points[:, i] ** e
            out += term
        return out

    def gradient(self) -> list["Polynomial"]:
        grads = []
        for i in range(self.dim):
            terms: dict[tuple[int, ...], Fraction] = {}
            for exps, coef in self.terms.items():
                if exps[i] == 0:
                    continue
                new = list(exps)
                new[i] -= 1
                key = tuple(new)
                terms[key] = terms.get(key, Fraction(0)) + coef * exps[i]
            grads.append(Polynomial(self.dim, terms))
        return grads

    def compose(self, maps: list["Polynomial"]) -> "Polynomial":
        """Substitute coordinate i by maps[i]; result lives in maps' dimension."""
        if len(maps) != self.dim:
            raise DimensionMismatch("need one substitution polynomial per variable")
        new_dim = maps[0].dim
        out = Polynomial(new_dim)
        for exps, coef in self.terms.items():
            term = Polynomial.constant(new_dim, coef)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * maps[i]
            out = out + term
        return out

    def to_expr(self) -> ex.Expr:
        out: ex.Expr | None = None
        for exps, coef in sorted(self.terms.items()):
            term: ex.Expr = ex.Const(float(coef))
            for i, e in enumerate(exps):
                if e:
                    factor: ex.Expr = ex.Var(i) if e == 1 else ex.Pow(ex.Var(i), e)
                    term = ex.Mul(term, factor)
            out = term if out is None else ex.Add(out, term)
        return out if out is not None else ex.Const(0.0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coef in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def expr_to_polynomial(node: ex.Expr, dim: int) -> Polynomial:
    """Convert a polynomial-shaped expression tree; raise NotPolynomial otherwise."""
    if isinstance(node, ex.Const):
        return Polynomial.constant(dim, Fraction(node.value).limit_denominator(10**12))
    if isinstance(node, ex.Var):
        return Polynomial.coordinate(dim, node.index)
    if isinstance(node, ex.Add):
        return expr_to_polynomial(node.a, dim) + expr_to_polynomial(node.b, dim)
    if isinstance(node, ex.Sub):
        return expr_to_polynomial(node.a, dim) - expr_to_polynomial(node.b, dim)
    if isinstance(node, ex.Mul):
        return expr_to_polynomial(node.a, dim) * expr_to_polynomial(node.b, dim)
    if isinstance(node, ex.Pow):
        base = expr_to_polynomial(node.base, dim)
        out = Polynomial.constant(dim, 1)
        for _ in range(node.exponent):
            out = out * base
        return out
    raise NotPolynomial(f"node {node!r} is not polynomial")


@dataclass(frozen=True)
class Condition:
    """One sign condition `expr op 0`; poly set when the function is polynomial."""

    expression: ex.Expr
    op: str
    poly: Polynomial | None = None

    def __post_init__(self):
        if self.op not in (GT, GE, EQ):
            raise ValueError(f"unknown condition op {self.op!r}")

    @classmethod
    def from_poly(cls, poly: Polynomial, op: str) -> "Condition":
        return cls(poly.to_expr(), op, poly)

    def negations(self) -> list["Condition"]:
        if self.op == GT:
            return [Condition.from_poly(-self.poly, GE) if self.poly
                    else Condition(ex.Sub(ex.Const(0.0), self.expression), GE)]
        if self.op == GE:
            return [Condition.from_poly(-self.poly, GT) if self.poly
                    else Condition(ex.Sub(ex.Const(0.0), self.expression), GT)]
        # complement of {p = 0} is {p > 0} or {-p > 0}
        if self.poly is not None:
            return [Condition.from_poly(self.poly, GT),
                    Condition.from_poly(-self.poly, GT)]
        return [Condition(self.expression, GT),
                Condition(ex.Sub(ex.Const(0.0), self.expression), GT)]

    def closure(self) -> "Condition":
        return Condition(self.expression, GE if self.op == GT else self.op, self.poly)


def _safe_eval(node: ex.Expr, ctx: ex.EvalContext) -> np.ndarray:
    """Evaluate in the context, marking points that violate guards with NaN:
    on a violation, each half of the points is retried in a fresh context."""
    try:
        return node.eval(ctx)
    except ex.GuardViolation:
        pass
    points = ctx.points
    n = points.shape[0]
    if n == 1:
        return np.array([np.nan])
    half = n // 2
    return np.concatenate([
        _safe_eval(node, ex.EvalContext(points[:half])),
        _safe_eval(node, ex.EvalContext(points[half:])),
    ])


class SemialgebraicSet:
    """Finite union of basic pieces in a fixed ambient dimension."""

    def __init__(self, dim: int, pieces):
        self.dim = int(dim)
        self.pieces = tuple(tuple(piece) for piece in pieces)

    @classmethod
    def whole_space(cls, dim: int) -> "SemialgebraicSet":
        return cls(dim, [[]])

    def is_open(self) -> bool:
        return all(c.op == GT for piece in self.pieces for c in piece)

    def is_closed_form(self) -> bool:
        return all(c.op in (GE, EQ) for piece in self.pieces for c in piece)

    def membership(self, points, margin: float = 0.0, eq_tol: float = _EQ_TOL) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        # one context for every condition: subexpressions that several
        # conditions share are evaluated once
        ctx = ex.EvalContext(points)
        out = np.zeros(points.shape[0], dtype=bool)
        for piece in self.pieces:
            mask = np.ones(points.shape[0], dtype=bool)
            for cond in piece:
                if not mask.any():
                    break
                vals = (cond.poly.eval(points) if cond.poly is not None
                        else _safe_eval(cond.expression, ctx))
                with np.errstate(invalid="ignore"):
                    if cond.op == GT:
                        mask &= vals > margin
                    elif cond.op == GE:
                        mask &= vals >= -eq_tol
                    else:
                        mask &= np.abs(vals) <= eq_tol
            out |= mask
        return out

    def complement(self) -> "SemialgebraicSet":
        """De Morgan complement, distributed back to a union of pieces."""
        acc: list[list[Condition]] = [[]]
        for piece in self.pieces:
            options: list[list[Condition]] = []
            for cond in piece:
                options.extend([neg] for neg in cond.negations())
            if not options:          # empty conjunction = whole space
                return SemialgebraicSet(self.dim, [])
            acc = [old + opt for old in acc for opt in options]
        return SemialgebraicSet(self.dim, acc)

    def closure(self) -> "SemialgebraicSet":
        return SemialgebraicSet(
            self.dim, [[c.closure() for c in piece] for piece in self.pieces]
        )

    def intersect(self, other: "SemialgebraicSet") -> "SemialgebraicSet":
        if other.dim != self.dim:
            raise DimensionMismatch("ambient dimensions differ")
        return SemialgebraicSet(
            self.dim,
            [list(p) + list(q) for p in self.pieces for q in other.pieces],
        )

    def mapped(self, dim: int, poly_map, expr_map) -> "SemialgebraicSet":
        """The set in `dim` coordinates with each condition's function
        mapped: polynomials through `poly_map` unless it is None, every
        other function through `expr_map`."""
        return SemialgebraicSet(dim, [
            [Condition.from_poly(poly_map(c.poly), c.op)
             if c.poly is not None and poly_map is not None
             else Condition(expr_map(c.expression), c.op) for c in piece]
            for piece in self.pieces])

    def with_condition(self, cond: Condition) -> "SemialgebraicSet":
        return SemialgebraicSet(self.dim, [list(p) + [cond] for p in self.pieces])

    def equality_polys(self, piece) -> list[Polynomial]:
        polys = []
        for cond in piece:
            if cond.op == EQ:
                if cond.poly is None:
                    raise NotPolynomial(
                        "equality conditions must be polynomial for projection sampling"
                    )
                polys.append(cond.poly)
        return polys

    def __repr__(self):
        return f"SemialgebraicSet(dim={self.dim}, pieces={len(self.pieces)})"


def halfspace(dim: int, coeffs, rhs, op: str = GT) -> SemialgebraicSet:
    """{ sum coeffs[i] x_i  op  rhs } as a one-piece set."""
    poly = Polynomial(dim)
    for i, c in enumerate(coeffs):
        if c:
            poly = poly + Polynomial(dim, {tuple(1 if j == i else 0 for j in range(dim)): Fraction(c)})
    poly = poly - Polynomial.constant(dim, Fraction(rhs))
    return SemialgebraicSet(dim, [[Condition.from_poly(poly, op)]])


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling plan: low-discrepancy grid plus seeded refinement."""

    seed: int = 0
    n_chart: int = 400
    n_overlap: int = 250
    n_triple: int = 150
    margin: float = 1e-9


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _halton(n: int, dim: int, skip: int = 20) -> np.ndarray:
    if dim > len(_PRIMES):
        raise DimensionMismatch("ambient dimension too large for the Halton bases")
    out = np.empty((n, dim))
    for j in range(dim):
        # radical inverse of skip..skip+n-1, digit by digit; a spent index
        # adds f * 0 = +0.0, which leaves r unchanged, so every value is
        # the per-index recurrence's to the bit
        base = _PRIMES[j]
        i = np.arange(skip, skip + n, dtype=np.int64)
        f, r = 1.0, np.zeros(n)
        while i.any():
            f /= base
            r += f * (i % base)
            i //= base
        out[:, j] = r
    return out


def _candidates(box, n: int, seed: int) -> np.ndarray:
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    n_grid = n // 2
    grid = lo + _halton(n_grid, len(box)) * (hi - lo)
    rng = np.random.default_rng(seed)
    rand = lo + rng.random((n - n_grid, len(box))) * (hi - lo)
    return np.vstack([grid, rand])


def _project_to_variety(points: np.ndarray, polys: list[Polynomial]) -> np.ndarray:
    """Gauss-Newton projection onto the common zero set of the polynomials."""
    pts = points.copy()
    grads = [p.gradient() for p in polys]
    for _ in range(_PROJ_STEPS):
        residual = np.stack([p.eval(pts) for p in polys], axis=1)
        if np.abs(residual).max() < _PROJ_TOL:
            break
        jac = np.stack(
            [np.stack([g.eval(pts) for g in grad], axis=1) for grad in grads],
            axis=1,
        )  # (N, k, dim)
        jjt = jac @ np.swapaxes(jac, 1, 2)
        jjt += 1e-14 * np.eye(jjt.shape[1])
        step = np.swapaxes(jac, 1, 2) @ np.linalg.solve(jjt, residual[:, :, None])
        pts = pts - step[:, :, 0]
    return pts


def _cloud(box, n: int, seed: int, eqs: list[Polynomial],
           memo: dict) -> np.ndarray:
    """The n seeded candidates in the box, projected onto the equations.

    The cloud is kept in the memo, read-only, under (box, n, seed,
    equations): it is a pure function of that key, so a hit returns the
    very array a fresh draw and projection would compute.
    """
    key = (tuple(map(tuple, box)), n, seed,
           tuple(tuple(sorted(p.terms.items())) for p in eqs))
    hit = memo.get(key)
    if hit is None:
        hit = _candidates(box, n, seed)
        if eqs:
            hit = _project_to_variety(hit, eqs)
        hit.flags.writeable = False
        memo[key] = hit
    return hit


def sample(sset: SemialgebraicSet, plan: SamplePlan, box,
           count: int | None = None,
           memo: dict | None = None) -> tuple[np.ndarray, bool]:
    """Sample points of the set inside the box.

    Returns (points, warning) where warning is True when nothing was found
    (empty set on the scanned box, or contradictory conditions).  `memo`
    keeps the candidate clouds (see `_cloud`); callers sampling a region of
    a base pass the base's `clouds` through `Base.sample_region`.
    """
    count = plan.n_chart if count is None else count
    memo = {} if memo is None else memo
    collected: list[np.ndarray] = []
    total = 0
    for round_idx in range(4):
        n_cand = max(4 * count, 256) * (round_idx + 1)
        seed = plan.seed + 7919 * round_idx
        for piece in sset.pieces:
            pts = _cloud(box, n_cand, seed, sset.equality_polys(piece), memo)
            piece_set = SemialgebraicSet(sset.dim, [piece])
            keep = piece_set.membership(pts, margin=plan.margin, eq_tol=1e-12)
            if keep.any():
                collected.append(pts[keep])
                total += int(keep.sum())
        if total >= count:
            break
    if not collected:
        return np.empty((0, sset.dim)), True
    allpts = np.vstack(collected)
    # deterministic dedupe keeping first occurrences
    _, idx = np.unique(np.round(allpts, 12), axis=0, return_index=True)
    allpts = allpts[np.sort(idx)]
    return allpts[:count], False


@dataclass(frozen=True)
class CircleGeometry:
    """Unit-circle catalog attribute: which two coordinates carry the circle."""

    coord_x: int = 0
    coord_y: int = 1


@dataclass(frozen=True)
class Base:
    """A base space: its set, a scan box, and catalog attributes.

    `clouds` is the base's sampling memo (see `_cloud`): it lives as long
    as the base and holds only arrays, never an object that points back.
    """

    sset: SemialgebraicSet
    box: tuple
    name: str = ""
    connected: bool = True
    star_center: tuple | None = None
    circle: CircleGeometry | None = None
    cylinder_base: "Base | None" = None
    t_index: int | None = None
    clouds: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    @property
    def dim(self) -> int:
        return self.sset.dim

    def sample_region(self, region: SemialgebraicSet, plan: SamplePlan,
                      count: int | None) -> tuple[np.ndarray, bool]:
        """`sample` of a region inside this base's box, with its memo."""
        return sample(region, plan, self.box, count, self.clouds)

    def sample_points(self, plan: SamplePlan) -> np.ndarray:
        """The plan's n_chart points of the base."""
        return self.sample_region(self.sset, plan, None)[0]


@dataclass
class CoverageReport:
    ok: bool
    n_points: int
    witness: tuple | None = None


class Cover:
    """A base plus finitely many open charts, with a sampled coverage certificate.

    `parents` gives, for a common refinement, the (i, j) parent chart pair of
    each chart; `product_structure`, for a product cover of a cylinder, the
    (base chart, t-interval) pair of each chart.
    """

    def __init__(self, base: Base, charts: list[SemialgebraicSet], name: str = "",
                 *, parents: list | None = None,
                 product_structure: list | None = None):
        if not charts:
            raise CoverageFailure("a cover needs at least one chart")
        for chart in charts:
            if chart.dim != base.dim:
                raise DimensionMismatch("chart dimension differs from base")
            if not chart.is_open():
                raise CoverageFailure("charts must be open (strict conditions only)")
        self.base = base
        self.charts = list(charts)
        self.name = name
        self.parents = parents
        self.product_structure = product_structure
        self._sample_cache: dict = {}

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def coverage(self, plan: SamplePlan) -> CoverageReport:
        pts = self.base.sample_points(plan)
        if pts.shape[0] == 0:
            return CoverageReport(False, 0, None)
        covered = np.zeros(pts.shape[0], dtype=bool)
        for chart in self.charts:
            covered |= chart.membership(pts, margin=0.0)
        if covered.all():
            return CoverageReport(True, pts.shape[0], None)
        bad = pts[~covered][0]
        return CoverageReport(False, pts.shape[0], tuple(float(v) for v in bad))

    def require_coverage(self, plan: SamplePlan) -> None:
        report = self.coverage(plan)
        if not report.ok:
            raise CoverageFailure(
                f"cover {self.name or '?'} misses sampled base point {report.witness}"
            )

    def samples(self, indices, plan: SamplePlan) -> np.ndarray:
        """Base points in the intersection of one, two or three charts.

        The region is built from the sorted indices, and the count is the
        plan's n_chart, n_overlap or n_triple by the number of charts.
        """
        key = (tuple(sorted(indices)), plan)
        if key not in self._sample_cache:
            region = self.base.sset
            for i in key[0]:
                region = region.intersect(self.charts[i])
            count = (plan.n_chart, plan.n_overlap, plan.n_triple)[len(key[0]) - 1]
            self._sample_cache[key] = self.base.sample_region(region, plan, count)[0]
        return self._sample_cache[key]

    def refined_with(self, other: "Cover") -> "tuple[Cover, list[tuple[int, int]]]":
        """Common refinement by pairwise chart intersections.

        Returns the refined cover and, per refined chart, the (i, j) pair of
        parent chart indices.  Pairs whose intersection has no sampled point
        are dropped.  The probe always uses the fixed default `SamplePlan()`
        (16 points): which intersections survive is part of the refined
        cover, so it must not depend on the plan a later check certifies with.
        """
        if other.base is not self.base and other.base.sset is not self.base.sset:
            raise CoverageFailure("refinement needs a common base")
        plan = SamplePlan()
        charts, parents = [], []
        for i, ci in enumerate(self.charts):
            for j, cj in enumerate(other.charts):
                inter = ci.intersect(cj)
                region = self.base.sset.intersect(inter)
                pts, warn = self.base.sample_region(region, plan, 16)
                if warn or pts.shape[0] == 0:
                    continue
                charts.append(inter)
                parents.append((i, j))
        if not charts:
            raise CoverageFailure("refinement produced no nonempty charts")
        refined = Cover(self.base, charts, name=f"{self.name}&{other.name}",
                        parents=parents)
        return refined, parents
