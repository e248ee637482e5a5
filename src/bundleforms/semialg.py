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
from functools import reduce

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
_SAMPLE_MARGIN = 1e-9  # strict conditions of a sampled point clear it
_PROBE_COUNT = 16  # points `Base.meets` asks for


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


def component_expr(component) -> ex.Expr:
    """A map component, a Polynomial, an Expr or a number, as an Expr."""
    if isinstance(component, Polynomial):
        return component.to_expr()
    return ex.as_expr(component)


def expr_to_polynomial(node: ex.Expr, dim: int) -> Polynomial:
    """Convert a polynomial-shaped expression tree; raise NotPolynomial otherwise."""
    convert = _TO_POLYNOMIAL.get(type(node))
    if convert is None:
        raise NotPolynomial(f"node {node!r} is not polynomial")
    return convert(node, dim)


def _binary(op):
    return lambda node, dim: op(expr_to_polynomial(node.a, dim),
                                expr_to_polynomial(node.b, dim))


# node class -> conversion of such a node in `dim` variables
_TO_POLYNOMIAL = {
    ex.Const: lambda node, dim: Polynomial.constant(
        dim, Fraction(node.value).limit_denominator(10**12)),
    ex.Var: lambda node, dim: Polynomial.coordinate(dim, node.index),
    ex.Add: _binary(Polynomial.__add__),
    ex.Sub: _binary(Polynomial.__sub__),
    ex.Mul: _binary(Polynomial.__mul__),
    ex.Pow: lambda node, dim: reduce(Polynomial.__mul__,
                                     [expr_to_polynomial(node.base, dim)] * node.exponent,
                                     Polynomial.constant(dim, 1)),
}


@dataclass(frozen=True)
class Condition:
    """One sign condition `expr op 0`; poly set when the function is
    polynomial, for projection onto equations.  Membership evaluates the
    expression.  It hashes by the expression's identity, op and poly's
    identity, so a region's `pieces` name its request (`Base.region_memos`)."""

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


def first_flagged(points: np.ndarray, flags: np.ndarray) -> tuple | None:
    """The first of `points` whose flag is set, as Python floats, or None:
    the sample that error messages and witnesses name."""
    if not flags.any():
        return None
    return tuple(float(v) for v in points[int(np.argmax(flags))])


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


def memberships(sets, points, margin: float) -> np.ndarray:
    """The (N, len(sets)) matrix of each set's membership, its strict
    conditions held above `margin`, evaluated in one context:
    subexpressions and matrix computations that several sets share are
    computed once."""
    ctx = ex.EvalContext(points)
    return np.stack([s._members(ctx, margin, _EQ_TOL) for s in sets], axis=1)


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

    def membership(self, points, eq_tol: float = _EQ_TOL) -> np.ndarray:
        """Per point of an (N, dim) array or a KernelMemo (sharing its
        MatrixGroup outputs), whether it is in the set."""
        return self._members(ex.EvalContext(points), 0.0, eq_tol)

    def _members(self, ctx: ex.EvalContext, margin: float,
                 eq_tol: float) -> np.ndarray:
        """Membership of the context's points: one context for every
        condition, so subexpressions that several conditions share are
        evaluated once."""
        points = ctx.points
        out = np.zeros(points.shape[0], dtype=bool)
        for piece in self.pieces:
            mask = np.ones(points.shape[0], dtype=bool)
            for cond in piece:
                if not mask.any():
                    break
                vals = _safe_eval(cond.expression, ctx)
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


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _halton(n: int, dim: int) -> np.ndarray:
    if dim > len(_PRIMES):
        raise DimensionMismatch("ambient dimension too large for the Halton bases")
    out = np.empty((n, dim))
    for j in range(dim):
        # radical inverse of 20..20+n-1, digit by digit; a spent index
        # adds f * 0 = +0.0, which leaves r unchanged, so every value is
        # the per-index recurrence's to the bit
        base = _PRIMES[j]
        i = np.arange(20, 20 + n, dtype=np.int64)
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
        step = np.swapaxes(jac, 1, 2) @ ex.solve(jjt, residual[:, :, None])
        pts = pts - step[:, :, 0]
    return pts


def _cloud(box, n: int, seed: int, eqs: list[Polynomial],
           clouds: dict) -> ex.KernelMemo:
    """The kernel memo of the n seeded candidates in the box, projected
    onto the equations, kept in `clouds` under (box, n, seed, equations).

    The cloud is read-only and a pure function of that key, so a hit holds
    the very array a fresh draw and projection would compute, and the memo
    itself names the cloud (`Base.intern`)."""
    key = (tuple(map(tuple, box)), n, seed,
           tuple(tuple(sorted(p.terms.items())) for p in eqs))
    hit = clouds.get(key)
    if hit is None:
        hit = _candidates(box, n, seed)
        if eqs:
            hit = _project_to_variety(hit, eqs)
        hit = clouds[key] = ex.KernelMemo(hit)
    return hit


def _kept(piece, dim: int, cloud: ex.KernelMemo, held: dict) -> np.ndarray:
    """The cloud rows that sampling keeps in one piece.  The piece's
    context starts from the condition values `held` maps on the cloud's
    rows, so its conditions, and every `ZeroGate` sub-context through
    `parent_cache`, read them with no evaluation; then the roots of the
    piece's conditions that the context holds are held too.  A root that
    hit a guard violation is not in the context (the `_safe_eval`
    bisection runs in fresh contexts), so it is never held, and every held
    value is the fresh one bit for bit, since every node kind is a per-row
    function."""
    ctx = ex.EvalContext(cloud)
    ctx.cache.update(held)
    keep = SemialgebraicSet(dim, [piece])._members(ctx, _SAMPLE_MARGIN, 1e-12)
    for cond in piece:
        value = ctx.cache.get(cond.expression)
        if value is not None:
            held[cond.expression] = value
    return keep


def _selection(sset: SemialgebraicSet, plan: SamplePlan, box, count: int,
               clouds: dict, held: dict) -> list[tuple[ex.KernelMemo, np.ndarray]]:
    """The rows `sample` keeps before its dedupe: per sampling round and
    piece that kept a row, in that order, the cloud's memo and the keep
    mask.  The clouds come from `clouds`, and `held` maps each cloud to
    the condition values evaluated on it (`_kept`)."""
    selection = []
    total = 0
    for round_idx in range(4):
        n_cand = max(4 * count, 256) * (round_idx + 1)
        seed = plan.seed + 7919 * round_idx
        for piece in sset.pieces:
            cloud = _cloud(box, n_cand, seed, sset.equality_polys(piece), clouds)
            keep = _kept(piece, sset.dim, cloud, held.setdefault(cloud, {}))
            if keep.any():
                selection.append((cloud, keep))
                total += int(keep.sum())
        if total >= count:
            break
    return selection


def _first_distinct(points: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each distinct row of `points`
    rounded to 12 digits: rows are equal when every entry is (so -0.0
    equals 0.0 and a NaN equals nothing), and a stable sort keeps the
    earliest row of each run of equals."""
    rounded = np.round(points, 12)
    order = np.lexsort(rounded.T)
    runs = rounded[order]
    first = np.r_[True, (runs[1:] != runs[:-1]).any(axis=1)]
    keep = np.zeros(len(order), dtype=bool)
    keep[order[first]] = True
    return keep


def _deduped(selection, dim: int, count: int) -> tuple[np.ndarray, bool]:
    """The first `count` distinct selected rows, and whether there are none."""
    if not selection:
        return np.empty((0, dim)), True
    allpts = np.vstack([cloud.points[keep] for cloud, keep in selection])
    return allpts[_first_distinct(allpts)][:count], False


def sample(sset: SemialgebraicSet, plan: SamplePlan, box,
           count: int | None = None,
           batch: SamplingBatch | None = None) -> tuple[np.ndarray, bool]:
    """Sample points of the set inside the box.

    Returns (points, empty) where empty is True only when no point was
    found (empty set on the scanned box, or contradictory conditions); a
    sample of fewer than `count` points is not flagged.  Within a batch of
    `Base.region_memos`, the candidate clouds are its base's (see `_cloud`),
    the points are interned there by selection (see `Base.intern`): a
    read-only array that equal selections share, and the condition values
    it evaluates stay held for the batch's later regions.
    """
    count = plan.n_chart if count is None else count
    if batch is None:
        return _deduped(_selection(sset, plan, box, count, {}, {}), sset.dim, count)
    base = batch.base
    selection = _selection(sset, plan, box, count, base.clouds, batch.held)
    return base.intern(selection, count).points, not selection


@dataclass
class SamplingBatch:
    """One `Base.region_memos` call: the base whose clouds it samples and
    whose regions it interns into, and per cloud the values of the
    condition expressions evaluated on it (`_kept`).  The values live in
    the batch, so none outlives it."""

    base: "Base"
    held: dict = field(default_factory=dict)    # cloud memo -> {Expr: values}


@dataclass(frozen=True)
class Base:
    """A base space: its set, a scan box, and catalog attributes.

    `clouds` holds the kernel memos of its sampling clouds (see `_cloud`),
    and `regions` those of the point sets the base evaluates again: its
    sampled regions, by request (pieces, plan, count) and interned by
    selection (see `region_memos`), each also under the id of its
    read-only points, which it keeps alive, and fixed point arrays by a
    key that determines them (see `grid_memo`).  Both live as long as the
    base and hold point arrays, their kernel outputs and the conditions
    that name them, never an object that points back.
    """

    sset: SemialgebraicSet
    box: tuple
    name: str = ""
    connected: bool = True
    star_center: tuple | None = None
    circle: bool = False        # the unit circle in (x0, x1), or a cylinder on it
    cylinder_base: "Base | None" = None
    t_index: int | None = None
    clouds: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)
    regions: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    @property
    def dim(self) -> int:
        return self.sset.dim

    def intern(self, selection, count: int) -> ex.KernelMemo:
        """The kernel memo of the first `count` distinct rows of `selection`
        (see `_selection`), kept in `regions` under (per round and piece
        that kept a row, the cloud's memo and the keep mask's bytes; then
        count).  The points are a pure function of that key, so no point
        value is hashed, and only a new key pays for the dedupe."""
        key = (tuple((cloud, keep.tobytes()) for cloud, keep in selection), count)
        hit = self.regions.get(key)
        if hit is None:
            points = _deduped(selection, self.dim, count)[0]
            hit = self.regions[key] = self.regions[id(points)] = ex.KernelMemo(points)
        return hit

    def region_memos(self, regions: list[SemialgebraicSet], plan: SamplePlan,
                     count: int) -> list[ex.KernelMemo]:
        """The kernel memo of each region's `sample` in this base's box.

        Each memo is kept in `regions` under its request (the region's
        `pieces`, plan, count), so a repeated request reads it with no
        membership pass.  The regions not asked for before are sampled in
        one `SamplingBatch`: it holds the values of the condition
        expressions tested on each cloud, so a condition that several
        regions test is evaluated once per cloud, and a later condition
        built on it reads it; the values go with the batch when it returns
        or raises.  Regions whose conditions keep the same rows of the same
        clouds read one read-only array and the kernel outputs computed on
        it."""
        batch = SamplingBatch(self)
        keys = [(region.pieces, plan, count) for region in regions]
        for key, region in zip(keys, regions):
            if key not in self.regions:
                points = sample(region, plan, self.box, count, batch)[0]
                self.regions[key] = self.regions[id(points)]
        return [self.regions[key] for key in keys]

    def region_memo(self, region: SemialgebraicSet, plan: SamplePlan,
                    count: int) -> ex.KernelMemo:
        """The kernel memo of `region`'s `sample`: a batch of one."""
        return self.region_memos([region], plan, count)[0]

    def sample_memo(self, plan: SamplePlan) -> ex.KernelMemo:
        """The kernel memo of the plan's n_chart points of the base."""
        return self.region_memo(self.sset, plan, plan.n_chart)

    def sample_points(self, plan: SamplePlan) -> np.ndarray:
        """The plan's n_chart points of the base, read-only."""
        return self.sample_memo(plan).points

    def meets(self, region: SemialgebraicSet) -> bool:
        """Whether `region` holds a sampled base point, probed with the
        fixed `SamplePlan()`: the charts a refinement or slice keeps must
        not depend on the plan a later check certifies with."""
        return len(self.region_memo(self.sset.intersect(region), SamplePlan(),
                                    _PROBE_COUNT)) > 0

    def grid_memo(self, key, make) -> ex.KernelMemo:
        """The kernel memo of the fixed point array `make()`, built once and
        kept in `regions` under `key`, which must determine the points."""
        hit = self.regions.get(key)
        if hit is None:
            hit = self.regions[key] = ex.KernelMemo(make())
        return hit


@dataclass
class CoverageReport:
    ok: bool
    witness: tuple | None = None


class Cover:
    """A base plus finitely many open charts, with a sampled coverage certificate.

    `parents` gives, for a common refinement, the (i, j) parent chart pair of
    each chart; `t_intervals`, for a product cover of a cylinder, the open
    t-interval (lo, hi) of each chart, None for an unbounded end.
    """

    def __init__(self, base: Base, charts: list[SemialgebraicSet], name: str = "",
                 *, parents: list | None = None,
                 t_intervals: list | None = None):
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
        self.t_intervals = t_intervals

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def coverage(self, plan: SamplePlan) -> CoverageReport:
        memo = self.base.sample_memo(plan)
        if len(memo) == 0:
            return CoverageReport(False)
        bad = self.first_uncovered(memo)
        return CoverageReport(bad is None, bad)

    def chart_memberships(self, memo: ex.KernelMemo) -> np.ndarray:
        """The (N, n_charts) matrix of which charts hold each of the memo's
        points: a chart's strict conditions held above the sampling margin,
        as a chart's own samples hold them.  Every coverage check of the
        cover, `forms.signature` and the circle walk
        (`bundles.refined_loop`) decide membership here."""
        return memberships(self.charts, memo, _SAMPLE_MARGIN)

    def first_uncovered(self, memo: ex.KernelMemo) -> tuple | None:
        """The first of the memo's points that no chart contains, or None."""
        covered = self.chart_memberships(memo).any(axis=1)
        return first_flagged(memo.points, ~covered)

    def require_coverage(self, plan: SamplePlan) -> None:
        if len(self.base.sample_memo(plan)) == 0:
            raise CoverageFailure(
                f"base {self.base.name or '?'} yielded no sample points")
        report = self.coverage(plan)
        if not report.ok:
            raise CoverageFailure(
                f"cover {self.name or '?'} misses sampled base point {report.witness}",
                point=report.witness)

    def samples(self, indices, plan: SamplePlan) -> np.ndarray:
        """Base points in the intersection of one, two or three charts."""
        return self.region_memo(indices, plan).points

    def region_memo(self, indices, plan: SamplePlan) -> ex.KernelMemo:
        """The base's memo (`Base.region_memo`) of the region of the sorted
        indices, at the plan's n_chart, n_overlap or n_triple by their
        number: every order of the indices, and every cover of the base
        with those charts, reads it with no membership pass after the first."""
        indices = sorted(indices)
        region = reduce(SemialgebraicSet.intersect, [self.charts[i] for i in indices],
                        self.base.sset)
        count = (plan.n_chart, plan.n_overlap, plan.n_triple)[len(indices) - 1]
        return self.base.region_memo(region, plan, count)

    def refined_with(self, other: "Cover") -> "tuple[Cover, list[tuple[int, int]]]":
        """Common refinement by pairwise chart intersections.

        Returns the refined cover and, per refined chart, the (i, j) pair of
        parent chart indices.  Pairs whose intersection misses the base's
        probe (`Base.meets`) are dropped.
        """
        if other.base is not self.base and other.base.sset is not self.base.sset:
            raise CoverageFailure("refinement needs a common base")
        charts, parents = [], []
        for i, ci in enumerate(self.charts):
            for j, cj in enumerate(other.charts):
                inter = ci.intersect(cj)
                if self.base.meets(inter):
                    charts.append(inter)
                    parents.append((i, j))
        if not charts:
            raise CoverageFailure("refinement produced no nonempty charts")
        refined = Cover(self.base, charts, name=f"{self.name}&{other.name}",
                        parents=parents)
        return refined, parents
