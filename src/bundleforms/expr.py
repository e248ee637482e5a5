"""Scalar expression trees over a fixed semialgebraic vocabulary.

Every function handled by the library is a tree of the node kinds below:
rational constants, variables, arithmetic, guarded quotients, integer
powers, square roots of nonnegative arguments, absolute value, max/min,
clamp-to-zero, a zero-gated product (extension by zero past a gate
function's support), entries of guarded matrix computations (solve,
inverse, column-span projector, definite/indefinite pencil sign-projectors,
pencil square root), and entries of path products that chain a projector
field along a homotopy.

Evaluation is vectorized over an (N, dim) batch of points and memoized per
node object, so shared subtrees are computed once.  Evaluating outside a
declared guard raises :class:`GuardViolation` with a witness point; it is
never a silent NaN.

Each node carries a smoothness lower bound: how many continuous
derivatives the function is guaranteed to have on its guarded domain.  The
bound of a composite is the minimum over its children; kinked nodes (abs,
max, min, clamp, sqrt) bound it by zero, except that an integer power of a
clamp or abs raises the kink bound to ``exponent - 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, GuardViolation

SMOOTH = math.inf

_DEFAULT_GUARD_TOL = 1e-12


class EvalContext:
    """Holds one batch of points plus per-node result caches."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise DimensionMismatch(f"points must be (N, dim), got shape {points.shape}")
        self.points = points
        # keyed by the node itself, so every cached node stays alive (and its
        # id unique) for as long as the context
        self.cache: dict[Expr, np.ndarray] = {}
        self.group_cache: dict[int, np.ndarray] = {}
        self.sub_contexts: dict[tuple[int, bytes], EvalContext] = {}

    def sub(self, gate_id: int, mask: np.ndarray) -> "EvalContext":
        key = (gate_id, mask.tobytes())
        ctx = self.sub_contexts.get(key)
        if ctx is None:
            ctx = EvalContext(self.points[mask])
            self.sub_contexts[key] = ctx
        return ctx


class Expr:
    """Base expression node.  Nodes are immutable and identity-hashed."""

    __slots__ = ()

    def eval(self, ctx: EvalContext) -> np.ndarray:
        hit = ctx.cache.get(self)
        if hit is None:
            hit = self._eval(ctx)
            ctx.cache[self] = hit
        return hit

    def _eval(self, ctx: EvalContext) -> np.ndarray:
        raise NotImplementedError

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> tuple["Expr", ...]:
        return ()

    def rebuild(self, children) -> "Expr":
        """The same node over new children."""
        return type(self)(*children)

    def smoothness(self) -> float:
        memo: dict[int, float] = {}
        return _smoothness(self, memo)

    kinked = False      # kinked nodes bound the smoothness by zero

    def _own_smoothness(self, child_bounds: list[float],
                        memo: dict[int, float]) -> float:
        return 0.0 if self.kinked else min(child_bounds, default=SMOOTH)

    def __neg__(self):
        return Sub(Const(0.0), self)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def _guard(bad: np.ndarray, ctx: EvalContext, describe) -> None:
    """Raise GuardViolation at the first flagged row; `describe(i)` is the
    message for row i."""
    if bad.any():
        i = int(np.argmax(bad))
        raise GuardViolation(describe(i), point=ctx.points[i])


def _smoothness(node: Expr, memo: dict[int, float]) -> float:
    key = id(node)
    hit = memo.get(key)
    if hit is None:
        bounds = [_smoothness(c, memo) for c in node.children()]
        hit = node._own_smoothness(bounds, memo)
        memo[key] = hit
    return hit


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def _eval(self, ctx):
        return np.full(ctx.points.shape[0], self.value)

    def __repr__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise DimensionMismatch("variable index must be nonnegative")
        object.__setattr__(self, "index", int(index))

    def _eval(self, ctx):
        if self.index >= ctx.points.shape[1]:
            raise DimensionMismatch(
                f"expression uses x{self.index} but points have dimension {ctx.points.shape[1]}"
            )
        return ctx.points[:, self.index]

    def __repr__(self):
        return f"x{self.index}"


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", as_expr(arg))

    def children(self):
        return (self.arg,)


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", as_expr(a))
        object.__setattr__(self, "b", as_expr(b))

    def children(self):
        return (self.a, self.b)


class Add(_Binary):
    __slots__ = ()

    def _eval(self, ctx):
        return self.a.eval(ctx) + self.b.eval(ctx)

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class Sub(_Binary):
    __slots__ = ()

    def _eval(self, ctx):
        return self.a.eval(ctx) - self.b.eval(ctx)

    def __repr__(self):
        return f"({self.a!r} - {self.b!r})"


class Mul(_Binary):
    __slots__ = ()

    def _eval(self, ctx):
        return self.a.eval(ctx) * self.b.eval(ctx)

    def __repr__(self):
        return f"({self.a!r} * {self.b!r})"


class Div(_Binary):
    """Guarded quotient: the denominator must be nonvanishing on the chart
    the expression is used on.  |den| <= guard_tol at a point is an error."""

    __slots__ = ("guard_tol",)

    def __init__(self, num: Expr, den: Expr, guard_tol: float = _DEFAULT_GUARD_TOL):
        super().__init__(num, den)
        object.__setattr__(self, "guard_tol", float(guard_tol))

    def _eval(self, ctx):
        den = self.b.eval(ctx)
        _guard(np.abs(den) <= self.guard_tol, ctx, lambda i:
               f"quotient denominator {abs(den[i]):.3e} within guard "
               f"{self.guard_tol:.1e}")
        return self.a.eval(ctx) / den

    def rebuild(self, children):
        return Div(*children, guard_tol=self.guard_tol)

    def __repr__(self):
        return f"({self.a!r} / {self.b!r})"


class Pow(Expr):
    """Integer power, exponent >= 1."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if exponent < 1:
            raise ValueError("Pow exponent must be a positive integer")
        object.__setattr__(self, "base", as_expr(base))
        object.__setattr__(self, "exponent", int(exponent))

    def children(self):
        return (self.base,)

    def rebuild(self, children):
        return Pow(children[0], self.exponent)

    def _eval(self, ctx):
        return self.base.eval(ctx) ** self.exponent

    def _own_smoothness(self, child_bounds, memo):
        # clamp(u)^(r+1) is C^r wherever u is smooth; same for |u|^(r+1).
        # The base's argument was visited through the base, so this is a
        # memo hit.
        if isinstance(self.base, (Clamp, Abs)):
            return min(self.exponent - 1, _smoothness(self.base.arg, memo))
        return min(child_bounds, default=SMOOTH)

    def __repr__(self):
        return f"({self.base!r})^{self.exponent}"


class Sqrt(_Unary):
    """Square root; the argument must be nonnegative on the declared domain.
    Values in [-guard_tol, 0) are treated as exact zeros."""

    __slots__ = ("guard_tol",)
    kinked = True

    def __init__(self, arg: Expr, guard_tol: float = _DEFAULT_GUARD_TOL):
        super().__init__(arg)
        object.__setattr__(self, "guard_tol", float(guard_tol))

    def _eval(self, ctx):
        v = self.arg.eval(ctx)
        _guard(v < -self.guard_tol, ctx, lambda i:
               f"sqrt argument {v[i]:.3e} is negative")
        return np.sqrt(np.maximum(v, 0.0))

    def rebuild(self, children):
        return Sqrt(children[0], guard_tol=self.guard_tol)

    def __repr__(self):
        return f"sqrt({self.arg!r})"


class Abs(_Unary):
    __slots__ = ()
    kinked = True

    def _eval(self, ctx):
        return np.abs(self.arg.eval(ctx))

    def __repr__(self):
        return f"abs({self.arg!r})"


class Max(_Binary):
    __slots__ = ()
    kinked = True

    def _eval(self, ctx):
        return np.maximum(self.a.eval(ctx), self.b.eval(ctx))

    def __repr__(self):
        return f"max({self.a!r}, {self.b!r})"


class Min(_Binary):
    __slots__ = ()
    kinked = True

    def _eval(self, ctx):
        return np.minimum(self.a.eval(ctx), self.b.eval(ctx))

    def __repr__(self):
        return f"min({self.a!r}, {self.b!r})"


class Clamp(_Unary):
    """clamp-to-zero: max(arg, 0)."""

    __slots__ = ()
    kinked = True

    def _eval(self, ctx):
        return np.maximum(self.arg.eval(ctx), 0.0)

    def __repr__(self):
        return f"clamp({self.arg!r})"


class ZeroGate(Expr):
    """gate > 0  ->  gate * payload;  gate <= 0  ->  0.

    The payload is only evaluated where the gate is positive, so payload
    guards need to hold only there.  Used to extend chart-local data by
    zero past the support of a partition-of-unity weight, mirroring the
    piecewise extension in the section and coefficient constructions.  The
    smoothness bound min(gate, payload) relies on the construction
    discipline that the gate's support closure sits inside the payload's
    domain.
    """

    __slots__ = ("gate", "payload")

    def __init__(self, gate: Expr, payload: Expr):
        object.__setattr__(self, "gate", as_expr(gate))
        object.__setattr__(self, "payload", as_expr(payload))

    def children(self):
        return (self.gate, self.payload)

    def _eval(self, ctx):
        gate = self.gate.eval(ctx)
        out = np.zeros_like(gate)
        mask = gate > 0.0
        if mask.any():
            sub = ctx.sub(id(self.gate), mask)
            out[mask] = gate[mask] * self.payload.eval(sub)
        return out

    def __repr__(self):
        return f"zerogate({self.gate!r}, {self.payload!r})"


# ---------------------------------------------------------------------------
# Guarded matrix computations.  A MatrixGroup owns the child expressions of
# one or two matrices and an operation tag; MatEntry nodes select single
# entries of the result.  The whole group is computed once per batch.

SOLVE = "solve"            # X = A^-1 B          guard: min sv(A)
INV = "inv"                # X = A^-1            guard: min sv(A)
COLSPAN_PROJ = "colproj"   # P = A (A^T A)^-1 A^T  guard: min sv(A)
PENCIL_PROJ_POS = "pencil+"  # positive sign-projector of pencil (S, G)
PENCIL_PROJ_NEG = "pencil-"  # negative sign-projector of pencil (S, G)
PENCIL_SQRT = "pencilsqrt"   # principal sqrt of G^-1 S, both SPD


class MatrixGroup:
    """Shared payload of MatEntry nodes: matrices of Exprs plus an op tag."""

    __slots__ = ("op", "a", "b", "guard_tol", "out_shape")
    __setattr__ = Expr.__setattr__

    def __init__(self, op, a, b=None, guard_tol=1e-9):
        a = _freeze_matrix(a)
        b = _freeze_matrix(b) if b is not None else None
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "guard_tol", float(guard_tol))
        object.__setattr__(self, "out_shape", self._out_shape())

    def _out_shape(self):
        n, m = len(self.a), len(self.a[0])
        if self.op == SOLVE and n != m:
            raise DimensionMismatch("solve needs a square left matrix")
        if self.op == INV and n != m:
            raise DimensionMismatch("inverse needs a square matrix")
        if self.op == SOLVE:
            return (n, len(self.b[0]))
        if self.op in (INV, COLSPAN_PROJ, PENCIL_PROJ_POS, PENCIL_PROJ_NEG,
                       PENCIL_SQRT):
            return (n, n)
        raise ValueError(f"unknown matrix op {self.op!r}")

    def child_exprs(self):
        return [e for rows in (self.a, self.b or ()) for row in rows for e in row]

    def compute(self, ctx: EvalContext) -> np.ndarray:
        key = id(self)
        hit = ctx.group_cache.get(key)
        if hit is not None:
            return hit
        a = _eval_matrix(self.a, ctx)
        if self.op == SOLVE:
            b = _eval_matrix(self.b, ctx)
            self._guard_sv(a, ctx)
            out = np.linalg.solve(a, b)
        elif self.op == INV:
            self._guard_sv(a, ctx)
            out = np.linalg.inv(a)
        elif self.op == COLSPAN_PROJ:
            self._guard_sv(a, ctx)
            gram = np.swapaxes(a, 1, 2) @ a
            out = a @ np.linalg.solve(gram, np.swapaxes(a, 1, 2))
        elif self.op in (PENCIL_PROJ_POS, PENCIL_PROJ_NEG):
            g = _eval_matrix(self.b, ctx)
            self._guard_spd(g, ctx, name="pencil metric")
            out = _pencil_projector(a, g, self.op == PENCIL_PROJ_POS,
                                    self.guard_tol, ctx)
        elif self.op == PENCIL_SQRT:
            g = _eval_matrix(self.b, ctx)
            self._guard_spd(a, ctx, name="pencil sqrt argument")
            self._guard_spd(g, ctx, name="pencil sqrt metric")
            out = _pencil_sqrt(a, g)
        else:  # pragma: no cover - constructor rejects unknown ops
            raise ValueError(self.op)
        ctx.group_cache[key] = out
        return out

    def substitute(self, mapping, memo, group_memo) -> "MatrixGroup":
        a, b = (None if rows is None else
                tuple(tuple(_subst(e, mapping, memo, group_memo) for e in row)
                      for row in rows)
                for rows in (self.a, self.b))
        return MatrixGroup(self.op, a, b, guard_tol=self.guard_tol)

    def _guard_sv(self, a, ctx):
        sv = np.linalg.svd(a, compute_uv=False)
        _guard(sv[:, -1] <= self.guard_tol, ctx, lambda i:
               f"matrix {self.op} guard: smallest singular value "
               f"{sv[i, -1]:.3e} <= {self.guard_tol:.1e}")

    def _guard_spd(self, s, ctx, name):
        w = np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, 1, 2)))
        _guard(w[:, 0] <= self.guard_tol, ctx, lambda i:
               f"{name} not positive definite: min eigenvalue {w[i, 0]:.3e}")


def _whitened_eigh(s, g):
    """Cholesky factor L of G and the eigen-decomposition of the symmetric
    L^-1 S L^-T, which has the eigenvalues of the pencil G^-1 S."""
    ell = np.linalg.cholesky(g)
    white = np.linalg.solve(ell, np.swapaxes(np.linalg.solve(ell, s), 1, 2))
    w, z = np.linalg.eigh(0.5 * (white + np.swapaxes(white, 1, 2)))
    return ell, w, z


def _pencil_projector(s, g, positive, tol, ctx):
    """Spectral projector onto the positive/negative eigenspace of the
    G-self-adjoint pencil G^-1 S, via the Cholesky-whitened symmetric form."""
    ell, w, z = _whitened_eigh(s, g)
    _guard(np.abs(w).min(axis=1) <= tol, ctx, lambda i:
           f"pencil eigenvalue {np.abs(w[i]).min():.3e} within guard {tol:.1e}")
    mask = (w > 0.0) if positive else (w < 0.0)
    zsel = z * mask[:, None, :]
    # projector in original coordinates: L^-T Z_sel Z_sel^T L^T
    lt = np.swapaxes(ell, 1, 2)
    return np.linalg.solve(lt, zsel @ np.swapaxes(zsel, 1, 2) @ lt)


def _pencil_sqrt(s, g):
    """Principal square root of G^-1 S for SPD S and G.

    Congruence-covariant, so chartwise values glue into a bundle morphism:
    if S, G transform by h^T . h then the square root conjugates by h^-1 . h.
    """
    ell, w, z = _whitened_eigh(s, g)
    root = (z * np.sqrt(w)[:, None, :]) @ np.swapaxes(z, 1, 2)
    lt = np.swapaxes(ell, 1, 2)
    return np.linalg.solve(lt, root @ lt)


def _freeze_matrix(rows):
    frozen = tuple(tuple(as_expr(e) for e in row) for row in rows)
    if not frozen or any(len(r) != len(frozen[0]) for r in frozen):
        raise DimensionMismatch("matrix rows must be nonempty and equal length")
    return frozen


def _eval_matrix(rows, ctx) -> np.ndarray:
    n, m = len(rows), len(rows[0])
    out = np.empty((ctx.points.shape[0], n, m))
    for i in range(n):
        for j in range(m):
            out[:, i, j] = rows[i][j].eval(ctx)
    return out


class MatEntry(Expr):
    """One entry of a guarded matrix computation or a path product."""

    __slots__ = ("group", "row", "col")

    def __init__(self, group: "MatrixGroup | PathProduct", row: int, col: int):
        n, m = group.out_shape
        if not (0 <= row < n and 0 <= col < m):
            raise DimensionMismatch("matrix entry index out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "row", int(row))
        object.__setattr__(self, "col", int(col))

    def children(self):
        return tuple(self.group.child_exprs())

    def _eval(self, ctx):
        return self.group.compute(ctx)[:, self.row, self.col]

    def __repr__(self):
        return f"{self.group.op}[{self.row},{self.col}]"


# ---------------------------------------------------------------------------
# Path products.  A PathProduct chains a projector field along a path: at a
# base point x it is P(h(x, t_K)) ... P(h(x, t_1)).  It is a group beside
# MatrixGroup, read through MatEntry, but evaluated by stacking rungs.

PATH_BLOCK_ROWS = 1 << 13   # lifted rows evaluated together


class PathProduct:
    """Product of the projector `entries` (n x n, over the target space)
    along the path `maps` at the rungs `ts`.

    The maps are expressions over the lifted space (x, t) with t at column
    `t_index`.  `source` gives x in the caller's coordinates: the identity,
    until a substitution composes it.
    """

    __slots__ = ("entries", "maps", "t_index", "ts", "source", "out_shape")
    __setattr__ = Expr.__setattr__
    op = "pathproduct"

    def __init__(self, entries, maps, t_index: int, ts, source=None):
        entries = _freeze_matrix(entries)
        n = len(entries)
        if len(entries[0]) != n or not len(ts):
            raise DimensionMismatch("path product needs a square projector "
                                    "and at least one rung")
        if source is None:
            source = [Var(i) for i in range(t_index)]
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "maps", tuple(as_expr(h) for h in maps))
        object.__setattr__(self, "t_index", int(t_index))
        object.__setattr__(self, "ts", tuple(float(t) for t in ts))
        object.__setattr__(self, "source", tuple(as_expr(x) for x in source))
        object.__setattr__(self, "out_shape", (n, n))

    def child_exprs(self):
        return [*self.source, *self.maps, *(e for row in self.entries for e in row)]

    def compute(self, ctx: EvalContext) -> np.ndarray:
        key = id(self)
        hit = ctx.group_cache.get(key)
        if hit is None:
            x = np.empty((ctx.points.shape[0], self.t_index))
            for i, xi in enumerate(self.source):
                x[:, i] = xi.eval(ctx)
            hit = _rung_product(np.stack([
                _rung_product(block) for block in path_projectors(
                    self.entries, self.maps, self.t_index, x, self.ts,
                    callers=ctx.points)]))
            ctx.group_cache[key] = hit
        return hit

    def substitute(self, mapping, memo, group_memo) -> "PathProduct":
        """Compose the substitution into `source`; the path's own
        coordinates and the target-space entries are left alone."""
        source = [_subst(x, mapping, memo, group_memo) for x in self.source]
        return PathProduct(self.entries, self.maps, self.t_index, self.ts, source)


def path_projectors(entries, maps, t_index: int, points, ts, callers=None):
    """Yield P(h(x, t)) for every row x of `points` and every t in `ts`.

    Rungs come in blocks of shape (k, N, n, n), k a power of two, each from
    one stacked batch of at most PATH_BLOCK_ROWS lifted points (x, t): the
    maps are evaluated once on the batch and the entries once on its
    images, each in a fresh context, so every guard runs on every lifted
    row.  A guard violation is re-raised at the row of `callers` (default
    `points`) whose lifted point crossed it, naming the rung's t.
    """
    points = np.asarray(points, dtype=float)
    n_pts = points.shape[0]
    if points.shape[1] != t_index:
        raise DimensionMismatch(
            f"path product needs points of dimension {t_index}, got {points.shape[1]}")
    ts = np.asarray(ts, dtype=float)
    n = len(entries)
    per_block = 1 << (max(1, PATH_BLOCK_ROWS // max(n_pts, 1)).bit_length() - 1)
    for start in range(0, ts.shape[0], per_block):
        block = ts[start:start + per_block]
        stacked = np.column_stack([np.tile(points, (block.shape[0], 1)),
                                   np.repeat(block, n_pts)])
        try:
            lifted = EvalContext(stacked)
            stacked = np.column_stack([h.eval(lifted) for h in maps])
            vals = _eval_matrix(entries, EvalContext(stacked))
        except GuardViolation as err:
            hits = (np.flatnonzero((stacked == np.asarray(err.point)).all(axis=1))
                    if err.point is not None else ())
            if not len(hits):
                raise GuardViolation(f"{err} on the path") from err
            k, i = divmod(int(hits[0]), n_pts)
            raise GuardViolation(
                f"{err} on the path at t = {block[k]:.6g}",
                point=(points if callers is None else callers)[i]) from err
        yield vals.reshape(block.shape[0], n_pts, n, n)


def _rung_product(rungs: np.ndarray) -> np.ndarray:
    """rungs[k-1] ... rungs[0] for a (k, N, n, n) stack.

    Factors pair up from the last rung as a balanced tree, and each entry
    sums its terms in order, as `matexpr.em_mul` would build it.  For a
    power-of-two rung count, as on every ladder of `homotopy`, the blocks
    are whole subtrees and the values match the symbolic chain bit for bit.
    """
    f = rungs[::-1]
    while f.shape[0] > 1:
        m = f.shape[0] // 2 * 2
        a, b = f[0:m:2], f[1:m:2]
        prod = a[..., :, :1] * b[..., :1, :]
        for j in range(1, a.shape[-1]):
            prod = prod + a[..., :, j:j + 1] * b[..., j:j + 1, :]
        f = np.concatenate([prod, f[m:]])
    return f[0]


# ---------------------------------------------------------------------------
# Public helpers.


def evaluate(expression: Expr, points) -> np.ndarray:
    """Evaluate an expression on an (N, dim) batch; returns shape (N,)."""
    return expression.eval(EvalContext(points))


def evaluate_at(expression: Expr, point) -> float:
    """Evaluate at a single point given as a sequence of coordinates."""
    arr = np.asarray(point, dtype=float).reshape(1, -1)
    return float(expression.eval(EvalContext(arr))[0])


def substitute(expression: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding shared nodes once."""
    memo: dict[int, Expr] = {}
    group_memo: dict[int, MatrixGroup] = {}
    return _subst(expression, mapping, memo, group_memo)


def _subst(node, mapping, memo, group_memo):
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Var):
        out = mapping.get(node.index, node)
    elif isinstance(node, MatEntry):
        g = node.group
        gout = group_memo.get(id(g))
        if gout is None:
            gout = group_memo[id(g)] = g.substitute(mapping, memo, group_memo)
        out = MatEntry(gout, node.row, node.col)
    elif node.children():
        out = node.rebuild([_subst(c, mapping, memo, group_memo)
                            for c in node.children()])
    else:
        out = node
    memo[key] = out
    return out
