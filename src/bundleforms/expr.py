"""Scalar expression trees over a fixed semialgebraic vocabulary.

Every function handled by the library is a tree of the node kinds below:
rational constants, variables, arithmetic, guarded quotients, integer
powers, square roots of nonnegative arguments, absolute value, max/min,
clamp-to-zero, a zero-gated product (extension by zero past a gate
function's support), entries of guarded matrix computations (solve,
inverse, column-span projector, definite/indefinite pencil sign-projectors,
pencil square root), and entries of path products that chain a projector
field along a homotopy.

Each elementwise node kind declares once its numpy function `fn`, repr
`template` and constructor `params` beyond its children; evaluating,
printing, rebuilding and parsing read those declarations.

Nodes, matrix groups and path products are hash-consed: construction
returns the live object of equal structure if there is one (`_Interned`),
so structurally equal terms are one object.  Evaluation is vectorized over
an (N, dim) batch of points and memoized per node in its context, so a
subterm, however often a construction rebuilt it, is computed once per
batch.  Evaluating outside a declared guard raises :class:`GuardViolation`
with a witness point.  Arithmetic that overflows is not guarded: it gives
inf or NaN (``10^400 - 10^400`` is NaN), and every residual and
determinant check fails at the first point where such a value reaches it.
"""

from __future__ import annotations

import struct
import weakref
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, GuardViolation

_DEFAULT_GUARD_TOL = 1e-12

# structural key -> the one live node, group or path product with it
_INTERNED = weakref.WeakValueDictionary()


def _bits(value: float) -> bytes:
    """A float's bit pattern: keys by it keep 0.0 and -0.0 apart."""
    return struct.pack("<d", value)


def _ids(rows) -> tuple:
    return tuple(tuple(map(id, row)) for row in rows)


class _Interned(type):
    """Construction through the intern table: the object is built, then
    replaced by the live one of equal key, `(class, *obj._key())`, if any.

    A key names children by `id`: a live entry keeps its children alive,
    so no child id is reused while the entry exists.  A node's value on
    given rows is a pure function of its kind, params and children's
    values, so one object serves every structurally equal construction."""

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        return _INTERNED.setdefault((cls, *obj._key()), obj)


def _batch(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatch(f"points must be (N, dim), got shape {points.shape}")
    return points


class KernelMemo:
    """One (N, dim) point array, made read-only, and the read-only
    MatrixGroup and PathProduct outputs computed on its rows, by group
    object (held weakly, so an entry goes with its group) and by the rows'
    path (see `EvalContext`); a compute that raises GuardViolation keeps
    nothing.  It is the point set's one evaluation scope: every evaluator
    takes it in place of the array, and `len(memo)` is its number of rows.
    Each sampling cloud (`semialg._cloud`) has one, and so does each point
    set a base samples (cover regions, the base's own samples, the probes
    of `unity`) or evaluates again (`Base.grid_memo`, the circle walk's
    angles): the base interns it by the rows it selects (`Base.region_memo`),
    so every sampling of the base with that point set reads one memo."""

    __slots__ = ("points", "outputs")

    def __init__(self, points):
        self.points = _batch(points)
        self.points.flags.writeable = False     # shared: nobody may edit it
        self.outputs = weakref.WeakKeyDictionary()     # group: {path: output}

    def __len__(self) -> int:
        return self.points.shape[0]


# the parent cache of a root context: it holds no node
_NO_PARENT = MappingProxyType({})


class EvalContext:
    """Holds one batch of points plus per-node result caches.

    `points` is an (N, dim) array, evaluated with no memo, or a KernelMemo:
    then the context's points are rows of the memo's array, all of them at
    the root (`path` ()), and under a ZeroGate (`sub`) the parent's rows at
    the gate's mask, whose bytes extend the path.  Contexts with one memo
    and one path hold the very same rows, so they share MatrixGroup outputs.

    A sub-context also holds its parent's `cache` dict (`parent_cache`) and
    the gate's mask, never the parent context, which holds the sub-context
    in `sub_contexts`: so no context is part of a reference cycle.  A node
    the parent holds is read as the parent's value at the mask
    (`Expr.eval`).  That is the fresh value bit for bit, since every node
    kind is a per-row function (a ladder's power-of-two rung count keeps
    `PathProduct` blocking independent of the row count), and it passed
    its guards on a superset of the rows."""

    def __init__(self, points):
        memo = points if isinstance(points, KernelMemo) else None
        self._bind(_batch(points) if memo is None else memo.points, memo, (),
                   _NO_PARENT, None)

    def _bind(self, points: np.ndarray, memo: KernelMemo | None, path: tuple,
              parent_cache, mask: np.ndarray | None):
        self.points = points
        self.memo = memo
        self.path = path
        self.parent_cache = parent_cache
        self.mask = mask
        # keyed by the node itself (and by the opposite sign's group whose
        # output a pencil group stored, see `_keep`), so every node and
        # group the caches name stays alive (and its id unique) for as long
        # as the context
        self.cache: dict[Expr | MatrixGroup, np.ndarray] = {}
        self.group_cache: dict[int, np.ndarray] = {}
        self.sub_contexts: dict[tuple[int, bytes], EvalContext] = {}

    def sub(self, gate_id: int, mask: np.ndarray) -> "EvalContext":
        key = (gate_id, mask.tobytes())
        ctx = self.sub_contexts.get(key)
        if ctx is None:
            ctx = self.sub_contexts[key] = object.__new__(EvalContext)
            ctx._bind(self.points[mask], self.memo, (*self.path, key[1]),
                      self.cache, mask)
        return ctx


class Expr(metaclass=_Interned):
    """Base expression node.  Nodes are immutable and hash-consed: one live
    object per structure, so identity is structural equality."""

    __slots__ = ("__weakref__",)

    def eval(self, ctx: EvalContext) -> np.ndarray:
        hit = ctx.cache.get(self)
        if hit is None:
            held = ctx.parent_cache.get(self)
            hit = self._eval(ctx) if held is None else held[ctx.mask]
            ctx.cache[self] = hit
        return hit

    def _eval(self, ctx: EvalContext) -> np.ndarray:
        raise NotImplementedError

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> tuple["Expr", ...]:
        return ()

    def _key(self) -> tuple:
        """The children by id, then the declared `params` (floats by bits)."""
        return (*map(id, self.children()),
                *(_bits(v) if isinstance(v, float) else v
                  for v in (getattr(self, name) for name in self.params)))

    def rebuild(self, children) -> "Expr":
        """The same node over new children, with the same `params`."""
        return type(self)(*children,
                          **{name: getattr(self, name) for name in self.params})

    params = ()         # constructor keywords beyond the children

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


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))

    def _key(self):
        return (_bits(self.value),)

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

    def _key(self):
        return (self.index,)

    def _eval(self, ctx):
        if self.index >= ctx.points.shape[1]:
            raise DimensionMismatch(
                f"expression uses x{self.index} but points have dimension {ctx.points.shape[1]}"
            )
        return ctx.points[:, self.index]

    def __repr__(self):
        return f"x{self.index}"


class _Unary(Expr):
    """A node of one argument: `fn` of its value."""

    __slots__ = ("arg",)
    arity = 1

    def __init__(self, arg: Expr):
        object.__setattr__(self, "arg", as_expr(arg))

    def children(self):
        return (self.arg,)

    def _eval(self, ctx):
        return self.fn(self.arg.eval(ctx))

    def __repr__(self):
        return self.template.format(self.arg)


class _Binary(Expr):
    """A node of two arguments: `fn` of their values (`a` first)."""

    __slots__ = ("a", "b")
    arity = 2

    def __init__(self, a: Expr, b: Expr):
        object.__setattr__(self, "a", as_expr(a))
        object.__setattr__(self, "b", as_expr(b))

    def children(self):
        return (self.a, self.b)

    def _eval(self, ctx):
        return self.fn(self.a.eval(ctx), self.b.eval(ctx))

    def __repr__(self):
        return self.template.format(self.a, self.b)


class Add(_Binary):
    __slots__ = ()
    fn, template = np.add, "({!r} + {!r})"


class Sub(_Binary):
    __slots__ = ()
    fn, template = np.subtract, "({!r} - {!r})"


class Mul(_Binary):
    __slots__ = ()
    fn, template = np.multiply, "({!r} * {!r})"


class Div(_Binary):
    """Guarded quotient: the denominator must be nonvanishing on the chart
    the expression is used on.  |den| <= guard_tol at a point is an error."""

    __slots__ = ("guard_tol",)
    template = "({!r} / {!r})"
    params = ("guard_tol",)

    def __init__(self, num: Expr, den: Expr, guard_tol: float = _DEFAULT_GUARD_TOL):
        super().__init__(num, den)
        object.__setattr__(self, "guard_tol", float(guard_tol))

    def _eval(self, ctx):
        den = self.b.eval(ctx)
        _guard(np.abs(den) <= self.guard_tol, ctx, lambda i:
               f"quotient denominator {abs(den[i]):.3e} within guard "
               f"{self.guard_tol:.1e}")
        return self.a.eval(ctx) / den


class Pow(Expr):
    """Integer power, exponent >= 1."""

    __slots__ = ("base", "exponent")
    params = ("exponent",)

    def __init__(self, base: Expr, exponent: int):
        if exponent < 1:
            raise ValueError("Pow exponent must be a positive integer")
        object.__setattr__(self, "base", as_expr(base))
        object.__setattr__(self, "exponent", int(exponent))

    def children(self):
        return (self.base,)

    def _eval(self, ctx):
        return self.base.eval(ctx) ** self.exponent

    def __repr__(self):
        return f"({self.base!r})^{self.exponent}"


class Sqrt(_Unary):
    """Square root; the argument must be nonnegative on the declared domain.
    Values in [-guard_tol, 0) are treated as exact zeros."""

    __slots__ = ("guard_tol",)
    template = "sqrt({!r})"
    params = ("guard_tol",)

    def __init__(self, arg: Expr, guard_tol: float = _DEFAULT_GUARD_TOL):
        super().__init__(arg)
        object.__setattr__(self, "guard_tol", float(guard_tol))

    def _eval(self, ctx):
        v = self.arg.eval(ctx)
        _guard(v < -self.guard_tol, ctx, lambda i:
               f"sqrt argument {v[i]:.3e} is negative")
        return np.sqrt(np.maximum(v, 0.0))


class Abs(_Unary):
    __slots__ = ()
    fn, template = np.abs, "abs({!r})"


class Max(_Binary):
    __slots__ = ()
    fn, template = np.maximum, "max({!r}, {!r})"


class Min(_Binary):
    __slots__ = ()
    fn, template = np.minimum, "min({!r}, {!r})"


class Clamp(_Unary):
    """clamp-to-zero: max(arg, 0)."""

    __slots__ = ()
    fn, template = staticmethod(lambda v: np.maximum(v, 0.0)), "clamp({!r})"


class ZeroGate(Expr):
    """gate > 0  ->  gate * payload;  gate <= 0  ->  0.

    The payload is only evaluated where the gate is positive, so payload
    guards need to hold only there.  Used to extend chart-local data by
    zero past the support of a partition-of-unity weight, mirroring the
    piecewise extension in the section and coefficient constructions.
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


class MatrixGroup(metaclass=_Interned):
    """Shared payload of MatEntry nodes: matrices of Exprs plus an op tag,
    hash-consed by (op, guard_tol, operands) as nodes are.

    The two sign-projector groups of one pencil (S, G) differ in their op
    alone, so either finds the other in the intern table: computing one
    sign stores the other's output too, if that group is alive (`_opposite`)."""

    __slots__ = ("op", "a", "b", "guard_tol", "out_shape", "__weakref__")
    __setattr__ = Expr.__setattr__

    def __init__(self, op, a, b=None, guard_tol=1e-9):
        a = _freeze_matrix(a)
        b = _freeze_matrix(b) if b is not None else None
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "guard_tol", float(guard_tol))
        object.__setattr__(self, "out_shape", self._out_shape())

    def _key(self):
        return (self.op, _bits(self.guard_tol), _ids(self.a),
                None if self.b is None else _ids(self.b))

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
        """From the context's cache, else its memo, else computed."""
        hit = ctx.group_cache.get(id(self))
        if hit is None:
            memo = ctx.memo
            hit = None if memo is None else memo.outputs.get(self, {}).get(ctx.path)
            if hit is None:
                return _keep(self, ctx, self._compute(ctx))
            ctx.group_cache[id(self)] = hit
        return hit

    def _compute(self, ctx: EvalContext) -> np.ndarray:
        a = _eval_matrix(self.a, ctx)
        if self.op == SOLVE:
            b = _eval_matrix(self.b, ctx)
            self._guard_sv(a, None, ctx)
            return solve(a, b)
        if self.op == INV:
            self._guard_sv(a, None, ctx)
            # LAPACK inverts by solving against I, so 1 x 1 is 1 / a
            return 1.0 / a if a.shape[1] == 1 else np.linalg.inv(a)
        if self.op == COLSPAN_PROJ:
            at = np.swapaxes(a, 1, 2)
            gram = at @ a
            self._guard_sv(a, gram, ctx)
            return a @ solve(gram, at)
        g = _eval_matrix(self.b, ctx)
        if self.op == PENCIL_SQRT:
            self._guard_spd(a, ctx, name="pencil sqrt argument")
            self._guard_spd(g, ctx, name="pencil sqrt metric")
            return _pencil_sqrt(a, g)
        # the constructor admits no other op
        self._guard_spd(g, ctx, name="pencil metric")
        positive = self.op == PENCIL_PROJ_POS
        # one eigensolve for both signs; a guard violation stores neither
        eig = _pencil_eigh(a, g, self.guard_tol, ctx)
        opposite = self._opposite()
        if opposite is not None:
            _keep(opposite, ctx, _sign_projector(eig, not positive))
        return _sign_projector(eig, positive)

    def _opposite(self) -> "MatrixGroup | None":
        """The live sign-projector group of the same pencil and guard with
        the other sign, if any code built one."""
        op = PENCIL_PROJ_NEG if self.op == PENCIL_PROJ_POS else PENCIL_PROJ_POS
        return _INTERNED.get((MatrixGroup, op, *self._key()[1:]))

    def substitute(self, mapping, memo) -> "MatrixGroup":
        """The group over the substituted operands: the live group of equal
        structure itself, if there is one."""
        a, b = (None if rows is None else
                tuple(tuple(_subst(e, mapping, memo) for e in row)
                      for row in rows)
                for rows in (self.a, self.b))
        return MatrixGroup(self.op, a, b, guard_tol=self.guard_tol)

    def _guard_sv(self, a, gram, ctx):
        sv = smallest_sv(a, gram, self.guard_tol)
        # "not above": a NaN value is a violation, never a NaN result
        _guard(~(sv > self.guard_tol), ctx, lambda i:
               f"matrix {self.op} guard: smallest singular value "
               f"{sv[i]:.3e} <= {self.guard_tol:.1e}")

    def _guard_spd(self, s, ctx, name):
        """Flag rows whose symmetrized `s` has its smallest eigenvalue not
        above the tolerance, as `eigvalsh` decides it; the filter, its bound
        and the non-finite rule are `smallest_eigenvalue`'s."""
        w = smallest_eigenvalue(s, self.guard_tol)
        _guard(~(w > self.guard_tol), ctx, lambda i:
               f"{name} not positive definite: min eigenvalue {w[i]:.3e}")


def _keep(group, ctx: EvalContext, out: np.ndarray) -> np.ndarray:
    """Store `out` as the group's output for the context's rows: in the
    context's cache, which also keeps the group alive (so its id stays
    unique while cached), and read-only in its memo, if it has one."""
    memo = ctx.memo
    if memo is not None:
        out.flags.writeable = False         # shared: nobody may edit it
        memo.outputs.setdefault(group, {})[ctx.path] = out
    ctx.group_cache[id(group)] = out
    ctx.cache[group] = out
    return out


# Relative margin of the closed-form guard filters (see `smallest_sv`):
# far above their rounding error and LAPACK's.  Only operands within it of
# singular, relative to their size, reach LAPACK.
_FILTER_MARGIN = 1e-10
_TINY = np.finfo(float).tiny


def smallest_sv(a, gram, tol):
    """Per operand of the stack `a`, the value its guard compares with
    `tol`: LAPACK's smallest singular value, or a closed form that stands
    in for it.

    - 1 x 1: |a|, LAPACK's value bit for bit wherever LAPACK does not
      rescale its operand (1e-138 < |a| < 1e138).
    - One or two columns: a certified filter.  With G = A^T A, t = tr G,
      and sigma_1 >= sigma_2 the singular values (equal for one column),
      the closed form lam = g00, or t / 2 - hypot((g00 - g11) / 2, g01),
      is within eps t of sigma_2^2, eps = gamma_n + 3u for n rows
      (u = 2^-53): the computed Gram is within gamma_n |A|^T |A| of G
      entrywise, so its eigenvalues move by at most gamma_n t (Weyl), and
      the closed form adds at most 3u t.  LAPACK's value is within
      eps_L sigma_1 of sigma_2, eps_L a small multiple of u.  A row is
      certified, and reads +inf, when lam > max(tol^2, tiny) + delta t
      with delta = _FILTER_MARGIN.  Then sigma_2^2 > tol^2 + c^2 with
      c^2 = delta sigma_1^2 / 2 (while eps <= delta / 4, any height below
      about 10^5), and as tol < sigma_2 <= sigma_1, sigma_2 - tol >
      c^2 / (2 tol + c) >= delta sigma_1 / 6, which exceeds LAPACK's error
      while eps_L <= delta / 6.  So every certified row passes at LAPACK
      too, and every row LAPACK fails is decided by LAPACK.  Underflow
      adds below 1e-320 to the Gram and lam, and the tiny floor keeps that
      under delta t / 4.  An overflowing Gram makes the test inf > inf or
      NaN, both false.
    - More columns: LAPACK.

    The uncertified rows go to LAPACK in one call, except those with a NaN
    or infinite entry: LAPACK gives those no defined answer, so they read
    NaN and fail the guard.  So every decision on a finite row, and the
    value a violation reports, is LAPACK's.
    """
    k = a.shape[2]
    if a.shape[1:] == (1, 1):
        sv = np.abs(a[:, 0, 0])
        rest = ~np.isfinite(sv)
    elif k <= 2:
        sv = np.full(a.shape[0], np.inf)
        with np.errstate(over="ignore", invalid="ignore"):  # uncertified
            if gram is None:
                gram = np.swapaxes(a, 1, 2) @ a
            t = np.trace(gram, axis1=1, axis2=2)
            lam = t if k == 1 else _lambda_min(gram[:, 0, 0], gram[:, 1, 1],
                                               gram[:, 0, 1])
            rest = ~(lam > max(tol * tol, _TINY) + _FILTER_MARGIN * t)
    else:
        sv, rest = np.empty(a.shape[0]), np.ones(a.shape[0], dtype=bool)
    return _lapack_rows(sv, rest, a, lambda x:
                        np.linalg.svd(x, compute_uv=False)[:, -1])


def smallest_eigenvalue(s, tol):
    """Per operand of the stack `s`, symmetrized as m = (s + s^T) / 2 (an
    entry that overflows is non-finite), a value above `tol` where LAPACK's
    (`eigvalsh`) smallest eigenvalue of m is, and that value where it is not.

    - 1 x 1: the entry, which is LAPACK's value bit for bit.
    - 2 x 2 [[p, b], [b, q]]: a certified filter, as in `smallest_sv`.
      lam = (p + q) / 2 - hypot((p - q) / 2, b) is within 4u r of the
      smallest eigenvalue, r = |p| + |q| + |b| >= ||m||_2, and LAPACK's
      value within eps_L r.  A row is certified, and reads +inf, when
      lam > max(tol, tiny) + delta r, delta = _FILTER_MARGIN, which clears
      both errors while 4u + eps_L <= delta / 2.  Overflow makes r = inf
      and the test false.
    - Larger: LAPACK.

    Uncertified rows go to LAPACK as in `smallest_sv`; rows with a NaN or
    infinite entry read NaN and never reach it.
    """
    m = 0.5 * (s + np.swapaxes(s, 1, 2))
    n = m.shape[1]
    if n == 1:
        w = m[:, 0, 0].copy()
        rest = ~np.isfinite(w)
    elif n == 2:
        p, q, b = m[:, 0, 0], m[:, 1, 1], m[:, 0, 1]
        w = np.full(m.shape[0], np.inf)
        with np.errstate(over="ignore", invalid="ignore"):  # uncertified
            rest = ~(_lambda_min(p, q, b) > max(tol, _TINY)
                     + _FILTER_MARGIN * (np.abs(p) + np.abs(q) + np.abs(b)))
    else:
        w, rest = np.empty(m.shape[0]), np.ones(m.shape[0], dtype=bool)
    return _lapack_rows(w, rest, m, lambda x: np.linalg.eigvalsh(x)[:, 0])


def _lambda_min(p, q, b):
    """Smallest eigenvalue of [[p, b], [b, q]] in closed form."""
    return 0.5 * (p + q) - np.hypot(0.5 * (p - q), b)


def _lapack_rows(values, rest, a, lapack):
    """`values`, overwritten on the rows flagged in `rest`: NaN where the
    operand has a NaN or infinite entry, `lapack` of the operands on the
    others, in one call."""
    if not rest.any():
        return values
    rows = np.flatnonzero(rest)
    finite = np.isfinite(a[rows]).all(axis=(1, 2))
    values[rows[~finite]] = np.nan
    if finite.any():
        values[rows[finite]] = lapack(a[rows[finite]])
    return values


def solve(a, b):
    """np.linalg.solve on a stack, in closed form for 1 x 1 systems.  Both
    forms are LAPACK's result bit for bit (tests/test_expr.py): OpenBLAS
    divides a single right-hand side by the pivot (trsv) and multiplies
    several by its reciprocal (trsm)."""
    if a.shape[-1] == 1:
        return b / a if b.shape[-1] == 1 else b * (1.0 / a)
    return np.linalg.solve(a, b)


def _whitened_eigh(s, g):
    """Cholesky factor L of G and the eigen-decomposition of the symmetric
    L^-1 S L^-T, which has the eigenvalues of the pencil G^-1 S: LAPACK's
    kernel for the pencil square root and for the sign projectors of the
    pencils `pencil_gap` leaves to it (larger than 2 x 2, or 2 x 2 rows its
    filter does not certify).  A 1 x 1 pencil skips LAPACK: L is sqrt(G),
    and the whitened form is its own eigenvalue with eigenvector 1, each as
    LAPACK returns it bit for bit."""
    one = g.shape[1] == 1
    ell = np.sqrt(g) if one else np.linalg.cholesky(g)
    white = solve(ell, np.swapaxes(solve(ell, s), 1, 2))
    sym = 0.5 * (white + np.swapaxes(white, 1, 2))
    if one:
        return ell, sym[:, 0], np.ones_like(sym)
    w, z = np.linalg.eigh(sym)
    return ell, w, z


def _pencil_eigh(s, g, tol, ctx):
    """The pencil's sign data (`pencil_gap`), guarded: rows of S with a NaN
    or infinite entry are violations before any kernel runs (G passed its
    SPD guard), and then rows whose smallest |eigenvalue| is not above
    `tol`, as LAPACK decides it, so a NaN eigenvalue is a violation."""
    _guard(~np.isfinite(s).all(axis=(1, 2)), ctx, lambda i:
           "pencil operand has a non-finite entry")
    gap, eig = pencil_gap(s, g, tol)
    _guard(~(gap > tol), ctx, lambda i:
           f"pencil eigenvalue {gap[i]:.3e} within guard {tol:.1e}")
    return eig


# A 2 x 2 pencil is certified only with trace of G and scale of S inside
# (1 / _SAFE, _SAFE): every intermediate of `_closed_pencil` is then a
# normal number or an underflow far below its term's rounding, and none
# overflows.
_SAFE = 1e100


def pencil_gap(s, g, tol):
    """Per pencil (S, G) of the stacks, G SPD and S read through its
    symmetric part, the value its eigenvalue guard compares with `tol`,
    and the sign data that `_sign_projector` reads.

    - 2 x 2: a certified filter (`_closed_pencil`).  A certified row reads
      +inf, and its projectors are the closed form's.
    - Every other row, and every pencil of another size: LAPACK's whitened
      kernel (`_whitened_eigh`), in one call, which gives both the value,
      the smallest |eigenvalue|, and the projectors.

    So every guard decision the closed form cannot certify, and every
    value a violation reports, is LAPACK's.  The sign data is (closed,
    rows, whitened): the closed form's (half, traceless) on all rows, or
    None; the rows sent to LAPACK (None: all); and `_whitened_eigh` on
    them, or None if there are none."""
    if s.shape[1] != 2:
        whitened = _whitened_eigh(s, g)
        return np.abs(whitened[1]).min(axis=1), (None, None, whitened)
    half, traceless, certified = _closed_pencil(s, g, tol)
    gap = np.full(s.shape[0], np.inf)
    rows = np.flatnonzero(~certified)
    whitened = None
    if len(rows):
        whitened = _whitened_eigh(s[rows], g[rows])
        gap[rows] = np.abs(whitened[1]).min(axis=1)
    return gap, ((half, traceless), rows, whitened)


def _closed_pencil(s, g, tol):
    """The sign projectors of 2 x 2 pencils in closed form, and the rows
    whose guard decision they certify.

    S is symmetrized, [[p, b], [b, q]] with b = (s01 + s10) / 2, and G is
    read from its lower triangle, as Cholesky reads it.  With adj(G) the
    adjugate, d = det G and M = adj(G) S = d A, A = G^-1 S:

    - the eigenvalues of A are lam = (tr M / 2 +- r) / d, where r, half
      their distance times d, is hypot(nu + (g10 / g00) m10, (sqrt(d) / g00)
      m10) with nu = (m00 - m11) / 2: the whitened form's discriminant as a
      sum of squares, so no cancellation, with each leg divided by g00
      first, so that G = cI and nu = 0 give r = |m10| exactly;
    - if both have one sign, the positive projector is exactly I or 0;
    - otherwise, by Cayley-Hamilton, P+- = +-(A - lam-+ I) / (lam+ - lam-)
      = I / 2 +- N / (2 r), N = M - (tr M / 2) I = [[nu, m01], [m10, -nu]].

    Certification.  Let gamma = g00 + g11 >= ||G||, s = |p| + |q| + 2|b|
    >= ||S||, kappa = gamma^2 / d >= cond(G) (and >= 4), and rho =
    gamma s / d >= ||G^-1|| ||S||, which bounds every |lam|.  To first
    order in u = 2^-53:

    - nu, m01, m10 and tr M / 2 are each within 3u gamma s of their value,
      and d within u kappa d;
    - each leg of the hypot is at most r <= gamma s, and |g10| / g00 and
      sqrt(d) / g00 are at most sqrt(kappa), so r is within
      (8 + 8 sqrt(kappa) + kappa / 2) u gamma s <= 7u kappa gamma s;
    - so each computed lam is within 16u kappa rho of the pencil's.

    LAPACK's eigenvalues are within eps_L kappa rho, eps_L a small
    multiple of u: Cholesky's backward error moves G by a small multiple of
    u ||G||, which moves lam by u kappa |lam| times it, and the solves and
    `eigh` add a small multiple of u ||L^-1||^2 ||S|| <= u rho.  A row is
    certified when d > 0, gamma and s lie in (1 / _SAFE, _SAFE), and both
    |lam| > max(tol, tiny) + delta kappa rho, delta = _FILTER_MARGIN.  While
    16u + eps_L <= delta / 2, the pencil's |lam| then exceed tol + eps_L
    kappa rho, so LAPACK passes the row too, with the same signs.  Past
    kappa = 2 / delta the margin exceeds every computed |lam| (at most
    about 1.5 rho), so no row is certified, and below it u kappa < 3e-6
    keeps the first-order terms exact enough.  A row with d <= 0 (its
    lower triangle not positive definite) or a non-finite intermediate is
    never certified.

    Returns (half, traceless, certified): P+ = half I + traceless and P- =
    (1 - half) I - traceless on the certified rows; other rows hold
    anything."""
    p, q = s[:, 0, 0], s[:, 1, 1]
    b = 0.5 * (s[:, 0, 1] + s[:, 1, 0])
    g00, g10, g11 = g[:, 0, 0], g[:, 1, 0], g[:, 1, 1]
    with np.errstate(all="ignore"):     # warns on uncertified rows alone
        d = g00 * g11 - g10 * g10
        nu = 0.5 * (g11 * p - g00 * q)
        m01, m10 = g11 * b - g10 * q, g00 * b - g10 * p
        r = np.hypot(nu + g10 / g00 * m10, np.sqrt(d) / g00 * m10)
        mid = 0.5 * (g11 * p + g00 * q) - g10 * b
        hi, lo = (mid + r) / d, (mid - r) / d
        gamma, scale = g00 + g11, np.abs(p) + np.abs(q) + 2.0 * np.abs(b)
        margin = _FILTER_MARGIN * (gamma * gamma / d) * (gamma * scale / d)
        certified = ((d > 0.0) & (np.minimum(np.abs(hi), np.abs(lo))
                                  > max(tol, _TINY) + margin)
                     & (gamma > 1.0 / _SAFE) & (gamma < _SAFE)
                     & (scale > 1.0 / _SAFE) & (scale < _SAFE))
        mixed = (lo < 0.0) & (hi > 0.0)
        # same-sign rows take no quotient, so no 0 / 0 for equal lam
        traceless = np.divide(np.stack([nu, m01, m10, -nu], axis=1),
                              (r + r)[:, None], out=np.zeros((len(r), 4)),
                              where=mixed[:, None]).reshape(-1, 2, 2)
    half = np.where(mixed, 0.5, np.where(lo > 0.0, 1.0, 0.0))
    return half, traceless, certified


def _sign_projector(eig, positive):
    """The positive/negative sign-projector from a pencil's sign data
    (`pencil_gap`): the closed form's on its certified 2 x 2 rows, and
    L^-T Z_sel Z_sel^T L^T from LAPACK's whitened decomposition on the
    others."""
    closed, rows, whitened = eig
    if closed is None:
        return _whitened_projector(*whitened, positive)
    half, traceless = closed
    out = traceless.copy() if positive else -traceless
    diag = half if positive else 1.0 - half
    out[:, 0, 0] += diag
    out[:, 1, 1] += diag
    if whitened is not None:
        out[rows] = _whitened_projector(*whitened, positive)
    return out


def _whitened_projector(ell, w, z, positive):
    """The positive/negative sign-projector from the pencil's whitened
    eigen-decomposition."""
    mask = (w > 0.0) if positive else (w < 0.0)
    zsel = z * mask[:, None, :]
    # projector in original coordinates: L^-T Z_sel Z_sel^T L^T
    lt = np.swapaxes(ell, 1, 2)
    return solve(lt, zsel @ np.swapaxes(zsel, 1, 2) @ lt)


def _pencil_sqrt(s, g):
    """Principal square root of G^-1 S for SPD S and G.

    Congruence-covariant, so chartwise values glue into a bundle morphism:
    if S, G transform by h^T . h then the square root conjugates by h^-1 . h.
    """
    ell, w, z = _whitened_eigh(s, g)
    root = (z * np.sqrt(w)[:, None, :]) @ np.swapaxes(z, 1, 2)
    lt = np.swapaxes(ell, 1, 2)
    return solve(lt, root @ lt)


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

    def _key(self):
        return (id(self.group), self.row, self.col)

    def children(self):
        return tuple(self.group.child_exprs())

    def _eval(self, ctx):
        return self.group.compute(ctx)[:, self.row, self.col]

    def __repr__(self):
        return f"{self.group.op}[{self.row},{self.col}]"


# ---------------------------------------------------------------------------
# Path products.  A PathProduct chains a projector field along a path: at a
# base point x it is P(h(x, t_K)) ... P(h(x, t_1)).  It is a group beside
# MatrixGroup, read through MatEntry and looked up as MatrixGroup is (the
# context's cache, then its kernel memo, so one transport is computed once
# per sampled region array), but evaluated by stacking rungs, and only at
# the base points its row store does not hold yet.

PATH_BLOCK_ROWS = 1 << 13   # lifted rows evaluated together


class _RowStore:
    """Transported rows of one path product: one growing (capacity, n, n)
    array, and per base point x the index of its row, keyed by x's float64
    bytes (`_row_keys`).  It holds plain arrays only, so it goes with its
    path product."""

    __slots__ = ("index", "values")

    def __init__(self, n: int):
        self.index: dict[bytes, int] = {}
        self.values = np.empty((0, n, n))

    def fill(self, keys: list, make) -> None:
        """Store the rows of the keys not stored yet: `make(at)` gives them,
        for `at` the position in `keys` of each such key's first
        occurrence.  If `make` raises, nothing is stored."""
        new = {}
        for i, key in enumerate(keys):
            if key not in self.index and key not in new:
                new[key] = i
        if not new:
            return
        values = make(np.fromiter(new.values(), np.intp, len(new)))
        start, end = len(self.index), len(self.index) + len(new)
        if end > len(self.values):
            grown = np.empty((max(end, 2 * len(self.values)), *self.values.shape[1:]))
            grown[:start] = self.values[:start]
            self.values = grown
        self.values[start:end] = values
        self.index.update(zip(new, range(start, end)))

    def read(self, keys: list) -> np.ndarray:
        return self.values[np.fromiter(map(self.index.__getitem__, keys),
                                       np.intp, len(keys))]


def _row_keys(x: np.ndarray) -> list:
    """Each row's float64 bytes, so 0.0 and -0.0 stay apart."""
    x = np.ascontiguousarray(x, dtype=float)
    return x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel().tolist()


class PathProduct(metaclass=_Interned):
    """Product of the projector `entries` (n x n, over the target space)
    along the path `maps` at the rungs `ts`, hash-consed as nodes are.

    The maps are expressions over the lifted space (x, t) with t at column
    `t_index`.  `source` gives x in the caller's coordinates: the identity,
    until a substitution composes it.

    `store` holds the transport of every base point x computed (or
    seeded) so far, so a compute transports only the points it has not
    met.  A transport is a per-row function of x (a ladder's power-of-two
    rung count keeps its blocking out of the values, see `_rung_product`),
    so a stored row is the fresh value bit for bit.
    """

    __slots__ = ("entries", "maps", "t_index", "ts", "source", "out_shape",
                 "store", "__weakref__")
    __setattr__ = Expr.__setattr__
    op = "pathproduct"

    def __init__(self, entries, maps, t_index: int, ts, source=None):
        entries = _freeze_matrix(entries)
        n = len(entries)
        if len(entries[0]) != n or not len(ts):
            raise DimensionMismatch("path product needs a square projector "
                                    "and at least one rung")
        if t_index < 1:
            raise DimensionMismatch("path product needs a base coordinate")
        if source is None:
            source = [Var(i) for i in range(t_index)]
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "maps", tuple(as_expr(h) for h in maps))
        object.__setattr__(self, "t_index", int(t_index))
        object.__setattr__(self, "ts", tuple(float(t) for t in ts))
        object.__setattr__(self, "source", tuple(as_expr(x) for x in source))
        object.__setattr__(self, "out_shape", (n, n))
        object.__setattr__(self, "store", _RowStore(n))

    def _key(self):
        return (_ids(self.entries), tuple(map(id, self.maps)),
                tuple(map(id, self.source)), self.t_index,
                struct.pack(f"<{len(self.ts)}d", *self.ts))

    def child_exprs(self):
        return [*self.source, *self.maps, *(e for row in self.entries for e in row)]

    # the context's cache, then its memo, then `_compute`: bound here, so a
    # wrapper patched onto MatrixGroup.compute never sees a path product
    compute = MatrixGroup.compute

    def _compute(self, ctx: EvalContext) -> np.ndarray:
        """The transport at each row: the stored rows read, the others
        transported once each and stored only if all of them pass."""
        x = np.empty((ctx.points.shape[0], self.t_index))
        for i, xi in enumerate(self.source):
            x[:, i] = xi.eval(ctx)
        keys = _row_keys(x)
        self.store.fill(keys, lambda at: self._transport(x[at], ctx.points[at]))
        return self.store.read(keys)

    def _transport(self, x: np.ndarray, callers: np.ndarray) -> np.ndarray:
        """The product at each base point x, a guard error naming the row
        of `callers` whose lifted point crossed it."""
        return _rung_product(np.stack([
            _rung_product(block) for block in path_projectors(
                self.entries, self.maps, self.t_index, x, self.ts,
                callers=callers)]))

    def seed(self, x: np.ndarray, rungs: np.ndarray) -> None:
        """Store the product of `rungs`, P(h(x, t)) at each t of `ts` and
        each base point x (shape (len(ts), N, n, n), as `path_projectors`
        yields them), for the rows of `x` not stored yet: `_transport`'s
        value bit for bit.  The product runs on a few rows at a time, so
        no second copy of the rungs is made."""
        if rungs.shape[:2] != (len(self.ts), x.shape[0]):
            raise DimensionMismatch("seed rungs must match the path's rungs and points")
        step = max(1, PATH_BLOCK_ROWS // len(self.ts))
        self.store.fill(_row_keys(x), lambda at: np.concatenate([
            _rung_product(rungs[:, at[i:i + step]]) for i in range(0, len(at), step)]))

    def substitute(self, mapping, memo) -> "PathProduct":
        """Compose the substitution into `source`; the path's own
        coordinates and the target-space entries are left alone."""
        source = [_subst(x, mapping, memo) for x in self.source]
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
    """Evaluate an expression on an (N, dim) batch, or on a KernelMemo's
    points sharing its MatrixGroup outputs; returns shape (N,)."""
    return expression.eval(EvalContext(points))


def evaluate_at(expression: Expr, point) -> float:
    """Evaluate at a single point given as a sequence of coordinates."""
    arr = np.asarray(point, dtype=float).reshape(1, -1)
    return float(expression.eval(EvalContext(arr))[0])


def substitute(expression: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace variables by expressions, rebuilding shared nodes once."""
    return _subst(expression, mapping, {})


def _subst(node, mapping, memo):
    """`node` with variables replaced; `memo` maps the id of each node and
    group done to its output, so a group's entries substitute it once."""
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(node, Var):
        out = mapping.get(node.index, node)
    elif isinstance(node, MatEntry):
        out = MatEntry(_subst(node.group, mapping, memo), node.row, node.col)
    elif isinstance(node, (MatrixGroup, PathProduct)):
        out = node.substitute(mapping, memo)
    elif node.children():
        out = node.rebuild([_subst(c, mapping, memo) for c in node.children()])
    else:
        out = node
    memo[key] = out
    return out
