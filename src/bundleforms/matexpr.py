"""Small dense matrices with expression entries.

Matrices are tuples of tuples of Expr nodes.  Products and sums build
expression trees; inverses, solves, projectors and Cholesky factors go
through the guarded batched matrix nodes so evaluation stays vectorized.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .errors import DimensionMismatch

ExprMatrix = tuple  # tuple[tuple[ex.Expr, ...], ...]


def em_shape(a: ExprMatrix) -> tuple[int, int]:
    return (len(a), len(a[0]))


def em_const(matrix) -> ExprMatrix:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    return tuple(tuple(ex.Const(v) for v in row) for row in matrix)


def em_identity(d: int) -> ExprMatrix:
    return tuple(tuple(ex.Const(1.0 if i == j else 0.0) for j in range(d))
                 for i in range(d))


def em_transpose(a: ExprMatrix) -> ExprMatrix:
    n, m = em_shape(a)
    return tuple(tuple(a[i][j] for i in range(n)) for j in range(m))


def em_add(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    if em_shape(a) != em_shape(b):
        raise DimensionMismatch("matrix shapes differ")
    return tuple(tuple(ex.Add(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def em_sub(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    if em_shape(a) != em_shape(b):
        raise DimensionMismatch("matrix shapes differ")
    return tuple(tuple(ex.Sub(x, y) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def em_scale(s: ex.Expr, a: ExprMatrix) -> ExprMatrix:
    s = ex.as_expr(s)
    return tuple(tuple(ex.Mul(s, x) for x in row) for row in a)


def em_mul(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    n, k = em_shape(a)
    k2, m = em_shape(b)
    if k != k2:
        raise DimensionMismatch("inner matrix dimensions differ")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = ex.Mul(a[i][0], b[0][j])
            for t in range(1, k):
                acc = ex.Add(acc, ex.Mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def em_block_diag(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    na, ma = em_shape(a)
    nb, mb = em_shape(b)
    zero = ex.Const(0.0)
    out = []
    for i in range(na):
        out.append(tuple(a[i]) + tuple(zero for _ in range(mb)))
    for i in range(nb):
        out.append(tuple(zero for _ in range(ma)) + tuple(b[i]))
    return tuple(out)


def em_hstack(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    if len(a) != len(b):
        raise DimensionMismatch("row counts differ")
    return tuple(tuple(ra) + tuple(rb) for ra, rb in zip(a, b))


def em_vstack(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    if em_shape(a)[1] != em_shape(b)[1]:
        raise DimensionMismatch("column counts differ")
    return tuple(a) + tuple(b)


def em_kron(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    na, ma = em_shape(a)
    nb, mb = em_shape(b)
    out = []
    for i in range(na):
        for p in range(nb):
            row = []
            for j in range(ma):
                for q in range(mb):
                    row.append(ex.Mul(a[i][j], b[p][q]))
            out.append(tuple(row))
    return tuple(out)


def em_from_group(group) -> ExprMatrix:
    n, m = group.out_shape
    return tuple(tuple(ex.MatEntry(group, i, j) for j in range(m)) for i in range(n))


def em_inv(a: ExprMatrix, guard_tol: float = 1e-9) -> ExprMatrix:
    return em_from_group(ex.MatrixGroup(ex.INV, a, guard_tol=guard_tol))


def em_solve(a: ExprMatrix, b: ExprMatrix, guard_tol: float = 1e-9) -> ExprMatrix:
    return em_from_group(ex.MatrixGroup(ex.SOLVE, a, b, guard_tol=guard_tol))


def em_colspan_proj(a: ExprMatrix, guard_tol: float = 1e-9) -> ExprMatrix:
    return em_from_group(ex.MatrixGroup(ex.COLSPAN_PROJ, a, guard_tol=guard_tol))


def em_chol(s: ExprMatrix, guard_tol: float = 1e-12) -> ExprMatrix:
    return em_from_group(ex.MatrixGroup(ex.CHOL, s, guard_tol=guard_tol))


def em_pencil_proj(s: ExprMatrix, g: ExprMatrix, positive: bool,
                   guard_tol: float = 1e-9) -> ExprMatrix:
    op = ex.PENCIL_PROJ_POS if positive else ex.PENCIL_PROJ_NEG
    return em_from_group(ex.MatrixGroup(op, s, g, guard_tol=guard_tol))


def em_pencil_sqrt(s: ExprMatrix, g: ExprMatrix,
                   guard_tol: float = 1e-12) -> ExprMatrix:
    return em_from_group(ex.MatrixGroup(ex.PENCIL_SQRT, s, g, guard_tol=guard_tol))


def em_path_product(entries: ExprMatrix, maps, t_index: int, ts) -> ExprMatrix:
    """P(h(x, t_K)) ... P(h(x, t_1)) for the projector P along the path h."""
    return em_from_group(ex.PathProduct(entries, maps, t_index, ts))


def em_inv_transpose(a: ExprMatrix, guard_tol: float = 1e-9) -> ExprMatrix:
    return em_transpose(em_inv(a, guard_tol))


def em_zero_gate(gate: ex.Expr, a: ExprMatrix) -> ExprMatrix:
    return tuple(tuple(ex.ZeroGate(gate, e) for e in row) for row in a)


def em_submatrix(a: ExprMatrix, rows, cols) -> ExprMatrix:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)


def em_det(a: ExprMatrix) -> ex.Expr:
    """Leibniz determinant; fine for the small ranks used here."""
    n, m = em_shape(a)
    if n != m:
        raise DimensionMismatch("determinant needs a square matrix")
    if n == 1:
        return a[0][0]
    if n == 2:
        return ex.Sub(ex.Mul(a[0][0], a[1][1]), ex.Mul(a[0][1], a[1][0]))
    total: ex.Expr | None = None
    for j in range(n):
        minor = tuple(tuple(a[i][k] for k in range(n) if k != j)
                      for i in range(1, n))
        term = ex.Mul(a[0][j], em_det(minor))
        if total is None:
            total = term
        elif j % 2 == 0:
            total = ex.Add(total, term)
        else:
            total = ex.Sub(total, term)
    return total


def em_eval(a: ExprMatrix, points) -> np.ndarray:
    """Evaluate to an (N, n, m) array with one shared context."""
    return ex._eval_matrix(a, ex.EvalContext(points))


def em_subst(a: ExprMatrix, mapping: dict[int, ex.Expr]) -> ExprMatrix:
    """Variable substitution across all entries, preserving shared nodes."""
    memo: dict[int, ex.Expr] = {}
    group_memo: dict[int, ex.MatrixGroup] = {}
    return tuple(tuple(ex._subst(e, mapping, memo, group_memo) for e in row)
                 for row in a)
