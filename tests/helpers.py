"""Shared construction helpers for the test suite."""

import ast
import json
import re

import numpy as np

from bundleforms import expr as ex
from bundleforms.semialg import (
    EQ,
    GE,
    GT,
    Base,
    Condition,
    Polynomial,
    SemialgebraicSet,
)


def interval(lo=None, hi=None, strict=True):
    """One-dimensional interval set."""
    conds = []
    x = Polynomial.coordinate(1, 0)
    op = GT if strict else GE
    if lo is not None:
        conds.append(Condition.from_poly(x - Polynomial.constant(1, lo), op))
    if hi is not None:
        conds.append(Condition.from_poly(Polynomial.constant(1, hi) - x, op))
    return SemialgebraicSet(1, [conds])


def unit_circle():
    p = (Polynomial.coordinate(2, 0) * Polynomial.coordinate(2, 0)
         + Polynomial.coordinate(2, 1) * Polynomial.coordinate(2, 1)
         - Polynomial.constant(2, 1))
    return SemialgebraicSet(2, [[Condition.from_poly(p, EQ)]])


def grid(lo, hi, n):
    return np.linspace(lo, hi, n).reshape(-1, 1)


LINE = Base(SemialgebraicSet.whole_space(1), box=((-3.0, 3.0),), name="line")


def nan_where_positive(gate):
    """NaN where `gate` > 0 and 0 elsewhere: added to an entry, it makes the
    entry NaN on part of a region only."""
    return ex.ZeroGate(gate, ex.Const(np.nan))


def machine_task(check) -> dict:
    """The CLI machine report's entry of one check, read back by json."""
    from bundleforms.cli import _apply_check
    from bundleforms.reporting import Report, TaskEntry
    entry = TaskEntry("check", "error")
    _apply_check(entry, check)
    report = Report(seed=0)
    report.add(entry)
    (task,) = json.loads(report.machine_text())["tasks"]
    return task


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its calls' args."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def antipodal_path():
    """H(x, t) = (a x + b Jx) / sqrt(a^2 + b^2) with a = 1 - 2t and
    b = 4t(1 - t): stays on the circle, the identity at t = 0 and the
    antipodal map at t = 1."""
    x0, x1, t = ex.Var(0), ex.Var(1), ex.Var(2)
    a = ex.Sub(ex.Const(1.0), ex.Mul(ex.Const(2.0), t))
    b = ex.Mul(ex.Const(4.0), ex.Mul(t, ex.Sub(ex.Const(1.0), t)))
    norm = ex.Sqrt(ex.Add(ex.Mul(a, a), ex.Mul(b, b)), guard_tol=1e-12)
    return [ex.Div(ex.Sub(ex.Mul(a, x0), ex.Mul(b, x1)), norm, guard_tol=1e-12),
            ex.Div(ex.Add(ex.Mul(b, x0), ex.Mul(a, x1)), norm, guard_tol=1e-12)]


# --- scalar references for the batched kernels --------------------------------

def reference_gs_events(s, scale, pivot_ratio=1e-10):
    """The per-sample pivoted congruence Gram-Schmidt loop, one d x d matrix.

    Returns (events, frame columns, signs) and raises NearSingular where
    neither a pivot nor a hyperbolic pair is usable.
    """
    import itertools

    from bundleforms.errors import NearSingular

    d = s.shape[0]
    work = np.eye(d)
    unused = list(range(d))
    events = []
    cols = np.zeros((d, d))
    signs = np.zeros(d)
    out_idx = 0
    for _ in range(d):
        for _fix_round in range(d + 1):
            diags = np.array([work[:, j] @ s @ work[:, j] for j in unused])
            best = int(np.argmax(np.abs(diags)))
            if np.abs(diags[best]) > pivot_ratio * scale:
                break
            off_best, off_val = None, 0.0
            for a, b in itertools.combinations(range(len(unused)), 2):
                v = abs(work[:, unused[a]] @ s @ work[:, unused[b]])
                if v > abs(off_val):
                    off_best, off_val = (a, b), v
            if off_best is None or off_val <= pivot_ratio * scale:
                raise NearSingular("no usable pivot or hyperbolic pair")
            a, b = off_best
            work[:, unused[a]] += work[:, unused[b]]
            events.append(("fix", unused[a], unused[b]))
        slot = unused[best]
        val = work[:, slot] @ s @ work[:, slot]
        sign = 1.0 if val > 0 else -1.0
        v = work[:, slot] / np.sqrt(abs(val))
        events.append(("pivot", slot, sign))
        cols[:, out_idx] = v
        signs[out_idx] = sign
        out_idx += 1
        unused.remove(slot)
        for j in unused:
            work[:, j] = work[:, j] - sign * (work[:, j] @ s @ v) * v
    return events, cols, signs


def reference_gram_schmidt_frame(s, near_singular=1e-12):
    """The per-sample `gram_schmidt_frame`: (frame, (pos, neg)) of one matrix."""
    from bundleforms.errors import DimensionMismatch, NearSingular

    s = np.asarray(s, dtype=float)
    d = s.shape[0]
    if s.shape != (d, d) or not np.allclose(s, s.T, atol=1e-12):
        raise DimensionMismatch("gram_schmidt_frame needs a symmetric matrix")
    if d == 0:
        return np.zeros((0, 0)), (0, 0)
    if abs(np.linalg.det(s)) <= near_singular:
        raise NearSingular(f"determinant {np.linalg.det(s):.3e} too close to zero")
    scale = max(np.abs(s).max(), 1e-30)
    _, g, signs = reference_gs_events(s, scale)
    pos = [g[:, k] for k in range(d) if signs[k] > 0]
    neg = [g[:, k] for k in range(d) if signs[k] < 0]
    return np.stack(pos + neg, axis=1), (len(pos), len(neg))


def reference_halton(n, dim, skip=20):
    """The scalar radical-inverse loop the Halton candidates are drawn from."""
    from bundleforms.semialg import _PRIMES

    out = np.empty((n, dim))
    for j in range(dim):
        base = _PRIMES[j]
        for k in range(n):
            i, f, r = k + skip, 1.0, 0.0
            while i > 0:
                f /= base
                r += f * (i % base)
                i //= base
            out[k, j] = r
    return out


# --- LAPACK references for the matrix guards -----------------------------------

def lapack_sv_above(a, tol):
    """The singular-value guard's reference decision per operand of the
    stack: LAPACK's smallest singular value is above tol."""
    return np.linalg.svd(a, compute_uv=False)[:, -1] > tol


def lapack_eig_not_above(s, tol):
    """The SPD guard's reference decision per operand of the stack: LAPACK's
    smallest eigenvalue of the symmetrized operand is at most tol, a
    violation."""
    return np.linalg.eigvalsh(0.5 * (s + np.swapaxes(s, 1, 2)))[:, 0] <= tol


def named_point(message: str) -> tuple:
    """The first parenthesized point an error message names, read back as
    Python literals; each coordinate must print as a plain float, never as
    a numpy scalar such as np.float64(0.5)."""
    assert "np." not in message, message
    point = ast.literal_eval(re.search(r"\([^()]*\)", message).group())
    assert point and all(type(v) is float for v in point), message
    return point
