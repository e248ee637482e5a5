"""Expression node evaluation and guards."""

import ast
import gc
import importlib.util
import inspect
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import matexpr, semialg
from bundleforms.catalog import circle_base
from bundleforms.errors import DimensionMismatch, GuardViolation
from bundleforms.matexpr import (
    em_add,
    em_const,
    em_det,
    em_hstack,
    em_identity,
    em_mul,
    em_sub,
    em_vstack,
)
from helpers import counting, lapack_eig_not_above, lapack_sv_above


def test_polynomial_arithmetic():
    # (x0^2 + 1) at x0 = 2 -> 5
    e = ex.Add(ex.Pow(ex.Var(0), 2), ex.Const(1.0))
    assert ex.evaluate_at(e, [2.0]) == 5.0


def test_sqrt_identity_case():
    assert ex.evaluate_at(ex.Sqrt(ex.Const(4.0)), [0.0]) == 2.0


def test_guarded_quotient_raises_at_zero():
    e = ex.Div(ex.Const(1.0), ex.Var(0))
    with pytest.raises(GuardViolation) as err:
        ex.evaluate_at(e, [0.0])
    assert err.value.point == (0.0,)


def test_sqrt_negative_argument_raises():
    with pytest.raises(GuardViolation):
        ex.evaluate_at(ex.Sqrt(ex.Var(0)), [-1.0])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ex.evaluate_at(ex.Var(3), [1.0, 2.0])


def _ones(n, m):
    return em_const(np.ones((n, m)))


@pytest.mark.parametrize("build", [
    lambda: em_add(_ones(2, 2), _ones(2, 1)),
    lambda: em_sub(_ones(1, 2), _ones(2, 2)),
    lambda: em_mul(_ones(2, 3), _ones(2, 2)),
    lambda: em_hstack(_ones(2, 1), _ones(3, 1)),
    lambda: em_vstack(_ones(1, 2), _ones(1, 3)),
    lambda: em_det(_ones(2, 3)),
    lambda: ex.MatrixGroup(ex.SOLVE, _ones(2, 3), _ones(2, 1)),
    lambda: ex.MatrixGroup(ex.INV, _ones(3, 2)),
    lambda: ex.MatrixGroup(ex.INV, ((ex.Const(1.0), ex.Const(0.0)),
                                    (ex.Const(1.0),))),
    lambda: ex.MatEntry(ex.MatrixGroup(ex.INV, _ones(2, 2)), 2, 0),
    lambda: ex.PathProduct(_ones(2, 3), [ex.Var(0), ex.Var(1)], 1, [0.5]),
    lambda: ex.PathProduct(_ones(2, 2), [ex.Var(0), ex.Var(0)], 0, [0.5]),
    lambda: next(ex.path_projectors(_ones(2, 2), [ex.Var(0), ex.Var(1)], 1,
                                    np.zeros((3, 2)), [0.5])),
], ids=["add", "sub", "mul", "hstack", "vstack", "det", "solve", "inv",
        "ragged", "entry", "pathproduct", "path-no-base", "path-points"])
def test_shape_guards_raise_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch):
        build()


def test_two_by_two_determinant_is_the_interned_cross_difference():
    a = var_matrix(2, 2)
    assert em_det(a) is ex.Sub(ex.Mul(a[0][0], a[1][1]), ex.Mul(a[0][1], a[1][0]))


@pytest.mark.parametrize("n", [3, 4])
def test_leibniz_determinant_matches_numpy(n):
    # entries (n + 1) delta_ij + c0 + c1 x0 + c2 x1 keep det away from zero
    rng = np.random.default_rng(n)
    c = rng.uniform(-1.0, 1.0, size=(3, n, n))
    c[0] += (n + 1) * np.eye(n)
    mat = tuple(tuple(ex.Add(ex.Const(c[0, i, j]),
                             ex.Add(ex.Mul(ex.Const(c[1, i, j]), ex.Var(0)),
                                    ex.Mul(ex.Const(c[2, i, j]), ex.Var(1))))
                      for j in range(n)) for i in range(n))
    pts = rng.uniform(-1.0, 1.0, size=(25, 2))
    got = ex.evaluate(em_det(mat), pts)
    want = np.linalg.det(c[0] + pts[:, :1, None] * c[1] + pts[:, 1:, None] * c[2])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_vectorized_evaluation_matches_scalar():
    e = ex.Mul(ex.Add(ex.Var(0), ex.Const(2.0)), ex.Abs(ex.Var(1)))
    pts = np.array([[1.0, -3.0], [0.5, 0.25], [-2.0, 2.0]])
    vals = ex.evaluate(e, pts)
    for p, v in zip(pts, vals):
        assert ex.evaluate_at(e, p) == pytest.approx(v)


def test_min_max_clamp():
    pts = np.array([[-1.0], [0.5], [2.0]])
    assert np.allclose(ex.evaluate(ex.Clamp(ex.Var(0)), pts), [0.0, 0.5, 2.0])
    assert np.allclose(
        ex.evaluate(ex.Max(ex.Var(0), ex.Const(0.25)), pts), [0.25, 0.5, 2.0]
    )
    assert np.allclose(
        ex.evaluate(ex.Min(ex.Var(0), ex.Const(0.25)), pts), [-1.0, 0.25, 0.25]
    )


def test_zero_gate_skips_payload_guards():
    # payload 1/x0 is only evaluated where the gate is positive
    gate = ex.Clamp(ex.Var(0))            # positive iff x0 > 0
    e = ex.ZeroGate(gate, ex.Div(ex.Const(1.0), ex.Var(0)))
    pts = np.array([[-1.0], [0.0], [2.0]])
    assert np.allclose(ex.evaluate(e, pts), [0.0, 0.0, 2.0 * (1.0 / 2.0)])


def test_matrix_solve_entry():
    # constant system [[2,0],[0,4]] x = (1, 2) -> x = (1/2, 1/2)
    a = [[ex.Const(2.0), ex.Const(0.0)], [ex.Const(0.0), ex.Const(4.0)]]
    b = [[ex.Const(1.0)], [ex.Const(2.0)]]
    group = ex.MatrixGroup(ex.SOLVE, a, b)
    assert ex.evaluate_at(ex.MatEntry(group, 0, 0), [0.0]) == pytest.approx(0.5)
    assert ex.evaluate_at(ex.MatEntry(group, 1, 0), [0.0]) == pytest.approx(0.5)


def test_matrix_solve_guard():
    a = [[ex.Var(0)]]
    group = ex.MatrixGroup(ex.SOLVE, a, [[ex.Const(1.0)]], guard_tol=1e-9)
    with pytest.raises(GuardViolation):
        ex.evaluate_at(ex.MatEntry(group, 0, 0), [0.0])


# --- the kernel memo: one MatrixGroup output per (group, rows of one array) ---

def counted_kernels(monkeypatch):
    """The (group, path) of every MatrixGroup kernel that runs."""
    runs = []
    compute = ex.MatrixGroup._compute

    def counted(group, ctx):
        runs.append((group, ctx.path))
        return compute(group, ctx)

    monkeypatch.setattr(ex.MatrixGroup, "_compute", counted)
    return runs


def test_memo_shares_kernels_only_between_equal_gate_masks(monkeypatch):
    x = ex.Var(0)
    inv = ex.MatrixGroup(ex.INV, [[ex.Add(ex.Const(1.0), ex.Mul(x, x))]])
    entry = ex.MatEntry(inv, 0, 0)
    # two gate objects positive where x > 0, one where x > 0.5
    gates = [ex.Clamp(x), ex.Max(x, ex.Const(0.0)), ex.Sub(x, ex.Const(0.5))]
    gated = [ex.ZeroGate(g, entry) for g in gates]
    runs = counted_kernels(monkeypatch)
    memo = ex.KernelMemo(np.linspace(-1.0, 1.0, 9).reshape(-1, 1))
    got = [g.eval(ex.EvalContext(memo)) for g in gated]
    assert [group for group, _ in runs] == [inv, inv]
    assert runs[0][1] != runs[1][1] and len(memo.outputs[inv]) == 2
    again = [g.eval(ex.EvalContext(memo)) for g in gated]
    assert len(runs) == 2
    for g, first, second in zip(gated, got, again):
        want = ex.evaluate(g, memo.points)          # no memo
        assert first.tobytes() == second.tobytes() == want.tobytes()
    assert len(runs) == 2 + 3


def test_memo_keeps_nothing_of_a_failed_guard():
    entry = ex.MatEntry(ex.MatrixGroup(ex.INV, [[ex.Var(0)]], guard_tol=1e-9), 0, 0)
    memo = ex.KernelMemo(np.array([[2.0], [1.0], [0.0], [-1.0]]))
    raised = []
    for _ in range(2):
        with pytest.raises(GuardViolation) as err:
            entry.eval(ex.EvalContext(memo))
        assert not memo.outputs
        raised.append((str(err.value), err.value.point))
    assert raised[0] == raised[1] and raised[0][1] == (0.0,)


def test_memo_outputs_are_read_only():
    entry = ex.MatEntry(ex.MatrixGroup(ex.INV, [[ex.Var(0)]]), 0, 0)
    memo = ex.KernelMemo(np.array([[2.0], [4.0]]))
    ctx = ex.EvalContext(memo)
    assert entry.eval(ctx).tolist() == [0.5, 0.25]
    assert entry.eval(ex.EvalContext(memo)).tolist() == [0.5, 0.25]
    outputs = [*memo.outputs[entry.group].values(), *ctx.group_cache.values()]
    assert len(outputs) == 2 and outputs[0] is outputs[1]
    for out in outputs:
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0.0


@pytest.mark.parametrize("scope", [np.asarray, ex.KernelMemo])
@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 2, 1))])
def test_points_not_n_by_dim_raise_as_array_or_memo(scope, bad):
    with pytest.raises(DimensionMismatch, match="points must be"):
        ex.evaluate(ex.Var(0), scope(bad))
    with pytest.raises(DimensionMismatch, match="points must be"):
        ex.EvalContext(scope(bad))


def test_memo_len_is_its_number_of_points():
    memo = ex.KernelMemo(np.zeros((7, 2)))
    assert len(memo) == memo.points.shape[0] == 7
    assert len(ex.KernelMemo(np.zeros((0, 3)))) == 0


def test_layer_tracer_counts_a_memo_evaluation_by_its_rows():
    # the benchmark's expr.eval.rows is len() of the evaluator's second
    # positional argument, so a memo must count as its points
    layertrace = load_layertrace()
    memo = ex.KernelMemo(np.linspace(-1.0, 1.0, 6).reshape(-1, 2))
    x = ex.Var(0)
    inv = ex.MatrixGroup(ex.INV, [[ex.Add(ex.Const(1.0), ex.Mul(x, x))]])
    tracer = layertrace.LayerTracer()
    with tracer.installed():
        ex.evaluate(ex.MatEntry(inv, 0, 0), memo)
        matexpr.em_eval(((ex.Var(1),),), memo)
    got = tracer.snapshot()
    assert got["expr.eval.calls"] == 2
    assert got["expr.eval.rows"] == 2 * len(memo.points)


def test_colspan_projector_entry():
    # A = (1, 1)^T spans the diagonal; projector = [[.5,.5],[.5,.5]]
    a = [[ex.Const(1.0)], [ex.Const(1.0)]]
    group = ex.MatrixGroup(ex.COLSPAN_PROJ, a)
    vals = [[ex.evaluate_at(ex.MatEntry(group, i, j), [0.0]) for j in range(2)]
            for i in range(2)]
    assert np.allclose(vals, 0.5)


# --- closed-form single-column kernels ---------------------------------------

def column_group(op, height, guard_tol):
    """A MatrixGroup over one column of Vars, so a stack of columns is
    evaluated by handing its rows in as points."""
    a = [[ex.Var(i)] for i in range(height)]
    b = [[ex.Const(1.0)]] if op == ex.SOLVE else None
    return ex.MatrixGroup(op, a, b, guard_tol=guard_tol)


def stress_columns(rng, n, height):
    """Gaussian directions at log-normal scales clipped to [1e-6, 1e6], a
    tenth of them rescaled to norms of 2 to 100 times the 1e-12 guard, and a
    few axis-aligned columns."""
    a = rng.standard_normal((n, height))
    a *= 10.0 ** np.clip(rng.normal(0.0, 2.5, (n, 1)), -6.0, 6.0)
    near = rng.random(n) < 0.1
    a[near] *= (1e-12 * rng.uniform(2.0, 100.0, (near.sum(), 1))
                / np.linalg.norm(a[near], axis=1, keepdims=True))
    a[:height] = np.eye(height) * rng.uniform(0.5, 2.0, (height, 1))
    return a


@pytest.mark.parametrize("height", [2, 3, 4])
def test_single_column_projector_is_bit_identical_to_lapack_solve(height):
    # the closed form a (a^T a)^-1 a^T = a @ (a^T * (1 / gram)) must equal
    # the LAPACK solve exactly: OpenBLAS's trsm multiplies by the reciprocal
    rng = np.random.default_rng(height)
    cols = stress_columns(rng, 35_000, height)
    ctx = ex.EvalContext(cols)
    got = column_group(ex.COLSPAN_PROJ, height, 1e-12).compute(ctx)
    a = cols[:, :, None]
    at = np.swapaxes(a, 1, 2)
    want = a @ np.linalg.solve(at @ a, at)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scale", [0.0, 1e-200])
def test_single_column_guard_names_the_first_violating_point(scale):
    tol = 1e-12
    cols = np.array([[1.0, 2.0], [3.0, -1.0], [scale, -scale], [0.0, 0.0],
                     [5.0, 5.0]])
    with pytest.raises(GuardViolation) as err:
        column_group(ex.COLSPAN_PROJ, 2, tol).compute(ex.EvalContext(cols))
    assert "colproj" in str(err.value)
    assert err.value.point == (scale, -scale)
    # ten times the tolerance passes
    ok = np.array([[10 * tol, 0.0], [0.0, -10 * tol], [6 * tol, 8 * tol]])
    proj = column_group(ex.COLSPAN_PROJ, 2, tol).compute(ex.EvalContext(ok))
    assert np.allclose(proj[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(proj[2], [[0.36, 0.48], [0.48, 0.64]])


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_single_column_guard_decides_as_the_svd(height):
    # the column norm may differ from LAPACK's singular value in the last
    # bits, so rows within 4 ulp of the tolerance are left out
    tol = 1e-12
    rng = np.random.default_rng(10 + height)
    a = rng.standard_normal((50_000, height, 1))
    a *= (tol * 10.0 ** rng.uniform(-1.0, 1.0, (50_000, 1, 1))
          / np.linalg.norm(a, axis=1, keepdims=True))
    closed = ex.smallest_sv(a, np.swapaxes(a, 1, 2) @ a, tol) > tol
    ulps = 4 * np.spacing(tol)
    decided = lapack_sv_above(a, tol + ulps) | ~lapack_sv_above(a, tol - ulps)
    want = lapack_sv_above(a, tol)
    assert decided.sum() > 49_000
    assert 0 < want[decided].sum() < decided.sum()
    assert np.array_equal(closed[decided], want[decided])


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_single_column_guard_decides_as_lapack_on_every_row(height):
    # the rows within 4 ulp of the tolerance included: the filter sends
    # them to LAPACK
    tol = 1e-12
    rng = np.random.default_rng(20 + height)
    a = rng.standard_normal((50_000, height, 1))
    norm = tol * 10.0 ** rng.uniform(-1.0, 1.0, (50_000, 1, 1))
    norm[:20_000] = tol * (1.0 + rng.integers(-4, 5, (20_000, 1, 1)) * ULP)
    a *= norm / np.linalg.norm(a, axis=1, keepdims=True)
    want = lapack_sv_above(a, tol)
    assert 0 < want[:20_000].sum() < 20_000
    got = ex.smallest_sv(a, np.swapaxes(a, 1, 2) @ a, tol) > tol
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scale", [1e-161, 1e-170])
def test_tiny_column_violation_reports_the_lapack_value(scale):
    # the Gram is subnormal or zero, so its square root is not the norm
    cols = np.array([[1.0, 2.0], [scale, scale]])
    want = np.linalg.svd(cols[1:, :, None], compute_uv=False)[0, -1]
    with pytest.raises(GuardViolation, match="matrix colproj guard: smallest "
                       f"singular value {want:.3e} <= 1.0e-12"):
        column_group(ex.COLSPAN_PROJ, 2, 1e-12).compute(ex.EvalContext(cols))


def test_one_by_one_solve_and_inverse_guards_equal_lapack():
    # |a| is LAPACK's singular value of a 1 x 1 matrix bit for bit at both
    # signs wherever LAPACK does not rescale its operand (1e-138 < |a| <
    # 1e138, around every guard tolerance); beyond that, within an ulp
    rng = np.random.default_rng(7)
    a = (rng.choice([-1.0, 1.0], 100_000)
         * 10.0 ** rng.uniform(-310.0, 300.0, 100_000))
    a[:3] = (0.0, -0.0, 1e-12)
    stack = a[:, None, None]
    want = np.linalg.svd(stack, compute_uv=False)[:, -1]
    got = ex.smallest_sv(stack, None, 1e-12)
    inside = (np.abs(a) > 1e-138) & (np.abs(a) < 1e138)
    assert inside.sum() > 40_000
    assert np.array_equal(got[inside | (a == 0.0)], want[inside | (a == 0.0)])
    assert np.allclose(got, want, rtol=4e-16, atol=0.0)
    for op in (ex.SOLVE, ex.INV):
        with pytest.raises(GuardViolation) as err:
            column_group(op, 1, 1e-12).compute(ex.EvalContext(a[:, None]))
        assert op in str(err.value)
        assert err.value.point == (0.0,)


# --- certified guard filters and 1 x 1 kernels against LAPACK ---------------

ULP = 2.0 ** -52


def lapack_operands(monkeypatch, name):
    """Route np.linalg.<name> through a wrapper; the returned list collects
    the operand stack of every call."""
    seen = []
    real = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def rotations(rng, n):
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def adversarial_two_columns(rng, n, height, tol):
    """n operands of shape height x 2: Gaussian at scales 1e-150 to 1e150,
    then in fifths rank-deficient ones, ones with the smallest singular
    value within 4 ulp of tol, and ones whose Gram overflows (entries near
    1e157) or underflows (near 1e-165)."""
    a = rng.standard_normal((n, height, 2))
    a *= 10.0 ** rng.uniform(-150.0, 150.0, (n, 1, 1))
    k = n // 5
    a[:k, :, 1] = a[:k, :, 0] * rng.choice([0.0, 1.0, -3.0, 0.5], (k, 1))
    u, _ = np.linalg.qr(rng.standard_normal((k, height, 2)))
    s2 = tol * (1.0 + rng.integers(-4, 5, k) * ULP)
    s1 = s2 * 10.0 ** rng.uniform(0.0, 6.0, k)
    a[k:2 * k] = ((u * np.stack([s1, s2], -1)[:, None, :])
                  @ np.swapaxes(rotations(rng, k), 1, 2))
    a[2 * k:3 * k] /= np.abs(a[2 * k:3 * k]).max(axis=(1, 2), keepdims=True)
    a[2 * k:3 * k] *= 10.0 ** rng.choice([157.0, -165.0], (k, 1, 1))
    return a


def adversarial_symmetric(rng, n, size, tol):
    """n symmetric size x size operands (size 1 or 2): eigenvalues of either
    sign at scales 1e-150 to 1e150, then in fifths exact zeros, a smallest
    eigenvalue within 4 ulp of tol, and entries near 1e307, where the
    filter's scale |p| + |q| + |b| overflows."""
    lam = (rng.choice([-1.0, 1.0], (n, size))
           * 10.0 ** rng.uniform(-150.0, 150.0, (n, size)))
    k = n // 5
    lam[:k, 0] = rng.choice([0.0, -0.0], k)
    lam[k:2 * k, 0] = tol * (1.0 + rng.integers(-4, 5, k) * ULP)
    if size == 1:
        m = lam[:, :, None]
    else:
        lam[k:2 * k, 1] = lam[k:2 * k, 0] * 10.0 ** rng.uniform(0.0, 6.0, k)
        r = rotations(rng, n)
        m = (r * lam[:, None, :]) @ np.swapaxes(r, 1, 2)
    m[2 * k:3 * k] = (rng.choice([-1.0, 1.0], (k, size, size))
                      * rng.uniform(1e307, 8e307, (k, size, size)))
    return 0.5 * (m + np.swapaxes(m, 1, 2))


def with_non_finite_rows(rng, a):
    """`a` with a NaN, a +inf and a -inf entry in three rows near the end."""
    a = a.copy()
    for row, bad in zip((-7, -5, -2), (np.nan, np.inf, -np.inf)):
        a[row].flat[rng.integers(a[row].size)] = bad
    return a


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("height", [2, 3, 4])
def test_two_column_filter_decides_as_lapack(monkeypatch, height, tol):
    rng = np.random.default_rng([height, int(-np.log10(tol))])
    a = with_non_finite_rows(rng, adversarial_two_columns(rng, 200_000,
                                                          height, tol))
    finite = np.isfinite(a).all(axis=(1, 2))
    want = lapack_sv_above(a[finite], tol)
    sent = lapack_operands(monkeypatch, "svd")
    sv = ex.smallest_sv(a, None, tol)
    monkeypatch.undo()
    assert np.array_equal(sv[finite] > tol, want)
    assert 0 < (~want).sum() and 0 < want.sum()
    assert np.isnan(sv[~finite]).all() and (~finite).sum() == 3
    # the ambiguous rows, all violations among them, went to LAPACK once,
    # and its own value is what a violation reports
    assert len(sent) == 1 and np.isfinite(sent[0]).all()
    assert (~want).sum() <= len(sent[0]) < len(a)
    checked = np.isfinite(sv)
    assert np.array_equal(
        sv[checked], np.linalg.svd(a[checked], compute_uv=False)[:, -1])
    assert (sv[finite & ~checked] == np.inf).all()


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("height", [2, 3, 4])
def test_one_column_filter_without_a_gram_decides_as_lapack(monkeypatch, height, tol):
    # the column's norm, summed elementwise, stands in for LAPACK's value
    rng = np.random.default_rng([height, int(-np.log10(tol)), 2])
    a = adversarial_two_columns(rng, 100_000, height, tol)[:, :, :1].copy()
    k = len(a) // 5
    a[3 * k:4 * k] *= tol / np.linalg.norm(a[3 * k:4 * k], axis=1, keepdims=True)
    a[3 * k:4 * k] *= 1.0 + rng.integers(-4, 5, (k, 1, 1)) * ULP
    a = with_non_finite_rows(rng, a)
    finite = np.isfinite(a).all(axis=(1, 2))
    want = lapack_sv_above(a[finite], tol)
    sent = lapack_operands(monkeypatch, "svd")
    sv = ex.smallest_sv(a, None, tol)
    monkeypatch.undo()
    assert np.array_equal(sv[finite] > tol, want)
    assert 0 < (~want).sum() and 0 < want.sum()
    assert np.isnan(sv[~finite]).all()
    assert len(sent) == 1 and (~want).sum() <= len(sent[0]) < len(a)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_square_filter_without_a_gram_decides_as_with_the_stacked_gram(tol):
    # SOLVE and INV pass no Gram: the elementwise entries decide every
    # 2 x 2 operand as the stacked matmul's do, and as LAPACK does
    rng = np.random.default_rng([2, int(-np.log10(tol)), 3])
    a = adversarial_two_columns(rng, 200_000, 2, tol)
    elementwise = ex.smallest_sv(a, None, tol)
    stacked = ex.smallest_sv(a, np.swapaxes(a, 1, 2) @ a, tol)
    assert np.array_equal(elementwise > tol, stacked > tol)
    assert np.array_equal(elementwise > tol, lapack_sv_above(a, tol))
    violations = ~(elementwise > tol)
    assert violations.sum() > 1000
    assert np.array_equal(elementwise[violations], stacked[violations])


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("size", [1, 2])
def test_spd_filter_decides_as_lapack(monkeypatch, size, tol):
    rng = np.random.default_rng([size, int(-np.log10(tol)), 1])
    m = with_non_finite_rows(rng, adversarial_symmetric(rng, 200_000,
                                                        size, tol))
    finite = np.isfinite(m).all(axis=(1, 2))
    want = lapack_eig_not_above(m[finite], tol)
    sent = lapack_operands(monkeypatch, "eigvalsh")
    w = ex.smallest_eigenvalue(m, tol)
    monkeypatch.undo()
    assert np.array_equal(~(w[finite] > tol), want)
    assert 0 < want.sum() < want.size
    assert np.isnan(w[~finite]).all() and (~finite).sum() == 3
    if size == 1:
        # a 1 x 1 operand is its own eigenvalue, as LAPACK returns it
        assert sent == []
        assert np.array_equal(w[finite], np.linalg.eigvalsh(m[finite])[:, 0])
        return
    assert len(sent) == 1 and np.isfinite(sent[0]).all()
    assert want.sum() <= len(sent[0]) < len(m)
    checked = np.isfinite(w)
    assert np.array_equal(w[checked], np.linalg.eigvalsh(m[checked])[:, 0])


def test_rank_and_definiteness_decisions_use_the_guard_filters():
    # bundles and forms decide ranks and definiteness through the guard
    # filters of `expr`; only functions that report LAPACK's values call it
    src = Path(__file__).resolve().parent.parent / "src" / "bundleforms"
    reporting = {"restricted_definiteness", "eigenvalue_signature",
                 "blend_positive_subbundle"}

    def lapack_lines(tree):
        return {node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and ast.unparse(node) in ("np.linalg.svd", "np.linalg.eigvalsh")}

    outside = []
    for name in ("bundles.py", "forms.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        allowed = set().union(*(lapack_lines(fn) for fn in ast.walk(tree)
                                if isinstance(fn, ast.FunctionDef)
                                and fn.name in reporting))
        outside += [f"{name}:{line}" for line in
                    sorted(lapack_lines(tree) - allowed)]
    assert outside == []


def var_matrix(n, k, first=0):
    return [[ex.Var(first + i * k + j) for j in range(k)] for i in range(n)]


def near_identity_points(rng, count, n, k):
    """Points whose n x k matrices are the identity's first k columns plus
    small noise: well inside every guard."""
    return (np.eye(n)[:, :k].ravel()
            + 0.01 * rng.standard_normal((count, n * k)))


@pytest.mark.parametrize("op, n, k", [(ex.SOLVE, 2, 2), (ex.INV, 2, 2),
                                      (ex.INV, 1, 1), (ex.COLSPAN_PROJ, 3, 2),
                                      (ex.COLSPAN_PROJ, 3, 1)])
def test_non_finite_operand_is_a_singular_value_guard_violation(monkeypatch,
                                                                op, n, k):
    # LAPACK has no defined answer here: its SVD raises LinAlgError on a NaN
    # 2 x 2 operand, with no witness point, and |inf| would pass
    b = [[ex.Const(1.0)] for _ in range(n)] if op == ex.SOLVE else None
    group = ex.MatrixGroup(op, var_matrix(n, k), b, guard_tol=1e-9)
    pts = near_identity_points(np.random.default_rng(n * k), 6, n, k)
    pts[2, -1], pts[4, 0] = np.inf, np.nan
    sent = lapack_operands(monkeypatch, "svd")
    with pytest.raises(GuardViolation, match=rf"matrix {op} guard: "
                       "smallest singular value nan <= 1.0e-09") as err:
        group.compute(ex.EvalContext(pts))
    assert err.value.point == tuple(pts[2])
    assert sent == []


@pytest.mark.parametrize("size", [1, 2])
def test_non_finite_metric_is_an_spd_guard_violation(monkeypatch, size):
    # LAPACK has no defined answer here: eigvalsh([[1, nan], [nan, 1]]) is
    # [nan, nan], eigvalsh([[5, 0], [0, nan]]) is [0, -0], [[inf]] is inf
    s = [[ex.Const(float(i == j)) for j in range(size)] for i in range(size)]
    group = ex.MatrixGroup(ex.PENCIL_PROJ_POS, s, var_matrix(size, size))
    pts = np.tile(np.eye(size).ravel(), (5, 1))
    if size == 1:
        pts[3, 0] = np.inf
    else:
        pts[3] = (1.0, np.nan, np.nan, 1.0)
        pts[4] = (5.0, 0.0, 0.0, np.nan)
    sent = lapack_operands(monkeypatch, "eigvalsh")
    with pytest.raises(GuardViolation, match="pencil metric not positive "
                       "definite: min eigenvalue nan") as err:
        group.compute(ex.EvalContext(pts))
    assert np.array_equal(err.value.point, pts[3], equal_nan=True)
    assert sent == []


@pytest.mark.parametrize("size", [1, 2])
def test_non_finite_pencil_operand_is_an_eigenvalue_guard_violation(
        monkeypatch, size):
    # a NaN S must not give a NaN projector
    g = [[ex.Const(float(i == j)) for j in range(size)] for i in range(size)]
    group = ex.MatrixGroup(ex.PENCIL_PROJ_NEG, var_matrix(size, size), g)
    pts = np.tile(np.diag(np.arange(size) - 0.5).ravel(), (4, 1))
    pts[1, -1] = np.nan
    sent = lapack_operands(monkeypatch, "eigh")
    with pytest.raises(GuardViolation,
                       match="pencil operand has a non-finite entry") as err:
        group.compute(ex.EvalContext(pts))
    assert np.array_equal(err.value.point, pts[1], equal_nan=True)
    assert sent == []


def test_overflowing_pencil_is_an_eigenvalue_guard_violation():
    # a finite S whose whitened form overflows has NaN eigenvalues, which
    # are not above the guard, so no NaN projector comes out
    s = [[ex.Var(0), ex.Const(0.0)], [ex.Const(0.0), -ex.Var(0)]]
    g = [[ex.Const(1e-8), ex.Const(0.0)], [ex.Const(0.0), ex.Const(1e-8)]]
    group = ex.MatrixGroup(ex.PENCIL_PROJ_POS, s, g)
    with pytest.raises(GuardViolation, match="pencil eigenvalue nan within "
                       "guard 1.0e-09") as err:
        group.compute(ex.EvalContext(np.array([[1.0], [1e305], [2.0]])))
    assert err.value.point == (1e305,)


def lapack_whitened_eigh(s, g):
    """`_whitened_eigh` through LAPACK alone: the reference for 1 x 1
    pencils and for the 2 x 2 closed form."""
    ell = np.linalg.cholesky(g)
    white = np.linalg.solve(ell, np.swapaxes(np.linalg.solve(ell, s), 1, 2))
    w, z = np.linalg.eigh(0.5 * (white + np.swapaxes(white, 1, 2)))
    return ell, w, z


@pytest.mark.parametrize("kernel", ["solve", "solve-3", "inv", "whitened-eigh"])
def test_one_by_one_kernels_equal_lapack_bit_for_bit(kernel):
    # b / a (one right-hand side), b * (1 / a) (several), 1 / a, and for the
    # pencil sqrt(g) and the entry itself with eigenvector 1, on 300,000
    # seeded values with |a| from 1e-100 to 1e100
    rng = np.random.default_rng(23)
    n = 300_000
    a = (rng.choice([-1.0, 1.0], n)
         * 10.0 ** rng.uniform(-100.0, 100.0, n))[:, None, None]
    if kernel.startswith("solve"):
        b = (rng.standard_normal((n, 1, 3 if kernel == "solve-3" else 1))
             * 10.0 ** rng.uniform(-100.0, 100.0, (n, 1, 1)))
        assert np.array_equal(ex.solve(a, b), np.linalg.solve(a, b))
    elif kernel == "inv":
        got = column_group(ex.INV, 1, 1e-200).compute(ex.EvalContext(a[:, 0]))
        assert np.array_equal(got, np.linalg.inv(a))
    else:
        g = np.abs(rng.permutation(a))
        for got, want in zip(ex._whitened_eigh(a, g),
                             lapack_whitened_eigh(a, g)):
            assert got.shape == want.shape and np.array_equal(got, want)


def adversarial_pencils(rng, n, tol):
    """n symmetric 2 x 2 pencils (S, G), G SPD with condition number up to
    1e12 at scales 1e-3 to 1e3 and eigenvalues of either sign at scales
    1e-6 to 1e6, then in sixths: near-equal eigenvalues (relative spread
    below 1e-9); one eigenvalue at (1 +- 1e-6) tol or within 4 ulp of tol,
    the other within a factor 100 of it, over a well-conditioned G, a
    quarter of them scaled by 1e-155 so that the closed form's products
    underflow; equal ones, G = I and S = cI; and diagonal pencils with
    signed zeros off the diagonal and on it (S = 0 among them)."""
    k = n // 6
    cond = 10.0 ** rng.uniform(0.0, 12.0, n)
    cond[k:2 * k] = rng.uniform(1.0, 4.0, k)
    size = 10.0 ** rng.uniform(-3.0, 3.0, n)
    size[k:2 * k] *= np.where(rng.random(k) < 0.25, 1e-155, 1.0)
    r = rotations(rng, n)
    g = (r * np.stack([size, size / cond], 1)[:, None, :]) @ np.swapaxes(r, 1, 2)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    lam = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 2))
    lam[:k, 1] = lam[:k, 0] * (1.0 + rng.uniform(-1e-9, 1e-9, k))
    near = np.where(rng.random(k) < 0.5, rng.choice([-1e-6, 1e-6], k),
                    rng.integers(-4, 5, k) * ULP)
    lam[k:2 * k, 0] = tol * (1.0 + near)
    lam[k:2 * k, 1] = tol * 10.0 ** rng.uniform(0.0, 2.0, k)
    lam[k:2 * k] *= rng.choice([-1.0, 1.0], (k, 2))
    ell = np.linalg.cholesky(g)
    q = rotations(rng, n)
    s = ell @ (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2) @ np.swapaxes(ell, 1, 2)
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    equal = slice(2 * k, 3 * k)
    s[equal] = (rng.choice([-1.0, 1.0], k)
                * 10.0 ** rng.uniform(-15.0, 3.0, k))[:, None, None] * np.eye(2)
    g[equal] = np.eye(2)
    zeros = slice(3 * k, 4 * k)
    s[zeros] = np.eye(2) * (rng.choice([-1.0, 1.0, 0.0, -0.0], (k, 1, 2))
                            * 10.0 ** rng.uniform(-12.0, 2.0, (k, 1, 2)))
    g[zeros] = np.eye(2) * 10.0 ** rng.uniform(-2.0, 2.0, (k, 1, 2))
    for m in (s, g):
        m[zeros, 0, 1] = rng.choice([0.0, -0.0], k)
        m[zeros, 1, 0] = rng.choice([0.0, -0.0], k)
    return s, g


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_closed_form_pencil_decides_as_lapack(monkeypatch, tol):
    # every 2 x 2 guard decision is the filter's certified pass or LAPACK's,
    # in one call; a violation reports LAPACK's value at LAPACK's first
    # row; no numpy warning escapes (0 / 0 on equal eigenvalues, overflow)
    rng = np.random.default_rng([int(-np.log10(tol)), 2])
    n = 60_000
    s, g = adversarial_pencils(rng, n, tol)
    ell, w, z = lapack_whitened_eigh(s, g)
    want = np.abs(w).min(axis=1)
    sent = lapack_operands(monkeypatch, "eigh")
    gap, eig = ex.pencil_gap(s, g, tol)
    monkeypatch.undo()
    certified = gap == np.inf
    assert np.array_equal(gap > tol, want > tol)
    assert np.array_equal(gap[~certified], want[~certified])
    assert len(sent) == 1 and len(sent[0]) == (~certified).sum()
    k = n // 6
    for start, violations in ((0, False), (k, True), (2 * k, True),
                              (3 * k, True), (4 * k, False)):
        # each family has rows the filter certifies and rows it leaves to
        # LAPACK; those at tol, the equal and the zero ones have violations
        family = slice(start, n if start == 4 * k else start + k)
        assert 0 < certified[family].sum() < certified[family].size
        pts = np.column_stack([s[family].reshape(-1, 4), g[family].reshape(-1, 4)])
        ctx = ex.EvalContext(pts)
        bad = ~(want[family] > tol)
        assert bad.any() == violations
        if not violations:
            ex._pencil_eigh(s[family], g[family], tol, ctx)
            continue
        i = int(np.argmax(bad))
        with pytest.raises(GuardViolation) as err:
            ex._pencil_eigh(s[family], g[family], tol, ctx)
        assert str(err.value) == (f"pencil eigenvalue {want[family][i]:.3e} "
                                  f"within guard {tol:.1e}")
        assert err.value.point == tuple(pts[i])
    # the stated bound: on a certified row the closed form's projectors are
    # entrywise within 8 u kappa of LAPACK's, plus 8 u kappa rho / (lam+ -
    # lam-) where the eigenvalues differ in sign (kappa, rho as in
    # `expr._closed_pencil`)
    gamma = g[:, 0, 0] + g[:, 1, 1]
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 1, 0] ** 2
    scale = np.abs(s[:, 0, 0]) + np.abs(s[:, 1, 1]) + np.abs(s[:, 0, 1] + s[:, 1, 0])
    kappa, rho = gamma ** 2 / det, gamma * scale / det
    mixed = (w[:, 0] < 0.0) & (w[:, 1] > 0.0)
    bound = 8.0 * ULP / 2.0 * kappa * (1.0 + np.divide(
        rho, w[:, 1] - w[:, 0], out=np.zeros(n), where=mixed))
    for positive in (True, False):
        got = ex._sign_projector(eig, positive)
        lapack = ex._whitened_projector(ell, w, z, positive)
        assert np.isfinite(got).all()
        assert np.array_equal(got[~certified], lapack[~certified])
        err = np.abs(got - lapack).max(axis=(1, 2))
        assert (err[certified] <= bound[certified]).all()
        # same-sign rows are exactly I or 0
        same = certified & ~mixed
        assert same.any() and mixed[certified].any()
        one = (w[same, 0] > 0.0) == positive
        assert np.array_equal(got[same], np.where(one[:, None, None], np.eye(2), 0.0))


def load_layertrace():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_layer_tracer_names_every_matrix_op():
    # the benchmark's tracer looks up a span for every MatrixGroup op tag
    layertrace = load_layertrace()
    one = [[ex.Const(1.0)]]
    accepted = []
    for name, tag in vars(ex).items():
        if not (name.isupper() and isinstance(tag, str)):
            continue
        try:
            ex.MatrixGroup(tag, one, one)
        except ValueError:
            continue
        accepted.append(tag)
    assert ex.SOLVE in accepted and ex.PENCIL_SQRT in accepted
    assert sorted(set(accepted) - set(layertrace.MATRIX_OPS)) == []
    with pytest.raises(ValueError):
        ex.MatrixGroup("no-such-op", one)


def test_layer_tracer_hooks_resolve():
    # the benchmark's tracer patches these names; a rename here would
    # otherwise show only in a traced benchmark run
    layertrace = load_layertrace()
    for mod_name, name in layertrace.LAYER_FUNCTIONS:
        module = importlib.import_module(f"bundleforms.{mod_name}")
        if "." in name:
            cls_name, meth = name.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, name, None)), name
    assert callable(ex._eval_matrix)
    assert "compute" in ex.MatrixGroup.__dict__
    assert isinstance(ex.EvalContext(np.zeros((2, 1))).group_cache, dict)


def test_layer_tracer_binds_sample_plan_and_count():
    # the benchmark's sample hook binds `plan` and `count` by name from
    # sample's signature, for every way the library calls it
    layertrace = load_layertrace()
    params = inspect.signature(semialg.sample).parameters
    assert list(params)[:4] == ["sset", "plan", "box", "count"]
    base = circle_base()
    plan = semialg.SamplePlan(seed=0, n_chart=40)
    tracer = layertrace.LayerTracer()
    with tracer.installed():
        base.sample_points(plan)                      # count None: n_chart
        base.region_memo(base.sset, plan, 25)         # positional count
        semialg.sample(base.sset, plan, base.box, count=30)
    got = tracer.snapshot()
    assert got["semialg.sample.calls"] == 3
    assert tracer.sample_requested == 40 + 25 + 30
    assert got["semialg.sample.points"] == 40 + 25 + 30
    assert not hasattr(semialg.sample, "__wrapped__")    # restored on exit


def test_pencil_sqrt_entry_and_spd_guard():
    # S = diag(4, 9), G = I: the principal square root is diag(2, 3)
    s = [[ex.Const(4.0), ex.Const(0.0)], [ex.Const(0.0), ex.Const(9.0)]]
    g = [[ex.Const(1.0), ex.Const(0.0)], [ex.Const(0.0), ex.Const(1.0)]]
    group = ex.MatrixGroup(ex.PENCIL_SQRT, s, g)
    assert ex.evaluate_at(ex.MatEntry(group, 0, 0), [0.0]) == pytest.approx(2.0)
    assert ex.evaluate_at(ex.MatEntry(group, 1, 1), [0.0]) == pytest.approx(3.0)
    bad = ex.MatrixGroup(ex.PENCIL_SQRT, [[ex.Const(-1.0)]], [[ex.Const(1.0)]])
    with pytest.raises(GuardViolation, match="pencil sqrt argument"):
        ex.evaluate_at(ex.MatEntry(bad, 0, 0), [0.0])


def test_pencil_projector_split():
    # S = diag(3, -2), G = I: positive projector = diag(1, 0)
    s = [[ex.Const(3.0), ex.Const(0.0)], [ex.Const(0.0), ex.Const(-2.0)]]
    g = [[ex.Const(1.0), ex.Const(0.0)], [ex.Const(0.0), ex.Const(1.0)]]
    pos = ex.MatrixGroup(ex.PENCIL_PROJ_POS, s, g)
    neg = ex.MatrixGroup(ex.PENCIL_PROJ_NEG, s, g)
    assert ex.evaluate_at(ex.MatEntry(pos, 0, 0), [0.0]) == pytest.approx(1.0)
    assert ex.evaluate_at(ex.MatEntry(pos, 1, 1), [0.0]) == pytest.approx(0.0)
    assert ex.evaluate_at(ex.MatEntry(neg, 1, 1), [0.0]) == pytest.approx(1.0)
    # the two projectors resolve the identity
    total = ex.Add(ex.MatEntry(pos, 0, 1), ex.MatEntry(neg, 0, 1))
    assert ex.evaluate_at(total, [0.0]) == pytest.approx(0.0)


# --- pencil pairs: one eigensolve for both signs of a pencil (S, G) ----------

PAIR_TOL = 1e-9


def pencil_stack(rng, size, gap, count=64):
    """Points whose first size^2 columns are S and next size^2 are G: G is
    SPD, and the whitened eigenvalues of every row have random signs, with
    smallest magnitude `gap` times the pair's guard tolerance."""
    b = rng.standard_normal((count, size, size))
    g = b @ np.swapaxes(b, 1, 2) + size * np.eye(size)
    ell = np.linalg.cholesky(g)
    q, _ = np.linalg.qr(rng.standard_normal((count, size, size)))
    w = rng.uniform(0.5, 2.0, (count, size)) * rng.choice([-1.0, 1.0], (count, size))
    w[:, 0] = gap * PAIR_TOL * rng.choice([-1.0, 1.0], count)
    s = ell @ (q * w[:, None, :]) @ np.swapaxes(q, 1, 2) @ np.swapaxes(ell, 1, 2)
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    return np.column_stack([s.reshape(count, -1), g.reshape(count, -1)])


def pencil_groups(size):
    """The positive and negative sign-projector groups of one pencil (S, G)
    over the point columns of `pencil_stack`, built one after the other."""
    return tuple(ex.MatrixGroup(op, var_matrix(size, size),
                                var_matrix(size, size, size * size),
                                guard_tol=PAIR_TOL)
                 for op in (ex.PENCIL_PROJ_POS, ex.PENCIL_PROJ_NEG))


def single_sign(group, rows):
    """The group's sign projector on `rows` from a fresh context: its own
    eigensolve, with nothing stored for the other sign."""
    ctx = ex.EvalContext(rows)
    s, g = ex._eval_matrix(group.a, ctx), ex._eval_matrix(group.b, ctx)
    eig = ex._pencil_eigh(s, g, PAIR_TOL, ex.EvalContext(rows))
    return ex._sign_projector(eig, group.op == ex.PENCIL_PROJ_POS)


def counted_pencil_eighs(monkeypatch):
    """Route `_pencil_eigh` through a wrapper; the returned list collects
    the row count of every call."""
    eighs = []
    eigh = ex._pencil_eigh
    monkeypatch.setattr(ex, "_pencil_eigh", lambda s, g, tol, ctx:
                        eighs.append(s.shape[0]) or eigh(s, g, tol, ctx))
    return eighs


# the opposite sign's group is its "twin": the one whose output a sign's
# eigensolve stores too
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("gap", [1.001, 0.999])
@pytest.mark.parametrize("first", [0, 1])
def test_twin_served_projector_equals_the_single_sign_kernel_bit_for_bit(
        size, gap, first):
    pts = pencil_stack(np.random.default_rng(7 + size), size, gap)
    pair = pencil_groups(size)
    memo = ex.KernelMemo(pts)
    ctx = ex.EvalContext(memo)
    if gap < 1.0:
        with pytest.raises(GuardViolation) as want:
            single_sign(pair[0], pts)
        with pytest.raises(GuardViolation) as got:
            pair[first].compute(ctx)
        assert (str(got.value), got.value.point) == (str(want.value), want.value.point)
        assert not memo.outputs and not ctx.group_cache
        return
    served = pair[first].compute(ctx)
    twin = pair[1 - first].compute(ctx)
    assert ctx.group_cache[id(pair[1 - first])] is twin
    for group, out in ((pair[first], served), (pair[1 - first], twin)):
        assert out.tobytes() == single_sign(group, pts).tobytes()
        assert memo.outputs[group][()] is out


def test_non_finite_pencil_pair_operand_stores_neither_sign():
    pts = pencil_stack(np.random.default_rng(3), 2, 10.0, count=8)
    pts[5, 1] = np.nan
    plus, minus = pencil_groups(2)
    memo = ex.KernelMemo(pts)
    ctx = ex.EvalContext(memo)
    for group in (minus, plus):
        with pytest.raises(GuardViolation, match="pencil operand has a non-finite"):
            group.compute(ctx)
        for either in (plus, minus):
            assert either not in memo.outputs and id(either) not in ctx.group_cache


def test_one_eigensolve_per_pair_memo_and_path(monkeypatch):
    eighs = counted_pencil_eighs(monkeypatch)
    lapack = lapack_operands(monkeypatch, "eigh")
    pts = pencil_stack(np.random.default_rng(5), 2, 10.0)
    plus, minus = pencil_groups(2)
    gate = ex.Sub(ex.Var(0), ex.Const(0.0))       # keeps the rows with S00 > 0
    memo = ex.KernelMemo(pts)
    reads = []
    for group in (plus, minus):
        # one context per sign and path: a gated read in the context that
        # read the entry at the root would take the root's value
        entry = ex.MatEntry(group, 0, 1)
        reads.append((entry.eval(ex.EvalContext(memo)),
                      ex.ZeroGate(gate, entry).eval(ex.EvalContext(memo))))
    kept = int((pts[:, 0] > 0).sum())
    assert eighs == [len(pts), kept]              # paths () and the gate's mask
    assert lapack == []                           # the filter certified every row
    # the reference is each sign's own eigensolve, on all rows and on the
    # gate's mask, scattered into the gate product as ZeroGate does
    gate_vals = ex.evaluate(gate, pts)
    mask = gate_vals > 0.0
    for group, (whole, gated) in zip((plus, minus), reads):
        want = [single_sign(group, rows)[:, 0, 1] for rows in (pts, pts[mask])]
        want_gated = np.zeros_like(gate_vals)
        want_gated[mask] = gate_vals[mask] * want[1]
        assert whole.tobytes() == want[0].tobytes()
        assert gated.tobytes() == want_gated.tobytes()


def test_separately_built_signs_share_one_eigensolve_per_memo_and_path(monkeypatch):
    eighs = counted_pencil_eighs(monkeypatch)
    pts = pencil_stack(np.random.default_rng(13), 2, 10.0)
    # two unrelated constructions: the groups meet only in the intern table
    plus = ex.MatrixGroup(ex.PENCIL_PROJ_POS, var_matrix(2, 2), var_matrix(2, 2, 4),
                          guard_tol=PAIR_TOL)
    minus = ex.MatrixGroup(ex.PENCIL_PROJ_NEG, var_matrix(2, 2), var_matrix(2, 2, 4),
                           guard_tol=PAIR_TOL)
    gate = ex.Sub(ex.Var(3), ex.Const(0.0))       # keeps the rows with S11 > 0
    want = []
    for rows in (pts, pts[:40]):                  # two memos
        memo = ex.KernelMemo(rows)
        for group in (minus, plus):               # one context per sign
            ctx = ex.EvalContext(memo)
            ex.ZeroGate(gate, ex.MatEntry(group, 1, 1)).eval(ctx)
            group.compute(ctx)
        want += [int((rows[:, 3] > 0).sum()), len(rows)]   # gate's path, then ()
    assert eighs == want and want[0] < want[1]
    # a sign with no live opposite runs its own eigensolve
    lone = ex.MatrixGroup(ex.PENCIL_PROJ_POS, var_matrix(2, 2), var_matrix(2, 2, 4),
                          guard_tol=1e-10)
    assert lone._opposite() is None
    lone.compute(ex.EvalContext(pts))
    assert eighs[4:] == [len(pts)]


# --- gated sub-contexts read what their parent context holds ----------------

def parent_read_points():
    """64 rows: column 0 the gate's variable, positive on 32 rows, then a
    pencil's S (columns 1-4) and its SPD metric G (columns 5-8)."""
    rng = np.random.default_rng(17)
    gate = np.linspace(-1.0, 1.0, 64)[rng.permutation(64)]
    return np.column_stack([gate, pencil_stack(rng, 2, 10.0)])


def parent_read_nodes():
    """One node of every kind over `parent_read_points`, inside its guards."""
    s, g = var_matrix(2, 2, 1), var_matrix(2, 2, 5)
    x, y = ex.Var(1), ex.Var(2)
    shifted = [[ex.Add(g[0][0], 1.0), g[0][1]], [g[1][0], ex.Add(g[1][1], 1.0)]]
    groups = [ex.MatrixGroup(ex.SOLVE, g, [[x], [ex.Var(3)]]),
              ex.MatrixGroup(ex.INV, g),
              ex.MatrixGroup(ex.COLSPAN_PROJ, [[g[0][0]], [g[1][0]]]),
              *(ex.MatrixGroup(op, s, g, guard_tol=PAIR_TOL)
                for op in (ex.PENCIL_PROJ_POS, ex.PENCIL_PROJ_NEG)),
              ex.MatrixGroup(ex.PENCIL_SQRT, g, shifted)]
    # 256 rungs: two blocks of 128 on the 64 rows, one block on the 32
    # gated rows (`path_projectors`)
    path = ex.PathProduct([[1.0, ex.Mul(0.01, ex.Var(0))],
                           [ex.Mul(-0.01, ex.Var(1)), 1.0]],
                          [ex.Mul(ex.Var(0), ex.Var(1)), ex.Var(1)], 1,
                          np.arange(256) / 256)
    return {"const": ex.Const(2.5), "var": ex.Var(3),
            "add": ex.Add(x, y), "sub": ex.Sub(x, y), "mul": ex.Mul(x, y),
            "max": ex.Max(x, y), "min": ex.Min(x, y),
            "div": ex.Div(x, ex.Add(1.0, ex.Mul(y, y))),
            "sqrt": ex.Sqrt(ex.Mul(x, x)), "abs": ex.Abs(ex.Sub(x, y)),
            "clamp": ex.Clamp(x), "pow": ex.Pow(x, 3),
            "zerogate": ex.ZeroGate(y, ex.Div(1.0, y)),
            **{f"matentry {grp.op}": ex.MatEntry(grp, grp.out_shape[0] - 1, 0)
               for grp in groups},
            "pathproduct": ex.MatEntry(path, 0, 1)}


def test_parent_read_cases_cover_every_node_kind():
    nodes = parent_read_nodes()
    kinds = {type(node) for node in nodes.values()}
    assert kinds >= {*ex._Unary.__subclasses__(), *ex._Binary.__subclasses__(),
                     ex.Const, ex.Var, ex.Pow, ex.ZeroGate, ex.MatEntry}
    assert {node.group.op for node in nodes.values() if isinstance(node, ex.MatEntry)} \
        == {ex.SOLVE, ex.INV, ex.COLSPAN_PROJ, ex.PENCIL_PROJ_POS,
            ex.PENCIL_PROJ_NEG, ex.PENCIL_SQRT, ex.PathProduct.op}


@pytest.mark.parametrize("kind", sorted(parent_read_nodes()))
def test_gated_read_served_by_the_parent_equals_a_fresh_evaluation(monkeypatch, kind):
    node = parent_read_nodes()[kind]
    pts = parent_read_points()
    gate = ex.Var(0)
    ctx = ex.EvalContext(pts)
    node.eval(ctx)
    evaluated = []
    own = type(node)._eval
    monkeypatch.setattr(type(node), "_eval",
                        lambda self, at: evaluated.append(at) or own(self, at))
    gated = ex.ZeroGate(gate, node).eval(ctx)
    mask = pts[:, 0] > 0.0
    child = ctx.sub(id(gate), mask)
    assert len(child.points) == 32 and child not in evaluated
    group = getattr(node, "group", None)
    if isinstance(group, ex.PathProduct):
        # a fresh transport, not the rows the root's compute stored
        object.__setattr__(group, "store", ex._RowStore(group.out_shape[0]))
    fresh = node.eval(ex.EvalContext(pts[mask]))
    assert child.cache[node].tobytes() == fresh.tobytes()
    # a context whose root never read the node evaluates it on the gate's rows
    assert gated.tobytes() == ex.ZeroGate(gate, node).eval(ex.EvalContext(pts)).tobytes()


def test_gated_read_of_a_pencil_entry_the_parent_holds_runs_no_eigensolve(monkeypatch):
    eighs = counted_pencil_eighs(monkeypatch)
    pts = pencil_stack(np.random.default_rng(19), 2, 10.0)
    plus, _ = pencil_groups(2)
    entry = ex.MatEntry(plus, 0, 1)
    ctx = ex.EvalContext(ex.KernelMemo(pts))
    whole = entry.eval(ctx)
    gated = ex.ZeroGate(ex.Var(0), entry).eval(ctx)
    assert eighs == [len(pts)]
    mask = pts[:, 0] > 0.0
    want = np.zeros(len(pts))
    want[mask] = pts[mask, 0] * single_sign(plus, pts[mask])[:, 0, 1]
    assert whole.tobytes() == single_sign(plus, pts)[:, 0, 1].tobytes()
    assert gated.tobytes() == want.tobytes()


@pytest.mark.parametrize("payload, message", [
    (lambda x: ex.Div(1.0, x),
     "quotient denominator 0.000e+00 within guard 1.0e-12"),
    (lambda x: ex.MatEntry(ex.MatrixGroup(ex.INV, [[x]]), 0, 0),
     "matrix inv guard: smallest singular value 0.000e+00 <= 1.0e-09")])
def test_gated_guard_violation_raises_as_a_fresh_evaluation(payload, message):
    x = ex.Var(1)
    # x1 vanishes on an ungated row and on the second and third gated rows
    pts = np.array([[-1.0, 0.0], [1.0, 2.0], [1.0, 0.0], [-1.0, 3.0], [2.0, 0.0]])
    node = payload(x)
    ctx = ex.EvalContext(pts)
    x.eval(ctx)                 # the parent holds the operand, not the payload
    with pytest.raises(GuardViolation) as gated:
        ex.ZeroGate(ex.Var(0), node).eval(ctx)
    with pytest.raises(GuardViolation) as fresh:
        node.eval(ex.EvalContext(pts[pts[:, 0] > 0.0]))
    assert str(gated.value) == str(fresh.value) == message
    assert gated.value.point == fresh.value.point == (1.0, 0.0)


def test_a_context_with_sub_contexts_is_freed_by_reference_counting():
    x = ex.Var(0)
    square = ex.Mul(x, x)
    nested = ex.ZeroGate(x, ex.ZeroGate(ex.Sub(x, 0.5), square))
    ctx = ex.EvalContext(np.linspace(-1.0, 1.0, 9).reshape(-1, 1))
    square.eval(ctx)
    nested.eval(ctx)
    (child,) = ctx.sub_contexts.values()
    assert child.sub_contexts and child.parent_cache is ctx.cache
    refs = [weakref.ref(c) for c in (ctx, child, *child.sub_contexts.values())]
    del child
    gc.collect()
    gc.disable()
    try:
        del ctx
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_a_shared_gate_builds_its_mask_and_sub_context_once_per_context(monkeypatch):
    x, y = ex.Var(0), ex.Var(1)
    gate = ex.Sub(x, ex.Const(0.25))
    payloads = [ex.Mul(y, ex.Const(float(k))) for k in range(1, 6)]
    total = ex.ZeroGate(gate, payloads[0])
    for payload in payloads[1:]:
        total = ex.Add(total, ex.ZeroGate(gate, payload))
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (64, 2))
    subs = counting(monkeypatch, ex.EvalContext, "sub")
    compares = []
    own = ex.Sub._eval
    monkeypatch.setattr(ex.Sub, "_eval",
                        lambda node, at: compares.append(at) or own(node, at))
    ctx = ex.EvalContext(pts)
    got = total.eval(ctx)
    assert len(subs) == 1 and len(compares) == 1
    (child,) = ctx.sub_contexts.values()
    assert ctx.gates == {gate: child}
    mask = pts[:, 0] > 0.25
    assert child.mask.tobytes() == mask.tobytes()
    want = np.zeros(len(pts))
    for payload in payloads:
        want = want + np.where(mask, (pts[:, 0] - 0.25)
                               * (pts[:, 1] * payload.b.value), 0.0)
    assert got.tobytes() == want.tobytes()
    # a gate with no positive row makes no sub-context and no payload read
    ctx = ex.EvalContext(pts[~mask])
    assert not total.eval(ctx).any()
    assert ctx.gates == {gate: None} and ctx.sub_contexts == {}
    assert len(subs) == 1


def test_a_substituted_group_equal_to_a_paired_one_is_that_group():
    plus, minus = pencil_groups(2)
    other = ex.MatrixGroup(ex.PENCIL_PROJ_NEG, var_matrix(2, 2, 8),
                           var_matrix(2, 2, 12), guard_tol=PAIR_TOL)
    moved = ex.substitute(ex.MatEntry(other, 0, 1),
                          {8 + i: ex.Var(i) for i in range(8)})
    assert moved.group is minus
    pts = pencil_stack(np.random.default_rng(11), 2, 10.0)
    ctx = ex.EvalContext(pts)
    out = moved.group.compute(ctx)
    assert id(plus) in ctx.group_cache          # the pair's one eigensolve
    assert out.tobytes() == single_sign(minus, pts).tobytes()


def test_substitute_variable_by_expression():
    e = ex.Add(ex.Pow(ex.Var(0), 2), ex.Var(1))
    sub = ex.substitute(e, {1: ex.Mul(ex.Const(3.0), ex.Var(0))})
    assert ex.evaluate_at(sub, [2.0]) == pytest.approx(10.0)


def test_substitution_preserves_sharing():
    shared = ex.Add(ex.Var(0), ex.Const(1.0))
    e = ex.Mul(shared, shared)
    out = ex.substitute(e, {0: ex.Const(2.0)})
    assert out.a is out.b


def test_substitution_keeps_node_parameters():
    x = ex.Var(0)
    e = ex.ZeroGate(ex.Clamp(x), ex.Div(ex.Sqrt(ex.Abs(x), guard_tol=0.5),
                                        ex.Pow(ex.Max(x, ex.Min(x, 1.0)), 3),
                                        guard_tol=0.25))
    out = ex.substitute(e, {0: ex.Add(x, ex.Const(1.0))})
    assert type(out) is ex.ZeroGate and type(out.payload) is ex.Div
    assert out.payload.guard_tol == 0.25 and out.payload.a.guard_tol == 0.5
    assert out.payload.b.exponent == 3
    pts = np.array([[-2.0], [0.5], [1.5]])
    assert np.array_equal(ex.evaluate(out, pts), ex.evaluate(e, pts + 1.0))
    with pytest.raises(AttributeError, match="Div is immutable"):
        out.payload.guard_tol = 0.0


def test_determinism_same_batch_twice():
    e = ex.Sqrt(ex.Add(ex.Pow(ex.Var(0), 2), ex.Const(1.0)))
    pts = np.linspace(-1, 1, 17).reshape(-1, 1)
    assert np.array_equal(ex.evaluate(e, pts), ex.evaluate(e, pts))


def test_shared_context_evaluates_fresh_nodes():
    # nodes built and dropped one after another must not read each other's
    # cached values, however their ids are reused
    ctx = ex.EvalContext(np.zeros((3, 1)))
    for k in range(6):
        assert (ex.Const(float(k)).eval(ctx) == k).all()
    for _ in range(4):
        assert (ex._eval_matrix(em_identity(2), ctx) == np.eye(2)).all()


# --- hash-consing: one object per structure ----------------------------------

def _group():
    return ex.MatrixGroup(ex.SOLVE, var_matrix(2, 2), var_matrix(2, 1, 4), guard_tol=1e-8)


def _path(ts=(0.25, 0.75)):
    return ex.PathProduct(var_matrix(2, 2), [ex.Var(0), ex.Mul(ex.Var(1), ex.Var(0))],
                          1, ts)


EQUAL_CONSTRUCTIONS = {
    "const": lambda: ex.Const(2.5),
    "var": lambda: ex.Var(3),
    "add": lambda: ex.Add(ex.Var(0), 1.0),
    "sub": lambda: ex.Sub(0.0, ex.Var(0)),
    "mul": lambda: ex.Mul(ex.Var(0), ex.Var(1)),
    "div": lambda: ex.Div(ex.Var(0), ex.Var(1), guard_tol=1e-6),
    "pow": lambda: ex.Pow(ex.Clamp(ex.Var(0)), 3),
    "sqrt": lambda: ex.Sqrt(ex.Var(0)),
    "abs": lambda: ex.Abs(ex.Var(0)),
    "max": lambda: ex.Max(ex.Var(0), ex.Var(1)),
    "min": lambda: ex.Min(ex.Var(0), ex.Var(1)),
    "clamp": lambda: ex.Clamp(ex.Sub(ex.Var(0), 0.5)),
    "zerogate": lambda: ex.ZeroGate(ex.Var(0), ex.Div(1.0, ex.Var(0))),
    "matrixgroup": _group,
    "matentry": lambda: ex.MatEntry(_group(), 1, 0),
    "pathproduct": _path,
    "pathentry": lambda: ex.MatEntry(_path(), 0, 1),
}


@pytest.mark.parametrize("kind", sorted(EQUAL_CONSTRUCTIONS))
def test_equal_constructions_are_one_object(kind):
    first = EQUAL_CONSTRUCTIONS[kind]()
    assert EQUAL_CONSTRUCTIONS[kind]() is first


def test_rebuild_and_substitute_return_the_interned_object():
    x, y, z = ex.Var(0), ex.Var(1), ex.Var(2)

    def build(u):
        return ex.Div(ex.Pow(ex.Sub(u, y), 3), ex.Add(ex.Clamp(u), 1.0), guard_tol=1e-6)

    e = build(x)
    assert e.rebuild(e.children()) is e
    assert ex.substitute(e, {5: z}) is e
    assert ex.substitute(e, {0: z}) is build(z)
    entry = ex.MatEntry(ex.MatrixGroup(ex.SOLVE, [[x]], [[y]]), 0, 0)
    assert (ex.substitute(entry, {1: z})
            is ex.MatEntry(ex.MatrixGroup(ex.SOLVE, [[x]], [[z]]), 0, 0))
    path = ex.MatEntry(_path(), 1, 1)
    source = ex.Mul(x, 2.0)
    moved = ex.PathProduct(path.group.entries, path.group.maps, 1, (0.25, 0.75),
                           source=[source])
    assert ex.substitute(path, {0: source}) is ex.MatEntry(moved, 1, 1)


def test_one_substitution_substitutes_each_group_once(monkeypatch):
    from bundleforms.matexpr import em_subst
    calls = []
    substitute = ex.MatrixGroup.substitute
    monkeypatch.setattr(ex.MatrixGroup, "substitute",
                        lambda g, *args: calls.append(g) or substitute(g, *args))
    group = ex.MatrixGroup(ex.INV, var_matrix(2, 2))
    entries = [[ex.MatEntry(group, i, j) for j in range(2)] for i in range(2)]
    moved = em_subst(entries, {0: ex.Var(4)})
    assert calls == [group]
    assert {e.group for row in moved for e in row} == {
        ex.MatrixGroup(ex.INV, [[ex.Var(4), ex.Var(1)], [ex.Var(2), ex.Var(3)]])}


def test_signed_zeros_stay_distinct():
    pos, neg = ex.Const(0.0), ex.Const(-0.0)
    assert pos is not neg and (repr(pos), repr(neg)) == ("0.0", "-0.0")
    assert ex.Const(-0.0) is neg
    rungs, signed = _path((0.0, 1.0)), _path((-0.0, 1.0))
    assert rungs is not signed
    assert [math.copysign(1.0, t) for t in signed.ts] == [-1.0, 1.0]


def test_params_are_part_of_the_key():
    x = ex.Var(0)
    pairs = [(ex.Div(1.0, x, guard_tol=1e-6), ex.Div(1.0, x, guard_tol=1e-7)),
             (ex.Sqrt(x, guard_tol=1e-6), ex.Sqrt(x)),
             (ex.Pow(x, 2), ex.Pow(x, 3)),
             (ex.MatrixGroup(ex.INV, [[x]]), ex.MatrixGroup(ex.INV, [[x]], guard_tol=1e-6)),
             (ex.MatEntry(_group(), 0, 0), ex.MatEntry(_group(), 1, 0)),
             (_path((0.25,)), _path((0.5,)))]
    for a, b in pairs:
        assert a is not b


def test_a_second_pencil_pair_is_the_same_twinned_pair():
    plus, minus = pencil_groups(2)
    assert pencil_groups(2) == (plus, minus)
    assert plus._opposite() is minus and minus._opposite() is plus
    assert ex.MatrixGroup(ex.PENCIL_PROJ_POS, plus.a, plus.b, guard_tol=PAIR_TOL) is plus
