"""Expression node evaluation, guards, smoothness bookkeeping."""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms import semialg
from bundleforms.catalog import circle_base
from bundleforms.errors import DimensionMismatch, GuardViolation
from bundleforms.matexpr import em_identity


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


def test_smoothness_bounds():
    x = ex.Var(0)
    assert ex.Const(1.0).smoothness() == ex.SMOOTH
    assert ex.Abs(x).smoothness() == 0
    # clamp(u)^(r+1) records bound r
    assert ex.Pow(ex.Clamp(x), 3).smoothness() == 2
    # composites take the minimum over children
    comp = ex.Add(ex.Pow(ex.Clamp(x), 3), ex.Pow(ex.Clamp(x), 5))
    assert comp.smoothness() == 2
    assert ex.Mul(x, ex.Sqrt(x)).smoothness() == 0
    # every kinked node bounds by zero, whatever its children
    for kinked in (ex.Clamp(x), ex.Max(x, 1.0), ex.Min(x, 1.0)):
        assert kinked.smoothness() == 0
    assert ex.Div(x, ex.Add(ex.Mul(x, x), 1.0)).smoothness() == ex.SMOOTH


def test_smoothness_visits_each_node_once(monkeypatch):
    # x <- clamp(x + x)^3, twelve times: 3 nodes per level over one Var
    node = ex.Var(0)
    for _ in range(12):
        node = ex.Pow(ex.Clamp(ex.Add(node, node)), 3)
    misses = []
    inner = ex._smoothness

    def counting(n, memo):
        if id(n) not in memo:
            misses.append(id(n))
        return inner(n, memo)

    monkeypatch.setattr(ex, "_smoothness", counting)
    assert node.smoothness() == 2
    assert len(misses) == len(set(misses)) == 3 * 12 + 1


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


def test_colspan_projector_entry():
    # A = (1, 1)^T spans the diagonal; projector = [[.5,.5],[.5,.5]]
    a = [[ex.Const(1.0)], [ex.Const(1.0)]]
    group = ex.MatrixGroup(ex.COLSPAN_PROJ, a)
    vals = [[ex.evaluate_at(ex.MatEntry(group, i, j), [0.0]) for j in range(2)]
            for i in range(2)]
    assert np.allclose(vals, 0.5)


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
        base.sample_region(base.sset, plan, 25)       # positional count
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
