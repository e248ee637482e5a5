"""Sets, membership, complements, deterministic sampling."""

import ast
from pathlib import Path

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms.semialg import (
    EQ,
    GE,
    GT,
    Base,
    Condition,
    Cover,
    Polynomial,
    SamplePlan,
    SemialgebraicSet,
    _halton,
    expr_to_polynomial,
    halfspace,
    sample,
)
from bundleforms.errors import NotPolynomial


from helpers import interval, reference_halton, unit_circle

def test_polynomial_eval_and_gradient():
    # p = x0^2 x1 - 3
    p = (Polynomial.coordinate(2, 0) * Polynomial.coordinate(2, 0)
         * Polynomial.coordinate(2, 1) - Polynomial.constant(2, 3))
    pts = np.array([[2.0, 1.0], [1.0, 4.0]])
    assert np.allclose(p.eval(pts), [1.0, 1.0])
    gx, gy = p.gradient()
    assert np.allclose(gx.eval(pts), [4.0, 8.0])
    assert np.allclose(gy.eval(pts), [4.0, 1.0])


def test_polynomial_compose():
    # p(x) = x0^2, substitute x0 := x0 + x1
    p = Polynomial.coordinate(1, 0) * Polynomial.coordinate(1, 0)
    q = p.compose([Polynomial.coordinate(2, 0) + Polynomial.coordinate(2, 1)])
    assert np.allclose(q.eval(np.array([[1.0, 2.0]])), [9.0])


def test_expr_to_polynomial_round_trip():
    e = ex.Add(ex.Pow(ex.Var(0), 2), ex.Mul(ex.Const(2.0), ex.Var(1)))
    p = expr_to_polynomial(e, 2)
    pts = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.allclose(p.eval(pts), ex.evaluate(e, pts))
    with pytest.raises(NotPolynomial):
        expr_to_polynomial(ex.Sqrt(ex.Var(0)), 1)


def test_membership_and_complement():
    s = interval(lo=0.0)                      # {x0 > 0}
    pts = np.array([[-1.0], [0.0], [2.0]])
    assert s.membership(pts).tolist() == [False, False, True]
    comp = s.complement()                     # {-x0 >= 0}
    assert comp.membership(pts).tolist() == [True, True, False]
    assert comp.is_closed_form()


def test_complement_of_union_distributes():
    s = SemialgebraicSet(1, [*interval(hi=-1.0, strict=False).pieces,
                             *interval(lo=1.0, strict=False).pieces])
    comp = s.complement()                     # open interval (-1, 1)
    pts = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    assert comp.membership(pts).tolist() == [False, False, True, False, False]


def test_sampling_is_deterministic():
    # same seed and inputs must give identical point sets
    plan = SamplePlan(seed=7, n_chart=64)
    box = [(-2.0, 2.0)]
    a, _ = sample(interval(lo=0.0), plan, box)
    b, _ = sample(interval(lo=0.0), plan, box)
    assert np.array_equal(a, b)


def test_sampled_points_satisfy_conditions():
    plan = SamplePlan(seed=0, n_chart=128)
    pts, warn = sample(interval(lo=0.25, hi=0.75), plan, [(-1.0, 1.0)])
    assert not warn and pts.shape[0] > 0
    assert np.all(pts[:, 0] > 0.25) and np.all(pts[:, 0] < 0.75)


def test_circle_projection_sampling():
    plan = SamplePlan(seed=3, n_chart=200)
    pts, warn = sample(unit_circle(), plan, [(-1.5, 1.5), (-1.5, 1.5)])
    assert not warn and pts.shape[0] >= 100
    radius_err = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0)
    assert radius_err.max() < 1e-12


def test_contradictory_set_yields_warning():
    s = interval(lo=0.0).intersect(interval(hi=0.0))   # {x0 > 0 and x0 < 0}
    pts, warn = sample(s, SamplePlan(seed=0, n_chart=32), [(-1.0, 1.0)])
    assert warn and pts.shape[0] == 0


def test_cover_coverage_certificate():
    base = Base(SemialgebraicSet.whole_space(1), box=((-2.0, 2.0),), name="line")
    good = Cover(base, [interval(hi=1.0), interval(lo=0.0)])
    assert good.coverage(SamplePlan(seed=1, n_chart=200)).ok
    bad = Cover(base, [interval(hi=-1.0), interval(lo=1.0)])
    report = bad.coverage(SamplePlan(seed=1, n_chart=200))
    assert not report.ok and report.witness is not None


def test_halfspace_helper():
    s = halfspace(2, [1, -1], 0.5)            # {x0 - x1 > 1/2}
    assert s.membership(np.array([[2.0, 0.0], [0.0, 0.0]])).tolist() == [True, False]


@pytest.mark.parametrize("skip", [20, 0, 1, 97])
def test_halton_matches_scalar_radical_inverse(skip):
    for n in (1, 7, 128, 2000):
        for dim in (1, 2, 3, 5, 10):
            got = _halton(n, dim, skip)
            assert got.tobytes() == reference_halton(n, dim, skip).tobytes()


# --- the sample plan is always explicit ---------------------------------------

def test_no_construction_or_check_defaults_its_sample_plan():
    # a plan defines what a certificate means, so no function may pick one
    # silently; only Cover.refined_with probes with the fixed SamplePlan()
    src = Path(__file__).resolve().parent.parent / "src" / "bundleforms"
    defaulted, implicit = [], []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "plan or SamplePlan()" not in text, path.name
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
            defaulted += [f"{path.name}:{fn.name}" for a in with_default
                          if a.arg == "plan"]
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and not node.args and not node.keywords
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "SamplePlan"
                        and fn.name != "refined_with"):
                    implicit.append(f"{path.name}:{fn.name}")
    assert defaulted == []
    assert implicit == []
