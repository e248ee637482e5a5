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
    _first_distinct,
    _halton,
    expr_to_polynomial,
    halfspace,
    sample,
)
from bundleforms.errors import CoverageFailure, NotPolynomial


from helpers import interval, named_point, reference_halton, unit_circle

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


@pytest.mark.parametrize("offset", [20, 0, 1, 97])
def test_halton_matches_scalar_radical_inverse(offset):
    # the points past the first `offset` are the reference's from index
    # 20 + offset on: a longer draw extends a shorter one
    for n in (1, 7, 128, 2000):
        for dim in (1, 2, 3, 5, 10):
            got = _halton(offset + n, dim)[offset:]
            assert got.tobytes() == reference_halton(n, dim, 20 + offset).tobytes()



def test_dedupe_keeps_the_rows_np_unique_keeps():
    # `sample` keeps the first occurrence of each row rounded to 12 digits;
    # the sort-and-mask dedupe must keep exactly the rows np.unique did
    rng = np.random.default_rng(0)
    values = [0.0, -0.0, 0.5, 0.5 + 4e-13, 0.5 + 5e-13, 0.5 + 6e-13, 1 - 5e-13,
              1.0, 1e-13, -1e-13, np.inf, -np.inf, np.nan]
    stacks = [
        np.array([[0.25, -0.0]]),                           # one row
        np.array([[0.0], [-0.0], [1e-13], [0.0]]),          # one column, ±0.0
        np.vstack([_halton(k, 2) for k in (8, 16, 32)]),    # repeated prefixes
        np.vstack([_halton(64, 3)] * 2) + rng.choice([0.0, 4e-13, 6e-13], (128, 3)),
    ]
    for _ in range(600):
        n, dim = int(rng.integers(1, 48)), int(rng.integers(1, 4))
        stacks.append(rng.choice(values, size=(n, dim)))
    for stack in stacks:
        _, first = np.unique(np.round(stack, 12), axis=0, return_index=True)
        assert np.flatnonzero(_first_distinct(stack)).tolist() == sorted(first.tolist())

# --- the sample plan is always explicit ---------------------------------------

def test_no_construction_or_check_defaults_its_sample_plan():
    # a plan defines what a certificate means, so no function may pick one
    # silently; only Base.meets probes with the fixed SamplePlan()
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
                        and fn.name != "meets"):
                    implicit.append(f"{path.name}:{fn.name}")
    assert defaulted == []
    assert implicit == []


def test_uncovered_point_prints_plain_floats():
    base = Base(SemialgebraicSet.whole_space(1), box=((-2.0, 2.0),), name="line")
    bad = Cover(base, [interval(hi=-1.0), interval(lo=1.0)], name="gap")
    plan = SamplePlan(seed=1, n_chart=200)
    with pytest.raises(CoverageFailure, match="misses sampled base point") as err:
        bad.require_coverage(plan)
    (x,) = named_point(str(err.value))
    assert -1.0 <= x <= 1.0
    assert (x,) == bad.coverage(plan).witness
