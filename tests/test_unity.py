"""Zero functions, separation, shrinking, partitions of unity, retraction."""

import numpy as np
import pytest

from bundleforms import expr as ex
from bundleforms.bundles import (BundleRep, CheckReport, ProjectorField,
                                 SectionRep, coefficients, gauss_embedding,
                                 generating_sections, pullback, trivial_bundle)
from bundleforms.catalog import full_cover, line_base, moebius
from bundleforms.errors import (
    BundleformsError,
    ContainmentFailure,
    CoverageFailure,
    NotDisjoint,
    OpenSetRejected,
)
from bundleforms.forms import blend_positive_subbundle
from bundleforms.homotopy import trivialize_contractible
from bundleforms.matexpr import em_const
from bundleforms.semialg import (GE, GT, Base, Condition, Cover, Polynomial,
                                 SamplePlan, SemialgebraicSet, memberships)
from bundleforms.unity import (
    normalized_partition,
    partition_of_unity,
    separating_function,
    shrink_cover,
    vertical_retraction,
    zero_function,
)
from helpers import interval, named_point, nan_where_positive


from helpers import LINE, grid

def test_zero_function_point_set():
    from bundleforms.semialg import Condition, Polynomial, EQ
    origin = SemialgebraicSet(1, [[Condition.from_poly(Polynomial.coordinate(1, 0), EQ)]])
    f = zero_function(origin, 0)
    vals = ex.evaluate(f, grid(-1, 1, 201))
    zero_at = np.flatnonzero(vals == 0.0)
    assert len(zero_at) == 1 and np.isclose(grid(-1, 1, 201)[zero_at[0], 0], 0.0)
    assert (vals >= 0).all()


def test_zero_function_halfline_values():
    # X = {x0 >= 1}, r = 1: clamp(1 - x0)^2
    f = zero_function(interval(lo=1.0, strict=False), 1)
    assert ex.evaluate_at(f, [2.0]) == 0.0
    assert ex.evaluate_at(f, [0.0]) == 1.0


def test_zero_function_union_sign_oracle():
    # X = {x0 <= -1} u {x0 >= 1}: zero exactly where the membership scan says so
    s = SemialgebraicSet(1, [*interval(hi=-1.0, strict=False).pieces,
                             *interval(lo=1.0, strict=False).pieces])
    f = zero_function(s, 1)
    pts = grid(-2, 2, 1000)
    vals = ex.evaluate(f, pts)
    inside = s.membership(pts)
    assert np.array_equal(vals == 0.0, inside)
    assert (vals >= 0).all()


def test_zero_function_rejects_open_sets():
    with pytest.raises(OpenSetRejected):
        zero_function(interval(lo=0.0), 1)


WIDE_LINE = Base(SemialgebraicSet.whole_space(1), box=((-2.0, 2.0),), name="line")


def test_separating_function_values():
    x_set = interval(hi=0.0, strict=False)
    y_set = interval(lo=1.0, strict=False)
    f = separating_function(x_set, y_set, 1, SamplePlan(seed=0), base=WIDE_LINE)
    assert ex.evaluate_at(f, [0.0]) == 0.0
    assert ex.evaluate_at(f, [-1.5]) == 0.0
    assert ex.evaluate_at(f, [1.0]) == 1.0
    # midpoint: oracle is the direct g^2/(g^2+h^2) arithmetic
    g_mid = max(0.5, 0.0) ** 2          # clamp(x0)^2 at 1/2
    h_mid = max(1 - 0.5, 0.0) ** 2      # clamp(1-x0)^2 at 1/2
    expected = g_mid**2 / (g_mid**2 + h_mid**2)
    assert ex.evaluate_at(f, [0.5]) == pytest.approx(expected)
    assert 0.0 < ex.evaluate_at(f, [0.5]) < 1.0
    vals = ex.evaluate(f, grid(-2, 2, 500))
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_separating_function_not_disjoint():
    with pytest.raises(NotDisjoint):
        separating_function(interval(hi=1.0, strict=False),
                            interval(lo=0.0, strict=False),
                            1, SamplePlan(seed=0), base=WIDE_LINE)


def two_interval_cover():
    return Cover(LINE, [interval(hi=1.0), interval(lo=0.0)], name="two-intervals")


def test_shrink_cover_two_intervals():
    plan = SamplePlan(seed=0, n_chart=500)
    shrunk = shrink_cover(two_interval_cover(), plan=plan)
    assert shrunk.cover.coverage(plan).ok
    # overlap of the shrunk charts is nonempty
    pts = LINE.sample_points(plan)
    in_both = (shrunk.cover.charts[0].membership(pts)
               & shrunk.cover.charts[1].membership(pts))
    assert in_both.any()


def test_shrink_single_chart_whole_base():
    cover = Cover(LINE, [SemialgebraicSet(1, [[]])], name="whole")
    shrunk = shrink_cover(cover, plan=SamplePlan(seed=0, n_chart=200))
    assert shrunk.cover.coverage(SamplePlan(seed=5, n_chart=200)).ok


def test_shrink_non_covering_fails():
    bad = Cover(LINE, [interval(hi=-1.0), interval(lo=1.0)])
    with pytest.raises(CoverageFailure):
        shrink_cover(bad, plan=SamplePlan(seed=0, n_chart=300))


def test_partition_single_chart_is_one():
    cover = Cover(LINE, [SemialgebraicSet(1, [[]])])
    pou = partition_of_unity(cover, plan=SamplePlan(seed=0, n_chart=200))
    assert len(pou) == 1
    vals = ex.evaluate(pou.weights[0], grid(-2, 2, 100))
    assert np.allclose(vals, 1.0)


def test_partition_two_intervals_sums_to_one():
    plan = SamplePlan(seed=0, n_chart=400)
    pou = partition_of_unity(two_interval_cover(), plan=plan)
    pts = grid(-2.5, 2.5, 2000)
    total = sum(ex.evaluate(w, pts) for w in pou.weights)
    assert np.abs(total - 1.0).max() < 1e-9
    for w in pou.weights:
        vals = ex.evaluate(w, pts)
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12


def test_partition_vanishes_off_chart():
    plan = SamplePlan(seed=0, n_chart=400)
    pou = partition_of_unity(two_interval_cover(), plan=plan)
    pts = grid(1.0, 2.5, 50)            # outside chart 0 = {x0 < 1}
    assert np.all(ex.evaluate(pou.weights[0], pts) == 0.0)
    pts = grid(-2.5, -1e-9, 50)         # outside chart 1 = {x0 > 0}
    assert np.all(ex.evaluate(pou.weights[1], pts) == 0.0)


def test_vertical_retraction_values():
    u_set = interval(lo=-0.5, hi=0.5)
    v_set = interval(lo=-1.0, hi=1.0)
    tau = vertical_retraction(u_set, v_set, 1, SamplePlan(seed=0),
                              base=WIDE_LINE)
    # deep inside U: tau = 1 regardless of t
    assert ex.evaluate_at(tau, [0.0, 0.0]) == pytest.approx(1.0)
    # outside V: tau = t
    assert ex.evaluate_at(tau, [1.5, 0.3]) == pytest.approx(0.3)
    # fringe: strictly between t and 1
    mid = ex.evaluate_at(tau, [0.75, 0.0])
    assert 0.0 < mid < 1.0
    # everywhere sampled: tau between min(t,1) and max(t,1)
    pts = np.column_stack([np.linspace(-2, 2, 101), np.full(101, 0.25)])
    vals = ex.evaluate(tau, pts)
    assert (vals >= 0.25 - 1e-12).all() and (vals <= 1.0 + 1e-12).all()


def test_vertical_retraction_containment_failure():
    with pytest.raises(ContainmentFailure):
        vertical_retraction(interval(lo=-2.0, hi=2.0), interval(lo=-1.0, hi=1.0),
                            1, SamplePlan(seed=0), base=LINE)


def test_not_disjoint_names_a_plain_float_point():
    with pytest.raises(NotDisjoint, match="lies in both sets") as err:
        separating_function(interval(hi=1.0, strict=False),
                            interval(lo=0.0, strict=False),
                            1, SamplePlan(seed=0), base=WIDE_LINE)
    (x,) = named_point(str(err.value))
    assert 0.0 <= x <= 1.0


class StricterChart(SemialgebraicSet):
    """A chart whose membership test demands a margin of 0.5: sampling and
    the shrink read its conditions, and only the containment check reads
    this test, so a shrunk chart's closure escapes it."""

    def membership(self, points, eq_tol=1e-9):
        return memberships([self], points, 0.5)[:, 0]


def test_shrink_failures_name_the_first_sampled_point_in_inductive_order():
    # the samples of both certificates come from one batch, and each step's
    # disjointness is certified before the closures, as the induction goes
    gap = Cover(WIDE_LINE, [interval(hi=0.0), interval(lo=0.1)], name="gap")
    with pytest.raises(NotDisjoint) as err:
        shrink_cover(gap, plan=SamplePlan(seed=0, n_chart=8))
    assert str(err.value) == "sampled point (0.0625,) lies in both sets"
    strict = Cover(WIDE_LINE, [interval(hi=1.0),
                               StricterChart(1, interval(lo=0.0).pieces)])
    with pytest.raises(CoverageFailure) as err:
        shrink_cover(strict, plan=SamplePlan(seed=0))
    assert str(err.value) == "shrunk chart 1 escapes its original chart at (0.4375,)"
    with pytest.raises(NotDisjoint) as err:
        separating_function(interval(hi=1.0, strict=False),
                            interval(lo=0.0, strict=False),
                            1, SamplePlan(seed=0), base=WIDE_LINE)
    assert str(err.value) == "sampled point (0.625,) lies in both sets"


def test_a_nan_partition_denominator_fails_at_its_point():
    # NaN above x0 = 1: "total <= 1e-12" is false there, "not above" is true
    plan = SamplePlan(seed=0, n_chart=200)
    nan_part = nan_where_positive(ex.Sub(ex.Var(0), ex.Const(1.0)))
    with pytest.raises(CoverageFailure, match="partition denominator vanishes"
                       ) as err:
        normalized_partition([nan_part, ex.Const(1.0)], line_base(), plan)
    (x,) = err.value.point
    assert x > 1.0 and named_point(str(err.value)) == (x,)


PLAN = SamplePlan(seed=0, n_chart=200, n_overlap=160, n_triple=100)


def _nan_below_minus_two_cover():
    """{x0 < 1} and a chart whose condition is NaN below x0 = -2: the
    cover covers, and the shrunk cover misses that stretch."""
    x = ex.Var(0)
    cond = ex.Add(ex.Add(x, ex.Const(3.0)),
                  nan_where_positive(ex.Sub(ex.Const(-2.0), x)))
    return Cover(line_base(), [interval(hi=1.0),
                               SemialgebraicSet(1, [[Condition(cond, GT)]])])


def _two_rays_trivial():
    # {x0^2 >= 1/4} with center 1: the segment from 1 to -1 leaves the base
    x0 = Polynomial.coordinate(1, 0)
    rays = SemialgebraicSet(1, [[Condition.from_poly(
        x0 * x0 - Polynomial.constant(1, 0.25), GE)]])
    base = Base(rays, box=((-2.0, 2.0),), name="two-rays", star_center=(1.0,))
    return trivial_bundle(full_cover(base), 1)


def _nan_moebius():
    nan = ((ex.Const(np.nan),),)
    return BundleRep(moebius().cover, 1, {(0, 1): nan, (1, 0): nan})


def _uncertified_embedding(monkeypatch):
    monkeypatch.setattr(ProjectorField, "check", lambda self, plan:
                        CheckReport("projector", False, 1.0, witness=(1.0, 0.0)))
    gauss_embedding(moebius(), plan=PLAN)


def _degenerate_generators():
    b = trivial_bundle(full_cover(line_base()), 1)
    system = generating_sections(b, plan=PLAN)
    zero = SectionRep(b, [((ex.Const(0.0),),)])
    system.sections[0] = zero
    coefficients(zero, system, PLAN)


def _omega_violation():
    rt = 1.0 / np.sqrt(2.0)
    frame = em_const(np.array([[rt, rt], [rt, -rt]]))
    nu = em_const(np.array([[1.0], [-0.3]]))   # s(v, v) = -0.6: not in Omega
    blend_positive_subbundle(frame, 1, nu, ex.Const(0.5),
                             overlap_pts=np.zeros((1, 1)))


RAISES_AT_A_POINT = {
    "pullback image escapes": lambda mp: pullback(
        moebius(), [ex.Var(0), ex.Var(0)], line_base(), PLAN),
    "contraction escapes": lambda mp: trivialize_contractible(
        _two_rays_trivial(), PLAN),
    "sections drop rank": lambda mp: generating_sections(_nan_moebius(),
                                                         plan=PLAN),
    "embedding uncertified": _uncertified_embedding,
    "generators degenerate": lambda mp: _degenerate_generators(),
    "omega violation": lambda mp: _omega_violation(),
    "cover misses": lambda mp: Cover(
        WIDE_LINE, [interval(hi=-1.0), interval(lo=1.0)]).require_coverage(PLAN),
    "not disjoint": lambda mp: separating_function(
        interval(hi=1.0, strict=False), interval(lo=0.0, strict=False), 1,
        PLAN, base=WIDE_LINE),
    "shrunk cover misses": lambda mp: partition_of_unity(
        _nan_below_minus_two_cover(), plan=PLAN),
    "shrunk chart escapes": lambda mp: shrink_cover(Cover(WIDE_LINE, [
        interval(hi=1.0), StricterChart(1, interval(lo=0.0).pieces)]),
        plan=PLAN),
    "closure escapes": lambda mp: vertical_retraction(
        interval(lo=-2.0, hi=2.0), interval(lo=-1.0, hi=1.0), 1, PLAN,
        base=LINE),
}


@pytest.mark.parametrize("name", RAISES_AT_A_POINT)
def test_errors_carry_the_point_their_message_names(name, monkeypatch):
    with pytest.raises(BundleformsError) as err:
        RAISES_AT_A_POINT[name](monkeypatch)
    message = str(err.value)        # the point is its last parenthesized text
    assert err.value.point is not None
    assert err.value.point == named_point(message[message.rfind("("):])
