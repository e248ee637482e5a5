"""Built-in bases, covers and bundles used by tests, demos and the CLI.

The catalog is small on purpose: a point, lines and planes (star-shaped),
the unit circle with its two-arc cover, and cylinders over these.  The
Moebius line bundle over the circle is the standard nontrivial example;
its determinant class separates it from the trivial line bundle.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .bundles import BundleRep, trivial_bundle
from .semialg import (
    EQ,
    GT,
    Base,
    CircleGeometry,
    Condition,
    Cover,
    Polynomial,
    SamplePlan,
    SemialgebraicSet,
)


def _coord(dim, i):
    return Polynomial.coordinate(dim, i)


def _const(dim, v):
    return Polynomial.constant(dim, Fraction(v))


def extend_polynomial(poly: Polynomial, new_dim: int) -> Polynomial:
    pad = new_dim - poly.dim
    if pad < 0:
        raise ValueError("cannot shrink a polynomial's dimension")
    return Polynomial(new_dim, {exps + (0,) * pad: c for exps, c in poly.terms.items()})


def extend_set(sset: SemialgebraicSet, new_dim: int) -> SemialgebraicSet:
    return sset.mapped(new_dim, lambda p: extend_polynomial(p, new_dim),
                       lambda e: e)


def point_base() -> Base:
    sset = SemialgebraicSet(1, [[Condition.from_poly(_coord(1, 0), EQ)]])
    return Base(sset, box=((-1.0, 1.0),), name="point", connected=True,
                star_center=(0.0,))


def line_base() -> Base:
    return Base(SemialgebraicSet.whole_space(1), box=((-3.0, 3.0),), name="line",
                connected=True, star_center=(0.0,))


def plane_base() -> Base:
    return Base(SemialgebraicSet.whole_space(2), box=((-2.0, 2.0), (-2.0, 2.0)),
                name="plane", connected=True, star_center=(0.0, 0.0))


def circle_base() -> Base:
    p = _coord(2, 0) * _coord(2, 0) + _coord(2, 1) * _coord(2, 1) - _const(2, 1)
    sset = SemialgebraicSet(2, [[Condition.from_poly(p, EQ)]])
    return Base(sset, box=((-1.3, 1.3), (-1.3, 1.3)), name="circle",
                connected=True, circle=CircleGeometry(0, 1))


def cylinder_base(base: Base, t_lo: float = -0.3, t_hi: float = 1.3) -> Base:
    """base x R_t, with the t coordinate appended last."""
    dim = base.dim + 1
    return Base(
        extend_set(base.sset, dim),
        box=tuple(base.box) + ((t_lo, t_hi),),
        name=f"{base.name}-cylinder",
        connected=base.connected,
        circle=base.circle,
        cylinder_base=base,
        t_index=base.dim,
    )


def full_cover(base: Base) -> Cover:
    return Cover(base, [SemialgebraicSet.whole_space(base.dim)],
                 name=f"{base.name}-full")


def circle_two_arc_cover(base: Base | None = None) -> Cover:
    """U1 = {x1 < 1/2}, U2 = {x1 > -1/2}; the overlap has components at
    x0 >= sqrt(3)/2 and x0 <= -sqrt(3)/2."""
    base = base or circle_base()
    u1 = SemialgebraicSet(2, [[Condition.from_poly(_const(2, Fraction(1, 2)) - _coord(2, 1), GT)]])
    u2 = SemialgebraicSet(2, [[Condition.from_poly(_coord(2, 1) + _const(2, Fraction(1, 2)), GT)]])
    return Cover(base, [u1, u2], name="two-arcs")


def sign_of_x0() -> ex.Expr:
    """x0 / |x0|: +1 on the right overlap component, -1 on the left one."""
    return ex.Div(ex.Var(0), ex.Abs(ex.Var(0)), guard_tol=1e-9)


def moebius() -> BundleRep:
    s = sign_of_x0()
    return BundleRep(circle_two_arc_cover(), 1,
                     {(0, 1): ((s,),), (1, 0): ((s,),)}, name="moebius")


def moebius_corrupted() -> BundleRep:
    """Moebius with the return transition's sign flipped on one component:
    g01 * g10 = -1 on the left overlap component, so the cocycle fails."""
    s = sign_of_x0()
    one = ex.Const(1.0)
    return BundleRep(circle_two_arc_cover(), 1,
                     {(0, 1): ((s,),), (1, 0): ((one,),)},
                     name="moebius-corrupted")


def circle_trivial(rank: int = 1, cover: Cover | None = None) -> BundleRep:
    cover = cover or circle_two_arc_cover()
    return trivial_bundle(cover, rank, name=f"eps^{rank}-circle")


def plane_two_chart_cover(base: Base | None = None) -> Cover:
    base = base or plane_base()
    c1 = SemialgebraicSet(2, [[Condition.from_poly(_coord(2, 0) + _const(2, 1), GT)]])
    c2 = SemialgebraicSet(2, [[Condition.from_poly(_const(2, 1) - _coord(2, 0), GT)]])
    return Cover(base, [c1, c2], name="plane-two-charts")


def scrambled_plane_bundle(base: Base | None = None) -> BundleRep:
    """Trivial rank-2 bundle over the plane in a scrambled two-chart dress.

    The transition is a constant cocycle conjugated by a polynomial shear,
    so it is globally evaluable and the bundle is trivializable but not
    presented trivially.
    """
    base = base or plane_base()
    cover = plane_two_chart_cover(base)
    x0, x1 = ex.Var(0), ex.Var(1)
    shear = ex.Mul(x0, x1)
    r = ((ex.Const(1.0), shear), (ex.Const(0.0), ex.Const(1.0)))
    r_inv = ((ex.Const(1.0), ex.Sub(ex.Const(0.0), shear)),
             (ex.Const(0.0), ex.Const(1.0)))
    c = ((ex.Const(2.0), ex.Const(1.0)), (ex.Const(0.0), ex.Const(0.5)))
    c_inv = ((ex.Const(0.5), ex.Const(-1.0)), (ex.Const(0.0), ex.Const(2.0)))
    from .matexpr import em_mul
    g12 = em_mul(r, em_mul(c, r_inv))
    g21 = em_mul(r, em_mul(c_inv, r_inv))
    return BundleRep(cover, 2, {(0, 1): g12, (1, 0): g21}, name="scrambled-plane")


def moebius_double_trivialization(plan: SamplePlan):
    """Witness that moebius + moebius is trivial of rank 2.

    The sum's overlap cocycle diag(s, s) with s = sign(x0) is written as
    a1(x) * I^-1 with a1 a rotation-like path through GL(2): pinned exactly
    to +I on the right overlap component and -I on the left one by a
    separating function, and passing through a quarter turn in between so
    the determinant never vanishes.

    Returns (sum_bundle, trivial_bundle, MorphismField).
    """
    from .bundles import MorphismField, trivial_bundle, whitney_sum
    from .matexpr import em_inv
    from .semialg import halfspace
    from .unity import separating_function

    m = moebius()
    total = whitney_sum(m, m)            # same cover, stays two-chart
    base = total.base
    right = halfspace(2, [1, 0], 0.8, op=">=")   # contains {x0 >= sqrt(3)/2}
    left = halfspace(2, [-1, 0], 0.8, op=">=")
    mix = separating_function(right, left, 2, plan, base)
    c = ex.Sub(ex.Const(1.0), ex.Mul(ex.Const(2.0), mix))        # 1 - 2m
    z = ex.Mul(ex.Const(4.0), ex.Mul(mix, ex.Sub(ex.Const(1.0), mix)))
    a1 = ((c, ex.Sub(ex.Const(0.0), z)), (z, c))
    fields = [em_inv(a1, guard_tol=1e-9), ((ex.Const(1.0), ex.Const(0.0)),
                                           (ex.Const(0.0), ex.Const(1.0)))]
    triv = trivial_bundle(total.cover, 2)
    return total, triv, MorphismField(total, triv, fields)


def cylinder_projection_map(base: Base):
    """Polynomial components of the projection base x R -> base."""
    dim = base.dim + 1
    return [Polynomial.coordinate(dim, i) for i in range(base.dim)]


def scaling_homotopy_map(base: Base):
    """H(x, t) = c + t (x - c) about the base's star center c, as
    polynomial components on base x R."""
    dim = base.dim + 1
    t = Polynomial.coordinate(dim, base.dim)
    return [_const(dim, c) + t * (_coord(dim, i) - _const(dim, c))
            for i, c in enumerate(base.star_center)]
