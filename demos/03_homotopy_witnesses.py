"""Homotopy theorems as explicit witnesses.

A bundle over a cylinder base X x R restricting to isomorphic bundles at
t = 0 and t = 1, a bilinear form restricting to isometric forms, and the
special case that makes every bundle over a star-shaped base trivial.
Each witness is an expression field checked by the generic certifiers.

Run:  python3 demos/03_homotopy_witnesses.py
"""

import numpy as np

from bundleforms import expr as ex
from bundleforms import (
    FormField,
    SamplePlan,
    homotopy_isometry,
    homotopy_isomorphism,
    pullback,
    s1_line_class,
    signature,
    trivial_bundle,
    trivialize_contractible,
    validate_cocycle,
)
from bundleforms.catalog import (
    circle_base,
    circle_two_arc_cover,
    cylinder_base,
    cylinder_projection_map,
    moebius,
    scrambled_plane_bundle,
)
from bundleforms.homotopy import product_cylinder_cover, strip_subdivision

plan = SamplePlan(seed=0, n_chart=300, n_overlap=200, n_triple=100)

# Pull the Moebius bundle back to the cylinder S^1 x R.  The transitions
# are t-independent, so the endpoint transport is identity-grade.
circle = circle_base()
cyl = cylinder_base(circle)
mc = pullback(moebius(), cylinder_projection_map(circle), cyl, plan,
              name="moebius-cylinder")
print("cylinder bundle:", validate_cocycle(mc, plan).as_dict())
hw = homotopy_isomorphism(mc, plan)
print("endpoint witness:", hw.report.as_dict())
print("transport ladder: %d points, worst probe gap %.3g"
      % (hw.report.details["ladder_points"], hw.report.details["ladder_gap"]))
print("det classes at t=0 and t=1:",
      s1_line_class(hw.at_zero), s1_line_class(hw.at_one))

# A strip subdivision cuts [0,1] into bands inside single product charts;
# here a two-slab cover of the line cylinder with overlap (0.4, 0.6).
from bundleforms.catalog import line_base
from bundleforms.semialg import SemialgebraicSet
line_cyl = cylinder_base(line_base(), t_lo=-1.5, t_hi=2.5)
whole = SemialgebraicSet.whole_space(1)
cover = product_cylinder_cover(line_cyl, [whole, whole],
                               [(None, 0.6), (0.4, None)])
strips = strip_subdivision(trivial_bundle(cover, 1), plan)
print("\nstrip breakpoints:", strips[0].breakpoints)

# The straight-line family (1-t) s0 + t s1 between two positive forms on
# the trivial plane bundle over the circle: the endpoint isometry composes
# the bundle transport with a same-bundle correction.
cover2 = product_cylinder_cover(cyl, list(circle_two_arc_cover(circle).charts),
                                [(None, None), (None, None)])
b2 = trivial_bundle(cover2, 2)
rng = np.random.default_rng(4)
a = rng.normal(size=(2, 2))
s0 = a @ a.T + 0.4 * np.eye(2)
c = rng.normal(size=(2, 2))
s1 = c @ c.T + 0.4 * np.eye(2)
t = ex.Var(2)
upper = [ex.Add(ex.Mul(ex.Sub(ex.Const(1.0), t), ex.Const(s0[i, j])),
                ex.Mul(t, ex.Const(s1[i, j])))
         for i in range(2) for j in range(i, 2)]
family = FormField.from_upper(b2, [upper, upper], name="spd-line")
hi = homotopy_isometry(family, plan)
print("\nSPD family endpoint isometry:", hi.report.as_dict())
print("endpoint signatures:", signature(hi.at_zero, plan),
      signature(hi.at_one, plan))

# Over a star-shaped base every bundle is trivial: pull back along the
# scaling homotopy H(x, t) = t x and transport from the constant cocycle
# at the center to the bundle as presented.
sb = scrambled_plane_bundle()
tw = trivialize_contractible(sb, plan)
print("\nscrambled plane bundle trivialized:", tw.report.as_dict())
