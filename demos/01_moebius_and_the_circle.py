"""The Moebius line bundle over the circle, presented by a sign cocycle.

This walks through the core objects: an expression for the transition
function, a two-arc cover of the circle, sampled cocycle certification,
the determinant class that separates the Moebius bundle from the trivial
line bundle, and the projector bridge that embeds the bundle into an
ambient trivial bundle and splits it off again.

Run:  python3 demos/01_moebius_and_the_circle.py
"""

import numpy as np

from bundleforms import (
    SamplePlan,
    check_isomorphism,
    complement,
    gauss_embedding,
    s1_line_class,
    validate_cocycle,
    whitney_sum,
)
from bundleforms.bundles import splitting_witness
from bundleforms.catalog import (
    circle_trivial,
    moebius,
    moebius_corrupted,
)
from bundleforms.matexpr import em_eval

plan = SamplePlan(seed=0, n_chart=400, n_overlap=300, n_triple=150)

# The circle is covered by the two open arcs {x1 < 1/2} and {x1 > -1/2};
# their overlap has a component on each side of the x1 axis.  The Moebius
# transition is the sign of x0, written as the guarded quotient x0/|x0|.
m = moebius()
print("bundle:", m)
report = validate_cocycle(m, plan)
print("cocycle check:", report.as_dict())

pts = m.cover.samples((0, 1), plan)
signs = em_eval(m.transition(0, 1), pts)[:, 0, 0]
print(f"overlap samples: {pts.shape[0]}, transition values: "
      f"{sorted(set(signs))}")

# Flipping the return transition's sign on one component breaks the
# cocycle; the report carries a witness point on the left component.
bad = validate_cocycle(moebius_corrupted(), plan)
print("corrupted variant:", bad.as_dict())

# The determinant class is the mod-2 monodromy of transition determinant
# signs around the circle: 1 for the Moebius bundle, 0 for the trivial one.
print("det class (moebius):", s1_line_class(m))
print("det class (trivial):", s1_line_class(circle_trivial(1, m.cover)))
print("det class (moebius + moebius):", s1_line_class(whitney_sum(m, m)))

# Generating sections embed the bundle into an ambient trivial bundle; the
# column-span projector of the section frame is a global idempotent field.
proj = gauss_embedding(m, plan=plan)
base_pts = proj.base.sample_points(plan)
p = proj.eval(base_pts)
print("ambient:", proj.ambient, " trace error:",
      float(np.abs(np.trace(p, axis1=1, axis2=2) - 1).max()))

# The complementary projector presents the orthogonal bundle, and stacking
# both frames gives an explicit isomorphism with the ambient trivial
# bundle: that is the stabilization step behind every K-class argument.
comp = complement(m, plan=plan)
total, triv, witness = splitting_witness(m, comp, proj)
split = check_isomorphism(total, triv, witness, plan, tol=1e-6)
print("moebius + complement = trivial:", split.as_dict())
