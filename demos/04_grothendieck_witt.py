"""The Grothendieck/Witt correspondence on the catalog.

K-classes are formal differences of bundles; Witt classes are form fields
modulo hyperbolic summands.  `delta` equips bundles with positive forms,
`nabla` splits forms into definite subbundles, and their composites
preserve the cached invariants.  Hyperbolic cancellation carries the
explicit witness (x, y) -> (x + y, (1/2) b(x - y)).

Run:  python3 demos/04_grothendieck_witt.py
"""

import numpy as np

from bundleforms import (
    FormField,
    SamplePlan,
    cancellation_witness,
    check_isometry,
    delta,
    k0_class,
    k0_mul,
    nabla,
    roundtrip_k0,
    roundtrip_witt,
    standard_positive_form,
    trivial_bundle,
    witt_add,
    witt_class,
    witt_is_zero,
    witt_neg,
)
from bundleforms.catalog import circle_trivial, full_cover, moebius, point_base
from bundleforms.forms import hyperbolic_space

plan = SamplePlan(seed=0, n_chart=300, n_overlap=180, n_triple=100)

# On the circle the K-invariants are the rank and the determinant class.
m = moebius()
e1 = circle_trivial(1, m.cover)
km = k0_class(m)
kd = k0_class(m, e1)                 # [moebius] - [trivial]
print("[moebius]: rank", km.rank_diff, " det class", km.det_class)
print("[moebius]-[eps1]: rank", kd.rank_diff, " det class", kd.det_class)
print("[moebius]^2:", k0_mul(km, km).rank_diff,
      k0_mul(km, km).det_class)

# delta sends a K-class to the Witt class of its positive forms; the
# signature difference mirrors the rank difference, and the twisted
# positive part keeps the Moebius det class.
w = delta(kd, plan)
print("\ndelta([moebius]-[eps1]): signature diff", w.sig_diff,
      " part classes", w.det_classes)
print("nabla back:", nabla(w, plan).rank_diff)
print("K round trip:", roundtrip_k0(kd, plan))

# Over a point, Witt classes are classical signatures.
point = point_base()
e3 = trivial_bundle(full_cover(point), 3)
w_split = witt_class(FormField.constant(e3, np.diag([1.0, 1.0, -1.0])), plan)
print("\ndiag(1,1,-1): signature diff", w_split.sig_diff)
print("Witt round trip:", roundtrip_witt(w_split, plan))

# b + (-b) is hyperbolic, with the explicit cancellation witness.
b1 = trivial_bundle(full_cover(point), 1)
pos = standard_positive_form(b1, plan=plan)
witness = cancellation_witness(b1, pos)
print("\ncancellation witness:", check_isometry(witness, plan).as_dict())

w1 = witt_class(FormField.constant(b1, np.eye(1)), plan)
total = witt_add(w1, witt_neg(w1), plan)
verdict, wit, _ = witt_is_zero(total, plan)
print("<1> + <-1> is zero:", verdict)

# Hyperbolic spaces are the neutral class by definition.
hb, hform = hyperbolic_space(b1)
verdict, _, _ = witt_is_zero(witt_class(hform, plan), plan)
print("H(eps^1) is zero:", verdict)
print("<1> alone is zero:", witt_is_zero(w1, plan)[0])
