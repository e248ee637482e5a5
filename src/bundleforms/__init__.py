"""Cocycle-presented vector bundles and bilinear spaces, certified by sampling.

The package turns constructive arguments about cocycle-presented vector
bundles and bilinear forms into executable, sampling-certified computations:
expression fields over semialgebraic bases, transition-cocycle bundles and
their algebra, congruence diagonalization and definite decompositions of
form fields, explicit homotopy and trivialization witnesses, and the
Grothendieck/Witt class correspondence on the built-in catalog of bases.
"""

from .bundles import (
    BundleRep,
    MorphismField,
    ProjectorField,
    SectionRep,
    bundle_from_projector,
    check_isomorphism,
    coefficients,
    complement,
    dual,
    gauss_embedding,
    generating_sections,
    hom,
    pullback,
    s1_line_class,
    tensor,
    trivial_bundle,
    validate_cocycle,
    whitney_sum,
)
from .errors import BundleformsError
from .expr import Expr, evaluate, evaluate_at, substitute
from .exprparse import parse_expression
from .forms import (
    FormField,
    IsometryWitness,
    SignatureType,
    blend_positive_subbundle,
    check_isometry,
    decompose,
    gram_schmidt_frame,
    hyperbolic_space,
    isometry_same_bundle,
    local_trivializing_cover,
    orthogonal_sum,
    signature,
    standard_positive_form,
    tensor_form,
    validate_form,
)
from .homotopy import (
    homotopy_isometry,
    homotopy_isomorphism,
    induced_iso_from_homotopy,
    restrict_cylinder,
    trivialize_contractible,
)
from .rings import (
    K0Class,
    WittClass,
    cancellation_witness,
    delta,
    k0_add,
    k0_class,
    k0_mul,
    k0_neg,
    nabla,
    roundtrip_k0,
    roundtrip_witt,
    witt_add,
    witt_class,
    witt_is_zero,
    witt_mul,
    witt_neg,
)
from .semialg import Base, Cover, Polynomial, SamplePlan, SemialgebraicSet, sample
from .specfile import SpecDocument, parse_spec
from .unity import (
    partition_of_unity,
    separating_function,
    shrink_cover,
    vertical_retraction,
    zero_function,
)

__version__ = "0.1.0"
