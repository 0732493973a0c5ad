"""Exact computer algebra for skew PBW extensions.

Construct a presentation (twists, twisted derivations, and pairwise
commutation parameters over an exact coefficient ring), verify that it
defines an extension by overlap checking, and compute canonical normal
forms, products, and induced homomorphisms -- all in exact arithmetic.
"""

from .algebra import (
    EXPONENT_CAP,
    ExponentCapError,
    InconsistentPresentationError,
    Poly,
    decompose_var_coeff,
    monomial_product,
    sigma_pow,
    star,
)
from .catalog import (
    StructureConstants,
    jacobiator,
    lie_presentation,
)
from .expr import ExprError, coeff_from_str, eval_str, parse
from .jsonio import (
    SchemaError,
    homspec_from_json,
    load_homspec,
    load_presentation,
    presentation_from_json,
    presentation_to_json,
)
from .presentation import (
    ConsistencyReport,
    Presentation,
    PresentationError,
    check_all,
    check_condition2,
    check_condition3,
    derived_params,
    validate_structure,
)
from .reduction import (
    WordLengthError,
    collapse_q,
    normalize_h,
    reduce_elem,
    reduce_p,
    rewrite_step,
    section_t,
    star_oracle,
)
from .rings import (
    CoeffElem,
    CoeffRing,
    LaurentRing,
    NotAUnitError,
    PolyRing,
    PrimeField,
    QQ,
    Rationals,
    RingMap,
    RingMismatchError,
    SigmaDerivation,
)
from .rng import Stream
from .universal import (
    HomSpec,
    HomSpecError,
    basis_images_independent,
    check_hom_conditions,
    extend_hom,
    identity_spec,
    verify_mutual_inverse,
)
from .words import (
    FreeElem,
    Scalar,
    Var,
    Violation,
    complexity,
    is_standard,
    rightmost_violation,
    word_str,
)

__version__ = "0.1.0"
