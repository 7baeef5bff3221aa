"""Desk-scale workbench for inverse semigroup actions on finite-dimensional
normed algebras and their section (crossed-product style) algebras.

The layers, bottom to top: finite inverse semigroups (concrete partial
bijections or abstract Cayley tables), normed algebras with ideals and
partial automorphisms, validated actions, the convolution algebra of
finitely supported sections with its order-difference ideal and quotients,
and covariant representations with normalization, integration and
representation-family seminorms.
"""

from ._linalg import DEFAULT_TOL
from .actions import (
    Action,
    PartialSetAction,
    check_derived_identities,
    induce_action,
    validate_action,
)
from .algebras import (
    FinAlgebra,
    Ideal,
    PartialAut,
    function_algebra,
    ideal_validate,
    matrix_algebra,
    paut_validate,
    validate_algebra,
)
from .ell1 import (
    Ell1Element,
    NullIdeal,
    QuotientAlgebra,
    convolve,
    ell1_norm,
    involution,
    monomials,
    null_ideal,
    quotient_algebra,
    quotient_ell1_norm,
)
from .errors import CheckError, SchemaError
from .io_json import (
    ParsedInstance,
    instance_to_dict,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .reporting import CheckReport
from .reps import (
    CovariantRep,
    IntegratedRep,
    ReprSpace,
    adjoint_check,
    check_algebraic,
    check_spatial,
    group_case_check,
    integrate,
    is_normalized,
    normalize,
    regular_rep,
    seminorm_family,
    seminorm_kernel,
    validate_rep,
)
from .semigroups import (
    InvSemigroup,
    PartialBijection,
    generate_semigroup,
    natural_order,
    validate_inverse,
    wagner_preston_embed,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Action",
    "CheckError",
    "CheckReport",
    "CovariantRep",
    "Ell1Element",
    "FinAlgebra",
    "Ideal",
    "IntegratedRep",
    "InvSemigroup",
    "NullIdeal",
    "ParsedInstance",
    "PartialAut",
    "PartialBijection",
    "PartialSetAction",
    "QuotientAlgebra",
    "ReprSpace",
    "SchemaError",
    "adjoint_check",
    "check_algebraic",
    "check_derived_identities",
    "check_spatial",
    "convolve",
    "ell1_norm",
    "function_algebra",
    "generate_semigroup",
    "group_case_check",
    "ideal_validate",
    "induce_action",
    "instance_to_dict",
    "integrate",
    "involution",
    "is_normalized",
    "load_instance",
    "matrix_algebra",
    "monomials",
    "natural_order",
    "normalize",
    "null_ideal",
    "parse_instance",
    "paut_validate",
    "quotient_algebra",
    "quotient_ell1_norm",
    "regular_rep",
    "seminorm_family",
    "seminorm_kernel",
    "serialize_instance",
    "validate_action",
    "validate_algebra",
    "validate_inverse",
    "validate_rep",
    "wagner_preston_embed",
]
