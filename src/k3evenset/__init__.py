"""Exact lattice computations for K3 surfaces with an even set of eight
disjoint rational curves: family constructors, discriminant groups,
ample/nef certification, projective-model data and the supporting
integer linear algebra."""

from .exactlin import IntMatrix, Signature, SNFResult, det, signature, smith_normal_form, solve_integral
from .lattice import (
    FrameVector,
    IntegerLattice,
    contains,
    inner,
    is_primitive,
    isometry_from_basis_map,
    short_vectors,
)
from .disc import DiscriminantGroup, discriminant_form, discriminant_group
from .families import (
    GlueVector,
    NSFamily,
    admissible_glues,
    glue_equivalent,
    k3_lattice,
    make,
    overlattice,
    parse_divisor,
    parse_family,
)

__all__ = [
    "IntMatrix",
    "Signature",
    "SNFResult",
    "det",
    "signature",
    "smith_normal_form",
    "solve_integral",
    "FrameVector",
    "IntegerLattice",
    "contains",
    "inner",
    "is_primitive",
    "isometry_from_basis_map",
    "short_vectors",
    "DiscriminantGroup",
    "discriminant_form",
    "discriminant_group",
    "GlueVector",
    "NSFamily",
    "admissible_glues",
    "glue_equivalent",
    "k3_lattice",
    "make",
    "overlattice",
    "parse_divisor",
    "parse_family",
]

__version__ = "0.1.0"
