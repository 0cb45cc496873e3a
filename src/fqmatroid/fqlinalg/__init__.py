"""Exact linear algebra over finite fields: fields, matrices, subspaces."""

from .fields import FieldSpec, make_field, MAX_ORDER
from .matrix import (
    FqMatrix,
    RrefState,
    draw_native_column,
    engine_name,
    format_matrix_text,
    native_to_tuple,
    pack_gf2,
    parse_matrix_text,
    random_uniform_matrix,
    unpack_gf2,
)
from .subspaces import (
    DEFAULT_SUBSPACE_BUDGET,
    SubspaceHandle,
    canonical_point,
    enumerate_subspaces,
    projective_points,
)

__all__ = [
    "FieldSpec",
    "make_field",
    "MAX_ORDER",
    "FqMatrix",
    "RrefState",
    "draw_native_column",
    "engine_name",
    "format_matrix_text",
    "native_to_tuple",
    "pack_gf2",
    "parse_matrix_text",
    "random_uniform_matrix",
    "unpack_gf2",
    "DEFAULT_SUBSPACE_BUDGET",
    "SubspaceHandle",
    "canonical_point",
    "enumerate_subspaces",
    "projective_points",
]
