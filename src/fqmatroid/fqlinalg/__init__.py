"""Exact linear algebra over finite fields: fields, matrices, subspaces and
their death indices."""

from .fields import FieldSpec, make_field, MAX_ORDER, prime_power
from .matrix import (
    FqMatrix,
    RrefState,
    Span2,
    SpanQ,
    draw_native_column,
    engine_name,
    pack_gf2,
    pack_native,
    random_uniform_matrix,
)
from .subspaces import (
    DEFAULT_LEVEL_BUDGET,
    DEFAULT_SUBSPACE_BUDGET,
    SubspaceHandle,
    canonical_point,
    enumerate_subspaces,
    level_deaths,
    projective_points,
)

__all__ = [
    "FieldSpec",
    "make_field",
    "MAX_ORDER",
    "prime_power",
    "FqMatrix",
    "RrefState",
    "Span2",
    "SpanQ",
    "draw_native_column",
    "engine_name",
    "pack_gf2",
    "pack_native",
    "random_uniform_matrix",
    "DEFAULT_LEVEL_BUDGET",
    "DEFAULT_SUBSPACE_BUDGET",
    "SubspaceHandle",
    "canonical_point",
    "enumerate_subspaces",
    "level_deaths",
    "projective_points",
]
