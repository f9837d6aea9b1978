"""Exact GF(2) machinery for symplectic metric spaces and the
elementary-abelian-2-subgroup catalog of the exceptional types."""

from .autgrp import (
    count_automorphisms,
    enumerate_automorphisms,
    sp_full_order,
    sp_metric_order,
    sp_order,
    sp_vector_order,
)
from .catalog import FamilyEntry, enumerate_all, enumerate_type
from .f2core import F2Matrix, F2Vector, gl_order, rank
from .sms import (
    InvariantTuple,
    SymplecticMetricSpace,
    canonical,
    defect,
    invariants,
    is_isomorphic,
    isomorphism_to_canonical,
    transport,
    validate,
)

__all__ = [
    "F2Matrix",
    "F2Vector",
    "FamilyEntry",
    "InvariantTuple",
    "SymplecticMetricSpace",
    "canonical",
    "count_automorphisms",
    "defect",
    "enumerate_all",
    "enumerate_automorphisms",
    "enumerate_type",
    "gl_order",
    "invariants",
    "is_isomorphic",
    "isomorphism_to_canonical",
    "rank",
    "sp_full_order",
    "sp_metric_order",
    "sp_order",
    "sp_vector_order",
    "transport",
    "validate",
]
