"""Loop transformations over SCoP schedules (§2.2 vocabulary)."""

from .base import (TransformError, dynamic_columns, innermost_column,
                   pad_statements, shared_band, statement_loop_columns)
from .fusion import distribute, fuse
from .interchange import interchange
from .parallel import parallelize, vectorize
from .recipe import (ALL_KINDS, KIND_DISTRIBUTION, KIND_FUSION,
                     KIND_INTERCHANGE, KIND_PARALLEL, KIND_REG_ACCUM,
                     KIND_SHIFTING, KIND_SKEWING, KIND_TILING,
                     KIND_VECTORIZE, LOOP_KINDS, TRANSFORMS,
                     TransformRecipe, TransformStep)
from .scalar import accumulate_in_register
from .skewing import shift, skew
from .tiling import DEFAULT_TILE, tile

__all__ = [
    "TransformError", "dynamic_columns", "innermost_column",
    "pad_statements", "shared_band", "statement_loop_columns",
    "distribute", "fuse", "interchange", "parallelize", "vectorize",
    "ALL_KINDS", "KIND_DISTRIBUTION", "KIND_FUSION", "KIND_INTERCHANGE",
    "KIND_PARALLEL", "KIND_REG_ACCUM", "KIND_SHIFTING", "KIND_SKEWING",
    "KIND_TILING", "KIND_VECTORIZE", "LOOP_KINDS", "TRANSFORMS",
    "TransformRecipe", "TransformStep",
    "accumulate_in_register", "shift", "skew", "tile", "DEFAULT_TILE",
]
