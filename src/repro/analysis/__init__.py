"""Static/dynamic analyses over SCoPs: dependences and loop properties."""

from .dependences import (Dependence, KIND_RAW, KIND_WAR, KIND_WAW,
                          analysis_engine_name, analysis_override,
                          analysis_params, compute_dependences, dependences,
                          is_legal_schedule, is_parallel_dim,
                          parallel_violations, schedule_violations)
from .properties import (FIG9_PROPERTIES, LoopProperties,
                         cluster_distribution, extract_properties,
                         property_cluster)

__all__ = [
    "Dependence", "KIND_RAW", "KIND_WAR", "KIND_WAW",
    "analysis_engine_name", "analysis_override",
    "analysis_params", "compute_dependences", "dependences",
    "is_legal_schedule", "is_parallel_dim", "parallel_violations",
    "schedule_violations",
    "FIG9_PROPERTIES", "LoopProperties", "cluster_distribution",
    "extract_properties", "property_cluster",
]
