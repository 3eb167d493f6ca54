"""Small shared utilities used across the repro package.

Nothing here is specific to the paper; these are the helpers a compiler-ish
code base needs: error types, name generation and ordered sets.  Timing
lives in :mod:`repro.obs.clock`.
"""

from repro.util.errors import (
    ReproError,
    FrontendError,
    UnsupportedFeatureError,
    ValidationError,
    CodegenError,
    AutodiffError,
    CheckpointingError,
)
from repro.util.naming import NameGenerator, sanitize_identifier
from repro.util.ordered import OrderedSet

__all__ = [
    "ReproError",
    "FrontendError",
    "UnsupportedFeatureError",
    "ValidationError",
    "CodegenError",
    "AutodiffError",
    "CheckpointingError",
    "NameGenerator",
    "sanitize_identifier",
    "OrderedSet",
]
