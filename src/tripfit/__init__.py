"""Composite protection modeling for aggregate induction-motor loads.

Exact trip-zone algebra, weighted sampling, logistic-smoothed two-block
regression, and MAE / load-fraction uncertainty analysis.
"""

from .protection import (
    TAU_MAX,
    V_MAX,
    CompositeProtection,
    ProtectionScheme,
    TripZone,
    combine_schemes,
    grid_evaluate,
    series_combine,
)
from .library import ProtectionLibrary, default_library, parse_library
from .sampling import (
    Dataset,
    SamplerConfig,
    SamplingError,
    lhs_box,
    sample_training,
    weight,
)
from .regression import (
    FitConfig,
    FitResult,
    SimplifiedModel,
    SmoothingConfig,
    brute_force_fit,
    fit,
    hard_mse,
    hard_values,
    harden,
)
from .evaluation import (
    MaeReport,
    MatrixReport,
    SweepReport,
    UncertaintySpec,
    mae,
    perturb_fractions,
    uncertainty_matrix,
    uncertainty_sweep,
)
from .config import ConfigError, ProjectConfig, load_config
from .rng import rng_stream

__version__ = "0.1.0"
