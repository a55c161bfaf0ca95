"""Multilevel Picard approximation of mean-field SDEs with nonconstant diffusion."""

from .bench import (
    ExperimentConfig,
    ResultRow,
    l2_errors,
    run_cell,
    run_experiment,
)
from .mlp import (
    CostLedger,
    MlpConfig,
    NumericOverflowError,
    analytic_cost,
    mlp_estimate,
)
from .models import (
    CostUnits,
    KuramotoParams,
    ModelSpec,
    OuParams,
    default_cost_units,
    kuramoto_diffusion,
    kuramoto_drift,
    kuramoto_model,
    ou_diffusion,
    ou_drift,
    ou_model,
    random_params,
)
from .numerics import (
    TimeGrid,
    grid_floor_index,
    mat_exp,
)
from .randomness import (
    MultiIndex,
    RandomStream,
    derive_stream,
    sample_brownian_increments,
)
from .reference import (
    kuramoto_moments,
    kuramoto_reference_path,
    ou_exact_path,
    ou_mean,
)

__version__ = "0.1.0"
