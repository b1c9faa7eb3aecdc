"""Predictive information under constrained model families.

Estimate how much one variable tells a *restricted* class of predictors
about another, attach PAC half-widths to the estimates, and use the
directed pairwise weights to learn tree-structured graphical models.
"""

from .baselines import (
    BatchSpec,
    Critic,
    baseline_edge_weights,
    cpc_estimate,
    fit_and_estimate,
    fit_critic,
    gaussian_oracle_critic,
    nwj_estimate,
)
from .data import Dataset, read_csv_rows, read_dataset_csv, write_dataset_csv, write_rows_csv
from .errors import (
    DataError,
    InfiniteLogDensityError,
    NumericalError,
    UsableInfoError,
)
from .estimation import (
    InfoEstimate,
    PacBound,
    PacConfig,
    empirical_conditional_entropy,
    empirical_entropy,
    empirical_information,
    holdout_information,
    linear_pac_half_width,
)
from .families import (
    ConditionalPredictor,
    ConstantConditional,
    FamilyConfig,
    FitMode,
    FitWarning,
    MarginalPredictor,
    VariableSpec,
    fit_conditional,
    fit_marginal,
    geometric_median,
    laplace_log_normalizer,
    log_density,
)
from .structure import (
    Arborescence,
    EdgeWeightMatrix,
    brute_force_arborescence,
    edge_weights,
    max_arborescence,
    pairwise_weights,
    tree_weight_gap_bound,
    wrong_edges_ratio,
)
from .synth import (
    GroundTruth,
    SimulationConfig,
    gaussian_pair_information,
    simulate,
)
from .timing import stage_timer

__version__ = "0.1.0"

__all__ = [
    "Arborescence",
    "BatchSpec",
    "ConditionalPredictor",
    "ConstantConditional",
    "Critic",
    "DataError",
    "Dataset",
    "EdgeWeightMatrix",
    "FamilyConfig",
    "FitMode",
    "FitWarning",
    "GroundTruth",
    "InfiniteLogDensityError",
    "InfoEstimate",
    "MarginalPredictor",
    "NumericalError",
    "PacBound",
    "PacConfig",
    "SimulationConfig",
    "UsableInfoError",
    "VariableSpec",
    "baseline_edge_weights",
    "brute_force_arborescence",
    "cpc_estimate",
    "edge_weights",
    "empirical_conditional_entropy",
    "empirical_entropy",
    "empirical_information",
    "fit_and_estimate",
    "fit_conditional",
    "fit_critic",
    "fit_marginal",
    "gaussian_oracle_critic",
    "gaussian_pair_information",
    "geometric_median",
    "holdout_information",
    "laplace_log_normalizer",
    "linear_pac_half_width",
    "log_density",
    "max_arborescence",
    "nwj_estimate",
    "pairwise_weights",
    "read_csv_rows",
    "read_dataset_csv",
    "simulate",
    "stage_timer",
    "tree_weight_gap_bound",
    "wrong_edges_ratio",
    "write_dataset_csv",
    "write_rows_csv",
    "__version__",
]
