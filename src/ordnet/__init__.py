"""Joint Gaussian graphical models with ordinal-covariate-linked edge inclusion.

The package estimates one precision matrix per level of a sample-level
ordinal covariate.  A spike-and-slab prior sparsifies each network and a
probit submodel ties each edge's inclusion probability to the covariate, so
edges whose presence strengthens or weakens along the covariate are detected
jointly rather than per network.  A simulation and evaluation harness
reproduces the benchmark designs used to validate the method.
"""

from .baseline import SslFit, fit_ssl, ols_beta_proxy
from .core import (
    DataError,
    GroupedDataset,
    NumericalError,
    canonical_edge,
    center_columns,
    edge_indicator,
    edge_set,
    edge_set_from_matrix,
    is_positive_definite,
    partial_correlations,
    sample_covariance,
)
from .engine import (
    FitControls,
    FitReport,
    Hyperparameters,
    VariationalState,
    cm_update_precision,
    compute_elbo,
    edge_count_prior,
    fit,
    init_state,
    refit_precision,
    ridge_start,
    truncated_normal_moments,
    update_beta,
    update_edge_latents,
    update_sigma,
    update_zeta,
)
from .metrics import (
    MetricsReport,
    beta_sign_structure,
    evaluate_fit,
    precision_recall,
    rank_nodes_by_beta,
    roc_auc,
    top_k_edge_subnetworks,
)
from .selection import (
    Nu0SearchConfig,
    Nu0SearchResult,
    ebic,
    gaussian_log_likelihood,
    line_search_nu0,
)
from .simulate import (
    SimulationConfig,
    SimulationTruth,
    assign_edge_trajectories,
    build_precision_sequence,
    generate_scale_free_graph,
    sample_mvn,
    simulate_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "NumericalError",
    "GroupedDataset",
    "canonical_edge",
    "edge_set",
    "edge_set_from_matrix",
    "edge_indicator",
    "center_columns",
    "sample_covariance",
    "partial_correlations",
    "is_positive_definite",
    "SimulationConfig",
    "SimulationTruth",
    "generate_scale_free_graph",
    "assign_edge_trajectories",
    "build_precision_sequence",
    "sample_mvn",
    "simulate_experiment",
    "Hyperparameters",
    "FitControls",
    "FitReport",
    "VariationalState",
    "edge_count_prior",
    "init_state",
    "truncated_normal_moments",
    "update_edge_latents",
    "update_zeta",
    "update_beta",
    "update_sigma",
    "cm_update_precision",
    "refit_precision",
    "ridge_start",
    "compute_elbo",
    "fit",
    "SslFit",
    "fit_ssl",
    "ols_beta_proxy",
    "Nu0SearchConfig",
    "Nu0SearchResult",
    "gaussian_log_likelihood",
    "ebic",
    "line_search_nu0",
    "MetricsReport",
    "roc_auc",
    "precision_recall",
    "beta_sign_structure",
    "rank_nodes_by_beta",
    "top_k_edge_subnetworks",
    "evaluate_fit",
    "__version__",
]
