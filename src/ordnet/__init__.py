"""Joint Gaussian graphical models with ordinal-covariate-linked edge inclusion.

The package estimates one precision matrix per level of a sample-level
ordinal covariate.  A spike-and-slab prior sparsifies each network and a
probit submodel ties each edge's inclusion probability to the covariate, so
edges whose presence strengthens or weakens along the covariate are detected
jointly rather than per network.  A simulation and evaluation harness
reproduces the benchmark designs used to validate the method.

``import ordnet`` loads only the NumPy-only ``core`` and ``metrics``.  The
names that need SciPy (the fit, the baseline, the spike search and the
simulator) and their submodules ``ordnet.engine``, ``.baseline``,
``.selection`` and ``.simulate`` are imported on first access (PEP 562), so
code that only reads and scores fits never loads SciPy.

Each public name is declared once: the eager ones in the ``__all__`` of
``core`` and ``metrics``, the SciPy-backed ones in ``_LAZY`` below.
"""

import importlib

from . import core, metrics
from .core import *
from .metrics import *

# The SciPy-backed names, by defining submodule; ``__getattr__`` imports each
# submodule on first use.
_LAZY = {
    "baseline": ("SslFit", "fit_ssl", "ols_beta_proxy"),
    "engine": (
        "FitControls",
        "FitReport",
        "Hyperparameters",
        "VariationalState",
        "cm_update_precision",
        "compute_elbo",
        "edge_count_prior",
        "fit",
        "init_state",
        "intercept_prior",
        "refit_precision",
        "ridge_start",
        "truncated_normal_moments",
        "update_beta",
        "update_edge_latents",
        "update_sigma",
        "update_zeta",
    ),
    "selection": (
        "Nu0SearchConfig",
        "Nu0SearchResult",
        "ebic",
        "gaussian_log_likelihood",
        "line_search_nu0",
    ),
    "simulate": (
        "SimulationConfig",
        "SimulationTruth",
        "assign_edge_trajectories",
        "build_precision_sequence",
        "generate_scale_free_graph",
        "sample_mvn",
        "simulate_experiment",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [*core.__all__, *metrics.__all__, *_SOURCE, "__version__"]


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__all__})
