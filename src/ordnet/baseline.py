"""Single-network spike-and-slab baseline and the least-squares slope proxy.

The baseline runs the shared variational engine on one dataset with the
covariate coefficients clamped to zero, so comparisons against the joint
model isolate the covariate submodel.  The slope proxy regresses per-level
precision entries on the level values, mimicking a covariate coefficient for
methods that do not estimate one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import DataError, GroupedDataset
from .engine import FitControls, Hyperparameters, VariationalState, intercept_prior
from .engine import fit as engine_fit


@dataclass(frozen=True)
class SslFit:
    """Result of a single-network spike-and-slab fit."""

    omega: np.ndarray
    ppi: np.ndarray
    elbo_trace: tuple[float, ...]
    converged: bool
    state: VariationalState

    @property
    def iterations(self) -> int:
        return len(self.elbo_trace)


def fit_ssl(
    data: np.ndarray,
    nu0: float,
    nu1: float = 1.0,
    lambda_diag: float = 1.0,
    n0: float | None = None,
    t0_sq: float | None = None,
    controls: FitControls | None = None,
    *,
    start: np.ndarray | None = None,
) -> SslFit:
    """Fit the spike-and-slab graphical model to one centered data matrix.

    The probit index reduces to the intercept alone.  When ``n0``/``t0_sq``
    are omitted they are elicited from the default edge-count prior
    (expected edges = p, sd = p/2).  ``start`` is the data's ridge start
    (the one ``engine.fit`` would compute), passed to ``engine.fit`` as the
    start of its one level.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DataError(f"expected a 2-d data matrix, got shape {data.shape}")
    n0, t0_sq = intercept_prior(data.shape[1], n0, t0_sq)
    grouped = GroupedDataset(levels=(0,), data=(data,))
    hyper = Hyperparameters(
        nu0={0: float(nu0)},
        nu1=nu1,
        lambda_diag=lambda_diag,
        n0=n0,
        t0_sq=t0_sq,
    )
    report = engine_fit(
        grouped, hyper, controls, covariate_model=False,
        start=None if start is None else {0: start},
    )
    state = report.final_state
    return SslFit(
        omega=state.omega[0],
        ppi=state.ppi[0],
        elbo_trace=report.elbo_trace,
        converged=report.converged,
        state=state,
    )


def ols_beta_proxy(omegas: Mapping[int, np.ndarray]) -> np.ndarray:
    """Least-squares slope of each precision entry against the level value.

    Closed form: slope_ij = sum_a (a - abar)(omega_ij^(a) - mean) /
    sum_a (a - abar)^2, computed entrywise over levels sorted ascending.
    """
    if len(omegas) < 2:
        raise DataError("need at least 2 levels to fit slopes")
    levels = sorted(int(a) for a in omegas)
    a = np.array(levels, dtype=float)
    stack = np.stack([np.asarray(omegas[level], dtype=float) for level in levels])
    centered = a - a.mean()
    denom = float(np.sum(centered * centered))
    return np.tensordot(centered, stack, axes=(0, 0)) / denom
