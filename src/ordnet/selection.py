"""Extended BIC and per-level line search for the spike standard deviation.

The spike standard deviation controls how aggressively small precision
entries are shrunk to zero.  It is chosen per level by fitting the
single-network baseline over a grid of candidates and keeping the value whose
sparsified estimate minimises the extended BIC.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baseline import SslFit, fit_ssl
from .core import DataError, GroupedDataset, NumericalError, sample_covariance
from .engine import FitControls, intercept_prior, refit_precision

_EDGE_EPS = 1e-8
# Candidates in the default grid.
_GRID_POINTS = 20
# A fit's edge set for the extended BIC: the median-probability model.
_EDGE_PPI = 0.5


@dataclass(frozen=True)
class Nu0SearchConfig:
    """Candidate grid and extended-BIC weight for the line search."""

    grid: tuple[float, ...]
    gamma_ebic: float = 0.5

    def __post_init__(self) -> None:
        grid = tuple(float(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        if not grid:
            raise DataError("the candidate grid must not be empty")
        if grid[0] <= 0.0:
            raise DataError("grid values must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DataError("grid values must be strictly increasing")
        if not 0.0 <= self.gamma_ebic <= 1.0:
            raise DataError("gamma_ebic must lie in [0, 1]")

    @classmethod
    def for_slab(cls, nu1: float = 1.0, gamma_ebic: float = 0.5) -> "Nu0SearchConfig":
        """Default grid: log-spaced candidates from 1e-3 up to nu1/10."""
        return cls(grid=tuple(np.geomspace(1e-3, nu1 / 10.0, _GRID_POINTS)), gamma_ebic=gamma_ebic)


@dataclass(frozen=True)
class Nu0SearchResult:
    """Per-level grid evaluations and the selected spike standard deviations.

    ``ebic`` holds one value per grid point (NaN where the fit failed);
    ``failures`` the corresponding error messages ('' where the fit
    succeeded).
    """

    selected: dict[int, float]
    grid: tuple[float, ...]
    ebic: dict[int, tuple[float, ...]]
    failures: dict[int, tuple[str, ...]]


def gaussian_log_likelihood(omega: np.ndarray, data: np.ndarray) -> float:
    """Log likelihood of centered data under the zero-mean Gaussian with this precision."""
    omega = np.asarray(omega, dtype=float)
    data = np.asarray(data, dtype=float)
    n, p = data.shape
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise NumericalError("precision matrix is not positive definite")
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    scatter = sample_covariance(data)
    return 0.5 * n * logdet - 0.5 * float(np.sum(scatter * omega)) \
        - 0.5 * n * p * math.log(2.0 * math.pi)


def ebic(
    omega: np.ndarray,
    data: np.ndarray,
    gamma: float = 0.5,
    n_edges: int | None = None,
) -> float:
    """Extended BIC: -2 loglik + |E| log N + 4 gamma |E| log P.

    ``n_edges`` defaults to the count of upper-triangle entries exceeding
    1e-8 in magnitude; pass it explicitly when the edge set was decided by
    inclusion probabilities rather than by thresholding ``omega``.
    """
    if gamma < 0.0:
        raise DataError("gamma must be non-negative")
    omega = np.asarray(omega, dtype=float)
    data = np.asarray(data, dtype=float)
    n, p = data.shape
    if n_edges is None:
        iu = np.triu_indices(p, 1)
        n_edges = int(np.count_nonzero(np.abs(omega[iu]) > _EDGE_EPS))
    loglik = gaussian_log_likelihood(omega, data)
    return -2.0 * loglik + n_edges * math.log(n) + 4.0 * gamma * n_edges * math.log(p)


def ebic_for_ssl_fit(
    fit: SslFit,
    data: np.ndarray,
    *,
    nu0: float,
    nu1: float = 1.0,
    lambda_diag: float = 1.0,
    gamma: float = 0.5,
) -> float:
    """Extended BIC of a fit under the median-probability edge set.

    Edges are those with inclusion probability >= 0.5; entries outside the
    edge set are re-shrunk to the spike before the likelihood is evaluated,
    so the edge count and the likelihood describe the same estimate.
    """
    data = np.asarray(data, dtype=float)
    n, p = data.shape
    selected = fit.ppi >= _EDGE_PPI
    np.fill_diagonal(selected, False)
    d = np.where(selected, 1.0 / (nu1 * nu1), 1.0 / (nu0 * nu0))
    scatter = sample_covariance(data)
    refit = refit_precision(fit.omega, scatter, n, d, lambda_diag)
    iu = np.triu_indices(p, 1)
    n_edges = int(np.count_nonzero(selected[iu]))
    return ebic(refit, data, gamma, n_edges=n_edges)


def line_search_nu0(
    data: GroupedDataset,
    nu1: float = 1.0,
    config: Nu0SearchConfig | None = None,
    *,
    lambda_diag: float = 1.0,
    n0: float | None = None,
    t0_sq: float | None = None,
    controls: FitControls | None = None,
    workers: int = 1,
) -> Nu0SearchResult:
    """Select each level's spike standard deviation by extended-BIC line search.

    Every level is searched independently: the single-network baseline is fit
    at each grid value and the candidate minimising the extended BIC wins,
    with ties broken toward the larger value.  ``data`` must be centered.
    Grid points whose fit fails are skipped and reported; a level where every
    point fails raises an error listing the per-point failures.
    """
    if config is None:
        config = Nu0SearchConfig.for_slab(nu1)
    if config.grid[-1] >= nu1:
        raise DataError("grid values must stay below nu1")
    if not data.is_centered(1e-6):
        raise DataError("data must be column-centered; call GroupedDataset.prepare()")
    n0, t0_sq = intercept_prior(data.p, n0, t0_sq)

    def evaluate(level: int, candidate: float) -> tuple[float, str]:
        y = data.group(level)
        try:
            fit = fit_ssl(y, candidate, nu1, lambda_diag, n0, t0_sq, controls)
            value = ebic_for_ssl_fit(
                fit, y, nu0=candidate, nu1=nu1, lambda_diag=lambda_diag,
                gamma=config.gamma_ebic,
            )
            return value, ""
        except (DataError, NumericalError) as exc:
            return math.nan, str(exc)

    tasks = [(a, g) for a in data.levels for g in config.grid]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda t: evaluate(*t), tasks))
    else:
        outcomes = [evaluate(a, g) for a, g in tasks]

    results = dict(zip(tasks, outcomes))
    selected: dict[int, float] = {}
    ebic_by_level: dict[int, tuple[float, ...]] = {}
    failures: dict[int, tuple[str, ...]] = {}
    for a in data.levels:
        values = tuple(results[(a, g)][0] for g in config.grid)
        messages = tuple(results[(a, g)][1] for g in config.grid)
        ebic_by_level[a] = values
        failures[a] = messages
        if all(math.isnan(v) for v in values):
            details = "; ".join(
                f"nu0={g:g}: {msg}" for g, msg in zip(config.grid, messages)
            )
            raise NumericalError(f"all grid points failed for level {a}: {details}")
        best_idx = None
        for i, v in enumerate(values):
            if math.isnan(v):
                continue
            if best_idx is None or v <= values[best_idx]:
                best_idx = i
        selected[a] = config.grid[best_idx]
    return Nu0SearchResult(
        selected=selected, grid=config.grid, ebic=ebic_by_level, failures=failures
    )
