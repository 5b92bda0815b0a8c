"""Extended BIC and per-level line search for the spike standard deviation.

The spike standard deviation controls how aggressively small precision
entries are shrunk to zero.  It is chosen per level by fitting the
single-network baseline over a grid of candidates and keeping the value whose
sparsified estimate minimises the extended BIC.  Every fit of a level starts
from the same ridge estimate, the one ``engine.fit`` would compute (with the
slab narrowed on a level with fewer samples than variables), which does not
depend on the spike, so it is computed once per level and shared by the
level's grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baseline import SslFit, fit_ssl
from .core import DataError, GroupedDataset, NumericalError, parallel_map, sample_covariance
from .engine import FitControls, Hyperparameters, intercept_prior
from .engine import _logdet, _start_slab, _symmetric, refit_precision, ridge_start

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
        if not all(math.isfinite(g) for g in grid):
            raise DataError(f"grid values must be finite, got {grid}")
        if grid[0] <= 0.0:
            raise DataError("grid values must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DataError("grid values must be strictly increasing")
        if not 0.0 <= self.gamma_ebic <= 1.0:
            raise DataError("gamma_ebic must lie in [0, 1]")

    @classmethod
    def for_slab(cls, nu1: float = 1.0, gamma_ebic: float = 0.5) -> "Nu0SearchConfig":
        """Default grid: log-spaced candidates from 1e-3 up to nu1/10."""
        if not 0.0 < nu1 < math.inf:
            raise DataError(f"nu1 must be positive and finite, got {nu1}")
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
    logdet = _logdet(chol)
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
    selected = fit.state.ppi_pairs[0] >= _EDGE_PPI
    d = _symmetric(np.where(selected, 1.0 / (nu1 * nu1), 1.0 / (nu0 * nu0)), p)
    scatter = sample_covariance(data)
    refit = refit_precision(fit.omega, scatter, n, d, lambda_diag)
    return ebic(refit, data, gamma, n_edges=int(np.count_nonzero(selected)))


def _search_level(
    y: np.ndarray, start: np.ndarray | None, failure: str, config: Nu0SearchConfig,
    nu1: float, lambda_diag: float, n0: float, t0_sq: float, controls: FitControls | None,
) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """One level's extended BIC and failure message ('' if none) at each grid value.

    ``start`` is the level's ridge start; where it is None, its computation
    failed with ``failure`` and so does every grid point.
    """
    values, messages = [], []
    for candidate in config.grid:
        value, message = math.nan, failure
        if start is not None:
            try:
                fit = fit_ssl(y, candidate, nu1, lambda_diag, n0, t0_sq, controls, start=start)
                value = ebic_for_ssl_fit(
                    fit, y, nu0=candidate, nu1=nu1, lambda_diag=lambda_diag,
                    gamma=config.gamma_ebic,
                )
            except (DataError, NumericalError) as exc:
                message = str(exc)
        values.append(value)
        messages.append(message)
    return tuple(values), tuple(messages)


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
    point fails raises an error listing the per-point failures.  The settings
    shared by all fits are checked before the first one, with the checks of
    ``Hyperparameters``; a bad grid value fails only its own point.  Up to
    ``workers`` processes search the levels, from ridge starts computed here
    once per level, with results equal to the serial ones bit for bit.
    """
    if not data.is_centered(1e-6):
        raise DataError("data must be column-centered; call GroupedDataset.prepare()")
    n0, t0_sq = intercept_prior(data.p, n0, t0_sq)
    # The ridge starts below use these settings before any fit checks them;
    # nu1/10 stands in for the spike, which each grid fit checks itself.
    Hyperparameters(nu0={0: nu1 / 10.0}, nu1=nu1, lambda_diag=lambda_diag, n0=n0, t0_sq=t0_sq)
    if config is None:
        config = Nu0SearchConfig.for_slab(nu1)
    if config.grid[-1] >= nu1:
        raise DataError("grid values must stay below nu1")

    def level_task(level: int) -> tuple:
        y = data.group(level)
        slab = _start_slab(y.shape[0], data.p, nu1)
        try:
            start, failure = ridge_start(sample_covariance(y), y.shape[0], slab, lambda_diag), ""
        except (DataError, NumericalError) as exc:
            start, failure = None, str(exc)
        return (y, start, failure, config, nu1, lambda_diag, n0, t0_sq, controls)

    tasks = [level_task(a) for a in data.levels]
    outcomes = dict(zip(data.levels, parallel_map(_search_level, tasks, workers)))
    selected: dict[int, float] = {}
    for a, (values, messages) in outcomes.items():
        # The smallest value wins; a tie goes to the larger grid value.
        ranked = [(v, -i) for i, v in enumerate(values) if not math.isnan(v)]
        if not ranked:
            details = "; ".join(f"nu0={g:g}: {msg}" for g, msg in zip(config.grid, messages))
            raise NumericalError(f"all grid points failed for level {a}: {details}")
        selected[a] = config.grid[-min(ranked)[1]]
    return Nu0SearchResult(
        selected=selected,
        grid=config.grid,
        ebic={a: values for a, (values, _) in outcomes.items()},
        failures={a: messages for a, (_, messages) in outcomes.items()},
    )
