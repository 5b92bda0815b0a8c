"""Shared types, matrix predicates and data preparation.

Conventions used throughout the package:

* symmetric matrices are plain ``numpy`` arrays with both triangles stored
  and kept exactly equal,
* an edge set is a ``frozenset`` of index pairs ``(i, j)`` with ``i < j``,
* the scatter matrix is the unnormalised cross-product ``Y.T @ Y`` (the
  estimation routines consume the sample count separately).
"""

from __future__ import annotations

__all__ = [
    "DataError", "NumericalError", "GroupedDataset", "canonical_edge", "edge_set",
    "edge_set_from_matrix", "edge_indicator", "center_columns", "sample_covariance",
    "partial_correlations", "is_positive_definite",
]

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np


class DataError(ValueError):
    """Input data violates a structural requirement (shape, labels, files)."""


class NumericalError(ArithmeticError):
    """A numerical routine cannot proceed (singular or non-PD matrix, ...)."""


Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Return the pair ordered as (min, max); self-loops are rejected."""
    if i == j:
        raise DataError(f"self-loop ({i}, {i}) is not a valid edge")
    return (i, j) if i < j else (j, i)


def edge_set(pairs: Iterable[Sequence[int]]) -> frozenset[Edge]:
    """Canonicalise an iterable of index pairs into an edge set."""
    return frozenset(canonical_edge(int(i), int(j)) for i, j in pairs)


def edge_set_from_matrix(m: np.ndarray, tol: float = 1e-12) -> frozenset[Edge]:
    """Edges where the upper-triangle magnitude exceeds ``tol``."""
    m = np.asarray(m)
    i, j = np.nonzero(np.triu(np.abs(m) > tol, k=1))
    return frozenset(zip(i.tolist(), j.tolist()))


def edge_indicator(edges: Iterable[Edge], p: int) -> np.ndarray:
    """Symmetric 0/1 matrix with ones on ``edges`` and zero diagonal."""
    out = np.zeros((p, p))
    for i, j in edges:
        out[i, j] = out[j, i] = 1.0
    return out


def center_columns(data: np.ndarray, scale: bool = False) -> np.ndarray:
    """Subtract column means; optionally rescale columns to unit sample sd.

    ``scale=True`` divides by the ``ddof=1`` standard deviation and fails on
    constant columns.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DataError(f"expected a 2-d data matrix, got shape {data.shape}")
    if data.shape[0] < 2:
        raise DataError("need at least 2 rows to center a data matrix")
    out = data - data.mean(axis=0)
    if scale:
        sd = out.std(axis=0, ddof=1)
        if np.any(sd == 0.0):
            col = int(np.flatnonzero(sd == 0.0)[0])
            raise DataError(f"column {col} has zero variance; cannot scale")
        out = out / sd
    return out


def sample_covariance(data: np.ndarray) -> np.ndarray:
    """Unnormalised scatter matrix ``Y.T @ Y`` of a centered data matrix."""
    data = np.asarray(data, dtype=float)
    s = data.T @ data
    return 0.5 * (s + s.T)


def is_positive_definite(m: np.ndarray) -> bool:
    """True iff a Cholesky factorization of the symmetric matrix succeeds."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        return False
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def partial_correlations(omega: np.ndarray) -> np.ndarray:
    """Partial correlation matrix implied by a precision matrix.

    Off-diagonals are ``-omega_ij / sqrt(omega_ii * omega_jj)``; the diagonal
    is set to 1.  Requires strictly positive diagonal entries.
    """
    omega = np.asarray(omega, dtype=float)
    d = np.diag(omega)
    if np.any(d <= 0.0):
        raise NumericalError("precision matrix has non-positive diagonal entries")
    inv_sd = 1.0 / np.sqrt(d)
    rho = -omega * np.outer(inv_sd, inv_sd)
    np.fill_diagonal(rho, 1.0)
    return rho


@dataclass(frozen=True)
class GroupedDataset:
    """Per-covariate-level data matrices sharing a common variable set.

    ``levels`` are the distinct integer values of the ordinal covariate, in
    the order the groups are stored.  Each ``data`` matrix is N_a x P.
    """

    levels: tuple[int, ...]
    data: tuple[np.ndarray, ...]
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        levels = tuple(int(a) for a in self.levels)
        data = tuple(np.asarray(y, dtype=float) for y in self.data)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "data", data)
        if len(levels) == 0:
            raise DataError("GroupedDataset needs at least one level")
        if len(set(levels)) != len(levels):
            raise DataError(f"covariate levels must be distinct, got {levels}")
        if len(data) != len(levels):
            raise DataError("one data matrix required per level")
        p = None
        for a, y in zip(levels, data):
            if y.ndim != 2:
                raise DataError(f"group {a}: expected a 2-d matrix, got shape {y.shape}")
            if y.shape[0] < 2:
                raise DataError(f"group {a}: needs at least 2 samples, got {y.shape[0]}")
            finite = np.isfinite(y)
            if not finite.all():
                row, col = np.argwhere(~finite)[0]
                raise DataError(
                    f"group {a}: non-finite value {float(y[row, col])} "
                    f"at row {int(row)}, column {int(col)}"
                )
            if p is None:
                p = y.shape[1]
            elif y.shape[1] != p:
                raise DataError(
                    f"group {a}: has {y.shape[1]} variables, expected {p}"
                )
        if self.variable_names is not None:
            names = tuple(str(n) for n in self.variable_names)
            object.__setattr__(self, "variable_names", names)
            if len(names) != p:
                raise DataError(
                    f"{len(names)} variable names given for {p} variables"
                )

    @property
    def p(self) -> int:
        return self.data[0].shape[1]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(y.shape[0] for y in self.data)

    def group(self, level: int) -> np.ndarray:
        return self.data[self.levels.index(int(level))]

    def prepare(self, scale: bool = False) -> "GroupedDataset":
        """Return a copy with every group column-centered (optionally scaled)."""
        return replace(self, data=tuple(center_columns(y, scale=scale) for y in self.data))

    def is_centered(self, tol: float = 1e-10) -> bool:
        return all(np.max(np.abs(y.mean(axis=0))) <= tol for y in self.data)


def parallel_map(function: Callable, tasks: Iterable[Sequence], workers: int = 1) -> list:
    """``[function(*task) for task in tasks]``, over up to ``workers`` processes.

    More than one worker and task run in a pool of ``min(workers,
    len(tasks))`` processes, forked since spawn and forkserver re-run an
    unguarded ``__main__``; ``function``, tasks and results must pickle.
    Each task runs whole in one process, so the results equal the serial
    ones bit for bit; a task's exception reaches the caller with its type.
    """
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [function(*task) for task in tasks]
    # Imported here, so that ``import ordnet`` does not pay for the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(function, *task) for task in tasks]
        return [future.result() for future in futures]
