"""Edge-recovery metrics and coefficient-driven network summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import DataError, Edge, edge_indicator, edge_set

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class MetricsReport:
    """Per-level edge-recovery summary of one fit against the truth."""

    per_level: dict[int, dict[str, float]]


def _upper_values(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    matrix = np.asarray(matrix, dtype=float)
    p = matrix.shape[0]
    rows, cols = np.triu_indices(p, 1)
    return matrix[rows, cols], rows, cols


def _truth_labels(
    truth: Iterable[Edge], p: int, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Boolean true-edge labels aligned with the upper-triangle pairs."""
    truth = edge_set(truth)
    if any(i < 0 or j >= p for i, j in truth):
        raise DataError(f"truth has an edge outside the {p} nodes")
    return edge_indicator(truth, p)[rows, cols] > 0.0


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, each tied block given its mean rank.

    The "average" ranking of ``scipy.stats.rankdata``, computed from the
    block sizes of one ``np.unique``: a block ending at rank e with c members
    gets e − (c − 1)/2, exact in floating point below 2**53 values.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def roc_auc(scores: np.ndarray, truth: Iterable[Edge]) -> float:
    """Probability that a true edge outscores a non-edge, ties counted half.

    Equivalent to the area under the ROC curve of the upper-triangle scores
    against the edge indicator (the rank-sum form, with NumPy mid-ranks for
    tied scores).  ±inf scores are ordered like any other; a NaN score has no
    order and is refused.
    """
    values, rows, cols = _upper_values(scores)
    if np.isnan(values).any():
        raise DataError("scores contain NaN")
    labels = _truth_labels(truth, np.shape(scores)[0], rows, cols)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("truth must contain at least one edge and one non-edge")
    ranks = _mid_ranks(values)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def precision_recall(
    ppi: np.ndarray, truth: Iterable[Edge], threshold: float = 0.5
) -> tuple[float, float]:
    """Precision and recall of the edge set {(i,j): ppi >= threshold}.

    Precision is defined as 1 when nothing is predicted, which keeps
    replicate averages well-defined; at threshold 0 every edge is predicted
    and recall is 1.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DataError("threshold must lie in [0, 1]")
    values, rows, cols = _upper_values(ppi)
    labels = _truth_labels(truth, np.shape(ppi)[0], rows, cols)
    predicted = values >= threshold
    tp = int(np.count_nonzero(predicted & labels))
    fp = int(np.count_nonzero(predicted & ~labels))
    fn = int(np.count_nonzero(~predicted & labels))
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    return precision, recall


def _first_edges(matrix: np.ndarray, k: int, descending: bool, keep=None) -> list[Edge]:
    """The first k upper-triangle edges of ``matrix`` by value.

    Edges are ordered by value, descending or ascending, ties broken by
    (row, column) ascending; ``keep``, given, maps the ordered values to a
    mask of the edges that may be chosen.  Only the chosen k become tuples.
    """
    values, rows, cols = _upper_values(matrix)
    order = np.lexsort((cols, rows, -values if descending else values))
    if keep is not None:
        order = order[keep(values[order])]
    order = order[:k]
    return list(zip(rows[order].tolist(), cols[order].tolist()))


def beta_sign_structure(
    beta_mean: np.ndarray, k: int
) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Top-k and bottom-k edges of the coefficient matrix by value.

    Returns ``(positive, negative)``: the k largest entries and the k
    smallest.  Raises an error if the two selections overlap (k too large for
    the number of distinct edges).
    """
    values, _, _ = _upper_values(beta_mean)
    if k < 0:
        raise DataError("k must be non-negative")
    if k > values.size:
        raise DataError(f"k={k} exceeds the {values.size} available edges")
    positive = frozenset(_first_edges(beta_mean, k, descending=True))
    negative = frozenset(_first_edges(beta_mean, k, descending=False))
    if positive & negative:
        raise DataError("top and bottom selections overlap; reduce k")
    return positive, negative


def top_k_edge_subnetworks(
    beta_mean: np.ndarray, k: int = 50
) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """Sign-restricted top-k subnetworks of the coefficient matrix.

    The positive subnetwork holds the k largest strictly positive entries,
    truncated to fewer when not enough entries are strictly positive; the
    negative subnetwork mirrors this with the k smallest strictly negative
    entries.
    """
    if k < 0:
        raise DataError("k must be non-negative")
    top = _first_edges(beta_mean, k, True, lambda v: v > 0.0)
    bottom = _first_edges(beta_mean, k, False, lambda v: v < 0.0)
    return frozenset(top), frozenset(bottom)


def rank_nodes_by_beta(
    beta_mean: np.ndarray, edge_filter: Iterable[Edge]
) -> list[tuple[int, float]]:
    """Nodes ordered by the summed |coefficient| of their incident edges.

    Only edges in ``edge_filter`` contribute.  Descending by score, ties
    broken by node index ascending.
    """
    matrix = np.asarray(beta_mean, dtype=float)
    p = matrix.shape[0]
    scores = np.zeros(p)
    for i, j in edge_set(edge_filter):
        weight = abs(matrix[i, j])
        scores[i] += weight
        scores[j] += weight
    order = np.lexsort((np.arange(p), -scores))
    return [(int(v), float(scores[v])) for v in order]


def evaluate_fit(
    ppi_by_level: Mapping[int, np.ndarray],
    adjacency_by_level: Mapping[int, Iterable[Edge]],
    threshold: float = 0.5,
) -> MetricsReport:
    """Per-level AUC, precision and recall of inclusion probabilities."""
    per_level: dict[int, dict[str, float]] = {}
    for level in sorted(int(a) for a in ppi_by_level):
        ppi = np.asarray(ppi_by_level[level], dtype=float)
        truth = edge_set(adjacency_by_level[level])
        precision, recall = precision_recall(ppi, truth, threshold)
        values, _, _ = _upper_values(ppi)
        per_level[level] = {
            "auc": roc_auc(ppi, truth),
            "precision": precision,
            "recall": recall,
            "n_edges_est": float(np.count_nonzero(values >= threshold)),
            "n_edges_true": float(len(truth)),
        }
    return MetricsReport(per_level=per_level)
