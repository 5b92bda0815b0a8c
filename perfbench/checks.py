"""Output checks and fit quality, computed by the benchmark from the files the CLI wrote.

Quality is computed here with numpy and scipy rather than through
``ordnet.metrics``, and then compared with the CSV that ``ordnet evaluate``
wrote, so a fault in either shows up as a failed check.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from ordnet.core import is_positive_definite

PPI_THRESHOLD = 0.5
# Acceptance criterion 4: an ELBO step may fall by at most 1e-6 of |previous|.
ELBO_STEP_TOL = 1e-6
SYMMETRY_TOL = 1e-12
EVALUATE_TOL = 1e-9


@dataclass
class Ledger:
    """Attempted and failed operations of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    failures: list[dict] = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append({"operation": name, "detail": detail[-2000:]})


def read_document(path: Path, kind: str) -> dict:
    """Parse a JSON output and require schema 1.x and the expected kind."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if not (isinstance(version, str) and version.split(".", 1)[0] == "1"):
        raise ValueError(f"{path.name}: schema_version {version!r} is not 1.x")
    if doc.get("kind") != kind:
        raise ValueError(f"{path.name}: kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


def edge_quality(ppi: np.ndarray, edges: list[list[int]]) -> dict[str, float]:
    """ROC AUC (rank-sum form, ties half), average precision, and precision,
    recall and F1 of the edge set at PPI >= 0.5."""
    p = ppi.shape[0]
    truth = np.zeros((p, p), dtype=bool)
    for i, j in edges:
        truth[i, j] = truth[j, i] = True
    rows, cols = np.triu_indices(p, 1)
    scores, labels = ppi[rows, cols], truth[rows, cols]
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores)
    auc = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    # Average precision: precision at each distinct score, weighted by the
    # recall gained there (tied scores enter as one threshold).
    order = np.argsort(-scores, kind="mergesort")
    ranked, hits = scores[order], labels[order]
    last = np.r_[np.nonzero(np.diff(ranked))[0], ranked.size - 1]
    tp_at = np.cumsum(hits)[last]
    recall_at = tp_at / n_pos
    aupr = float(np.sum(np.diff(np.r_[0.0, recall_at]) * tp_at / (last + 1)))
    predicted = scores >= PPI_THRESHOLD
    tp = int(np.count_nonzero(predicted & labels))
    fp = int(np.count_nonzero(predicted & ~labels))
    fn = n_pos - tp
    return {
        "auc": float(auc),
        "aupr": aupr,
        "precision": 1.0 if tp + fp == 0 else tp / (tp + fp),
        "recall": tp / n_pos,
        "f1": 2.0 * tp / (2 * tp + fp + fn),
        "edges_ppi05": tp + fp,
        "edges_true": n_pos,
    }


def _per_level(value, level: str):
    """Joint fits store one trace for all levels; single-network fits one per level."""
    return value[level] if isinstance(value, dict) else value


def check_outputs(work: Path, select: bool, rank: bool, ledger: Ledger) -> list[dict] | None:
    """Check every output of one pass; return per-level quality, or None if unreadable.

    Each check is one operation in ``ledger``.  The grid points of a spike
    search count as operations too, failed where the search reported an
    error for that point.
    """
    try:
        fit = read_document(work / "fit.json", "fit")
        truth = read_document(work / "data" / "truth.json", "truth")
    except (OSError, ValueError) as exc:
        ledger.record("fit.json parses with schema 1.x", False, str(exc))
        return None
    ledger.record("fit.json parses with schema 1.x", True)

    selection = None
    if select:
        try:
            selection = read_document(work / "nu0.json", "nu0_selection")
            points = [
                (entry["level"], value, message)
                for entry in selection["levels"]
                for value, message in zip(selection["grid"], entry["failures"])
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ledger.record("nu0.json parses with schema 1.x", False, repr(exc))
            selection = None
        else:
            ledger.record("nu0.json parses with schema 1.x", True)
            for level, value, message in points:
                ledger.record(f"select-nu0 level {level} nu0={value:g}", not message, message)

    try:
        quality = _check_levels(fit, truth, selection, ledger)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        ledger.record("fit.json has every field of a fit document", False, repr(exc))
        return None
    _check_evaluate_csv(work / "metrics.csv", quality, ledger)
    if rank:
        _check_rank_csv(work / "rank_nodes.csv", int(fit["p"]), ledger)
    return quality


def _check_levels(fit: dict, truth: dict, selection: dict | None, ledger: Ledger) -> list[dict]:
    quality = []
    for key in (str(a) for a in fit["levels"]):
        ppi = np.array(fit["ppi"][key], dtype=float)
        omega = np.array(fit["omega"][key], dtype=float)
        trace = _per_level(fit["elbo_trace"], key)
        ledger.record(
            f"level {key}: every PPI in [0, 1]",
            bool(np.all((ppi >= 0.0) & (ppi <= 1.0))),
        )
        scale = max(1.0, float(np.max(np.abs(omega))))
        ledger.record(
            f"level {key}: omega symmetric",
            bool(np.max(np.abs(omega - omega.T)) <= SYMMETRY_TOL * scale),
        )
        ledger.record(f"level {key}: omega positive definite", is_positive_definite(omega))
        finite = bool(trace) and all(math.isfinite(v) for v in trace)
        drops = [
            (b - a) / abs(a) for a, b in zip(trace, trace[1:]) if b - a < -ELBO_STEP_TOL * abs(a)
        ]
        ledger.record(
            f"level {key}: ELBO trace is finite and ascends", finite and not drops,
            f"{len(trace)} values, finite {finite}, relative drops {drops[:5]}",
        )
        if selection is not None:
            chosen = selection["selected"].get(key)
            used = fit["hyperparameters"]["nu0"][key]
            ledger.record(
                f"level {key}: selected nu0 is a grid value and was fitted",
                chosen in selection["grid"] and used == chosen,
                f"selected {chosen!r}, fitted {used!r}",
            )
        row = {
            "level": int(key),
            "iterations": int(_per_level(fit["iterations"], key)),
            "converged": bool(_per_level(fit["converged"], key)),
            "elbo_final": float(trace[-1]) if trace else math.nan,
        }
        row.update(edge_quality(ppi, truth["adjacency"][key]))
        quality.append(row)
    return quality


def _check_evaluate_csv(path: Path, quality: list[dict], ledger: Ledger) -> None:
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = {int(r["level"]): r for r in csv.DictReader(fh)}
        mismatches = [
            (q["level"], name)
            for q in quality
            for name in ("auc", "precision", "recall")
            if abs(float(rows[q["level"]][name]) - q[name]) > EVALUATE_TOL
        ]
    except (OSError, KeyError, ValueError) as exc:
        ledger.record("evaluate CSV matches the benchmark's metrics", False, repr(exc))
        return
    ledger.record(
        "evaluate CSV matches the benchmark's metrics", not mismatches, f"differ: {mismatches}"
    )


def _check_rank_csv(path: Path, p: int, ledger: Ledger) -> None:
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            nodes = sorted(int(r["node"]) for r in csv.DictReader(fh))
    except (OSError, KeyError, ValueError) as exc:
        ledger.record("rank lists every node once", False, repr(exc))
        return
    ledger.record("rank lists every node once", nodes == list(range(p)), f"{len(nodes)} rows")


def summarise_quality(quality: list[dict] | None, joint: bool) -> dict[str, tuple[float, str]]:
    """End-to-end quality: mean AUC over levels and the negated final ELBO.

    A joint fit has one ELBO for all levels; independent single-network fits
    add up to the ELBO of the product model, so their final values are summed.
    The ELBO enters negated so that the metric is positive (lower is better).
    Missing or non-finite quality (an output that failed its checks) reads as
    the worst value, so that it can only look like a regression.
    """
    auc, neg_elbo = math.nan, math.nan
    if quality:
        elbos = [q["elbo_final"] for q in quality]
        auc = float(np.mean([q["auc"] for q in quality]))
        neg_elbo = -(elbos[0] if joint else float(np.sum(elbos)))
    return {
        "auc_mean": (auc if math.isfinite(auc) else 0.0, "1"),
        "neg_elbo_final": (neg_elbo if math.isfinite(neg_elbo) else sys.float_info.max, "nats"),
    }
