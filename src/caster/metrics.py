"""Classification metrics implemented directly from their definitions.

roc_auc integrates the ROC curve trapezoidally, which equals the
probability that a random positive outranks a random negative with ties
counted one half.  pr_auc uses step-wise (right-continuous) interpolation
at each distinct score threshold, so reported numbers are reproducible.
"""

from __future__ import annotations

import numpy as np


def _validated(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError(f"scores and labels must be equal-length vectors, got {s.shape} vs {y.shape}")
    if len(s) == 0:
        raise ValueError("empty input")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    return s, y.astype(np.float64)


def _curve_counts(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (tp, fp) after each distinct descending score threshold."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    distinct = np.flatnonzero(np.diff(s_sorted) != 0)
    bounds = np.concatenate([distinct, [len(s_sorted) - 1]])
    tp = np.cumsum(y_sorted)[bounds]
    fp = np.cumsum(1.0 - y_sorted)[bounds]
    return tp, fp


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve (true positive rate vs false positive rate)."""
    s, y = _validated(scores, labels)
    n_pos = y.sum()
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one positive and one negative")
    tp, fp = _curve_counts(s, y)
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    return float(np.trapezoid(tpr, fpr))


def pr_auc(scores, labels) -> float:
    """Area under the precision-recall curve, step-wise interpolation."""
    s, y = _validated(scores, labels)
    n_pos = y.sum()
    if n_pos == 0:
        raise ValueError("pr_auc needs at least one positive")
    tp, fp = _curve_counts(s, y)
    precision = tp / (tp + fp)
    recall = tp / n_pos
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * precision))


def f1_at_threshold(scores, labels, threshold: float = 0.5) -> float:
    """F1 of the thresholded predictions (score >= threshold); 0 when undefined."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    s, y = _validated(scores, labels)
    pred = s >= threshold
    tp = float(np.sum(pred & (y == 1)))
    fp = float(np.sum(pred & (y == 0)))
    fn = float(np.sum(~pred & (y == 1)))
    if tp == 0.0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def coefficient_correlation(runs) -> tuple[np.ndarray, float]:
    """Pairwise Pearson correlation between coefficient vectors from repeated runs.

    Returns the full correlation matrix and the mean of its off-diagonal
    entries; raises on fewer than two runs or a zero-variance vector.
    """
    mat = np.asarray(runs, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ValueError("need at least two equal-length coefficient vectors")
    if np.any(mat.var(axis=1) == 0.0):
        raise ValueError("a coefficient vector has zero variance")
    corr = np.corrcoef(mat)
    m = mat.shape[0]
    mean_off = float((corr.sum() - np.trace(corr)) / (m * (m - 1)))
    return corr, mean_off


def write_report(path, values: dict[str, float]) -> None:
    """Single-line TSV metrics report: roc_auc, pr_auc, f1."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{values['roc_auc']:.6f}\t{values['pr_auc']:.6f}\t{values['f1']:.6f}\n")


HISTORY_COLUMNS = ("epoch", "loss", "recon", "proj", "clf", "val_roc_auc")
PRETRAIN_HISTORY_COLUMNS = ("epoch", "batch", "loss", "recon", "proj")
_COUNTS = ("epoch", "batch")


def write_history(path, rows: list[dict], columns: tuple[str, ...] = HISTORY_COLUMNS) -> None:
    """History rows as TSV: epoch and batch as integers, every other column
    to six decimals."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(str(row[c]) if c in _COUNTS else f"{row[c]:.6f}" for c in columns) + "\n")
