"""OOD detection metrics with exact, oracle-checkable definitions.

Scores follow one orientation everywhere: higher means more
in-distribution.  AUROC is the pair statistic P(id > ood) + 0.5 P(id = ood);
FPR@95 uses the largest threshold that keeps at least 95% of ID scores;
average precision treats OOD rows as positives, ranking by ascending
ID-score with ID rows placed first at ties (the pessimistic convention).
"""
from __future__ import annotations

import numpy as np

__all__ = ["auroc", "fpr_at_tpr95", "average_precision"]


def _check(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both score sets must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    return a, b


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the group mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of c tied values ending at 1-based rank e has mean rank
    # e - (c - 1) / 2; every term is an exact half-integer
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def auroc(id_scores, ood_scores) -> float:
    """P(id > ood) + 0.5 P(id = ood), via midranks in O(n log n)."""
    a, b = _check(id_scores, ood_scores)
    ranks = _midranks(np.concatenate([a, b]))
    u = ranks[: a.size].sum() - a.size * (a.size + 1) / 2.0
    return float(u / (a.size * b.size))


def fpr_at_tpr95(id_scores, ood_scores) -> float:
    """FPR on OOD at the largest threshold keeping TPR(id) >= 0.95."""
    a, b = _check(id_scores, ood_scores)
    n = a.size
    need = -((-19 * n) // 20)  # ceil(0.95 n) in exact integer arithmetic
    thresh = np.sort(a)[::-1][need - 1]
    return float(np.count_nonzero(b >= thresh) / b.size)


def average_precision(id_scores, ood_scores) -> float:
    """Step-interpolated AP of detecting OOD rows (treated as positives)."""
    a, b = _check(id_scores, ood_scores)
    scores = np.concatenate([a, b])
    is_ood = np.concatenate([np.zeros(a.size, bool), np.ones(b.size, bool)])
    # ascending ID-score = descending OOD-ness; ID first within ties
    order = np.lexsort((is_ood, scores))
    flags = is_ood[order]
    positions = np.flatnonzero(flags) + 1
    tp = np.arange(1, b.size + 1)
    return float((tp / positions).sum() / b.size)
