"""OOD detection metrics with exact, oracle-checkable definitions.

Scores follow one orientation everywhere: higher means more
in-distribution.  AUROC is the pair statistic P(id > ood) + 0.5 P(id = ood);
FPR@95 uses the largest threshold that keeps at least 95% of ID scores;
average precision treats OOD rows as positives, ranking by ascending
ID-score with ID rows placed first at ties (the pessimistic convention).

AUROC and AP sort both score sets and count with ``np.searchsorted``
(searching with sorted keys is about 3x faster than with unsorted ones
at 5000 x 5000, more than the sort costs); FPR@95 sorts neither: it
selects its threshold from the ID scores by a partition and compares.
The pairs, the OOD scores above a threshold and the ranks of the OOD
rows are exact integers, read from values alone.
"""
from __future__ import annotations

import numpy as np

__all__ = ["auroc", "fpr_at_tpr95", "average_precision"]


def _checked(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both score sets must be nonempty")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    return a, b


def auroc(id_scores, ood_scores) -> float:
    """P(id > ood) + 0.5 P(id = ood): per ID score, the OOD scores below
    it plus those at or below it, halved."""
    a, b = map(np.sort, _checked(id_scores, ood_scores))
    pairs = np.searchsorted(b, a, "left").sum() + np.searchsorted(b, a, "right").sum()
    return float(pairs / 2 / (a.size * b.size))


def fpr_at_tpr95(id_scores, ood_scores) -> float:
    """FPR on OOD at the largest threshold keeping TPR(id) >= 0.95."""
    a, b = _checked(id_scores, ood_scores)
    need = -((-19 * a.size) // 20)  # ceil(0.95 n) in exact integer arithmetic
    k = a.size - need
    threshold = np.partition(a, k)[k]  # the ID score at index k in ascending order
    return float(np.count_nonzero(b >= threshold) / b.size)


def average_precision(id_scores, ood_scores) -> float:
    """Step-interpolated AP of detecting OOD rows (treated as positives)."""
    a, b = map(np.sort, _checked(id_scores, ood_scores))
    # ascending ID-score = descending OOD-ness; ID first within ties, so
    # the k-th lowest OOD row ranks after k - 1 OOD rows and every ID row
    # at or below it
    tp = np.arange(1, b.size + 1)
    positions = tp + np.searchsorted(a, b, "right")
    return float((tp / positions).sum() / b.size)
