"""Post-hoc OOD scorers over a frozen model.

Every scorer returns a scalar where HIGHER means more in-distribution;
the metrics module never needs per-scorer sign handling.  Scorers that
use training statistics are refit at every incremental step on the rows
available at that step (new-task train plus replay memory).  A batch
takes one frozen forward pass through the model (``CilModel``): the
penultimate features, the logits and the softmax are each computed at
most once, and only when the scorer reads them.  ODIN alone runs two
passes, and its input gradient comes from ``CilModel.backprop_input``.

Hyperparameter defaults follow the methods' original papers: ODIN
T=1000 / eps=0.0014, ReAct 90th percentile, GEN gamma=0.1 with the top
min(100, C) probabilities, k=10 neighbours for the feature-bank scorers.
``relation_simplified`` is a deliberately reduced form of the relation
scorer (positive-cosine neighbours weighted by their MSP).

The feature-bank scorers compare queries with the bank in 48-row slices
scored on a thread pool, one worker per usable core (numpy's matmul and
argpartition release the GIL).  Each worker holds one slice of
similarities at a time, and no more workers run than a budget of 2^21
similarities holds slices (16 MB, or one worker for a bank of more than
43690 rows), so memory is bounded by the budget and not by queries x
bank.  Every row's scores come from the same 48-row BLAS call whatever
the worker count, so the scores do not depend on it.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .configcheck import check_field_types
from .numerics import l2_rows, logsumexp_rows, softmax_rows

__all__ = [
    "PosthocParams",
    "ScorerFit",
    "SCORER_NAMES",
    "fit_scorer",
    "score_batch",
]

SCORER_NAMES = (
    "msp",
    "maxlogit",
    "energy",
    "gen",
    "odin",
    "react",
    "klm",
    "nnguide",
    "relation_simplified",
)

_NEEDS_FIT = ("react", "klm", "nnguide", "relation_simplified")


@dataclass(frozen=True)
class PosthocParams:
    tau: float = 1.0
    odin_temperature: float = 1000.0
    odin_epsilon: float = 0.0014
    react_percentile: float = 90.0
    gen_gamma: float = 0.1
    gen_top_m: int = 100
    knn_k: int = 10

    def __post_init__(self):
        check_field_types(self)
        if min(self.tau, self.odin_temperature) <= 0:
            raise ValueError("temperatures must be positive")
        if self.gen_gamma <= 0:
            # a negative power of a zero probability is inf, and at 0 every
            # row scores -m
            raise ValueError("gen_gamma must be positive")
        if min(self.gen_top_m, self.knn_k) < 1:
            raise ValueError("gen_top_m and knn_k must be >= 1")
        if not 0 < self.react_percentile <= 100:
            # at 0 or below the threshold is the smallest feature, so
            # every row clips to it and every score ties
            raise ValueError("react_percentile must lie in (0, 100]")
        if self.odin_epsilon < 0:
            # a negative step pushes inputs toward lower confidence
            raise ValueError("odin_epsilon must be nonnegative")


@dataclass
class ScorerFit:
    """ID statistics for the scorers that need them; immutable after fit."""

    react_threshold: float | None = None
    klm_templates: np.ndarray | None = None  # (n_templates, C), floored
    bank_features: np.ndarray | None = None  # L2-normalized penultimates
    bank_msp: np.ndarray | None = None


def percentile_nearest_rank(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: sorted[ceil(p/100 * n) - 1]."""
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if flat.size == 0:
        raise ValueError("empty sample")
    rank = max(1, math.ceil(p / 100.0 * flat.size))
    return float(flat[min(rank, flat.size) - 1])


def fit_scorer(
    name: str, model, fit_features: np.ndarray, params: PosthocParams | None = None
) -> ScorerFit | None:
    """Fit ID statistics for ``name`` from raw feature rows; None when the
    scorer is purely output-based."""
    params = params or PosthocParams()
    if name not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {name!r}")
    if name not in _NEEDS_FIT:
        return None
    Z = model.penultimate(np.asarray(fit_features, dtype=np.float64))
    if name == "react":
        if params.react_percentile >= 100.0:
            thresh = np.inf  # clipping disabled
        else:
            thresh = percentile_nearest_rank(Z, params.react_percentile)
        return ScorerFit(react_threshold=thresh)
    P = softmax_rows(model.head.logits(Z))
    if name == "klm":
        preds = np.argmax(P, axis=1)
        templates = []
        for k in range(model.head.n_classes):
            sel = preds == k
            if np.any(sel):
                templates.append(np.maximum(P[sel].mean(axis=0), 1e-12))
        return ScorerFit(klm_templates=np.array(templates))
    # feature banks for nnguide / relation_simplified
    return ScorerFit(bank_features=l2_rows(Z), bank_msp=P.max(axis=1))


# The similarity budget in cells, shared by the worker threads: each
# computes one slice of rows x bank similarities at a time, and no more
# workers run than the budget holds slices, so memory does not grow with
# the number of queries.
_BLOCK_CELLS = 1 << 21  # 16 MB of float64
# Queries are compared with the bank in slices of this many rows, one BLAS
# call each.  OpenBLAS multiplies in row tiles and finishes leftover rows
# with other kernels, so a block edge that cuts a tile can change the last
# bits of those rows.  48 covers the x86 dgemm row tiles: with
# single-threaded BLAS, blocks of 24 or 48 rows matched the full product bit
# for bit on an AVX-512 Xeon, blocks of 16, 32 or 64 rows did not, and
# one-row blocks (computed by gemv) never did.  With two BLAS threads none
# of the block sizes tried matched the full product or each other, so the
# slice is fixed and the scores never depend on how many workers there are.
_SLICE_ROWS = 48


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _top_k(part: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest values and their column indices, both (m, k),
    in ascending value with ties in column order.  Columns tied with the
    k-th largest value enter the k lowest first.

    ``argpartition`` leaves open which of several tied columns enter the
    k, and its choice changes with the CPU features numpy dispatches on.
    Partitioning one place lower also gives the largest value left out:
    only a row where that value equals the smallest of its k can have
    such a choice, and only those rows are sorted in full, stably.
    """
    m, nb = part.shape
    rows = np.arange(m)[:, None]
    if k == nb:
        cols = np.broadcast_to(np.arange(nb), part.shape)
    else:
        parted = np.argpartition(part, nb - k - 1, axis=1)
        cols = parted[:, -k:]
        left_out = part[rows[:, 0], parted[:, -k - 1]]
    vals = part[rows, cols]
    order = np.lexsort((cols, vals), axis=1)
    vals, cols = vals[rows, order], cols[rows, order]
    if k < nb:
        for r in np.flatnonzero(left_out == vals[:, 0]):
            keep = np.argsort(-part[r], kind="stable")[:k]
            keep = keep[np.lexsort((keep, part[r, keep]))]
            vals[r], cols[r] = part[r, keep], keep
    return vals, cols


def _topk_sims(
    fit: ScorerFit, Z: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarities of each row to its k nearest bank rows and the
    bank indices of those rows, both (n, min(k, bank)), each row in
    ascending similarity with ties in bank order.  Bank rows tied at the
    k-th similarity enter in bank order (:func:`_top_k`), so neither
    the k nor their order depends on how numpy's ``argpartition`` runs."""
    Q = l2_rows(Z)
    bank_t = fit.bank_features.T
    n, nb = Q.shape[0], bank_t.shape[1]
    k = min(k, nb)
    starts = range(0, n, _SLICE_ROWS)
    fit_in_budget = _BLOCK_CELLS // (_SLICE_ROWS * nb)
    workers = max(1, min(_usable_cores(), len(starts), fit_in_budget))
    sims = np.empty((n, k))
    idx = np.empty((n, k), dtype=np.intp)

    def score_slice(start: int) -> None:
        rows = slice(start, start + _SLICE_ROWS)
        sims[rows], idx[rows] = _top_k(Q[rows] @ bank_t, k)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(score_slice, starts))  # re-raises a worker's error
    return sims, idx


def score_batch(
    name: str,
    model,
    fit: ScorerFit | None,
    X: np.ndarray,
    params: PosthocParams | None = None,
) -> np.ndarray:
    """Scores for a batch of raw feature rows (higher = more ID)."""
    params = params or PosthocParams()
    X = np.asarray(X, dtype=np.float64)
    if name not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {name!r}")
    if name == "odin":
        return _score_odin_batch(model, X, params)
    Z = model.penultimate(X)
    if name == "relation_simplified":
        sims, idx = _topk_sims(fit, Z, params.knn_k)
        return (np.maximum(sims, 0.0) * fit.bank_msp[idx]).sum(axis=1)
    if name == "react":
        Z = np.minimum(Z, fit.react_threshold)
    logits = model.head.logits(Z)
    if name in ("energy", "react"):
        return logsumexp_rows(logits, params.tau)
    if name == "maxlogit":
        return logits.max(axis=1)
    if name == "nnguide":
        sims, _ = _topk_sims(fit, Z, params.knn_k)
        return logsumexp_rows(logits, params.tau) * sims.mean(axis=1)
    P = softmax_rows(logits)
    if name == "msp":
        return P.max(axis=1)
    if name == "gen":
        g = params.gen_gamma
        m = min(params.gen_top_m, P.shape[1])
        top = np.sort(P, axis=1)[:, -m:]
        return -((top**g) * ((1.0 - top) ** g)).sum(axis=1)
    # klm: KL(p || d_k) for every template, 0 log 0 treated as 0
    plogp = np.where(P > 0, P * np.log(np.maximum(P, 1e-300)), 0.0)
    cross = P @ np.log(fit.klm_templates).T
    kl = plogp.sum(axis=1, keepdims=True) - cross
    return -kl.min(axis=1)


def odin_input_gradient(model, X: np.ndarray, T: float) -> np.ndarray:
    """d log max-softmax(f(x)/T) / dx through the frozen pipeline
    (optional feature map, linear head)."""
    P = softmax_rows(model.logits(X), T)
    target = np.argmax(P, axis=1)
    # d log p_target / d logits = (onehot - p) / T
    G = -P / T
    G[np.arange(X.shape[0]), target] += 1.0 / T
    return model.backprop_input(X, G)


def _score_odin_batch(model, X: np.ndarray, params: PosthocParams) -> np.ndarray:
    """MSP at temperature T after a signed perturbation that ascends the
    max-softmax log-probability at the given feature rows."""
    T = params.odin_temperature
    Gx = odin_input_gradient(model, X, T)
    X_pert = X + params.odin_epsilon * np.sign(Gx)
    return softmax_rows(model.logits(X_pert), T).max(axis=1)
