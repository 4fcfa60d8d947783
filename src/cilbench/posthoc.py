"""Post-hoc OOD scorers over a frozen model.

Every scorer returns a scalar where HIGHER means more in-distribution;
the metrics module never needs per-scorer sign handling.  Scorers that
use training statistics are refit at every incremental step on the rows
available at that step (new-task train plus replay memory).

Hyperparameter defaults follow the methods' original papers: ODIN
T=1000 / eps=0.0014, ReAct 90th percentile, GEN gamma=0.1 with the top
min(100, C) probabilities, k=10 neighbours for the feature-bank scorers.
``relation_simplified`` is a deliberately reduced form of the relation
scorer (positive-cosine neighbours weighted by their MSP).

The feature-bank scorers compare queries with the bank in blocks of query
rows, so their memory is bounded by one block of about 2^21 similarities
(16 MB, or 48 query rows for a larger bank) and not by queries x bank.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import logsumexp_rows, softmax_rows

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

    @classmethod
    def from_dict(cls, doc: dict) -> "PosthocParams":
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scorer params: {sorted(unknown)}")
        return cls(**doc)


@dataclass
class ScorerFit:
    """ID statistics for the scorers that need them; immutable after fit."""

    name: str
    react_threshold: float | None = None
    klm_templates: np.ndarray | None = None  # (n_templates, C), floored
    bank_features: np.ndarray | None = None  # L2-normalized penultimates
    bank_msp: np.ndarray | None = None


def _l2_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.maximum(norms, 1e-12)


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
        return ScorerFit(name, react_threshold=thresh)
    P = softmax_rows(model.head.logits(Z))
    if name == "klm":
        preds = np.argmax(P, axis=1)
        templates = []
        for k in range(model.head.n_classes):
            sel = preds == k
            if np.any(sel):
                templates.append(np.maximum(P[sel].mean(axis=0), 1e-12))
        return ScorerFit(name, klm_templates=np.array(templates))
    # feature banks for nnguide / relation_simplified
    return ScorerFit(name, bank_features=_l2_rows(Z), bank_msp=P.max(axis=1))


# Block size is a budget in cells, not rows: a block holds rows x bank
# similarities, so a fixed row count would let memory grow with the bank.
_BLOCK_CELLS = 1 << 21  # 16 MB of float64
# Blocks hold a whole multiple of this many rows.  OpenBLAS multiplies in
# row tiles and finishes leftover rows with other kernels, so a block edge
# that cuts a tile can change the last bits of those rows.  48 covers the
# x86 dgemm row tiles: with single-threaded BLAS, blocks of 24 or 48 rows
# matched the full product bit for bit on an AVX-512 Xeon, blocks of 16, 32
# or 64 rows did not, and one-row blocks (computed by gemv) never did.
_BLOCK_ALIGN = 48


def _topk_sims(
    fit: ScorerFit, Z: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarities of each row to its k nearest bank rows and the
    bank indices of those rows, both (n, min(k, bank)) in selection order."""
    Q = _l2_rows(Z)
    bank_t = fit.bank_features.T
    nb = bank_t.shape[1]
    k = min(k, nb)
    rows = max(_BLOCK_ALIGN, _BLOCK_CELLS // nb // _BLOCK_ALIGN * _BLOCK_ALIGN)
    sims = np.empty((Q.shape[0], k))
    idx = np.empty((Q.shape[0], k), dtype=np.intp)
    for start in range(0, Q.shape[0], rows):
        block = Q[start : start + rows] @ bank_t
        top = np.argpartition(block, nb - k, axis=1)[:, -k:]
        sims[start : start + rows] = np.take_along_axis(block, top, axis=1)
        idx[start : start + rows] = top
        del block, top  # free this block before the next one is built
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
    Z = model.penultimate(X)
    if name == "msp":
        return softmax_rows(model.head.logits(Z)).max(axis=1)
    if name == "maxlogit":
        return model.head.logits(Z).max(axis=1)
    if name == "energy":
        return logsumexp_rows(model.head.logits(Z), params.tau)
    if name == "gen":
        P = softmax_rows(model.head.logits(Z))
        g = params.gen_gamma
        m = min(params.gen_top_m, P.shape[1])
        top = np.sort(P, axis=1)[:, -m:]
        return -((top**g) * ((1.0 - top) ** g)).sum(axis=1)
    if name == "odin":
        return _score_odin_batch(model, X, params)
    if name == "react":
        clipped = np.minimum(Z, fit.react_threshold)
        return logsumexp_rows(model.head.logits(clipped), params.tau)
    if name == "klm":
        P = softmax_rows(model.head.logits(Z))
        # KL(p || d_k) for every template, 0 log 0 treated as 0
        plogp = np.where(P > 0, P * np.log(np.maximum(P, 1e-300)), 0.0)
        cross = P @ np.log(fit.klm_templates).T
        kl = plogp.sum(axis=1, keepdims=True) - cross
        return -kl.min(axis=1)
    if name == "nnguide":
        energy = logsumexp_rows(model.head.logits(Z), params.tau)
        sims, _ = _topk_sims(fit, Z, params.knn_k)
        return energy * sims.mean(axis=1)
    if name == "relation_simplified":
        sims, idx = _topk_sims(fit, Z, params.knn_k)
        return (np.maximum(sims, 0.0) * fit.bank_msp[idx]).sum(axis=1)
    raise ValueError(f"unknown scorer {name!r}")


def odin_input_gradient(model, X: np.ndarray, T: float) -> np.ndarray:
    """d log max-softmax(f(x)/T) / dx through the frozen pipeline
    (optional linear projection, optional feature map, linear head)."""
    Z = model.penultimate(X)
    P = softmax_rows(model.head.logits(Z), T)
    target = np.argmax(P, axis=1)
    # d log p_target / d logits = (onehot - p) / T
    G = -P / T
    G[np.arange(X.shape[0]), target] += 1.0 / T
    Gz = G @ model.head.W
    Gz = _backprop_feature_map(model, X, Gz)
    return model.extractor.backprop_input(Gz)


def _score_odin_batch(model, X: np.ndarray, params: PosthocParams) -> np.ndarray:
    """MSP at temperature T after a signed perturbation that ascends the
    max-softmax log-probability at the extractor input."""
    T = params.odin_temperature
    Gx = odin_input_gradient(model, X, T)
    X_pert = X + params.odin_epsilon * np.sign(Gx)
    Zp = model.penultimate(X_pert)
    return softmax_rows(model.head.logits(Zp), T).max(axis=1)


def _backprop_feature_map(model, X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Chain rule through the optional L2/temperature feature map."""
    tau = getattr(model, "feature_tau", None)
    if not tau:
        return G
    raw = model.extractor.extract(X)
    norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
    unit = raw / norms
    inner = (G * unit).sum(axis=1, keepdims=True)
    return (G - unit * inner) / (norms * tau)

