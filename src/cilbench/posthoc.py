"""Post-hoc OOD scorers over a frozen model.

Every scorer returns a scalar where HIGHER means more in-distribution;
the metrics module never needs per-scorer sign handling.  Scorers that
use training statistics are refit at every incremental step on the rows
available at that step (new-task train plus replay memory).  A batch is
an array or a ``data.RowView`` of stored rows, scored slice by slice
across the float64 boundary the ``data`` module states.  Each slice
takes one frozen forward pass through the model (``CilModel``): the
penultimate features, the logits and the softmax are each computed at
most once, and only when the scorer reads them.  ODIN alone runs two
passes, and its input gradient comes from ``CilModel.backprop_input``.
A scorer without a feature bank runs on the calling thread in slices of
2^18 values, so a desk-sized set is one slice; a slice's logits are one
BLAS product, whose last bits may follow the slice height as they follow
the BLAS threads.

Hyperparameter defaults follow the methods' original papers: ODIN
T=1000 / eps=0.0014, ReAct 90th percentile, GEN gamma=0.1 with the top
min(100, C) probabilities, k=10 neighbours for the feature-bank scorers.
``relation_simplified`` is a deliberately reduced form of the relation
scorer (positive-cosine neighbours weighted by their MSP).

The feature-bank scorers find each query's k nearest bank rows exactly.
The fit holds the bank once, as float32 screen rows, beside each row's
float64 norm and a view of the rows it was built from.  A float32
screen, one BLAS call per slice of 128 queries against the screen rows,
keeps for each query only the bank rows that could still be among its
k; those few are rebuilt in float64 from storage and rescored, one fixed
numpy reduction per pair, and the k are chosen from the rescored values
(:func:`_slice_top_k` states the error bound and the proof).  So the
similarities and neighbours are those of an unscreened float64 search,
and no bit of them follows the slice height, the worker count, or the
BLAS threads and kernels.  Slices are scored on a thread pool, one
worker per usable core (numpy's matmul, reductions and sorts release the
GIL), each slice making its own forward and its own top-k, and no more
workers run than a budget of 2^21 screened cells holds slices, so
memory is bounded by the budget and not by queries x bank.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .configcheck import check_field_types
from .data import RowView
from .numerics import l2_rows, logsumexp_rows, row_norms, softmax_rows, usable_cores

__all__ = [
    "PosthocParams",
    "ScorerFit",
    "SCORER_NAMES",
    "FITTED_SCORERS",
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

# the scorers that fit_scorer fits from a step's rows; it returns None for the others
FITTED_SCORERS = ("react", "klm", "nnguide", "relation_simplified")
# the fitted scorers that search a feature bank
_BANK_SCORERS = ("nnguide", "relation_simplified")


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
    """ID statistics for the scorers that need them; immutable after fit.

    A feature bank is held once: ``bank_features`` are its L2-normalized
    penultimate rows cast to float32, the screen, and its float64 rows are
    rebuilt from ``bank_rows`` where a rescore reads them
    (:meth:`bank_unit`)."""

    react_threshold: float | None = None
    klm_templates: np.ndarray | None = None  # (n_templates, C), floored
    bank_features: np.ndarray | None = None  # (bank, d) float32 screen rows
    bank_norms: np.ndarray | None = None  # (bank, 1) float64 row_norms of the penultimates
    bank_rows: RowView | None = None  # the rows the bank was built from
    bank_map: Callable[[np.ndarray], np.ndarray] | None = None  # the fit model's penultimate
    bank_msp: np.ndarray | None = None  # relation_simplified only

    def bank_unit(self, idx: np.ndarray) -> np.ndarray:
        """The float64 L2-normalized penultimates of bank rows ``idx``,
        rebuilt from storage: widened, mapped and divided by their stored
        norms, the bits of ``l2_rows`` over the whole bank, since every
        step is row by row on contiguous rows."""
        return l2_rows(self.bank_map(self.bank_rows.read(idx)), norms=self.bank_norms[idx])


def percentile_nearest_rank(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: sorted[ceil(p/100 * n) - 1], read from one
    partition at that rank instead of a full sort."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("empty sample")
    rank = min(max(1, math.ceil(p / 100.0 * flat.size)), flat.size) - 1
    return float(np.partition(flat, rank)[rank])


def fit_scorer(
    name: str, model, fit_features, params: PosthocParams | None = None
) -> ScorerFit | None:
    """Fit ID statistics for ``name`` from raw feature rows, an array or a
    ``RowView``; None when the scorer is purely output-based.  A bank is
    built slice by slice from a view of the rows, which the fit keeps and
    reads again to rescore, so the rows must not change while it is used
    (a run's rows are read-only)."""
    params = params or PosthocParams()
    if name not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {name!r}")
    if name not in FITTED_SCORERS:
        return None
    rows = RowView.of(fit_features)
    if name in _BANK_SCORERS:
        nb, d = rows.shape
        screen = np.empty((nb, d), dtype=np.float32)
        norms = np.empty((nb, 1))
        msp = np.empty(nb) if name == "relation_simplified" else None
        for part in rows.slices():
            Z = model.penultimate(rows.read(part))
            norms[part] = row_norms(Z)
            screen[part] = l2_rows(Z, norms=norms[part])
            if msp is not None:
                msp[part] = softmax_rows(model.head.logits(Z)).max(axis=1)
        return ScorerFit(bank_features=screen, bank_norms=norms, bank_rows=rows,
                         bank_map=model.penultimate, bank_msp=msp)
    Z = model.penultimate(rows.widen())
    if name == "react":
        if params.react_percentile >= 100.0:
            thresh = np.inf  # clipping disabled
        else:
            thresh = percentile_nearest_rank(Z, params.react_percentile)
        return ScorerFit(react_threshold=thresh)
    P = softmax_rows(model.head.logits(Z))  # klm
    preds = np.argmax(P, axis=1)
    templates = []
    for k in range(model.head.n_classes):
        sel = preds == k
        if np.any(sel):
            templates.append(np.maximum(P[sel].mean(axis=0), 1e-12))
    return ScorerFit(klm_templates=np.array(templates))


# The screen's budget in cells, shared by the worker threads: each screens
# one slice of rows x bank at a time (a float32 similarity and a one-byte
# mask per cell), and no more workers run than the budget holds slices, so
# memory does not grow with the number of queries.
_BLOCK_CELLS = 1 << 21
# Bank scorers score queries in slices of this many rows, each screened by
# one float32 BLAS call.  No neighbour or similarity bit depends on the
# height, only speed and memory do: taller slices spread OpenBLAS's packing
# of the bank over more rows, and each worker holds 5 bytes per cell of its
# slice.
_SLICE_ROWS = 128
# Candidates are rescored in chunks whose rebuilt float64 rows hold at most
# this many cells per operand.
_RESCORE_CELLS = 1 << 16
# The screen's bound on a row's k-th similarity comes from the maxima of at
# least this many groups of bank rows per neighbour (one row per group in a
# smaller bank).
_SCREEN_GROUPS = 8


def _pair_sims(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``A`` with the same row of ``B``, by
    one fixed numpy reduction per pair, never BLAS: a pair's bits depend on
    its two rows alone, not on which other pairs share the call."""
    return np.einsum("ij,ij->i", A, B)


def _screen_margin(d: int) -> float:
    """How far below the screen's bound a candidate's float32 similarity
    may lie: 2 eps for d columns, plus 2^-22 for rounding the threshold to
    float32 (see :func:`_slice_top_k`)."""
    u, v = 2.0**-24, 2.0**-53
    if (d + 2) * u >= 0.25:
        return math.inf  # a screen this coarse keeps every bank row anyway

    def gamma(n: int, unit: float) -> float:
        return n * unit / (1 - n * unit)

    eps = (gamma(d + 2, u) + gamma(d, v)) * (1 + 2.0**-20) ** 2 + d * 2.0**-120
    return 2 * eps + 2.0**-22


def _slice_top_k(fit: ScorerFit, Zs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest bank rows to each row of ``Zs``, a slice of penultimate
    features, with k at most the bank: their cosine similarities and bank
    indices, both (rows, k), each row ascending with ties in bank order.

    With q a query row from :func:`l2_rows` and b a bank row from
    :meth:`ScorerFit.bank_unit` (the bits of :func:`l2_rows` over the
    bank), the similarity is s = _pair_sims(q, b) in float64, and the k
    are the k largest s, ties at the k-th taken in bank order: what a
    stable descending sort of every s would give.  Only candidates are
    rescored:

    * eps.  The screen t is the float32 product of q and b cast to float32,
      in whatever order BLAS sums.  With u = 2^-24, v = 2^-53 and
      g(n, w) = n w / (1 - n w), the two casts and the d-term float32 dot
      are off by at most g(d + 2, u) sum |q_l b_l| from the exact product,
      and the float64 reduction by at most g(d, v) sum |q_l b_l|.  l2_rows
      rounds a norm by about d 2^-54, so for any d below 2^30 its rows have
      norms of at most 1 + 2^-20, sum |q_l b_l| <= (1 + 2^-20)^2, and
      |t - s| <= eps = (g(d + 2, u) + g(d, v)) (1 + 2^-20)^2
      + d 2^-120, the last term covering float32 underflow; about
      (d + 2) 2^-24.
    * A bound.  Split the bank rows into G disjoint groups: G >= 8k, or
      one row per group for a bank of fewer than 8k rows, so G >= k as k
      is at most the bank.  Let L be the k-th largest of the groups'
      screened maxima.  The k groups with the largest maxima each hold a
      bank row with t >= L, so k distinct rows have s >= L - eps: the
      k-th largest s is at least L - eps.
    * Candidates.  A bank row among the k, or tied with the k-th, has
      s >= L - eps, so t >= L - 2 eps.  The screen keeps every row with
      t >= L - (2 eps + 2^-22), the 2^-22 covering the float32 rounding
      of that threshold.  So the candidates hold the k and every row tied
      with the k-th, and choosing the k among them by (s descending, bank
      index) chooses them among all bank rows.

    Every bank size takes this one path.  No step depends on how the
    queries are sliced or which BLAS kernel ran the screen, so neither do
    the bytes returned."""
    # a row's norm takes numpy's pairwise sum only from contiguous rows
    Q = l2_rows(np.ascontiguousarray(Zs))
    h, d = Q.shape
    nb = fit.bank_features.shape[0]
    screen = fit.bank_features @ Q.astype(np.float32).T  # (bank, h)
    width = max(1, nb // (_SCREEN_GROUPS * k))
    n_groups = nb // width
    # group g holds bank rows g, g + n_groups, g + 2 * n_groups, ...
    maxima = screen[: n_groups * width].reshape(width, n_groups, h).max(axis=0)
    kth = np.partition(maxima, n_groups - k, axis=0)[n_groups - k]
    thresholds = kth - np.float32(_screen_margin(d))
    c, r = np.divmod(np.flatnonzero(screen >= thresholds), h)
    del screen
    cap = max(1, _RESCORE_CELLS // d)
    s = np.concatenate([
        _pair_sims(Q[r[j : j + cap]], fit.bank_unit(c[j : j + cap]))
        for j in range(0, r.size, cap)
    ])
    # each row's candidates, largest first with ties in bank order; its
    # first k are its neighbours
    counts = np.bincount(r, minlength=h)
    take = np.lexsort((c, -s, r))[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    vals, cols = s[take], c[take]
    asc = np.lexsort((cols, vals), axis=1)
    return np.take_along_axis(vals, asc, 1), np.take_along_axis(cols, asc, 1)


def score_batch(
    name: str,
    model,
    fit: ScorerFit | None,
    X,
    params: PosthocParams | None = None,
) -> np.ndarray:
    """Scores for a batch of raw feature rows, an array or a ``RowView``
    (higher = more ID), one float64 per row, read and scored slice by
    slice: 128-row slices on the bank scorers' pool, else slices of 2^18
    values on the calling thread."""
    params = params or PosthocParams()
    if name not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {name!r}")
    rows = RowView.of(X)
    n = rows.shape[0]
    out = np.empty(n)
    if name in _BANK_SCORERS:
        nb = fit.bank_features.shape[0]
        k = min(params.knn_k, nb)

        def score_slice(part: slice) -> None:
            Z = model.penultimate(rows.read(part))
            sims, idx = _slice_top_k(fit, Z, k)
            if name == "relation_simplified":
                out[part] = (np.maximum(sims, 0.0) * fit.bank_msp[idx]).sum(axis=1)
            else:
                energy = logsumexp_rows(model.head.logits(Z), params.tau)
                out[part] = energy * sims.mean(axis=1)

        # a worker per usable core and slice, within the screen's cell budget
        starts = range(0, n, _SLICE_ROWS)
        workers = max(1, min(usable_cores(), len(starts), _BLOCK_CELLS // (_SLICE_ROWS * nb)))
        slices = (slice(start, min(start + _SLICE_ROWS, n)) for start in starts)
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(score_slice, slices))  # re-raises a worker's error
        return out
    for part in rows.slices():
        out[part] = _score_rows(name, model, fit, rows.read(part), params)
    return out


def _score_rows(name: str, model, fit: ScorerFit | None, X: np.ndarray, params: PosthocParams):
    """A scorer without a bank on float64 rows ``X``."""
    if name == "odin":
        return _score_odin_batch(model, X, params)
    Z = model.penultimate(X)
    if name == "react":
        Z = np.minimum(Z, fit.react_threshold)
    logits = model.head.logits(Z)
    if name in ("energy", "react"):
        return logsumexp_rows(logits, params.tau)
    if name == "maxlogit":
        return logits.max(axis=1)
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
    G[np.arange(len(G)), target] += 1.0 / T
    return model.backprop_input(X, G)


def _score_odin_batch(model, X: np.ndarray, params: PosthocParams) -> np.ndarray:
    """MSP at temperature T after a signed perturbation that ascends the
    max-softmax log-probability at the given feature rows."""
    T = params.odin_temperature
    Gx = odin_input_gradient(model, X, T)
    X_pert = X + params.odin_epsilon * np.sign(Gx)
    return softmax_rows(model.logits(X_pert), T).max(axis=1)
