"""Deterministic numeric primitives shared by every module.

Row-wise stable log-sum-exp and softmax with a temperature (one exp
serves both), fused softmax cross-entropy, row L2 normalization and its
backward, a seeded RNG with named substreams, and the count of cores
the thread pools may use.  All math is 64-bit; all randomness flows
through :class:`RngStream` so a run is reproducible from a single seed
regardless of call order elsewhere.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

__all__ = [
    "RngStream",
    "logsumexp_rows",
    "logsumexp_softmax_rows",
    "softmax_rows",
    "softmax_cross_entropy",
    "l2_rows",
    "l2_rows_backward",
    "row_norms",
    "usable_cores",
]

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def usable_cores() -> int:
    """Cores this process may run on: the most workers a thread pool runs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class RngStream:
    """Seeded random stream with named, independent substreams.

    The underlying generator is Philox (counter-based), keyed by a hash of
    ``(seed, label)``.  Identical ``(seed, label)`` pairs therefore yield
    identical draw sequences across runs, platforms, and thread counts.
    ``child(name)`` derives a new stream whose sequence is independent of
    the parent's state, so components can draw in any order without
    perturbing each other.
    """

    def __init__(self, seed: int, label: str = "root"):
        self.seed = int(seed) & _U64_MASK
        self.label = label
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, name: str) -> "RngStream":
        """A fresh substream; pure in (seed, label, name)."""
        return RngStream(self.seed, f"{self.label}/{name}")

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, label={self.label!r})"


def _shifted_exp_rows(m: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise tau * log(sum_j exp(m_ij / tau)), the max-shifted exp of
    m / tau it is read from, and that exp's row sums."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    scaled = np.asarray(m, dtype=np.float64) / tau
    peak = scaled.max(axis=1, keepdims=True)
    scaled -= peak
    P = np.exp(scaled, out=scaled)
    total = P.sum(axis=1, keepdims=True)
    return tau * (peak[:, 0] + np.log(total[:, 0])), P, total


def logsumexp_softmax_rows(m: np.ndarray, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise tau * log(sum_j exp(m_ij / tau)) and softmax of m / tau,
    both from one max-shifted exp."""
    lse, P, total = _shifted_exp_rows(m, tau)
    P /= total
    return lse, P


def logsumexp_rows(m: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise tau * log(sum_j exp(m_ij / tau)) with max subtraction: the
    log-sum-exp of :func:`logsumexp_softmax_rows`, without normalizing the
    softmax it does not return."""
    return _shifted_exp_rows(m, tau)[0]


def softmax_rows(m: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / tau."""
    return logsumexp_softmax_rows(m, tau)[1]


def softmax_cross_entropy(Z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of logit rows ``Z`` against column indices ``y``,
    and its gradient w.r.t. ``Z``: (softmax(Z) - onehot(y)) / n.

    One max-shifted exp serves both; the values are bit for bit those of a
    max-shifted log-softmax and of :func:`softmax_rows`.  ``Z`` is not
    modified.
    """
    n = Z.shape[0]
    rows = np.arange(n)
    shifted = Z - Z.max(axis=1, keepdims=True)
    picked = shifted[rows, y]
    G = np.exp(shifted, out=shifted)
    total = G.sum(axis=1, keepdims=True)
    loss = -(picked - np.log(total[:, 0])).mean()
    G /= total
    G[rows, y] -= 1.0
    G /= n
    return float(loss), G


def row_norms(X: np.ndarray) -> np.ndarray:
    """Each row's L2 norm floored at 1e-12, as an (n, 1) column: the
    divisor of :func:`l2_rows` before ``tau``."""
    return np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)


def l2_rows(X: np.ndarray, tau: float = 1.0, norms: np.ndarray | None = None) -> np.ndarray:
    """Rows scaled to unit L2 norm, then divided by ``tau``; a row of norm
    below 1e-12 is divided by 1e-12 * tau instead (a zero row stays zero).
    ``norms``, if given, is ``row_norms(X)``."""
    X = np.asarray(X, dtype=np.float64)
    if norms is None:
        norms = row_norms(X)
    return X / (norms * tau)


def l2_rows_backward(
    X: np.ndarray, G: np.ndarray, tau: float = 1.0, norms: np.ndarray | None = None
) -> np.ndarray:
    """The gradient w.r.t. ``X`` given ``G``, the gradient w.r.t.
    ``l2_rows(X, tau)``: (G - u <G, u>) / (max(||x||, 1e-12) * tau) per
    row, u being the row scaled to unit norm.  ``norms``, if given, is
    ``row_norms(X)``, so a caller that ran the forward need not take the
    norms again."""
    X = np.asarray(X, dtype=np.float64)
    if norms is None:
        norms = row_norms(X)
    unit = X / norms
    return (G - unit * (G * unit).sum(axis=1, keepdims=True)) / (norms * tau)
