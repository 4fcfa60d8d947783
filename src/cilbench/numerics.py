"""Deterministic numeric primitives shared by every module.

Stable log-sum-exp and softmax (scalar-temperature variants), cosine
similarity, Beta sampling, and a seeded RNG with named substreams.  All
math is 64-bit; all randomness flows through :class:`RngStream` so a run
is reproducible from a single seed regardless of call order elsewhere.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "RngStream",
    "logsumexp",
    "logsumexp_rows",
    "softmax",
    "softmax_rows",
    "log_softmax_rows",
    "sample_beta",
    "cosine_sim",
]

_U64_MASK = 0xFFFFFFFFFFFFFFFF


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


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    return arr


def logsumexp_rows(m: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise tau * log(sum_j exp(m_ij / tau)) with max subtraction."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    m = np.asarray(m, dtype=np.float64)
    scaled = m / tau
    peak = scaled.max(axis=1, keepdims=True)
    return tau * (peak[:, 0] + np.log(np.exp(scaled - peak).sum(axis=1)))


def logsumexp(v, tau: float = 1.0) -> float:
    """tau * log(sum_j exp(v_j / tau)), overflow-safe."""
    arr = _as_vector(v)
    return float(logsumexp_rows(arr[None, :], tau)[0])


def softmax_rows(m: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m / tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    m = np.asarray(m, dtype=np.float64)
    scaled = m / tau
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    e = np.exp(scaled)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction; finite for any finite m."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(v, tau: float = 1.0) -> np.ndarray:
    """Softmax of v / tau; entries sum to 1 within 1e-12."""
    arr = _as_vector(v)
    return softmax_rows(arr[None, :], tau)[0]


def sample_beta(a: float, b: float, rng: RngStream) -> float:
    """One Beta(a, b) variate via the two-Gamma ratio construction."""
    if a <= 0 or b <= 0:
        raise ValueError("Beta shape parameters must be positive")
    while True:
        g1 = rng.gen.gamma(a)
        g2 = rng.gen.gamma(b)
        total = g1 + g2
        if total > 0:  # guards underflow for very small shapes
            return float(g1 / total)


def cosine_sim(u, v) -> float:
    """u . v / (||u|| ||v||); raises on zero-norm inputs."""
    uu = _as_vector(u)
    vv = _as_vector(v)
    if uu.shape != vv.shape:
        raise ValueError("dimension mismatch")
    nu = np.linalg.norm(uu)
    nv = np.linalg.norm(vv)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("zero-norm vector")
    return float(np.dot(uu, vv) / (nu * nv))
