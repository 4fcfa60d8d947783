"""Frozen feature extractor, expandable linear head, and SGD machinery.

The head is the only trainable object in the benchmark.  All gradients in
this package are hand-derived; :func:`ce_loss` provides the shared
cross-entropy building block (mean over the batch) used by both the
incremental trainer and the fine-tuning methods.

Head checkpoints use the binary layout:
    magic "OCH1" | u32 C | u32 d | float64 W row-major | float64 b
"""
from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import RngStream, log_softmax_rows, softmax_rows

__all__ = [
    "Extractor",
    "LinearHead",
    "SgdState",
    "expand_head",
    "cosine_lr",
    "sgd_step",
    "weight_align",
    "ce_loss",
    "save_head",
    "load_head",
    "head_fingerprint",
]

_HEAD_MAGIC = b"OCH1"


class Extractor:
    """Frozen feature extractor: identity or a fixed seeded random projection.

    The projection matrix is generated once from (d_in, d_out, seed) and
    never updated; gradients w.r.t. inputs pass through ``backprop_input``.
    """

    def __init__(self, kind: str = "identity", d_in: int = 0, d_out: int = 0, seed: int = 0):
        if kind not in ("identity", "random_projection"):
            raise ValueError(f"unknown extractor kind {kind!r}")
        self.kind = kind
        self.seed = seed
        if kind == "random_projection":
            if d_in <= 0 or d_out <= 0:
                raise ValueError("projection needs positive d_in and d_out")
            gen = RngStream(seed, "extractor").gen
            self.matrix = gen.normal(0.0, 1.0 / math.sqrt(d_in), size=(d_out, d_in))
            self.d_in, self.d_out = d_in, d_out
        else:
            self.matrix = None
            self.d_in = self.d_out = d_in

    def extract(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self.kind == "identity":
            return X
        return X @ self.matrix.T

    def backprop_input(self, G: np.ndarray) -> np.ndarray:
        """Map gradients w.r.t. extractor outputs back to inputs."""
        if self.kind == "identity":
            return G
        return G @ self.matrix

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.kind.encode())
        if self.matrix is not None:
            h.update(self.matrix.tobytes())
        return h.hexdigest()


class LinearHead:
    """Expandable weight matrix plus bias producing one logit per seen class."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        W = np.ascontiguousarray(np.asarray(weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(bias, dtype=np.float64))
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ValueError("weights must be (C, d) with matching bias")
        self.W = W
        self.b = b

    @classmethod
    def empty(cls, dim: int) -> "LinearHead":
        return cls(np.zeros((0, dim)), np.zeros(0))

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def logits(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {X.shape[-1]}")
        return X @ self.W.T + self.b

    def clone(self) -> "LinearHead":
        return LinearHead(self.W.copy(), self.b.copy())


def expand_head(
    head: LinearHead,
    new_classes: int,
    init: str = "seeded_uniform",
    rng: RngStream | None = None,
) -> LinearHead:
    """Grow the head by ``new_classes`` rows; old rows are preserved bit-exactly.

    init rules: ``zeros`` | ``seeded_uniform`` (U[-1/sqrt(d), 1/sqrt(d)]) |
    ``copy_scaled`` (mean of existing rows; zeros when the head is empty).
    """
    if new_classes < 1:
        raise ValueError("new_classes must be >= 1")
    d = head.dim
    if init == "zeros":
        rows = np.zeros((new_classes, d))
    elif init == "seeded_uniform":
        if rng is None:
            raise ValueError("seeded_uniform init needs an RngStream")
        bound = 1.0 / math.sqrt(d)
        rows = rng.child("head-init").gen.uniform(-bound, bound, size=(new_classes, d))
    elif init == "copy_scaled":
        if head.n_classes == 0:
            rows = np.zeros((new_classes, d))
        else:
            rows = np.tile(head.W.mean(axis=0), (new_classes, 1))
    else:
        raise ValueError(f"unknown init {init!r}")
    W = np.concatenate([head.W, rows])
    b = np.concatenate([head.b, np.zeros(new_classes)])
    return LinearHead(W, b)


@dataclass
class SgdState:
    """SGD momentum state with a cosine learning-rate schedule."""

    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    vW: np.ndarray | None = None
    vb: np.ndarray | None = None

    def ensure(self, head: LinearHead) -> None:
        """Size velocity buffers to the head, zero-filling new class rows."""
        if self.vW is None:
            self.vW = np.zeros_like(head.W)
            self.vb = np.zeros_like(head.b)
        elif self.vW.shape != head.W.shape:
            grown = np.zeros_like(head.W)
            grown[: self.vW.shape[0]] = self.vW
            self.vW = grown
            gb = np.zeros_like(head.b)
            gb[: self.vb.shape[0]] = self.vb
            self.vb = gb


def cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    """lr0 * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    frac = min(max(step, 0), total_steps) / total_steps
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * frac))


def sgd_step(
    state: SgdState,
    head: LinearHead,
    dW: np.ndarray,
    db: np.ndarray,
    step_index: int,
    total_steps: int,
) -> None:
    """v <- momentum v + (grad + wd * param); param <- param - lr(step) v."""
    state.ensure(head)
    if dW.shape != head.W.shape or db.shape != head.b.shape:
        raise ValueError("gradient shapes must match parameters")
    lr = cosine_lr(state.lr0, step_index, total_steps)
    state.vW = state.momentum * state.vW + (dW + state.weight_decay * head.W)
    state.vb = state.momentum * state.vb + (db + state.weight_decay * head.b)
    head.W -= lr * state.vW
    head.b -= lr * state.vb


def weight_align(head: LinearHead, old_rows, new_rows) -> LinearHead:
    """Scale new-class weight rows so their mean norm matches the old ones."""
    old_rows = list(old_rows)
    new_rows = list(new_rows)
    if not old_rows or not new_rows:
        raise ValueError("both row index sets must be nonempty")
    norm_old = np.linalg.norm(head.W[old_rows], axis=1).mean()
    norm_new = np.linalg.norm(head.W[new_rows], axis=1).mean()
    if norm_old == 0.0 or norm_new == 0.0:
        raise ValueError("zero mean weight norm")
    out = head.clone()
    out.W[new_rows] *= norm_old / norm_new
    return out


def ce_loss(
    head: LinearHead, X: np.ndarray, y_rows: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch with analytic gradients.

    ``y_rows`` holds head-row indices (not global class ids).
    Returns (loss, dW, db).
    """
    Z = head.logits(X)
    P = softmax_rows(Z)
    n = X.shape[0]
    loss = -log_softmax_rows(Z)[np.arange(n), y_rows].mean()
    G = P
    G[np.arange(n), y_rows] -= 1.0
    G /= n
    return float(loss), G.T @ X, G.sum(axis=0)


def save_head(head: LinearHead, path) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEAD_MAGIC)
        fh.write(struct.pack("<II", head.n_classes, head.dim))
        fh.write(head.W.astype("<f8").tobytes(order="C"))
        fh.write(head.b.astype("<f8").tobytes(order="C"))


def load_head(path) -> LinearHead:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != _HEAD_MAGIC:
        raise ValueError("bad head checkpoint header")
    C, d = struct.unpack("<II", raw[4:12])
    expect = 12 + 8 * C * d + 8 * C
    if len(raw) != expect:
        raise ValueError("head checkpoint size mismatch")
    W = np.frombuffer(raw, dtype="<f8", count=C * d, offset=12).reshape(C, d)
    b = np.frombuffer(raw, dtype="<f8", count=C, offset=12 + 8 * C * d)
    return LinearHead(W.copy(), b.copy())


def head_fingerprint(head: LinearHead) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<II", head.n_classes, head.dim))
    h.update(head.W.tobytes())
    h.update(head.b.tobytes())
    return h.hexdigest()
