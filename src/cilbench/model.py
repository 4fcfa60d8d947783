"""Expandable linear head and one SGD update.

A run scores the features it is given, so the head is the only trainable
object in the benchmark; ``cil.CilModel`` pairs it with its classes and
an optional feature map.  A head is one (C, d + 1) array ``params``
(weights ``W`` beside the bias column ``b``), so every gradient is one
array, :func:`head_grad` is the one head backward, and :func:`ce_loss`
is the cross-entropy (mean over the batch) of the incremental trainer
and the fine-tuners alike; it takes the logit gradient of any further
term (distillation) and multiplies the sum out once.  All gradients are
hand-derived.  :func:`sgd_step` is one momentum update; the epoch loop
that drives it for both is ``cil.sgd_epochs``, which holds the one
velocity array of one head, so it never sees it grow.  Two heads are the
same when their ``W`` and ``b`` bytes are.

Head checkpoints keep their layout (W, then b, not ``params``):
    magic "OCH1" | u32 C | u32 d | float64 W row-major | float64 b
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .numerics import RngStream, softmax_cross_entropy

__all__ = [
    "LinearHead",
    "expand_head",
    "cosine_lr",
    "sgd_step",
    "weight_align",
    "head_grad",
    "ce_loss",
    "DivergenceError",
    "check_finite_epoch",
    "save_head",
    "load_head",
]

_HEAD_MAGIC = b"OCH1"


class LinearHead:
    """Expandable weight matrix plus bias producing one logit per seen class,
    copied into one new C-contiguous (C, d + 1) array ``params``; ``W`` and
    ``b`` are views of it, so an in-place update of either is one of it."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        W = np.asarray(weights, dtype=np.float64)
        b = np.asarray(bias, dtype=np.float64)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ValueError("weights must be (C, d) with matching bias")
        self.params = np.concatenate([W, b[:, None]], axis=1)
        self.W = self.params[:, :-1]
        self.b = self.params[:, -1]

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
        Z = X @ self.W.T
        Z += self.b
        return Z

    def clone(self) -> "LinearHead":
        return LinearHead(self.W, self.b)


def expand_head(head: LinearHead, new_classes: int, rng: RngStream) -> LinearHead:
    """Grow the head by ``new_classes`` rows; old rows are preserved bit-exactly.

    New weight rows are drawn from U[-1/sqrt(d), 1/sqrt(d)] with the
    generator of ``rng.child("head-init")``; new biases are zero.
    """
    if new_classes < 1:
        raise ValueError("new_classes must be >= 1")
    bound = 1.0 / math.sqrt(head.dim)
    rows = rng.child("head-init").gen.uniform(-bound, bound, size=(new_classes, head.dim))
    W = np.concatenate([head.W, rows])
    return LinearHead(W, np.concatenate([head.b, np.zeros(new_classes)]))


def cosine_lr(lr0: float, step: int, total_steps: int) -> float:
    """lr0 * 0.5 * (1 + cos(pi * step / total_steps))."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    frac = min(max(step, 0), total_steps) / total_steps
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * frac))


def sgd_step(cfg, velocity, head: LinearHead, grad, step_index: int, total_steps: int) -> None:
    """v <- momentum v + (grad + wd * params); params <- params - lr(step) v,
    with ``lr0``, ``momentum`` and ``weight_decay`` read from ``cfg`` and
    the velocity, shaped like ``head.params``, updated in place."""
    if grad.shape != head.params.shape:
        raise ValueError("gradient shape must match parameters")
    lr = cosine_lr(cfg.lr0, step_index, total_steps)
    # in place, in the order of the formula (products and sums commute
    # bit for bit); the caller's gradient is only read
    step = head.params * cfg.weight_decay
    step += grad
    velocity *= cfg.momentum
    velocity += step
    np.multiply(velocity, lr, out=step)
    head.params -= step


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or parameter."""


def check_finite_epoch(
    what: str, loss: float, head: LinearHead, seed: int, step: int, epoch: int
) -> None:
    """Raise :class:`DivergenceError` naming seed, step and epoch unless the
    epoch's summed loss and the head it leaves behind are finite."""
    where = f"{what} diverged at seed {seed} step {step} epoch {epoch}"
    if not math.isfinite(loss):
        raise DivergenceError(f"{where}: loss is {loss}")
    if not np.isfinite(head.params).all():
        raise DivergenceError(f"{where}: head weights are not finite")


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


def head_grad(G: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The head backward: the (C, d + 1) gradient w.r.t. ``params`` from the
    logit gradient ``G`` of rows ``X``, G.T @ X beside G.sum(axis=0)."""
    grad = np.empty((G.shape[1], X.shape[1] + 1))
    np.matmul(G.T, X, out=grad[:, :-1])
    G.sum(axis=0, out=grad[:, -1])
    return grad


def ce_loss(
    head: LinearHead,
    X: np.ndarray,
    y_rows: np.ndarray,
    Z: np.ndarray | None = None,
    G_extra: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch with its analytic gradient.

    ``y_rows`` holds head-row indices (not global class ids).  ``Z`` is
    ``head.logits(X)`` when the caller already has it; it is not modified.
    ``G_extra`` is the gradient of another term of the caller's objective
    w.r.t. the first ``G_extra.shape[1]`` logits (the distillation term of
    ``cil.train_task``): it is added to the cross-entropy's logit gradient
    before that gradient is multiplied out, so a batch takes one
    :func:`head_grad` whatever its terms.  Returns (loss, grad), the loss
    being the cross-entropy alone.
    """
    if Z is None:
        Z = head.logits(X)
    loss, G = softmax_cross_entropy(Z, y_rows)
    if G_extra is not None:
        G[:, : G_extra.shape[1]] += G_extra
    return loss, head_grad(G, X)


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
    return LinearHead(W, b)

