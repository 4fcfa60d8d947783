"""Frozen extractor, expandable linear head, and one SGD update.

The extractor is the identity: a run scores the features it is given.
The head is the only trainable object in the benchmark.  All gradients in
this package are hand-derived; :func:`ce_loss` provides the shared
cross-entropy building block (mean over the batch) used by both the
incremental trainer and the fine-tuning methods; it takes the logit
gradient of any further term (distillation) and multiplies the sum out
once.  :func:`sgd_step` is one momentum update; the epoch loop that
drives it for both is ``cil.sgd_epochs``, which builds one
:class:`SgdState` per call with zero velocities shaped like the head, so
a state never sees its head grow.  Two heads are the same when their
``W`` and ``b`` bytes are.

Head checkpoints use the binary layout:
    magic "OCH1" | u32 C | u32 d | float64 W row-major | float64 b
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import RngStream, softmax_cross_entropy

__all__ = [
    "Extractor",
    "LinearHead",
    "SgdState",
    "expand_head",
    "cosine_lr",
    "sgd_step",
    "weight_align",
    "ce_loss",
    "DivergenceError",
    "check_finite_epoch",
    "save_head",
    "load_head",
]

_HEAD_MAGIC = b"OCH1"


class Extractor:
    """The frozen backbone.  A run is given its features already extracted
    (from a manifest or the generator), so this is the identity on float64
    rows."""

    def extract(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64)


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
    b = np.concatenate([head.b, np.zeros(new_classes)])
    return LinearHead(W, b)


@dataclass
class SgdState:
    """SGD momentum state with a cosine learning-rate schedule.  ``vW`` and
    ``vb`` are the velocities, shaped like the head's ``W`` and ``b`` and
    updated in place; a state serves one head of fixed shape (one
    ``cil.sgd_epochs`` call), which builds them as zeros."""

    lr0: float
    momentum: float
    weight_decay: float
    vW: np.ndarray
    vb: np.ndarray


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
    if dW.shape != head.W.shape or db.shape != head.b.shape:
        raise ValueError("gradient shapes must match parameters")
    lr = cosine_lr(state.lr0, step_index, total_steps)
    # in place, in the order of the formula (products and sums commute
    # bit for bit); the caller's gradients are only read
    for p, g, v in ((head.W, dW, state.vW), (head.b, db, state.vb)):
        step = p * state.weight_decay
        step += g
        v *= state.momentum
        v += step
        np.multiply(v, lr, out=step)
        p -= step


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
    if not (np.isfinite(head.W).all() and np.isfinite(head.b).all()):
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


def ce_loss(
    head: LinearHead,
    X: np.ndarray,
    y_rows: np.ndarray,
    Z: np.ndarray | None = None,
    G_extra: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over the batch with analytic gradients.

    ``y_rows`` holds head-row indices (not global class ids).  ``Z`` is
    ``head.logits(X)`` when the caller already has it; it is not modified.
    ``G_extra`` is the gradient of another term of the caller's objective
    w.r.t. the first ``G_extra.shape[1]`` logits (the distillation term of
    ``cil.train_task``): it is added to the cross-entropy's logit gradient
    before that gradient is multiplied out, so a batch takes one product
    for dW and one sum for db whatever its terms.  The returned loss is
    the cross-entropy alone.  Returns (loss, dW, db).
    """
    if Z is None:
        Z = head.logits(X)
    loss, G = softmax_cross_entropy(Z, y_rows)
    if G_extra is not None:
        G[:, : G_extra.shape[1]] += G_extra
    return loss, G.T @ X, G.sum(axis=0)


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

