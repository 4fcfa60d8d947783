"""Incremental training of the classifier over a task stream.

Each step expands the head for the new classes and fine-tunes on the
union of new-task rows and replay memory with cross-entropy.  The
``replay_distill`` method adds a softened-softmax distillation term
against the frozen pre-step head (a stand-in for iCaRL's regularizer);
``replay_distill_wa`` additionally rescales new-class weight rows after
training (a stand-in for weight alignment).  A distilling batch adds the
distillation's gradient w.r.t. the old-class logits to the cross-entropy's
logit gradient and multiplies the sum out once (``model.ce_loss``), so it
costs one weight-gradient product, as a replay batch does.  Replay memory
is refilled by herding (``data.herding_select``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .configcheck import check_field_types
from .data import MemoryBuffer, RowView, TaskStream, rebalance_memory, step_rows
from .model import (
    LinearHead,
    ce_loss,
    check_finite_epoch,
    cosine_lr,
    expand_head,
    sgd_step,
    weight_align,
)
from .numerics import RngStream, l2_rows, l2_rows_backward, softmax_rows

__all__ = ["CilConfig", "CilModel", "sgd_epochs", "train_task", "evaluate_accuracy"]

_METHODS = ("replay", "replay_distill", "replay_distill_wa")


@dataclass(frozen=True)
class CilConfig:
    # weight decay well above the fine-tuner's: it keeps the noise-dimension
    # weights of the expandable head small, which the logit-based scorers need
    epochs_per_task: int = 30
    batch_size: int = 128
    method: str = "replay"
    distill_temperature: float = 2.0
    distill_weight: float = 1.0
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.02

    def __post_init__(self):
        check_field_types(self)
        if self.epochs_per_task < 1:
            raise ValueError("need at least one epoch per task")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if self.distill_weight < 0:
            raise ValueError("distill_weight must be nonnegative")
        if self.distill_temperature <= 0:
            raise ValueError("distillation temperature must be positive")
        if self.method not in _METHODS:
            raise ValueError(f"unknown CIL method {self.method!r}")
        _check_sgd(self)


@dataclass
class CilModel:
    """The one model object, trained by CIL and scored by every OOD method:
    the growing head, and ``seen_classes`` mapping head rows to global
    class ids (row i predicts seen_classes[i]).  Features arrive already
    extracted, so the model reads its input as float64 rows.

    ``feature_tau`` optionally L2-normalizes penultimate features and
    divides them by the given temperature before the head, the transform
    used by the normalized-feature fine-tuner (train and test alike).
    This class is the one definition of the frozen forward pass
    (feature map, head), of its input gradient and of the map from class
    ids back to head rows (:meth:`head_rows`).
    """

    head: LinearHead
    seen_classes: list[int] = field(default_factory=list)
    feature_tau: float | None = None

    @classmethod
    def fresh(cls, dim: int) -> "CilModel":
        return cls(LinearHead.empty(dim), [])

    def head_rows(self, labels) -> np.ndarray:
        """The head row of each class id in ``labels``; an id outside
        ``seen_classes`` raises ValueError."""
        labels = np.asarray(labels, dtype=np.int64)
        seen = np.asarray(self.seen_classes, dtype=np.int64)
        unseen = ~np.isin(labels, seen)
        if unseen.any():
            raise ValueError(f"labels not yet seen: {np.unique(labels[unseen]).tolist()}")
        order = np.argsort(seen)
        return order[np.searchsorted(seen, labels, sorter=order)]

    def penultimate(self, X: np.ndarray) -> np.ndarray:
        Z = np.asarray(X, dtype=np.float64)
        return l2_rows(Z, self.feature_tau) if self.feature_tau else Z

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self.head.logits(self.penultimate(X))

    def backprop_input(self, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Map gradients w.r.t. the logits of rows ``X`` back to ``X``:
        through the head and the optional L2/temperature map."""
        G = G @ self.head.W
        return l2_rows_backward(X, G, self.feature_tau) if self.feature_tau else G


def _distill_grads(
    Z_new: np.ndarray, P_old: np.ndarray, logp: np.ndarray, T: float
) -> tuple[float, np.ndarray]:
    """KL(P_old || softmax(Z_new[:, :c_old]/T)) * T^2, mean over rows, and
    its gradient w.r.t. those first c_old logits (the new classes' logits
    do not enter it); ``logp`` is log(max(P_old, 1e-300)), fixed for the
    task."""
    n, c_old = P_old.shape
    Q = softmax_rows(Z_new[:, :c_old], T)
    logq = np.log(np.maximum(Q, 1e-300))
    loss = float((P_old * (logp - logq)).sum(axis=1).mean() * T * T)
    return loss, T * (Q - P_old) / n


def _check_sgd(cfg) -> None:
    """Reject the fields of ``cfg`` that ``sgd_epochs`` reads if they would
    train away from the objective or let the momentum grow without bound."""
    if cfg.lr0 <= 0:
        raise ValueError("lr0 must be positive")
    if not 0 <= cfg.momentum < 1:
        raise ValueError("momentum must lie in [0, 1)")
    if cfg.weight_decay < 0:
        raise ValueError("weight_decay must be nonnegative")


def sgd_epochs(head, n, objective, cfg, epochs, rng, label, what, t):
    """Momentum SGD on ``head`` over n rows: the one epoch loop of CIL
    training and of every fine-tuner.  ``cfg`` (a :class:`CilConfig` or a
    ``BerConfig``) gives ``batch_size``, ``lr0``, ``momentum`` and
    ``weight_decay``; the velocity starts at zero, shaped like the head.

    Epoch e walks the permutation drawn from ``rng.child(f"{label}-{e}")``
    in batches of ``batch_size``, calling ``objective(sel)`` once per
    batch, in order.  It returns ``(*terms, grad)`` for the rows ``sel``
    at the head's current weights, and ``sgd_step`` applies grad to
    batch ``it`` as step ``e * iters + it`` of ``epochs * iters``.  After
    each epoch the sum of all terms and the head must be finite
    (``DivergenceError`` names ``what``, the seed, step t and the epoch).
    Returns ``(sums, iters)`` once every epoch has run, ``sums[e]`` being
    each term summed over epoch e's batches.
    """
    batch_size = cfg.batch_size
    iters = math.ceil(n / batch_size)
    total = epochs * iters
    velocity = np.zeros_like(head.params)
    epoch_sums = []
    for epoch in range(epochs):
        perm = rng.child(f"{label}-{epoch}").gen.permutation(n)
        sums = None
        for it in range(iters):
            sel = perm[it * batch_size : (it + 1) * batch_size]
            *terms, grad = objective(sel)
            sgd_step(cfg, velocity, head, grad, epoch * iters + it, total)
            sums = [s + v for s, v in zip(sums or [0.0] * len(terms), terms)]
        check_finite_epoch(what, sum(sums), head, rng.seed, t, epoch)
        epoch_sums.append(sums)
    return epoch_sums, iters


def train_task(
    model: CilModel,
    stream: TaskStream,
    t: int,
    mem: MemoryBuffer,
    cfg: CilConfig,
    rng: RngStream,
    log_sink: list | None = None,
) -> tuple[CilModel, MemoryBuffer]:
    """Train step t (1-based) and rebalance the replay memory.

    ``mem`` must reflect steps < t; the returned buffer covers classes
    through t.  The head is expanded before training and, for the WA
    method with t > 1, aligned afterwards.  ``expand_head`` builds the
    trained head from new arrays, so ``model.head`` stays the pre-step
    head that the distillation targets read; they are computed only when
    distillation runs (a distill method, t > 1 and a nonzero weight).
    Each batch's logits are computed once, before its update, and serve
    the loss, the distillation term and the logged ``train_acc``.  Raises
    ``DivergenceError`` after an epoch with a non-finite loss or head.
    """
    classes = stream.classes[t - 1]
    old_count = model.head.n_classes
    head = expand_head(model.head, len(classes), rng.child(f"init-t{t}"))
    seen = list(model.seen_classes) + list(classes)

    rows, y = step_rows(stream, t, mem)
    X = rows.widen()
    y_rows = CilModel(head, seen).head_rows(y)
    distill = cfg.method != "replay" and t > 1 and cfg.distill_weight != 0.0
    if distill:
        P_old = softmax_rows(model.head.logits(X), cfg.distill_temperature)
        logp_old = np.log(np.maximum(P_old, 1e-300))

    def objective(sel):
        """(loss, correct predictions, grad) of one batch from one forward."""
        bx, by = X[sel], y_rows[sel]
        Z = head.logits(bx)
        correct = int(np.count_nonzero(np.argmax(Z, axis=1) == by))
        if not distill:
            loss, grad = ce_loss(head, bx, by, Z)
            return loss, correct, grad
        # the distillation's logit gradient joins CE's before the one product
        dl, G = _distill_grads(Z, P_old[sel], logp_old[sel], cfg.distill_temperature)
        loss, grad = ce_loss(head, bx, by, Z, cfg.distill_weight * G)
        return loss + cfg.distill_weight * dl, correct, grad

    n = X.shape[0]
    sums, iters = sgd_epochs(
        head, n, objective, cfg, cfg.epochs_per_task, rng, f"epoch-t{t}", "CIL training", t
    )
    for epoch, (loss, correct) in enumerate(sums):
        if log_sink is not None:
            # train_acc: the running accuracy of the epoch's batches, each
            # taken before its update
            lr = cosine_lr(cfg.lr0, (epoch + 1) * iters, cfg.epochs_per_task * iters)
            log_sink.append(
                {"task": t, "epoch": epoch, "loss": loss / iters, "lr": lr, "train_acc": correct / n}
            )

    if cfg.method == "replay_distill_wa" and t > 1:
        head = weight_align(head, list(range(old_count)), list(range(old_count, len(seen))))

    return CilModel(head, seen), rebalance_memory(mem, stream, t)


def evaluate_accuracy(model: CilModel, X, y: np.ndarray) -> float:
    """Fraction of rows of ``X``, an array or a ``RowView`` read slice by
    slice, whose argmax logit matches their label in ``y`` (ties go to the
    lowest class index); an unseen label is an error."""
    rows = model.head_rows(y)
    view = RowView.of(X)
    preds = np.empty(view.shape[0], dtype=np.intp)
    for part in view.slices():
        preds[part] = np.argmax(model.logits(view.read(part)), axis=1)
    return float((preds == rows).mean())
