"""Fine-tuning OOD methods over a frozen incremental model.

At each step an extra classifier is trained on top of the frozen
extractor while the incremental head stays untouched; detection scores
come from the extra head, ID classification stays on the original one.

Four trainers share one loop: plain cross-entropy, logit normalization
(CE on f / (||f|| * tau_ln)), normalized-feature training (features
L2-normalized and divided by a temperature before the head, train and
test alike), and bidirectional energy regularization.  The last one
mixes same-batch rows of different classes into synthetic boundary
samples, hinge-regularizes energies of new-task and synthetic rows, and
additionally mixes a trickle of the current batch into replay exemplars
to push old-class energies down.

Energy convention: E(x) = -tau * log sum_j exp(f_j(x) / tau), so
confident rows have very negative energy.  ``hinge_orientation``
chooses how the new-task hinges read:

* ``literal``      - max(0, p_in - E(x))^2  +  max(0, E(xbar) - p_out)^2
* ``energy_paper`` - max(0, E(x) - p_in)^2  +  max(0, p_out - E(xbar))^2
  (the inequality direction of the energy-margin fine-tuning
  literature: ID energies pressed below p_in, synthetic-OOD energies
  pressed above p_out)

The old-task hinge is max(0, E(mbar) - p_in)^2 in both modes.  All
gradients are analytic and finite-difference checked.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cil import CilModel
from .data import MemoryBuffer, TaskStream, features_by_class, memory_rows
from .model import LinearHead, SgdState, ce_loss, expand_head, sgd_step
from .numerics import (
    RngStream,
    log_softmax_rows,
    logsumexp,
    logsumexp_rows,
    sample_beta,
    softmax_rows,
)

__all__ = [
    "BerConfig",
    "PseudoOodBatch",
    "MixedOldBatch",
    "FINETUNE_METHODS",
    "energy",
    "energy_rows",
    "synth_pseudo_ood",
    "synth_old_mix",
    "nter_loss",
    "oter_loss",
    "logitnorm_ce_loss",
    "t2f_transform",
    "ber_total_loss",
    "finetune_step_loop",
]

log = logging.getLogger(__name__)

FINETUNE_METHODS = ("plain", "logitnorm", "t2fnorm", "ber")


@dataclass(frozen=True)
class BerConfig:
    alpha: float = 0.1
    tau: float = 1.0
    p_in: float = -5.0
    p_out: float = -27.0
    lambda_old: float = 0.002
    beta_params: tuple[float, float] = (1.0, 1.0)
    epochs: int = 10
    batch_size: int = 128
    hinge_orientation: str = "literal"
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    init: str = "copy"  # copy the frozen head, or "fresh" seeded rows
    logitnorm_tau: float = 0.04
    t2f_tau: float = 0.1
    use_nter: bool = True  # ablation switches for the two energy terms
    use_oter: bool = True

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not 0.0 <= self.lambda_old <= 1.0:
            raise ValueError("lambda_old must lie in [0, 1]")
        if self.p_out >= self.p_in:
            raise ValueError("p_out must be below p_in")
        if self.hinge_orientation not in ("literal", "energy_paper"):
            raise ValueError(f"unknown hinge orientation {self.hinge_orientation!r}")
        if self.init not in ("copy", "fresh"):
            raise ValueError(f"unknown init {self.init!r}")
        if min(self.tau, self.logitnorm_tau, self.t2f_tau) <= 0:
            raise ValueError("temperatures must be positive")

    @classmethod
    def from_dict(cls, doc: dict) -> "BerConfig":
        doc = dict(doc)
        if "beta_params" in doc:
            doc["beta_params"] = tuple(doc["beta_params"])
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown fine-tune params: {sorted(unknown)}")
        return cls(**doc)


@dataclass(frozen=True)
class PseudoOodBatch:
    """Boundary samples mixed from different-class rows of one batch."""

    rows: np.ndarray  # (m, d)
    pairs: np.ndarray  # (m, 2) source indices (i, j)
    degenerate: bool = False  # single-label batch, nothing synthesized


@dataclass(frozen=True)
class MixedOldBatch:
    """Replay exemplars blended with a trickle of current-task rows."""

    rows: np.ndarray
    new_idx: np.ndarray
    mem_idx: np.ndarray
    labels: np.ndarray  # labels of the dominant (memory) source


def energy(f_logits, tau: float = 1.0) -> float:
    """-tau * log sum_j exp(f_j / tau); low for confident rows."""
    return -logsumexp(f_logits, tau)


def energy_rows(Z: np.ndarray, tau: float = 1.0) -> np.ndarray:
    return -logsumexp_rows(Z, tau)


def synth_pseudo_ood(
    features: np.ndarray,
    labels: np.ndarray,
    beta_params: tuple[float, float],
    rng: RngStream,
) -> PseudoOodBatch:
    """Mix same-batch rows of different classes: beta*x_i + (1-beta)*x_j.

    Pairs come from a seeded permutation; equal-label pairs are redrawn
    up to 16 times, then dropped.  A single-label batch yields an empty,
    degenerate batch.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    m = features.shape[0]
    if m == 0 or np.unique(labels).size < 2:
        return PseudoOodBatch(
            np.zeros((0, features.shape[1] if features.ndim == 2 else 0)),
            np.zeros((0, 2), dtype=np.int64),
            degenerate=True,
        )
    gen = rng.gen
    partner = gen.permutation(m)
    pairs = []
    for i in range(m):
        j = int(partner[i])
        tries = 0
        while labels[i] == labels[j] and tries < 16:
            j = int(gen.integers(m))
            tries += 1
        if labels[i] != labels[j]:
            pairs.append((i, j))
    rows = np.empty((len(pairs), features.shape[1]))
    for r, (i, j) in enumerate(pairs):
        beta = sample_beta(beta_params[0], beta_params[1], rng)
        rows[r] = beta * features[i] + (1.0 - beta) * features[j]
    return PseudoOodBatch(rows, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def synth_old_mix(
    new_rows: np.ndarray,
    mem_rows_: np.ndarray,
    mem_labels: np.ndarray,
    lambda_old: float,
    rng: RngStream,
) -> MixedOldBatch:
    """lambda * x + (1 - lambda) * m with seeded index matching; the
    shorter batch cycles.  Labels follow the memory source."""
    new_rows = np.asarray(new_rows, dtype=np.float64)
    mem = np.asarray(mem_rows_, dtype=np.float64)
    a, b = new_rows.shape[0], mem.shape[0]
    if a == 0 or b == 0:
        raise ValueError("both batches must be nonempty")
    length = max(a, b)
    perm_x = rng.child("x").gen.permutation(a)
    perm_m = rng.child("m").gen.permutation(b)
    xi = perm_x[np.arange(length) % a]
    mi = perm_m[np.arange(length) % b]
    rows = lambda_old * new_rows[xi] + (1.0 - lambda_old) * mem[mi]
    return MixedOldBatch(rows, xi, mi, np.asarray(mem_labels)[mi])


def _hinge_energy_grads(
    head: LinearHead, X: np.ndarray, margin: float, side: str, tau: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """mean(max(0, a)^2) with a = margin - E (side="below") or
    a = E - margin (side="above"); analytic gradients via
    dE/dlogits = -softmax(logits / tau)."""
    if X.shape[0] == 0:
        d = head.dim
        return 0.0, np.zeros((head.n_classes, d)), np.zeros(head.n_classes)
    Z = head.logits(X)
    E = energy_rows(Z, tau)
    a = (margin - E) if side == "below" else (E - margin)
    active = np.maximum(a, 0.0)
    loss = float((active**2).mean())
    # dL/dE per row, then chain through dE/dZ = -softmax(Z/tau)
    dE = 2.0 * active / X.shape[0]
    if side == "below":
        dE = -dE
    P = softmax_rows(Z, tau)
    G = -dE[:, None] * P
    return loss, G.T @ X, G.sum(axis=0)


def nter_loss(
    head: LinearHead,
    id_rows: np.ndarray,
    pseudo: PseudoOodBatch | np.ndarray,
    cfg: BerConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """New-task energy hinges over ID rows and synthetic boundary rows."""
    X_ps = pseudo.rows if isinstance(pseudo, PseudoOodBatch) else np.asarray(pseudo)
    if cfg.hinge_orientation == "literal":
        l1, dW1, db1 = _hinge_energy_grads(head, id_rows, cfg.p_in, "below", cfg.tau)
        l2, dW2, db2 = _hinge_energy_grads(head, X_ps, cfg.p_out, "above", cfg.tau)
    else:
        l1, dW1, db1 = _hinge_energy_grads(head, id_rows, cfg.p_in, "above", cfg.tau)
        l2, dW2, db2 = _hinge_energy_grads(head, X_ps, cfg.p_out, "below", cfg.tau)
    return l1 + l2, dW1 + dW2, db1 + db2


def oter_loss(
    head: LinearHead, mixed: MixedOldBatch | np.ndarray, cfg: BerConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Old-task hinge mean(max(0, E(mbar) - p_in)^2): presses blended
    exemplar energies below p_in to restore old-class confidence."""
    X = mixed.rows if isinstance(mixed, MixedOldBatch) else np.asarray(mixed)
    return _hinge_energy_grads(head, X, cfg.p_in, "above", cfg.tau)


def logitnorm_ce_loss(
    head: LinearHead, X: np.ndarray, y_rows: np.ndarray, tau_ln: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy on z / (||z|| * tau_ln) with analytic gradients."""
    Z = head.logits(X)
    n = X.shape[0]
    norms = np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-12)
    U = Z / (norms * tau_ln)
    P = softmax_rows(U)
    loss = -log_softmax_rows(U)[np.arange(n), y_rows].mean()
    Gu = P
    Gu[np.arange(n), y_rows] -= 1.0
    Gu /= n
    hat = Z / norms
    Gz = (Gu - hat * (Gu * hat).sum(axis=1, keepdims=True)) / (norms * tau_ln)
    return float(loss), Gz.T @ X, Gz.sum(axis=0)


def t2f_transform(Z: np.ndarray, tau: float) -> np.ndarray:
    """L2-normalize rows then divide by tau (applied train and test alike)."""
    Z = np.asarray(Z, dtype=np.float64)
    norms = np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-12)
    return Z / (norms * tau)


def _ber_terms(
    head: LinearHead,
    ce_rows: np.ndarray,
    ce_targets: np.ndarray,
    id_rows: np.ndarray,
    pseudo: PseudoOodBatch | np.ndarray,
    mixed: MixedOldBatch | np.ndarray | None,
    cfg: BerConfig,
) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """(ce, l_n, l_o, dW, db) with dW, db the gradient of
    CE + alpha * (l_n + l_o).  A term switched off by ``use_nter`` /
    ``use_oter``, or with no rows to regularize, is 0 and adds nothing."""
    l_ce, dW, db = ce_loss(head, ce_rows, ce_targets)
    l_n = l_o = 0.0
    if cfg.use_nter:
        l_n, dWn, dbn = nter_loss(head, id_rows, pseudo, cfg)
        dW += cfg.alpha * dWn
        db += cfg.alpha * dbn
    if cfg.use_oter and mixed is not None:
        rows = mixed.rows if isinstance(mixed, MixedOldBatch) else np.asarray(mixed)
        if rows.shape[0]:
            l_o, dWo, dbo = oter_loss(head, mixed, cfg)
            dW += cfg.alpha * dWo
            db += cfg.alpha * dbo
    return l_ce, l_n, l_o, dW, db


def ber_total_loss(
    head: LinearHead,
    ce_rows: np.ndarray,
    ce_targets: np.ndarray,
    id_rows: np.ndarray,
    pseudo: PseudoOodBatch | np.ndarray,
    mixed: MixedOldBatch | np.ndarray | None,
    cfg: BerConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """CE + alpha * (new-task hinges + old-task hinge): the objective the
    ``ber`` fine-tuner trains."""
    l_ce, l_n, l_o, dW, db = _ber_terms(
        head, ce_rows, ce_targets, id_rows, pseudo, mixed, cfg
    )
    return l_ce + cfg.alpha * l_n + cfg.alpha * l_o, dW, db


def _ber_batch(head, bx, by, Z_mem, y_mem, cfg, rng, key):
    """BER terms for one batch of new-task rows: the first half feeds CE
    and the ID hinge, the second half is mixed into boundary samples, and
    a replay batch joins CE and is blended into the old-task hinge."""
    half = (len(by) + 1) // 2
    ax, ay = bx[:half], by[:half]
    pseudo = synth_pseudo_ood(bx[half:], by[half:], cfg.beta_params, rng.child(f"mix-{key}"))
    if Z_mem.shape[0] == 0:
        return _ber_terms(head, ax, ay, ax, pseudo, None, cfg)
    pick = rng.child(f"membatch-{key}").gen.choice(
        Z_mem.shape[0], size=min(cfg.batch_size, Z_mem.shape[0]), replace=False
    )
    mX, my = Z_mem[pick], y_mem[pick]
    mixed = synth_old_mix(bx, mX, my, cfg.lambda_old, rng.child(f"oldmix-{key}"))
    ce_X, ce_y = np.concatenate([ax, mX]), np.concatenate([ay, my])
    return _ber_terms(head, ce_X, ce_y, ax, pseudo, mixed, cfg)


def _init_extra_head(model: CilModel, cfg: BerConfig, rng: RngStream) -> LinearHead:
    if cfg.init == "copy":
        return model.head.clone()
    fresh = expand_head(
        LinearHead.empty(model.head.dim), model.head.n_classes, "seeded_uniform", rng
    )
    return fresh


def finetune_step_loop(
    model: CilModel,
    stream: TaskStream,
    t: int,
    mem: MemoryBuffer,
    method: str,
    cfg: BerConfig,
    rng: RngStream,
    log_sink: list | None = None,
) -> LinearHead:
    """Train the extra classifier for step t; the frozen model is untouched.

    ``mem`` must be the replay memory from steps < t (it is empty at
    t = 1, in which case the old-task term is skipped).  Plain, logitnorm
    and t2fnorm train on new-task rows and memory pooled; ``ber`` epochs
    run over new-task rows and draw a replay batch per step.  Each epoch
    appends its mean ``ce``/``l_n``/``l_o`` to ``log_sink``.  Returns the
    fine-tuned head; for the normalized-feature method the caller must
    score through :func:`t2f_transform` (see ``CilModel.feature_tau``).
    """
    if method not in FINETUNE_METHODS:
        raise ValueError(f"unknown fine-tune method {method!r}")
    task = stream.tasks[t - 1]
    row_of = model.class_to_row()

    Z_new = model.extractor.extract(task.train.features)
    y_new = np.array([row_of[int(c)] for c in task.train.labels], dtype=np.int64)
    mem_X_raw, mem_y = memory_rows(mem, features_by_class(stream, t))
    Z_mem = model.extractor.extract(mem_X_raw) if mem_X_raw.size else mem_X_raw
    y_mem = np.array([row_of[int(c)] for c in mem_y], dtype=np.int64)

    if method == "t2fnorm":
        Z_new = t2f_transform(Z_new, cfg.t2f_tau)
        if Z_mem.size:
            Z_mem = t2f_transform(Z_mem, cfg.t2f_tau)

    head = _init_extra_head(model, cfg, rng.child(f"ft-init-t{t}"))
    state = SgdState(cfg.lr0, cfg.momentum, cfg.weight_decay)

    if method == "ber":
        if Z_mem.shape[0] == 0:
            # step 1 has no memory by design; later steps only with budget 0
            log.log(
                logging.DEBUG if t == 1 else logging.WARNING,
                "seed %d step %d: empty replay memory, old-task term skipped",
                rng.seed, t,
            )
            if log_sink is not None:
                log_sink.append({"task": t, "warning": "empty memory, old-task term skipped"})
        X, y, label = Z_new, y_new, "ber-epoch"

        def objective(bx, by, key):
            return _ber_batch(head, bx, by, Z_mem, y_mem, cfg, rng, key)
    else:
        X = np.concatenate([Z_new, Z_mem]) if Z_mem.size else Z_new
        y = np.concatenate([y_new, y_mem]) if Z_mem.size else y_new
        label = "ft-epoch"

        def objective(bx, by, key):
            if method == "logitnorm":
                loss, dW, db = logitnorm_ce_loss(head, bx, by, cfg.logitnorm_tau)
            else:
                loss, dW, db = ce_loss(head, bx, by)
            return loss, 0.0, 0.0, dW, db

    n = X.shape[0]
    iters = math.ceil(n / cfg.batch_size)
    total = cfg.epochs * iters
    for epoch in range(cfg.epochs):
        perm = rng.child(f"{label}-t{t}-{epoch}").gen.permutation(n)
        sums = {"ce": 0.0, "l_n": 0.0, "l_o": 0.0}
        for it in range(iters):
            sel = perm[it * cfg.batch_size : (it + 1) * cfg.batch_size]
            l_ce, l_n, l_o, dW, db = objective(X[sel], y[sel], f"t{t}-{epoch}-{it}")
            sgd_step(state, head, dW, db, epoch * iters + it, total)
            sums["ce"] += l_ce
            sums["l_n"] += l_n
            sums["l_o"] += l_o
        if log_sink is not None:
            log_sink.append(
                {"task": t, "epoch": epoch, **{k: v / iters for k, v in sums.items()}}
            )
    return head
