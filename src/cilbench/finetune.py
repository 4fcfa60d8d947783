"""Fine-tuning OOD methods over a frozen incremental model.

At each step an extra classifier, a copy of the incremental head, is
trained on the step's given features while the incremental head stays
untouched; detection scores come from the extra head, ID classification
stays on the original one.

Four trainers, each a batch objective for the SGD epoch loop CIL training
also uses (``cil.sgd_epochs``): plain cross-entropy, logit normalization
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
gradients are analytic and finite-difference checked.  The loss functions
take plain row arrays: ``_ber_batch`` passes the ``rows`` of the
pseudo-OOD batch and the blended array :func:`synth_old_mix` returns.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cil import CilModel, sgd_epochs
from .configcheck import check_field_types
from .data import MemoryBuffer, TaskStream, step_rows
from .model import LinearHead, ce_loss
from .model import sgd_step  # noqa: F401  (bench/layertrace.py wraps finetune.sgd_step)
from .numerics import RngStream, logsumexp_rows, logsumexp_softmax_rows, sample_beta
from .numerics import softmax_cross_entropy

__all__ = [
    "BerConfig",
    "PseudoOodBatch",
    "FINETUNE_METHODS",
    "energy_rows",
    "synth_pseudo_ood",
    "synth_old_mix",
    "nter_loss",
    "oter_loss",
    "logitnorm_ce_loss",
    "ber_total_loss",
    "finetune_step_loop",
    "scoring_model",
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
    logitnorm_tau: float = 0.04
    t2f_tau: float = 0.1
    use_nter: bool = True  # ablation switches for the two energy terms
    use_oter: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not 0.0 <= self.lambda_old <= 1.0:
            raise ValueError("lambda_old must lie in [0, 1]")
        if self.p_out >= self.p_in:
            raise ValueError("p_out must be below p_in")
        if self.hinge_orientation not in ("literal", "energy_paper"):
            raise ValueError(f"unknown hinge orientation {self.hinge_orientation!r}")
        if min(self.tau, self.logitnorm_tau, self.t2f_tau) <= 0:
            raise ValueError("temperatures must be positive")
        if len(self.beta_params) != 2 or not all(0 < v < math.inf for v in self.beta_params):
            raise ValueError("beta_params must be two positive finite numbers")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("need epochs >= 0 and batch_size >= 1")


@dataclass(frozen=True)
class PseudoOodBatch:
    """Boundary samples mixed from different-class rows of one batch.  The
    array is wrapped only because the layer tracer's
    ``bench/layertrace.py::_count_pseudo`` reads ``result.rows``."""

    rows: np.ndarray  # (m, d)


def energy_rows(Z: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Row-wise -tau * log sum_j exp(Z_ij / tau); low for confident rows."""
    return -logsumexp_rows(Z, tau)


def synth_pseudo_ood(
    features: np.ndarray,
    labels: np.ndarray,
    beta_params: tuple[float, float],
    rng: RngStream,
) -> PseudoOodBatch:
    """Mix same-batch rows of different classes: beta*x_i + (1-beta)*x_j.

    Pairs come from a seeded permutation; equal-label pairs are redrawn
    up to 16 times, then dropped.  Once all pairs are chosen, each pair
    draws its beta from ``rng`` in pair order.  A single-label batch yields
    no rows.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    m = features.shape[0]
    if m == 0 or np.unique(labels).size < 2:
        return PseudoOodBatch(np.zeros((0, features.shape[1] if features.ndim == 2 else 0)))
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
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    beta = np.array([sample_beta(*beta_params, rng) for _ in range(len(pairs))])[:, None]
    return PseudoOodBatch(beta * features[pairs[:, 0]] + (1.0 - beta) * features[pairs[:, 1]])


def synth_old_mix(
    new_rows: np.ndarray,
    mem_rows_: np.ndarray,
    lambda_old: float,
    rng: RngStream,
) -> np.ndarray:
    """The (max(a, b), d) rows lambda * x + (1 - lambda) * m, with seeded
    index matching; the shorter batch cycles."""
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
    return lambda_old * new_rows[xi] + (1.0 - lambda_old) * mem[mi]


def _hinge_energy_grads(
    head: LinearHead, X: np.ndarray, margin: float, side: str, tau: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """mean(max(0, a)^2) with a = margin - E (side="below") or
    a = E - margin (side="above"); analytic gradients via
    dE/dlogits = -softmax(logits / tau)."""
    if X.shape[0] == 0:
        d = head.dim
        return 0.0, np.zeros((head.n_classes, d)), np.zeros(head.n_classes)
    lse, P = logsumexp_softmax_rows(head.logits(X), tau)
    E = -lse
    a = (margin - E) if side == "below" else (E - margin)
    active = np.maximum(a, 0.0)
    loss = float((active**2).mean())
    # dL/dE per row, then chain through dE/dZ = -softmax(Z/tau)
    dE = 2.0 * active / X.shape[0]
    if side == "below":
        dE = -dE
    G = -dE[:, None] * P
    return loss, G.T @ X, G.sum(axis=0)


def nter_loss(
    head: LinearHead, id_rows: np.ndarray, X_ps: np.ndarray, cfg: BerConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """New-task energy hinges over ID rows and synthetic boundary rows."""
    if cfg.hinge_orientation == "literal":
        l1, dW1, db1 = _hinge_energy_grads(head, id_rows, cfg.p_in, "below", cfg.tau)
        l2, dW2, db2 = _hinge_energy_grads(head, X_ps, cfg.p_out, "above", cfg.tau)
    else:
        l1, dW1, db1 = _hinge_energy_grads(head, id_rows, cfg.p_in, "above", cfg.tau)
        l2, dW2, db2 = _hinge_energy_grads(head, X_ps, cfg.p_out, "below", cfg.tau)
    return l1 + l2, dW1 + dW2, db1 + db2


def oter_loss(
    head: LinearHead, X_mixed: np.ndarray, cfg: BerConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Old-task hinge mean(max(0, E(mbar) - p_in)^2): presses blended
    exemplar energies below p_in to restore old-class confidence."""
    return _hinge_energy_grads(head, X_mixed, cfg.p_in, "above", cfg.tau)


def logitnorm_ce_loss(
    head: LinearHead, X: np.ndarray, y_rows: np.ndarray, tau_ln: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy on z / (||z|| * tau_ln) with analytic gradients."""
    Z = head.logits(X)
    norms = np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-12)
    U = Z / (norms * tau_ln)
    loss, Gu = softmax_cross_entropy(U, y_rows)
    hat = Z / norms
    Gz = (Gu - hat * (Gu * hat).sum(axis=1, keepdims=True)) / (norms * tau_ln)
    return loss, Gz.T @ X, Gz.sum(axis=0)


def _ber_terms(
    head: LinearHead,
    ce_rows: np.ndarray,
    ce_targets: np.ndarray,
    id_rows: np.ndarray,
    X_ps: np.ndarray,
    X_mixed: np.ndarray | None,
    cfg: BerConfig,
) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """(ce, l_n, l_o, dW, db) with dW, db the gradient of
    CE + alpha * (l_n + l_o).  A term switched off by ``use_nter`` /
    ``use_oter``, or with no rows to regularize, is 0 and adds nothing."""
    l_ce, dW, db = ce_loss(head, ce_rows, ce_targets)
    l_n = l_o = 0.0
    if cfg.use_nter:
        l_n, dWn, dbn = nter_loss(head, id_rows, X_ps, cfg)
        dW += cfg.alpha * dWn
        db += cfg.alpha * dbn
    if cfg.use_oter and X_mixed is not None and X_mixed.shape[0]:
        l_o, dWo, dbo = oter_loss(head, X_mixed, cfg)
        dW += cfg.alpha * dWo
        db += cfg.alpha * dbo
    return l_ce, l_n, l_o, dW, db


def ber_total_loss(
    head: LinearHead,
    ce_rows: np.ndarray,
    ce_targets: np.ndarray,
    id_rows: np.ndarray,
    X_ps: np.ndarray,
    X_mixed: np.ndarray | None,
    cfg: BerConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """CE + alpha * (new-task hinges + old-task hinge): the objective the
    ``ber`` fine-tuner trains."""
    l_ce, l_n, l_o, dW, db = _ber_terms(
        head, ce_rows, ce_targets, id_rows, X_ps, X_mixed, cfg
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
        return _ber_terms(head, ax, ay, ax, pseudo.rows, None, cfg)
    pick = rng.child(f"membatch-{key}").gen.choice(
        Z_mem.shape[0], size=min(cfg.batch_size, Z_mem.shape[0]), replace=False
    )
    mX, my = Z_mem[pick], y_mem[pick]
    mixed = synth_old_mix(bx, mX, cfg.lambda_old, rng.child(f"oldmix-{key}"))
    ce_X, ce_y = np.concatenate([ax, mX]), np.concatenate([ay, my])
    return _ber_terms(head, ce_X, ce_y, ax, pseudo.rows, mixed, cfg)


def scoring_model(model: CilModel, head: LinearHead, method: str, cfg: BerConfig) -> CilModel:
    """``model`` with ``head`` in place of its own, and the feature map the
    fine-tuner ``method`` trains and scores through: ``t2fnorm`` features
    are L2-normalized and divided by ``cfg.t2f_tau``, the others are not."""
    feature_tau = cfg.t2f_tau if method == "t2fnorm" else None
    return CilModel(model.extractor, head, list(model.seen_classes), feature_tau)


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
    appends its mean ``ce``/``l_n``/``l_o`` to ``log_sink``; an epoch
    with a non-finite loss or head raises ``DivergenceError``.  Returns the
    fine-tuned head, trained on the features of :func:`scoring_model`, the
    model it is scored through.
    """
    if method not in FINETUNE_METHODS:
        raise ValueError(f"unknown fine-tune method {method!r}")
    row_of = model.class_to_row()
    X_raw, labels = step_rows(stream, t, mem)
    Z_all = scoring_model(model, model.head, method, cfg).penultimate(X_raw)
    y_all = np.array([row_of[int(c)] for c in labels], dtype=np.int64)
    n_new = stream.tasks[t - 1].train.n
    Z_new, Z_mem = Z_all[:n_new], Z_all[n_new:]
    y_new, y_mem = y_all[:n_new], y_all[n_new:]

    head = model.head.clone()

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
        X, y, label = Z_new, y_new, f"ber-epoch-t{t}"

        def objective(sel, epoch, it):
            key = f"t{t}-{epoch}-{it}"
            return _ber_batch(head, X[sel], y[sel], Z_mem, y_mem, cfg, rng, key)
    else:
        X, y, label = Z_all, y_all, f"ft-epoch-t{t}"

        def objective(sel, epoch, it):
            if method == "logitnorm":
                loss, dW, db = logitnorm_ce_loss(head, X[sel], y[sel], cfg.logitnorm_tau)
            else:
                loss, dW, db = ce_loss(head, X[sel], y[sel])
            return loss, 0.0, 0.0, dW, db

    epochs = sgd_epochs(
        head, X.shape[0], objective, cfg, cfg.epochs, rng, label, f"{method} fine-tuning", t
    )
    for epoch, sums, iters in epochs:
        if log_sink is not None:
            means = {k: v / iters for k, v in zip(("ce", "l_n", "l_o"), sums)}
            log_sink.append({"task": t, "epoch": epoch, **means})
    return head
