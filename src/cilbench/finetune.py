"""Fine-tuning OOD methods over a frozen incremental model.

At each step an extra classifier, a copy of the incremental head, is
trained on the step's given features while the incremental head stays
untouched; detection scores come from the extra head, ID classification
stays on the original one.  :func:`finetune_step_loop` returns the extra
head as the ``CilModel`` the step is scored through, with the feature
map it was trained on.

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

A ``ber`` step draws every batch's randomness from one generator,
``rng.child(f"ber-batches-t{t}").gen``, in batch order.  Within a batch:
the pseudo-OOD partner permutation, the redraws of equal-label partners
(all at once, up to 16 rounds), the Beta weights of the kept rows in row
order, then, with a replay memory, the replay batch and the two
permutations of the old-task blend.  The epoch permutations keep their
own ``ber-epoch-t{t}-{e}`` streams.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .cil import CilModel, _check_sgd, sgd_epochs
from .configcheck import check_field_types
from .data import MemoryBuffer, TaskStream, step_rows
from .model import LinearHead, ce_loss, head_grad
from .model import sgd_step  # noqa: F401  (bench/layertrace.py wraps finetune.sgd_step)
from .numerics import RngStream, l2_rows, l2_rows_backward, logsumexp_softmax_rows, row_norms
from .numerics import softmax_cross_entropy

__all__ = [
    "BerConfig",
    "PseudoOodBatch",
    "FINETUNE_METHODS",
    "synth_pseudo_ood",
    "synth_old_mix",
    "nter_loss",
    "oter_loss",
    "logitnorm_ce_loss",
    "ber_terms",
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
        _check_sgd(self)


@dataclass(frozen=True)
class PseudoOodBatch:
    """Boundary samples mixed from different-class rows of one batch.  The
    array is wrapped only because the layer tracer's
    ``bench/layertrace.py::_count_pseudo`` reads ``result.rows``."""

    rows: np.ndarray  # (m, d)


def synth_pseudo_ood(
    features: np.ndarray,
    labels: np.ndarray,
    beta_params: tuple[float, float],
    gen: np.random.Generator,
) -> PseudoOodBatch:
    """Mix same-batch rows of different classes: beta*x_i + (1-beta)*x_j.

    Row i's partner j comes from ``gen.permutation(m)``.  For up to 16
    rounds, every row whose partner shares its label draws a new partner,
    all such rows at once; rows still paired with their own label are
    dropped.  Then the kept rows draw their betas from ``gen`` in row
    order.  A single-label batch draws nothing and yields no rows.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    m = features.shape[0]
    if m == 0 or np.unique(labels).size < 2:
        return PseudoOodBatch(np.zeros((0, features.shape[1] if features.ndim == 2 else 0)))
    partner = gen.permutation(m)
    for _ in range(16):
        same = np.flatnonzero(labels[partner] == labels)
        if same.size == 0:
            break
        partner[same] = gen.integers(m, size=same.size)
    kept = np.flatnonzero(labels[partner] != labels)
    beta = gen.beta(*beta_params, size=kept.size)[:, None]
    return PseudoOodBatch(beta * features[kept] + (1.0 - beta) * features[partner[kept]])


def synth_old_mix(
    new_rows: np.ndarray,
    mem_rows_: np.ndarray,
    lambda_old: float,
    gen: np.random.Generator,
) -> np.ndarray:
    """The (max(a, b), d) rows lambda * x + (1 - lambda) * m, matched by
    ``gen.permutation(a)`` then ``gen.permutation(b)``; the shorter batch
    cycles."""
    new_rows = np.asarray(new_rows, dtype=np.float64)
    mem = np.asarray(mem_rows_, dtype=np.float64)
    a, b = new_rows.shape[0], mem.shape[0]
    if a == 0 or b == 0:
        raise ValueError("both batches must be nonempty")
    length = max(a, b)
    perm_x = gen.permutation(a)
    perm_m = gen.permutation(b)
    xi = perm_x[np.arange(length) % a]
    mi = perm_m[np.arange(length) % b]
    return lambda_old * new_rows[xi] + (1.0 - lambda_old) * mem[mi]


def _hinge_energy_grads(
    head: LinearHead, X: np.ndarray, margin: float, side: str, tau: float
) -> tuple[float, np.ndarray]:
    """mean(max(0, a)^2) with a = margin - E (side="below") or
    a = E - margin (side="above"); analytic gradient via
    dE/dlogits = -softmax(logits / tau)."""
    if X.shape[0] == 0:
        return 0.0, np.zeros_like(head.params)
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
    return loss, head_grad(G, X)


def nter_loss(
    head: LinearHead, id_rows: np.ndarray, X_ps: np.ndarray, cfg: BerConfig
) -> tuple[float, np.ndarray]:
    """New-task energy hinges over ID rows and synthetic boundary rows."""
    if cfg.hinge_orientation == "literal":
        l1, g1 = _hinge_energy_grads(head, id_rows, cfg.p_in, "below", cfg.tau)
        l2, g2 = _hinge_energy_grads(head, X_ps, cfg.p_out, "above", cfg.tau)
    else:
        l1, g1 = _hinge_energy_grads(head, id_rows, cfg.p_in, "above", cfg.tau)
        l2, g2 = _hinge_energy_grads(head, X_ps, cfg.p_out, "below", cfg.tau)
    return l1 + l2, g1 + g2


def oter_loss(
    head: LinearHead, X_mixed: np.ndarray, cfg: BerConfig
) -> tuple[float, np.ndarray]:
    """Old-task hinge mean(max(0, E(mbar) - p_in)^2): presses blended
    exemplar energies below p_in to restore old-class confidence."""
    return _hinge_energy_grads(head, X_mixed, cfg.p_in, "above", cfg.tau)


def logitnorm_ce_loss(
    head: LinearHead, X: np.ndarray, y_rows: np.ndarray, tau_ln: float
) -> tuple[float, np.ndarray]:
    """Cross-entropy on z / (||z|| * tau_ln) with its analytic gradient."""
    Z = head.logits(X)
    norms = row_norms(Z)
    loss, Gu = softmax_cross_entropy(l2_rows(Z, tau_ln, norms), y_rows)
    return loss, head_grad(l2_rows_backward(Z, Gu, tau_ln, norms), X)


def ber_terms(
    head: LinearHead,
    ce_rows: np.ndarray,
    ce_targets: np.ndarray,
    id_rows: np.ndarray,
    X_ps: np.ndarray,
    X_mixed: np.ndarray | None,
    cfg: BerConfig,
) -> tuple[float, float, float, np.ndarray]:
    """The objective the ``ber`` fine-tuner trains, CE + alpha * (new-task
    hinges + old-task hinge), as (ce, l_n, l_o, grad) with grad the
    gradient of CE + alpha * (l_n + l_o).  A term switched off by
    ``use_nter`` / ``use_oter``, or with no rows to regularize, is 0 and
    adds nothing."""
    l_ce, grad = ce_loss(head, ce_rows, ce_targets)
    l_n = l_o = 0.0
    if cfg.use_nter:
        l_n, g = nter_loss(head, id_rows, X_ps, cfg)
        grad += cfg.alpha * g
    if cfg.use_oter and X_mixed is not None and X_mixed.shape[0]:
        l_o, g = oter_loss(head, X_mixed, cfg)
        grad += cfg.alpha * g
    return l_ce, l_n, l_o, grad


def _ber_batch(head, bx, by, Z_mem, y_mem, cfg, gen):
    """BER terms for one batch of new-task rows: the first half feeds CE
    and the ID hinge, the second half is mixed into boundary samples, and
    a replay batch joins CE and is blended into the old-task hinge.  Every
    random draw comes from ``gen``."""
    half = (len(by) + 1) // 2
    ax, ay = bx[:half], by[:half]
    pseudo = synth_pseudo_ood(bx[half:], by[half:], cfg.beta_params, gen)
    if Z_mem.shape[0] == 0:
        return ber_terms(head, ax, ay, ax, pseudo.rows, None, cfg)
    pick = gen.choice(Z_mem.shape[0], size=min(cfg.batch_size, Z_mem.shape[0]), replace=False)
    mX, my = Z_mem[pick], y_mem[pick]
    mixed = synth_old_mix(bx, mX, cfg.lambda_old, gen)
    ce_X, ce_y = np.concatenate([ax, mX]), np.concatenate([ay, my])
    return ber_terms(head, ce_X, ce_y, ax, pseudo.rows, mixed, cfg)


def finetune_step_loop(
    model: CilModel,
    stream: TaskStream,
    t: int,
    mem: MemoryBuffer,
    method: str,
    cfg: BerConfig,
    rng: RngStream,
    log_sink: list | None = None,
) -> CilModel:
    """Train the extra classifier for step t; the frozen model is untouched.

    ``mem`` must be the replay memory from steps < t (it is empty at
    t = 1, in which case the old-task term is skipped).  Plain, logitnorm
    and t2fnorm train on new-task rows and memory pooled; ``ber`` epochs
    run over new-task rows and draw a replay batch per SGD step, all from
    the step's one batch generator, out of the memory rows read once.
    Each batch is read through the step's view and mapped then; no whole
    copy of the new-task rows is made.  Each epoch appends its mean
    ``ce``/``l_n``/``l_o`` to ``log_sink``; an epoch with a non-finite
    loss or head raises ``DivergenceError``.

    Returns the model the step is scored through: the fine-tuned head,
    whose rows are ``model``'s, and the feature map it was trained on.
    ``t2fnorm`` features are L2-normalized and divided by ``cfg.t2f_tau``;
    the other methods train on the features as given.
    """
    if method not in FINETUNE_METHODS:
        raise ValueError(f"unknown fine-tune method {method!r}")
    feature_tau = cfg.t2f_tau if method == "t2fnorm" else None
    tuned = CilModel(model.head.clone(), feature_tau)
    head = tuned.head
    rows, y_all = step_rows(stream, t, mem)
    n_new = stream.train_bounds[t] - stream.train_bounds[t - 1]
    y_new, y_mem = y_all[:n_new], y_all[n_new:]

    def features(sel):
        """The rows at step positions ``sel`` through the tuned feature map."""
        return tuned.penultimate(rows.read(sel))

    if method == "ber":
        Z_mem = features(slice(n_new, None))  # the replay pool, read once
        if Z_mem.shape[0] == 0:
            # step 1 has no memory by design; later steps only with budget 0
            log.log(
                logging.DEBUG if t == 1 else logging.WARNING,
                "seed %d step %d: empty replay memory, old-task term skipped",
                rng.seed, t,
            )
            if log_sink is not None:
                log_sink.append({"task": t, "warning": "empty memory, old-task term skipped"})
        n, label = n_new, f"ber-epoch-t{t}"
        gen = rng.child(f"ber-batches-t{t}").gen

        def objective(sel):
            return _ber_batch(head, features(sel), y_new[sel], Z_mem, y_mem, cfg, gen)
    else:
        n, label = rows.shape[0], f"ft-epoch-t{t}"

        def objective(sel):
            if method == "logitnorm":
                loss, grad = logitnorm_ce_loss(head, features(sel), y_all[sel], cfg.logitnorm_tau)
            else:
                loss, grad = ce_loss(head, features(sel), y_all[sel])
            return loss, 0.0, 0.0, grad

    sums, iters = sgd_epochs(
        head, n, objective, cfg, cfg.epochs, rng, label, f"{method} fine-tuning", t
    )
    for epoch, terms in enumerate(sums):
        if log_sink is not None:
            means = {k: v / iters for k, v in zip(("ce", "l_n", "l_o"), terms)}
            log_sink.append({"task": t, "epoch": epoch, **means})
    return tuned
