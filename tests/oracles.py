"""Reference implementations that the tests compare the engine against.

The scalar ``logsumexp`` and ``softmax`` apply the engine's row-wise
functions to one vector; ``log_softmax_rows`` is the two-pass log-softmax
that the fused cross-entropy kernel must reproduce bit for bit;
``head_bytes`` is what two bit-identical heads share; ``ber_total`` sums
the BER objective's terms into the loss its gradient is taken of.
"""
import numpy as np

from cilbench.finetune import ber_terms
from cilbench.numerics import logsumexp_rows, softmax_rows


def logsumexp(v, tau: float = 1.0) -> float:
    """tau * log(sum_j exp(v_j / tau)) of one vector, through logsumexp_rows."""
    return float(logsumexp_rows(np.asarray(v, dtype=np.float64)[None, :], tau)[0])


def softmax(v, tau: float = 1.0) -> np.ndarray:
    """Softmax of one vector v / tau, through softmax_rows."""
    return softmax_rows(np.asarray(v, dtype=np.float64)[None, :], tau)[0]


def log_softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction; finite for any finite m."""
    m = np.asarray(m, dtype=np.float64)
    shifted = m - m.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def head_bytes(head) -> tuple[bytes, bytes]:
    """The bytes of a head's W and b; equal pairs mean bit-identical heads
    (equal b bytes fix the class count, and then W's bytes fix the shape)."""
    return head.W.tobytes(), head.b.tobytes()


def ber_total(head, ce_rows, ce_targets, id_rows, X_ps, X_mixed, cfg):
    """(CE + alpha * l_n + alpha * l_o, dW, db) from ``ber_terms``: the
    loss whose gradient the ``ber`` fine-tuner's dW, db are."""
    l_ce, l_n, l_o, dW, db = ber_terms(head, ce_rows, ce_targets, id_rows, X_ps, X_mixed, cfg)
    return l_ce + cfg.alpha * l_n + cfg.alpha * l_o, dW, db
