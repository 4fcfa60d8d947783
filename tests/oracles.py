"""Reference implementations that the tests compare the engine against.

The scalar ``logsumexp`` and ``softmax`` apply the engine's row-wise
functions to one vector; ``log_softmax_rows`` is the two-pass log-softmax
that the fused cross-entropy kernel must reproduce bit for bit;
``head_bytes`` is what two bit-identical heads share.
"""
import numpy as np

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
