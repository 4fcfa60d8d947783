"""Reference implementations that the tests compare the engine against.

The scalar ``logsumexp`` and ``softmax`` apply the engine's row-wise
functions to one vector; ``log_softmax_rows`` is the two-pass log-softmax
that the fused cross-entropy kernel must reproduce bit for bit;
``head_bytes`` is what two bit-identical heads share; ``ber_total`` sums
the BER objective's terms into the loss its gradient is taken of.
``rank_auroc``, ``rank_fpr_at_tpr95`` and ``rank_average_precision`` compute
the metrics from one pooled ranking of the float64 ID and OOD score arrays;
the counting metrics must give their bits.  ``subset`` builds a checked
dataset from chosen rows of another.  ``synth_generate`` is the serial
synthetic-suite generator whose bytes ``synthgen.generate`` must give.
"""
import numpy as np

from cilbench.data import FeatureDataset, OodEntry, OodSuite
from cilbench.finetune import ber_terms
from cilbench.numerics import RngStream, logsumexp_rows, softmax_rows
from cilbench.synthgen import SynthSpec, _class_means, _reserved_axes


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


def subset(ds: FeatureDataset, idx) -> FeatureDataset:
    """The rows ``idx`` of ``ds``, in that order, as a new checked dataset."""
    idx = np.asarray(idx, dtype=np.int64)
    return FeatureDataset(ds.features[idx], ds.labels[idx], ds.n_classes)


def head_bytes(head) -> tuple[bytes, bytes]:
    """The bytes of a head's W and b; equal pairs mean bit-identical heads
    (equal b bytes fix the class count, and then W's bytes fix the shape)."""
    return head.W.tobytes(), head.b.tobytes()


def ber_total(head, ce_rows, ce_targets, id_rows, X_ps, X_mixed, cfg):
    """(CE + alpha * l_n + alpha * l_o, grad) from ``ber_terms``: the
    loss whose gradient the ``ber`` fine-tuner's grad is."""
    l_ce, l_n, l_o, grad = ber_terms(head, ce_rows, ce_targets, id_rows, X_ps, X_mixed, cfg)
    return l_ce + cfg.alpha * l_n + cfg.alpha * l_o, grad


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the group mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of c tied values ending at 1-based rank e has mean rank
    # e - (c - 1) / 2; every term is an exact half-integer
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def rank_auroc(a: np.ndarray, b: np.ndarray) -> float:
    """P(id > ood) + 0.5 P(id = ood), from the midranks of the pooled scores."""
    ranks = _midranks(np.concatenate([a, b]))
    u = ranks[: a.size].sum() - a.size * (a.size + 1) / 2.0
    return float(u / (a.size * b.size))


def rank_fpr_at_tpr95(a: np.ndarray, b: np.ndarray) -> float:
    """FPR on OOD at the largest threshold keeping TPR(id) >= 0.95."""
    n = a.size
    need = -((-19 * n) // 20)  # ceil(0.95 n) in exact integer arithmetic
    thresh = np.sort(a)[::-1][need - 1]
    return float(np.count_nonzero(b >= thresh) / b.size)


def rank_average_precision(a: np.ndarray, b: np.ndarray) -> float:
    """AP of the OOD rows' positions in one lexsort of the pooled scores."""
    scores = np.concatenate([a, b])
    is_ood = np.concatenate([np.zeros(a.size, bool), np.ones(b.size, bool)])
    # ascending ID-score = descending OOD-ness; ID first within ties
    order = np.lexsort((is_ood, scores))
    flags = is_ood[order]
    positions = np.flatnonzero(flags) + 1
    tp = np.arange(1, b.size + 1)
    return float((tp / positions).sum() / b.size)


def _unit_rows(gen, n, d):
    g = gen.normal(size=(n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _project_off(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the component of each row lying in span(basis rows)."""
    q, _ = np.linalg.qr(basis.T, mode="reduced")
    return rows - (rows @ q) @ q.T


def synth_generate(spec: SynthSpec) -> tuple[FeatureDataset, FeatureDataset, OodSuite]:
    """Deterministic (train, test, ood suite) for the given spec, drawn
    class by class and set by set on the calling thread."""
    rng = RngStream(spec.seed, "synthgen")
    means = _class_means(spec, rng)
    K, d = spec.n_classes, spec.dim

    # each class writes its block straight into the returned arrays, so the
    # suite is never held twice
    n_tr, n_te = spec.n_train_per_class, spec.n_test_per_class
    train_x = np.empty((K * n_tr, d))
    test_x = np.empty((K * n_te, d))
    for c in range(K):
        gen = rng.child(f"class{c}").gen
        rows = means[c] + spec.std * gen.normal(size=(n_tr + n_te, d))
        train_x[c * n_tr : (c + 1) * n_tr] = rows[:n_tr]
        test_x[c * n_te : (c + 1) * n_te] = rows[n_tr:]
    classes = np.arange(K, dtype=np.int64)
    train = FeatureDataset(train_x, np.repeat(classes, n_tr), K)
    test = FeatureDataset(test_x, np.repeat(classes, n_te), K)

    entries = []
    for s in range(spec.n_near_sets):
        gen = rng.child(f"near{s}").gen
        i = gen.integers(0, K, spec.n_ood_per_set)
        off = 1 + gen.integers(0, K - 1, spec.n_ood_per_set)
        j = (i + off) % K  # guaranteed distinct pair
        mids = 0.5 * (means[i] + means[j])
        rows = (
            mids
            + spec.near_jitter * gen.normal(size=(spec.n_ood_per_set, d))
            + spec.std * gen.normal(size=(spec.n_ood_per_set, d))
        )
        entries.append(
            OodEntry(f"near{s + 1}", FeatureDataset(rows, np.zeros(len(rows), np.int64), 1), "near")
        )

    reserved = _reserved_axes(spec)
    for s in range(spec.n_far_sets):
        gen = rng.child(f"far{s}").gen
        noise = spec.std * gen.normal(size=(spec.n_ood_per_set, d))
        if reserved:
            axis = np.zeros(d)
            axis[d - reserved + s] = 1.0
            rows = spec.far_radius * axis + _project_off(noise, means)
        else:  # no reserved axes: random shell directions
            rows = spec.far_radius * _unit_rows(gen, spec.n_ood_per_set, d) + noise
        entries.append(
            OodEntry(f"far{s + 1}", FeatureDataset(rows, np.zeros(len(rows), np.int64), 1), "far")
        )
    return train, test, OodSuite(tuple(entries))
