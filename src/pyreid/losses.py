"""Identification loss over stacked per-branch logits and batch-hard triplet loss
over concatenated embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .batching import batch_hard_mine


@dataclass
class LossValue:
    """A task loss with its provenance: differentiable scalar, sample count,
    and a degeneracy flag for batches that produced no usable terms."""
    task: str
    tensor: Tensor
    count: int
    degenerate: bool = False

    @property
    def value(self) -> float:
        return self.tensor.item()


def id_loss(logits: Tensor, labels) -> LossValue:
    """Mean over the batch of the per-image sum, across branches, of softmax
    cross-entropy against the identity label; `logits` is (branches, batch,
    identities)."""
    if logits.data.ndim != 3:
        raise ValueError(f"id_loss: expected (branches, batch, identities) logits, got "
                         f"{logits.data.shape}")
    b, n, k = logits.data.shape
    if b == 0:
        raise ValueError("id_loss: no branch logits given")
    labels = np.asarray(labels, dtype=np.int64)
    ce = ag.softmax_cross_entropy(ag.reshape(logits, (b * n, k)), np.tile(labels, b),
                                  reduction="sum")
    return LossValue("id", ag.mul(ce, 1.0 / n), count=int(labels.shape[0]))


def triplet_loss(embeddings: Tensor, labels, margin: float,
                 squared: bool = False) -> LossValue:
    """Batch-hard triplet loss.

    Every row is an anchor; anchors with at least one positive and one
    negative contribute hinge(d(a, hardest positive) - d(a, hardest
    negative) + margin), and the loss is the mean over those valid anchors.
    Anchors without a positive or a negative are skipped.
    """
    if embeddings.data.ndim != 2 or embeddings.data.shape[0] < 2:
        raise ValueError(f"triplet_loss: need a (B>=2, D) embedding batch, got "
                         f"{embeddings.data.shape}")
    if margin <= 0:
        raise ValueError(f"triplet_loss: margin must be positive, got {margin}")
    labels = np.asarray(labels, dtype=np.int64)
    dist = ag.pairwise_distances(embeddings)
    if squared:
        dist = ag.mul(dist, dist)
    mined = batch_hard_mine(dist.data, labels)
    anchors = [i for i, (hp, hn) in enumerate(mined) if hp is not None and hn is not None]
    if not anchors:
        zero = Tensor(np.zeros((), dtype=embeddings.data.dtype))
        return LossValue("tp", zero, count=0, degenerate=True)
    rows = np.asarray(anchors, dtype=np.int64)
    pos = ag.take_pairs(dist, rows, np.asarray([mined[i][0] for i in anchors], dtype=np.int64))
    neg = ag.take_pairs(dist, rows, np.asarray([mined[i][1] for i in anchors], dtype=np.int64))
    terms = ag.relu(ag.add(ag.sub(pos, neg), float(margin)))
    return LossValue("tp", ag.reduce_mean(terms), count=len(anchors))
