"""Identification loss over stacked per-branch logits and batch-hard triplet loss
over concatenated embeddings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor


@dataclass
class LossValue:
    """A task loss: a differentiable scalar and the number of samples it
    averages, or no tensor and a count of 0 when the batch measured none."""
    tensor: Tensor | None
    count: int

    @property
    def value(self) -> float | None:
        return None if self.tensor is None else self.tensor.item()


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
    ce = ag.softmax_cross_entropy(ag.reshape(logits, (b * n, k)), np.tile(labels, b))
    return LossValue(ag.mul(ce, 1.0 / n), count=int(labels.shape[0]))


def triplet_loss(embeddings: Tensor, labels, margin: float) -> LossValue:
    """Batch-hard triplet loss (`autograd.batch_hard_triplet`).

    Every row is an anchor; anchors with at least one positive and one
    negative contribute hinge(d(a, hardest positive) - d(a, hardest
    negative) + margin), and the loss is the mean over those valid anchors.
    A batch without a valid anchor (a batch of one image included) has no
    triplet loss: its tensor is None.
    """
    if embeddings.data.ndim != 2:
        raise ValueError(f"triplet_loss: need a (B, D) embedding batch, got "
                         f"{embeddings.data.shape}")
    if not (margin > 0 and math.isfinite(margin)):
        raise ValueError(f"triplet_loss: margin must be finite and positive, got {margin}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != embeddings.data.shape[:1]:
        raise ValueError(f"triplet_loss: {labels.size} labels for a batch of "
                         f"{embeddings.data.shape[0]}")
    # an anchor has a positive when its label repeats, a negative when another label exists
    members = (labels[:, None] == labels[None, :]).sum(axis=1)
    count = int(((members > 1) & (members < labels.size)).sum())
    tensor = ag.batch_hard_triplet(embeddings, labels, margin) if count else None
    return LossValue(tensor, count=count)
