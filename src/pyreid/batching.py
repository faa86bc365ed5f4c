"""Mini-batch samplers and the hard-example selector.

Two strategies feed the trainer: plain seeded permutations chunked into
batches, and ID-balanced P x K batches that guarantee in-batch triplets.
All randomness comes from numpy's PCG64 seeded through SeedSequence, so
every stream is a pure function of (seed, purpose, epoch index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Split:
    """A dataset split, or a batch drawn from one, as flat arrays (index into
    the parent dataset)."""
    indices: np.ndarray
    identities: np.ndarray
    cameras: np.ndarray

    def __len__(self):
        return len(self.indices)


def stream_rng(seed: int, purpose: int, epoch: int) -> np.random.Generator:
    """PCG64 generator derived from (seed, purpose, epoch) via SeedSequence."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, purpose, epoch])))


_RANDOM_PURPOSE = 101
_PK_PURPOSE = 202


def random_batches(split: Split, batch_size: int, seed: int, epoch: int) -> list[Split]:
    """One epoch of uniformly shuffled batches; every image appears exactly
    once, the final batch may be short."""
    if batch_size < 1:
        raise ValueError(f"random_batches: batch_size must be >= 1, got {batch_size}")
    if len(split) == 0:
        raise ValueError("random_batches: empty split")
    rng = stream_rng(seed, _RANDOM_PURPOSE, epoch)
    order = rng.permutation(len(split))
    batches = []
    for off in range(0, len(order), batch_size):
        sel = order[off:off + batch_size]
        batches.append(Split(indices=split.indices[sel],
                            identities=split.identities[sel],
                            cameras=split.cameras[sel]))
    return batches


def pk_groups(split: Split, p: int, k: int) -> dict[int, np.ndarray]:
    """The split positions of each identity with at least K images, by
    identity in increasing order. A split with fewer than P such identities
    cannot fill a P x K batch and is refused."""
    groups = {int(i): np.flatnonzero(split.identities == i) for i in np.unique(split.identities)}
    eligible = {i: g for i, g in groups.items() if len(g) >= k}
    if len(eligible) < p:
        counts = {i: len(g) for i, g in groups.items()}
        raise ConfigError(f"pk_batches: only {len(eligible)} identities have >= {k} images, "
                          f"need P={p}; per-identity counts: {counts}")
    return eligible


def pk_batches(split: Split, p: int, k: int, seed: int, epoch: int) -> list[Split]:
    """One epoch of ID-balanced batches: P identities x K images each, drawn
    i.i.d. per batch, the K images without replacement.

    Identities with fewer than K images are never used. Epoch length is
    ceil(eligible images / (P*K)) batches.
    """
    if p < 1 or k < 1:
        raise ValueError(f"pk_batches: P and K must be >= 1, got P={p} K={k}")
    if len(split) == 0:
        raise ValueError("pk_batches: empty split")
    groups = pk_groups(split, p, k)
    n_batches = math.ceil(sum(len(g) for g in groups.values()) / (p * k))
    rng = stream_rng(seed, _PK_PURPOSE, epoch)
    eligible_arr = np.asarray(list(groups), dtype=np.int64)
    batches = []
    for _ in range(n_batches):
        ids = rng.choice(eligible_arr, size=p, replace=False)
        sel = np.concatenate([rng.choice(groups[int(ident)], size=k, replace=False)
                              for ident in ids])
        batches.append(Split(indices=split.indices[sel],
                            identities=split.identities[sel],
                            cameras=split.cameras[sel]))
    return batches


def batch_hard_mine(dist: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per anchor, the index of its hardest positive (max same-label
    distance) and of its hardest negative (min different-label distance), as
    two arrays with -1 where no candidate exists. Ties break toward the
    smallest index."""
    dist = np.asarray(dist)
    labels = np.asarray(labels)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"batch_hard_mine: distance matrix must be square, got {dist.shape}")
    if labels.shape != (n,):
        raise ValueError(f"batch_hard_mine: {labels.shape[0]} labels for a {n}x{n} matrix")

    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    # argmax/argmin return the first (smallest) index on ties
    hp = np.where(pos_mask, dist, -np.inf).argmax(axis=1)
    hn = np.where(neg_mask, dist, np.inf).argmin(axis=1)
    return np.where(pos_mask.any(axis=1), hp, -1), np.where(neg_mask.any(axis=1), hn, -1)
