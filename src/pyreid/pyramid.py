"""Coarse-to-fine pyramid of horizontal feature-map stripes.

The feature map of height H is cut into n basic parts. Level l of the
pyramid holds every window of l consecutive basic parts (sliding step one),
so level l has n-l+1 branches and the whole pyramid n(n+1)/2. Each branch
pools its sub-map (max pool plus average pool, added), reduces to a
feature_dim vector through a bias-free 1x1 conv + batch-norm + ReLU, and
feeds its own identity classifier. The concatenation of all enabled branch
features is the retrieval embedding.

A model holds the branches of the levels its mask enables, and they run as
one stacked head: the n parts are pooled once and every window's pool is
derived from theirs, and each kind of head parameter is one tensor with a
row per branch, so that one batched product applies all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .backbone import Backbone, BatchNorm, fan_in_uniform
from .errors import ConfigError, short


# most images in one eval tile. A row's bits can depend on the other rows of
# a BLAS product (a one-row product is a matrix-vector call, and a long one
# can take another kernel), so the tiles follow from the batch alone, never
# from the worker count: the bits are the same on any number of CPUs.
_EVAL_TILE = 128


@dataclass(frozen=True)
class BranchMask:
    """Per-level enable flags; index 0 = level 1 (finest)."""
    flags: tuple

    @classmethod
    def from_string(cls, text: str) -> "BranchMask":
        if not text or any(c not in "01" for c in text):
            raise ConfigError(f"mask must be a nonempty string of 0/1, got {short(text)!r}")
        flags = tuple(c == "1" for c in text)
        if not any(flags):
            raise ConfigError(f"mask {short(text)!r} disables every pyramid level")
        return cls(flags)

    def __str__(self):
        return "".join("1" if f else "0" for f in self.flags)

    @property
    def n(self) -> int:
        return len(self.flags)

    def level_enabled(self, level: int) -> bool:
        return self.flags[level - 1]

    def branches(self) -> int:
        """The number of windows, counted without listing them."""
        return sum(self.n - level + 1 for level in range(1, self.n + 1)
                   if self.level_enabled(level))

    def windows(self) -> list[tuple[int, int]]:
        """(first part, part count) of every branch of the enabled levels,
        level-major then position: the enumeration order."""
        n = self.n
        return [(first, level) for level in range(1, n + 1) if self.level_enabled(level)
                for first in range(n - level + 1)]


class PyramidModel:
    """Backbone + the branches of the enabled pyramid levels + assembled
    embedding.

    The model holds only the branches `mask` enables, its `windows` in
    enumeration order. Each head parameter kind is one tensor with a row
    per held branch: `reduce_weight` (B, C, D) and the bias-free
    `classifier_weight` (B, D, K). The batch norm's affine parameters and
    running statistics are flat (B*D,), in the embedding's column order."""

    def __init__(self, backbone: Backbone, mask: BranchMask, feature_dim: int,
                 num_identities: int, image_hw: tuple, rng: np.random.Generator):
        self.backbone = backbone
        self.mask = mask
        self.feature_dim = feature_dim
        self.num_identities = num_identities
        self.image_hw = tuple(image_hw)
        h, w, c = backbone.output_shape(*self.image_hw)
        # before the n(n+1)/2 windows are listed, which a long mask makes huge
        if h % mask.n:
            raise ConfigError(f"feature map height {h} not divisible by part count {mask.n}; "
                              f"adjust image height")
        self.windows = mask.windows()
        self.map_shape = (h, w, c)
        # stored (C, D) per branch: the 1x1 conv applied to a pooled C-vector
        # is a matmul. Every branch of every level draws its reduction and
        # then its classifier in enumeration order, so a branch's seeded
        # initial weights do not depend on the mask.
        held, reduce, classify = set(self.windows), [], []
        for window in BranchMask((True,) * mask.n).windows():
            r = fan_in_uniform(rng, (c, feature_dim), c)
            k = fan_in_uniform(rng, (feature_dim, num_identities), feature_dim)
            if window in held:
                reduce.append(r)
                classify.append(k)
        self.reduce_weight = Tensor(np.stack(reduce), requires_grad=True)
        self.bn = BatchNorm(len(self.windows) * feature_dim)
        self.classifier_weight = Tensor(np.stack(classify), requires_grad=True)

    def embedding_columns(self, mask: BranchMask) -> np.ndarray:
        """Boolean selector of the embedding columns of the branches `mask`
        enables, which the model must hold. In eval mode a branch's columns
        do not depend on the other branches, so they equal the embedding of
        a model built for `mask` with the same weights."""
        if mask.n != self.mask.n or not set(mask.windows()) <= set(self.windows):
            raise ConfigError(f"mask {short(mask)} is not a sub-mask of the model's mask "
                              f"{self.mask}")
        return np.repeat([mask.level_enabled(level) for _, level in self.windows],
                         self.feature_dim)

    def forward(self, images: Tensor, training: bool) -> tuple:
        """(embedding, logits): the (N, B*D) embedding, the held branches'
        features side by side in enumeration order, and in training the
        (B, N, num_identities) logits, one slab per branch; eval computes no
        logits and gives None.

        Eval cuts a batch of more than `_EVAL_TILE` images into the fewest
        tiles of at most `_EVAL_TILE` contiguous images, of sizes that
        differ by at most one, runs each tile's whole forward as one
        `autograd._share_tasks` task and joins the embeddings in tile order."""
        n = len(images.data)
        if training or n <= _EVAL_TILE:
            return self._forward(images, training)
        tiles = -(-n // _EVAL_TILE)
        bounds = [n * i // tiles for i in range(tiles + 1)]
        parts = ag._share_tasks(tiles, lambda: lambda i: self._forward(
            Tensor(images.data[bounds[i]:bounds[i + 1]]), False)[0].data)
        return Tensor(np.concatenate(parts)), None

    def _forward(self, images: Tensor, training: bool) -> tuple:
        fmap = self.backbone.forward(images, training)
        if fmap.data.ndim != 4 or fmap.data.shape[1:] != self.map_shape:
            raise ValueError(f"feature map {fmap.data.shape} does not match the heads' "
                             f"(height, width, channels) {self.map_shape}")
        b, batch, d = len(self.windows), fmap.data.shape[0], self.feature_dim

        pooled = ag.stripe_pool(fmap, self.mask.n, self.windows)
        reduced = ag.matmul(pooled, self.reduce_weight)
        wide = ag.reshape(ag.transpose(reduced, (1, 0, 2)), (batch, b * d))
        # one batch norm over all branches' channels
        bn = self.bn
        embedding = ag.relu(ag.batch_norm(wide, bn.gamma, bn.beta, bn.running_mean,
                                          bn.running_var, training=training))
        if not training:
            return embedding, None
        features = ag.transpose(ag.reshape(embedding, (batch, b, d)), (1, 0, 2))
        return embedding, ag.matmul(features, self.classifier_weight)

    def named_parameters(self):
        yield from self.backbone.named_parameters()
        yield "head.reduce.weight", self.reduce_weight
        yield from self.bn.named_parameters("head.bn")
        yield "head.classifier.weight", self.classifier_weight

    def named_buffers(self):
        yield from self.backbone.named_buffers()
        yield from self.bn.named_buffers("head.bn")

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.grad = None
