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
from .errors import ConfigError


@dataclass(frozen=True)
class BranchSpec:
    """One pyramid member: level, position, and its 1-based inclusive row range."""
    level: int
    position: int
    row_start: int
    row_end: int

    @property
    def rows(self) -> int:
        return self.row_end - self.row_start + 1


def enumerate_branches(n: int, height: int) -> list[BranchSpec]:
    """All branch specs for an n-part pyramid over a height-H feature map,
    ordered level-major then position."""
    if n < 1:
        raise ConfigError(f"part count must be positive, got {n}")
    if height % n:
        raise ConfigError(f"feature map height {height} not divisible by part count {n}")
    unit = height // n
    specs = []
    for level in range(1, n + 1):
        for pos in range(1, n - level + 2):
            start = (pos - 1) * unit + 1
            specs.append(BranchSpec(level, pos, start, (pos - 1) * unit + level * unit))
    return specs


@dataclass(frozen=True)
class BranchMask:
    """Per-level enable flags; index 0 = level 1 (finest)."""
    flags: tuple

    @classmethod
    def full(cls, n: int) -> "BranchMask":
        return cls(tuple([True] * n))

    @classmethod
    def from_string(cls, text: str) -> "BranchMask":
        if not text or any(c not in "01" for c in text):
            raise ConfigError(f"mask must be a nonempty string of 0/1, got {text!r}")
        flags = tuple(c == "1" for c in text)
        if not any(flags):
            raise ConfigError(f"mask {text!r} disables every pyramid level")
        return cls(flags)

    def __str__(self):
        return "".join("1" if f else "0" for f in self.flags)

    @property
    def n(self) -> int:
        return len(self.flags)

    def level_enabled(self, level: int) -> bool:
        return self.flags[level - 1]

    def enabled_branch_count(self) -> int:
        n = self.n
        return sum(n - l + 1 for l in range(1, n + 1) if self.flags[l - 1])


class PyramidOutput:
    """embedding: (N, B*D), the enabled branches' features side by side in
    enumeration order; logits: (B, N, num_identities), one slab per branch."""
    __slots__ = ("embedding", "logits")

    def __init__(self, embedding, logits):
        self.embedding = embedding
        self.logits = logits


class PyramidModel:
    """Backbone + the branches of the enabled pyramid levels + assembled
    embedding.

    The model holds only the branches `mask` enables (all of them if it is
    None). Each head parameter kind is one tensor with a row per held
    branch, in enumeration order: `reduce_weight` (B, C, D) and the
    bias-free `classifier_weight` (B, D, K). The batch norm's affine
    parameters and running statistics are flat (B*D,), in the embedding's
    column order."""

    def __init__(self, backbone: Backbone, n: int, feature_dim: int,
                 num_identities: int, image_hw: tuple, rng: np.random.Generator,
                 mask: BranchMask | None = None):
        self.backbone = backbone
        self.n = n
        self.feature_dim = feature_dim
        self.num_identities = num_identities
        self.image_hw = tuple(image_hw)
        self.mask = mask or BranchMask.full(n)
        if self.mask.n != n:
            raise ConfigError(f"mask {self.mask} has {self.mask.n} levels, model has {n}")
        h, w, c = backbone.output_shape(*self.image_hw)
        if h % n:
            raise ConfigError(f"feature map height {h} not divisible by part count {n}; "
                              f"adjust image height or backbone strides")
        self.map_shape = (h, w, c)
        # stored (C, D) per branch: the 1x1 conv applied to a pooled C-vector
        # is a matmul. Every branch draws its reduction and then its
        # classifier in enumeration order, so a branch's seeded initial
        # weights do not depend on the mask.
        self.specs, reduce, classify = [], [], []
        for spec in enumerate_branches(n, h):
            r = fan_in_uniform(rng, (c, feature_dim), c)
            k = fan_in_uniform(rng, (feature_dim, num_identities), feature_dim)
            if self.mask.level_enabled(spec.level):
                self.specs.append(spec)
                reduce.append(r)
                classify.append(k)
        b = len(self.specs)
        self.reduce_weight = Tensor(np.stack(reduce), requires_grad=True)
        self.bn = BatchNorm(b * feature_dim)
        self.classifier_weight = Tensor(np.stack(classify), requires_grad=True)

    def embedding_dim(self, mask: BranchMask | None = None) -> int:
        """Width of the embedding, or of the columns of a held sub-mask."""
        return int(self.embedding_columns(mask or self.mask).sum())

    def embedding_columns(self, mask: BranchMask) -> np.ndarray:
        """Boolean selector of the embedding columns of the branches `mask`
        enables, which the model must hold. In eval mode a branch's columns
        do not depend on the other branches, so they equal the embedding of
        a model built for `mask` with the same weights."""
        if mask.n != self.n or any(f and not held
                                   for f, held in zip(mask.flags, self.mask.flags)):
            raise ConfigError(f"mask {mask} is not a sub-mask of the model's mask "
                              f"{self.mask}")
        return np.repeat([mask.level_enabled(spec.level) for spec in self.specs],
                         self.feature_dim)

    def forward(self, images: Tensor, training: bool) -> PyramidOutput:
        fmap = self.backbone.forward(images, training)
        if fmap.data.ndim != 4 or fmap.data.shape[1:] != self.map_shape:
            raise ValueError(f"feature map {fmap.data.shape} does not match the heads' "
                             f"(height, width, channels) {self.map_shape}")
        b, batch, d = len(self.specs), fmap.data.shape[0], self.feature_dim

        pooled = ag.stripe_pool(fmap, self.n, [(spec.position - 1, spec.level)
                                               for spec in self.specs])
        reduced = ag.matmul(pooled, self.reduce_weight)
        wide = ag.reshape(ag.transpose(reduced, (1, 0, 2)), (batch, b * d))
        # one batch norm over all branches' channels
        bn = self.bn
        embedding = ag.relu(ag.batch_norm(wide, bn.gamma, bn.beta, bn.running_mean,
                                          bn.running_var, training=training,
                                          momentum=bn.momentum, eps=bn.eps))

        features = ag.transpose(ag.reshape(embedding, (batch, b, d)), (1, 0, 2))
        return PyramidOutput(embedding, ag.matmul(features, self.classifier_weight))

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
