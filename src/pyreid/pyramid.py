"""Coarse-to-fine pyramid of horizontal feature-map stripes.

The feature map of height H is cut into n basic parts. Level l of the
pyramid holds every window of l consecutive basic parts (sliding step one),
so level l has n-l+1 branches and the whole pyramid n(n+1)/2. Each branch
pools its sub-map (max pool plus average pool, added), reduces to a
feature_dim vector through a bias-free 1x1 conv + batch-norm + ReLU, and
feeds its own identity classifier. The concatenation of all enabled branch
features is the retrieval embedding.

The enabled branches run as one stacked head: the n parts are pooled once
and every window's pool is derived from theirs, and the branches' own
parameters are stacked so that one batched product applies all of them.
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


class BranchParams:
    """Independent per-branch parameters: 1x1 reduction, batch-norm, classifier."""

    def __init__(self, in_channels: int, feature_dim: int, num_identities: int,
                 rng: np.random.Generator, classifier_bias: bool = False):
        # stored (C, D): the 1x1 conv applied to a pooled C-vector is a matmul
        self.reduce_weight = Tensor(fan_in_uniform(rng, (in_channels, feature_dim),
                                                   in_channels), requires_grad=True)
        self.bn = BatchNorm(feature_dim)
        self.classifier_weight = Tensor(fan_in_uniform(rng, (feature_dim, num_identities),
                                                       feature_dim), requires_grad=True)
        self.classifier_bias = None
        if classifier_bias:
            # stored (1, K) so the batch broadcast is a plain matmul with ones
            self.classifier_bias = Tensor(np.zeros((1, num_identities), dtype=ag.default_dtype()),
                                          requires_grad=True)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.reduce.weight", self.reduce_weight
        yield from self.bn.named_parameters(f"{prefix}.bn")
        yield f"{prefix}.classifier.weight", self.classifier_weight
        if self.classifier_bias is not None:
            yield f"{prefix}.classifier.bias", self.classifier_bias

    def named_buffers(self, prefix: str):
        yield from self.bn.named_buffers(f"{prefix}.bn")


class PyramidOutput:
    """embedding: (N, B*D), the enabled branches' features side by side in
    enumeration order; logits: (B, N, num_identities), one slab per branch."""
    __slots__ = ("embedding", "logits")

    def __init__(self, embedding, logits):
        self.embedding = embedding
        self.logits = logits


class PyramidModel:
    """Backbone + pyramid branches + assembled embedding."""

    def __init__(self, backbone: Backbone, n: int, feature_dim: int,
                 num_identities: int, image_hw: tuple, rng: np.random.Generator,
                 classifier_bias: bool = False):
        self.backbone = backbone
        self.n = n
        self.feature_dim = feature_dim
        self.num_identities = num_identities
        self.image_hw = tuple(image_hw)
        c, h, w = backbone.output_shape(*self.image_hw)
        if h % n:
            raise ConfigError(f"feature map height {h} not divisible by part count {n}; "
                              f"adjust image height or backbone strides")
        self.map_shape = (c, h, w)
        self.specs = enumerate_branches(n, h)
        self.branches = [BranchParams(c, feature_dim, num_identities, rng, classifier_bias)
                         for _ in self.specs]
        self.full_mask = BranchMask.full(n)

    def embedding_dim(self, mask: BranchMask | None = None) -> int:
        mask = mask or self.full_mask
        return self.feature_dim * mask.enabled_branch_count()

    def forward(self, images: Tensor, training: bool,
                mask: BranchMask | None = None) -> PyramidOutput:
        mask = mask or self.full_mask
        if mask.n != self.n:
            raise ConfigError(f"mask {mask} has {mask.n} levels, model has {self.n}")
        fmap = self.backbone.forward(images, training)
        if fmap.data.ndim != 4 or fmap.data.shape[1:] != self.map_shape:
            raise ValueError(f"feature map {fmap.data.shape} does not match the heads' "
                             f"(channels, height, width) {self.map_shape}")
        picked = [(spec, params) for spec, params in zip(self.specs, self.branches)
                  if mask.level_enabled(spec.level)]
        heads = [params for _, params in picked]
        bns = [params.bn for params in heads]
        b, batch, d = len(heads), fmap.data.shape[0], self.feature_dim

        pooled = ag.stripe_pool(fmap, self.n,
                                [(spec.position - 1, spec.level) for spec, _ in picked])
        reduced = ag.matmul(pooled, ag.stack([p.reduce_weight for p in heads]))
        wide = ag.reshape(ag.transpose(reduced, (1, 0, 2)), (batch, b * d))
        # one batch norm over all branches' channels; their running stats are
        # gathered into one array and handed back after the update
        running_mean = np.concatenate([bn.running_mean for bn in bns])
        running_var = np.concatenate([bn.running_var for bn in bns])
        normed = ag.batch_norm(wide, ag.reshape(ag.stack([bn.gamma for bn in bns]), (b * d,)),
                               ag.reshape(ag.stack([bn.beta for bn in bns]), (b * d,)),
                               running_mean, running_var, training=training,
                               momentum=bns[0].momentum, eps=bns[0].eps)
        if training:
            for bn, mean, var in zip(bns, np.split(running_mean, b), np.split(running_var, b)):
                bn.running_mean[...] = mean
                bn.running_var[...] = var
        embedding = ag.relu(normed)

        features = ag.transpose(ag.reshape(embedding, (batch, b, d)), (1, 0, 2))
        logits = ag.matmul(features, ag.stack([p.classifier_weight for p in heads]))
        if heads[0].classifier_bias is not None:
            ones = Tensor(np.ones((b, batch, 1), dtype=logits.data.dtype))
            logits = ag.add(logits, ag.matmul(ones, ag.stack([p.classifier_bias
                                                              for p in heads])))
        return PyramidOutput(embedding, logits)

    def named_parameters(self):
        yield from self.backbone.named_parameters()
        for spec, params in zip(self.specs, self.branches):
            yield from params.named_parameters(f"branch_l{spec.level}_k{spec.position}")

    def named_buffers(self):
        yield from self.backbone.named_buffers()
        for spec, params in zip(self.specs, self.branches):
            yield from params.named_buffers(f"branch_l{spec.level}_k{spec.position}")

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.grad = None
