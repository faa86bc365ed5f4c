"""Small trainable convolutional feature extractor.

A stack of conv3x3 + batch-norm + ReLU blocks, each one fused op, turns a
channels-last (N, H, W, 3) image batch into the (N, H, W, C) feature map
the pyramid slices.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(ag.default_dtype())


class BatchNorm:
    """Per-channel batch normalization with learnable affine and running stats."""

    def __init__(self, num_features: int):
        dtype = ag.default_dtype()
        self.gamma = Tensor(np.ones(num_features, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(num_features, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma
        yield f"{prefix}.beta", self.beta

    def named_buffers(self, prefix: str):
        yield f"{prefix}.running_mean", self.running_mean
        yield f"{prefix}.running_var", self.running_var


class ConvBlock:
    """conv3x3 (padding 1) + batch-norm + ReLU on an (N, H, W, C) map."""

    def __init__(self, in_ch: int, out_ch: int, stride: int, rng: np.random.Generator):
        self.weight = Tensor(fan_in_uniform(rng, (out_ch, in_ch, 3, 3), in_ch * 9),
                             requires_grad=True)
        self.stride = stride
        self.bn = BatchNorm(out_ch)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        bn = self.bn
        return ag.conv_bn_relu(x, self.weight, bn.gamma, bn.beta, bn.running_mean,
                               bn.running_var, self.stride, training)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.conv.weight", self.weight
        yield from self.bn.named_parameters(f"{prefix}.bn")

    def named_buffers(self, prefix: str):
        yield from self.bn.named_buffers(f"{prefix}.bn")


# (out_channels, stride) per block of the model's backbone
STAGES = ((16, 2), (32, 2), (64, 1))


class Backbone:
    """The blocks of `stages`, one (out_channels, stride) pair per block: at
    least one, each with a stride of 1 or 2."""

    def __init__(self, stages, rng: np.random.Generator):
        self.blocks = []
        in_ch = 3
        for out_ch, stride in stages:
            self.blocks.append(ConvBlock(in_ch, out_ch, stride, rng))
            in_ch = out_ch

    def output_shape(self, h_img: int, w_img: int) -> tuple[int, int, int]:
        """(H, W, C) of the feature map for an h_img x w_img input."""
        sp = math.prod(block.stride for block in self.blocks)
        if h_img % sp or w_img % sp:
            raise ConfigError(f"input size {h_img}x{w_img} not divisible by the "
                              f"backbone stride product {sp}")
        return h_img // sp, w_img // sp, self.blocks[-1].weight.data.shape[0]

    def forward(self, images: Tensor, training: bool) -> Tensor:
        """(N, H, W, C) images to the (N, H, W, C) feature map."""
        for block in self.blocks:
            images = block(images, training)
        return images

    def named_parameters(self):
        for i, block in enumerate(self.blocks):
            yield from block.named_parameters(f"backbone.block{i}")

    def named_buffers(self):
        for i, block in enumerate(self.blocks):
            yield from block.named_buffers(f"backbone.block{i}")
