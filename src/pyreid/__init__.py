"""Pyramidal person re-identification at desk scale.

A self-contained numpy autodiff core, a coarse-to-fine pyramid of
horizontal feature-map stripes with per-branch identity classifiers, a
batch-hard triplet loss over the concatenated embedding, and a dynamic
two-loss training scheme that routes each iteration between random-batch
ID-only steps and ID-balanced combined steps.
"""

from .autograd import Tensor, backward, op_catalog, use_dtype

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "op_catalog",
    "use_dtype",
    "__version__",
]
