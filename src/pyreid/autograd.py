"""Reverse-mode autodiff over dense numpy arrays.

The engine is deliberately small: a `Tensor` wraps a contiguous ndarray and
remembers how it was produced, `backward` replays the recorded graph in
reverse topological order, and the op set is exactly what the embedding
model, the two losses and the evaluator need. There is no broadcasting
beyond scalar-with-anything, no views escaping an op, and no device story.

Training runs in float32; verification (finite-difference checks) switches
the default dtype to float64 via `use_dtype`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

_default_dtype = np.float32
_grad_enabled = True

# Set to True to assert finiteness of every op output (slow, debug only).
debug_checks = False

OP_CATALOG: dict[str, str] = {}


def catalog_op(doc):
    def deco(fn):
        OP_CATALOG[fn.__name__] = doc
        return fn
    return deco


def op_catalog() -> dict[str, str]:
    """Name -> one-line contract for every differentiable primitive."""
    return dict(OP_CATALOG)


def default_dtype():
    return _default_dtype


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    _default_dtype = dtype


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default tensor dtype (e.g. float64 for checks)."""
    prev = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(prev)


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation, data prep)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense real tensor plus the bookkeeping for reverse-mode backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op", "_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw data, not another Tensor")
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            arr = data  # keep an explicit float dtype (e.g. float64 checks)
        else:
            arr = np.asarray(data, dtype=_default_dtype)
        self.data = np.ascontiguousarray(arr)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = ()
        self._backward = None
        self._op = None
        self._done = False

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _tracked(self) -> bool:
        return self.requires_grad or bool(self._prev)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, op={self._op})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not in the op catalog")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)


# -- graph plumbing ---------------------------------------------------------


def _from_op(data, prev, op, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._done = False
    out._op = op
    if _grad_enabled and any(p._tracked for p in prev):
        out._prev = tuple(prev)
        out._backward = backward_fn
    else:
        out._prev = ()
        out._backward = None
    if debug_checks and not np.isfinite(data).all():
        raise FloatingPointError(f"{op}: non-finite values in output")
    return out


def _acc(t: Tensor, g) -> None:
    if not t._tracked:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss, filling `.grad` on every reachable
    tensor that requires (or transports) gradients."""
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if loss._done:
        raise RuntimeError("backward: graph already consumed, rerun the forward pass")
    if not loss._prev:
        raise RuntimeError("backward: tensor is not attached to a graph")

    topo: list[Tensor] = []
    visited: set[int] = set()
    work: list[tuple[Tensor, bool]] = [(loss, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        work.append((node, True))
        for child in node._prev:
            if id(child) not in visited:
                work.append((child, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    loss._done = True


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1:
        return
    raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # inverse of the scalar-with-anything broadcast
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape)


# -- elementwise ops ---------------------------------------------------------


@catalog_op("elementwise or scalar addition")
def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_elementwise("add", a, b)
    out = a.data + b.data

    def _bw(g):
        _acc(a, _reduce_to(g, a.data.shape))
        _acc(b, _reduce_to(g, b.data.shape))

    return _from_op(out, (a, b), "add", _bw)


@catalog_op("elementwise or scalar subtraction")
def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_elementwise("sub", a, b)
    out = a.data - b.data

    def _bw(g):
        _acc(a, _reduce_to(g, a.data.shape))
        _acc(b, _reduce_to(-g, b.data.shape))

    return _from_op(out, (a, b), "sub", _bw)


@catalog_op("elementwise or scalar multiplication")
def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_elementwise("mul", a, b)
    out = a.data * b.data

    def _bw(g):
        _acc(a, _reduce_to(g * b.data, a.data.shape))
        _acc(b, _reduce_to(g * a.data, b.data.shape))

    return _from_op(out, (a, b), "mul", _bw)


@catalog_op("elementwise max(x, 0); gradient at exactly 0 is 0")
def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = np.where(mask, a.data, a.data.dtype.type(0))

    def _bw(g):
        _acc(a, g * mask)

    return _from_op(out, (a,), "relu", _bw)


# -- linear algebra ----------------------------------------------------------


@catalog_op("matrix multiply of two 2-D operands, or of two 3-D stacks of matrices "
            "pairwise along the leading axis")
def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if (ad.ndim != bd.ndim or ad.ndim not in (2, 3) or ad.shape[:-2] != bd.shape[:-2]
            or ad.shape[-1] != bd.shape[-2]):
        raise ValueError(f"matmul: incompatible shapes {ad.shape} vs {bd.shape}")
    out = ad @ bd

    def _bw(g):
        _acc(a, g @ np.swapaxes(bd, -1, -2))
        _acc(b, np.swapaxes(ad, -1, -2) @ g)

    return _from_op(out, (a, b), "matmul", _bw)


_CHUNK_BYTES = 1 << 18  # patch-matrix scratch of one chunk of images in conv_bn_relu


def _patch_chunks(xp: np.ndarray, stride: int, ho: int, wo: int):
    """Yield (first image, last image + 1, patch matrix) for each chunk of
    images of a zero-padded (N, H+2, W+2, C) map. Row (n, r, s) of the
    (rows, 9C) matrix is the 3x3 window of output pixel (r, s) in (i, j, c)
    order; the matrix is one reused buffer of at most `_CHUNK_BYTES`, so
    scratch memory does not grow with the batch."""
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    # in xp each window row's three taps are one contiguous 3*C run
    windows = as_strided(xp, (n, ho, wo, 3, 3, c), (sn, stride * sh, stride * sw, sh, sw, sc),
                         writeable=False)
    step = max(1, _CHUNK_BYTES // (ho * wo * 9 * c * xp.itemsize))
    buf = np.empty((min(step, n) * ho * wo, 9 * c), dtype=xp.dtype)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        cols = buf[:(hi - lo) * ho * wo]
        np.copyto(cols.reshape(hi - lo, ho, wo, 3, 3, c), windows[lo:hi])
        yield lo, hi, cols


@catalog_op("3x3 convolution (padding 1, stride 1 or 2), batch normalization and ReLU "
            "on channels-last maps; training uses batch statistics, eval folds the "
            "running ones into the kernel")
def conv_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, running_mean,
                 running_var, stride: int, training: bool, momentum: float,
                 eps: float) -> Tensor:
    """One backbone block: an (N, H, W, C) map in, an (N, Ho, Wo, Co) map out,
    with a channels-first (Co, C, 3, 3) kernel. Training normalizes by the
    batch statistics and moves the running ones in place (the unbiased
    variance into `running_var`). Eval batch norm is a fixed per-channel
    affine: the kernel is scaled by gamma / sqrt(running_var + eps), the GEMM
    writes the output directly and one shift adds the rest; backward uses
    the running statistics as they were at this forward."""
    if x.data.ndim != 4:
        raise ValueError(f"conv_bn_relu: input must be a 4-D (N,H,W,C) map, got {x.data.shape}")
    n, h, wd_, c = x.data.shape
    co = w.data.shape[0]
    if w.data.shape != (co, c, 3, 3):
        raise ValueError(f"conv_bn_relu: channel mismatch, input {x.data.shape} vs kernel "
                         f"{w.data.shape}, expected ({co}, {c}, 3, 3)")
    if gamma.data.shape != (co,) or beta.data.shape != (co,):
        raise ValueError(f"conv_bn_relu: affine shape {gamma.data.shape}/{beta.data.shape} "
                         f"does not match {co} channels")
    if stride not in (1, 2):
        raise ValueError(f"conv_bn_relu: stride must be 1 or 2, got {stride}")
    dtype = np.result_type(x.data, w.data)
    ho, wo = (h - 1) // stride + 1, (wd_ - 1) // stride + 1
    m, p = n * ho * wo, ho * wo
    xp = np.zeros((n, h + 2, wd_ + 2, c), dtype=dtype)
    xp[:, 1:h + 1, 1:wd_ + 1] = x.data
    # the kernel as a (9C, Co) matrix in the patch matrix's (i, j, c) order;
    # wk is the one the GEMM multiplies by, with eval's scale folded in
    wcol = np.ascontiguousarray(w.data.transpose(2, 3, 1, 0), dtype=dtype).reshape(9 * c, co)
    wk = wcol
    if not training:
        mean = running_mean.copy()
        rstd = 1.0 / np.sqrt(running_var + eps)
        scale = gamma.data * rstd
        wk = wcol * scale
    y = np.empty((m, co), dtype=dtype)
    for lo, hi, cols in _patch_chunks(xp, stride, ho, wo):
        np.matmul(cols, wk, out=y[lo * p:hi * p])
    # channel sums as ones-vector products, which BLAS does faster than
    # numpy's axis-0 reductions on an (M, Co) matrix
    ones = np.ones(m, dtype=dtype)
    if training:
        mean = (ones @ y) / m
        y -= mean
        var = (ones @ np.square(y)) / m
        # running variance uses the unbiased estimate, normalization the biased one
        uvar = var * (m / (m - 1)) if m > 1 else var
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * uvar
        rstd = 1.0 / np.sqrt(var + eps)
        xhat = y
        xhat *= rstd  # normalized in place
        out = xhat * gamma.data
        out += beta.data
    else:
        out = y
        out += beta.data - mean * scale
    np.maximum(out, 0, out=out)

    def _bw(g):
        gy = g.reshape(m, co) * (out > 0)
        gbeta = ones @ gy
        if training:
            ggamma = ones @ (gy * xhat)
            # the batch mean and variance tie every row to every other
            gy -= xhat * (ggamma / m)
            gy -= gbeta / m
            gy *= gamma.data * rstd
        # in eval gy stays unscaled: gw is then patchesᵀ·gy, and the input
        # gradient multiplies gy by the folded kernel
        gw = np.zeros((9 * c, co), dtype=dtype)
        gxp = (np.zeros((n, 2 * ho + 2, 2 * wo + 2, c), dtype=dtype)
               if x._tracked and stride == 2 else None)
        for lo, hi, cols in _patch_chunks(xp, stride, ho, wo):
            gw += cols.T @ gy[lo * p:hi * p]
            if gxp is not None:
                gcols = np.matmul(gy[lo * p:hi * p], wk.T, out=cols).reshape(-1, ho, wo, 3, 3, c)
                # padded row 2r + i is row r + i // 2 of phase i % 2: offsets
                # i, j < 2 fill both phases of one shifted window, and each
                # element gets its terms in the order of an (i, j) loop
                gv = gxp[lo:hi].reshape(-1, ho + 1, 2, wo + 1, 2, c)
                gv[:, :ho, :, :wo] += gcols[:, :, :, :2, :2].transpose(0, 1, 3, 2, 4, 5)
                gv[:, :ho, :, 1:, 0] += gcols[:, :, :, :2, 2].transpose(0, 1, 3, 2, 4)
                gv[:, 1:, 0, :wo] += gcols[:, :, :, 2, :2]
                gv[:, 1:, 0, 1:, 0] += gcols[:, :, :, 2, 2]
        if not training:
            # sum over rows of gy * y is sum over k of wcol * (patchesᵀ·gy),
            # so gamma's gradient needs no copy of the convolution y
            ggamma = ((wcol * gw).sum(axis=0) - mean * gbeta) * rstd
            gw *= scale
        _acc(gamma, ggamma)
        _acc(beta, gbeta)
        _acc(w, np.ascontiguousarray(gw.reshape(3, 3, c, co).transpose(3, 2, 0, 1)))
        if gxp is not None:
            _acc(x, gxp[:, 1:h + 1, 1:wd_ + 1])
        elif x._tracked:
            # at stride 1 the input gradient is the same convolution of the
            # zero-padded output gradient with the flipped kernel: a gather
            gyp = np.zeros((n, h + 2, wd_ + 2, co), dtype=dtype)
            gyp[:, 1:h + 1, 1:wd_ + 1] = gy.reshape(n, h, wd_, co)
            wflip = np.ascontiguousarray(wk.reshape(3, 3, c, co)[::-1, ::-1]
                                         .transpose(0, 1, 3, 2)).reshape(9 * co, c)
            gx = np.empty((m, c), dtype=dtype)
            for lo, hi, cols in _patch_chunks(gyp, 1, h, wd_):
                np.matmul(cols, wflip, out=gx[lo * p:hi * p])
            _acc(x, gx.reshape(n, h, wd_, c))

    return _from_op(out.reshape(n, ho, wo, co), (x, w, gamma, beta), "conv_bn_relu", _bw)


@catalog_op("batch normalization over the batch axis of an (N, C) matrix, "
            "train/eval modes")
def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean=None,
               running_var=None, training: bool = True, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"batch_norm: expected 2-D input, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"batch_norm: affine shape {gamma.data.shape}/{beta.data.shape} "
                         f"does not match {c} channels")

    if training:
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        if running_mean is not None:
            m = x.data.shape[0]
            # running variance uses the unbiased estimate, normalization the biased one
            uvar = var * (m / (m - 1)) if m > 1 else var
            running_mean *= (1.0 - momentum)
            running_mean += momentum * mean
            running_var *= (1.0 - momentum)
            running_var += momentum * uvar
        std = np.sqrt(var + eps)
    else:
        if running_mean is None or running_var is None:
            raise ValueError("batch_norm: eval mode requires running statistics")
        mean = running_mean
        std = np.sqrt(running_var + eps)

    xhat = (x.data - mean) / std
    out = gamma.data * xhat + beta.data

    def _bw(g):
        _acc(gamma, (g * xhat).sum(axis=0))
        _acc(beta, g.sum(axis=0))
        gxh = g * gamma.data
        if training:
            gx = (gxh - gxh.mean(axis=0) - xhat * (gxh * xhat).mean(axis=0)) / std
        else:
            gx = gxh / std
        _acc(x, gx)

    return _from_op(out, (x, gamma, beta), "batch_norm", _bw)


# -- pooling and indexing ----------------------------------------------------


_SHORT_STRIPE = 16  # elements per stripe up to which stripe_pool loops; < 256


@catalog_op("max plus mean over windows of consecutive horizontal stripes, "
            "derived from one pool of each stripe")
def stripe_pool(x: Tensor, parts: int, windows) -> Tensor:
    """(B, N, C) pools of an (N, C, H, W) map cut into `parts` equal stripes
    of rows: row b is the max plus the mean over the rows of window b, given
    as (first stripe, stripe count). The max gradient goes to the first
    maximal element in row-major order, as a max over the window would."""
    if x.data.ndim != 4:
        raise ValueError(f"stripe_pool: expected a 4-D (N,C,H,W) map, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if parts < 1 or h % parts:
        raise ValueError(f"stripe_pool: height {h} does not split into {parts} stripes")
    windows = [(int(s), int(l)) for s, l in windows]
    if not windows or any(s < 0 or l < 1 or s + l > parts for s, l in windows):
        raise ValueError(f"stripe_pool: windows {windows} are not nonempty runs of "
                         f"{parts} stripes")
    unit = h // parts * w  # elements of one stripe of one channel
    xs = x.data.reshape(n, c, parts, unit)
    # on a short stripe, unit-1 elementwise maxima and one matrix-vector
    # product beat reductions over the trailing axis; on a long one the
    # reductions win
    short = unit <= _SHORT_STRIPE
    if short:
        smax = xs[..., 0].copy()
        for k in range(1, unit):
            np.maximum(smax, xs[..., k], out=smax)
    else:
        smax = xs.max(axis=-1)
    ssum = (x.data.reshape(n * c * parts, unit) @ np.ones(unit, dtype=x.data.dtype)
            ).reshape(smax.shape)
    # wmax[l][s] is the max over stripes s .. s+l-1, as (parts-l+1, N, C),
    # and wsum[l][s] the sum; a window's pool does not depend on the others
    wmax = [None, np.ascontiguousarray(smax.transpose(2, 0, 1))]
    wsum = [None, np.ascontiguousarray(ssum.transpose(2, 0, 1))]
    for l in range(2, max(l for _, l in windows) + 1):
        wmax.append(np.maximum(wmax[-1][:-1], wmax[1][l - 1:]))
        wsum.append(wsum[-1][:-1] + wsum[1][l - 1:])
    out = np.stack([wmax[l][s] + wsum[l][s] / (l * unit) for s, l in windows])
    # spread[b, s] is stripe s's weight in the mean over window b
    spread = np.zeros((len(windows), parts), dtype=x.data.dtype)
    for b, (s, l) in enumerate(windows):
        spread[b, s:s + l] = 1.0 / (l * unit)

    def _bw(g):
        # the stripe holding each window's max is the first one whose prefix
        # max reaches it: skip every prefix of the window with a smaller max
        skip = {l: np.zeros(wmax[l].shape, dtype=np.intp) for _, l in windows}
        for l, count in skip.items():
            for m in range(1, l):
                count += wmax[m][:parts - l + 1] < wmax[l]
        stripe = np.stack([s + skip[l][s] for s, l in windows])  # (B, N, C)
        cell = np.arange(n * c).reshape(n, c) * parts
        gmax = np.bincount((cell + stripe).ravel(), weights=g.ravel(),
                           minlength=n * c * parts)
        # the first element of each stripe holding its max; a short stripe's
        # index fits a byte
        if short:
            xt = np.ascontiguousarray(xs.transpose(3, 0, 1, 2))
            seen = xt[0] == smax
            first = (~seen).view(np.uint8)
            for k in range(1, unit - 1):
                seen |= xt[k] == smax
                first += ~seen
        else:
            first = xs.argmax(axis=-1)
        gmean = g.reshape(len(windows), n * c).T @ spread  # (N*C, parts)
        gx = np.repeat(gmean.ravel(), unit)
        gx[np.arange(n * c * parts) * unit + first.ravel()] += gmax
        _acc(x, gx.reshape(x.data.shape))

    return _from_op(out, (x,), "stripe_pool", _bw)


@catalog_op("permutation of the axes")
def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(f"transpose: {axes} is not a permutation of {x.data.ndim} axes")
    inverse = tuple(np.argsort(axes))
    out = np.ascontiguousarray(x.data.transpose(axes))

    def _bw(g):
        _acc(x, np.ascontiguousarray(g.transpose(inverse)))

    return _from_op(out, (x,), "transpose", _bw)


# -- losses and reductions -----------------------------------------------------


@catalog_op("fused, log-sum-exp-stabilized softmax cross-entropy")
def softmax_cross_entropy(logits: Tensor, labels, reduction: str = "mean") -> Tensor:
    if logits.data.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: logits must be 2-D, got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: labels shape {labels.shape} does not match "
                         f"batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {k})")
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"softmax_cross_entropy: unknown reduction {reduction!r}")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(n)
    per = lse - z[rows, labels]
    if reduction == "mean":
        out = per.mean()
    elif reduction == "sum":
        out = per.sum()
    else:
        out = per

    def _bw(g):
        p = np.exp(z - lse[:, None])
        p[rows, labels] -= 1
        if reduction == "mean":
            gx = p * (g / n)
        elif reduction == "sum":
            gx = p * g
        else:
            gx = p * g[:, None]
        _acc(logits, gx)

    return _from_op(np.asarray(out, dtype=logits.data.dtype), (logits,),
                    "softmax_cross_entropy", _bw)


@catalog_op("matrix of pairwise Euclidean distances between row vectors")
def pairwise_distances(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"pairwise_distances: expected 2-D input, got {x.data.shape}")
    diff = x.data[:, None, :] - x.data[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff) + 1e-12)

    def _bw(g):
        w = (g + g.T) / d
        gx = w.sum(axis=1)[:, None] * x.data - w @ x.data
        _acc(x, gx)

    return _from_op(d.astype(x.data.dtype, copy=False), (x,), "pairwise_distances", _bw)


@catalog_op("gather matrix entries at (row, col) index pairs")
def take_pairs(m: Tensor, rows, cols) -> Tensor:
    if m.data.ndim != 2:
        raise ValueError(f"take_pairs: expected 2-D input, got {m.data.shape}")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError(f"take_pairs: index shapes differ, {rows.shape} vs {cols.shape}")
    h, w = m.data.shape
    if rows.size and not ((rows >= 0).all() and (rows < h).all()
                          and (cols >= 0).all() and (cols < w).all()):
        raise ValueError(f"take_pairs: indices out of bounds for shape {m.data.shape}")
    out = m.data[rows, cols].copy()

    def _bw(g):
        gm = np.zeros_like(m.data)
        np.add.at(gm, (rows, cols), g)
        _acc(m, gm)

    return _from_op(out, (m,), "take_pairs", _bw)


@catalog_op("shape change without reordering elements")
def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def _bw(g):
        _acc(x, g.reshape(x.data.shape))

    return _from_op(out.copy(), (x,), "reshape", _bw)


@catalog_op("sum of all elements or along one axis")
def reduce_sum(x: Tensor, axis=None) -> Tensor:
    out = x.data.sum(axis=axis)

    def _bw(g):
        if axis is None:
            _acc(x, np.broadcast_to(g, x.data.shape))
        else:
            _acc(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _from_op(np.asarray(out, dtype=x.data.dtype), (x,), "reduce_sum", _bw)


@catalog_op("mean of all elements or along one axis")
def reduce_mean(x: Tensor, axis=None) -> Tensor:
    out = x.data.mean(axis=axis)
    count = x.data.size if axis is None else x.data.shape[axis]

    def _bw(g):
        if axis is None:
            _acc(x, np.broadcast_to(g / count, x.data.shape))
        else:
            _acc(x, np.broadcast_to(np.expand_dims(g / count, axis), x.data.shape))

    return _from_op(np.asarray(out, dtype=x.data.dtype), (x,), "reduce_mean", _bw)
