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

import contextvars
import functools
import itertools
import os
import queue
import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .batching import batch_hard_mine

_default_dtype = np.float32
# batch norm's running-statistics momentum and variance epsilon
BN_MOMENTUM, BN_EPS = 0.1, 1e-5

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


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the default tensor dtype (e.g. float64 for checks)."""
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    prev, _default_dtype = _default_dtype, dtype
    try:
        yield
    finally:
        _default_dtype = prev


class Tensor:
    """Dense real tensor plus the bookkeeping for reverse-mode backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward", "_op", "_done")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw data, not another Tensor")
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
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

    @property
    def _tracked(self) -> bool:
        return self.requires_grad or bool(self._prev)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(()))


# -- graph plumbing ---------------------------------------------------------


def _from_op(data, prev, op, backward_fn):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._done = False
    out._op = op
    if any(p._tracked for p in prev):
        out._prev = tuple(prev)
        out._backward = backward_fn
    else:
        out._prev = ()
        out._backward = None
    if debug_checks and not np.isfinite(data).all():
        raise FloatingPointError(f"{op}: non-finite values in output")
    return out


def _acc(t: Tensor, g, own: bool = False) -> None:
    """Add `g` to `t.grad`. A first gradient is copied unless `own` says the op
    built `g` for `t` alone (nothing else reads or writes it) in `t`'s dtype."""
    if not t._tracked:
        return
    if t.grad is None:
        own = own and type(g) is np.ndarray and g.dtype == t.data.dtype
        t.grad = g if own else np.array(g, dtype=t.data.dtype, copy=True)
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


@catalog_op("elementwise or scalar multiplication")
def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    _check_elementwise("mul", a, b)
    out = a.data * b.data

    def _bw(g):
        _acc(a, _reduce_to(g * b.data, a.data.shape), own=True)
        _acc(b, _reduce_to(g * a.data, b.data.shape), own=True)

    return _from_op(out, (a, b), "mul", _bw)


@catalog_op("elementwise max(x, 0); gradient at exactly 0 is 0")
def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = np.where(mask, a.data, a.data.dtype.type(0))

    def _bw(g):
        _acc(a, g * mask, own=True)

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
        _acc(a, g @ np.swapaxes(bd, -1, -2), own=True)
        _acc(b, np.swapaxes(ad, -1, -2) @ g, own=True)

    return _from_op(out, (a, b), "matmul", _bw)


_CHUNK_BYTES = 1 << 18  # patch-matrix scratch of one chunk of images in conv_bn_relu
# threads that share conv_bn_relu's chunks and rank_gallery's query blocks:
# one per CPU this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_tasks: queue.SimpleQueue = queue.SimpleQueue()  # claim loops for the helper threads
_helpers = 0  # helper threads started in this process
_in_task = threading.local()  # .flag is True on a thread while it runs a task


def _helper() -> None:
    while True:
        _tasks.get()()


def _forget_helpers() -> None:
    # a forked child has none of its parent's threads
    global _tasks, _helpers
    _tasks, _helpers = queue.SimpleQueue(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _share_tasks(count: int, worker) -> list:
    """Run tasks 0 .. count - 1 and return their results in task order. Up
    to `_WORKERS` threads, the caller and helpers, claim the tasks one at a
    time, each in the caller's context variables (numpy's error state among
    them); a thread's first claim calls worker() for its function of task i.
    A call made from inside a task runs all its tasks on that task's thread,
    so tasks may nest without waiting on threads that are busy.
    A task must write only what it owns; a caller that adds results does so
    in task order, so the bits do not depend on the thread count. All tasks
    run; the first error in task order is raised once they have finished. No
    helper holds any of the call after this returns: peak memory is steady."""
    results, errors = [None] * count, []
    todo = iter(range(count))  # each next() claims one task, atomically under the GIL

    def run():
        outer, _in_task.flag = getattr(_in_task, "flag", False), True
        task = None
        try:
            for i in todo:
                try:
                    if task is None:
                        task = worker()
                    results[i] = task(i)
                except BaseException as exc:  # raised by the calling thread below
                    errors.append((i, exc))
        finally:
            _in_task.flag = outer

    tickets, left, call = itertools.count(), queue.SimpleQueue(), {"run": run}

    def join():  # a helper's part; a ticket taken after the caller's finds no run
        ticket = next(tickets)
        call.get("run", lambda: None)()  # released before the caller is told
        left.put(ticket)

    global _helpers
    helpers = 0 if getattr(_in_task, "flag", False) else min(_WORKERS, count) - 1
    while _helpers < helpers:
        threading.Thread(target=_helper, name="pyreid-worker", daemon=True).start()
        _helpers += 1
    for _ in range(helpers):
        _tasks.put(functools.partial(contextvars.copy_context().run, join))
    run()
    call.clear()  # before the caller's own ticket, so no later ticket finds run
    waiting = set(range(next(tickets)))  # the earlier tickets' helpers may hold run
    while waiting:
        waiting.discard(left.get())
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results


def _windows(xp: np.ndarray, stride: int, ho: int, wo: int) -> np.ndarray:
    """Read-only (N, Ho, Wo, 3, 3, C) view of the 3x3 windows of a padded map."""
    sn, sh, sw, sc = xp.strides
    # in xp each window row's three taps are one contiguous 3*C run
    return as_strided(xp, xp.shape[:1] + (ho, wo, 3, 3) + xp.shape[3:],
                      (sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)


def _patch_chunks(x: np.ndarray, stride: int, ho: int, wo: int, fn, pad: bool = False) -> list:
    """Call fn(first image, last image + 1, patch matrix) for each chunk of
    images of a zero-padded (N, H+2, W+2, C) map, or with `pad` of an
    (N, H, W, C) map whose chunks are padded one at a time; return the
    results in chunk order. Row (n, r, s) of the (rows, 9C) matrix is the
    3x3 window of output pixel (r, s) in (i, j, c) order. `_CHUNK_BYTES`
    alone sets the chunks. The chunks are `_share_tasks`' tasks, and each
    thread reuses one matrix buffer of at most `_CHUNK_BYTES` (and with
    `pad` one padded chunk), so scratch memory does not grow with the
    batch. `fn` must write only what its own chunk owns."""
    n, h, w, c = x.shape
    step = max(1, _CHUNK_BYTES // (ho * wo * 9 * c * x.itemsize))
    starts = range(0, n, step)
    windows = None if pad else _windows(x, stride, ho, wo)

    def worker():
        buf = np.empty((min(step, n) * ho * wo, 9 * c), dtype=x.dtype)
        if pad:  # the border stays zero; each chunk overwrites the inside
            xp = np.zeros((min(step, n), h + 2, w + 2, c), dtype=x.dtype)
            padded = _windows(xp, stride, ho, wo)

        def chunk(i):
            lo, hi = starts[i], min(starts[i] + step, n)
            cols = buf[:(hi - lo) * ho * wo]
            if pad:
                xp[:hi - lo, 1:h + 1, 1:w + 1] = x[lo:hi]
            src = padded[:hi - lo] if pad else windows[lo:hi]
            np.copyto(cols.reshape(hi - lo, ho, wo, 3, 3, c), src)
            return fn(lo, hi, cols)

        return chunk

    return _share_tasks(len(starts), worker)


def _update_running(running_mean, running_var, mean, var, m: int) -> None:
    """Move batch norm's running statistics in place towards a batch of m rows:
    the unbiased variance goes into running_var, the batch uses the biased one."""
    uvar = var * (m / (m - 1)) if m > 1 else var
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mean
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * uvar


@catalog_op("3x3 convolution (padding 1, stride 1 or 2), batch normalization and ReLU "
            "on channels-last maps; training uses batch statistics, eval folds the "
            "running ones into the kernel and records no graph node")
def conv_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, running_mean,
                 running_var, stride: int, training: bool) -> Tensor:
    """One backbone block: an (N, H, W, C) map in, an (N, Ho, Wo, Co) map out,
    with a channels-first (Co, C, 3, 3) kernel. Training normalizes by the
    batch statistics and moves the running ones in place (the unbiased
    variance into `running_var`). Eval batch norm is a fixed per-channel
    affine: the kernel is scaled by gamma / sqrt(running_var + BN_EPS), the GEMM
    writes the output directly and one shift adds the rest; the output is a
    constant, with no gradient to any input."""
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
    # training keeps the zero-padded map for its backward; eval holds none
    # and pads each chunk in its thread's scratch
    if training:
        xp = np.zeros((n, h + 2, wd_ + 2, c), dtype=dtype)
        xp[:, 1:h + 1, 1:wd_ + 1] = x.data
    else:
        xp = x.data.astype(dtype, copy=False)
    # the kernel as a (9C, Co) matrix in the patch matrix's (i, j, c) order,
    # with eval's scale folded in
    wcol = np.ascontiguousarray(w.data.transpose(2, 3, 1, 0), dtype=dtype).reshape(9 * c, co)
    if not training:
        scale = gamma.data * (1.0 / np.sqrt(running_var + BN_EPS))
        wcol = wcol * scale
    y = np.empty((m, co), dtype=dtype)
    _patch_chunks(xp, stride, ho, wo,
                  lambda lo, hi, cols: np.matmul(cols, wcol, out=y[lo * p:hi * p]),
                  pad=not training)
    if not training:
        y += beta.data - running_mean * scale
        np.maximum(y, 0, out=y)
        return _from_op(y.reshape(n, ho, wo, co), (), "conv_bn_relu", None)
    # channel sums as ones-vector products, which BLAS does faster than
    # numpy's axis-0 reductions on an (M, Co) matrix
    ones = np.ones(m, dtype=dtype)
    mean = (ones @ y) / m
    y -= mean
    var = (ones @ np.square(y)) / m
    _update_running(running_mean, running_var, mean, var, m)
    rstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = y
    xhat *= rstd  # normalized in place
    out = xhat * gamma.data
    out += beta.data
    np.maximum(out, 0, out=out)

    def _bw(g):
        gy = g.reshape(m, co) * (out > 0)
        gbeta = ones @ gy
        ggamma = ones @ (gy * xhat)
        # the batch mean and variance tie every row to every other
        gy -= xhat * (ggamma / m)
        gy -= gbeta / m
        gy *= gamma.data * rstd
        gxp = (np.zeros((n, 2 * ho + 2, 2 * wo + 2, c), dtype=dtype)
               if x._tracked and stride == 2 else None)

        def chunk_bw(lo, hi, cols):
            gyc = gy[lo * p:hi * p]
            part = cols.T @ gyc
            if gxp is not None:
                gcols = np.matmul(gyc, wcol.T, out=cols).reshape(-1, ho, wo, 3, 3, c)
                # padded row 2r + i is row r + i // 2 of phase i % 2: offsets
                # i, j < 2 fill both phases of one shifted window, and each
                # element gets its terms in the order of an (i, j) loop
                gv = gxp[lo:hi].reshape(-1, ho + 1, 2, wo + 1, 2, c)
                gv[:, :ho, :, :wo] += gcols[:, :, :, :2, :2].transpose(0, 1, 3, 2, 4, 5)
                gv[:, :ho, :, 1:, 0] += gcols[:, :, :, :2, 2].transpose(0, 1, 3, 2, 4)
                gv[:, 1:, 0, :wo] += gcols[:, :, :, 2, :2]
                gv[:, 1:, 0, 1:, 0] += gcols[:, :, :, 2, 2]
            return part

        # each chunk's weight-gradient term is added in chunk order, as one
        # running sum over the chunks would add it
        gw = np.zeros((9 * c, co), dtype=dtype)
        for part in _patch_chunks(xp, stride, ho, wo, chunk_bw):
            gw += part
        _acc(gamma, ggamma, own=True)
        _acc(beta, gbeta, own=True)
        _acc(w, np.ascontiguousarray(gw.reshape(3, 3, c, co).transpose(3, 2, 0, 1)), own=True)
        if gxp is not None:
            _acc(x, gxp[:, 1:h + 1, 1:wd_ + 1])
        elif x._tracked:
            # at stride 1 the input gradient is the same convolution of the
            # zero-padded output gradient with the flipped kernel: a gather
            gyp = np.zeros((n, h + 2, wd_ + 2, co), dtype=dtype)
            gyp[:, 1:h + 1, 1:wd_ + 1] = gy.reshape(n, h, wd_, co)
            wflip = np.ascontiguousarray(wcol.reshape(3, 3, c, co)[::-1, ::-1]
                                         .transpose(0, 1, 3, 2)).reshape(9 * co, c)
            gx = np.empty((m, c), dtype=dtype)
            _patch_chunks(gyp, 1, h, wd_,
                          lambda lo, hi, cols: np.matmul(cols, wflip, out=gx[lo * p:hi * p]))
            _acc(x, gx.reshape(n, h, wd_, c), own=True)

    return _from_op(out.reshape(n, ho, wo, co), (x, w, gamma, beta), "conv_bn_relu", _bw)


@catalog_op("batch normalization over the batch axis of an (N, C) matrix; training "
            "uses batch statistics, eval the running ones and records no graph node")
def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
               training: bool = True) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"batch_norm: expected 2-D input, got {x.data.shape}")
    c = x.data.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"batch_norm: affine shape {gamma.data.shape}/{beta.data.shape} "
                         f"does not match {c} channels")
    if not training:
        out = gamma.data * ((x.data - running_mean) / np.sqrt(running_var + BN_EPS)) + beta.data
        return _from_op(out, (), "batch_norm", None)

    mean = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    m = x.data.shape[0]
    _update_running(running_mean, running_var, mean, var, m)
    std = np.sqrt(var + BN_EPS)
    xhat = (x.data - mean) / std
    out = gamma.data * xhat + beta.data

    def _bw(g):
        _acc(gamma, (g * xhat).sum(axis=0), own=True)
        _acc(beta, g.sum(axis=0), own=True)
        gxh = g * gamma.data
        _acc(x, (gxh - gxh.mean(axis=0) - xhat * (gxh * xhat).mean(axis=0)) / std, own=True)

    return _from_op(out, (x, gamma, beta), "batch_norm", _bw)


# -- pooling and indexing ----------------------------------------------------


@catalog_op("max plus mean over windows of consecutive horizontal stripes of a "
            "channels-last map, derived from one pool of each stripe")
def stripe_pool(x: Tensor, parts: int, windows) -> Tensor:
    """(B, N, C) pools of an (N, H, W, C) map cut into `parts` equal stripes
    of rows: row b is the max plus the mean over the rows of window b, given
    as (first stripe, stripe count). The max gradient goes to the first
    maximal element in row-major (h, w) order, as a max over the window would."""
    if x.data.ndim != 4:
        raise ValueError(f"stripe_pool: expected a 4-D (N,H,W,C) map, got {x.data.shape}")
    n, h, w, c = x.data.shape
    if parts < 1 or h % parts:
        raise ValueError(f"stripe_pool: height {h} does not split into {parts} stripes")
    windows = [(int(s), int(l)) for s, l in windows]
    if not windows or any(s < 0 or l < 1 or s + l > parts for s, l in windows):
        raise ValueError(f"stripe_pool: windows {windows} are not nonempty runs of "
                         f"{parts} stripes")
    dtype = x.data.dtype
    unit = h // parts * w  # elements of one stripe of one channel
    xs = x.data.reshape(n, parts, unit, c)
    # unit-1 elementwise maxima over (N, parts, C) slices, and the sums as
    # ones-vector products, beat numpy's reductions over the middle axis
    smax = xs[:, :, 0].copy()
    for k in range(1, unit):
        np.maximum(smax, xs[:, :, k], out=smax)
    ssum = np.matmul(np.ones((1, unit), dtype=dtype), xs).reshape(smax.shape)
    # spread[b, s] is stripe s's weight in the mean over window b, so one
    # product gives every window's mean
    spread = np.zeros((len(windows), parts), dtype=dtype)
    for b, (s, l) in enumerate(windows):
        spread[b, s:s + l] = 1.0 / (l * unit)
    out = spread @ ssum.transpose(1, 0, 2).reshape(parts, n * c)
    out = out.reshape(len(windows), n, c)
    # wmax[l][s] is the max over stripes s .. s+l-1, as (parts-l+1, N, C)
    wmax = [None, np.ascontiguousarray(smax.transpose(1, 0, 2))]
    for l in range(2, max(l for _, l in windows) + 1):
        wmax.append(np.maximum(wmax[-1][:-1], wmax[1][l - 1:]))
    for b, (s, l) in enumerate(windows):
        out[b] += wmax[l][s]

    def _bw(g):
        # each window max's gradient runs down the wmax chain: a level-l max
        # is its first l-1 stripes' unless the last stripe's is larger, so
        # ties go to the first stripe
        gwin = [None] + [np.zeros_like(m) for m in wmax[1:]]
        for b, (s, l) in enumerate(windows):
            gwin[l][s] += g[b]
        for l in range(len(wmax) - 1, 1, -1):
            left = gwin[l] * (wmax[l - 1][:-1] >= wmax[1][l - 1:])
            gwin[l - 1][:-1] += left
            gwin[1][l - 1:] += gwin[l] - left
        # the index of the first element of each stripe holding its max,
        # counted in the narrowest type that holds unit - 1
        seen = xs[:, :, 0] == smax
        first = (~seen).astype(np.min_scalar_type(unit - 1))
        for k in range(1, unit - 1):
            seen |= xs[:, :, k] == smax
            first += ~seen
        gmean = (spread.T @ g.reshape(len(windows), n * c)).reshape(parts, n, 1, c)
        gx = np.empty((n, parts, unit, c), dtype=dtype)
        gx[...] = gmean.transpose(1, 0, 2, 3)
        cell = np.arange(n * parts, dtype=np.intp)[:, None] * unit
        flat = (cell + first.reshape(n * parts, c).astype(np.intp)) * c + np.arange(c)
        gx.reshape(-1)[flat.ravel()] += gwin[1].transpose(1, 0, 2).ravel()
        _acc(x, gx.reshape(x.data.shape), own=True)

    return _from_op(out, (x,), "stripe_pool", _bw)


@catalog_op("permutation of the axes")
def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ValueError(f"transpose: {axes} is not a permutation of {x.data.ndim} axes")
    inverse = tuple(np.argsort(axes))
    out = np.ascontiguousarray(x.data.transpose(axes))

    def _bw(g):
        _acc(x, g.transpose(inverse).copy(), own=True)

    return _from_op(out, (x,), "transpose", _bw)


@catalog_op("shape change without reordering elements")
def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)

    def _bw(g):
        _acc(x, g.reshape(x.data.shape))

    return _from_op(out.copy(), (x,), "reshape", _bw)


# -- losses ------------------------------------------------------------------


@catalog_op("fused, log-sum-exp-stabilized softmax cross-entropy, summed over the batch")
def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    if logits.data.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: logits must be 2-D, got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: labels shape {labels.shape} does not match "
                         f"batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"softmax_cross_entropy: label out of range [0, {k})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(n)
    out = (lse - z[rows, labels]).sum()

    def _bw(g):
        p = np.exp(z - lse[:, None])
        p[rows, labels] -= 1
        _acc(logits, p * g, own=True)

    return _from_op(np.asarray(out, dtype=logits.data.dtype), (logits,),
                    "softmax_cross_entropy", _bw)


@catalog_op("batch-hard triplet loss: mean over the anchors with a positive and a "
            "negative of hinge(d(hardest positive) - d(hardest negative) + margin) on "
            "Euclidean row distances, from a float64 Gram matrix")
def batch_hard_triplet(x: Tensor, labels, margin: float) -> Tensor:
    """Batch-hard triplet loss (Hermans et al., arXiv:1703.07737) of a (B, D)
    embedding batch. Squared distances ‖a‖² + ‖b‖² − 2a·b are accumulated
    in float64, as `rank_gallery` does, so near-identical rows do not
    cancel; the sum commutes and the Gram matrix is symmetric, so equal
    rows get equal distance rows. `batch_hard_mine` picks each anchor's
    hardest positive and negative. The backward scatters the hinge
    gradients into a (B, B) distance gradient W and returns rowsum(W)·x − W·x."""
    if x.data.ndim != 2:
        raise ValueError(f"batch_hard_triplet: expected 2-D input, got {x.data.shape}")
    x64 = x.data.astype(np.float64)
    sq = np.einsum("ij,ij->i", x64, x64)
    d2 = (sq[:, None] + sq) - 2.0 * (x64 @ x64.T)
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(np.maximum(d2, 0.0) + 1e-12).astype(x.data.dtype, copy=False)
    hp, hn = batch_hard_mine(d, labels)
    a = np.flatnonzero((hp >= 0) & (hn >= 0))
    if not a.size:
        raise ValueError("batch_hard_triplet: no anchor has both a positive and a negative")
    hp, hn = hp[a], hn[a]
    hinge = (d[a, hp] - d[a, hn]) + x.data.dtype.type(margin)
    active = hinge > 0
    out = np.where(active, hinge, hinge.dtype.type(0)).mean()

    def _bw(g):
        gt = (g / a.size) * active
        gd = np.zeros_like(d)
        gd[a, hp] += gt
        gd[a, hn] -= gt
        w = (gd + gd.T) / d
        _acc(x, w.sum(axis=1)[:, None] * x.data - w @ x.data, own=True)

    return _from_op(np.asarray(out, dtype=x.data.dtype), (x,), "batch_hard_triplet", _bw)
