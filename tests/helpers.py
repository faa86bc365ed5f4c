"""Shared test utilities: independent brute-force oracles, the central
finite-difference gradient check and its case builders.

The oracles deliberately use plain Python loops, math.sqrt and exact
rationals so they share no code path with the library implementations they
verify.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward
from pyreid.batching import batch_hard_mine
from pyreid.data_synth import ReIDDataset
from pyreid.losses import id_loss, triplet_loss


def nhwc(a: np.ndarray) -> np.ndarray:
    """A channels-first (N, C, H, W) array as a contiguous channels-last
    (N, H, W, C) one, so a check can draw or build its data as before."""
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


# -- brute-force oracles -------------------------------------------------------


def oracle_distance(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def oracle_triplet(embeddings, labels, margin) -> tuple:
    """Exhaustive batch-hard triplet loss: (mean, valid anchor count)."""
    n = len(labels)
    terms = []
    for i in range(n):
        pos = [oracle_distance(embeddings[i], embeddings[j])
               for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [oracle_distance(embeddings[i], embeddings[j])
               for j in range(n) if labels[j] != labels[i]]
        if pos and neg:
            terms.append(max(0.0, max(pos) - min(neg) + margin))
    if not terms:
        return 0.0, 0
    return sum(terms) / len(terms), len(terms)


def oracle_mine(dist, labels) -> tuple:
    """Exhaustive scan for hardest positive / negative, first index on ties:
    (positive list, negative list), -1 where an anchor has no candidate."""
    n = len(labels)
    positives, negatives = [], []
    for i in range(n):
        hp, hp_d = -1, -math.inf
        hn, hn_d = -1, math.inf
        for j in range(n):
            if j != i and labels[j] == labels[i] and dist[i][j] > hp_d:
                hp, hp_d = j, dist[i][j]
            if labels[j] != labels[i] and dist[i][j] < hn_d:
                hn, hn_d = j, dist[i][j]
        positives.append(hp)
        negatives.append(hn)
    return positives, negatives


def oracle_ap(matches) -> float:
    """Average precision over all true matches of one ranking."""
    hits = 0
    precisions = []
    for rank, m in enumerate(matches, start=1):
        if m:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def padded(rows) -> np.ndarray:
    """Match rows of different lengths as one (Q, G) bool matrix: a trailing
    False changes neither a row's AP nor its first hit."""
    width = max(len(row) for row in rows)
    return np.array([list(row) + [False] * (width - len(row)) for row in rows], dtype=bool)


def oracle_cmc(all_matches, max_rank) -> list:
    counts = [0] * max_rank
    for matches in all_matches:
        first = next(i for i, m in enumerate(matches) if m)
        for r in range(first, max_rank):
            counts[r] += 1
    return [c / len(all_matches) for c in counts]


def oracle_rank(queries, qids, qcams, gallery, gids, gcams) -> list:
    """Exhaustive sort-and-filter ranking of every query: the gallery indices
    that are not same-identity same-camera junk, by exact squared distance
    (a Fraction of the float64 values), the lower index first on a tie."""
    queries = np.asarray(queries, dtype=np.float64).reshape(len(qids), -1)
    gallery = np.asarray(gallery, dtype=np.float64).reshape(len(gids), -1)
    ratios = [x.as_integer_ratio()
              for x in np.concatenate([queries.ravel(), gallery.ravel()]).tolist()]
    # every float is an integer over a power of two: at the largest
    # denominator all values are integers, and integer arithmetic is exact
    den = max(d for _, d in ratios)
    ints = np.array([n * (den // d) for n, d in ratios], dtype=object)
    q_ints, g_ints = ints[:queries.size].reshape(queries.shape), ints[queries.size:]
    g_ints = g_ints.reshape(gallery.shape)
    orders = []
    for q, qid, qcam in zip(q_ints, qids, qcams):
        diff = g_ints - q
        sq = [Fraction(s, den * den) for s in (diff * diff).sum(axis=1)]
        kept = [idx for idx in range(len(gallery))
                if not (gids[idx] == qid and gcams[idx] == qcam)]
        orders.append(sorted(kept, key=lambda idx: (sq[idx], idx)))
    return orders


def oracle_dataset(config) -> ReIDDataset:
    """The dataset of a `GenConfig`, one image at a time: each sample draws
    its tint, corruption and noise from its own stream with scalar calls,
    then is shifted, rescaled, occluded, lit by its camera, noised and
    clipped on its own. Shares no generation code with `pyreid.data_synth`;
    `generate_dataset` must equal it byte for byte. Its camera re-roll test
    is the general rule for any camera count, at two cameras."""
    id_stream, cam_stream, sample_stream, split_stream = 11, 22, 33, 44

    def stream(*words):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(words))))

    num_cams, h, w = 2, 48, 16
    seed, k = config.seed, config.imgs_per_id
    severity = config.severity
    train_ids = set(int(i) for i in
                    stream(seed, split_stream).permutation(config.num_ids)[:config.num_ids // 2])
    cams = []
    for c in range(num_cams):
        rng = stream(seed, cam_stream, c)
        cams.append((float(rng.uniform(0.70, 1.30)), rng.uniform(-0.15, 0.15, size=3),
                     float(rng.uniform(0.02, 0.06))))

    n = config.num_ids * k
    images = np.zeros((n, h, w, 3), dtype=np.float32)
    identities, cameras = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    splits = np.zeros(n, dtype=np.int64)
    offsets, scales = np.zeros(n), np.ones(n)
    occ_boxes = np.full((n, 4), -1, dtype=np.int64)
    for identity in range(config.num_ids):
        # the figure: head, (striped) torso and legs bands on a dark background
        rng = stream(seed, id_stream, identity)
        colors = rng.uniform(0.05, 0.95, size=(4, 3))
        head, torso = rng.uniform(0.15, 0.30), rng.uniform(0.30, 0.45)
        stripe = int(rng.choice([0, 2, 3, 4]))
        base = np.full((3, h, w), 0.10)
        head_rows, torso_rows = max(1, int(round(head * h))), max(1, int(round(torso * h)))
        body = slice(max(1, w // 8), w - max(1, w // 8))
        base[:, :head_rows, body] = colors[0][:, None, None]
        base[:, head_rows:head_rows + torso_rows, body] = colors[1][:, None, None]
        for r in range(head_rows, head_rows + torso_rows):
            if stripe and (r - head_rows) % (2 * stripe) < stripe:
                base[:, r, body] = colors[2][:, None]
        base[:, head_rows + torso_rows:, body] = colors[3][:, None, None]

        is_test = identity not in train_ids
        for attempt in range(100):
            assignment = stream(seed, cam_stream, identity, attempt).integers(
                0, num_cams, size=k)
            counts = np.bincount(assignment, minlength=num_cams)
            present = [c for c in range(num_cams) if counts[c]]
            extra = sum(int(counts[c]) - 1 for c in present)
            if not is_test or (len(present) >= 2 and
                               all(extra - (counts[c] - 1) >= 1 for c in present)):
                break
        else:
            raise AssertionError(f"identity {identity}: no feasible camera assignment")

        for j in range(k):
            i = identity * k + j
            rng = stream(seed, sample_stream, identity, j)
            brightness, shift, sigma = cams[int(assignment[j])]
            img = base + rng.uniform(-0.05, 0.05, size=(3, 1, 1))
            u_off, u_scale = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            u_occ, u_area = rng.uniform(), rng.uniform()
            u_aspect, u_x, u_y = rng.uniform(0.5, 2.0), rng.uniform(), rng.uniform()
            occ_color = rng.uniform(0.7, 1.0, size=3)
            offset = 0.3 * severity * u_off
            scale = 1.0 + 0.3 * severity * u_scale
            rows = [min(h - 1, max(0, r - int(round(offset * h)))) for r in range(h)]
            img = img[:, rows, :]
            if scale != 1.0:
                center = (h - 1) / 2.0
                rows = [min(h - 1, max(0, int(np.rint(center + (r - center) / scale))))
                        for r in range(h)]
                img = img[:, rows, :]
            if severity > 0 and u_occ < 0.5 * severity:
                area = 0.25 * severity * u_area * h * w
                bh = max(1, min(h, int(round(math.sqrt(area * u_aspect)))))
                bw = max(1, min(w, int(round(area / bh))))
                x, y = int(u_x * (w - bw + 1)), int(u_y * (h - bh + 1))
                img[:, y:y + bh, x:x + bw] = occ_color[:, None, None]
                occ_boxes[i] = (x, y, bw, bh)
            img = img * brightness + shift[:, None, None]
            img = img + rng.normal(0.0, sigma, size=img.shape)
            images[i] = np.clip(img, 0.0, 1.0).astype(np.float32).transpose(1, 2, 0)
            identities[i], cameras[i] = identity, int(assignment[j])
            offsets[i], scales[i] = offset, scale
        if is_test:
            # one query per camera the identity appears in, the rest gallery
            splits[identity * k:(identity + 1) * k] = 2
            rng = stream(seed, split_stream, identity)
            for c in sorted(set(int(c) for c in assignment)):
                splits[int(rng.choice(identity * k + np.flatnonzero(assignment == c)))] = 1
    return ReIDDataset(images=images, identities=identities, cameras=cameras,
                       splits=splits, offsets=offsets, scales=scales,
                       occ_boxes=occ_boxes)


def reference_conv2d(x, w, g, stride, padding) -> tuple:
    """Direct einsum convolution, one contraction per kernel offset, on 4-D
    arrays: (output, input gradient, weight gradient) for upstream gradient
    `g`. It is the library's original kernel, kept as the convolution of the
    unfused backbone block below."""
    n, c, h, wd_ = x.shape
    co, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd_ + 2 * padding - kw) // stride + 1
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x, pad)
    out = np.zeros((n, co, ho, wo), dtype=np.result_type(x, w))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            sl = (slice(None), slice(None),
                  slice(i, i + stride * (ho - 1) + 1, stride),
                  slice(j, j + stride * (wo - 1) + 1, stride))
            out += np.einsum("nchw,oc->nohw", xp[sl], w[:, :, i, j])
            gw[:, :, i, j] = np.einsum("nohw,nchw->oc", g, xp[sl])
            gxp[sl] += np.einsum("nohw,oc->nchw", g, w[:, :, i, j])
    return out, gxp[:, :, padding:padding + h, padding:padding + wd_], gw


def reference_conv_bn_relu(x, w, gamma, beta, running_mean, running_var, stride,
                           training, g) -> tuple:
    """The unfused backbone block on channels-last (N, H, W, C) arrays:
    `reference_conv2d` with padding 1, then textbook batch norm (Ioffe &
    Szegedy, Algorithm 1, differentiated term by term) and ReLU. Returns
    (output, x gradient, w gradient, gamma gradient, beta gradient,
    pre-activation) for upstream gradient `g`. Training mode moves the
    running statistics in place, with the unbiased variance, by momentum
    0.1; the variance epsilon is 1e-5."""
    momentum, eps = 0.1, 1e-5
    xc = np.ascontiguousarray(x.transpose(0, 3, 1, 2))
    gc = g.transpose(0, 3, 1, 2)
    y = reference_conv2d(xc, w, np.zeros_like(gc), stride, 1)[0]
    axes, cshape = (0, 2, 3), (1, -1, 1, 1)
    m = y.size // y.shape[1]
    if training:
        mu, var = y.mean(axis=axes), y.var(axis=axes)
        running_mean[...] = (1.0 - momentum) * running_mean + momentum * mu
        running_var[...] = (1.0 - momentum) * running_var + momentum * var * m / (m - 1)
    else:
        mu, var = running_mean.copy(), running_var.copy()
    std = np.sqrt(var + eps).reshape(cshape)
    yc = y - mu.reshape(cshape)
    xhat = yc / std
    pre = gamma.reshape(cshape) * xhat + beta.reshape(cshape)
    dpre = gc * (pre > 0)
    dxhat = dpre * gamma.reshape(cshape)
    if training:
        dvar = (dxhat * yc).sum(axis=axes) * -0.5 * (var + eps) ** -1.5
        dmu = -(dxhat / std).sum(axis=axes) - 2.0 * dvar * yc.mean(axis=axes)
        dy = dxhat / std + dvar.reshape(cshape) * 2.0 * yc / m + dmu.reshape(cshape) / m
    else:
        dy = dxhat / std
    _, gx, gw = reference_conv2d(xc, w, dy, stride, 1)
    return (nhwc(np.maximum(pre, 0.0)), nhwc(gx), gw, (dpre * xhat).sum(axis=axes),
            dpre.sum(axis=axes), nhwc(pre))


# -- ops only the per-branch reference uses ------------------------------------------
#
# The library's head pools every branch in one `stripe_pool`; these four are
# the per-branch pieces it replaced, kept as graph ops for the reference.


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice along the height (second) axis of an (N, H, W, C)
    map, or of any (N, H, ...) array."""
    if x.data.ndim < 3:
        raise ValueError(f"slice_rows: expected >=3-D input, got {x.data.shape}")
    h = x.data.shape[1]
    if not (0 <= start < stop <= h):
        raise ValueError(f"slice_rows: range [{start}, {stop}) out of bounds for height {h}")
    out = x.data[:, start:stop].copy()

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[:, start:stop] = g
        ag._acc(x, gx)

    return ag._from_op(out, (x,), "slice_rows", _bw)


def global_max_pool(x: Tensor) -> Tensor:
    """(N, C) max over the spatial axes of an (N, H, W, C) map (every axis
    but the first and the last); the gradient goes to the first maximal
    element in row-major order."""
    if x.data.ndim < 3:
        raise ValueError(f"global_max_pool: expected >=3-D input, got {x.data.shape}")
    n, c = x.data.shape[0], x.data.shape[-1]
    flat = x.data.reshape(n, -1, c)
    idx = flat.argmax(axis=1)[:, None]
    out = np.take_along_axis(flat, idx, axis=1)[:, 0]

    def _bw(g):
        gf = np.zeros_like(flat)
        np.put_along_axis(gf, idx, g[:, None], axis=1)
        ag._acc(x, gf.reshape(x.data.shape))

    return ag._from_op(out, (x,), "global_max_pool", _bw)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, C) mean over the spatial axes of an (N, H, W, C) map."""
    if x.data.ndim < 3:
        raise ValueError(f"global_avg_pool: expected >=3-D input, got {x.data.shape}")
    n, c = x.data.shape[0], x.data.shape[-1]
    spatial = x.data.size // (n * c)
    out = x.data.reshape(n, -1, c).mean(axis=1)

    def _bw(g):
        ag._acc(x, np.broadcast_to((g / spatial)[:, None], (n, spatial, c))
                .reshape(x.data.shape))

    return ag._from_op(out, (x,), "global_avg_pool", _bw)


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenation along one axis."""
    ts = list(tensors)
    if not ts:
        raise ValueError("concat: no tensors given")
    ref = ts[0].data.shape
    for t in ts[1:]:
        s = t.data.shape
        if len(s) != len(ref) or s[:axis] + s[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise ValueError(f"concat: shape mismatch {ref} vs {s} along axis {axis}")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def _bw(g):
        off = 0
        index = [slice(None)] * g.ndim
        for t, s in zip(ts, sizes):
            index[axis] = slice(off, off + s)
            ag._acc(t, g[tuple(index)])
            off += s

    return ag._from_op(out, tuple(ts), "concat", _bw)


def take_rows(x: Tensor, rows) -> Tensor:
    """Gather of distinct rows along the leading axis."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or x.data.ndim < 1:
        raise ValueError(f"take_rows: need 1-D row indices into a >=1-D tensor, got "
                         f"{rows.shape} into {x.data.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= x.data.shape[0]):
        raise ValueError(f"take_rows: rows out of bounds for {x.data.shape[0]} rows")
    if np.unique(rows).size != rows.size:
        raise ValueError("take_rows: rows must be distinct")
    out = x.data[rows]

    def _bw(g):
        gx = np.zeros_like(x.data)
        gx[rows] = g
        ag._acc(x, gx)

    return ag._from_op(out, (x,), "take_rows", _bw)


# -- ops only the reference triplet loss and the tests use -------------------------------
#
# The library's triplet loss is one `batch_hard_triplet` op; these are the
# pieces of the graph it replaced, kept as graph ops for the reference.
# `reduce_sum` also turns an op's output into the scalar a test backpropagates.


def sub(a: Tensor, b) -> Tensor:
    """Elementwise or scalar subtraction."""
    b = ag._as_tensor(b, a)
    ag._check_elementwise("sub", a, b)
    out = a.data - b.data

    def _bw(g):
        ag._acc(a, ag._reduce_to(g, a.data.shape))
        ag._acc(b, ag._reduce_to(-g, b.data.shape))

    return ag._from_op(out, (a, b), "sub", _bw)


def pairwise_distances(x: Tensor) -> Tensor:
    """Matrix of pairwise Euclidean distances between row vectors."""
    if x.data.ndim != 2:
        raise ValueError(f"pairwise_distances: expected 2-D input, got {x.data.shape}")
    diff = x.data[:, None, :] - x.data[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff) + 1e-12)

    def _bw(g):
        w = (g + g.T) / d
        gx = w.sum(axis=1)[:, None] * x.data - w @ x.data
        ag._acc(x, gx)

    return ag._from_op(d.astype(x.data.dtype, copy=False), (x,), "pairwise_distances", _bw)


def take_pairs(m: Tensor, rows, cols) -> Tensor:
    """Gather of matrix entries at (row, col) index pairs."""
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
        ag._acc(m, gm)

    return ag._from_op(out, (m,), "take_pairs", _bw)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    """Sum of all elements or along one axis."""
    out = x.data.sum(axis=axis)

    def _bw(g):
        if axis is None:
            ag._acc(x, np.broadcast_to(g, x.data.shape))
        else:
            ag._acc(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return ag._from_op(np.asarray(out, dtype=x.data.dtype), (x,), "reduce_sum", _bw)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    """Mean of all elements or along one axis."""
    out = x.data.mean(axis=axis)
    count = x.data.size if axis is None else x.data.shape[axis]

    def _bw(g):
        if axis is None:
            ag._acc(x, np.broadcast_to(g / count, x.data.shape))
        else:
            ag._acc(x, np.broadcast_to(np.expand_dims(g / count, axis), x.data.shape))

    return ag._from_op(np.asarray(out, dtype=x.data.dtype), (x,), "reduce_mean", _bw)


REFERENCE_OPS = ("concat", "global_avg_pool", "global_max_pool", "pairwise_distances",
                 "reduce_mean", "reduce_sum", "slice_rows", "sub", "take_pairs", "take_rows")


def reference_triplet_loss(embeddings: Tensor, labels, margin: float) -> Tensor:
    """The batch-hard triplet loss as a graph of generic ops: pairwise
    distances, two gathers at the mined pairs of the valid anchors, the
    hinge and the mean. It is the library's original composition, kept as
    the reference for `ag.batch_hard_triplet`."""
    dist = pairwise_distances(embeddings)
    hp, hn = batch_hard_mine(dist.data, labels)
    rows = np.flatnonzero((hp >= 0) & (hn >= 0))
    pos = take_pairs(dist, rows, hp[rows])
    neg = take_pairs(dist, rows, hn[rows])
    return reduce_mean(ag.relu(ag.add(sub(pos, neg), float(margin))))


class PassthroughBackbone:
    """A stand-in backbone with no parameters whose feature map is its input,
    so that the pyramid heads can be fed (N, H, W, channels) maps directly."""

    def __init__(self, channels: int):
        self.channels = channels

    def output_shape(self, h_img: int, w_img: int) -> tuple[int, int, int]:
        return h_img, w_img, self.channels

    def forward(self, images: Tensor, training: bool) -> Tensor:
        return images

    def named_parameters(self):
        return iter(())

    def named_buffers(self):
        return iter(())


def reference_pyramid_forward(model, images: Tensor, labels, training: bool, mask=None):
    """The pyramid head as one graph per branch: slice the rows of the
    branch's (first part, part count) window at the stripe height H / n,
    max pool plus avg pool, reduce, batch-norm, ReLU, classify, and sum the
    branches' cross-entropies. Each branch reads its own row of the model's
    head tensors and its D entries of the batch-norm state. `mask`, the
    model's own if None, picks the held branches that run. Returns
    (embedding, per-branch logits in enumeration order, ID loss). It is the
    library's original head, kept as the reference for the stacked one."""
    mask = mask or model.mask
    fmap = model.backbone.forward(images, training)
    bn, d = model.bn, model.feature_dim
    unit = fmap.data.shape[1] // model.mask.n

    def row(t, i):
        return ag.reshape(take_rows(t, [i]), t.data.shape[1:])

    def entries(t, i):
        return row(ag.reshape(t, (-1, d)), i)

    features, logits, total = [], [], None
    for i, (first, count) in enumerate(model.windows):
        if not mask.level_enabled(count):
            continue
        sub = slice_rows(fmap, first * unit, (first + count) * unit)
        pooled = ag.add(global_max_pool(sub), global_avg_pool(sub))
        # a view, so that a training-mode update lands in the model's buffers
        stats = slice(i * d, (i + 1) * d)
        normed = ag.batch_norm(ag.matmul(pooled, row(model.reduce_weight, i)),
                               entries(bn.gamma, i), entries(bn.beta, i),
                               bn.running_mean[stats], bn.running_var[stats],
                               training=training)
        feature = ag.relu(normed)
        branch_logits = ag.matmul(feature, row(model.classifier_weight, i))
        ce = ag.softmax_cross_entropy(branch_logits, labels)
        total = ce if total is None else ag.add(total, ce)
        features.append(feature)
        logits.append(branch_logits)
    embedding = features[0] if len(features) == 1 else concat(features, axis=1)
    return embedding, logits, ag.mul(total, 1.0 / len(labels))


# -- gradient checks ----------------------------------------------------------------


def finite_difference_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare f's analytic gradient at x against central differences.

    `f` maps a Tensor to a scalar Tensor and may close over other (fixed)
    tensors. Returns the max over coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    Inputs must be float64; the caller is responsible for keeping x away
    from kinks (relu / max-pool ties) by more than eps.
    """
    if x.data.dtype != np.float64:
        raise ValueError("finite_difference_check: input must be float64")

    leaf = Tensor(x.data.copy(), requires_grad=True)
    out = f(leaf)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("finite_difference_check: function must return a scalar Tensor")
    backward(out)
    analytic = (np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad).ravel()

    numeric = np.empty_like(analytic)
    flat = x.data.ravel()
    for i in range(flat.size):
        xp = flat.copy()
        xp[i] += eps
        fp = f(Tensor(xp.reshape(x.data.shape))).item()
        xm = flat.copy()
        xm[i] -= eps
        fm = f(Tensor(xm.reshape(x.data.shape))).item()
        numeric[i] = (fp - fm) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(rel.max()) if rel.size else 0.0


def _away_from_zero(a: np.ndarray, gap: float = 1e-3) -> np.ndarray:
    shift = np.where(a >= 0, gap, -gap)
    return np.where(np.abs(a) < gap, a + shift, a)


def _distinct_values(shape, rng, gap: float = 2e-3) -> np.ndarray:
    n = int(np.prod(shape))
    base = (np.arange(n) - n / 2.0) * gap * rng.uniform(1.0, 3.0)
    return rng.permutation(base).reshape(shape)


def _weighted_sum(op_out: Tensor, weights: np.ndarray) -> Tensor:
    return reduce_sum(ag.mul(op_out, Tensor(weights)))


@contextmanager
def _chunk_budget(nbytes: int):
    """Temporarily set conv_bn_relu's patch-matrix budget, so that small
    inputs span several chunks of images."""
    prev = ag._CHUNK_BYTES
    ag._CHUNK_BYTES = nbytes
    try:
        yield
    finally:
        ag._CHUNK_BYTES = prev


def conv_bn_relu_in_chunks(nbytes: int, *args) -> Tensor:
    """`ag.conv_bn_relu(*args)` with its forward and its backward both run
    under a patch-matrix budget of `nbytes`."""
    with _chunk_budget(nbytes):
        out = ag.conv_bn_relu(*args)
    bw = out._backward
    if bw is not None:
        def _bw(g):
            with _chunk_budget(nbytes):
                bw(g)
        out._backward = _bw
    return out


def _conv_bn_relu_cases(rng, stride: int, c: int, training: bool, batch: int = 2,
                        budget: int | None = None) -> list:
    """(f, t) pairs for one conv_bn_relu setting, one per differentiated
    input; a `budget` in bytes replaces the patch-matrix budget of every
    call. Draws are repeated until every pre-activation is at least 1e-3
    from the ReLU kink."""
    while True:
        x = rng.normal(size=(batch, 4, 3, c))
        w = rng.normal(size=(2, c, 3, 3))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        stats = (rng.normal(size=2), rng.uniform(0.5, 2.0, size=2))
        g = rng.normal(size=(batch, (4 - 1) // stride + 1, (3 - 1) // stride + 1, 2))
        pre = reference_conv_bn_relu(x, w, gamma, beta, stats[0].copy(), stats[1].copy(),
                                     stride, training, g)[-1]
        if np.abs(pre).min() > 1e-3:
            break

    args = (x, w, gamma, beta)

    def case(slot):
        def f(t):
            a = [Tensor(v) for v in args]
            a[slot] = t
            # training moves its own copy of the running statistics
            call = (*a, stats[0].copy(), stats[1].copy(), stride, training)
            out = (ag.conv_bn_relu(*call) if budget is None
                   else conv_bn_relu_in_chunks(budget, *call))
            return _weighted_sum(out, g)
        return f, Tensor(args[slot])

    return [case(slot) for slot in range(4)]


def _triplet_case(rng, labels: np.ndarray) -> tuple:
    """(embeddings, margin) for a batch-hard triplet gradient check. Draws
    are repeated until each anchor's hardest positive and hardest negative
    lead the runners-up by 1e-3 and no two rows are closer than 0.1; the
    margin keeps every hinge at least 0.5 above its kink."""
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    while True:
        x = rng.normal(size=(n, 3))
        d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
        if d[~np.eye(n, dtype=bool)].min() < 0.1:
            continue
        gaps = []
        for i in range(n):
            pos = np.sort(d[i][same[i] & (np.arange(n) != i)])
            neg = np.sort(d[i][~same[i]])
            gaps += [pos[-1] - pos[-2]] if len(pos) > 1 else []
            gaps += [neg[1] - neg[0]] if len(neg) > 1 else []
        if min(gaps) > 1e-3:
            return x, _active_margin(d, labels)


def _active_margin(d: np.ndarray, labels) -> float:
    """A margin that keeps every batch-hard hinge on distances `d` at least
    0.5 above its kink."""
    hp, hn = batch_hard_mine(d, labels)
    rows = np.flatnonzero((hp >= 0) & (hn >= 0))
    return float((d[rows, hn[rows]] - d[rows, hp[rows]]).max()) + 0.5


def gradcheck_cases(op_name: str, rng: np.random.Generator) -> list:
    """(f, x) pairs exercising one catalog op or one of `REFERENCE_OPS`, with
    inputs kept away from relu/max kinks. Weight tensors are fixed per case."""
    cases = []
    if op_name in ("add", "sub", "mul"):
        op = sub if op_name == "sub" else getattr(ag, op_name)
        other = Tensor(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))
        cases.append((lambda t, op=op, o=other, w=w: _weighted_sum(op(t, o), w),
                      Tensor(rng.normal(size=(3, 4)))))
        scalar = float(rng.normal())
        ws = rng.normal(size=(3, 4))
        cases.append((lambda t, op=op, s=scalar, w=ws: _weighted_sum(op(t, s), w),
                      Tensor(rng.normal(size=(3, 4)))))
    elif op_name == "relu":
        w = rng.normal(size=(3, 4))
        x = _away_from_zero(rng.normal(size=(3, 4)))
        cases.append((lambda t, w=w: _weighted_sum(ag.relu(t), w), Tensor(x)))
    elif op_name == "matmul":
        b = Tensor(rng.normal(size=(4, 2)))
        w = rng.normal(size=(3, 2))
        cases.append((lambda t, b=b, w=w: _weighted_sum(ag.matmul(t, b), w),
                      Tensor(rng.normal(size=(3, 4)))))
        a = Tensor(rng.normal(size=(3, 4)))
        cases.append((lambda t, a=a, w=w: _weighted_sum(ag.matmul(a, t), w),
                      Tensor(rng.normal(size=(4, 2)))))
        # a stack of matrix products, as the pyramid head applies its branches
        b3 = Tensor(rng.normal(size=(2, 4, 3)))
        w3 = rng.normal(size=(2, 5, 3))
        cases.append((lambda t, b=b3, w=w3: _weighted_sum(ag.matmul(t, b), w),
                      Tensor(rng.normal(size=(2, 5, 4)))))
        a3 = Tensor(rng.normal(size=(2, 5, 4)))
        cases.append((lambda t, a=a3, w=w3: _weighted_sum(ag.matmul(a, t), w),
                      Tensor(rng.normal(size=(2, 4, 3)))))
    elif op_name == "conv_bn_relu":
        # the stride-1 gather and stride-2 scatter input gradients, C = 3
        # and 4, each with respect to x, w, gamma and beta. An eval-mode
        # block records no graph node, so it has no gradient to check; its
        # draws are still made and dropped, so that the training cases keep
        # the data they had when eval cases were checked too
        for stride in (1, 2):
            for c in (3, 4):
                cases.extend(_conv_bn_relu_cases(rng, stride, c, True))
                _conv_bn_relu_cases(rng, stride, c, False)
        # three images a chunk of one each, forward and both backward passes
        cases.extend(_conv_bn_relu_cases(rng, 1, 3, True, batch=3, budget=1))
    elif op_name == "batch_norm":
        args = [Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=3) + 1.5),
                Tensor(rng.normal(size=3))]
        w = rng.normal(size=(5, 3))
        for slot in range(3):
            # each call moves its own running statistics
            def f(t, slot=slot, w=w):
                a = list(args)
                a[slot] = t
                return _weighted_sum(ag.batch_norm(*a, np.zeros(3), np.ones(3)), w)
            cases.append((f, args[slot]))
    elif op_name == "global_max_pool":
        x = Tensor(_distinct_values((2, 3, 4, 3), rng))
        w = rng.normal(size=(2, 3))
        cases.append((lambda t, w=w: _weighted_sum(global_max_pool(t), w), x))
    elif op_name == "global_avg_pool":
        w = rng.normal(size=(2, 3))
        cases.append((lambda t, w=w: _weighted_sum(global_avg_pool(t), w),
                      Tensor(rng.normal(size=(2, 3, 4, 3)))))
    elif op_name == "stripe_pool":
        # every window of 3 stripes of 2x2 cells, and a sparse subset
        for windows in ([(s, l) for l in (1, 2, 3) for s in range(4 - l)], [(1, 2), (0, 1)]):
            w = rng.normal(size=(len(windows), 2, 3))
            cases.append((lambda t, ws=windows, w=w:
                          _weighted_sum(ag.stripe_pool(t, 3, ws), w),
                          Tensor(nhwc(_distinct_values((2, 3, 6, 2), rng)))))
        # stripes of 3x6 cells, longer than the elementwise-loop limit
        windows = [(0, 1), (1, 1), (0, 2)]
        w = rng.normal(size=(len(windows), 1, 2))
        cases.append((lambda t, ws=windows, w=w: _weighted_sum(ag.stripe_pool(t, 2, ws), w),
                      Tensor(nhwc(_distinct_values((1, 2, 6, 6), rng)))))
    elif op_name == "take_rows":
        # an unsorted subset of distinct rows, as a partial pyramid mask picks
        w = rng.normal(size=(3, 3, 2))
        cases.append((lambda t, w=w: _weighted_sum(take_rows(t, [3, 0, 4]), w),
                      Tensor(rng.normal(size=(5, 3, 2)))))
    elif op_name == "transpose":
        w = rng.normal(size=(4, 2, 3))
        cases.append((lambda t, w=w: _weighted_sum(ag.transpose(t, (2, 0, 1)), w),
                      Tensor(rng.normal(size=(2, 3, 4)))))
    elif op_name == "slice_rows":
        w = rng.normal(size=(2, 3, 3))
        cases.append((lambda t, w=w: _weighted_sum(slice_rows(t, 2, 5), w),
                      Tensor(rng.normal(size=(2, 6, 3)))))
    elif op_name == "concat":
        other = Tensor(rng.normal(size=(2, 3)))
        w = rng.normal(size=(2, 7))
        cases.append((lambda t, o=other, w=w: _weighted_sum(concat([t, o], axis=1), w),
                      Tensor(rng.normal(size=(2, 4)))))
        w2 = rng.normal(size=(2, 8))
        cases.append((lambda t, w=w2: _weighted_sum(concat([t, t], axis=1), w),
                      Tensor(rng.normal(size=(2, 4)))))
    elif op_name == "softmax_cross_entropy":
        labels = rng.integers(0, 4, size=5)
        cases.append((lambda t, l=labels: ag.softmax_cross_entropy(t, l),
                      Tensor(rng.normal(size=(5, 4)))))
    elif op_name == "batch_hard_triplet":
        # three images of two identities and one of a third, whose anchor
        # has no positive
        labels = np.asarray([0, 0, 0, 1, 1, 1, 2])
        x, margin = _triplet_case(rng, labels)
        cases.append((lambda t, m=margin: ag.batch_hard_triplet(t, labels, m), Tensor(x)))
    elif op_name == "pairwise_distances":
        x = rng.normal(size=(5, 3)) + np.arange(5)[:, None]  # rows well separated
        w = rng.normal(size=(5, 5))
        cases.append((lambda t, w=w: _weighted_sum(pairwise_distances(t), w),
                      Tensor(x)))
    elif op_name == "take_pairs":
        rows = np.asarray([0, 1, 2, 0])
        cols = np.asarray([3, 2, 0, 1])
        w = rng.normal(size=4)
        cases.append((lambda t, w=w: _weighted_sum(take_pairs(t, rows, cols), w),
                      Tensor(rng.normal(size=(4, 4)))))
    elif op_name == "reshape":
        w = rng.normal(size=(2, 6))
        cases.append((lambda t, w=w: _weighted_sum(ag.reshape(t, (2, 6)), w),
                      Tensor(rng.normal(size=(3, 4)))))
    elif op_name == "reduce_sum":
        cases.append((lambda t: reduce_sum(t), Tensor(rng.normal(size=(3, 4)))))
        w = rng.normal(size=4)
        cases.append((lambda t, w=w: _weighted_sum(reduce_sum(t, axis=0), w),
                      Tensor(rng.normal(size=(3, 4)))))
    elif op_name == "reduce_mean":
        cases.append((lambda t: reduce_mean(t), Tensor(rng.normal(size=(3, 4)))))
        w = rng.normal(size=3)
        cases.append((lambda t, w=w: _weighted_sum(reduce_mean(t, axis=1), w),
                      Tensor(rng.normal(size=(3, 4)))))
    else:
        raise AssertionError(f"no gradcheck builder for op {op_name!r}")
    return cases


# -- composite end-to-end check ----------------------------------------------------


def swap_param(model, name: str, new_tensor):
    """Replace a named model parameter object; returns a restore callable."""
    if name.startswith("backbone.block"):
        head, tail = name.split(".", 2)[1], name.split(".", 2)[2]
        block = model.backbone.blocks[int(head[5:])]
        target = {"conv.weight": (block, "weight"),
                  "bn.gamma": (block.bn, "gamma"),
                  "bn.beta": (block.bn, "beta")}[tail]
    else:
        target = {"head.reduce.weight": (model, "reduce_weight"),
                  "head.bn.gamma": (model.bn, "gamma"),
                  "head.bn.beta": (model.bn, "beta"),
                  "head.classifier.weight": (model, "classifier_weight")}[name]
    obj, attr = target
    old = getattr(obj, attr)
    setattr(obj, attr, new_tensor)
    return lambda: setattr(obj, attr, old)


def build_tiny_model(seed: int):
    """Small float64 model + batch for end-to-end gradient checks.

    Must be called inside `use_dtype(np.float64)`.
    """
    from pyreid.backbone import Backbone
    from pyreid.pyramid import BranchMask, PyramidModel

    rng = np.random.default_rng(seed)
    backbone = Backbone(((4, 2),), rng)
    model = PyramidModel(backbone, BranchMask.from_string("11"), feature_dim=3,
                         num_identities=2, image_hw=(8, 8), rng=rng)
    images = nhwc(rng.uniform(0.0, 1.0, size=(4, 3, 8, 8)))
    labels = np.asarray([0, 0, 1, 1])
    return model, images, labels


def composite_loss(model, images: np.ndarray, labels: np.ndarray, margin: float):
    """id loss + batch-hard triplet loss through the whole model."""
    embedding, logits = model.forward(Tensor(images), training=True)
    li = id_loss(logits, labels)
    lt = triplet_loss(embedding, labels, margin)
    return ag.add(li.tensor, lt.tensor)


def composite_margin(model, images, labels) -> float:
    """A margin that keeps every batch-hard hinge strictly active, so the
    composite loss is locally smooth for finite differencing."""
    embedding, _ = model.forward(Tensor(images), training=True)
    d = pairwise_distances(embedding).data
    return _active_margin(d, labels)
