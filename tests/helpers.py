"""Shared test utilities: independent brute-force oracles and gradient-check
case builders.

The oracles deliberately use plain Python loops and math.sqrt so they share
no code path with the library implementations they verify.
"""

from __future__ import annotations

import math

import numpy as np

import pyreid.autograd as ag
from pyreid.autograd import Tensor
from pyreid.losses import id_loss, triplet_loss


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


def oracle_mine(dist, labels) -> list:
    """Exhaustive scan for hardest positive / negative, first index on ties."""
    n = len(labels)
    out = []
    for i in range(n):
        hp, hp_d = None, -math.inf
        hn, hn_d = None, math.inf
        for j in range(n):
            if j != i and labels[j] == labels[i] and dist[i][j] > hp_d:
                hp, hp_d = j, dist[i][j]
            if labels[j] != labels[i] and dist[i][j] < hn_d:
                hn, hn_d = j, dist[i][j]
        out.append((hp, hn))
    return out


def oracle_ap(matches) -> float:
    """Average precision over all true matches of one ranking."""
    hits = 0
    precisions = []
    for rank, m in enumerate(matches, start=1):
        if m:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def oracle_cmc(all_matches, max_rank) -> list:
    counts = [0] * max_rank
    for matches in all_matches:
        first = next(i for i, m in enumerate(matches) if m)
        for r in range(first, max_rank):
            counts[r] += 1
    return [c / len(all_matches) for c in counts]


def oracle_rank(query, qid, qcam, gallery, gids, gcams) -> list:
    """Exhaustive sort-and-filter ranking; returns gallery indices."""
    items = []
    for idx in range(len(gallery)):
        if gids[idx] == qid and gcams[idx] == qcam:
            continue
        items.append((oracle_distance(query, gallery[idx]), idx))
    items.sort()
    return [idx for _, idx in items]


def reference_conv2d(x, w, g, stride, padding) -> tuple:
    """Direct einsum convolution, one contraction per kernel offset, on 4-D
    arrays: (output, input gradient, weight gradient) for upstream gradient
    `g`. It is the library's original kernel, kept as the reference for the
    GEMM one."""
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


def reference_pyramid_forward(model, images: Tensor, labels, training: bool, mask=None):
    """The pyramid head as one graph per branch: slice the branch's rows,
    max pool plus avg pool, reduce, batch-norm, ReLU, classify, and sum the
    branches' cross-entropies. Returns (embedding, per-branch logits in
    enumeration order, ID loss). It is the library's original head, kept as
    the reference for the stacked one."""
    mask = mask or model.full_mask
    fmap = model.backbone.forward(images, training)
    features, logits, total = [], [], None
    for spec, params in zip(model.specs, model.branches):
        if not mask.level_enabled(spec.level):
            continue
        sub = ag.slice_rows(fmap, spec.row_start - 1, spec.row_end)
        pooled = ag.add(ag.global_max_pool(sub), ag.global_avg_pool(sub))
        feature = ag.relu(params.bn(ag.matmul(pooled, params.reduce_weight), training))
        branch_logits = ag.matmul(feature, params.classifier_weight)
        if params.classifier_bias is not None:
            ones = Tensor(np.ones((feature.data.shape[0], 1), dtype=feature.data.dtype))
            branch_logits = ag.add(branch_logits, ag.matmul(ones, params.classifier_bias))
        ce = ag.softmax_cross_entropy(branch_logits, labels, reduction="none")
        total = ce if total is None else ag.add(total, ce)
        features.append(feature)
        logits.append(branch_logits)
    embedding = features[0] if len(features) == 1 else ag.concat(features, axis=1)
    return embedding, logits, ag.reduce_mean(total)


# -- gradient-check case builders ------------------------------------------------


def _away_from_zero(a: np.ndarray, gap: float = 1e-3) -> np.ndarray:
    shift = np.where(a >= 0, gap, -gap)
    return np.where(np.abs(a) < gap, a + shift, a)


def _distinct_values(shape, rng, gap: float = 2e-3) -> np.ndarray:
    n = int(np.prod(shape))
    base = (np.arange(n) - n / 2.0) * gap * rng.uniform(1.0, 3.0)
    return rng.permutation(base).reshape(shape)


def _weighted_sum(op_out: Tensor, weights: np.ndarray) -> Tensor:
    return ag.reduce_sum(ag.mul(op_out, Tensor(weights)))


def gradcheck_cases(op_name: str, rng: np.random.Generator) -> list:
    """(f, x) pairs exercising one catalog op, with inputs kept away from
    relu/max kinks. Weight tensors are fixed per case."""
    cases = []
    if op_name in ("add", "sub", "mul"):
        op = getattr(ag, op_name)
        other = Tensor(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))
        cases.append((lambda t, op=op, o=other, w=w: _weighted_sum(op(t, o), w),
                      Tensor(rng.normal(size=(3, 4)))))
        scalar = float(rng.normal())
        ws = rng.normal(size=(3, 4))
        cases.append((lambda t, op=op, s=scalar, w=ws: _weighted_sum(op(t, s), w),
                      Tensor(rng.normal(size=(3, 4)))))
    elif op_name in ("relu", "hinge"):
        op = getattr(ag, op_name)
        w = rng.normal(size=(3, 4))
        x = _away_from_zero(rng.normal(size=(3, 4)))
        cases.append((lambda t, op=op, w=w: _weighted_sum(op(t), w), Tensor(x)))
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
    elif op_name == "conv2d":
        for stride in (1, 2):
            for padding in (0, 1):
                x = Tensor(rng.normal(size=(2, 3, 5, 4)))
                kernel = Tensor(rng.normal(size=(2, 3, 3, 3)))
                ho = (5 + 2 * padding - 3) // stride + 1
                wo = (4 + 2 * padding - 3) // stride + 1
                w = rng.normal(size=(2, 2, ho, wo))
                cases.append((lambda t, k=kernel, w=w, s=stride, p=padding:
                              _weighted_sum(ag.conv2d(t, k, stride=s, padding=p), w), x))
                cases.append((lambda t, x=x, w=w, s=stride, p=padding:
                              _weighted_sum(ag.conv2d(x, t, stride=s, padding=p), w),
                              kernel))
    elif op_name == "batch_norm":
        x = Tensor(rng.normal(size=(5, 3)))
        gamma = Tensor(rng.normal(size=3) + 1.5)
        beta = Tensor(rng.normal(size=3))
        w = rng.normal(size=(5, 3))
        cases.append((lambda t, g=gamma, b=beta, w=w:
                      _weighted_sum(ag.batch_norm(t, g, b, training=True), w), x))
        cases.append((lambda t, x=x, b=beta, w=w:
                      _weighted_sum(ag.batch_norm(x, t, b, training=True), w), gamma))
        cases.append((lambda t, x=x, g=gamma, w=w:
                      _weighted_sum(ag.batch_norm(x, g, t, training=True), w), beta))
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        cases.append((lambda t, g=gamma, b=beta, rm=rm, rv=rv, w=w:
                      _weighted_sum(ag.batch_norm(t, g, b, rm, rv, training=False), w), x))
    elif op_name == "global_max_pool":
        x = Tensor(_distinct_values((2, 3, 4, 3), rng))
        w = rng.normal(size=(2, 3))
        cases.append((lambda t, w=w: _weighted_sum(ag.global_max_pool(t), w), x))
    elif op_name == "global_avg_pool":
        w = rng.normal(size=(2, 3))
        cases.append((lambda t, w=w: _weighted_sum(ag.global_avg_pool(t), w),
                      Tensor(rng.normal(size=(2, 3, 4, 3)))))
    elif op_name == "stripe_pool":
        # every window of 3 stripes of 2x2 cells, and a sparse subset
        for windows in ([(s, l) for l in (1, 2, 3) for s in range(4 - l)], [(1, 2), (0, 1)]):
            w = rng.normal(size=(len(windows), 2, 3))
            cases.append((lambda t, ws=windows, w=w:
                          _weighted_sum(ag.stripe_pool(t, 3, ws), w),
                          Tensor(_distinct_values((2, 3, 6, 2), rng))))
        # stripes of 3x6 cells, longer than the elementwise-loop limit
        windows = [(0, 1), (1, 1), (0, 2)]
        w = rng.normal(size=(len(windows), 1, 2))
        cases.append((lambda t, ws=windows, w=w: _weighted_sum(ag.stripe_pool(t, 2, ws), w),
                      Tensor(_distinct_values((1, 2, 6, 6), rng))))
    elif op_name == "stack":
        other = Tensor(rng.normal(size=(3, 2)))
        w = rng.normal(size=(3, 3, 2))
        cases.append((lambda t, o=other, w=w: _weighted_sum(ag.stack([t, o, t]), w),
                      Tensor(rng.normal(size=(3, 2)))))
    elif op_name == "transpose":
        w = rng.normal(size=(4, 2, 3))
        cases.append((lambda t, w=w: _weighted_sum(ag.transpose(t, (2, 0, 1)), w),
                      Tensor(rng.normal(size=(2, 3, 4)))))
    elif op_name == "slice_rows":
        w = rng.normal(size=(2, 3, 3))
        cases.append((lambda t, w=w: _weighted_sum(ag.slice_rows(t, 2, 5), w),
                      Tensor(rng.normal(size=(2, 6, 3)))))
    elif op_name == "concat":
        other = Tensor(rng.normal(size=(2, 3)))
        w = rng.normal(size=(2, 7))
        cases.append((lambda t, o=other, w=w: _weighted_sum(ag.concat([t, o], axis=1), w),
                      Tensor(rng.normal(size=(2, 4)))))
        w2 = rng.normal(size=(2, 8))
        cases.append((lambda t, w=w2: _weighted_sum(ag.concat([t, t], axis=1), w),
                      Tensor(rng.normal(size=(2, 4)))))
    elif op_name == "softmax_cross_entropy":
        labels = rng.integers(0, 4, size=5)
        cases.append((lambda t, l=labels: ag.softmax_cross_entropy(t, l),
                      Tensor(rng.normal(size=(5, 4)))))
    elif op_name == "euclidean_distance":
        b = Tensor(rng.normal(size=6))
        a = rng.normal(size=6) + 3.0  # keep the distance clear of zero
        cases.append((lambda t, b=b: ag.euclidean_distance(t, b), Tensor(a)))
    elif op_name == "euclidean_norm":
        a = rng.normal(size=6) + 2.0
        cases.append((lambda t: ag.euclidean_norm(t), Tensor(a)))
    elif op_name == "pairwise_distances":
        x = rng.normal(size=(5, 3)) + np.arange(5)[:, None]  # rows well separated
        w = rng.normal(size=(5, 5))
        cases.append((lambda t, w=w: _weighted_sum(ag.pairwise_distances(t), w),
                      Tensor(x)))
    elif op_name == "take_pairs":
        rows = np.asarray([0, 1, 2, 0])
        cols = np.asarray([3, 2, 0, 1])
        w = rng.normal(size=4)
        cases.append((lambda t, w=w: _weighted_sum(ag.take_pairs(t, rows, cols), w),
                      Tensor(rng.normal(size=(4, 4)))))
    elif op_name == "reshape":
        w = rng.normal(size=(2, 6))
        cases.append((lambda t, w=w: _weighted_sum(ag.reshape(t, (2, 6)), w),
                      Tensor(rng.normal(size=(3, 4)))))
    elif op_name == "reduce_sum":
        cases.append((lambda t: ag.reduce_sum(t), Tensor(rng.normal(size=(3, 4)))))
        w = rng.normal(size=4)
        cases.append((lambda t, w=w: _weighted_sum(ag.reduce_sum(t, axis=0), w),
                      Tensor(rng.normal(size=(3, 4)))))
    elif op_name == "reduce_mean":
        cases.append((lambda t: ag.reduce_mean(t), Tensor(rng.normal(size=(3, 4)))))
        w = rng.normal(size=3)
        cases.append((lambda t, w=w: _weighted_sum(ag.reduce_mean(t, axis=1), w),
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
        head, tail = name.split(".", 1)
        _, lv, kv = head.split("_")
        idx = next(i for i, s in enumerate(model.specs)
                   if s.level == int(lv[1:]) and s.position == int(kv[1:]))
        bp = model.branches[idx]
        target = {"reduce.weight": (bp, "reduce_weight"),
                  "bn.gamma": (bp.bn, "gamma"),
                  "bn.beta": (bp.bn, "beta"),
                  "classifier.weight": (bp, "classifier_weight")}[tail]
    obj, attr = target
    old = getattr(obj, attr)
    setattr(obj, attr, new_tensor)
    return lambda: setattr(obj, attr, old)


def build_tiny_model(seed: int):
    """Small float64 model + batch for end-to-end gradient checks.

    Must be called inside `use_dtype(np.float64)`.
    """
    from pyreid.backbone import Backbone, BackboneConfig
    from pyreid.pyramid import PyramidModel

    rng = np.random.default_rng(seed)
    backbone = Backbone(BackboneConfig(in_channels=3, stages=((4, 2),)), rng)
    model = PyramidModel(backbone, n=2, feature_dim=3, num_identities=2,
                         image_hw=(8, 8), rng=rng)
    images = rng.uniform(0.0, 1.0, size=(4, 3, 8, 8))
    labels = np.asarray([0, 0, 1, 1])
    return model, images, labels


def composite_loss(model, images: np.ndarray, labels: np.ndarray, margin: float):
    """id loss + batch-hard triplet loss through the whole model."""
    out = model.forward(Tensor(images), training=True)
    li = id_loss(out.logits, labels)
    lt = triplet_loss(out.embedding, labels, margin)
    return ag.add(li.tensor, lt.tensor)


def composite_margin(model, images, labels) -> float:
    """A margin that keeps every batch-hard hinge strictly active, so the
    composite loss is locally smooth for finite differencing."""
    from pyreid.batching import batch_hard_mine

    with ag.no_grad():
        out = model.forward(Tensor(images), training=True)
        d = ag.pairwise_distances(out.embedding).data
    gaps = [d[i][hn] - d[i][hp] for i, (hp, hn) in enumerate(batch_hard_mine(d, labels))
            if hp is not None and hn is not None]
    return float(max(gaps)) + 0.5
