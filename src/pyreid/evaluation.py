"""Single-query retrieval evaluation: ranking, CMC, mAP."""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor, _share_tasks
from .batching import Split
from .data_synth import ReIDDataset
from .errors import ConfigError
from .pyramid import BranchMask, PyramidModel


# query rows per task, which bounds a task's memory: a (128, G) float64 block
_RANK_BLOCK = 128
_JUNK_KEY = 0x7FF8 << 48  # a quiet NaN: above every distance, silent in the gap test
METRICS = ("mAP", "rank1", "rank5", "rank10")  # evaluate_model's keys, in table order


def _exact_sq_distances(query: np.ndarray, rows: np.ndarray) -> list:
    """Exact squared distances from `query` to each of `rows`, as integers
    at one scale: every double is an integer over a power of two, so at the
    largest denominator present all the values are integers. Bitwise-equal
    rows are at equal distances, so each distinct row is summed once."""
    distinct = {}
    slots = [distinct.setdefault(row.tobytes(), len(distinct)) for row in rows]
    unique = np.frombuffer(b"".join(distinct), dtype=rows.dtype).reshape(len(distinct), -1)
    num, den = np.frompyfunc(float.as_integer_ratio, 1, 2)(np.vstack([query, unique]))
    ints = num * (den.max() // den)
    return ((ints[1:] - ints[0]) ** 2).sum(axis=1)[slots].tolist()


def rank_gallery(query_embs: np.ndarray, query_ids: np.ndarray, query_cams: np.ndarray,
                 gallery_embs: np.ndarray, gallery_ids: np.ndarray,
                 gallery_cams: np.ndarray) -> np.ndarray:
    """The (Q, G) int64 ranking: row i holds every gallery index in the exact
    order of Euclidean distance to query row i, the lower index first on a
    tie, except that the query's same-identity same-camera entries (junk
    under the standard protocol) come after all the others, in index order.
    Refuses non-finite rows.

    Blocks of `_RANK_BLOCK` queries are tasks of `autograd._share_tasks`. A
    block sorts one int64 key per Gram-form squared distance: its bits with
    the low b = (G - 1).bit_length() bits replaced by the gallery index. As
    a double a key is within tol / 2 of the exact distance, one tol per row,
    so a gap above tol between sorted keys orders every pair across it; each
    run of closer keys is re-sorted exactly."""
    q = np.asarray(query_embs, dtype=np.float64)
    g = np.ascontiguousarray(gallery_embs, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ValueError(f"rank_gallery: embedding dims differ, query {q.shape[1:]} vs "
                         f"gallery {g.shape[1:]}")
    dim = g.shape[1]
    if not dim:
        raise ValueError("rank_gallery: embeddings have no dimensions")
    limit = 2.0 ** 509 / math.sqrt(dim)  # keeps every (|q| + |g|)**2 below 2**1020
    for name, x in (("query", q), ("gallery row", g)):
        bad = np.flatnonzero(~(np.maximum(x.max(axis=1), -x.min(axis=1)) <= limit))
        if len(bad):
            fault = ("is not finite" if not np.isfinite(x[bad[0]]).all()
                     else f"has an entry beyond {limit:.3g} in magnitude")
            raise ValueError(f"rank_gallery: {name} {bad[0]} {fault}")
    query_ids, query_cams = np.asarray(query_ids), np.asarray(query_cams)
    n = len(g)
    g_sq = np.einsum("ij,ij->i", g, g)
    g_norm = math.sqrt(g_sq.max(initial=0.0))
    low = (1 << (n - 1).bit_length()) - 1  # key bits that hold the gallery index
    # In any summation order q.g, |q|^2 and |g|^2 are within gamma_D |q||g|,
    # gamma_D |q|^2 and gamma_D |g|^2 of exact (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2nd ed., ch. 3; gamma_k = k u / (1 - k u), u =
    # 2**-53), so with the two additions a distance is within gamma_{D+2}
    # (|q| + |g|)^2. The index bits move a key under 2**(b - 52) of it. tol
    # is twice both at the largest |g|; gamma_{D+3} and 2**(b - 50) cover its
    # own rounding. Underflow can matter only where (|q| + |g|)^2 < 2**-600,
    # and there the 2**-590 joins all keys into one exact run.
    rel = 2.0 * (dim + 3) * 2.0 ** -53 / (1.0 - (dim + 3) * 2.0 ** -53) + (low + 1) * 2.0 ** -50
    ranking = np.empty((len(q), n), dtype=np.int64)

    def rank_block(block: int) -> None:
        lo = block * _RANK_BLOCK
        qb = q[lo:lo + _RANK_BLOCK]
        ids, cams = query_ids[lo:lo + _RANK_BLOCK, None], query_cams[lo:lo + _RANK_BLOCK, None]
        q_sq = np.einsum("ij,ij->i", qb, qb)
        keys = ranking[lo:lo + _RANK_BLOCK]  # the block's rows hold its distances first
        dist = np.matmul(-2.0 * qb, g.T, out=keys.view(np.float64))
        dist += q_sq[:, None]  # -2 q.g + |q|^2 + |g|^2, clamped at +0.0
        dist += g_sq
        np.maximum(dist, 0.0, out=dist)
        junk = (gallery_ids == ids) & (gallery_cams == cams)
        keys &= ~low
        keys[junk] = _JUNK_KEY
        keys |= np.arange(n)
        keys.sort(axis=1)
        tol = rel * (np.sqrt(q_sq) + g_norm) ** 2 + 2.0 ** -590
        near = np.diff(keys.view(np.float64), axis=1) <= tol[:, None]  # NaN: junk
        order = np.bitwise_and(keys, low, out=keys)  # junk last, in index order
        for row in np.flatnonzero(near.any(axis=1)):
            # the members of all runs; one not near the entry before starts a run
            joined = np.r_[False, near[row]]
            pos = np.flatnonzero(joined | np.r_[near[row], False])
            members = order[row, pos]
            exact = zip(np.cumsum(~joined[pos]).tolist(),
                        _exact_sq_distances(qb[row], g[members]), members.tolist())
            order[row, pos] = [i for _, _, i in sorted(exact)]

    _share_tasks(-(-len(q) // _RANK_BLOCK), lambda: rank_block)
    return ranking


def true_matches(query: Split, gallery: Split) -> np.ndarray:
    """The (Q, G) true-match relation of single-query evaluation: a gallery
    image of the query's identity from another camera (one from the same
    camera is junk). Refuses an empty split, and names the lowest query with
    no true match, since neither can be scored."""
    if len(query) == 0 or len(gallery) == 0:
        raise ConfigError("dataset has no query/gallery split")
    relation = ((gallery.identities == query.identities[:, None])
                & (gallery.cameras != query.cameras[:, None]))
    i = int(relation.any(axis=1).argmin())  # the first query without one, if any
    if not relation[i].any():
        raise ConfigError(f"query {i} (identity {query.identities[i]}, camera "
                          f"{query.cameras[i]}) has no true match in the gallery")
    return relation


def compute_cmc(matches: np.ndarray, max_rank: int) -> np.ndarray:
    """CMC[r] (1-based rank r) = fraction of queries whose first true match
    appears at position <= r, from the (Q, G) bool matches in rank order;
    every row must hold a true match."""
    return (matches.argmax(axis=1)[:, None] < np.arange(1, max_rank + 1)).mean(axis=0)


def compute_map(matches: np.ndarray) -> float:
    """Mean over queries of average precision over all true matches, from the
    (Q, G) bool matches in rank order; every row must hold a true match."""
    return float(np.mean([(np.arange(1, len(pos) + 1) / (pos + 1.0)).mean()
                          for pos in map(np.flatnonzero, matches)]))


def extract_embeddings(model: PyramidModel, images: np.ndarray,
                       mask: BranchMask | None = None) -> np.ndarray:
    """Eval-mode embeddings (running batch-norm statistics) for a stack of
    images, in input order, from one `forward` call. A `mask` other than the
    model's keeps the columns of its branches; the model must hold them all."""
    columns = None if mask is None or mask == model.mask else model.embedding_columns(mask)
    emb = model.forward(Tensor(images), training=False)[0].data
    return emb if columns is None else emb[:, columns]


def evaluate_model(model: PyramidModel, dataset: ReIDDataset,
                   mask: BranchMask | None = None) -> dict:
    """mAP and CMC at ranks 1/5/10 over the dataset's query/gallery splits."""
    query, gallery = dataset.query_split(), dataset.gallery_split()
    relation = true_matches(query, gallery)
    q_embs = extract_embeddings(model, dataset.images[query.indices], mask)
    g_embs = extract_embeddings(model, dataset.images[gallery.indices], mask)
    order = rank_gallery(q_embs, query.identities, query.cameras,
                         g_embs, gallery.identities, gallery.cameras)
    # row i's gallery indices become flat indices of the relation's row i
    order += np.arange(0, relation.size, relation.shape[1])[:, None]
    matches = np.take(relation, order)
    cmc = compute_cmc(matches, 10)
    return {"mAP": compute_map(matches), "rank1": float(cmc[0]), "rank5": float(cmc[4]),
            "rank10": float(cmc[9])}


def evaluate_checkpoint(checkpoint_path, dataset: ReIDDataset,
                        mask: BranchMask | None = None) -> dict:
    """Rebuild the model stored in a checkpoint and evaluate it."""
    from .trainer import load_checkpoint, rebuild_model

    model, _ = rebuild_model(load_checkpoint(checkpoint_path))
    if model.image_hw != dataset.image_hw:
        raise ConfigError(f"checkpoint expects {model.image_hw} images, dataset has "
                          f"{dataset.image_hw}")
    return evaluate_model(model, dataset, mask=mask)


def metrics_table(metrics: dict) -> str:
    head = " | ".join(f"{k:>7}" for k in METRICS)
    vals = " | ".join(f"{metrics[k]:7.4f}" for k in METRICS)
    rule = "-+-".join("-" * 7 for _ in METRICS)
    return f"{head}\n{rule}\n{vals}"
