"""Single-query retrieval evaluation: ranking, CMC, mAP."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, _share_tasks, no_grad
from .data_synth import ReIDDataset
from .errors import ConfigError
from .pyramid import BranchMask, PyramidModel


@dataclass(frozen=True)
class RankedResult:
    """One query's filtered gallery ranking."""
    query_index: int
    order: np.ndarray    # gallery indices, ascending distance
    matches: np.ndarray  # bool per ranked position


# query rows per task: a (128, G) float64 distance block and its (128, G)
# int64 keys each. Blocks of fewer rows would change BLAS's rounding of the
# distance products for some gallery shapes, and with it near-tie rankings
_RANK_BLOCK = 128


def _hash_multipliers(dim: int) -> np.ndarray:
    """One odd 64-bit multiplier per embedding column: splitmix64 of the
    column number. Odd multipliers are invertible modulo 2**64, so two rows
    that differ in one column always hash apart."""
    z = np.arange(1, dim + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) | np.uint64(1)


def rank_gallery(query_embs: np.ndarray, query_ids: np.ndarray, query_cams: np.ndarray,
                 gallery_embs: np.ndarray, gallery_ids: np.ndarray,
                 gallery_cams: np.ndarray) -> list:
    """Rank the gallery for every query row by Euclidean distance, after
    dropping the query's same-identity same-camera entries (junk under the
    standard protocol). Distance ties break toward the lower gallery index.
    Returns one RankedResult per query, in query order.

    Blocks of `_RANK_BLOCK` queries are tasks of `autograd._share_tasks`.
    Each block sorts one int64 key per distance: the distance's bits with
    the low b = (G - 1).bit_length() bits replaced by the gallery index.
    Non-negative doubles order as their bits, and junk distances are inf,
    so where the kept keys of a row all differ above the low b bits, the
    sorted keys are the exact (distance, index) order. Rows with two kept
    keys equal above those bits (every tie and near-tie) or with a NaN
    distance are sorted again with a stable argsort of the distances."""
    q = np.asarray(query_embs, dtype=np.float64)
    g = np.array(gallery_embs, dtype=np.float64, order="C")
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise ValueError(f"rank_gallery: embedding dims differ, query {q.shape[1:]} vs "
                         f"gallery {g.shape[1:]}")
    if not g.shape[1]:
        raise ValueError("rank_gallery: embeddings have no dimensions")
    query_ids, query_cams = np.asarray(query_ids), np.asarray(query_cams)
    # BLAS rounds the products of equal gallery rows differently by position,
    # which would reorder their tie: every duplicate row takes the distances
    # of its first occurrence. Adding 0.0 turns -0.0 into 0.0, so numerically
    # equal rows are bitwise equal. Equal rows hash alike, so only rows whose
    # hash another row shares are compared in full.
    g += 0.0
    n = len(g)
    _, inverse, counts = np.unique(g.view(np.uint64) @ _hash_multipliers(g.shape[1]),
                                   return_inverse=True, return_counts=True)
    shared = np.flatnonzero(counts[inverse] > 1)
    source = np.arange(n)
    if len(shared):
        rows = g[shared].view(np.dtype((np.void, g.itemsize * g.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        source[shared] = shared[first[inverse]]
    dup = np.flatnonzero(source != np.arange(n))
    g_sq = np.einsum("ij,ij->i", g, g)
    low = (1 << (n - 1).bit_length()) - 1  # key bits that hold the gallery index
    index = np.arange(n, dtype=np.int64)

    def rank_block(block: int) -> list:
        lo = block * _RANK_BLOCK
        qb = q[lo:lo + _RANK_BLOCK]
        ids, cams = query_ids[lo:lo + _RANK_BLOCK, None], query_cams[lo:lo + _RANK_BLOCK, None]
        # squared distances ||q||^2 + ||g||^2 - 2 q.g, clamped at 0; adding
        # the non-negative norms leaves no -0.0
        dist = (-2.0 * qb) @ g.T
        dist += np.einsum("ij,ij->i", qb, qb)[:, None]
        dist += g_sq
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist[:, dup] = dist[:, source[dup]]
        junk = (gallery_ids == ids) & (gallery_cams == cams)
        dist[junk] = np.inf
        kept = n - junk.sum(axis=1)
        if not kept.all():
            raise ValueError(f"rank_gallery: query {lo + int(np.argmin(kept))} has an empty "
                             f"gallery after filtering")
        keys = dist.view(np.int64) & ~low
        keys |= index
        keys.sort(axis=1)
        redo = np.isnan(dist.max(axis=1))  # NaN keys sort by their bits, not last
        if n > 1:
            # the first adjacent pair of sorted keys equal above the index bits
            same = (keys[:, 1:] ^ keys[:, :-1]) <= low
            first = same.argmax(axis=1)
            redo |= same[np.arange(len(qb)), first] & (first < kept - 1)
        order = np.bitwise_and(keys, low, out=keys)
        redo = np.flatnonzero(redo)
        order[redo] = np.argsort(dist[redo], axis=1, kind="stable")
        matches = gallery_ids[order] == ids
        return [RankedResult(query_index=lo + i, order=order[i, :k], matches=matches[i, :k])
                for i, k in enumerate(kept)]

    blocks = _share_tasks(-(-len(q) // _RANK_BLOCK), lambda: rank_block)
    return [res for block in blocks for res in block]


def compute_cmc(results: list, max_rank: int) -> np.ndarray:
    """CMC[r] (1-based rank r) = fraction of queries whose first true match
    appears at position <= r."""
    if not results:
        raise ValueError("compute_cmc: no results")
    hits = np.zeros(max_rank, dtype=np.float64)
    for res in results:
        if not res.matches.any():
            raise ValueError(f"compute_cmc: query {res.query_index} has no true match")
        first = int(res.matches.argmax())
        if first < max_rank:
            hits[first:] += 1.0
    return hits / len(results)


def compute_map(results: list) -> float:
    """Mean over queries of average precision over all true matches."""
    if not results:
        raise ValueError("compute_map: no results")
    aps = []
    for res in results:
        pos = np.flatnonzero(res.matches)
        if pos.size == 0:
            raise ValueError(f"compute_map: query {res.query_index} has no true match")
        precisions = (np.arange(1, pos.size + 1)) / (pos + 1.0)
        aps.append(precisions.mean())
    return float(np.mean(aps))


def extract_embeddings(model: PyramidModel, images: np.ndarray,
                       mask: BranchMask | None = None, batch_size: int = 64) -> np.ndarray:
    """Eval-mode embeddings (running batch-norm statistics) for a stack of
    images, in input order. A `mask` other than the model's keeps the
    columns of its branches; the model must hold them all."""
    columns = None if mask is None or mask == model.mask else model.embedding_columns(mask)
    chunks = []
    with no_grad():
        for off in range(0, len(images), batch_size):
            emb = model.forward(Tensor(images[off:off + batch_size]), training=False).embedding
            chunks.append(emb.data if columns is None else emb.data[:, columns])
    return np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 0))


def evaluate_model(model: PyramidModel, dataset: ReIDDataset,
                   mask: BranchMask | None = None, max_rank: int = 10) -> dict:
    """mAP and CMC at ranks 1/5/10 over the dataset's query/gallery splits."""
    query = dataset.query_split()
    gallery = dataset.gallery_split()
    if len(query) == 0 or len(gallery) == 0:
        raise ConfigError("evaluate_model: dataset has no query/gallery split")
    q_embs = extract_embeddings(model, dataset.images[query.indices], mask)
    g_embs = extract_embeddings(model, dataset.images[gallery.indices], mask)
    results = rank_gallery(q_embs, query.identities, query.cameras,
                           g_embs, gallery.identities, gallery.cameras)
    cmc = compute_cmc(results, max_rank)
    return {"mAP": compute_map(results),
            "rank1": float(cmc[0]),
            "rank5": float(cmc[4]) if max_rank >= 5 else float("nan"),
            "rank10": float(cmc[9]) if max_rank >= 10 else float("nan")}


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
    keys = ["mAP", "rank1", "rank5", "rank10"]
    head = " | ".join(f"{k:>7}" for k in keys)
    vals = " | ".join(f"{metrics[k]:7.4f}" for k in keys)
    rule = "-+-".join("-" * 7 for _ in keys)
    return f"{head}\n{rule}\n{vals}"
