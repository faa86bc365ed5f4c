import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pyreid.autograd as ag
import pyreid.evaluation as evaluation
from pyreid.autograd import Tensor, use_dtype
from pyreid.data_synth import GenConfig, generate_dataset
from pyreid.errors import ConfigError
from pyreid.batching import Split
from pyreid.evaluation import (compute_cmc, compute_map, evaluate_model, extract_embeddings,
                               rank_gallery, true_matches)
from pyreid.pyramid import BranchMask, PyramidModel
from pyreid.trainer import TrainConfig, build_model

from helpers import (nhwc, oracle_ap, oracle_cmc, oracle_rank, padded,
                     reference_pyramid_forward)


def rank(queries, qids, qcams, gallery, gids, gcams) -> list:
    """rank_gallery's rows without their junk, as lists, once the (Q, G)
    int64 ranking is checked to hold every gallery index in each row, with
    the query's junk after all the others, in index order."""
    ranking = rank_gallery(queries, qids, qcams, gallery, gids, gcams)
    assert ranking.dtype == np.int64 and ranking.shape == (len(qids), len(gids))
    gids, gcams = np.asarray(gids), np.asarray(gcams)
    rows = []
    for row, qid, qcam in zip(ranking.tolist(), qids, qcams):
        junk = np.flatnonzero((gids == qid) & (gcams == qcam)).tolist()
        kept = len(row) - len(junk)
        assert sorted(row) == list(range(len(row))) and row[kept:] == junk
        rows.append(row[:kept])
    return rows


def rank_on_workers(monkeypatch, *args, workers=(1, 2, 3)):
    """rank_gallery's rankings, as lists, with each number of worker threads;
    they must all be the same, and the first is returned."""
    runs = []
    for count in workers:
        monkeypatch.setattr(ag, "_WORKERS", count)
        runs.append(rank_gallery(*args).tolist())
    assert all(run == runs[0] for run in runs[1:])
    return runs[0]


def match_matrix(order, qids, qcams, gids, gcams) -> np.ndarray:
    """The true matches of a ranking, row by row in rank order."""
    return (gids[order] == qids[:, None]) & (gcams[order] != qcams[:, None])


def split(ids, cams) -> Split:
    return Split(indices=np.arange(len(ids)), identities=np.asarray(ids),
                 cameras=np.asarray(cams))


class TestRankGallery:
    def test_same_camera_same_id_is_junk_last(self):
        g = np.array([[0.0, 0.0], [1.0, 1.0]])
        ranking = rank_gallery(np.zeros((1, 2)), [7], [0], g, np.array([7, 7]),
                               np.array([0, 1]))
        assert ranking.tolist() == [[1, 0]]

    def test_sorted_by_distance(self):
        g = np.array([[5.0], [2.0], [7.0]])
        assert rank(np.zeros((1, 1)), [1], [0], g, np.array([2, 3, 4]),
                    np.array([1, 1, 1])) == [[1, 0, 2]]

    def test_tie_breaks_by_gallery_index(self):
        g = np.array([[3.0], [3.0], [1.0]])
        assert rank(np.zeros((1, 1)), [9], [0], g, np.array([1, 2, 3]),
                    np.array([1, 1, 1])) == [[2, 0, 1]]

    def test_gallery_memory_layout_does_not_matter(self, rng):
        # Fortran order, a column gather (as a sub-mask's embedding is) and a
        # column slice rank like the C-ordered gallery, duplicate rows included
        g = rng.normal(size=(40, 6))
        g[[7, 30]] = g[2]
        q = rng.normal(size=(9, 6))
        ids, cams = rng.integers(0, 5, size=40), np.arange(40) % 2
        wide = np.concatenate([rng.normal(size=(40, 3)), g], axis=1)
        layouts = [g, np.asfortranarray(g), wide[:, [3, 4, 5, 6, 7, 8]], wide[:, 3:]]
        assert not any(layout.flags["C_CONTIGUOUS"] for layout in layouts[1:])
        runs = [rank(q, ids[:9], cams[:9], layout, ids, cams) for layout in layouts]
        assert all(run == runs[0] for run in runs[1:])

    def test_exact_ties_keep_the_stable_order(self, rng, monkeypatch):
        # small-integer rows give exact distances; every row of the gallery
        # has duplicates at scattered indices and equal-distance neighbours,
        # over two blocks of queries shared by 1, 2 and 3 threads
        distinct = rng.integers(-2, 3, size=(12, 4)).astype(np.float64)
        g = distinct[rng.integers(0, 12, size=300)]
        q = rng.integers(-2, 3, size=(200, 4)).astype(np.float64)
        gids, gcams = rng.integers(0, 5, size=300), rng.integers(0, 2, size=300)
        qids, qcams = rng.integers(0, 5, size=200), rng.integers(0, 2, size=200)
        assert len(q) > evaluation._RANK_BLOCK
        ranking = rank_on_workers(monkeypatch, q, qids, qcams, g, gids, gcams)
        # junk at an infinite distance sorts last, in index order
        sq = ((q[:, None, :] - g[None, :, :]) ** 2).sum(axis=2)
        sq[(gids == qids[:, None]) & (gcams == qcams[:, None])] = np.inf
        assert ranking == np.argsort(sq, axis=1, kind="stable").tolist()

    def test_one_row_per_query_in_order(self):
        g = np.array([[0.0], [1.0], [2.0]])
        ranking = rank_gallery(np.array([[2.0], [0.0]]), [1, 1], [0, 0], g,
                               np.array([1, 2, 1]), np.array([1, 1, 0]))
        assert ranking.tolist() == [[1, 0, 2], [0, 1, 2]]

    def test_all_junk_query_row_is_its_junk_in_index_order(self):
        g = np.array([[2.0], [1.0]])
        ranking = rank_gallery(np.zeros((3, 1)), [4, 5, 5], [2, 2, 2], g, np.array([5, 5]),
                               np.array([2, 2]))
        assert ranking.tolist() == [[1, 0], [0, 1], [0, 1]]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_all_junk_rows_in_three_blocks(self, rng, monkeypatch, workers):
        # queries 300 and 140 (third and second block) find only junk
        monkeypatch.setattr(ag, "_WORKERS", workers)
        g, q = rng.normal(size=(50, 3)), rng.normal(size=(320, 3))
        qids = np.arange(320) % 7 + 1
        qids[[300, 140]] = 0
        ranking = rank_gallery(q, qids, np.zeros(320, dtype=int), g,
                               np.zeros(50, dtype=int), np.zeros(50, dtype=int))
        sq = ((q[:, None, :] - g[None, :, :]) ** 2).sum(axis=2)
        want = np.argsort(sq, axis=1, kind="stable")
        want[[300, 140]] = np.arange(50)
        assert ranking.tolist() == want.tolist()

    def test_no_queries(self):
        ranking = rank_gallery(np.zeros((0, 3)), [], [], np.ones((4, 3)), np.arange(4),
                               np.zeros(4, dtype=int))
        assert ranking.dtype == np.int64 and ranking.shape == (0, 4)

    def test_one_gallery_image(self):
        assert rank_gallery(np.zeros((3, 2)), [1, 2, 3], [0, 0, 0], np.ones((1, 2)),
                            np.array([2]), np.array([1])).tolist() == [[0], [0], [0]]
        assert rank(np.zeros((2, 2)), [1, 2], [1, 1], np.ones((1, 2)), np.array([2]),
                    np.array([1])) == [[0], []]

    def test_distances_one_ulp_apart_rank_exactly(self):
        # |x| and the next double share every key bit above the index bits;
        # the larger one comes first in gallery order, so index order is wrong
        a = 1.5
        b = np.nextafter(a, 2.0)
        g = np.array([[9.0], [b], [4.0], [a], [b], [7.0], [a], [0.5]])
        assert rank(np.zeros((1, 1)), [0], [0], g, np.arange(1, 9),
                    np.zeros(8)) == [[7, 3, 6, 1, 4, 2, 5, 0]]

    @pytest.mark.parametrize("side, row", [("query", 2), ("gallery row", 1)])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan,
                                       np.array(0x7FF8000000000100).view(np.float64)],
                             ids=["inf", "-inf", "nan", "nan_payload"])
    def test_non_finite_row_refused(self, side, row, value):
        # every query or gallery row must be finite, whatever its NaN payload
        q, g = np.ones((3, 2)), np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        (q if side == "query" else g)[row, 1] = value
        with pytest.raises(ValueError, match=f"{side} {row} is not finite"):
            rank_gallery(q, [0, 0, 0], [0, 0, 0], g, np.arange(1, 4), np.zeros(3))

    def test_entry_too_large_to_square_refused(self):
        # 2**509 / sqrt(D) keeps every squared distance finite
        g = np.array([[1.0, 0.0], [2.0 ** 509, 0.0]])
        with pytest.raises(ValueError, match="gallery row 1 has an entry beyond"):
            rank_gallery(np.ones((1, 2)), [0], [0], g, np.arange(1, 3), np.zeros(2))
        g[1, 0] = 2.0 ** 508
        assert rank(np.ones((1, 2)), [0], [0], g, np.arange(1, 3), np.zeros(2)) == [[0, 1]]

    def test_caller_errstate_holds_in_every_block_on_every_worker_count(self, rng,
                                                                        monkeypatch):
        # each query's 1e-200 entry times the gallery's 1e-120 underflows in
        # its block's matmul, which np.errstate(under="warn") set by the
        # caller reports once per block, on whichever thread runs it
        g = rng.normal(size=(40, 3))
        g[:, 0] = 1e-120
        q = rng.normal(size=(300, 3))
        q[:, 0] = 1e-200
        blocks = -(-len(q) // evaluation._RANK_BLOCK)
        assert blocks > 2
        want = oracle_rank(q, np.zeros(300), np.zeros(300), g, np.ones(40), np.zeros(40))
        for workers in (1, 2, 3):
            monkeypatch.setattr(ag, "_WORKERS", workers)
            with warnings.catch_warnings(record=True) as caught, np.errstate(under="warn"):
                warnings.simplefilter("always")
                ranking = rank_gallery(q, np.zeros(300), np.zeros(300), g, np.ones(40),
                                       np.zeros(40))
            assert sum("underflow" in str(w.message) for w in caught) == blocks
            assert ranking.tolist() == want  # no junk

    def test_wide_embeddings(self, rng):
        # 5,000 columns, and rows that differ in one column only
        g = rng.integers(-1, 2, size=(30, 5000)).astype(np.float64)
        g[10] = g[3]
        g[20] = g[3]
        g[20, 4999] += 1.0
        q = rng.integers(-1, 2, size=(4, 5000)).astype(np.float64)
        sq = ((q[:, None, :] - g[None, :, :]) ** 2).sum(axis=2)
        assert rank(q, np.zeros(4), np.zeros(4), g, np.ones(30), np.zeros(30)) == \
            np.argsort(sq, axis=1, kind="stable").tolist()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dims differ"):
            rank_gallery(np.zeros((1, 3)), [0], [0], np.zeros((2, 4)), np.array([1, 2]),
                         np.array([0, 0]))

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(1000):
            n = int(rng.integers(3, 20))
            gallery = rng.normal(size=(n, 4))
            gids = rng.integers(0, 5, size=n)
            gcams = rng.integers(0, 3, size=n)
            queries = rng.normal(size=(int(rng.integers(1, 5)), 4))
            qids = rng.integers(0, 5, size=len(queries))
            qcams = rng.integers(0, 3, size=len(queries))
            assert rank(queries, qids, qcams, gallery, gids, gcams) == \
                oracle_rank(queries, qids, qcams, gallery, gids, gcams)


class TestTrueMatches:
    def test_same_identity_from_another_camera(self):
        # gallery: identity 1 in cameras 0 and 1, identity 2 in camera 1
        relation = true_matches(split([1, 2, 1], [0, 0, 1]), split([1, 1, 2], [0, 1, 1]))
        assert relation.tolist() == [[False, True, False], [False, False, True],
                                     [True, False, False]]

    @pytest.mark.parametrize("query, gallery", [(0, 4), (3, 0), (0, 0)])
    def test_empty_split_refused(self, query, gallery):
        with pytest.raises(ConfigError, match="dataset has no query/gallery split"):
            true_matches(split(np.arange(query), np.zeros(query)),
                         split(np.arange(gallery), np.ones(gallery)))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=30),
           st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=30))
    def test_names_the_lowest_query_without_a_true_match(self, queries, gallery):
        # an identity the gallery lacks, or holds only in the query's camera
        matchless = [i for i, (qid, qcam) in enumerate(queries)
                     if not any(gid == qid and gcam != qcam for gid, gcam in gallery)]
        q, g = split(*zip(*queries)), split(*zip(*gallery))
        if matchless:
            qid, qcam = queries[matchless[0]]
            with pytest.raises(ConfigError, match=f"query {matchless[0]} \\(identity {qid}, "
                                                  f"camera {qcam}\\) has no true match"):
                true_matches(q, g)
        else:
            assert true_matches(q, g).any(axis=1).all()


def relu_rows(rng, offset: np.ndarray, count: int, spread: float = 0.1) -> np.ndarray:
    """ReLU-like float32 rows: a shared offset plus noise, clipped at zero,
    so that q.g is large next to the squared distance."""
    rows = np.maximum(offset + spread * rng.normal(size=(count, len(offset))), 0.0)
    return rows.astype(np.float32).astype(np.float64)


def near_tie_gallery(rng, offset: np.ndarray, pairs: int) -> np.ndarray:
    """ReLU-like rows, each with a partner whose largest entry is moved to
    the next double, shuffled to scattered indices. A query's squared
    distances to a row and its partner differ by about one unit in the
    last place, far below the rounding of the Gram form."""
    rows = relu_rows(rng, offset, pairs)
    partners = rows.copy()
    col = partners.argmax(axis=1)
    partners[np.arange(pairs), col] = np.nextafter(partners[np.arange(pairs), col], np.inf)
    return rng.permutation(np.concatenate([rows, partners]))


class TestExactOrder:
    """Adversarial galleries, where the Gram form's rounding cannot order the
    distances: every ranking is the exact oracle's, and each query's is the
    same whatever queries, block size and thread count it is ranked with."""

    def check(self, queries, gallery, rng):
        ids, cams = rng.integers(0, 3, size=len(gallery)), rng.integers(0, 2, size=len(gallery))
        qids, qcams = rng.integers(0, 3, size=len(queries)), rng.integers(0, 2, size=len(queries))
        want = oracle_rank(queries, qids, qcams, gallery, ids, cams)
        for block in (1, 5, evaluation._RANK_BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "_RANK_BLOCK", block)
                assert rank(queries, qids, qcams, gallery, ids, cams) == want

    def test_next_double_ties(self, rng):
        offset = rng.normal(size=64)
        gallery = near_tie_gallery(rng, offset, 40)
        # queries equal to a gallery row sit at distance 0 and one ulp of it
        queries = np.concatenate([relu_rows(rng, offset, 12), gallery[:4]])
        self.check(queries, gallery, rng)

    def test_duplicates_at_scattered_indices(self, rng):
        gallery = relu_rows(rng, rng.normal(size=48), 90)
        gallery[rng.integers(0, 90, size=40)] = gallery[rng.integers(0, 90, size=40)]
        self.check(np.concatenate([gallery[:6], relu_rows(rng, gallery[0], 6)]), gallery, rng)

    def test_tied_rows_are_converted_once(self, monkeypatch):
        # an all-tied gallery is one exact run per query, and its 200 equal
        # rows one distinct row: each query converts its own 8 entries and
        # the row's 8 to exact integers, not all 200 rows'
        converted = []
        frompyfunc = np.frompyfunc

        def counting(fn, nin, nout):
            def counted(x):
                converted.append(x)
                return fn(x)
            return frompyfunc(counted, nin, nout)

        monkeypatch.setattr(np, "frompyfunc", counting)
        queries = np.arange(24.0).reshape(3, 8)
        ranking = rank_gallery(queries, [0, 1, 2], [0, 0, 0], np.zeros((200, 8)),
                               np.arange(200) % 3, np.ones(200))
        assert ranking.tolist() == [list(range(200))] * 3  # no junk
        assert len(converted) == 3 * 2 * 8

    def test_signed_zeros(self, rng):
        # the copies differ from their rows only in the sign bits of zeros
        rows = np.maximum(rng.normal(size=(30, 16)), 0.0)
        copies = np.where(rows[:15] == 0.0, -0.0, rows[:15])
        queries = np.where(rng.uniform(size=(8, 16)) < 0.3, -0.0, rows[:8])
        self.check(queries, rng.permutation(np.concatenate([rows, copies])), rng)

    def test_large_offset_with_last_bit_differences(self, rng):
        # squared distances of 1e-19 to 1e-10 beside squared norms near 3e13,
        # of which the Gram form keeps no bit
        base = 1e6 + rng.normal(size=(20, 32)) * 1e-6
        partners = np.nextafter(base, np.inf)
        gallery = rng.permutation(np.concatenate([base, partners, base[:5]]))
        self.check(np.concatenate([base[:4], np.nextafter(base[4:8], -np.inf)]), gallery, rng)

    def test_integer_distances_beyond_53_bits(self):
        # with N = 2 k**2, row 0 is at squared distance N**2 + 1 from the
        # origin and row 1 at N**2: 59-bit integers that float64 rounds alike
        k = 2 ** 14
        n = 2 * k * k
        gallery = np.array([[n - 1.0, 2.0 * k], [float(n), 0.0]])
        assert (n - 1) ** 2 + (2 * k) ** 2 == n ** 2 + 1
        assert rank(np.zeros((1, 2)), [0], [0], gallery, np.ones(2), np.zeros(2)) == [[1, 0]]

    def test_values_whose_squares_underflow(self, rng):
        # scaled by 2**-540, squared distances are subnormal or zero in
        # float64, but the exact order is the one of the unscaled rows
        offset = rng.normal(size=16)
        gallery = near_tie_gallery(rng, offset, 10)
        queries = relu_rows(rng, offset, 6)
        self.check(np.ldexp(queries, -540), np.ldexp(gallery, -540), rng)

    def test_each_query_ranks_as_if_alone(self, rng, monkeypatch):
        # rows of a 140-query call equal one-query calls, for every block
        # size and worker count; Gram rounding differs between the two
        offset = rng.normal(size=64)
        gallery = near_tie_gallery(rng, offset, 20)
        queries = relu_rows(rng, offset, 140)
        ids, cams = np.zeros(140), np.zeros(140)
        args = (gallery, np.ones(40), np.zeros(40))
        alone = [rank_gallery(queries[i:i + 1], ids[:1], cams[:1], *args)[0].tolist()
                 for i in range(140)]
        for block in (1, 5, 64, 128):
            monkeypatch.setattr(evaluation, "_RANK_BLOCK", block)
            for workers in (1, 2, 3):
                monkeypatch.setattr(ag, "_WORKERS", workers)
                together = rank_gallery(queries, ids, cams, *args).tolist()
                assert together == alone, (block, workers)


@st.composite
def retrieval_cases(draw):
    """A random gallery with duplicated rows at scattered indices, queries
    of which some equal a gallery row, and identity/camera labels. Rows
    either take small integer values, which tie the distances of distinct
    rows exactly, or are ReLU-like: a shared offset plus noise, clipped at
    zero, so that q.g is large next to the squared distance and the last
    bits of the products matter. Zeros get random signs, so duplicates may
    differ in the sign bit of a zero only. Sizes run past BLAS kernel
    tiles."""
    n = draw(st.integers(1, 300))
    dim = draw(st.integers(1, 340))
    nq = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        rows = rng.integers(-2, 3, size=(n + nq, dim)).astype(np.float64)
    else:
        spread = draw(st.sampled_from([1.0, 0.1, 0.01]))
        rows = np.maximum(rng.normal(size=dim) + spread * rng.normal(size=(n + nq, dim)), 0)
        rows = rows.astype(np.float32).astype(np.float64)
    gallery, queries = rows[:n], rows[n:]
    copies = draw(st.integers(0, n))
    gallery[rng.integers(0, n, size=copies)] = gallery[rng.integers(0, n, size=copies)]
    zeros = rows == 0
    rows[zeros] *= rng.choice([-1.0, 1.0], size=int(zeros.sum()))
    equal = rng.uniform(size=nq) < draw(st.floats(0.0, 1.0))
    queries[equal] = gallery[rng.integers(0, n, size=int(equal.sum()))]
    ids, cams = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    return (queries, rng.integers(0, ids, size=nq), rng.integers(0, cams, size=nq),
            gallery, rng.integers(0, ids, size=n), rng.integers(0, cams, size=n))


class TestRankGalleryAgainstOracle:
    """The batched ranking orders every query's gallery as the per-query
    brute-force oracle does, ties included, with the query's junk last."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(retrieval_cases())
    def test_orders_match_oracle(self, case):
        # with the shipped block and with blocks of 5 queries, which the
        # worker threads share when there are 1, 2 or 3 of them
        want = oracle_rank(*case)
        for block, workers in [(evaluation._RANK_BLOCK, 1), (5, 1), (5, 2), (5, 3)]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluation, "_RANK_BLOCK", block)
                mp.setattr(ag, "_WORKERS", workers)
                assert rank(*case) == want

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(retrieval_cases(), st.data())
    def test_all_junk_queries(self, case, data):
        queries, _, _, gallery, gids, _ = case
        # the whole gallery is identity 0 in camera 0: the chosen queries,
        # identity 0 in camera 0 too, find only junk, and the others, in
        # camera 1, find only true matches
        junk = data.draw(st.lists(st.integers(0, len(queries) - 1), min_size=1))
        qcams = np.where(np.isin(np.arange(len(queries)), junk), 0, 1)
        qids, gids, gcams = np.zeros(len(queries)), np.zeros_like(gids), np.zeros_like(gids)
        ranking = rank_gallery(queries, qids, qcams, gallery, gids, gcams)
        want = oracle_rank(queries, qids, qcams, gallery, gids, gcams)
        for i, row in enumerate(ranking.tolist()):
            assert row == (list(range(len(gallery))) if i in junk else want[i])
        with pytest.raises(ConfigError, match=f"query {min(junk)} "):
            true_matches(split(qids, qcams), split(gids, gcams))


class TestCmc:
    def test_all_rank_one(self):
        cmc = compute_cmc(padded([[1, 0, 0], [1, 0]]), max_rank=3)
        np.testing.assert_allclose(cmc, [1.0, 1.0, 1.0])

    def test_two_queries_ranks_one_and_three(self):
        cmc = compute_cmc(padded([[1, 0, 0], [0, 0, 1]]), max_rank=3)
        np.testing.assert_allclose(cmc, [0.5, 0.5, 1.0])

    def test_saturates_at_gallery_size(self):
        cmc = compute_cmc(padded([[0, 1], [0, 1]]), max_rank=10)
        assert cmc[-1] == 1.0

    def test_monotone_nondecreasing_and_bounded(self, rng):
        matches = rng.uniform(size=(40, 8)) < 0.3
        matches[np.arange(40), rng.integers(0, 8, size=40)] = True
        cmc = compute_cmc(matches, max_rank=8)
        assert (np.diff(cmc) >= 0).all()
        assert cmc.min() >= 0.0 and cmc.max() <= 1.0


class TestMap:
    def test_textbook_ap(self):
        # matches at ranks 1 and 3: AP = (1/1 + 2/3) / 2
        assert compute_map(padded([[1, 0, 1]])) == pytest.approx(5.0 / 6.0, rel=1e-12)
        assert compute_map(padded([[1, 0, 1]])) == pytest.approx(0.8333, abs=1e-4)

    def test_perfect_ranking(self):
        assert compute_map(padded([[1, 1, 0, 0]])) == 1.0

    def test_matches_oracle_on_random_result_sets(self, rng):
        for _ in range(500):
            rows = []
            for _ in range(int(rng.integers(1, 6))):
                matches = rng.uniform(size=int(rng.integers(2, 12))) < 0.4
                if not matches.any():
                    matches[0] = True
                rows.append(matches.tolist())
            expected = float(np.mean([oracle_ap(row) for row in rows]))
            assert compute_map(padded(rows)) == pytest.approx(expected, abs=1e-12)

    def test_cmc_matches_oracle_too(self, rng):
        for _ in range(500):
            matches = rng.uniform(size=(int(rng.integers(1, 6)), 10)) < 0.3
            matches[~matches.any(axis=1), rng.integers(0, 10)] = True
            expected = oracle_cmc(matches.tolist(), 10)
            np.testing.assert_allclose(compute_cmc(matches, 10), expected, atol=1e-12)

    def test_bits_equal_the_per_row_reference(self, rng):
        # rows hold 1 to G matches; each row's AP is its own mean, and the
        # CMC is first-hit counts over Q, to the last bit
        for _ in range(300):
            q, g = int(rng.integers(1, 30)), int(rng.integers(1, 40))
            matches = rng.uniform(size=(q, g)) < rng.uniform(0.05, 0.9, size=(q, 1))
            matches[np.arange(q), rng.integers(0, g, size=q)] = True
            aps = [(np.arange(1, len(pos) + 1) / (pos + 1.0)).mean()
                   for pos in (np.flatnonzero(row) for row in matches)]
            assert compute_map(matches) == float(np.mean(aps))
            first = [row.index(True) for row in matches.tolist()]
            hits = [sum(f <= r for f in first) for r in range(10)]
            assert compute_cmc(matches, 10).tolist() == [h / q for h in hits]


@pytest.fixture(scope="module")
def setup():
    ds = generate_dataset(GenConfig(num_ids=12, imgs_per_id=8, seed=8))
    model = build_model(TrainConfig(seed=1), ds.image_hw, 6)
    return ds, model


class TestModelEvaluation:

    def test_deterministic(self, setup):
        ds, model = setup
        a = evaluate_model(model, ds)
        b = evaluate_model(model, ds)
        assert a == b

    @pytest.mark.parametrize("mask", ["111111", "000001"])
    def test_equals_brute_force_reference(self, setup, mask):
        """mAP and CMC@1/5/10 equal per-query brute-force ranking, AP and CMC."""
        ds, model = setup
        branch_mask = BranchMask.from_string(mask)
        q = ds.query_split()
        g = ds.gallery_split()
        qe, ge = (extract_embeddings(model, ds.images[split.indices], branch_mask)
                  for split in (q, g))
        all_matches = [[g.identities[j] == qid for j in order] for order, qid in
                       zip(oracle_rank(qe, q.identities, q.cameras, ge, g.identities,
                                       g.cameras), q.identities)]
        cmc = oracle_cmc(all_matches, 10)
        m = evaluate_model(model, ds, mask=branch_mask)
        assert m["mAP"] == pytest.approx(np.mean([oracle_ap(x) for x in all_matches]),
                                         abs=1e-12)
        for rank in (1, 5, 10):
            assert m[f"rank{rank}"] == pytest.approx(cmc[rank - 1], abs=1e-12)

    def test_matchless_query_refused_before_extraction(self, setup, monkeypatch):
        ds, model = setup
        ds = dataclasses.replace(ds, identities=ds.identities.copy())
        ds.identities[ds.query_split().indices[0]] = 999

        def extract(*args, **kwargs):
            raise AssertionError("extracted embeddings for data that cannot be scored")

        monkeypatch.setattr(evaluation, "extract_embeddings", extract)
        with pytest.raises(ConfigError, match=r"query 0 \(identity 999, camera \d+\) has no "
                                              r"true match in the gallery"):
            evaluate_model(model, ds)

    def test_metric_keys(self, setup):
        ds, model = setup
        m = evaluate_model(model, ds)
        assert set(m) == {"mAP", "rank1", "rank5", "rank10"}
        assert 0.0 <= m["mAP"] <= 1.0

    def test_global_only_mask_gives_single_branch_embedding(self, setup):
        ds, model = setup
        embs = extract_embeddings(model, ds.images[:4],
                                  mask=BranchMask.from_string("000001"))
        assert embs.shape == (4, model.feature_dim)

    def test_scaling_invariance_of_metrics(self, setup):
        """Positive uniform scaling preserves every ranking, hence metrics."""
        ds, model = setup
        q = ds.query_split()
        g = ds.gallery_split()
        qe = extract_embeddings(model, ds.images[q.indices])
        ge = extract_embeddings(model, ds.images[g.indices])

        def metrics(scale):
            order = rank_gallery(qe * scale, q.identities, q.cameras, ge * scale,
                                 g.identities, g.cameras)
            matches = match_matrix(order, q.identities, q.cameras, g.identities, g.cameras)
            return compute_map(matches), compute_cmc(matches, 5).tolist()

        base = metrics(1.0)
        assert metrics(3.7) == base
        assert metrics(0.02) == base

    def test_gallery_permutation_invariance(self, setup):
        """Metric values survive any relabeling of gallery order when the
        distances are distinct."""
        ds, model = setup
        rng = np.random.default_rng(0)
        q = ds.query_split()
        g = ds.gallery_split()
        qe = extract_embeddings(model, ds.images[q.indices])
        ge = extract_embeddings(model, ds.images[g.indices])
        perm = rng.permutation(len(g))

        def metrics(ge, gids, gcams):
            order = rank_gallery(qe, q.identities, q.cameras, ge, gids, gcams)
            matches = match_matrix(order, q.identities, q.cameras, gids, gcams)
            return compute_map(matches), compute_cmc(matches, 5).tolist()

        assert metrics(ge[perm], g.identities[perm], g.cameras[perm]) == \
            metrics(ge, g.identities, g.cameras)

    def test_untrained_model_statistically_at_chance(self, setup):
        """Random-init embeddings should retrieve no better than shuffled
        labels (within 3 sigma over 20 shuffles)."""
        ds, model = setup
        rng = np.random.default_rng(42)
        q = ds.query_split()
        g = ds.gallery_split()
        qe = extract_embeddings(model, ds.images[q.indices])
        ge = extract_embeddings(model, ds.images[g.indices])

        def run_map(gids, gcams):
            order = rank_gallery(qe, q.identities, q.cameras, ge, gids, gcams)
            return compute_map(match_matrix(order, q.identities, q.cameras, gids, gcams))

        actual = run_map(g.identities, g.cameras)
        # a shuffle moves (identity, camera) pairs together, so every query
        # keeps its true matches
        shuffled = [run_map(g.identities[perm], g.cameras[perm])
                    for perm in (rng.permutation(len(g)) for _ in range(20))]
        mean, sd = float(np.mean(shuffled)), float(np.std(shuffled))
        assert abs(actual - mean) <= 3.0 * max(sd, 1e-6)


class TestSubMaskEmbedding:
    """A model's embedding for a sub-mask of its own is that mask's columns
    of its full embedding."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mask", ["000001", "110011", "011100"])
    def test_columns_of_the_full_embedding(self, mask, dtype):
        with use_dtype(dtype):
            rng = np.random.default_rng(31)
            model = build_model(TrainConfig(seed=3), (48, 16), 6)
            images = nhwc(rng.uniform(0, 1, size=(5, 3, 48, 16)).astype(dtype))
            model.forward(Tensor(images), training=True)  # move the running statistics
            sub = BranchMask.from_string(mask)
            full = extract_embeddings(model, images)
            part = extract_embeddings(model, images, sub)
            kept = [i for i, (_, level) in enumerate(model.windows)
                    if sub.level_enabled(level)]
            np.testing.assert_array_equal(part,
                                          full.reshape(5, 21, -1)[:, kept].reshape(5, -1))
            ref, _, _ = reference_pyramid_forward(model, Tensor(images), np.arange(5),
                                                  training=False, mask=sub)
        tol = {"rtol": 1e-10} if dtype == np.float64 else {"rtol": 1e-4, "atol": 1e-5}
        np.testing.assert_allclose(part, ref.data, **tol)

    def test_mask_with_a_level_the_model_lacks_is_refused_before_any_work(self, monkeypatch):
        model = build_model(TrainConfig(seed=3, pyramid_mask="101001"), (48, 16), 6)

        def forward(*args, **kwargs):
            raise AssertionError("ran the model for a mask it cannot serve")

        monkeypatch.setattr(PyramidModel, "forward", forward)
        with pytest.raises(ConfigError, match="mask 111111 .* mask 101001"):
            extract_embeddings(model, np.zeros((2, 48, 16, 3), dtype=np.float32),
                               BranchMask.from_string("111111"))


class TestExtraction:
    """`extract_embeddings` runs a whole stack as one eval `forward` call,
    whose tiles bound its memory."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_model(TrainConfig(seed=3), (48, 16), 6)

    @pytest.fixture(scope="class")
    def images(self):
        return np.random.default_rng(4).uniform(0, 1, size=(2400, 48, 16, 3)).astype(np.float32)

    @pytest.mark.parametrize("mask", [None, "000001"])
    def test_one_forward_call_per_stack(self, model, images, monkeypatch, mask):
        calls, forward = [], PyramidModel.forward

        def spy(self, x, training):
            calls.append(len(x.data))
            return forward(self, x, training)

        monkeypatch.setattr(PyramidModel, "forward", spy)
        mask = mask and BranchMask.from_string(mask)
        for batch in (1, 257, 600):
            calls.clear()
            extract_embeddings(model, images[:batch], mask)
            assert calls == [batch]

    @pytest.mark.parametrize("mask, columns", [(None, 21 * 16), ("000001", 16),
                                               ("110011", 14 * 16)])
    def test_empty_stack(self, model, images, mask, columns):
        embs = extract_embeddings(model, images[:0], mask and BranchMask.from_string(mask))
        assert embs.shape == (0, columns)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_peak_memory_is_below_an_untiled_first_block(self, model, images, monkeypatch,
                                                         workers):
        """An untiled forward would hold the first block's (2400, 24, 8, 16)
        float32 output; the tiles in flight, one per worker, hold far less."""
        monkeypatch.setattr(ag, "_WORKERS", workers)
        extract_embeddings(model, images[:300])  # starts the helper threads
        tracemalloc.start()
        try:
            embs = extract_embeddings(model, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert embs.shape == (2400, 21 * 16)
        assert peak < 2400 * 24 * 8 * 16 * 4, peak
