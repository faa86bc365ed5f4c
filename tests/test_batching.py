import numpy as np
import pytest

from pyreid.batching import Split, batch_hard_mine, pk_batches, pk_groups, random_batches
from pyreid.errors import ConfigError

from helpers import oracle_mine


def make_split(identities, cameras=None):
    identities = np.asarray(identities, dtype=np.int64)
    if cameras is None:
        cameras = np.zeros_like(identities)
    return Split(indices=np.arange(len(identities), dtype=np.int64),
                 identities=identities,
                 cameras=np.asarray(cameras, dtype=np.int64))


def flat_split(num_ids, per_id):
    return make_split(np.repeat(np.arange(num_ids), per_id))


class TestRandomBatches:
    def test_batch_sizes(self):
        batches = random_batches(flat_split(20, 10), 64, seed=0, epoch=0)
        assert [len(b) for b in batches] == [64, 64, 64, 8]

    def test_epoch_is_a_permutation(self):
        split = flat_split(10, 7)
        batches = random_batches(split, 16, seed=3, epoch=2)
        seen = np.concatenate([b.indices for b in batches])
        assert sorted(seen.tolist()) == split.indices.tolist()

    def test_same_seed_same_stream(self):
        split = flat_split(10, 7)
        a = random_batches(split, 16, seed=5, epoch=1)
        b = random_batches(split, 16, seed=5, epoch=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)

    def test_different_epochs_differ(self):
        split = flat_split(10, 7)
        a = random_batches(split, 16, seed=5, epoch=0)
        b = random_batches(split, 16, seed=5, epoch=1)
        assert any(not np.array_equal(x.indices, y.indices) for x, y in zip(a, b))

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            random_batches(make_split([]), 4, seed=0, epoch=0)


class TestPKBatches:
    def test_p_times_k_structure(self):
        batches = pk_batches(flat_split(10, 10), 8, 8, seed=0, epoch=0)
        for batch in batches:
            assert len(batch) == 64
            ids, counts = np.unique(batch.identities, return_counts=True)
            assert len(ids) == 8
            assert (counts == 8).all()

    def test_small_case_structure(self):
        batches = pk_batches(flat_split(4, 4), 2, 2, seed=1, epoch=0)
        for batch in batches:
            assert len(batch) == 4
            ids, counts = np.unique(batch.identities, return_counts=True)
            assert len(ids) == 2 and (counts == 2).all()

    def test_identities_below_k_never_used(self):
        # 9 identities with 8 images, one with only 5
        ids = np.concatenate([np.repeat(np.arange(9), 8), np.repeat(9, 5)])
        split = make_split(ids)
        for epoch in range(100):
            for batch in pk_batches(split, 8, 8, seed=7, epoch=epoch):
                assert 9 not in batch.identities

    def test_too_few_eligible_identities_lists_counts(self):
        split = make_split(np.repeat(np.arange(3), 5))
        with pytest.raises(ValueError) as exc:
            pk_batches(split, 4, 4, seed=0, epoch=0)
        assert "need P=4" in str(exc.value)
        assert "counts" in str(exc.value)

    def test_groups_are_the_drawable_identities(self):
        # the feasibility check that training runs before writing any output
        split = make_split([5, 2, 5, 9, 2, 5, 9, 2, 7])
        groups = pk_groups(split, 3, 2)
        assert list(groups) == [2, 5, 9]
        assert [g.tolist() for g in groups.values()] == [[1, 4, 7], [0, 2, 5], [3, 6]]
        with pytest.raises(ConfigError, match=r"only 2 identities have >= 3 images, need P=3; "
                                              r"per-identity counts: \{2: 3, 5: 3, 7: 1, 9: 2\}"):
            pk_groups(split, 3, 3)

    def test_epoch_length(self):
        # 10 ids x 10 images eligible, P*K=16 -> ceil(100/16) = 7 batches
        assert len(pk_batches(flat_split(10, 10), 4, 4, seed=0, epoch=0)) == 7

    def test_no_replacement_within_identity(self):
        for batch in pk_batches(flat_split(6, 6), 3, 3, seed=4, epoch=0):
            assert len(set(batch.indices.tolist())) == len(batch)

    def test_deterministic_per_seed_epoch(self):
        a = pk_batches(flat_split(8, 8), 4, 4, seed=11, epoch=3)
        b = pk_batches(flat_split(8, 8), 4, 4, seed=11, epoch=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)


class TestBatchHardMine:
    def test_all_distinct_labels_have_no_positives(self, rng):
        d = np.abs(rng.normal(size=(4, 4)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        hp, hn = batch_hard_mine(d, [0, 1, 2, 3])
        assert (hp == -1).all()
        assert (hn >= 0).all()

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 17))
            x = rng.normal(size=(n, 3))
            d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
            labels = rng.integers(0, 4, size=n)
            hp, hn = batch_hard_mine(d, labels)
            assert (hp.tolist(), hn.tolist()) == oracle_mine(d, labels)

    def test_tie_breaks_to_smallest_index(self):
        d = np.array([[0.0, 2.0, 2.0, 5.0],
                      [2.0, 0.0, 1.0, 1.0],
                      [2.0, 1.0, 0.0, 4.0],
                      [5.0, 1.0, 4.0, 0.0]])
        labels = [0, 0, 1, 1]
        hp, hn = batch_hard_mine(d, labels)
        # anchor 0: negatives at distance 2 (idx 2) and 5 (idx 3); unique
        assert (hp[0], hn[0]) == (1, 2)
        # anchor 1: negatives 2 and 3 both at distance 1, pick index 2
        assert (hp[1], hn[1]) == (0, 2)

    def test_positive_tie_breaks_to_smallest_index(self):
        d = np.array([[0.0, 3.0, 3.0, 1.0],
                      [3.0, 0.0, 2.0, 4.0],
                      [3.0, 2.0, 0.0, 4.0],
                      [1.0, 4.0, 4.0, 0.0]])
        # anchor 0: positives 1 and 2 both at distance 3, pick index 1
        hp, hn = batch_hard_mine(d, [0, 0, 0, 1])
        assert hp.tolist() == [1, 0, 0, -1]
        assert hn.tolist() == [3, 3, 3, 0]

    def test_permutation_equivariance(self, rng):
        for _ in range(50):
            n = 10
            x = rng.normal(size=(n, 4))
            d = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
            labels = rng.integers(0, 3, size=n)
            base = batch_hard_mine(d, labels)
            perm = rng.permutation(n)
            permuted = batch_hard_mine(d[np.ix_(perm, perm)], labels[perm])
            for new_i, old_i in enumerate(perm):
                for new, old in zip(permuted, base):
                    # map back; ties may legitimately resolve to a different
                    # member of the tied set, so compare distances, not indices
                    if old[old_i] == -1:
                        assert new[new_i] == -1
                    else:
                        assert d[old_i][perm[new[new_i]]] == pytest.approx(d[old_i][old[old_i]])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            batch_hard_mine(np.zeros((3, 3)), [0, 1])
