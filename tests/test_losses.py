import math

import numpy as np
import pytest

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward
from pyreid.losses import id_loss, triplet_loss

from helpers import oracle_triplet


def logits_for(batch, classes, value=0.0, branches=1):
    return Tensor(np.full((branches, batch, classes), value, dtype=np.float32))


class TestIdLoss:
    def test_uniform_single_branch(self):
        # all-zero logits over 4 identities cost ln 4
        lv = id_loss(logits_for(3, 4), [0, 1, 2])
        assert lv.count == 3
        assert lv.value == pytest.approx(math.log(4), rel=1e-6)

    def test_sums_over_branches(self):
        # Eq-style sum across branches: 21 uniform branches cost 21*ln 4
        lv = id_loss(logits_for(2, 4, branches=21), [1, 3])
        assert lv.value == pytest.approx(21 * math.log(4), rel=1e-6)
        assert lv.value == pytest.approx(29.1121, abs=5e-4)

    def test_direct_evaluation(self):
        # logits [2,1,0] with label 0: loss = ln(1 + e^-1 + e^-2)
        lv = id_loss(Tensor(np.array([[[2.0, 1.0, 0.0]]])), [0])
        expected = math.log(1 + math.exp(-1) + math.exp(-2))
        assert lv.value == pytest.approx(expected, rel=1e-6)
        assert lv.value == pytest.approx(0.4076, abs=1e-4)

    def test_perfect_logit_drives_loss_to_zero(self):
        lv = id_loss(Tensor(np.array([[[50.0, 0.0, 0.0]]])), [0])
        assert lv.value == pytest.approx(0.0, abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            id_loss(logits_for(1, 4), [7])

    def test_empty_branch_list(self):
        with pytest.raises(ValueError, match="no branch logits"):
            id_loss(logits_for(1, 4, branches=0), [0])

    def test_nonnegative_on_random_inputs(self, rng):
        for _ in range(50):
            logits = Tensor(rng.normal(size=(1, 4, 6)).astype(np.float32))
            labels = rng.integers(0, 6, size=4)
            assert id_loss(logits, labels).value >= 0.0

    def test_per_branch_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 5, 7)).astype(np.float64)
        labels = rng.integers(0, 7, size=5)
        base = id_loss(Tensor(logits), labels).value
        shifted = id_loss(Tensor(logits + np.array([13.5, -2.0, 0.25])[:, None, None]),
                          labels).value
        assert shifted == pytest.approx(base, abs=1e-6)

    def test_mean_over_images_of_sum_over_branches(self, rng):
        # the stacked loss equals the per-branch cross-entropies, each summed
        # over the batch, added and divided by the batch size; so does its
        # gradient
        logits = rng.normal(size=(4, 5, 6))
        labels = rng.integers(0, 6, size=5)
        stacked = Tensor(logits.copy(), requires_grad=True)
        lv = id_loss(stacked, labels)
        backward(lv.tensor)
        branches = [Tensor(lg.copy(), requires_grad=True) for lg in logits]
        total = None
        for lg in branches:
            ce = ag.softmax_cross_entropy(lg, labels)
            total = ce if total is None else ag.add(total, ce)
        ref = ag.mul(total, 1.0 / len(labels))
        backward(ref)
        assert lv.value == pytest.approx(ref.item(), rel=1e-12)
        np.testing.assert_allclose(stacked.grad, np.stack([lg.grad for lg in branches]),
                                   rtol=1e-12)

    def test_rejects_unstacked_logits(self):
        with pytest.raises(ValueError, match="branches, batch, identities"):
            id_loss(Tensor(np.zeros((3, 4))), [0, 1, 2])


class TestTripletLoss:
    def test_identical_embeddings_cost_margin(self):
        embs = Tensor(np.ones((6, 4), dtype=np.float32))
        lv = triplet_loss(embs, [0, 0, 1, 1, 2, 2], margin=1.4)
        assert lv.value == pytest.approx(1.4, abs=1e-6)
        assert lv.count == 6

    def test_separated_clusters_cost_zero(self):
        embs = np.vstack([np.zeros((3, 2)), np.full((3, 2), 100.0)]).astype(np.float32)
        lv = triplet_loss(Tensor(embs), [0, 0, 0, 1, 1, 1], margin=1.4)
        # a measured zero: every anchor is valid and its hinge is inactive
        assert lv.value == 0.0
        assert lv.count == 6

    def test_hand_worked_1d_example(self):
        """Embeddings [0, 1, 1.5, 10], labels [A, A, B, B], margin 1.4.

        Exhaustive mining per anchor:
          0   -> pos d=1,   neg d=1.5: hinge(1 - 1.5 + 1.4)   = 0.9
          1   -> pos d=1,   neg d=0.5: hinge(1 - 0.5 + 1.4)   = 1.9
          1.5 -> pos d=8.5, neg d=0.5: hinge(8.5 - 0.5 + 1.4) = 9.4
          10  -> pos d=8.5, neg d=9:   hinge(8.5 - 9 + 1.4)   = 0.9
        mean = 13.1 / 4 = 3.275, cross-checked against the brute-force oracle.
        """
        embs = np.array([[0.0], [1.0], [1.5], [10.0]], dtype=np.float32)
        labels = [0, 0, 1, 1]
        expected, count = oracle_triplet(embs, labels, 1.4)
        assert count == 4
        assert expected == pytest.approx(3.275, abs=1e-9)
        lv = triplet_loss(Tensor(embs), labels, margin=1.4)
        assert lv.value == pytest.approx(expected, rel=1e-5)
        assert lv.count == 4

    def test_matches_oracle_on_random_batches(self, rng):
        for trial in range(100):
            b = int(rng.integers(4, 17))
            embs = rng.normal(size=(b, 6)).astype(np.float64)
            labels = rng.integers(0, 4, size=b)
            expected, count = oracle_triplet(embs, labels, 0.8)
            lv = triplet_loss(Tensor(embs), labels, margin=0.8)
            assert lv.count == count
            if count:
                assert lv.value == pytest.approx(expected, rel=1e-6, abs=1e-9)
            else:
                assert lv.value is None

    @pytest.mark.parametrize("labels", [[0, 1, 2, 3], [5, 5, 5], [0]],
                             ids=["all_distinct", "one_identity", "one_image"])
    def test_batch_without_a_valid_anchor_has_no_loss(self, labels):
        embs = np.random.default_rng(0).normal(size=(len(labels), 3)).astype(np.float32)
        lv = triplet_loss(Tensor(embs), labels, margin=1.0)
        assert lv.tensor is None and lv.count == 0 and lv.value is None

    def test_translation_invariance(self, rng):
        embs = rng.normal(size=(10, 5)).astype(np.float64)
        labels = rng.integers(0, 3, size=10)
        base = triplet_loss(Tensor(embs), labels, margin=1.4).value
        shifted = triplet_loss(Tensor(embs + rng.normal(size=5)), labels,
                               margin=1.4).value
        assert shifted == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("margin", [0.0, float("nan"), float("inf")])
    def test_margin_must_be_finite_and_positive(self, margin):
        with pytest.raises(ValueError, match="margin must be finite and positive"):
            triplet_loss(Tensor(np.ones((4, 2))), [0, 0, 1, 1], margin=margin)

    def test_label_count_mismatch(self):
        # three distinct labels give no valid anchor, yet the batch has four rows
        with pytest.raises(ValueError, match="labels"):
            triplet_loss(Tensor(np.ones((4, 2))), [0, 1, 2], margin=1.0)

    def test_gradient_pulls_positives_together(self):
        rng = np.random.default_rng(3)
        embs = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
        lv = triplet_loss(embs, [0, 0, 1, 1], margin=5.0)
        backward(lv.tensor)
        assert embs.grad is not None
        step = embs.data - 0.05 * embs.grad
        after, _ = oracle_triplet(step, [0, 0, 1, 1], 5.0)
        assert after < lv.value
