import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward, use_dtype
from pyreid.backbone import STAGES, Backbone
from pyreid.errors import ConfigError
from pyreid.losses import id_loss
from pyreid.pyramid import BranchMask, PyramidModel

from helpers import (PassthroughBackbone, finite_difference_check, global_avg_pool,
                     global_max_pool, nhwc, reduce_sum, reference_pyramid_forward, slice_rows)


def make_model(n=6, feature_dim=16, num_ids=10, stages=STAGES,
               image_hw=(48, 16), seed=0, mask=None):
    rng = np.random.default_rng(seed)
    backbone = Backbone(stages, rng)
    return PyramidModel(backbone, BranchMask.from_string(mask or "1" * n), feature_dim,
                        num_ids, image_hw, rng)


def windows(mask):
    return BranchMask.from_string(mask).windows()


class TestEnumeration:
    """The (first part, part count) windows a mask enables."""

    def test_21_branches_for_six_parts(self):
        ws = windows("111111")
        assert len(ws) == 21
        counts = [sum(1 for _, l in ws if l == level) for level in range(1, 7)]
        assert counts == [6, 5, 4, 3, 2, 1]

    def test_level_major_order(self):
        assert windows("111") == [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)]

    def test_row_range_formula(self, rng):
        # level 2, position 3 follows level 1's six windows; on a 24-row map
        # cut in 6, Eq. 1 gives its rows st = (k-1)*H/n + 1 = 9 to
        # ed = (k-1)*H/n + l*H/n = 16
        window = windows("111111")[6 + 2]
        assert window == (2, 2)
        fmap = Tensor(nhwc(rng.normal(size=(2, 3, 24, 2))))
        rows = fmap.data[:, 8:16]
        np.testing.assert_allclose(ag.stripe_pool(fmap, 6, [window]).data[0],
                                   rows.max(axis=(1, 2)) + rows.mean(axis=(1, 2)))

    def test_degenerate_single_part(self):
        assert windows("1") == [(0, 1)]

    def test_top_level_covers_everything(self):
        for n in (1, 5, 6):
            assert windows("1" * n)[-1] == (0, n)
            assert windows("0" * (n - 1) + "1") == [(0, n)]

    def test_indivisible_height_error_names_values(self):
        with pytest.raises(ConfigError) as exc:
            identity_model(n=6, height=20)
        assert "20" in str(exc.value) and "6" in str(exc.value)

    @given(mask=st.text("01", min_size=1, max_size=12).filter(lambda m: "1" in m))
    @settings(max_examples=60, deadline=None)
    def test_branch_count_identity(self, mask):
        n, ws = len(mask), windows(mask)
        assert len(ws) == sum(n - l + 1 for l in range(1, n + 1) if mask[l - 1] == "1")
        assert BranchMask.from_string(mask).branches() == len(ws)
        if "0" not in mask:
            assert len(ws) == n * (n + 1) // 2
        # the enabled levels' windows of the full pyramid, in its order
        assert ws == [w for w in windows("1" * n) if mask[w[1] - 1] == "1"]

    def test_level_one_slabs_tile_the_map(self):
        assert [w for w in windows("1111") if w[1] == 1] == [(0, 1), (1, 1), (2, 1), (3, 1)]

    def test_nesting_level_l_is_union_of_level_ones(self):
        # a level-l window is l consecutive parts of the n
        for first, level in windows("11111"):
            assert 0 <= first and first + level <= 5


def identity_model(n=3, channels=8, height=6, width=4, feature_dim=4, num_ids=5,
                   seed=0, mask=None):
    """Pyramid heads alone, fed the feature map as the images."""
    return PyramidModel(PassthroughBackbone(channels), BranchMask.from_string(mask or "1" * n),
                        feature_dim, num_ids, (height, width), np.random.default_rng(seed))


class TestSlicing:
    """The rows each branch pools: windows of the stripe pool against slices of
    the map."""

    def test_slice_matches_eq1_substitution(self, rng):
        fmap = Tensor(nhwc(rng.normal(size=(2, 64, 12, 4)).astype(np.float32)))
        # level 3, position 2
        pooled = ag.stripe_pool(fmap, 6, [(1, 3)])
        assert pooled.data.shape == (1, 2, 64)
        rows = fmap.data[:, 2:8]
        np.testing.assert_allclose(pooled.data[0], rows.max(axis=(1, 2)) + rows.mean(axis=(1, 2)),
                                   rtol=1e-6)

    def test_top_level_slice_is_whole_map(self, rng):
        fmap = Tensor(nhwc(rng.normal(size=(8, 6, 3, 3)).astype(np.float32)))
        pooled = ag.stripe_pool(fmap, 3, [(0, 3)])
        np.testing.assert_allclose(pooled.data[0], global_max_pool(fmap).data
                                   + global_avg_pool(fmap).data, rtol=1e-6)

    def test_batched_slice(self, rng):
        fmap = Tensor(nhwc(rng.normal(size=(2, 8, 6, 3)).astype(np.float32)))
        windows = [(s, l) for l in (1, 2, 3) for s in range(4 - l)]
        pooled = ag.stripe_pool(fmap, 3, windows)
        assert pooled.data.shape == (6, 2, 8)
        for b, (s, l) in enumerate(windows):
            sub = slice_rows(fmap, 2 * s, 2 * (s + l))
            np.testing.assert_allclose(pooled.data[b], global_max_pool(sub).data
                                       + global_avg_pool(sub).data, rtol=1e-6)

    @pytest.mark.parametrize("parts, windows, match", [
        (4, [(0, 1)], "does not split"),
        (3, [], "runs of 3"),
        (3, [(2, 2)], "runs of 3"),
        (3, [(0, 0)], "runs of 3"),
    ])
    def test_bad_arguments_rejected(self, parts, windows, match):
        with pytest.raises(ValueError, match=match):
            ag.stripe_pool(Tensor(np.ones((1, 6, 2, 2))), parts, windows)

    def test_tied_maxima_route_the_gradient_like_a_window_max(self):
        # stripe maxima tie across and within stripes, and post-ReLU zeros tie
        # everywhere: each window's max gradient must land on the element a
        # max pool over the window's rows picks, its first in row-major
        # (h, w) order (built channels-first, (N, C, H, W), and pooled
        # channels-last)
        x = np.zeros((2, 3, 6, 2))
        x[0, 0, [0, 3, 5], [1, 0, 1]] = 1.0
        x[0, 1, 2:4, :] = 0.5
        x[1, 2] = np.tile([[0.25, 0.75]], (6, 1))
        windows = [(s, l) for l in (1, 2, 3) for s in range(4 - l)]
        weights = np.random.default_rng(3).normal(size=(len(windows), 2, 3))
        t = Tensor(nhwc(x), requires_grad=True)
        backward(reduce_sum(ag.mul(ag.stripe_pool(t, 3, windows), Tensor(weights))))
        ref = Tensor(nhwc(x), requires_grad=True)
        for (s, l), w in zip(windows, weights):
            sub = slice_rows(ref, 2 * s, 2 * (s + l))
            pooled = ag.add(global_max_pool(sub), global_avg_pool(sub))
            backward(reduce_sum(ag.mul(pooled, Tensor(w))))
        np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-12, atol=1e-15)

    def test_max_gradient_lands_past_256_elements_into_a_stripe(self):
        # stripes of 3 x 100 = 300 elements: the first maximum sits beyond
        # the range of a byte-sized index, tied within and across stripes
        # (built channels-first, (N, C, H, W), and pooled channels-last)
        x = np.zeros((1, 2, 6, 100))
        x[0, 0, 2, [60, 90]] = 1.0    # stripe 0, elements 260 and 290
        x[0, 0, 5, 99] = 0.5          # stripe 1, its last element
        x[0, 1, 2, 80] = 2.0          # stripe 0, element 280
        x[0, 1, 4, 10] = 2.0          # stripe 1, element 110, ties stripe 0
        windows = [(0, 1), (1, 1), (0, 2)]
        weights = np.random.default_rng(5).normal(size=(len(windows), 1, 2))
        t = Tensor(nhwc(x), requires_grad=True)
        backward(reduce_sum(ag.mul(ag.stripe_pool(t, 2, windows), Tensor(weights))))
        ref = Tensor(nhwc(x), requires_grad=True)
        for (s, l), w in zip(windows, weights):
            sub = slice_rows(ref, 3 * s, 3 * (s + l))
            pooled = ag.add(global_max_pool(sub), global_avg_pool(sub))
            backward(reduce_sum(ag.mul(pooled, Tensor(w))))
        np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("unit", [256, 257, 2 ** 16 + 1])
    def test_max_gradient_lands_on_the_last_elements_of_a_stripe(self, unit):
        # the first maximum's index, unit - 1 in channel 0 and unit - 2 in
        # channel 1, is counted in the narrowest unsigned type that holds
        # unit - 1: 255 is a byte's largest value, while 256 and 65,536 would
        # overflow one and two bytes
        x = np.zeros((1, 1, unit, 2))
        x[0, 0, -1, 0] = 1.0   # channel 0: only the last element
        x[0, 0, -2:, 1] = 1.0  # channel 1: the last two tie
        weights = np.array([[[0.75, -1.5]]])
        t = Tensor(x, requires_grad=True)
        backward(reduce_sum(ag.mul(ag.stripe_pool(t, 1, [(0, 1)]), Tensor(weights))))
        ref = Tensor(x, requires_grad=True)
        pooled = ag.add(global_max_pool(ref), global_avg_pool(ref))
        backward(reduce_sum(ag.mul(pooled, Tensor(weights[0]))))
        np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-12, atol=1e-15)
        assert t.grad[0, 0, -1, 0] > t.grad[0, 0, -2, 0]
        assert t.grad[0, 0, -2, 1] < t.grad[0, 0, -1, 1]


class TestBranchForward:
    """All enabled branches' heads at once, on feature maps fed straight in."""

    def test_constant_channels_pool_to_double(self):
        c = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        fmap = Tensor(np.broadcast_to(c, (1, 4, 2, 3)).copy())
        pooled = ag.stripe_pool(fmap, 2, [(0, 1), (0, 2)])
        np.testing.assert_allclose(pooled.data, np.stack([(2 * c)[None]] * 2), rtol=1e-6)

    def test_feature_dimension(self, rng):
        model = identity_model(n=2, channels=64, height=4, feature_dim=128, num_ids=10)
        embedding, logits = model.forward(
            Tensor(nhwc(rng.normal(size=(2, 64, 4, 4)).astype(np.float32))), training=True)
        assert embedding.data.shape == (2, 3 * 128)
        assert logits.data.shape == (3, 2, 10)

    def test_single_map_form(self, rng):
        model = identity_model()
        embedding, logits = model.forward(
            Tensor(nhwc(rng.normal(size=(1, 8, 6, 4)).astype(np.float32))), training=False)
        assert embedding.data.shape == (1, 6 * 4)
        assert logits is None  # eval computes no logits

    def test_channel_mismatch_error(self):
        model = identity_model()
        with pytest.raises(ValueError, match="channels"):
            model.forward(Tensor(np.ones((2, 6, 4, 6))), training=True)

    def test_gradcheck_through_branch_and_ce(self):
        with use_dtype(np.float64):
            model = identity_model(seed=11, num_ids=3)
            fmap = nhwc(np.random.default_rng(11).uniform(0.1, 1.0, size=(4, 8, 6, 4)))
            labels = np.array([0, 1, 2, 1])

            def f(t):
                return id_loss(model.forward(t, training=True)[1], labels).tensor

            assert finite_difference_check(f, Tensor(fmap)) < 1e-5

    def test_eval_embedding_is_a_constant(self, rng):
        # eval records no graph node from the batch norm on, so a loss built
        # from the embedding has nothing to backpropagate into
        model = make_model(n=2, stages=((8, 2),), image_hw=(16, 8))
        images = Tensor(nhwc(rng.uniform(0, 1, size=(2, 3, 16, 8))), requires_grad=True)
        embedding, _ = model.forward(images, training=False)
        assert embedding._prev == ()
        with pytest.raises(RuntimeError, match="not attached to a graph"):
            backward(reduce_sum(ag.mul(embedding, embedding)))


class TestAssembly:
    """The embedding: enabled branch features side by side."""

    def full_and_masked(self, mask, rng):
        model = identity_model(n=6, channels=16, height=12, feature_dim=128, mask=mask)
        fmap = Tensor(nhwc(rng.normal(size=(2, 16, 12, 4)).astype(np.float32)))
        return model, fmap, model.forward(fmap, training=False)[0]

    def test_full_mask_dimension(self, rng):
        _, _, embedding = self.full_and_masked("111111", rng)
        assert embedding.data.shape == (2, 21 * 128)
        assert embedding.data.shape[1] == 2688

    def test_global_only_mask(self, rng):
        model, fmap, embedding = self.full_and_masked("000001", rng)
        assert embedding.data.shape == (2, 128)
        emb, _, _ = reference_pyramid_forward(model, fmap, [0, 1], training=False)
        np.testing.assert_allclose(embedding.data, emb.data, rtol=1e-5, atol=1e-6)

    def test_mask_110011(self, rng):
        # levels 1,2,5,6 keep 6+5+2+1 = 14 branches
        _, _, embedding = self.full_and_masked("110011", rng)
        assert embedding.data.shape == (2, 14 * 128)
        assert embedding.data.shape[1] == 1792

    def test_all_false_mask_rejected(self):
        with pytest.raises(ConfigError, match="disables every"):
            BranchMask.from_string("000000")

    def test_every_enabled_branch_feature_present(self, rng):
        # each enabled branch's feature fills its own D columns, in
        # enumeration order, and a disabled one fills none
        model, fmap, embedding = self.full_and_masked("101101", rng)
        emb, _, _ = reference_pyramid_forward(model, fmap, [0, 1], training=False)
        assert embedding.data.shape == emb.data.shape == (2, (6 + 4 + 3 + 1) * 128)
        np.testing.assert_allclose(embedding.data, emb.data, rtol=1e-5, atol=1e-6)


class TestAgainstReference:
    """The stacked head against the per-branch loop it replaced."""

    def compare(self, model, images, labels, rtol, atol=0.0):
        names = [name for name, _ in model.named_parameters()]
        runs = []
        for forward in ("stacked", "reference"):
            bufs = {name: buf.copy() for name, buf in model.named_buffers()}
            model.zero_grad()
            x = Tensor(images.copy(), requires_grad=True)
            if forward == "stacked":
                emb, stacked = model.forward(x, training=True)
                logits = stacked.data
                loss = id_loss(stacked, labels).tensor
            else:
                emb, per_branch, loss = reference_pyramid_forward(model, x, labels, True)
                logits = np.stack([lg.data for lg in per_branch])
            backward(loss)
            grads = [p.grad for _, p in model.named_parameters()]
            runs.append((emb.data, logits, loss.item(), x.grad, grads,
                         [buf.copy() for _, buf in model.named_buffers()]))
            for name, buf in model.named_buffers():
                buf[...] = bufs[name]  # both runs start from the same statistics
        (emb, logits, loss, gx, grads, bufs), (r_emb, r_logits, r_loss, r_gx, r_grads,
                                              r_bufs) = runs
        check = lambda a, b, what: np.testing.assert_allclose(a, b, rtol=rtol, atol=atol,
                                                              err_msg=what)
        check(emb, r_emb, "embedding")
        check(logits, r_logits, "logits")
        check(loss, r_loss, "id loss")
        check(gx, r_gx, "input gradient")
        for name, g, r in zip(names, grads, r_grads):
            assert (g is None) == (r is None), name
            if g is not None:
                check(g, r, name)
        for (name, _), b, r in zip(model.named_buffers(), bufs, r_bufs):
            check(b, r, name)
        return grads

    @pytest.mark.parametrize("mask", ["111111", "000001", "110011"])
    def test_float64(self, mask):
        with use_dtype(np.float64):
            rng = np.random.default_rng(21)
            model = make_model(feature_dim=4, num_ids=5, stages=((8, 2), (8, 2)), seed=21,
                               mask=mask)
            images = nhwc(rng.uniform(0, 1, size=(6, 3, 48, 16)))
            grads = self.compare(model, images, rng.integers(0, 5, size=6), rtol=1e-10)
            # the model holds the enabled branches only, and each one's
            # head gradient is nonzero
            b = {"111111": 21, "000001": 1, "110011": 14}[mask]
            assert len(model.windows) == b
            for (name, _), g in zip(model.named_parameters(), grads):
                if name.startswith("head."):
                    assert np.any(g.reshape(b, -1), axis=1).all(), name

    def test_float32_desk_shapes(self, rng):
        model = make_model()
        images = nhwc(rng.uniform(0, 1, size=(16, 3, 48, 16)).astype(np.float32))
        self.compare(model, images, rng.integers(0, 10, size=16), rtol=1e-4, atol=1e-5)

    def test_tied_stripe_maxima(self):
        # zeros tie every element of a window, the constant block repeats
        # each stripe's maximum, and one 0.75 is a unique maximum (built
        # channels-first)
        with use_dtype(np.float64):
            model = identity_model(n=3, channels=8, height=6, feature_dim=4, num_ids=5, seed=4)
            fmap = np.zeros((4, 8, 6, 4))
            fmap[:2, :4] = 0.5
            fmap[:, 1, 4, 2] = 0.75
            self.compare(model, nhwc(fmap), [0, 1, 2, 3], rtol=1e-10, atol=1e-12)

    def test_stripes_longer_than_256_elements(self):
        # a 384 x 128 image through a stride-4 backbone gives 512-element
        # stripes for n = 6; here 2 stripes of 3 x 100 with maxima past
        # element 256, some of them tied (built channels-first)
        with use_dtype(np.float64):
            rng = np.random.default_rng(6)
            model = identity_model(n=2, channels=4, height=6, width=100, seed=6)
            fmap = rng.uniform(0, 1, size=(3, 4, 6, 100))
            fmap[:, 0, 2, [70, 95]] = 1.5
            fmap[:, 1, 5, 99] = 1.5
            fmap[:, 2] = 0.0
            fmap[:, 3, [2, 4], [90, 10]] = 1.5
            self.compare(model, nhwc(fmap), [0, 1, 4], rtol=1e-10, atol=1e-12)


class TestHeadGraphSize:
    @staticmethod
    def head_nodes(mask):
        model = make_model(mask=mask)
        images = Tensor(nhwc(np.random.default_rng(0).uniform(
            0, 1, size=(16, 3, 48, 16)).astype(np.float32)))
        fmap = model.backbone.forward(images, training=True)
        model.backbone = type("Fixed", (), {"forward": lambda self, x, training: fmap})()
        loss = id_loss(model.forward(images, training=True)[1], np.arange(16) % 10).tensor
        # count the recorded nodes (those with parents) above the feature map
        count, seen, todo = 0, {id(fmap)}, [loss]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                count += bool(node._prev)
                todo.extend(node._prev)
        return count

    def test_node_count_does_not_grow_with_branches(self):
        counts = [self.head_nodes(mask) for mask in ("000001", "110011", "111111")]
        # every mask reads the head tensors whole
        assert counts[0] == counts[1] == counts[2], counts

    @staticmethod
    def recorded_ops(out):
        """Op names of the recorded nodes `out` depends on, itself included."""
        ops, seen, todo = [], set(), [out]
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if node._prev:
                    ops.append(node._op)
                todo.extend(node._prev)
        return ops

    @pytest.mark.parametrize("training", [True, False])
    def test_channels_last_forward_records_only_the_heads_transposes(self, training):
        # images enter channels-last and the pyramid pools the backbone's
        # map as it comes: the backbone records no transpose, the head one
        # before the batch norm and one before the classifier; in eval
        # neither the backbone nor the batch norm records a node
        model = make_model()
        images = Tensor(np.random.default_rng(0).uniform(
            0, 1, size=(16, 48, 16, 3)).astype(np.float32))
        fmap = model.backbone.forward(images, training)
        assert sorted(self.recorded_ops(fmap)) == ["conv_bn_relu"] * 3 * training
        embedding, logits = model.forward(images, training)
        if training:
            assert self.recorded_ops(embedding).count("transpose") == 1
            ops = self.recorded_ops(logits)
            assert ops.count("transpose") == 2, ops
        else:
            assert self.recorded_ops(embedding) == []
            assert logits is None


class TestModel:
    def test_embedding_columns(self):
        model = make_model(feature_dim=16)
        assert model.embedding_columns(model.mask).all()
        assert model.embedding_columns(model.mask).shape == (21 * 16,)
        # the one level-6 branch is the last
        assert np.flatnonzero(model.embedding_columns(BranchMask.from_string("000001"))
                              ).tolist() == list(range(20 * 16, 21 * 16))
        for mask in ("111111", "10100", "1010011"):
            with pytest.raises(ConfigError, match="not a sub-mask"):
                make_model(mask="101001").embedding_columns(BranchMask.from_string(mask))

    def test_build_rejects_indivisible_height(self):
        with pytest.raises(ConfigError, match="not divisible"):
            make_model(n=5)  # H=12 not divisible by 5

    def test_long_mask_refused_before_its_windows_are_listed(self, monkeypatch):
        # 100,000 parts would list 5,000,050,000 windows
        def never(mask):
            raise AssertionError("windows listed")

        monkeypatch.setattr(BranchMask, "windows", never)
        with pytest.raises(ConfigError, match="not divisible by part count 100000"):
            make_model(n=100_000)

    def test_random_configs_either_reject_or_divide(self):
        # every accepted build has a map height divisible by n
        rng = np.random.default_rng(20)
        built = 0
        for _ in range(60):
            n = int(rng.integers(1, 8))
            stages = tuple((int(rng.integers(4, 9)), int(rng.choice([1, 2])))
                           for _ in range(int(rng.integers(1, 4))))
            h = int(rng.integers(1, 13)) * 4
            try:
                model = make_model(n=n, stages=stages, image_hw=(h, 8), seed=1)
            except ConfigError:
                continue
            built += 1
            assert model.map_shape[0] % n == 0
        assert built > 5

    def test_masking_locality(self, rng):
        """Disabling a level leaves the remaining branch features bit-identical."""
        model = make_model(n=4, stages=((8, 2), (8, 2)), image_hw=(32, 16))
        images = Tensor(nhwc(rng.uniform(0, 1, size=(3, 3, 32, 16)).astype(np.float32)))
        full = model.forward(images, training=False)[0].data
        masked = make_model(n=4, stages=((8, 2), (8, 2)), image_hw=(32, 16), mask="1011"
                            ).forward(images, training=False)[0].data
        d = model.feature_dim
        kept = [i for i, (_, level) in enumerate(model.windows) if level != 2]
        assert masked.shape == (3, len(kept) * d)
        for j, i in enumerate(kept):
            np.testing.assert_array_equal(masked[:, j * d:(j + 1) * d],
                                          full[:, i * d:(i + 1) * d])

    def test_branch_independence(self, rng):
        """Perturbing one branch's parameters changes no other feature."""
        model = make_model(n=3, stages=((8, 2),), image_hw=(24, 8))
        images = Tensor(nhwc(rng.uniform(0, 1, size=(2, 3, 24, 8)).astype(np.float32)))
        d = model.feature_dim
        before = model.forward(images, training=False)[0].data
        model.reduce_weight.data[2] += 0.37
        after = model.forward(images, training=False)[0].data
        for i in range(len(model.windows)):
            cols = slice(i * d, (i + 1) * d)
            if i == 2:
                assert not np.array_equal(before[:, cols], after[:, cols])
            else:
                np.testing.assert_array_equal(before[:, cols], after[:, cols])

    def test_parameter_names(self):
        model = make_model(n=2, stages=((8, 2),), image_hw=(16, 8))
        shapes = {n: p.data.shape for n, p in model.named_parameters()
                  if n.startswith("head.")}
        assert shapes == {"head.reduce.weight": (3, 8, 16), "head.bn.gamma": (48,),
                          "head.bn.beta": (48,), "head.classifier.weight": (3, 16, 10)}
        buffers = {n: b.shape for n, b in model.named_buffers() if n.startswith("head.")}
        assert buffers == {"head.bn.running_mean": (48,), "head.bn.running_var": (48,)}

    def test_one_tensor_per_head_parameter_kind(self):
        # the desk model: 9 backbone tensors, then one per head kind
        assert len(list(make_model().named_parameters())) == 13

    def test_initial_weights_drawn_branch_by_branch(self):
        # branch i draws its reduction, then its classifier, from the stream
        # the backbone leaves behind
        rng = np.random.default_rng(0)
        Backbone(STAGES, rng)
        model = make_model()
        for i in range(21):
            np.testing.assert_array_equal(model.reduce_weight.data[i],
                                          rng.uniform(-0.125, 0.125, size=(64, 16))
                                          .astype(np.float32))
            np.testing.assert_array_equal(model.classifier_weight.data[i],
                                          rng.uniform(-0.25, 0.25, size=(16, 10))
                                          .astype(np.float32))


class TestEvalTiles:
    """Eval cuts a batch of more than `_EVAL_TILE` images into tiles that the
    worker threads share, each tile one whole forward."""

    @pytest.fixture(scope="class", params=["111111", "000001"])
    def model(self, request):
        model = make_model(mask=request.param)
        images = np.random.default_rng(5).uniform(0, 1, size=(64, 48, 16, 3))
        model.forward(Tensor(images.astype(np.float32)), training=True)  # moves the stats
        return model

    @pytest.fixture(scope="class")
    def images(self):
        return np.random.default_rng(6).uniform(0, 1, size=(2400, 48, 16, 3)).astype(np.float32)

    def test_bits_do_not_depend_on_worker_count(self, model, images, monkeypatch):
        # 129 .. 256 images are 2 tiles, 2,400 (a whole gallery) are 19 of
        # 126 or 127, and 257 are 3 (85 + 86 + 86), none of which ends at a
        # chunk boundary of the blocks' 12, 9 and 4 images.
        # The interpreter switches threads every 10 us: a tile run twice or
        # never would change or leave out rows
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for batch in (1, 2, 63, 64, 65, 255, 256, 257, 2400):
                runs = []
                for workers in (1, 2, 5):
                    monkeypatch.setattr(ag, "_WORKERS", workers)
                    runs.append(model.forward(Tensor(images[:batch]), training=False)[0].data)
                for run in runs[1:]:
                    assert run.tobytes() == runs[0].tobytes(), batch
        finally:
            sys.setswitchinterval(switch)

    def test_tiles_are_balanced_and_joined_in_order(self, model, images, monkeypatch):
        monkeypatch.setattr(ag, "_WORKERS", 2)
        sizes, forward = [], PyramidModel._forward

        def spy(self, x, training):
            sizes.append(len(x.data))
            return forward(self, x, training)

        monkeypatch.setattr(PyramidModel, "_forward", spy)
        for batch, tiles in ((128, [128]), (129, [64, 65]), (256, [128, 128]),
                             (257, [85, 86, 86]), (2400, [126] * 13 + [127] * 6)):
            sizes.clear()
            got = model.forward(Tensor(images[:batch]), training=False)[0].data
            assert sorted(sizes) == tiles
            ref, _, _ = reference_pyramid_forward(model, Tensor(images[:batch]),
                                                  np.zeros(batch, dtype=int), False)
            np.testing.assert_allclose(got, ref.data, rtol=1e-4, atol=1e-5)
