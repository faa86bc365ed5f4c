import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pyreid.autograd as ag
from pyreid.autograd import Tensor, use_dtype
from pyreid.backbone import Backbone, BackboneConfig
from pyreid.errors import ConfigError
from pyreid.gradcheck import finite_difference_check
from pyreid.losses import id_loss
from pyreid.pyramid import BranchMask, PyramidModel, enumerate_branches

from helpers import reference_pyramid_forward


def make_model(n=6, feature_dim=16, num_ids=10, stages=((16, 2), (32, 2), (64, 1)),
               image_hw=(48, 16), seed=0, classifier_bias=False):
    rng = np.random.default_rng(seed)
    backbone = Backbone(BackboneConfig(stages=stages), rng)
    return PyramidModel(backbone, n, feature_dim, num_ids, image_hw, rng,
                        classifier_bias=classifier_bias)


class TestEnumeration:
    def test_21_branches_for_six_parts(self):
        specs = enumerate_branches(6, 24)
        assert len(specs) == 21
        counts = [sum(1 for s in specs if s.level == l) for l in range(1, 7)]
        assert counts == [6, 5, 4, 3, 2, 1]

    def test_row_range_formula(self):
        # st = (k-1)*H/n + 1, ed = (k-1)*H/n + l*H/n, checked by substitution
        specs = enumerate_branches(6, 24)
        spec = next(s for s in specs if s.level == 2 and s.position == 3)
        assert (spec.row_start, spec.row_end) == (9, 16)

    def test_degenerate_single_part(self):
        specs = enumerate_branches(1, 8)
        assert len(specs) == 1
        assert (specs[0].row_start, specs[0].row_end) == (1, 8)

    def test_top_level_covers_everything(self):
        specs = enumerate_branches(5, 20)
        top = [s for s in specs if s.level == 5]
        assert len(top) == 1
        assert (top[0].row_start, top[0].row_end) == (1, 20)

    def test_indivisible_height_error_names_values(self):
        with pytest.raises(ConfigError) as exc:
            enumerate_branches(6, 20)
        assert "20" in str(exc.value) and "6" in str(exc.value)

    @given(n=st.integers(min_value=1, max_value=12), unit=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_branch_count_identity(self, n, unit):
        specs = enumerate_branches(n, n * unit)
        assert len(specs) == n * (n + 1) // 2
        # every level-l window spans l consecutive level-1 units
        for s in specs:
            assert s.rows == s.level * unit

    def test_level_one_slabs_tile_the_map(self):
        specs = [s for s in enumerate_branches(4, 12) if s.level == 1]
        covered = []
        for s in specs:
            covered.extend(range(s.row_start, s.row_end + 1))
        assert covered == list(range(1, 13))

    def test_nesting_level_l_is_union_of_level_ones(self):
        specs = enumerate_branches(5, 15)
        unit_ranges = [(s.row_start, s.row_end) for s in specs if s.level == 1]
        for s in specs:
            members = unit_ranges[s.position - 1:s.position - 1 + s.level]
            assert s.row_start == members[0][0]
            assert s.row_end == members[-1][1]


def identity_model(n=3, channels=8, height=6, width=4, feature_dim=4, num_ids=5,
                   classifier_bias=False, seed=0):
    """Pyramid heads alone: an empty backbone passes the feature map through."""
    rng = np.random.default_rng(seed)
    backbone = Backbone(BackboneConfig(in_channels=channels, stages=()), rng)
    return PyramidModel(backbone, n, feature_dim, num_ids, (height, width), rng,
                        classifier_bias=classifier_bias)


class TestSlicing:
    """The rows each branch pools: windows of the stripe pool against slices of
    the map."""

    def test_slice_matches_eq1_substitution(self, rng):
        fmap = Tensor(rng.normal(size=(2, 64, 12, 4)).astype(np.float32))
        spec = next(s for s in enumerate_branches(6, 12)
                    if s.level == 3 and s.position == 2)
        pooled = ag.stripe_pool(fmap, 6, [(spec.position - 1, spec.level)])
        assert pooled.shape == (1, 2, 64)
        rows = fmap.data[:, :, 2:8, :]
        np.testing.assert_allclose(pooled.data[0], rows.max(axis=(2, 3)) + rows.mean(axis=(2, 3)),
                                   rtol=1e-6)

    def test_top_level_slice_is_whole_map(self, rng):
        fmap = Tensor(rng.normal(size=(8, 6, 3, 3)).astype(np.float32))
        pooled = ag.stripe_pool(fmap, 3, [(0, 3)])
        np.testing.assert_allclose(pooled.data[0], ag.global_max_pool(fmap).data
                                   + ag.global_avg_pool(fmap).data, rtol=1e-6)

    def test_batched_slice(self, rng):
        fmap = Tensor(rng.normal(size=(2, 8, 6, 3)).astype(np.float32))
        windows = [(s, l) for l in (1, 2, 3) for s in range(4 - l)]
        pooled = ag.stripe_pool(fmap, 3, windows)
        assert pooled.shape == (6, 2, 8)
        for b, (s, l) in enumerate(windows):
            sub = ag.slice_rows(fmap, 2 * s, 2 * (s + l))
            np.testing.assert_allclose(pooled.data[b], ag.global_max_pool(sub).data
                                       + ag.global_avg_pool(sub).data, rtol=1e-6)

    @pytest.mark.parametrize("parts, windows, match", [
        (4, [(0, 1)], "does not split"),
        (3, [], "runs of 3"),
        (3, [(2, 2)], "runs of 3"),
        (3, [(0, 0)], "runs of 3"),
    ])
    def test_bad_arguments_rejected(self, parts, windows, match):
        with pytest.raises(ValueError, match=match):
            ag.stripe_pool(Tensor(np.ones((1, 2, 6, 2))), parts, windows)

    def test_tied_maxima_route_the_gradient_like_a_window_max(self):
        # stripe maxima tie across and within stripes, and post-ReLU zeros tie
        # everywhere: each window's max gradient must land on the element a
        # max pool over the window's rows picks, its first in row-major order
        x = np.zeros((2, 3, 6, 2))
        x[0, 0, [0, 3, 5], [1, 0, 1]] = 1.0
        x[0, 1, 2:4, :] = 0.5
        x[1, 2] = np.tile([[0.25, 0.75]], (6, 1))
        windows = [(s, l) for l in (1, 2, 3) for s in range(4 - l)]
        weights = np.random.default_rng(3).normal(size=(len(windows), 2, 3))
        t = Tensor(x.copy(), requires_grad=True)
        ag.reduce_sum(ag.mul(ag.stripe_pool(t, 3, windows), Tensor(weights))).backward()
        ref = Tensor(x.copy(), requires_grad=True)
        for (s, l), w in zip(windows, weights):
            sub = ag.slice_rows(ref, 2 * s, 2 * (s + l))
            pooled = ag.add(ag.global_max_pool(sub), ag.global_avg_pool(sub))
            ag.reduce_sum(ag.mul(pooled, Tensor(w))).backward()
        np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-12, atol=1e-15)

    def test_max_gradient_lands_past_256_elements_into_a_stripe(self):
        # stripes of 3 x 100 = 300 elements: the first maximum sits beyond
        # the range of a byte-sized index, tied within and across stripes
        x = np.zeros((1, 2, 6, 100))
        x[0, 0, 2, [60, 90]] = 1.0    # stripe 0, elements 260 and 290
        x[0, 0, 5, 99] = 0.5          # stripe 1, its last element
        x[0, 1, 2, 80] = 2.0          # stripe 0, element 280
        x[0, 1, 4, 10] = 2.0          # stripe 1, element 110, ties stripe 0
        windows = [(0, 1), (1, 1), (0, 2)]
        weights = np.random.default_rng(5).normal(size=(len(windows), 1, 2))
        t = Tensor(x.copy(), requires_grad=True)
        ag.reduce_sum(ag.mul(ag.stripe_pool(t, 2, windows), Tensor(weights))).backward()
        ref = Tensor(x.copy(), requires_grad=True)
        for (s, l), w in zip(windows, weights):
            sub = ag.slice_rows(ref, 3 * s, 3 * (s + l))
            pooled = ag.add(ag.global_max_pool(sub), ag.global_avg_pool(sub))
            ag.reduce_sum(ag.mul(pooled, Tensor(w))).backward()
        np.testing.assert_allclose(t.grad, ref.grad, rtol=1e-12, atol=1e-15)


class TestBranchForward:
    """All enabled branches' heads at once, on feature maps fed straight in."""

    def test_constant_channels_pool_to_double(self):
        c = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        fmap = Tensor(np.broadcast_to(c[None, :, None, None], (1, 3, 4, 2)).copy())
        pooled = ag.stripe_pool(fmap, 2, [(0, 1), (0, 2)])
        np.testing.assert_allclose(pooled.data, np.stack([(2 * c)[None]] * 2), rtol=1e-6)

    def test_feature_dimension(self, rng):
        model = identity_model(n=2, channels=64, height=4, feature_dim=128, num_ids=10)
        out = model.forward(Tensor(rng.normal(size=(2, 64, 4, 4)).astype(np.float32)),
                            training=True)
        assert out.embedding.shape == (2, 3 * 128)
        assert out.logits.shape == (3, 2, 10)

    def test_single_map_form(self, rng):
        model = identity_model()
        out = model.forward(Tensor(rng.normal(size=(1, 8, 6, 4)).astype(np.float32)),
                            training=False)
        assert out.embedding.shape == (1, 6 * 4)
        assert out.logits.shape == (6, 1, 5)

    def test_channel_mismatch_error(self):
        model = identity_model()
        with pytest.raises(ValueError, match="channels"):
            model.forward(Tensor(np.ones((2, 6, 6, 4))), training=True)

    def test_gradcheck_through_branch_and_ce(self):
        with use_dtype(np.float64):
            model = identity_model(seed=11, num_ids=3)
            fmap = np.random.default_rng(11).uniform(0.1, 1.0, size=(4, 8, 6, 4))
            labels = np.array([0, 1, 2, 1])

            def f(t):
                return id_loss(model.forward(t, training=True).logits, labels).tensor

            assert finite_difference_check(f, Tensor(fmap)) < 1e-5

    def test_gradcheck_single_map_through_branch_and_ce(self):
        # one feature map through the heads; eval-mode batch norm, since
        # batch statistics of a single row are degenerate
        with use_dtype(np.float64):
            rng = np.random.default_rng(13)
            model = identity_model(n=2, height=12, num_ids=3, seed=13)
            for params in model.branches:
                params.bn.running_mean[:] = rng.normal(size=4) * 0.1
                params.bn.running_var[:] = rng.uniform(0.5, 1.5, size=4)
            fmap = rng.uniform(0.1, 1.0, size=(1, 8, 12, 4))

            def f(t):
                return id_loss(model.forward(t, training=False).logits, [2]).tensor

            leaf = Tensor(fmap.copy(), requires_grad=True)
            f(leaf).backward()
            assert np.abs(leaf.grad).max() > 0  # the check must not be vacuous
            assert finite_difference_check(f, Tensor(fmap)) < 1e-5

class TestAssembly:
    """The embedding: enabled branch features side by side."""

    def full_and_masked(self, mask, rng):
        model = identity_model(n=6, channels=16, height=12, feature_dim=128)
        fmap = Tensor(rng.normal(size=(2, 16, 12, 4)).astype(np.float32))
        return model, fmap, model.forward(fmap, training=False, mask=BranchMask.from_string(mask))

    def test_full_mask_dimension(self, rng):
        _, _, out = self.full_and_masked("111111", rng)
        assert out.embedding.shape == (2, 21 * 128)
        assert out.embedding.shape[1] == 2688

    def test_global_only_mask(self, rng):
        model, fmap, out = self.full_and_masked("000001", rng)
        assert out.embedding.shape == (2, 128)
        emb, _, _ = reference_pyramid_forward(model, fmap, [0, 1], training=False,
                                              mask=BranchMask.from_string("000001"))
        np.testing.assert_allclose(out.embedding.data, emb.data, rtol=1e-5, atol=1e-6)

    def test_mask_110011(self, rng):
        # levels 1,2,5,6 keep 6+5+2+1 = 14 branches
        _, _, out = self.full_and_masked("110011", rng)
        assert out.embedding.shape == (2, 14 * 128)
        assert out.embedding.shape[1] == 1792

    def test_wrong_length_rejected(self, rng):
        model = identity_model()
        with pytest.raises(ConfigError, match="has 6 levels, model has 3"):
            model.forward(Tensor(np.ones((2, 8, 6, 4))), training=False,
                          mask=BranchMask.full(6))

    def test_all_false_mask_rejected(self):
        with pytest.raises(ConfigError, match="disables every"):
            BranchMask.from_string("000000")

    def test_every_enabled_branch_feature_present(self, rng):
        # each enabled branch's feature fills its own D columns, in
        # enumeration order, and a disabled one fills none
        mask = BranchMask.from_string("101101")
        model, fmap, out = self.full_and_masked(str(mask), rng)
        emb, _, _ = reference_pyramid_forward(model, fmap, [0, 1], training=False, mask=mask)
        assert out.embedding.shape == emb.shape == (2, (6 + 4 + 3 + 1) * 128)
        np.testing.assert_allclose(out.embedding.data, emb.data, rtol=1e-5, atol=1e-6)


class TestAgainstReference:
    """The stacked head against the per-branch loop it replaced."""

    def compare(self, model, images, labels, mask, rtol, atol=0.0):
        mask = BranchMask.from_string(mask)
        names = [name for name, _ in model.named_parameters()]
        runs = []
        for forward in ("stacked", "reference"):
            bufs = {name: buf.copy() for name, buf in model.named_buffers()}
            model.zero_grad()
            x = Tensor(images.copy(), requires_grad=True)
            if forward == "stacked":
                out = model.forward(x, training=True, mask=mask)
                emb, logits = out.embedding, out.logits.data
                loss = id_loss(out.logits, labels).tensor
            else:
                emb, per_branch, loss = reference_pyramid_forward(model, x, labels, True, mask)
                logits = np.stack([lg.data for lg in per_branch])
            loss.backward()
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

    @pytest.mark.parametrize("mask, bias", [("111111", False), ("000001", False),
                                            ("110011", False), ("111111", True),
                                            ("110011", True)])
    def test_float64(self, mask, bias):
        with use_dtype(np.float64):
            rng = np.random.default_rng(21)
            model = make_model(feature_dim=4, num_ids=5, stages=((8, 2), (8, 2)), seed=21,
                               classifier_bias=bias)
            images = rng.uniform(0, 1, size=(6, 3, 48, 16))
            grads = self.compare(model, images, rng.integers(0, 5, size=6), mask, rtol=1e-10)
            names = [name for name, _ in model.named_parameters()]
            levels = [int(name.split("_")[1][1:]) for name in names if name.startswith("branch")]
            got = [g is not None for name, g in zip(names, grads) if name.startswith("branch")]
            assert got == [mask[level - 1] == "1" for level in levels]

    def test_float32_desk_shapes(self, rng):
        model = make_model()
        images = rng.uniform(0, 1, size=(16, 3, 48, 16)).astype(np.float32)
        self.compare(model, images, rng.integers(0, 10, size=16), "111111",
                     rtol=1e-4, atol=1e-5)

    def test_tied_stripe_maxima(self):
        # zeros tie every element of a window, the constant block repeats
        # each stripe's maximum, and one 0.75 is a unique maximum
        with use_dtype(np.float64):
            model = identity_model(n=3, channels=8, height=6, feature_dim=4, num_ids=5, seed=4)
            fmap = np.zeros((4, 8, 6, 4))
            fmap[:2, :4] = 0.5
            fmap[:, 1, 4, 2] = 0.75
            self.compare(model, fmap, [0, 1, 2, 3], "111", rtol=1e-10, atol=1e-12)

    def test_stripes_longer_than_256_elements(self):
        # a 384 x 128 image through a stride-4 backbone gives 512-element
        # stripes for n = 6; here 2 stripes of 3 x 100 with maxima past
        # element 256, some of them tied
        with use_dtype(np.float64):
            rng = np.random.default_rng(6)
            model = identity_model(n=2, channels=4, height=6, width=100, seed=6)
            fmap = rng.uniform(0, 1, size=(3, 4, 6, 100))
            fmap[:, 0, 2, [70, 95]] = 1.5
            fmap[:, 1, 5, 99] = 1.5
            fmap[:, 2] = 0.0
            fmap[:, 3, [2, 4], [90, 10]] = 1.5
            self.compare(model, fmap, [0, 1, 4], "11", rtol=1e-10, atol=1e-12)


class TestHeadGraphSize:
    @staticmethod
    def head_nodes(mask):
        model = make_model()
        images = Tensor(np.random.default_rng(0).uniform(
            0, 1, size=(16, 3, 48, 16)).astype(np.float32))
        fmap = model.backbone.forward(images, training=True)
        model.backbone = type("Fixed", (), {"forward": lambda self, x, training: fmap})()
        loss = id_loss(model.forward(images, training=True,
                                     mask=BranchMask.from_string(mask)).logits,
                       np.arange(16) % 10).tensor
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
        assert counts[0] == counts[1] == counts[2], counts


class TestModel:
    def test_embedding_dims(self):
        model = make_model(feature_dim=16)
        assert model.embedding_dim() == 21 * 16
        assert model.embedding_dim(BranchMask.from_string("000001")) == 16

    def test_build_rejects_indivisible_height(self):
        with pytest.raises(ConfigError, match="not divisible"):
            make_model(n=5)  # H=12 not divisible by 5

    def test_random_configs_either_reject_or_divide(self):
        # every accepted build has a map height divisible by n
        rng = np.random.default_rng(20)
        built = 0
        for _ in range(60):
            n = int(rng.integers(1, 8))
            stages = tuple((int(rng.integers(4, 9)), int(rng.choice([1, 2])))
                           for _ in range(int(rng.integers(0, 4))))
            h = int(rng.integers(1, 13)) * 4
            try:
                model = make_model(n=n, stages=stages, image_hw=(h, 8), seed=1)
            except ConfigError:
                continue
            built += 1
            assert model.map_shape[1] % n == 0
        assert built > 5

    def test_masking_locality(self, rng):
        """Disabling a level leaves the remaining branch features bit-identical."""
        model = make_model(n=4, stages=((8, 2), (8, 2)), image_hw=(32, 16))
        images = Tensor(rng.uniform(0, 1, size=(3, 3, 32, 16)).astype(np.float32))
        full = model.forward(images, training=False).embedding.data
        masked = model.forward(images, training=False,
                               mask=BranchMask.from_string("1011")).embedding.data
        d = model.feature_dim
        kept = [i for i, spec in enumerate(model.specs) if spec.level != 2]
        assert masked.shape == (3, len(kept) * d)
        for j, i in enumerate(kept):
            np.testing.assert_array_equal(masked[:, j * d:(j + 1) * d],
                                          full[:, i * d:(i + 1) * d])

    def test_branch_independence(self, rng):
        """Perturbing one branch's parameters changes no other feature."""
        model = make_model(n=3, stages=((8, 2),), image_hw=(24, 8))
        images = Tensor(rng.uniform(0, 1, size=(2, 3, 24, 8)).astype(np.float32))
        d = model.feature_dim
        before = model.forward(images, training=False).embedding.data
        model.branches[2].reduce_weight.data += 0.37
        after = model.forward(images, training=False).embedding.data
        for i in range(len(model.specs)):
            cols = slice(i * d, (i + 1) * d)
            if i == 2:
                assert not np.array_equal(before[:, cols], after[:, cols])
            else:
                np.testing.assert_array_equal(before[:, cols], after[:, cols])

    def test_parameter_names(self):
        model = make_model(n=2, stages=((8, 2),), image_hw=(16, 8))
        names = [n for n, _ in model.named_parameters()]
        assert "branch_l1_k2.reduce.weight" in names
        assert "branch_l2_k1.classifier.weight" in names
        assert len([n for n in names if n.startswith("branch")]) == 3 * 4
