import numpy as np
import pytest

from pyreid.autograd import Tensor, use_dtype
from pyreid.backbone import STAGES, Backbone
from pyreid.errors import ConfigError
import pyreid.autograd as ag

from helpers import finite_difference_check, nhwc, reduce_sum


def make_backbone(stages, seed=0):
    return Backbone(stages, np.random.default_rng(seed))


class TestGeometry:
    def test_desk_config_output_shape(self):
        bb = make_backbone(STAGES)
        assert bb.output_shape(48, 16) == (12, 4, 64)
        out = bb.forward(Tensor(np.zeros((2, 48, 16, 3), dtype=np.float32)), training=True)
        assert out.data.shape == (2, 12, 4, 64)

    def test_paper_geometry_stride_16(self):
        # 384x128 input through overall stride 16 gives a 24x8 map, and 24
        # splits evenly into 6 basic parts
        bb = make_backbone(((8, 2), (8, 2), (8, 2), (8, 2)))
        h, w, c = bb.output_shape(384, 128)
        assert (h, w) == (24, 8)
        assert h % 6 == 0

    def test_indivisible_input_rejected_at_build(self):
        bb = make_backbone(((16, 2), (32, 2)))
        with pytest.raises(ConfigError, match="not divisible"):
            bb.output_shape(46, 16)


class TestForward:
    def test_deterministic_given_params(self):
        bb = make_backbone(((8, 2),))
        x = nhwc(np.random.default_rng(3).normal(size=(2, 3, 8, 8)).astype(np.float32))
        a = bb.forward(Tensor(x), training=False).data
        b = bb.forward(Tensor(x), training=False).data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_updates_running_stats(self):
        bb = make_backbone(((8, 2),))
        before = bb.blocks[0].bn.running_mean.copy()
        x = nhwc(np.random.default_rng(3).normal(size=(4, 3, 8, 8)).astype(np.float32))
        bb.forward(Tensor(x), training=True)
        assert not np.array_equal(before, bb.blocks[0].bn.running_mean)

    def test_eval_mode_leaves_running_stats(self):
        bb = make_backbone(((8, 2),))
        x = nhwc(np.random.default_rng(3).normal(size=(4, 3, 8, 8)).astype(np.float32))
        bb.forward(Tensor(x), training=True)
        snap = bb.blocks[0].bn.running_mean.copy()
        bb.forward(Tensor(x), training=False)
        np.testing.assert_array_equal(snap, bb.blocks[0].bn.running_mean)

    def test_parameter_names_cover_blocks(self):
        bb = make_backbone(((8, 2), (16, 1)))
        names = [n for n, _ in bb.named_parameters()]
        assert "backbone.block0.conv.weight" in names
        assert "backbone.block1.bn.gamma" in names
        buffers = [n for n, _ in bb.named_buffers()]
        assert "backbone.block1.bn.running_var" in buffers


class TestGradients:
    def test_gradient_reaches_every_conv_weight(self):
        with use_dtype(np.float64):
            bb = make_backbone(((4, 2), (4, 1)))
            x = nhwc(np.random.default_rng(7).uniform(0.2, 0.8, size=(2, 3, 8, 8)))
            weights = nhwc(np.random.default_rng(8).normal(size=(2, 4, 4, 4)))
            for name, p in bb.named_parameters():
                block = bb.blocks[int(name.split(".")[1][5:])]
                tail = name.split(".", 2)[2]
                obj, attr = {"conv.weight": (block, "weight"),
                             "bn.gamma": (block.bn, "gamma"),
                             "bn.beta": (block.bn, "beta")}[tail]

                def f(t, obj=obj, attr=attr):
                    old = getattr(obj, attr)
                    setattr(obj, attr, t)
                    try:
                        out = bb.forward(Tensor(x), training=True)
                        return reduce_sum(ag.mul(out, Tensor(weights)))
                    finally:
                        setattr(obj, attr, old)

                err = finite_difference_check(f, Tensor(p.data.copy()))
                assert err < 1e-5, f"{name}: rel err {err}"
