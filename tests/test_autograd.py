import math

import numpy as np
import pytest

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward, no_grad, op_catalog, use_dtype
from pyreid.gradcheck import finite_difference_check

from helpers import gradcheck_cases, reference_conv2d


class TestTensorBasics:
    def test_shape_data_invariant(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.shape == (3, 4)
        assert t.size == 12
        assert t.data.flags["C_CONTIGUOUS"]

    def test_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_use_dtype_switches_and_restores(self):
        with use_dtype(np.float64):
            assert Tensor([1.0]).dtype == np.float64
        assert Tensor([1.0]).dtype == np.float32

    def test_item_rejects_nonscalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestBackwardContract:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        backward(ag.reduce_sum(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-6)

    def test_dead_relu_grad_zero(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        backward(ag.reduce_sum(ag.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_relu_grad_at_exact_zero_is_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        backward(ag.reduce_sum(ag.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_distance_gradient(self):
        # d/da ||a-b|| = (a-b)/||a-b||
        x = Tensor(np.array([[3.0, 0.0], [0.0, 4.0]]), requires_grad=True)
        d = ag.take_pairs(ag.pairwise_distances(x), [0], [1])
        backward(ag.reduce_sum(d))
        assert d.data[0] == pytest.approx(5.0)
        np.testing.assert_allclose(x.grad, [[0.6, -0.8], [-0.6, 0.8]], atol=1e-6)

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(ag.mul(x, x))

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ag.reduce_sum(x)
        backward(loss)
        with pytest.raises(RuntimeError, match="already consumed"):
            backward(loss)

    def test_detached_tensor_rejected(self):
        with pytest.raises(RuntimeError, match="not attached"):
            backward(Tensor(np.array(1.0), requires_grad=True))

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(ag.reduce_sum(ag.add(ag.mul(x, 3.0), ag.mul(x, 4.0))))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = ag.reduce_sum(ag.mul(x, x))
        assert out._prev == ()


class TestOpSemantics:
    def test_shape_mismatch_names_op_and_shapes(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((4,)))
        with pytest.raises(ValueError) as exc:
            ag.add(a, b)
        assert "add" in str(exc.value)
        assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError, match="matmul"):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_conv2d_all_ones(self):
        # 1x5x5 ones through a 1x1x3x3 ones kernel: every window sums to 9
        out = ag.conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))))
        assert out.shape == (1, 3, 3)
        np.testing.assert_allclose(out.data, 9.0)

    def test_conv2d_matches_naive_loops(self, rng):
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 2))
        for stride, pad in [(1, 0), (2, 1), (1, 1)]:
            out = ag.conv2d(Tensor(x), Tensor(w), stride=stride, padding=pad).data
            xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
            ho = (6 + 2 * pad - 3) // stride + 1
            wo = (5 + 2 * pad - 2) // stride + 1
            ref = np.zeros((2, 4, ho, wo))
            for n in range(2):
                for o in range(4):
                    for i in range(ho):
                        for j in range(wo):
                            patch = xp[n, :, i * stride:i * stride + 3,
                                       j * stride:j * stride + 2]
                            ref[n, o, i, j] = (patch * w[o]).sum()
            np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ag.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))

    def test_global_avg_pool_constant(self):
        out = ag.global_avg_pool(Tensor(np.full((2, 3, 4), 5.0)))
        np.testing.assert_allclose(out.data, [5.0, 5.0])

    def test_global_max_pool_picks_max(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = ag.global_max_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.max(axis=(2, 3)), rtol=1e-6)

    def test_max_pool_tie_gradient_goes_to_first(self):
        x = Tensor(np.array([[[1.0, 1.0], [0.0, 0.0]]]), requires_grad=True)
        backward(ag.reduce_sum(ag.global_max_pool(x)))
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_slice_rows_shape(self):
        out = ag.slice_rows(Tensor(np.ones((2, 6, 2))), 2, 4)
        assert out.shape == (2, 2, 2)

    def test_slice_rows_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            ag.slice_rows(Tensor(np.ones((2, 6, 2))), 4, 8)

    def test_concat_then_slice_roundtrip(self, rng):
        a = rng.normal(size=(2, 3, 4)).astype(np.float32)
        b = rng.normal(size=(2, 5, 4)).astype(np.float32)
        cat = ag.concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(ag.slice_rows(cat, 0, 3).data, a)
        np.testing.assert_array_equal(ag.slice_rows(cat, 3, 8).data, b)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ValueError, match="concat"):
            ag.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

    def test_softmax_ce_uniform(self):
        # all-zero logits over k classes cost ln k
        out = ag.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [2])
        assert out.item() == pytest.approx(math.log(4.0), rel=1e-6)

    def test_softmax_ce_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ag.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_softmax_ce_extreme_logits_stable(self):
        out = ag.softmax_cross_entropy(Tensor(np.array([[1e4, 0.0, -1e4]])), [0])
        assert np.isfinite(out.item())
        assert out.item() == pytest.approx(0.0, abs=1e-6)

    def test_take_pairs_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            ag.take_pairs(Tensor(np.ones((2, 2))), [0], [2])

    def test_take_rows_gathers_and_scatters_back(self, rng):
        x = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        out = ag.take_rows(x, [4, 1])
        np.testing.assert_array_equal(out.data, x.data[[4, 1]])
        backward(ag.reduce_sum(ag.mul(out, Tensor(np.stack([np.full((2, 3), 2.0),
                                                            np.ones((2, 3))])))))
        np.testing.assert_array_equal(x.grad[:, 0, 0], [0.0, 1.0, 0.0, 0.0, 2.0])

    @pytest.mark.parametrize("rows, message", [([0, 5], "out of bounds"),
                                               ([-1], "out of bounds"),
                                               ([2, 2], "distinct"),
                                               ([[0]], "1-D row indices")])
    def test_take_rows_rejects_bad_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            ag.take_rows(Tensor(np.ones((5, 2))), rows)

    def test_pairwise_matches_direct(self, rng):
        x = rng.normal(size=(6, 4))
        d = ag.pairwise_distances(Tensor(x)).data
        for i in range(6):
            for j in range(6):
                ref = math.sqrt(((x[i] - x[j]) ** 2).sum() + 1e-12)
                assert d[i, j] == pytest.approx(ref, rel=1e-5)


def _conv_with_grads(x, w, g, stride, padding, track_x=True):
    """GEMM conv2d forward plus backward from upstream gradient `g`:
    (output tensor, input tensor, kernel tensor)."""
    xt = Tensor(x, requires_grad=track_x)
    wt = Tensor(w, requires_grad=True)
    out = ag.conv2d(xt, wt, stride=stride, padding=padding)
    backward(ag.reduce_sum(ag.mul(out, Tensor(g))))
    return out, xt, wt


class TestConv2dAgainstEinsumReference:
    @pytest.mark.parametrize("ndim", [3, 4])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_and_gradients_float64(self, rng, stride, padding, ndim):
        x = rng.normal(size=(2, 3, 7, 6))[:1 if ndim == 3 else 2]
        w = rng.normal(size=(4, 3, 3, 2))
        ho = (7 + 2 * padding - 3) // stride + 1
        wo = (6 + 2 * padding - 2) // stride + 1
        g = rng.normal(size=(x.shape[0], 4, ho, wo))
        ref_out, ref_gx, ref_gw = reference_conv2d(x, w, g, stride, padding)
        if ndim == 3:
            x, g, ref_out, ref_gx = x[0], g[0], ref_out[0], ref_gx[0]
        out, xt, wt = _conv_with_grads(x, w, g, stride, padding)
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(xt.grad, ref_gx, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(wt.grad, ref_gw, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("batch", [16, 64])
    @pytest.mark.parametrize("shape,out_ch,stride", [
        ((3, 48, 16), 16, 2), ((16, 24, 8), 32, 2), ((32, 12, 4), 64, 1)])
    def test_backbone_shapes_float32(self, rng, batch, shape, out_ch, stride):
        # Weights at the backbone's fan-in scale and an upstream gradient
        # scaled by 1/sqrt(N*Ho*Wo) keep the output and both gradients of
        # order one, so one absolute tolerance fits all three. The reference
        # runs in float64 on the same float32 inputs.
        c, h, wd = shape
        x = rng.normal(size=(batch, c, h, wd)).astype(np.float32)
        w = (rng.normal(size=(out_ch, c, 3, 3)) / np.sqrt(9 * c)).astype(np.float32)
        ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
        g = (rng.normal(size=(batch, out_ch, ho, wo))
             / np.sqrt(batch * ho * wo)).astype(np.float32)
        out, xt, wt = _conv_with_grads(x, w, g, stride, 1)
        ref = reference_conv2d(x.astype(np.float64), w.astype(np.float64),
                               g.astype(np.float64), stride, 1)
        for got, want in zip((out.data, xt.grad, wt.grad), ref):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_untracked_input_gets_no_gradient(self, rng):
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        g = rng.normal(size=(2, 4, 3, 3))
        _, xt, wt = _conv_with_grads(x, w, g, 2, 1, track_x=False)
        assert xt.grad is None
        np.testing.assert_allclose(wt.grad, reference_conv2d(x, w, g, 2, 1)[2],
                                   rtol=1e-10, atol=1e-12)

    def test_gradients_are_c_contiguous(self, rng):
        for x in (rng.normal(size=(2, 3, 6, 5)), rng.normal(size=(3, 6, 5))):
            g = rng.normal(size=x.shape[:-3] + (4, 6, 5))
            _, xt, wt = _conv_with_grads(x, rng.normal(size=(4, 3, 3, 3)), g, 1, 1)
            assert xt.grad.flags["C_CONTIGUOUS"] and wt.grad.flags["C_CONTIGUOUS"]


class TestDebugChecks:
    def test_non_finite_output_raises_when_enabled(self):
        ag.debug_checks = True
        try:
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                           match="mul"):
                x = Tensor(np.array([1e300]), requires_grad=True)
                ag.mul(x, x)  # overflows to inf
        finally:
            ag.debug_checks = False

    def test_finite_ops_pass_when_enabled(self, rng):
        ag.debug_checks = True
        try:
            x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
            ag.relu(ag.mul(x, x))
        finally:
            ag.debug_checks = False


class TestCatalogInvariants:
    def test_catalog_covers_required_primitives(self):
        names = set(op_catalog())
        required = {"add", "sub", "mul", "matmul", "conv2d", "relu", "batch_norm",
                    "global_max_pool", "global_avg_pool", "slice_rows", "concat",
                    "softmax_cross_entropy", "take_rows", "reduce_sum", "reduce_mean"}
        assert required <= names

    def test_max_pool_dominates_avg_pool(self, rng):
        for _ in range(20):
            x = Tensor(rng.normal(size=(3, 5, 4)))
            assert (ag.global_max_pool(x).data >= ag.global_avg_pool(x).data - 1e-7).all()

    def test_softmax_ce_shift_invariance(self, rng):
        logits = rng.normal(size=(8, 5)).astype(np.float64)
        labels = rng.integers(0, 5, size=8)
        base = ag.softmax_cross_entropy(Tensor(logits), labels).item()
        for c in (-50.0, -1.0, 0.3, 7.0):
            shifted = ag.softmax_cross_entropy(Tensor(logits + c), labels).item()
            assert shifted == pytest.approx(base, abs=1e-6)

    def test_batch_norm_train_standardizes(self, rng):
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(64, 5)).astype(np.float64))
        gamma = Tensor(np.ones(5, dtype=np.float64))
        beta = Tensor(np.zeros(5, dtype=np.float64))
        out = ag.batch_norm(x, gamma, beta, training=True).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-4)

    def test_batch_norm_running_stats_drive_eval(self, rng):
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        rm = np.zeros(3, dtype=np.float32)
        rv = np.ones(3, dtype=np.float32)
        x = rng.normal(loc=2.0, size=(32, 3)).astype(np.float32)
        for _ in range(200):
            ag.batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(rm, x.mean(axis=0), atol=1e-2)
        out = ag.batch_norm(Tensor(x), gamma, beta, rm, rv, training=False).data
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=0.05)


class TestGradcheckPerOp:
    """Light per-op sweep; the acceptance suite runs the full 100-case one."""

    @pytest.mark.parametrize("op_name", sorted(op_catalog()))
    def test_op_gradient(self, op_name):
        with use_dtype(np.float64):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                for f, x in gradcheck_cases(op_name, rng):
                    err = finite_difference_check(f, x)
                    assert err < 1e-5, f"{op_name} seed {seed}: rel err {err}"

    def test_quadratic_is_exact_to_roundoff(self, rng):
        # central differences are exact for quadratics, so only float noise
        # remains
        for _ in range(5):
            x = Tensor(rng.normal(size=7).astype(np.float64))
            err = finite_difference_check(lambda t: ag.reduce_sum(ag.mul(t, t)), x)
            assert err < 1e-7

    def test_softmax_ce_tighter_bound(self, rng):
        for _ in range(5):
            logits = Tensor(rng.normal(size=(6, 5)).astype(np.float64))
            labels = rng.integers(0, 5, size=6)
            err = finite_difference_check(
                lambda t: ag.softmax_cross_entropy(t, labels), logits)
            assert err < 1e-6

    def test_nonscalar_function_rejected(self, rng):
        with pytest.raises(ValueError, match="scalar"):
            finite_difference_check(lambda t: ag.mul(t, 2.0),
                                    Tensor(rng.normal(size=3).astype(np.float64)))

    def test_float32_input_rejected(self):
        with pytest.raises(ValueError, match="float64"):
            finite_difference_check(lambda t: ag.reduce_sum(t),
                                    Tensor(np.ones(3, dtype=np.float32)))
