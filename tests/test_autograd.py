import math
import tracemalloc

import numpy as np
import pytest

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward, no_grad, op_catalog, use_dtype
from pyreid.gradcheck import finite_difference_check

from helpers import (REFERENCE_OPS, concat, global_avg_pool, global_max_pool,
                     gradcheck_cases, reference_conv_bn_relu, slice_rows, take_rows)


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

    def test_conv_bn_relu_all_ones_eval(self):
        # ones through a ones kernel with padding 1: 9 inside, 6 on an edge,
        # 4 in a corner; eval BN with zero mean and unit variance passes
        # them through up to the sqrt(1 + eps) of the variance floor
        one = Tensor(np.ones(1))
        out = ag.conv_bn_relu(Tensor(np.ones((1, 5, 5, 1))), Tensor(np.ones((1, 1, 3, 3))),
                              one, Tensor(np.zeros(1)), np.zeros(1), np.ones(1), 1, False,
                              0.1, 1e-5)
        assert out.shape == (1, 5, 5, 1)
        edge = np.array([2.0, 3.0, 3.0, 3.0, 2.0])
        np.testing.assert_allclose(out.data[0, :, :, 0], np.outer(edge, edge) / np.sqrt(1 + 1e-5))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_bn_relu_matches_naive_loops(self, rng, stride):
        # eval mode with running stats mean 0, variance 1 - eps and an
        # identity affine leaves relu(convolution)
        x = rng.normal(size=(2, 6, 5, 3))
        w = rng.normal(size=(4, 3, 3, 3))
        out = ag.conv_bn_relu(Tensor(x), Tensor(w), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                              np.zeros(4), np.full(4, 1.0 - 1e-5), stride, False, 0.1,
                              1e-5).data
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        ho, wo = (6 - 1) // stride + 1, (5 - 1) // stride + 1
        ref = np.zeros((2, ho, wo, 4))
        for n in range(2):
            for o in range(4):
                for i in range(ho):
                    for j in range(wo):
                        patch = xp[n, i * stride:i * stride + 3, j * stride:j * stride + 3]
                        ref[n, i, j, o] = max(0.0, (patch * w[o].transpose(1, 2, 0)).sum())
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("x_shape, w_shape, stride, message", [
        ((1, 4, 4, 2), (1, 3, 3, 3), 1, "channel mismatch"),
        ((1, 4, 4, 3), (1, 3, 2, 2), 1, "channel mismatch"),
        ((1, 3, 4, 4), (1, 3, 3, 3), 1, "channel mismatch"),
        ((4, 4, 3), (1, 3, 3, 3), 1, "4-D"),
        ((1, 4, 4, 3), (1, 3, 3, 3), 3, "stride")])
    def test_conv_bn_relu_bad_arguments(self, x_shape, w_shape, stride, message):
        with pytest.raises(ValueError, match=message):
            ag.conv_bn_relu(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)),
                            Tensor(np.ones(1)), Tensor(np.zeros(1)), np.zeros(1),
                            np.ones(1), stride, True, 0.1, 1e-5)

    def test_global_avg_pool_constant(self):
        out = global_avg_pool(Tensor(np.full((2, 3, 4), 5.0)))
        np.testing.assert_allclose(out.data, [5.0, 5.0])

    def test_global_max_pool_picks_max(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = global_max_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.max(axis=(2, 3)), rtol=1e-6)

    def test_max_pool_tie_gradient_goes_to_first(self):
        x = Tensor(np.array([[[1.0, 1.0], [0.0, 0.0]]]), requires_grad=True)
        backward(ag.reduce_sum(global_max_pool(x)))
        np.testing.assert_array_equal(x.grad, [[[1.0, 0.0], [0.0, 0.0]]])

    def test_slice_rows_shape(self):
        out = slice_rows(Tensor(np.ones((2, 6, 2))), 2, 4)
        assert out.shape == (2, 2, 2)

    def test_slice_rows_bounds(self):
        with pytest.raises(ValueError, match="out of bounds"):
            slice_rows(Tensor(np.ones((2, 6, 2))), 4, 8)

    def test_concat_then_slice_roundtrip(self, rng):
        a = rng.normal(size=(2, 3, 4)).astype(np.float32)
        b = rng.normal(size=(2, 5, 4)).astype(np.float32)
        cat = concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_array_equal(slice_rows(cat, 0, 3).data, a)
        np.testing.assert_array_equal(slice_rows(cat, 3, 8).data, b)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ValueError, match="concat"):
            concat([Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))], axis=1)

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
        out = take_rows(x, [4, 1])
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
            take_rows(Tensor(np.ones((5, 2))), rows)

    def test_pairwise_matches_direct(self, rng):
        x = rng.normal(size=(6, 4))
        d = ag.pairwise_distances(Tensor(x)).data
        for i in range(6):
            for j in range(6):
                ref = math.sqrt(((x[i] - x[j]) ** 2).sum() + 1e-12)
                assert d[i, j] == pytest.approx(ref, rel=1e-5)


def _block_with_grads(x, w, gamma, beta, stats, stride, training, g, track_x=True):
    """conv_bn_relu forward plus backward from upstream gradient `g`:
    (output, x, w, gamma, beta tensors); `stats` is moved in place."""
    xt = Tensor(x, requires_grad=track_x)
    wt, gt, bt = (Tensor(a, requires_grad=True) for a in (w, gamma, beta))
    out = ag.conv_bn_relu(xt, wt, gt, bt, *stats, stride, training, 0.1, 1e-5)
    backward(ag.reduce_sum(ag.mul(out, Tensor(g))))
    return out, xt, wt, gt, bt


def _block_inputs(rng, batch, c, h, wd, out_ch, stride, dtype):
    """A block's input, fan-in-scaled kernel, affine, running stats and an
    upstream gradient scaled by 1/sqrt(N*Ho*Wo), so that the output and
    every gradient are of order one."""
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    return (rng.normal(size=(batch, h, wd, c)).astype(dtype),
            (rng.normal(size=(out_ch, c, 3, 3)) / np.sqrt(9 * c)).astype(dtype),
            rng.uniform(0.5, 1.5, size=out_ch).astype(dtype),
            rng.normal(size=out_ch).astype(dtype),
            (rng.normal(size=out_ch).astype(dtype), rng.uniform(0.5, 2.0, size=out_ch)
             .astype(dtype)),
            (rng.normal(size=(batch, ho, wo, out_ch)) / np.sqrt(batch * ho * wo)).astype(dtype))


class TestConvBnReluAgainstUnfusedReference:
    """The fused block against einsum convolution + textbook batch norm + ReLU."""

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("c", [3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_forward_gradients_and_running_stats_float64(self, rng, stride, c, training):
        x, w, gamma, beta, stats, g = _block_inputs(rng, 3, c, 7, 6, 4, stride, np.float64)
        ref_stats = tuple(a.copy() for a in stats)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *ref_stats, stride, training,
                                     0.1, 1e-5, g)
        got = _block_with_grads(x, w, gamma, beta, stats, stride, training, g)
        for name, a, b in zip(("out", "x", "w", "gamma", "beta"),
                              (got[0].data,) + tuple(t.grad for t in got[1:]), ref):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=name)
        for a, b in zip(stats, ref_stats):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("batch", [16, 64])
    @pytest.mark.parametrize("shape,out_ch,stride", [
        ((3, 48, 16), 16, 2), ((16, 24, 8), 32, 2), ((32, 12, 4), 64, 1)])
    def test_backbone_shapes_float32(self, rng, batch, shape, out_ch, stride, training):
        # The reference runs in float64 on the same float32 inputs.
        x, w, gamma, beta, stats, g = _block_inputs(rng, batch, *shape, out_ch, stride,
                                                    np.float32)
        ref_stats = tuple(a.astype(np.float64) for a in stats)
        ref = reference_conv_bn_relu(*(a.astype(np.float64) for a in (x, w, gamma, beta)),
                                     *ref_stats, stride, training, 0.1, 1e-5,
                                     g.astype(np.float64))
        got = _block_with_grads(x, w, gamma, beta, stats, stride, training, g)
        for a, b in zip((got[0].data,) + tuple(t.grad for t in got[1:]) + stats,
                        ref[:5] + ref_stats):
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_several_chunks_float64(self, rng, monkeypatch, stride, training):
        # a budget of two images' patch rows splits 5 images 2 + 2 + 1 in
        # every pass: forward, weight gradient and (stride 1) the gather
        x, w, gamma, beta, stats, g = _block_inputs(rng, 5, 4, 7, 6, 4, stride, np.float64)
        ho, wo = g.shape[1:3]
        monkeypatch.setattr(ag, "_CHUNK_BYTES", 2 * ho * wo * 9 * 4 * 8)
        chunks, patch_chunks = [], ag._patch_chunks

        def spy(*args):
            chunks.append([])
            for lo, hi, cols in patch_chunks(*args):
                chunks[-1].append(hi - lo)
                yield lo, hi, cols

        monkeypatch.setattr(ag, "_patch_chunks", spy)
        ref_stats = tuple(a.copy() for a in stats)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *ref_stats, stride, training,
                                     0.1, 1e-5, g)
        got = _block_with_grads(x, w, gamma, beta, stats, stride, training, g)
        assert chunks == [[2, 2, 1]] * (3 if stride == 1 else 2)
        for name, a, b in zip(("out", "x", "w", "gamma", "beta"),
                              (got[0].data,) + tuple(t.grad for t in got[1:]), ref):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=name)
        for a, b in zip(stats, ref_stats):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_eval_gradients_use_the_statistics_of_their_forward(self, rng, stride):
        # a training forward between an eval forward and its backward moves
        # the shared running statistics; the eval gradients must not see it
        x, w, gamma, beta, stats, g = _block_inputs(rng, 3, 4, 7, 6, 5, stride, np.float64)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *(a.copy() for a in stats), stride,
                                     False, 0.1, 1e-5, g)
        xt = Tensor(x, requires_grad=True)
        wt, gt, bt = (Tensor(a, requires_grad=True) for a in (w, gamma, beta))
        out = ag.conv_bn_relu(xt, wt, gt, bt, *stats, stride, False, 0.1, 1e-5)
        before = tuple(a.copy() for a in stats)
        ag.conv_bn_relu(Tensor(x), Tensor(w), Tensor(gamma), Tensor(beta), *stats, stride,
                        True, 0.1, 1e-5)
        assert not any(np.array_equal(a, b) for a, b in zip(stats, before))
        backward(ag.reduce_sum(ag.mul(out, Tensor(g))))
        for name, t, b in zip(("x", "w", "gamma", "beta"), (xt, wt, gt, bt), ref[1:5]):
            np.testing.assert_allclose(t.grad, b, rtol=1e-10, atol=1e-12, err_msg=name)

    def test_scratch_memory_stays_below_full_patch_matrices(self, rng):
        # the stride-1 (32 -> 64, 12x4) backbone block at B = 64: one
        # forward plus backward must peak below a full (M, 9C) patch matrix
        # plus a full (M, 9Co) gather matrix, which an unchunked op holds
        x, w, gamma, beta, stats, g = _block_inputs(rng, 64, 32, 12, 4, 64, 1, np.float32)
        m = 64 * 12 * 4
        full = m * 9 * 32 * 4 + m * 9 * 64 * 4
        tracemalloc.start()
        try:
            _block_with_grads(x, w, gamma, beta, stats, 1, True, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full, f"peak {peak / 2**20:.1f} MiB, full matrices {full / 2**20:.1f} MiB"

    @pytest.mark.parametrize("c", [3, 5])
    def test_untracked_input_gets_no_gradient(self, rng, c):
        x, w, gamma, beta, stats, g = _block_inputs(rng, 2, c, 6, 5, 4, 2, np.float64)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *(a.copy() for a in stats), 2,
                                     True, 0.1, 1e-5, g)
        _, xt, wt, _, _ = _block_with_grads(x, w, gamma, beta, stats, 2, True, g,
                                            track_x=False)
        assert xt.grad is None
        np.testing.assert_allclose(wt.grad, ref[2], rtol=1e-10, atol=1e-12)

    def test_gradients_are_c_contiguous(self, rng):
        for c in (3, 5):
            x, w, gamma, beta, stats, g = _block_inputs(rng, 2, c, 6, 5, 4, 1, np.float64)
            got = _block_with_grads(x, w, gamma, beta, stats, 1, True, g)
            assert all(t.grad.flags["C_CONTIGUOUS"] for t in got[1:])


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
        required = {"add", "sub", "mul", "matmul", "conv_bn_relu", "relu", "batch_norm",
                    "softmax_cross_entropy", "reduce_sum", "reduce_mean"}
        assert required <= names
        assert not names & set(REFERENCE_OPS)

    def test_max_pool_dominates_avg_pool(self, rng):
        for _ in range(20):
            x = Tensor(rng.normal(size=(3, 5, 4)))
            assert (global_max_pool(x).data >= global_avg_pool(x).data - 1e-7).all()

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
    """Light per-op sweep, also over the ops the per-branch reference uses;
    the acceptance suite runs the full 100-case one over the catalog."""

    @pytest.mark.parametrize("op_name", sorted(op_catalog()) + list(REFERENCE_OPS))
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
