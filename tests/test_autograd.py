import math
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward, op_catalog, use_dtype
from pyreid.batching import batch_hard_mine

from helpers import (REFERENCE_OPS, concat, finite_difference_check, global_avg_pool,
                     global_max_pool, gradcheck_cases, pairwise_distances, reduce_sum,
                     reference_conv_bn_relu, reference_triplet_loss, slice_rows, take_pairs,
                     take_rows)


class TestTensorBasics:
    def test_shape_data_invariant(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.data.shape == (3, 4)
        assert t.data.flags["C_CONTIGUOUS"]

    def test_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).data.dtype == np.float32

    def test_use_dtype_switches_and_restores(self):
        with use_dtype(np.float64):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32
        with pytest.raises(ValueError, match="float32 or float64"):
            with use_dtype(np.int32):
                pass
        assert Tensor([1.0]).data.dtype == np.float32

    def test_item_rejects_nonscalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()


class TestBackwardContract:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        backward(reduce_sum(ag.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-6)

    def test_dead_relu_grad_zero(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        backward(reduce_sum(ag.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_relu_grad_at_exact_zero_is_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        backward(reduce_sum(ag.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_distance_gradient(self):
        # d/da ||a-b|| = (a-b)/||a-b||
        x = Tensor(np.array([[3.0, 0.0], [0.0, 4.0]]), requires_grad=True)
        d = take_pairs(pairwise_distances(x), [0], [1])
        backward(reduce_sum(d))
        assert d.data[0] == pytest.approx(5.0)
        np.testing.assert_allclose(x.grad, [[0.6, -0.8], [-0.6, 0.8]], atol=1e-6)

    def test_nonscalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(ag.mul(x, x))

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = reduce_sum(x)
        backward(loss)
        with pytest.raises(RuntimeError, match="already consumed"):
            backward(loss)

    def test_detached_tensor_rejected(self):
        with pytest.raises(RuntimeError, match="not attached"):
            backward(Tensor(np.array(1.0), requires_grad=True))

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(reduce_sum(ag.add(ag.mul(x, 3.0), ag.mul(x, 4.0))))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_add_gives_each_operand_its_own_gradient(self):
        # add passes its upstream gradient to both operands: each gets a copy
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ag.add(a, b)
        backward(reduce_sum(ag.mul(out, Tensor(np.arange(6.0).reshape(2, 3)))))
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)
        assert not np.shares_memory(b.grad, out.grad)

    @pytest.mark.parametrize("op", [lambda t: ag.transpose(t, (0, 1)),
                                    lambda t: ag.reshape(t, (2, 3))],
                             ids=["identity_transpose", "reshape"])
    def test_view_of_the_upstream_gradient_is_copied(self, op):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = op(x)
        backward(reduce_sum(ag.mul(out, Tensor(np.arange(6.0).reshape(2, 3)))))
        assert not np.shares_memory(x.grad, out.grad)


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
                              one, Tensor(np.zeros(1)), np.zeros(1), np.ones(1), 1, False)
        assert out.data.shape == (1, 5, 5, 1)
        edge = np.array([2.0, 3.0, 3.0, 3.0, 2.0])
        np.testing.assert_allclose(out.data[0, :, :, 0], np.outer(edge, edge) / np.sqrt(1 + 1e-5))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_bn_relu_matches_naive_loops(self, rng, stride):
        # eval mode with running stats mean 0, variance 1 - eps and an
        # identity affine leaves relu(convolution)
        x = rng.normal(size=(2, 6, 5, 3))
        w = rng.normal(size=(4, 3, 3, 3))
        out = ag.conv_bn_relu(Tensor(x), Tensor(w), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                              np.zeros(4), np.full(4, 1.0 - 1e-5), stride, False).data
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
                            np.ones(1), stride, True)

    def test_global_avg_pool_constant(self):
        out = global_avg_pool(Tensor(np.full((2, 3, 4, 1), 5.0)))
        np.testing.assert_allclose(out.data, [[5.0], [5.0]])

    def test_global_max_pool_picks_max(self, rng):
        x = rng.normal(size=(2, 3, 4, 5))
        out = global_max_pool(Tensor(x))
        np.testing.assert_allclose(out.data, x.max(axis=(1, 2)), rtol=1e-6)

    def test_max_pool_tie_gradient_goes_to_first(self):
        x = Tensor(np.array([[[[1.0], [1.0]], [[0.0], [0.0]]]]), requires_grad=True)
        backward(reduce_sum(global_max_pool(x)))
        np.testing.assert_array_equal(x.grad, [[[[1.0], [0.0]], [[0.0], [0.0]]]])

    def test_slice_rows_shape(self):
        out = slice_rows(Tensor(np.ones((2, 6, 2))), 2, 4)
        assert out.data.shape == (2, 2, 2)

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
            take_pairs(Tensor(np.ones((2, 2))), [0], [2])

    def test_take_rows_gathers_and_scatters_back(self, rng):
        x = Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
        out = take_rows(x, [4, 1])
        np.testing.assert_array_equal(out.data, x.data[[4, 1]])
        backward(reduce_sum(ag.mul(out, Tensor(np.stack([np.full((2, 3), 2.0),
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
        d = pairwise_distances(Tensor(x)).data
        for i in range(6):
            for j in range(6):
                ref = math.sqrt(((x[i] - x[j]) ** 2).sum() + 1e-12)
                assert d[i, j] == pytest.approx(ref, rel=1e-5)


def _block_with_grads(x, w, gamma, beta, stats, stride, training, g, track_x=True):
    """conv_bn_relu forward plus, in training, backward from upstream gradient
    `g`: (output, x, w, gamma, beta tensors); training moves `stats` in place.
    An eval output is a constant: it records no graph node."""
    xt = Tensor(x, requires_grad=track_x)
    wt, gt, bt = (Tensor(a, requires_grad=True) for a in (w, gamma, beta))
    out = ag.conv_bn_relu(xt, wt, gt, bt, *stats, stride, training)
    if training:
        backward(reduce_sum(ag.mul(out, Tensor(g))))
    else:
        assert out._prev == () and out._backward is None
    return out, xt, wt, gt, bt


def _results(got, training) -> tuple:
    """The output of `_block_with_grads`, then in training the x, w, gamma and
    beta gradients."""
    return (got[0].data,) + (tuple(t.grad for t in got[1:]) if training else ())


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
        ref = reference_conv_bn_relu(x, w, gamma, beta, *ref_stats, stride, training, g)
        got = _block_with_grads(x, w, gamma, beta, stats, stride, training, g)
        for name, a, b in zip(("out", "x", "w", "gamma", "beta"), _results(got, training), ref):
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
                                     *ref_stats, stride, training, g.astype(np.float64))
        results = _results(_block_with_grads(x, w, gamma, beta, stats, stride, training, g),
                           training)
        for a, b in zip(results + stats, ref[:len(results)] + ref_stats):
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_several_chunks_float64(self, rng, monkeypatch, stride, training, workers):
        # a budget of two images' patch rows splits 5 images 2 + 2 + 1 in
        # every pass (forward and, in training, weight gradient and, at
        # stride 1, the gather), whatever the number of worker threads that
        # share the chunks
        x, w, gamma, beta, stats, g = _block_inputs(rng, 5, 4, 7, 6, 4, stride, np.float64)
        ho, wo = g.shape[1:3]
        monkeypatch.setattr(ag, "_CHUNK_BYTES", 2 * ho * wo * 9 * 4 * 8)
        monkeypatch.setattr(ag, "_WORKERS", workers)
        passes, patch_chunks = [], ag._patch_chunks

        def spy(x, stride, ho, wo, fn, **pad):
            chunks = []
            passes.append(chunks)

            def record(lo, hi, cols):
                chunks.append((lo, hi, threading.get_ident()))
                return fn(lo, hi, cols)

            return patch_chunks(x, stride, ho, wo, record, **pad)

        monkeypatch.setattr(ag, "_patch_chunks", spy)
        ref_stats = tuple(a.copy() for a in stats)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *ref_stats, stride, training, g)
        got = _block_with_grads(x, w, gamma, beta, stats, stride, training, g)
        assert [[hi - lo for lo, hi, _ in sorted(p)] for p in passes] == \
            [[2, 2, 1]] * ((3 if stride == 1 else 2) if training else 1)
        assert all(len({t for _, _, t in p}) <= workers for p in passes)
        for name, a, b in zip(("out", "x", "w", "gamma", "beta"), _results(got, training), ref):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12, err_msg=name)
        for a, b in zip(stats, ref_stats):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("budget", [None, 1 << 16])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape,out_ch,stride", [
        ((3, 48, 16), 16, 2), ((16, 24, 8), 32, 2), ((32, 12, 4), 64, 1)])
    def test_bits_do_not_depend_on_worker_count(self, rng, monkeypatch, shape, out_ch,
                                                stride, training, budget):
        # the blocks have 6, 8 and 16 chunks at the default budget and 22, 32
        # and 64 at 64 KiB; 3 workers claim them in whatever order they come
        x, w, gamma, beta, stats, g = _block_inputs(rng, 64, *shape, out_ch, stride,
                                                    np.float32)
        if budget is not None:
            monkeypatch.setattr(ag, "_CHUNK_BYTES", budget)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(ag, "_WORKERS", workers)
            moved = tuple(a.copy() for a in stats)
            got = _block_with_grads(x, w, gamma, beta, moved, stride, training, g)
            runs.append(_results(got, training) + moved)
        names = ("out", "x", "w", "gamma", "beta")[:len(runs[0]) - 2] + ("mean", "var")
        for run in runs[1:]:
            for name, a, b in zip(names, runs[0], run):
                assert np.array_equal(a, b), name

    def test_more_workers_than_cpus_and_fast_thread_switching_keep_the_bits(self, rng,
                                                                            monkeypatch):
        # 16 one-image chunks per pass claimed by 5 threads that the
        # interpreter switches between every 10 us: a chunk claimed twice or
        # never would change or leave out rows of the output or gradients
        x, w, gamma, beta, stats, g = _block_inputs(rng, 16, 32, 12, 4, 64, 1, np.float32)
        monkeypatch.setattr(ag, "_CHUNK_BYTES", 1)
        runs = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 5, 5, 5):
                monkeypatch.setattr(ag, "_WORKERS", workers)
                got = _block_with_grads(x, w, gamma, beta, tuple(a.copy() for a in stats), 1,
                                        True, g)
                runs.append((got[0].data,) + tuple(t.grad for t in got[1:]))
        finally:
            sys.setswitchinterval(switch)
        for run in runs[1:]:
            for name, a, b in zip(("out", "x", "w", "gamma", "beta"), runs[0], run):
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("failing", [(0,), (4,), (1, 4)])
    def test_error_in_a_chunk_is_raised_after_every_chunk_finishes(self, rng, monkeypatch,
                                                                   failing):
        # 6 one-image chunks shared by 3 threads: a failing chunk raises at
        # once, every other one takes 20 ms and must finish before the first
        # error in chunk order leaves the op, whichever thread runs it
        x, w, gamma, beta, stats, g = _block_inputs(rng, 6, 4, 7, 6, 4, 1, np.float64)
        monkeypatch.setattr(ag, "_CHUNK_BYTES", 1)
        monkeypatch.setattr(ag, "_WORKERS", 3)
        finished, patch_chunks = [], ag._patch_chunks

        def failing_chunks(x, stride, ho, wo, fn, **pad):
            def chunk(lo, hi, cols):
                if lo in failing:
                    raise RuntimeError(f"chunk {lo}")
                time.sleep(0.02)
                result = fn(lo, hi, cols)
                finished.append(lo)
                return result

            return patch_chunks(x, stride, ho, wo, chunk, **pad)

        monkeypatch.setattr(ag, "_patch_chunks", failing_chunks)
        with pytest.raises(RuntimeError, match=f"chunk {failing[0]}"):
            ag.conv_bn_relu(Tensor(x), Tensor(w), Tensor(gamma), Tensor(beta), *stats, 1, True)
        assert sorted(finished) == [c for c in range(6) if c not in failing]
        # the pool is still usable, and gives the one-thread bits
        monkeypatch.setattr(ag, "_patch_chunks", patch_chunks)
        runs = []
        for workers in (3, 1):
            monkeypatch.setattr(ag, "_WORKERS", workers)
            got = _block_with_grads(x, w, gamma, beta, tuple(a.copy() for a in stats), 1,
                                    True, g)
            runs.append((got[0].data,) + tuple(t.grad for t in got[1:]))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_eval_output_is_a_constant(self, rng, stride):
        # eval records no graph node, even from inputs that require
        # gradients, and leaves the running statistics as they were
        x, w, gamma, beta, stats, g = _block_inputs(rng, 3, 4, 7, 6, 5, stride, np.float64)
        before = tuple(a.copy() for a in stats)
        out = ag.conv_bn_relu(*(Tensor(a, requires_grad=True) for a in (x, w, gamma, beta)),
                              *stats, stride, False)
        assert out._prev == () and out._backward is None
        for a, b in zip(stats, before):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(RuntimeError, match="not attached to a graph"):
            backward(reduce_sum(ag.mul(out, Tensor(g))))

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

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("images_per_chunk", [1, 2, 3, 7])
    def test_eval_pads_each_chunk_float64(self, rng, monkeypatch, images_per_chunk, stride):
        # 7 images in chunks of 1, 2, 3 or 7, the last one short but for 1
        # and 7, each padded in its thread's scratch: the output is the
        # reference's, both when the chunks are shared and when the call
        # runs inside a task, as an eval tile's does, on one thread
        x, w, gamma, beta, stats, g = _block_inputs(rng, 7, 4, 7, 6, 5, stride, np.float64)
        ho, wo = g.shape[1:3]
        monkeypatch.setattr(ag, "_CHUNK_BYTES", images_per_chunk * ho * wo * 9 * 4 * 8)
        monkeypatch.setattr(ag, "_WORKERS", 2)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *stats, stride, False, g)[0]
        shared = _block_with_grads(x, w, gamma, beta, stats, stride, False, g)[0].data
        tile = ag._share_tasks(1, lambda: lambda i: _block_with_grads(
            x, w, gamma, beta, stats, stride, False, g)[0].data)[0]
        np.testing.assert_allclose(shared, ref, rtol=1e-10, atol=1e-12)
        assert np.array_equal(tile, shared)

    def test_eval_scratch_stays_below_a_padded_map(self, rng, monkeypatch):
        # the stride-2 (16 -> 32, 24x8) backbone block at B = 256 on two
        # threads: eval must peak below one zero-padded copy of the batch,
        # which alone is larger than its output plus the chunks' scratch
        x, w, gamma, beta, stats, _ = _block_inputs(rng, 256, 16, 24, 8, 32, 2, np.float32)
        monkeypatch.setattr(ag, "_WORKERS", 2)
        padded = x[:, :1, :1].size * 26 * 10 * 4
        tracemalloc.start()
        try:
            ag.conv_bn_relu(Tensor(x), Tensor(w), Tensor(gamma), Tensor(beta), *stats, 2, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < padded, f"peak {peak / 2**20:.2f} MiB, padded map {padded / 2**20:.2f} MiB"

    @pytest.mark.parametrize("c", [3, 5])
    def test_untracked_input_gets_no_gradient(self, rng, c):
        x, w, gamma, beta, stats, g = _block_inputs(rng, 2, c, 6, 5, 4, 2, np.float64)
        ref = reference_conv_bn_relu(x, w, gamma, beta, *(a.copy() for a in stats), 2, True, g)
        _, xt, wt, _, _ = _block_with_grads(x, w, gamma, beta, stats, 2, True, g,
                                            track_x=False)
        assert xt.grad is None
        np.testing.assert_allclose(wt.grad, ref[2], rtol=1e-10, atol=1e-12)

    def test_gradients_are_c_contiguous(self, rng):
        for c in (3, 5):
            x, w, gamma, beta, stats, g = _block_inputs(rng, 2, c, 6, 5, 4, 1, np.float64)
            got = _block_with_grads(x, w, gamma, beta, stats, 1, True, g)
            assert all(t.grad.flags["C_CONTIGUOUS"] for t in got[1:])


class TestShareTasks:
    """The worker threads that conv_bn_relu's chunks and rank_gallery's
    query blocks share."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_results_in_task_order(self, monkeypatch, workers):
        monkeypatch.setattr(ag, "_WORKERS", workers)
        threads = set()

        def task(i):
            threads.add(threading.get_ident())
            time.sleep(0.001 * (i % 3))
            return i * i

        assert ag._share_tasks(9, lambda: task) == [i * i for i in range(9)]
        assert len(threads) <= workers
        assert ag._share_tasks(0, lambda: task) == []

    def test_first_error_in_task_order_after_every_task(self, monkeypatch):
        # task 4 fails at once and task 1 late: task 1's error leaves, once
        # the slow task 2 has finished too
        monkeypatch.setattr(ag, "_WORKERS", 3)
        finished = []

        def task(i):
            if i == 1:
                time.sleep(0.03)
            if i in (1, 4):
                raise RuntimeError(f"task {i}")
            time.sleep(0.06 if i == 2 else 0.0)
            finished.append(i)

        with pytest.raises(RuntimeError, match="task 1"):
            ag._share_tasks(6, lambda: task)
        assert sorted(finished) == [0, 2, 3, 5]

    def test_helpers_let_go_of_the_call_before_it_returns(self, monkeypatch):
        # the calling thread frees its arrays and the tasks' scratch, so where
        # that falls, and the peak memory, does not move with thread timing;
        # 4 helpers on 4 slow tasks, switched every 10 us: some come too late,
        # while others are still in a task
        monkeypatch.setattr(ag, "_WORKERS", 5)

        class Array:
            pass

        def call():
            data = Array()  # one of the caller's arrays
            refs = [weakref.ref(data)]

            def worker():
                scratch = Array()
                refs.append(weakref.ref(scratch))
                return lambda i: (data, scratch, time.sleep(0.001)) and i

            assert ag._share_tasks(4, worker) == [0, 1, 2, 3]
            return refs

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(200):
                assert all(ref() is None for ref in call())
        finally:
            sys.setswitchinterval(switch)

    def test_a_call_inside_a_task_runs_on_its_thread_in_order(self, monkeypatch):
        # 2 tasks on 2 of 5 threads each share 4 tasks of their own: no idle
        # helper claims one of those, and they run one after another in order
        monkeypatch.setattr(ag, "_WORKERS", 5)

        def outer(i):
            ran = []

            def inner(j):
                ran.append((j, threading.get_ident()))
                time.sleep(0.001)
                return i * 10 + j

            got = ag._share_tasks(4, lambda: inner)
            return got, ran, threading.get_ident()

        for i, (got, ran, thread) in enumerate(ag._share_tasks(2, lambda: outer)):
            assert got == [i * 10 + j for j in range(4)]
            assert ran == [(j, thread) for j in range(4)]

    def test_a_call_inside_a_task_raises_its_first_error_after_every_task(self,
                                                                         monkeypatch):
        monkeypatch.setattr(ag, "_WORKERS", 3)

        def outer(i):
            finished = []

            def inner(j):
                if j in (1, 3):
                    raise RuntimeError(f"task {i}.{j}")
                finished.append(j)

            try:
                ag._share_tasks(5, lambda: inner)
            except RuntimeError as exc:
                return str(exc), finished

        assert ag._share_tasks(4, lambda: outer) == [(f"task {i}.1", [0, 2, 4])
                                                     for i in range(4)]

    def test_helpers_run_in_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(ag, "_WORKERS", 3)

        def task(i):
            time.sleep(0.01)
            return np.geterr()["invalid"]

        with np.errstate(invalid="ignore"):
            assert ag._share_tasks(6, lambda: task) == ["ignore"] * 6


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


def _triplet_with_grad(loss_fn, x, labels, margin):
    t = Tensor(x, requires_grad=True)
    loss = loss_fn(t, labels, margin)
    backward(loss)
    return loss.data, t.grad


class TestBatchHardTripletAgainstReference:
    """The one-op triplet loss takes its distances from a float64 Gram matrix,
    the generic-op graph from the (B, B, D) row differences: loss and
    gradient agree within the rounding of the input dtype."""

    @staticmethod
    def _batch(rng, shape):
        b, dim = shape
        labels = np.repeat(np.arange(b // 4), 4)  # a P x K batch, K = 4
        x = rng.normal(size=(b // 4, dim))[labels] + rng.normal(size=shape)
        # the median hardest-pair gap as margin leaves about half the hinges active
        d = pairwise_distances(Tensor(x)).data
        hp, hn = batch_hard_mine(d, labels)
        return x, labels, float(np.median(d[np.arange(b), hn] - d[np.arange(b), hp]))

    @pytest.mark.parametrize("shape", [(16, 336), (64, 128), (64, 2688)])
    def test_float32(self, rng, shape):
        x, labels, margin = self._batch(rng, shape)
        x = x.astype(np.float32)
        loss, grad = _triplet_with_grad(ag.batch_hard_triplet, x, labels, margin)
        ref_loss, ref_grad = _triplet_with_grad(reference_triplet_loss, x, labels, margin)
        assert loss.dtype == grad.dtype == np.float32
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-5)
        assert np.abs(grad - ref_grad).max() <= 1e-6 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("shape", [(16, 336), (64, 128), (64, 2688)])
    def test_float64(self, rng, shape):
        x, labels, margin = self._batch(rng, shape)
        with use_dtype(np.float64):
            loss, grad = _triplet_with_grad(ag.batch_hard_triplet, x, labels, margin)
            ref_loss, ref_grad = _triplet_with_grad(reference_triplet_loss, x, labels, margin)
        assert loss.dtype == grad.dtype == np.float64
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        assert np.abs(grad - ref_grad).max() <= 1e-13 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tied_negatives_send_the_gradient_to_the_first(self, rng, dtype):
        # rows 3 and 60 are bitwise equal, the only members of identity 1,
        # and tie as anchor 0's hardest negative; every row shares one large
        # random offset, so the Gram entries are large and BLAS sums them at
        # different kernel positions. Only anchor 0's hinge is active, so row
        # 60 must get no gradient at all.
        b, dim, j, k = 64, 2688, 3, 60
        labels = np.empty(b, dtype=np.int64)
        geometry = np.zeros((b, dim))
        labels[[0, 1]] = 0
        geometry[1, 0] = 1.0  # anchor 0's positive, at distance 1
        labels[[j, k]] = 1
        geometry[[j, k], 1] = 1.5  # tied negatives, at distance 1.5
        others = np.setdiff1d(np.arange(b), [0, 1, j, k])
        labels[others] = 2 + np.arange(len(others)) // 2
        # every other pair sits 10 apart from everything, 0.5 apart inside
        geometry[others, 2 + np.arange(len(others)) // 2] = 10.0
        geometry[others[1::2], dim - 1] = 0.5
        x = (geometry + rng.normal(size=dim)).astype(dtype)
        assert x[j].tobytes() == x[k].tobytes()
        with use_dtype(dtype):
            loss, grad = _triplet_with_grad(ag.batch_hard_triplet, x, labels, 0.6)
        np.testing.assert_allclose(loss, (1.0 - 1.5 + 0.6) / b, rtol=1e-4)
        assert not grad[k].any()
        assert np.abs(grad[j]).max() > 1e-3
        assert not np.delete(grad, [0, 1, j], axis=0).any()

    def test_memory_stays_below_a_difference_tensor(self, rng):
        # forward plus backward at the paper's full-pyramid shape (B = 64,
        # D = 21 x 128) must hold no (B, B, D) tensor: it alone is 42 MiB
        x = rng.normal(size=(64, 2688)).astype(np.float32)
        labels = np.repeat(np.arange(16), 4)
        tracemalloc.start()
        try:
            _triplet_with_grad(ag.batch_hard_triplet, x, labels, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_rejects_a_batch_without_a_valid_anchor(self):
        with pytest.raises(ValueError, match="no anchor"):
            ag.batch_hard_triplet(Tensor(np.ones((3, 2))), [0, 1, 2], 1.0)


class TestCatalogInvariants:
    def test_catalog_covers_required_primitives(self):
        names = set(op_catalog())
        # exactly the ops the model and its two losses record
        used = {"add", "mul", "relu", "matmul", "conv_bn_relu", "batch_norm", "stripe_pool",
                "transpose", "reshape", "softmax_cross_entropy", "batch_hard_triplet"}
        assert names == used
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
        out = ag.batch_norm(x, gamma, beta, np.zeros(5), np.ones(5), training=True).data
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

    def test_batch_norm_eval_output_is_a_constant(self, rng):
        x, gamma, beta = (Tensor(rng.normal(size=shape), requires_grad=True)
                          for shape in ((4, 3), (3,), (3,)))
        out = ag.batch_norm(x, gamma, beta, rng.normal(size=3), rng.uniform(0.5, 2.0, size=3),
                            training=False)
        assert out._prev == () and out._backward is None
        with pytest.raises(RuntimeError, match="not attached to a graph"):
            backward(reduce_sum(ag.mul(out, out)))


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
            err = finite_difference_check(lambda t: reduce_sum(ag.mul(t, t)), x)
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
            finite_difference_check(lambda t: reduce_sum(t),
                                    Tensor(np.ones(3, dtype=np.float32)))
