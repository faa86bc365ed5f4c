import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pyreid.autograd as ag
from pyreid.autograd import Tensor, backward
from pyreid.scheduler import (P_FLOOR, Phase, SchedulerState, focal_weight,
                              loss_reduction_prob, select_phase, update_ema)

from helpers import reduce_sum


class TestEma:
    def test_direct_arithmetic(self):
        assert update_ema(2.0, 1.0, 0.25) == pytest.approx(1.75)

    def test_alpha_zero_keeps_previous(self):
        assert update_ema(2.0, 99.0, 0.0) == 2.0

    def test_alpha_one_is_memoryless(self):
        assert update_ema(2.0, 99.0, 1.0) == 99.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 100.0), st.floats(0.001, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_bracketing(self, alpha, loss, k_prev):
        k = update_ema(k_prev, loss, alpha)
        assert min(loss, k_prev) - 1e-9 <= k <= max(loss, k_prev) + 1e-9


class TestLossReductionProb:
    def test_continuation_of_ema_example(self):
        assert loss_reduction_prob(1.75, 2.0) == pytest.approx(0.875)

    def test_increase_normalizes_to_one(self):
        assert loss_reduction_prob(2.2, 2.0) == 1.0

    def test_no_change_is_one(self):
        assert loss_reduction_prob(3.0, 3.0) == 1.0

    def test_clamped_below(self):
        assert loss_reduction_prob(0.0, 1.0) == P_FLOOR

    def test_nonpositive_k_prev_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            loss_reduction_prob(1.0, 0.0)


class TestFocalWeight:
    def test_zero_at_one_exactly(self):
        assert focal_weight(1.0) == 0.0

    def test_direct_values(self):
        assert focal_weight(0.875) == pytest.approx(0.002086, abs=1e-6)
        assert focal_weight(0.5) == pytest.approx(0.25 * math.log(2), rel=1e-9)
        assert focal_weight(0.5) == pytest.approx(0.17329, abs=1e-5)

    def test_monotone_decreasing_on_unit_interval(self):
        ps = np.linspace(1e-6, 1.0, 10_000)
        vals = [focal_weight(float(p)) for p in ps]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0

    def test_floor_is_large_but_finite(self):
        v = focal_weight(0.0)  # stored as the clamp floor
        assert np.isfinite(v)
        assert v > 20.0


class TestSelectPhase:
    def test_initialization_forces_id_only(self):
        fl_id = focal_weight(P_FLOOR)  # p_id = 0 at init, stored clamped
        fl_tp = focal_weight(1.0)
        assert select_phase(fl_id, fl_tp, Phase.COMBINED) is Phase.ID_ONLY

    def test_equal_weights_go_combined(self):
        assert select_phase(0.3, 0.3, Phase.ID_ONLY) is Phase.COMBINED

    def test_zero_id_weight_with_triplet_pressure(self):
        assert select_phase(0.0, 0.1, Phase.ID_ONLY) is Phase.COMBINED

    def test_both_zero_retains_previous(self):
        assert select_phase(0.0, 0.0, Phase.ID_ONLY) is Phase.ID_ONLY
        assert select_phase(0.0, 0.0, Phase.COMBINED) is Phase.COMBINED

    def test_strictly_less_boundary(self):
        # ratio exactly delta is not "< delta": combined
        assert select_phase(1.0, 0.16, Phase.ID_ONLY) is Phase.COMBINED
        assert select_phase(1.0, 0.159, Phase.ID_ONLY) is Phase.ID_ONLY

    def test_scale_invariance(self, rng):
        for _ in range(100):
            fl_id = float(rng.uniform(1e-6, 10))
            fl_tp = float(rng.uniform(0, 10))
            base = select_phase(fl_id, fl_tp, Phase.ID_ONLY)
            for c in (1e-3, 0.5, 7.0, 1e4):
                assert select_phase(c * fl_id, c * fl_tp, Phase.ID_ONLY) is base

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            select_phase(-0.1, 0.0, Phase.ID_ONLY)


def combined(fl_id: float, fl_tp: float, policy: str = "dynamic") -> SchedulerState:
    return SchedulerState(policy=policy, phase=Phase.COMBINED, fl_id=fl_id, fl_tp=fl_tp)


class TestObjective:
    def test_id_only_iteration_optimizes_the_id_loss(self):
        l_id, l_tp = Tensor(3.0), Tensor(99.0)
        state = SchedulerState(phase=Phase.ID_ONLY, fl_id=0.5, fl_tp=0.25)
        assert state.tracks_triplet
        assert state.objective(l_id, l_tp) is l_id

    @pytest.mark.parametrize("phase", list(Phase))
    @pytest.mark.parametrize("weights", [(0.0, 0.0), (0.5, 0.25)])
    def test_no_triplet_optimizes_the_id_loss_in_both_phases(self, phase, weights):
        l_id = Tensor(3.0)
        state = SchedulerState(policy="no_triplet", phase=phase, fl_id=weights[0],
                               fl_tp=weights[1])
        assert not state.tracks_triplet
        assert state.objective(l_id, None) is l_id

    def test_zero_triplet_weight_reduces_to_id(self):
        assert combined(0.5, 0.0).objective(Tensor(3.0), Tensor(99.0)).item() == 1.5

    def test_arithmetic(self):
        assert combined(0.5, 0.25).objective(Tensor(2.0), Tensor(4.0)).item() == 2.0

    def test_float32_weighted_sum_bits(self, rng):
        # FL_id * L_id + FL_tp * L_tp, each product rounded to float32 first
        for _ in range(50):
            l_id, l_tp = rng.uniform(0, 10, size=2).astype(np.float32)
            fl_id, fl_tp = (float(w) for w in rng.uniform(0, 3, size=2))
            loss = combined(fl_id, fl_tp).objective(Tensor(l_id), Tensor(l_tp))
            assert loss.data.dtype == np.float32
            assert loss.data == np.float32(fl_id) * l_id + np.float32(fl_tp) * l_tp

    def test_both_zero_weights_give_no_update(self):
        assert combined(0.0, 0.0).objective(Tensor(5.0), Tensor(7.0)) is None

    def test_gradient_reaches_both_losses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward(combined(0.5, 0.25).objective(reduce_sum(x), reduce_sum(ag.mul(x, x))))
        assert x.grad[0] == pytest.approx(0.5 + 0.25 * 2 * 2.0)

    def test_id_only_backward_skips_the_tracked_triplet_loss(self):
        # the tracked L_tp shares the embedding but is not reached from L_id
        x = Tensor(np.array([2.0]), requires_grad=True)
        l_tp = reduce_sum(ag.mul(x, x))
        backward(SchedulerState(phase=Phase.ID_ONLY).objective(reduce_sum(x), l_tp))
        assert x.grad[0] == 1.0
        assert l_tp.grad is None and not l_tp._done


class TestSchedulerState:
    def test_first_iteration_is_id_only(self):
        state = SchedulerState()
        assert state.begin_iteration() is Phase.ID_ONLY
        assert state.tau == 1

    def test_second_iteration_still_id_only(self):
        # after one observation both probabilities are exactly 1, both focal
        # weights are 0, and the previous phase is retained
        state = SchedulerState()
        state.begin_iteration()
        state.observe(10.0, 1.0)
        assert state.begin_iteration() is Phase.ID_ONLY

    def test_first_observation_seeds_k_with_l0(self):
        state = SchedulerState()
        state.observe(8.0, None)
        assert state.id_stats.k == 8.0
        assert state.id_stats.p == 1.0

    def test_ema_example_trajectory(self):
        state = SchedulerState()
        state.observe(2.0, None)
        state.observe(1.0, None)
        assert state.id_stats.k == pytest.approx(1.75)
        assert state.id_stats.p == pytest.approx(0.875)

    def test_zero_loss_pins_probability_to_one(self):
        # an exactly-zero loss cannot reduce further; without the pin the EMA
        # decays geometrically and p sticks at 1 - alpha forever
        state = SchedulerState()
        state.observe(1.0, 0.5)
        for _ in range(5):
            state.observe(1.0, 0.0)
        assert state.tp_stats.p == 1.0

    @pytest.mark.parametrize("tp_before", [None, 0.7])
    def test_unmeasured_triplet_loss_leaves_its_average(self, tp_before):
        # a batch without a valid anchor measures no L_tp; the L_id still counts
        state = SchedulerState()
        state.observe(3.0, tp_before)
        state.observe(2.0, 0.5)
        bits = lambda stats: struct.pack("<2d", stats.k, stats.p)
        before = bits(state.tp_stats)
        state.observe(1.5, None)
        assert bits(state.tp_stats) == before
        assert state.id_stats.k == pytest.approx(0.25 * 1.5 + 0.75 * 2.75)

    def test_deterministic_trajectories(self, rng):
        losses = rng.uniform(0.1, 5.0, size=50)
        runs = []
        for _ in range(2):
            state = SchedulerState()
            log = []
            for v in losses:
                state.begin_iteration()
                state.observe(float(v), float(v) * 0.5)
                log.append((state.phase, state.id_stats.k, state.id_stats.p,
                            state.fl_id, state.fl_tp))
            runs.append(log)
        assert runs[0] == runs[1]

    def test_scalar_roundtrip(self):
        state = SchedulerState()
        state.begin_iteration()
        state.observe(4.0, None)
        state.begin_iteration()
        state.observe(3.0, 1.0)
        back = SchedulerState()
        back.restore(state.to_scalars())
        # the focal weights are recomputed by the next iteration
        assert back.begin_iteration() is state.begin_iteration()
        assert back == state

    def test_restore_keeps_own_policy(self):
        # the dynamic policy stays ID-only here; the restored state alternates
        state = SchedulerState()
        state.begin_iteration()
        state.observe(5.0, None)
        back = SchedulerState(policy="no_triplet")
        back.restore(state.to_scalars())
        assert sorted(state.to_scalars()) == ["k_id", "k_tp", "p_id", "p_tp", "phase", "tau"]
        assert back.policy == "no_triplet" and back.tau == 1
        assert [back.begin_iteration() for _ in range(2)] == [Phase.COMBINED, Phase.ID_ONLY]
        assert [state.begin_iteration() for _ in range(2)] == [Phase.ID_ONLY, Phase.ID_ONLY]


class TestAlternatingPolicy:
    def test_alternates_whatever_the_focal_weights(self):
        state = SchedulerState(policy="no_triplet")
        phases = []
        for loss in (5.0, 4.0, 3.0, 3.0, 2.0, 0.0):
            phases.append(state.begin_iteration())
            state.observe(loss, 1.0)
        assert phases == [Phase.ID_ONLY, Phase.COMBINED] * 3

    def test_focal_weights_still_tracked(self):
        plain, alternating = SchedulerState(), SchedulerState(policy="no_triplet")
        for loss in (5.0, 4.0, 3.5):
            for state in (plain, alternating):
                state.begin_iteration()
                state.observe(loss, None)
        assert (alternating.tau, alternating.fl_id, alternating.fl_tp) == \
            (plain.tau, plain.fl_id, plain.fl_tp)
