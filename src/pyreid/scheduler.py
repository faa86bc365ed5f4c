"""Dynamic two-loss weighting.

Each task's loss is tracked by an exponential moving average
k = alpha * L + (1 - alpha) * k_prev, turned into a loss-reduction
probability p = min(k, k_prev) / k_prev, and weighted by the focal measure
FL(p, gamma) = -(1 - p)^gamma * log(p). FL(1) is exactly 0, so a task whose
loss has stopped falling loses its weight. The phase rule compares
FL_tp / FL_id against the switch ratio: below it the trainer runs an
ID-only iteration on a random batch, otherwise a combined iteration on an
ID-balanced batch. The loss policy `no_triplet` (the ablation) alternates
the two phases instead and optimizes the ID loss alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from . import autograd as ag

# the method's fixed values: the EMA weight alpha of the newest loss, the
# focal exponent gamma and the phase rule's switch ratio
ALPHA, GAMMA, SWITCH_RATIO = 0.25, 2.0, 0.16

P_FLOOR = 1e-12

# A loss at (numerically) zero cannot reduce further; its reduction
# probability is pinned to 1 so the focal weight releases the task.
# Without this, an exactly-zero loss stream decays the EMA geometrically
# and p sticks at 1 - alpha forever.
ZERO_LOSS_EPS = 1e-12

LOSS_POLICIES = ("dynamic", "no_triplet")

TRACE_COLUMNS = ("tau", "phase", "L_id", "L_tp", "k_id", "k_tp",
                 "p_id", "p_tp", "FL_id", "FL_tp", "lr")


class Phase(str, enum.Enum):
    ID_ONLY = "id_only"
    COMBINED = "combined"

    def __str__(self):
        return self.value


def update_ema(k_prev: float, loss: float, alpha: float) -> float:
    """k = alpha * L + (1 - alpha) * k_prev."""
    return alpha * loss + (1.0 - alpha) * k_prev


def loss_reduction_prob(k: float, k_prev: float) -> float:
    """p = min(k, k_prev) / k_prev, clamped to [P_FLOOR, 1]."""
    if k_prev <= 0.0:
        raise ValueError(f"loss_reduction_prob: k_prev must be positive, got {k_prev}")
    p = min(k, k_prev) / k_prev
    return min(1.0, max(P_FLOOR, p))


def focal_weight(p: float) -> float:
    """FL(p) = -(1 - p)^GAMMA * log(p); exactly 0 at p = 1."""
    p = min(1.0, max(P_FLOOR, p))
    if p == 1.0:
        return 0.0
    return -((1.0 - p) ** GAMMA) * math.log(p)


def select_phase(fl_id: float, fl_tp: float, previous: Phase) -> Phase:
    """ID-only iff FL_tp / FL_id < SWITCH_RATIO; a zero FL_id with positive
    FL_tp forces combined; both zero keeps the previous phase."""
    if fl_id < 0 or fl_tp < 0:
        raise ValueError(f"select_phase: weights must be >= 0, got {fl_id}, {fl_tp}")
    if fl_id == 0.0:
        return previous if fl_tp == 0.0 else Phase.COMBINED
    return Phase.ID_ONLY if fl_tp / fl_id < SWITCH_RATIO else Phase.COMBINED


@dataclass
class TaskStats:
    """EMA state of one task. k is None until the first observed loss."""
    k: float | None = None
    p: float = 1.0

    def observe(self, loss: float) -> None:
        k_prev = loss if self.k is None else self.k  # the first loss seeds the average
        self.k = update_ema(k_prev, loss, ALPHA)
        if loss <= ZERO_LOSS_EPS or k_prev <= 0:
            self.p = 1.0
        else:
            self.p = loss_reduction_prob(self.k, k_prev)


@dataclass
class SchedulerState:
    """Per-iteration phase selection and EMA bookkeeping for both tasks."""
    policy: str = "dynamic"
    tau: int = 0
    phase: Phase = Phase.ID_ONLY
    id_stats: TaskStats = field(default_factory=lambda: TaskStats(p=P_FLOOR))
    tp_stats: TaskStats = field(default_factory=lambda: TaskStats(p=1.0))
    fl_id: float = 0.0
    fl_tp: float = 0.0

    def begin_iteration(self) -> Phase:
        """Advance the counter, recompute the focal weights from the previous
        iteration's probabilities, and pick the phase; the no_triplet policy
        makes odd iterations ID-only, even ones combined."""
        self.tau += 1
        self.fl_id = focal_weight(self.id_stats.p)
        self.fl_tp = focal_weight(self.tp_stats.p)
        if self.policy == "no_triplet":
            self.phase = Phase.ID_ONLY if self.tau % 2 == 1 else Phase.COMBINED
        else:
            self.phase = select_phase(self.fl_id, self.fl_tp, self.phase)
        return self.phase

    @property
    def tracks_triplet(self) -> bool:
        """Whether iterations compute L_tp, whose average the phase rule reads."""
        return self.policy != "no_triplet"

    def objective(self, loss_id, loss_tp):
        """The tensor this iteration optimizes: L_id in an ID-only iteration
        and under no_triplet, else FL_id * L_id + FL_tp * L_tp with constant
        weights, or None (no update) when both weights are 0."""
        if self.phase == Phase.ID_ONLY or not self.tracks_triplet:
            return loss_id
        if self.fl_id == 0.0 and self.fl_tp == 0.0:
            return None
        return ag.add(ag.mul(loss_id, self.fl_id), ag.mul(loss_tp, self.fl_tp))

    def observe(self, loss_id: float, loss_tp: float | None) -> None:
        self.id_stats.observe(loss_id)
        if loss_tp is not None:  # an unmeasured L_tp leaves its average
            self.tp_stats.observe(loss_tp)

    # -- checkpoint support --------------------------------------------------
    #
    # The loss policy is the config's, and begin_iteration recomputes the
    # focal weights, so a checkpoint holds only the counter, the phase and
    # each task's average and probability.

    def to_scalars(self) -> dict:
        enc = lambda v: float("nan") if v is None else float(v)
        return {"tau": float(self.tau), "phase": float(self.phase == Phase.COMBINED),
                "k_id": enc(self.id_stats.k), "p_id": self.id_stats.p,
                "k_tp": enc(self.tp_stats.k), "p_tp": self.tp_stats.p}

    def restore(self, s: dict) -> None:
        """Continue from the point `to_scalars` recorded."""
        dec = lambda v: None if math.isnan(v) else float(v)
        self.tau = int(s["tau"])
        self.phase = Phase.COMBINED if s["phase"] == 1.0 else Phase.ID_ONLY
        self.id_stats = TaskStats(dec(s["k_id"]), s["p_id"])
        self.tp_stats = TaskStats(dec(s["k_tp"]), s["p_tp"])


class TraceWriter:
    """Appends one CSV row per training iteration."""

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write(",".join(TRACE_COLUMNS) + "\n")

    def write(self, tau: int, phase: Phase, loss_id: float, loss_tp,
              state: SchedulerState, lr: float) -> None:
        fmt = lambda v: "" if v is None else repr(float(v))
        stats_i, stats_t = state.id_stats, state.tp_stats
        row = [str(tau), str(phase), fmt(loss_id), fmt(loss_tp),
               fmt(stats_i.k), fmt(stats_t.k), fmt(stats_i.p), fmt(stats_t.p),
               fmt(state.fl_id), fmt(state.fl_tp), fmt(lr)]
        self._fh.write(",".join(row) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
