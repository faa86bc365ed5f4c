"""pyreid benchmark: training throughput and gallery retrieval speed.

    python3 bench/run.py --workload {desk,paper_global,eval_gallery} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Runs one workload in this process against the pyreid sources in `src/` of
the checkout this file sits in, checks the program's outputs, and prints
every metric by name with its unit. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run is traced
through `tracer.Tracer` and the metrics are the per-layer ones. Spans, the
per-layer self-time table and a full result record (environment, checks,
sample counts) are written under bench/out/<workload>/trace<0|1>/.
See bench/README.md for the workloads and the layer-to-metric map.
"""

import os

# Pinned before numpy is first imported: OpenBLAS reads it once, at load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import pyreid
    # the traced run wraps module attributes, so call through the modules
    from pyreid import data_synth, evaluation, trainer
    from pyreid.data_synth import SPLIT_GALLERY, SPLIT_QUERY, SPLIT_TRAIN, GenConfig, ReIDDataset
    from pyreid.pyramid import BranchMask, PyramidModel
    from pyreid.scheduler import TraceWriter
except ImportError as exc:
    sys.exit(f"error: cannot import pyreid from {SRC}: {exc}")
if not Path(pyreid.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: pyreid was imported from {pyreid.__file__}, not from {SRC}")

from tracer import END, NAME, PARENT, STAGE, START, VALUE, Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    profile: str         # trainer profile
    mask: str            # pyramid level mask
    epochs: int          # length of every full training run
    gallery_ids: int     # identities in the separate evaluation set; 0 = none
    setup_repeats: int   # set-ups per --trace 0 run; setup_s is their median
    closed_set: bool = False  # map/rank1 over the training identities, not held-out ones


# Shared inputs: the shipped desk data (40 ids x 10 images, half of them
# train) at mid severity, so misalignment and occlusion are present.
DATA = dict(num_ids=40, imgs_per_id=10, severity=0.3)
TIMED_EVALS = 20        # evaluate_model calls that time eval on the training workloads

WORKLOADS = {
    # the acceptance-gate configuration: conv and the 21-branch head loop
    "desk": Workload("desk", "111111", epochs=12, gallery_ids=0, setup_repeats=5),
    # paper batch (64 = 8x8, D = 128), global branch only: conv, backward and
    # 64-anchor mining dominate, the head does 1 branch of 21. 30 epochs give
    # about 120 iterations a run. The global-only model's held-out quality
    # follows the seed's camera pair (mAP 0.49-0.98 over ten seeds), so its
    # map/rank1 are closed-set: retrieval among the identities it trained on
    "paper_global": Workload("paper", "000001", epochs=30, gallery_ids=0, setup_repeats=5,
                             closed_set=True),
    # forward-only read path: 300 unseen identities, 600 queries x 2,400
    # gallery images ranked by a desk model trained in set-up
    "eval_gallery": Workload("desk", "111111", epochs=12, gallery_ids=300, setup_repeats=3),
}
TINY = {name: replace(w, epochs=1, gallery_ids=min(w.gallery_ids, 10), setup_repeats=2)
        for name, w in WORKLOADS.items()}

# Reference speed: the machine on which one calibration sample takes 1 ms.
REF_SAMPLE_S = 1e-3
RANK_CALLS_PER_SAMPLE = 10


class Calibration:
    """Fixed numpy work, independent of pyreid, in the mix pyreid runs:
    one small channel-mixing einsum and many small matmuls, masks and
    reductions. A sample is the quicker of two runs (about 1 ms each here),
    so one interrupt does not spoil it."""

    def __init__(self):
        rng = np.random.default_rng(20181029)
        self.x = rng.random((16, 16, 24, 8), dtype=np.float32)
        self.w = rng.random((32, 16), dtype=np.float32)
        self.a = rng.random((16, 64), dtype=np.float32)
        self.b = rng.random((64, 21), dtype=np.float32)

    def _once(self) -> float:
        t0 = time.perf_counter()
        np.einsum("nchw,oc->nohw", self.x, self.w)
        for _ in range(30):
            y = self.a @ self.b
            y = np.where(y > 1, y, 0)
            y.sum(axis=0)
            y.mean()
        return time.perf_counter() - t0

    def sample(self) -> float:
        return min(self._once(), self._once())


class Clock:
    """Program time rescaled to the reference speed.

    The machine's speed drifts by tens of percent over seconds to minutes
    when other tenants load it, and a run's wall time drifts with it. So a
    calibration sample is taken at the start of every timed stretch, after
    every training iteration, before every evaluation forward batch and every
    RANK_CALLS_PER_SAMPLE-th ranked query. The program time up to the next
    sample is scaled by REF_SAMPLE_S / sample; the samples' own time is left
    out. Uncalibrated (the traced run), it is plain wall time. The clock also
    timestamps every trace row (one per training iteration) and counts the
    images the model is trained on: those of iterations that step the
    optimizer (an iteration whose loss weights are both zero only runs the
    forward pass)."""

    def __init__(self, calibrated: bool):
        self.calibration = Calibration() if calibrated else None
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.images = 0
        self._batch = 0
        self._ref = 0.0
        self._since = time.perf_counter()
        self._scale = 1.0
        self._rank_calls = 0

    def now(self) -> float:
        return self._ref + (time.perf_counter() - self._since) * self._scale

    def recalibrate(self) -> None:
        if self.calibration is None:
            return
        self._ref = self.now()
        sample = self.calibration.sample()
        self.samples.append(sample)
        self._scale = REF_SAMPLE_S / sample
        self._since = time.perf_counter()

    def __enter__(self):
        self._originals = (TraceWriter.write, PyramidModel.forward, trainer.SGD.step,
                           getattr(evaluation, "rank_gallery", None))
        write, forward, step, rank = self._originals

        def timed_write(writer, *args, **kwargs):
            write(writer, *args, **kwargs)
            self.stamps.append(self.now())
            self.recalibrate()

        def counted_forward(model, images, *args, **kwargs):
            if kwargs.get("training", args[0] if args else False):
                self._batch = images.data.shape[0]
            else:
                self.recalibrate()
            return forward(model, images, *args, **kwargs)

        def counted_step(optimizer, *args, **kwargs):
            step(optimizer, *args, **kwargs)
            self.images += self._batch

        def sampled_rank(*args, **kwargs):
            self._rank_calls += 1
            if self._rank_calls % RANK_CALLS_PER_SAMPLE == 0:
                self.recalibrate()
            return rank(*args, **kwargs)

        TraceWriter.write, PyramidModel.forward = timed_write, counted_forward
        trainer.SGD.step = counted_step
        if rank is not None:
            evaluation.rank_gallery = sampled_rank
        return self

    def __exit__(self, *exc):
        TraceWriter.write, PyramidModel.forward, trainer.SGD.step = self._originals[:3]
        if self._originals[3] is not None:
            evaluation.rank_gallery = self._originals[3]


def gallery_set(seed: int, ids: int) -> ReIDDataset:
    """Query/gallery samples of `ids` test identities that never occur in the
    desk data of the same seed. The same seed keeps the camera network (camera
    transforms derive from the seed); identities >= DATA["num_ids"] are new
    people, since every identity's appearance derives from (seed, identity)."""
    first_new = DATA["num_ids"]
    # half of the identities become test identities and at most first_new of
    # them are old ones, so this many identities always yields `ids` new ones
    big = data_synth.generate_dataset(GenConfig(num_ids=2 * (ids + first_new),
                                                imgs_per_id=DATA["imgs_per_id"],
                                                severity=DATA["severity"], seed=seed))
    test = (big.splits != SPLIT_TRAIN) & (big.identities >= first_new)
    chosen = np.unique(big.identities[test])[:ids]
    keep = test & np.isin(big.identities, chosen)
    return ReIDDataset(images=big.images[keep], identities=big.identities[keep],
                       cameras=big.cameras[keep], splits=big.splits[keep],
                       offsets=big.offsets[keep], scales=big.scales[keep],
                       occ_boxes=big.occ_boxes[keep])


def closed_set_data(data: ReIDDataset) -> ReIDDataset:
    """Query/gallery over the training identities: one query per identity
    seen by both cameras, the first of its images in its most frequent
    camera; the identity's other images are gallery. Identities seen by one
    camera have no cross-camera match and are left out."""
    train = data.splits == SPLIT_TRAIN
    keep = np.zeros(len(data), dtype=bool)
    splits = np.full(len(data), SPLIT_GALLERY, dtype=data.splits.dtype)
    for identity in np.unique(data.identities[train]):
        own = train & (data.identities == identity)
        counts = np.bincount(data.cameras[own])
        if np.count_nonzero(counts) < 2:
            continue
        keep |= own
        splits[np.flatnonzero(own & (data.cameras == counts.argmax()))[0]] = SPLIT_QUERY
    return ReIDDataset(images=data.images[keep], identities=data.identities[keep],
                       cameras=data.cameras[keep], splits=splits[keep],
                       offsets=data.offsets[keep], scales=data.scales[keep],
                       occ_boxes=data.occ_boxes[keep])


def brute_force_metrics(q_emb, q_ids, q_cams, g_emb, g_ids, g_cams,
                        max_rank: int = 10) -> dict:
    """mAP and CMC from the full float64 query x gallery distance matrix,
    with same-identity same-camera gallery entries masked out as junk and a
    stable argsort; the reference the ranking check compares against."""
    q = np.asarray(q_emb, dtype=np.float64)
    g = np.asarray(g_emb, dtype=np.float64)
    aps, first_hit = [], []
    for lo in range(0, len(q), 16):  # 16 query rows keep the difference tensor small
        diff = q[lo:lo + 16, None, :] - g[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        for row, i in zip(dist, range(lo, lo + len(dist))):
            junk = (g_ids == q_ids[i]) & (g_cams == q_cams[i])
            order = np.argsort(np.where(junk, np.inf, row), kind="stable")
            order = order[:int((~junk).sum())]
            matches = g_ids[order] == q_ids[i]
            hits = np.cumsum(matches)
            aps.append(np.mean(hits[matches] / (np.flatnonzero(matches) + 1.0)))
            first_hit.append(int(np.argmax(matches)))
    first_hit = np.asarray(first_hit)
    return {"mAP": float(np.mean(aps)),
            **{f"rank{r}": float(np.mean(first_hit < r)) for r in (1, 5, 10) if r <= max_rank}}


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "pyreid").glob("*.py")):
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "numpy": np.__version__, "blas": blas_version,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "git_sha": git_sha(),
            "src_sha256": digest.hexdigest()}


class Bench:
    """One workload run: set-up, measured operations, output checks."""

    def __init__(self, name: str, seed: int, size: str, out_dir: Path, clock: Clock):
        self.clock = clock
        self.w = (WORKLOADS if size == "full" else TINY)[name]
        self.seed = seed
        self.mask = BranchMask.from_string(self.w.mask)
        self.work = out_dir / "work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.setup_s: list[float] = []
        self.train_runs: list[dict] = []
        self.eval_runs: list[dict] = []
        self.checks: dict[str, dict] = {}
        self.op_errors: list[str] = []
        self.peak_rss_mb = 0.0
        self.ops = 0
        self._runs = 0

    def config(self):
        return replace(trainer.PROFILES[self.w.profile], pyramid_mask=self.w.mask,
                       epochs=self.w.epochs, seed=self.seed)

    # -- operations --------------------------------------------------------------

    def train_run(self, data):
        self._runs += 1
        out_dir = self.work / f"train{self._runs}"
        clock = self.clock
        clock.stamps.clear()
        clock.images = 0
        clock.recalibrate()
        t0 = clock.now()
        result = trainer.train(self.config(), data, out_dir)
        wall = clock.now() - t0
        self.train_runs.append({"wall_s": wall, "images": clock.images,
                                "deltas_ms": np.diff(clock.stamps) * 1e3,
                                "trace": result.trace_path.read_bytes()})
        return result

    def eval_run(self, model, data, timed: bool = True) -> dict:
        """One evaluate_model call; untimed ones only give retrieval quality."""
        self.clock.recalibrate()
        t0 = self.clock.now()
        metrics = evaluation.evaluate_model(model, data, mask=self.mask)
        wall = self.clock.now() - t0
        self.eval_runs.append({"wall_s": wall, "queries": len(data.query_split()),
                               "metrics": metrics, "data": data, "timed": timed})
        return metrics

    def setup(self) -> dict:
        """Generate the data; the eval workload also trains, reloads and
        builds its gallery set here. Returns the state the operations use."""
        self.clock.recalibrate()
        t0 = self.clock.now()
        data = data_synth.generate_dataset(GenConfig(seed=self.seed, **DATA))
        state = {"data": data, "eval_data": data, "model": None}
        if self.w.gallery_ids:
            result = self.train_run(data)
            state["model"] = self.reload(result.checkpoint_path)
            state["eval_data"] = gallery_set(self.seed, self.w.gallery_ids)
        self.setup_s.append(self.clock.now() - t0)
        return state

    def measure(self, state: dict, budget_s: float, min_ops: int, max_ops: int) -> None:
        """Repeat the workload's operation while the next one is projected to
        end within the budget, at least min_ops and at most max_ops times.
        An operation that raises counts as failed."""
        t0 = time.perf_counter()
        done = 0
        while done < max_ops:
            elapsed = time.perf_counter() - t0
            if done >= min_ops and elapsed + elapsed / done > budget_s:
                break
            self.ops += 1
            done += 1
            try:
                if self.w.gallery_ids:
                    self.eval_run(state["model"], state["eval_data"])
                else:
                    state["checkpoint"] = self.train_run(state["data"]).checkpoint_path
            except Exception:  # noqa: BLE001 -- recorded, counted, run goes on
                self.op_errors.append(traceback.format_exc())

    # -- output checks ---------------------------------------------------------

    def check(self, name: str, fn, *args) -> None:
        try:
            detail = fn(*args)
            passed = True
        except Exception as exc:  # noqa: BLE001 -- a failing check is a result
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks[name] = {"passed": passed, "detail": detail}

    def reload(self, checkpoint_path):
        """Rebuild the model from a checkpoint, checking its stored config
        and weights."""
        model, config = trainer.rebuild_model(trainer.load_checkpoint(checkpoint_path))
        if config != self.config():
            raise AssertionError(f"reloaded config {config} differs from the trained one")
        for name, p in model.named_parameters():
            if not np.isfinite(p.data).all():
                raise AssertionError(f"parameter {name} is not finite")
        return model

    def check_traces(self) -> str:
        """Every training run of this process used the same seed and config,
        so every trace.csv must be byte-identical."""
        traces = [r["trace"] for r in self.train_runs]
        if len(traces) < 2:
            raise AssertionError(f"only {len(traces)} training run(s) to compare")
        for i, trace in enumerate(traces[1:], start=1):
            if trace != traces[0]:
                raise AssertionError(f"trace of training run {i} differs from run 0")
        return f"{len(traces)} byte-identical traces"

    def check_ranking(self, model) -> str:
        """Every evaluate_model output of the run equals the oracle on the
        same model and dataset."""
        # the reference's own buffers are not the program's memory
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not self.eval_runs:
            raise AssertionError("no evaluate_model output to check")
        oracle = {}
        for run in self.eval_runs:
            data = run["data"]
            if id(data) not in oracle:
                query, gallery = data.query_split(), data.gallery_split()
                q_emb = evaluation.extract_embeddings(model, data.images[query.indices],
                                                      self.mask)
                g_emb = evaluation.extract_embeddings(model, data.images[gallery.indices],
                                                      self.mask)
                oracle[id(data)] = brute_force_metrics(q_emb, query.identities, query.cameras,
                                                       g_emb, gallery.identities,
                                                       gallery.cameras)
            if run["metrics"] != oracle[id(data)]:
                raise AssertionError(f"evaluate_model {run['metrics']} != "
                                     f"oracle {oracle[id(data)]}")
        return (f"{len(self.eval_runs)} evaluate_model outputs on {len(oracle)} dataset(s) "
                f"equal the oracle {list(oracle.values())}")

    # -- the two modes -------------------------------------------------------------

    def run_untraced(self, seconds: float) -> None:
        for _ in range(self.w.setup_repeats):
            state = self.setup()
        self.measure(state, seconds, min_ops=2, max_ops=10**6)
        self.finish(state)

    def run_traced(self, tracer: Tracer) -> None:
        """One untraced set-up and operation, then the same traced."""
        state = self.setup()
        self.measure(state, 0, min_ops=1, max_ops=1)
        with tracer:
            tracer.stage = "setup"
            traced_state = self.setup()
            tracer.stage = "op"
            self.measure(traced_state, 0, min_ops=1, max_ops=1)
        self.finish(state)

    def finish(self, state: dict) -> None:
        """Output checks, and on the training workloads the reload and the
        evaluations that give eval speed and retrieval quality."""
        if not self.w.gallery_ids:
            self.check("checkpoint_reload", self._reload_trained, state)
            if state["model"] is not None:
                for _ in range(TIMED_EVALS):
                    self.eval_run(state["model"], state["eval_data"])
                if self.w.closed_set:
                    self.eval_run(state["model"], closed_set_data(state["data"]), timed=False)
        else:
            self.checks["checkpoint_reload"] = {"passed": True,
                                                "detail": "reloaded in every set-up"}
        self.check("trace_identical", self.check_traces)
        if state["model"] is not None:
            self.check("ranking_oracle", self.check_ranking, state["model"])
        else:
            self.checks["ranking_oracle"] = {"passed": False, "detail": "no model to evaluate"}

    def _reload_trained(self, state: dict) -> str:
        if "checkpoint" not in state:
            raise AssertionError("no training run finished")
        state["model"] = self.reload(state["checkpoint"])
        return f"reloaded {state['checkpoint'].name}"

    # -- metrics -------------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return len(self.op_errors) + sum(not c["passed"] for c in self.checks.values())

    def end_to_end(self) -> dict:
        # the first two training runs do the same work iteration by
        # iteration; the smaller of each iteration's two times drops most
        # of the interference other tenants add to single iterations
        deltas = np.minimum(self.train_runs[0]["deltas_ms"], self.train_runs[1]["deltas_ms"])
        quality = self.eval_runs[-1]["metrics"]  # on paper_global the closed-set run
        return {
            "train_imgs_per_s": (statistics.median(
                r["images"] / r["wall_s"] for r in self.train_runs), "img/s"),
            "iter_ms.p50": (float(np.percentile(deltas, 50)), "ms"),
            "iter_ms.p90": (float(np.percentile(deltas, 90)), "ms"),
            "eval_queries_per_s": (statistics.median(
                r["queries"] / r["wall_s"] for r in self.eval_runs if r["timed"]), "query/s"),
            "map": (quality["mAP"], "fraction"),
            "rank1": (quality["rank1"], "fraction"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "success_rate": ((self.attempted - self.failed) / self.attempted, "fraction"),
        }

    def samples(self) -> dict:
        return {"train_runs": len(self.train_runs),
                "iterations": int(len(self.train_runs[0]["deltas_ms"])
                                  if self.train_runs else 0),
                "eval_runs": len(self.eval_runs), "setups": len(self.setup_s),
                "ops": self.ops, "calibration_samples": len(self.clock.samples),
                "calibration_sample_ms.p50": (float(np.median(self.clock.samples)) * 1e3
                                              if self.clock.samples else None)}


# -- per-layer metrics from the traced run ------------------------------------

# catalog ops the three workloads use; euclidean_distance, euclidean_norm,
# reshape and reduce_sum are in the catalog but off the model's path
OPS = ("add", "sub", "mul", "relu", "hinge", "matmul", "conv2d", "batch_norm",
       "global_max_pool", "global_avg_pool", "slice_rows", "concat",
       "softmax_cross_entropy", "pairwise_distances", "take_pairs", "reduce_mean")

# layers that move setup_s are summed over the traced set-up and operation;
# every other layer only over the traced operation
SETUP_LAYERS = ("data_synth.", "container.")


def per_layer(tracer: Tracer, overhead_pct: float) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times_ns()
    index: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[STAGE] == "op" or s[NAME].startswith(SETUP_LAYERS):
            index.setdefault(s[NAME], []).append(i)

    def picked(name):
        return index.get(name, [])

    def incl_ms(*names):
        return sum(spans[i][END] - spans[i][START] for n in names for i in picked(n)) / 1e6

    def self_ms(name):
        return sum(selfs[i] for i in picked(name)) / 1e6

    iters = picked("scheduler.trace_write")
    n_iter = len(iters)
    frac = lambda num, den: num / den if den else 0.0  # noqa: E731
    m = {}
    for op in OPS:
        m[f"autograd.{op}.calls"] = (len(picked(f"autograd.{op}")), "count")
        m[f"autograd.{op}.fwd_ms"] = (self_ms(f"autograd.{op}"), "ms")
        m[f"autograd.{op}.bwd_ms"] = (incl_ms(f"autograd.{op}.bwd"), "ms")
    nodes = sum(1 for s in spans if s[STAGE] == "op" and s[NAME].startswith("autograd.")
                and s[VALUE] == 1)
    heads = incl_ms("pyramid.forward") - sum(
        s[END] - s[START] for s in spans if s[NAME] == "backbone.forward"
        and s[STAGE] == "op" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "pyramid.forward"
    ) / 1e6
    anchors = [spans[i][VALUE] for i in picked("losses.triplet_loss")]
    m.update({
        "autograd.backward_ms": (incl_ms("autograd.backward"), "ms"),
        "autograd.nodes_per_iter": (frac(nodes, n_iter), "count"),
        "backbone.forward_ms": (incl_ms("backbone.forward"), "ms"),
        "pyramid.heads_ms": (heads, "ms"),
        "losses.id_ms": (incl_ms("losses.id_loss"), "ms"),
        "losses.triplet_ms": (incl_ms("losses.triplet_loss"), "ms"),
        "losses.triplet_valid_anchor_frac": (frac(sum(anchors), len(anchors)), "fraction"),
        "batching.mine_ms": (incl_ms("batching.batch_hard_mine"), "ms"),
        "batching.sample_ms": (incl_ms("batching.random_batches", "batching.pk_batches"), "ms"),
        "scheduler.ms": (incl_ms("scheduler.begin_iteration", "scheduler.observe",
                                 "scheduler.trace_write", "scheduler.combined_objective"), "ms"),
        "scheduler.combined_frac": (frac(sum(spans[i][VALUE] == "combined" for i in iters),
                                         n_iter), "fraction"),
        "scheduler.update_frac": (frac(len(picked("trainer.sgd_step")), n_iter), "fraction"),
        "trainer.sgd_ms": (incl_ms("trainer.sgd_step"), "ms"),
        "trainer.loop_self_ms": (self_ms("trainer.train"), "ms"),
        "evaluation.extract_ms": (incl_ms("evaluation.extract_embeddings"), "ms"),
        "evaluation.rank_ms": (incl_ms("evaluation.rank_gallery"), "ms"),
        "evaluation.rank_calls": (len(picked("evaluation.rank_gallery")), "count"),
        "evaluation.cmc_map_ms": (incl_ms("evaluation.compute_cmc", "evaluation.compute_map"),
                                  "ms"),
        "container.save_ms": (incl_ms("container.save_tensors"), "ms"),
        "container.load_ms": (incl_ms("container.load_tensors"), "ms"),
        "container.bytes": (sum(spans[i][VALUE] for i in picked("container.save_tensors")),
                            "B"),
        "data_synth.generate_ms": (incl_ms("data_synth.generate_dataset"), "ms"),
        "data_synth.fingerprint_ms": (incl_ms("data_synth.fingerprint"), "ms"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one-epoch runs and a 10-identity gallery (smoke test)")
    args = parser.parse_args(argv)

    out_dir = OUT / args.workload / f"trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    # the traced run reports plain wall time: calibration samples taken
    # inside traced calls would count as those calls' self time
    with Clock(calibrated=not args.trace) as clock:
        bench = Bench(args.workload, args.seed, args.size, out_dir, clock)
        if args.trace:
            tracer = Tracer()
            bench.run_traced(tracer)
            # the untraced operation ran first, the traced one second
            untraced, traced = (bench.eval_runs if bench.w.gallery_ids else bench.train_runs)[:2]
            metrics = per_layer(tracer, 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0))
            tracer.write_spans(out_dir / "spans.csv")
            (out_dir / "self_time.txt").write_text(tracer.self_time_table())
        else:
            bench.run_untraced(args.seconds)
            metrics = bench.end_to_end()

    for name, check in bench.checks.items():
        print(f"check {name}: {'ok' if check['passed'] else 'FAILED'} ({check['detail']})")
    for err in bench.op_errors:
        print("operation failed:\n" + err, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    record = {"env": env, "args": vars(args), "checks": bench.checks,
              "op_errors": bench.op_errors, "samples": bench.samples(),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
