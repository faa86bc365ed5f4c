"""In-memory span recorder that wraps pyreid's public functions from outside.

Installing a `Tracer` replaces selected functions and methods of the pyreid
modules with timing wrappers and restores the originals when it is closed;
nothing under `src/` changes. Every call becomes one span: name, start and
end (ns), parent span, and the tags current when it started (run stage,
training iteration `tau`, evaluation call). The output tensor of every
autograd op gets its recorded backward closure wrapped too, so backward time
is attributed to the op that recorded it. Spans stay in memory until
`write_spans` dumps them.
"""

from __future__ import annotations

import csv
import importlib
import os
import sys
import time

# span record fields, in order
NAME, START, END, PARENT, STAGE, TAU, EVAL_CALL, VALUE = range(8)


class Tracer:
    """Span recorder; use as a context manager around the traced work."""

    def __init__(self):
        self.spans: list[list] = []
        self.stage = ""
        self.tau = 0
        self.eval_call = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.stage, self.tau,
                   self.eval_call, ""]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(rec, args, result)
            return result

        traced.traced = True
        return traced

    # -- installation --------------------------------------------------------

    def _patch_function(self, module: str, attr: str, name: str, **hooks) -> None:
        """Wrap a module-level function under every name any pyreid module
        binds it to (`from .x import f` makes a second binding). A function
        the program no longer has is skipped; its metrics then read 0."""
        original = getattr(importlib.import_module(f"pyreid.{module}"), attr, None)
        if original is None:
            return
        wrapped = self._wrap(name, original, **hooks)
        owners = [m for key, m in list(sys.modules.items())
                  if key == "pyreid" or key.startswith("pyreid.")]
        for mod in owners:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def _patch_method(self, module: str, cls: str, attr: str, name: str, **hooks) -> None:
        owner = getattr(importlib.import_module(f"pyreid.{module}"), cls, None)
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **hooks))

    def _wrap_backward(self, name):
        def after(rec, args, out):
            bw = out._backward
            if bw is not None and not getattr(bw, "traced", False):
                out._backward = self._wrap(name, bw)
                rec[VALUE] = 1  # this call recorded a graph node
        return after

    def __enter__(self) -> "Tracer":
        for op in sorted(importlib.import_module("pyreid.autograd").op_catalog()):
            self._patch_function("autograd", op, f"autograd.{op}",
                                 after=self._wrap_backward(f"autograd.{op}.bwd"))
        self._patch_function("autograd", "backward", "autograd.backward")
        self._patch_method("backbone", "Backbone", "forward", "backbone.forward")
        self._patch_method("pyramid", "PyramidModel", "forward", "pyramid.forward")
        self._patch_function("losses", "id_loss", "losses.id_loss")
        self._patch_function("losses", "triplet_loss", "losses.triplet_loss",
                             after=self._record_anchor_frac)
        self._patch_function("batching", "batch_hard_mine", "batching.batch_hard_mine")
        self._patch_function("batching", "random_batches", "batching.random_batches")
        self._patch_function("batching", "pk_batches", "batching.pk_batches")
        self._patch_method("scheduler", "SchedulerState", "begin_iteration",
                           "scheduler.begin_iteration", after=self._record_tau)
        self._patch_method("scheduler", "SchedulerState", "observe", "scheduler.observe")
        self._patch_method("scheduler", "TraceWriter", "write", "scheduler.trace_write",
                           after=self._record_phase)
        self._patch_function("scheduler", "combined_objective", "scheduler.combined_objective")
        self._patch_function("trainer", "train", "trainer.train", before=self._reset_tau)
        self._patch_function("trainer", "build_model", "trainer.build_model")
        self._patch_function("trainer", "save_checkpoint", "trainer.save_checkpoint")
        self._patch_function("trainer", "load_checkpoint", "trainer.load_checkpoint")
        self._patch_function("trainer", "rebuild_model", "trainer.rebuild_model")
        self._patch_method("trainer", "SGD", "step", "trainer.sgd_step")
        self._patch_function("data_synth", "generate_dataset", "data_synth.generate_dataset")
        self._patch_method("data_synth", "ReIDDataset", "fingerprint", "data_synth.fingerprint")
        self._patch_function("container", "save_tensors", "container.save_tensors",
                             after=self._record_bytes)
        self._patch_function("container", "load_tensors", "container.load_tensors")
        self._patch_function("evaluation", "evaluate_model", "evaluation.evaluate_model",
                             before=self._next_eval_call)
        self._patch_function("evaluation", "extract_embeddings", "evaluation.extract_embeddings")
        self._patch_function("evaluation", "rank_gallery", "evaluation.rank_gallery")
        self._patch_function("evaluation", "compute_cmc", "evaluation.compute_cmc")
        self._patch_function("evaluation", "compute_map", "evaluation.compute_map")
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- hooks that tag spans or record a per-call value ------------------------

    def _reset_tau(self, args) -> None:
        self.tau = 0

    def _record_tau(self, rec, args, phase) -> None:
        self.tau = args[0].tau
        rec[TAU] = self.tau

    def _record_phase(self, rec, args, result) -> None:
        rec[VALUE] = str(args[2])

    def _record_anchor_frac(self, rec, args, loss) -> None:
        rec[VALUE] = loss.count / args[0].data.shape[0]

    def _record_bytes(self, rec, args, result) -> None:
        rec[VALUE] = os.path.getsize(args[0])

    def _next_eval_call(self, args) -> None:
        self.eval_call += 1

    # -- analysis ----------------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the time its direct children cover
        (children of a single-threaded call nest inside their parent)."""
        out = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def write_spans(self, path) -> None:
        selfs = self.self_times_ns()
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "parent", "name", "start_us", "end_us", "self_us",
                             "stage", "tau", "eval_call", "value"])
            for i, rec in enumerate(self.spans):
                writer.writerow([i, rec[PARENT], rec[NAME], (rec[START] - t0) / 1e3,
                                 (rec[END] - t0) / 1e3, selfs[i] / 1e3, rec[STAGE],
                                 rec[TAU], rec[EVAL_CALL], rec[VALUE]])

    def self_time_table(self) -> str:
        """Per span name and stage: calls, inclusive and self milliseconds,
        sorted by self time."""
        selfs = self.self_times_ns()
        rows: dict[tuple, list] = {}
        for rec, self_ns in zip(self.spans, selfs):
            row = rows.setdefault((rec[STAGE], rec[NAME]), [0, 0, 0])
            row[0] += 1
            row[1] += rec[END] - rec[START]
            row[2] += self_ns
        total = sum(r[2] for r in rows.values()) or 1
        lines = [f"{'stage':<6} {'span':<40} {'calls':>8} {'incl_ms':>10} {'self_ms':>10} "
                 f"{'self_%':>7}"]
        for (stage, name), (calls, incl, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{stage:<6} {name:<40} {calls:>8} {incl / 1e6:>10.2f} "
                         f"{own / 1e6:>10.2f} {100 * own / total:>7.2f}")
        return "\n".join(lines) + "\n"
