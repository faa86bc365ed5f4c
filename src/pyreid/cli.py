"""Command-line entry points: gen-data, train, eval, ablate, export-curves.

Every command exits 0 on success. Usage and configuration problems (a bad
or unknown flag included) exit 2 with a one-line `error: ...` message,
training divergence exits 3, anything else exits 1. All run outputs live
under a single --out directory with fixed names; the only timestamped file
is run_info.txt. `train` writes nothing for what it refuses: a mask that
misfits the images, an unfillable P x K batch, a feature_dim too large to
allocate, or a query with no true gallery match.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .data_synth import GenConfig, ReIDDataset, generate_dataset
from .errors import ConfigError, TrainingDiverged, short
from .evaluation import METRICS, evaluate_checkpoint, metrics_table, true_matches
from .pyramid import BranchMask
from .scheduler import TRACE_COLUMNS
from .trainer import make_config, train
from . import autograd, chart


def _write_metrics_csv(path, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["mask", "seed", *METRICS, "status"])
        for row in rows:
            writer.writerow(row)


def _metric_row(mask, seed, metrics) -> list:
    return [mask, seed, *(repr(metrics[key]) for key in METRICS), "ok"]


def cmd_gen_data(args) -> int:
    config = GenConfig(num_ids=args.num_ids, imgs_per_id=args.imgs_per_id,
                       severity=args.severity, seed=args.seed)
    dataset = generate_dataset(config)
    dataset.save(args.out)
    print(f"wrote {len(dataset)} samples "
          f"({len(dataset.train_split())} train / {len(dataset.query_split())} query / "
          f"{len(dataset.gallery_split())} gallery) to {args.out}")
    return 0


def _collect_overrides(args) -> dict:
    # each of these flags sets the config key of its own name; ablate has no
    # --seed or --pyramid-mask, since its sweep sets both keys
    overrides = {key: value for key, value in vars(args).items()
                 if key in ("seed", "pyramid_mask", "epochs")
                 and value is not None}
    if args.no_triplet:
        overrides["loss_policy"] = "no_triplet"
    return overrides


def _train_and_evaluate(config, dataset, out_dir) -> dict:
    """Train one run and evaluate its checkpoint; `train` and `ablate` both
    report metrics through here. Data that cannot be scored is refused first."""
    true_matches(dataset.query_split(), dataset.gallery_split())
    return evaluate_checkpoint(train(config, dataset, out_dir).checkpoint_path, dataset)


def _blas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS picked for this CPU, which
    sets the bits of every product, or "unknown" without that library."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _run_info(start: float) -> str:
    """Timing plus the numeric environment a run's speed depends on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    fields = {
        "started_unix": f"{start:.3f}",
        "duration_s": f"{time.time() - start:.3f}",
        "numpy_version": np.__version__,
        "blas": blas_version,
        "blas_core": _blas_core(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "conv_workers": autograd._WORKERS,
    }
    return "".join(f"{key} = {value}\n" for key, value in fields.items())


def cmd_train(args) -> int:
    config = make_config(profile=args.profile, file_path=args.config,
                         overrides=_collect_overrides(args))
    dataset = ReIDDataset.load(args.dataset)
    out_dir = Path(args.out)
    start = time.time()
    metrics = _train_and_evaluate(config, dataset, out_dir)
    _write_metrics_csv(out_dir / "metrics.csv",
                       [_metric_row(config.pyramid_mask, config.seed, metrics)])
    (out_dir / "run_info.txt").write_text(_run_info(start))
    print(metrics_table(metrics))
    return 0


def cmd_eval(args) -> int:
    dataset = ReIDDataset.load(args.dataset)
    mask = BranchMask.from_string(args.mask) if args.mask else None
    metrics = evaluate_checkpoint(args.checkpoint, dataset, mask=mask)
    print(metrics_table(metrics))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_metrics_csv(out_dir / "metrics.csv",
                           [_metric_row(args.mask or "checkpoint", "-", metrics)])
    return 0


def cmd_ablate(args) -> int:
    masks = [m.strip() for m in args.masks.split(",") if m.strip()]
    seeds = []
    for item in filter(str.strip, args.seeds.split(",")):
        try:
            seeds.append(int(item))
        except ValueError:
            raise ConfigError(f"ablate: --seeds item {short(item)!r} is not an integer") from None
    if not masks or not seeds:
        raise ConfigError("ablate: need at least one mask and one seed")
    dataset = ReIDDataset.load(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for mask in masks:
        per_mask = []
        for seed in seeds:
            overrides = {**_collect_overrides(args), "seed": seed, "pyramid_mask": mask}
            run_dir = out_dir / f"mask_{mask}_seed_{seed}"
            try:
                config = make_config(profile=args.profile, file_path=args.config,
                                     overrides=overrides)
                metrics = _train_and_evaluate(config, dataset, run_dir)
                rows.append(_metric_row(mask, seed, metrics))
                per_mask.append(metrics)
            except (ConfigError, TrainingDiverged) as exc:  # record it, keep sweeping
                rows.append([mask, seed, *[""] * len(METRICS), f"error: {exc}"])
        if per_mask:
            means = {key: float(np.mean([m[key] for m in per_mask])) for key in METRICS}
            rows.append(_metric_row(mask, "mean", means))
    _write_metrics_csv(out_dir / "ablation.csv", rows)
    print(f"wrote {len(rows)} rows to {out_dir / 'ablation.csv'}")
    return 0


def _read_trace(path) -> dict:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc
    if not lines or tuple(lines[0].split(",")) != TRACE_COLUMNS:
        raise ConfigError(f"{path}:1: not a trace file (bad header)")
    if len(lines) < 2:
        raise ConfigError(f"{path}: trace has no data rows")
    cols: dict[str, list] = {name: [] for name in TRACE_COLUMNS}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ConfigError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields, "
                              f"got {len(parts)}")
        for name, val in zip(TRACE_COLUMNS, parts):
            if name == "phase":
                if val not in ("id_only", "combined"):
                    raise ConfigError(f"{path}:{lineno}: bad phase {short(val)!r}, expected "
                                      f"id_only or combined")
                cols[name].append(val)
            elif name == "tau":
                try:
                    tau = int(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad tau {short(val)!r}") from exc
                if not 0 <= tau < 2 ** 53:  # iterations count exactly as floats
                    raise ConfigError(f"{path}:{lineno}: tau {short(tau)} out of range")
                cols[name].append(tau)
            else:
                try:
                    cols[name].append(float(val) if val else float("nan"))
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad value {short(val)!r} in {name}")
    return cols


def cmd_export_curves(args) -> int:
    cols = _read_trace(args.trace)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    taus = cols["tau"]
    charts = {
        "losses.png": [("L_id", taus, cols["L_id"]), ("L_tp", taus, cols["L_tp"])],
        "prob.png": [("p_id", taus, cols["p_id"]), ("p_tp", taus, cols["p_tp"])],
        "focal.png": [("FL_id", taus, cols["FL_id"]), ("FL_tp", taus, cols["FL_tp"])],
        "phase.png": [("phase", taus,
                       [1.0 if p == "combined" else 0.0 for p in cols["phase"]])],
        "lr.png": [("lr", taus, cols["lr"])],
    }
    for name, series in charts.items():
        chart.write_png(out_dir / name, chart.line_chart(series))
    quantities = [c for c in TRACE_COLUMNS if c not in ("tau", "phase")]
    with open(out_dir / "tidy.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["tau", "quantity", "value"])
        for name in quantities:
            for tau, val in zip(taus, cols[name]):
                writer.writerow([tau, name, "" if np.isnan(val) else repr(val)])
        for tau, val in zip(taus, cols["phase"]):
            writer.writerow([tau, "phase", val])
    print(f"wrote {len(charts)} charts and tidy.csv to {out_dir}")
    return 0


# a value argparse quotes in an error message: its repr, in either quote
_QUOTED = re.compile(r"""(['"])((?:(?!\1)[^\\]|\\.)*)\1""")


class _Parser(argparse.ArgumentParser):
    """An argument parser (the subcommand parsers inherit the class) whose
    usage errors reach `main` as a ConfigError, printed as one `error:` line.
    Each value that argparse quotes, and the list of unrecognized arguments
    it repeats unquoted, is cut as `errors.short` cuts it."""

    def error(self, message):
        message = _QUOTED.sub(lambda m: m[1] + short(m[2]) + m[1], message)
        head, sep, unrecognized = message.partition("unrecognized arguments: ")
        raise ConfigError(f"{self.prog}: {head}{sep}{short(unrecognized) if sep else ''}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pyreid", description="pyramidal re-id embeddings, desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--num-ids", type=int, default=20)
    p.add_argument("--imgs-per-id", type=int, default=10)
    p.add_argument("--severity", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_data)

    def add_train_opts(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--profile", choices=["desk", "paper"], default="desk")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--no-triplet", action="store_true",
                       help="shorthand for loss_policy = no_triplet: the ID-only "
                            "ablation, with the samplers alternating")

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pyramid-mask", default=None)
    add_train_opts(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mask", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    # no abbreviations, so that --seed is refused rather than read as --seeds
    p = sub.add_parser("ablate", help="train/evaluate a mask x seed sweep", allow_abbrev=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--masks", required=True, help="comma-separated level masks")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    add_train_opts(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("export-curves", help="plot a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export_curves)
    return parser


def main(argv=None) -> int:
    # PYREID_DEBUG=1 asserts finiteness after every tensor op. Runs are
    # deterministic for a fixed BLAS thread count (seeded streams, fixed op
    # order), so the conventional determinism switch needs no wiring here.
    if os.environ.get("PYREID_DEBUG", "").strip() in ("1", "true", "yes"):
        autograd.debug_checks = True
    try:
        args = build_parser().parse_args(argv)
        # the explicit checks on losses, gradients, embeddings and pixels
        # decide every outcome, so numpy's floating-point warnings stay silent
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError and ContainerError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
