"""Training orchestration: phase-dependent sampling, SGD with momentum and
weight decay, the stepped learning-rate schedule, checkpointing, and the
ablation modes.

One iteration of dynamic training: recompute the focal weights from the
previous iteration's loss-reduction probabilities, pick the phase, draw a
batch with the phase's sampler (plain random for ID-only, ID-balanced PK
for combined), run forward/backward, step the optimizer, then fold the
observed losses back into the EMAs. Epochs are counted in random-sampling
lengths (ceil(train size / batch size) iterations) regardless of phase, so
the learning-rate schedule is phase-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tensor, backward, no_grad
from .backbone import Backbone, BackboneConfig
from .batching import MiniBatch, Split, pk_batches, random_batches
from .container import load_tensors, save_tensors
from .data_synth import ReIDDataset
from .errors import ConfigError, ContainerError, TrainingDiverged
from .losses import LossValue, id_loss, triplet_loss
from .pyramid import BranchMask, PyramidModel
from .scheduler import Phase, SchedulerState, TraceWriter, combined_objective

_INIT_PURPOSE = 7

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    n: int = 6
    feature_dim: int = 16
    margin: float = 1.4
    batch_size: int = 16
    p_ids: int = 4
    k_imgs: int = 4
    alpha: float = 0.25
    gamma: float = 2.0
    switch_ratio: float = 0.16
    base_lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 30
    lr_halving_epochs: tuple = (15, 20, 25)
    seed: int = 0
    pyramid_mask: str = "111111"
    no_triplet_alternating: bool = False
    pk_with_replacement: bool = False
    triplet_in_id_phase: bool = True
    classifier_bias: bool = False
    squared_distance: bool = False
    l2_normalize_eval: bool = False
    in_channels: int = 3
    backbone_stages: tuple = ((16, 2), (32, 2), (64, 1))
    checkpoint_every: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n}")
        if self.p_ids * self.k_imgs != self.batch_size:
            raise ConfigError(f"p_ids * k_imgs must equal batch_size, got "
                              f"{self.p_ids}*{self.k_imgs} != {self.batch_size}")
        if self.p_ids < 2 or self.k_imgs < 2:
            raise ConfigError(f"p_ids and k_imgs must be >= 2 for valid triplets, got "
                              f"P={self.p_ids} K={self.k_imgs}")
        if list(self.lr_halving_epochs) != sorted(set(self.lr_halving_epochs)):
            raise ConfigError(f"lr_halving_epochs must be strictly increasing, got "
                              f"{self.lr_halving_epochs}")
        if len(self.pyramid_mask) != self.n:
            raise ConfigError(f"pyramid_mask {self.pyramid_mask!r} must have n={self.n} digits")
        BranchMask.from_string(self.pyramid_mask)
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")


PROFILES = {
    "desk": TrainConfig(),
    "paper": TrainConfig(feature_dim=128, batch_size=64, p_ids=8, k_imgs=8,
                         epochs=120, lr_halving_epochs=(60, 70, 80, 90),
                         pyramid_mask="111111"),
}


# -- config text codec ----------------------------------------------------------
#
# One text form serves config files, resolved_config.ini and checkpoints. A
# field's parser and formatter follow the type of its default value: tuple
# items are separated by ",", the items of a nested tuple by ":", and a nested
# tuple has as many items as the default's.

_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}
_SEPARATORS = (",", ":")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def _parse_value(text: str, like, depth: int = 0):
    """Parse text as a value of the type and nesting of `like`."""
    if isinstance(like, bool):
        return _parse_bool(text)
    if isinstance(like, tuple):
        items = tuple(_parse_value(part, like[0], depth + 1)
                      for part in text.split(_SEPARATORS[depth]) if part.strip())
        if depth and len(items) != len(like):
            raise ConfigError(f"expected {len(like)} items, got {text.strip()!r}")
        return items
    return type(like)(text.strip())


def _format_value(value, depth: int = 0) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return _SEPARATORS[depth].join(_format_value(v, depth + 1) for v in value)
    return str(value)


def _config_lines(text: str, source):
    """(line number, key, value text) per `key = value` line; '#' starts a
    comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        yield lineno, key.strip(), val.strip()


def parse_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    return {key: val for _, key, val in _config_lines(Path(path).read_text(), path)}


def parse_config_text(text: str, source) -> dict:
    """Typed field values of a config text. Errors name the source, the line
    and the key."""
    values = {}
    for lineno, key, val in _config_lines(text, source):
        if key not in _DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(val, _DEFAULTS[key])
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def make_config(profile: str = "desk", file_path=None, overrides: dict | None = None
                ) -> TrainConfig:
    """Profile defaults, overlaid with config-file values, overlaid with
    explicit overrides (already-typed values)."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}, choose from {sorted(PROFILES)}")
    config = PROFILES[profile]
    if file_path is not None:
        config = replace(config, **parse_config_text(Path(file_path).read_text(), file_path))
    if overrides:
        for key in overrides:
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
        config = replace(config, **overrides)
    config.validate()
    return config


def resolved_config_text(config: TrainConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(config, f.name))}"
             for f in fields(TrainConfig)]
    return "\n".join(lines) + "\n"


# -- optimizer -----------------------------------------------------------------


def lr_schedule(epoch: int, base_lr: float, halving_epochs) -> float:
    """base_lr halved once for every scheduled epoch <= the current one."""
    return base_lr * 0.5 ** sum(1 for e in halving_epochs if e <= epoch)


def sgd_step(param: np.ndarray, grad: np.ndarray, velocity: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """Classical momentum update, in place:
    v <- momentum*v + g + weight_decay*w ; w <- w - lr*v."""
    velocity *= momentum
    velocity += grad
    if weight_decay:
        velocity += weight_decay * param
    param -= lr * velocity


class SGD:
    """Momentum SGD over named parameters; batch-norm affine parameters are
    exempt from weight decay."""

    NO_DECAY_SUFFIXES = (".gamma", ".beta")

    def __init__(self, named_params: list, momentum: float, weight_decay: float):
        self.params = list(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params}

    def decays(self, name: str) -> bool:
        return not name.endswith(self.NO_DECAY_SUFFIXES)

    def step(self, lr: float) -> None:
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
            wd = self.weight_decay if self.decays(name) else 0.0
            sgd_step(p.data, g, self.velocity[name], lr, self.momentum, wd)


# -- model construction and checkpointing ---------------------------------------


def make_label_map(split: Split) -> dict:
    return {int(ident): i for i, ident in enumerate(sorted(np.unique(split.identities)))}


def build_model(config: TrainConfig, image_hw: tuple, num_identities: int) -> PyramidModel:
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([config.seed, _INIT_PURPOSE])))
    backbone = Backbone(BackboneConfig(in_channels=config.in_channels,
                                       stages=config.backbone_stages), rng)
    return PyramidModel(backbone, config.n, config.feature_dim, num_identities,
                        image_hw, rng, classifier_bias=config.classifier_bias)


def _entry(entries: dict, key: str, shape=()) -> np.ndarray:
    """Checkpoint entry `key`, which must exist with `shape` (any if None)."""
    arr = entries.get(key)
    if arr is None:
        raise ContainerError(f"checkpoint has no entry {key!r}")
    if shape is not None and arr.shape != shape:
        raise ContainerError(f"checkpoint entry {key!r}: stored shape {arr.shape}, "
                             f"expected {shape}")
    return arr


def _int_entry(entries: dict, key: str) -> int:
    arr = _entry(entries, key)
    if arr.dtype.kind not in "iu":
        raise ContainerError(f"checkpoint entry {key!r} is not an integer "
                             f"(stored as {arr.dtype.str})")
    return int(arr[()])


def _bytes_entry(entries: dict, key: str) -> bytes:
    """Bytes stored one per <i8 value."""
    arr = _entry(entries, key, shape=None)
    if arr.ndim != 1 or arr.dtype.kind != "i" or ((arr < 0) | (arr > 255)).any():
        raise ContainerError(f"checkpoint entry {key!r} is not a byte string")
    return arr.astype(np.uint8).tobytes()


def _decode_config(entries: dict) -> TrainConfig:
    """The config stored as its resolved text, which must name every field."""
    try:
        text = _bytes_entry(entries, "meta/config").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContainerError(f"checkpoint entry 'meta/config' is not UTF-8: {exc}") from exc
    values = parse_config_text(text, "checkpoint meta/config")
    missing = [key for key in _DEFAULTS if key not in values]
    if missing:
        raise ContainerError(f"checkpoint meta/config does not name {missing}")
    config = TrainConfig(**values)
    config.validate()
    return config


def save_checkpoint(path, model: PyramidModel, config: TrainConfig,
                    sched: SchedulerState, opt: SGD, stream_state: dict,
                    dataset_fingerprint: str) -> None:
    entries: dict[str, np.ndarray] = {}
    entries["meta/version"] = np.array(CHECKPOINT_VERSION, dtype="<i8")
    entries["meta/num_identities"] = np.array(model.num_identities, dtype="<i8")
    entries["meta/image_h"] = np.array(model.image_hw[0], dtype="<i8")
    entries["meta/image_w"] = np.array(model.image_hw[1], dtype="<i8")
    entries["meta/dataset_fingerprint"] = np.frombuffer(
        bytes.fromhex(dataset_fingerprint), dtype=np.uint8).astype("<i8")
    for key in ("rand_epoch", "rand_pos", "pk_epoch", "pk_pos"):
        entries[f"meta/{key}"] = np.array(stream_state[key], dtype="<i8")
    entries["meta/config"] = np.frombuffer(
        resolved_config_text(config).encode("utf-8"), dtype=np.uint8).astype("<i8")
    for key, val in sched.to_scalars().items():
        entries[f"sched/{key}"] = np.array(val, dtype="<f8")
    for name, p in model.named_parameters():
        entries[f"param/{name}"] = p.data
    for name, buf in model.named_buffers():
        entries[f"buffer/{name}"] = buf
    for name, _ in opt.params:
        entries[f"momentum/{name}"] = opt.velocity[name]
    save_tensors(path, entries)


def load_checkpoint(path) -> dict:
    entries = load_tensors(path)
    version = _int_entry(entries, "meta/version")
    if version != CHECKPOINT_VERSION:
        raise ContainerError(f"checkpoint version {version} not supported "
                             f"(expected {CHECKPOINT_VERSION})")
    return entries


def rebuild_model(entries: dict) -> tuple:
    """Reconstruct the model (architecture + weights + running stats) stored
    in a loaded checkpoint. Returns (model, config)."""
    config = _decode_config(entries)
    sizes = {key: _int_entry(entries, f"meta/{key}")
             for key in ("image_h", "image_w", "num_identities")}
    for key, value in sizes.items():
        if value < 1:
            raise ContainerError(f"checkpoint entry 'meta/{key}' must be positive, "
                                 f"got {value}")
    # the stored classifier fixes the identity count before anything is allocated
    classifier = _entry(entries, "param/branch_l1_k1.classifier.weight", shape=None)
    if classifier.shape != (config.feature_dim, sizes["num_identities"]):
        raise ContainerError(f"checkpoint entry 'meta/num_identities' is "
                             f"{sizes['num_identities']}, but the stored classifier "
                             f"'param/branch_l1_k1.classifier.weight' has shape "
                             f"{classifier.shape}")
    model = build_model(config, (sizes["image_h"], sizes["image_w"]),
                        sizes["num_identities"])
    for name, p in model.named_parameters():
        p.data[...] = _entry(entries, f"param/{name}", p.data.shape)
    for name, buf in model.named_buffers():
        buf[...] = _entry(entries, f"buffer/{name}", buf.shape)
    return model, config


# -- training loop ---------------------------------------------------------------


class _BatchStream:
    """Lazily materialized epoch-chunked batch stream with a restorable
    (epoch, position) cursor."""

    def __init__(self, make_epoch):
        self._make_epoch = make_epoch
        self.epoch = 0
        self.pos = 0
        self._buf = None

    def next(self) -> MiniBatch:
        if self._buf is None:
            self._buf = self._make_epoch(self.epoch)
        if self.pos >= len(self._buf):
            self.epoch += 1
            self.pos = 0
            self._buf = self._make_epoch(self.epoch)
        batch = self._buf[self.pos]
        self.pos += 1
        return batch

    def restore(self, epoch: int, pos: int) -> None:
        self.epoch = epoch
        self.pos = pos
        self._buf = None


@dataclass
class TrainResult:
    checkpoint_path: Path
    trace_path: Path
    epochs_run: int


def train(config: TrainConfig, dataset: ReIDDataset, out_dir,
          resume_from=None) -> TrainResult:
    """Run dynamic two-loss training (or an ablation mode) to completion,
    writing a per-iteration trace CSV and a final checkpoint under out_dir."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    split = dataset.train_split()
    if len(split) == 0:
        raise ConfigError("train: dataset has no train split")
    label_map = make_label_map(split)
    fingerprint = dataset.fingerprint()
    model = build_model(config, dataset.image_hw, len(label_map))
    mask = BranchMask.from_string(config.pyramid_mask)
    opt = SGD(list(model.named_parameters()), config.momentum, config.weight_decay)
    sched = SchedulerState(alpha=config.alpha, gamma=config.gamma,
                           switch_ratio=config.switch_ratio,
                           alternating=config.no_triplet_alternating)

    rand_stream = _BatchStream(lambda e: random_batches(
        split, config.batch_size, config.seed, e))
    pk_stream = _BatchStream(lambda e: pk_batches(
        split, config.p_ids, config.k_imgs, config.seed, e,
        with_replacement=config.pk_with_replacement))

    if resume_from is not None:
        entries = load_checkpoint(resume_from)
        stored_config = _decode_config(entries)
        # run-length fields may legitimately change on resume
        diff = [f.name for f in fields(TrainConfig)
                if f.name not in ("epochs", "checkpoint_every")
                and getattr(stored_config, f.name) != getattr(config, f.name)]
        if diff:
            raise ConfigError(f"checkpoint config does not match requested config, "
                              f"differing fields: {diff}")
        if _bytes_entry(entries, "meta/dataset_fingerprint").hex() != fingerprint:
            raise ConfigError("checkpoint was trained on a different dataset "
                              "(fingerprint mismatch)")
        model, _ = rebuild_model(entries)
        opt = SGD(list(model.named_parameters()), config.momentum, config.weight_decay)
        for name, velocity in opt.velocity.items():
            velocity[...] = _entry(entries, f"momentum/{name}", velocity.shape)
        sched = SchedulerState.from_scalars(
            {key: float(_entry(entries, f"sched/{key}")[()]) for key in sched.to_scalars()})
        rand_stream.restore(_int_entry(entries, "meta/rand_epoch"),
                            _int_entry(entries, "meta/rand_pos"))
        pk_stream.restore(_int_entry(entries, "meta/pk_epoch"),
                          _int_entry(entries, "meta/pk_pos"))

    iters_per_epoch = math.ceil(len(split) / config.batch_size)
    total_iters = config.epochs * iters_per_epoch
    trace_path = out_dir / "trace.csv"
    checkpoint_path = out_dir / "checkpoint.pyrt"

    def stream_state() -> dict:
        return {"rand_epoch": rand_stream.epoch, "rand_pos": rand_stream.pos,
                "pk_epoch": pk_stream.epoch, "pk_pos": pk_stream.pos}

    with TraceWriter(trace_path) as trace:
        while sched.tau < total_iters:
            epoch = sched.tau // iters_per_epoch
            lr = lr_schedule(epoch, config.base_lr, config.lr_halving_epochs)
            phase = sched.begin_iteration()
            batch = rand_stream.next() if phase == Phase.ID_ONLY else pk_stream.next()
            images = Tensor(dataset.images[batch.indices])
            class_labels = np.asarray([label_map[int(i)] for i in batch.identities],
                                      dtype=np.int64)

            out = model.forward(images, training=True, mask=mask)
            l_id = id_loss(out.logits, class_labels)
            l_tp: LossValue | None = None

            if config.no_triplet_alternating:
                # the ablation optimizes and tracks the ID loss only
                loss = l_id.tensor
            elif phase == Phase.ID_ONLY:
                loss = l_id.tensor
                if config.triplet_in_id_phase and len(batch) >= 2:
                    # tracked but not optimized: feeds the triplet EMA so the
                    # phase rule can ever leave the ID-only regime
                    with no_grad():
                        l_tp = triplet_loss(Tensor(out.embedding.data), batch.identities,
                                            config.margin, squared=config.squared_distance)
            else:
                l_tp = triplet_loss(out.embedding, batch.identities, config.margin,
                                    squared=config.squared_distance)
                if sched.fl_id == 0.0 and sched.fl_tp == 0.0:
                    loss = None  # zero total weight: no parameter update
                else:
                    loss = combined_objective(l_id.tensor, l_tp.tensor,
                                              sched.fl_id, sched.fl_tp)

            if loss is not None:
                if not np.isfinite(loss.data).all():
                    raise TrainingDiverged(f"non-finite loss at iteration {sched.tau}")
                model.zero_grad()
                backward(loss)
                opt.step(lr)

            sched.observe("id", l_id.value)
            if l_tp is not None and not l_tp.degenerate:
                sched.observe("tp", l_tp.value)
            trace.write(sched.tau, phase, l_id.value,
                        None if l_tp is None else l_tp.value, sched, lr)

            if sched.tau % iters_per_epoch == 0:
                done = sched.tau // iters_per_epoch
                if config.checkpoint_every and done % config.checkpoint_every == 0 \
                        and done < config.epochs:
                    save_checkpoint(out_dir / f"checkpoint_ep{done}.pyrt", model, config,
                                    sched, opt, stream_state(), fingerprint)

    save_checkpoint(checkpoint_path, model, config, sched, opt, stream_state(),
                    fingerprint)
    return TrainResult(checkpoint_path=checkpoint_path, trace_path=trace_path,
                       epochs_run=config.epochs)
