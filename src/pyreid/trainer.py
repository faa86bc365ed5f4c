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

from .autograd import Tensor, backward
from .backbone import STAGES, Backbone
from .batching import Split, pk_batches, pk_groups, random_batches
from .container import load_tensors, save_tensors
from .data_synth import ReIDDataset
from .errors import ConfigError, ContainerError, TrainingDiverged, short
from .losses import LossValue, id_loss, triplet_loss
from .pyramid import BranchMask, PyramidModel
from .scheduler import LOSS_POLICIES, Phase, SchedulerState, TraceWriter

_INIT_PURPOSE = 7

CHECKPOINT_VERSION = 10

MOMENTUM, WEIGHT_DECAY = 0.9, 0.0005  # SGD's fixed momentum and L2 weight decay


@dataclass(frozen=True)
class TrainConfig:
    """The part count n is len(pyramid_mask), and both samplers draw
    batch_size = p_ids * k_imgs images."""
    feature_dim: int = 16
    margin: float = 1.4
    p_ids: int = 4
    k_imgs: int = 4
    base_lr: float = 0.01
    epochs: int = 30
    lr_halving_epochs: tuple = (15, 20, 25)
    seed: int = 0
    pyramid_mask: str = "111111"
    loss_policy: str = "dynamic"

    @property
    def batch_size(self) -> int:
        return self.p_ids * self.k_imgs

    def validate(self) -> None:
        for key in ("feature_dim", "epochs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {short(getattr(self, key))}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {short(self.seed)}")
        if self.p_ids < 2 or self.k_imgs < 2:
            raise ConfigError(f"p_ids and k_imgs must be >= 2 for valid triplets, got "
                              f"P={short(self.p_ids)} K={short(self.k_imgs)}")
        if list(self.lr_halving_epochs) != sorted(set(self.lr_halving_epochs)):
            raise ConfigError(f"lr_halving_epochs must be strictly increasing, got "
                              f"{short(self.lr_halving_epochs)}")
        # an entry below 1 halves the rate from epoch 0: a smaller base_lr
        if any(e < 1 for e in self.lr_halving_epochs):
            raise ConfigError(f"lr_halving_epochs entries must be >= 1, got "
                              f"{short(self.lr_halving_epochs)}")
        BranchMask.from_string(self.pyramid_mask)
        if self.loss_policy not in LOSS_POLICIES:
            raise ConfigError(f"loss_policy must be one of {', '.join(LOSS_POLICIES)}, "
                              f"got {short(self.loss_policy)!r}")
        # a NaN fails every comparison, so it is refused with the range
        for key in ("margin", "base_lr"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{key} must be finite and positive, got {value}")


PROFILES = {
    "desk": TrainConfig(),
    "paper": TrainConfig(feature_dim=128, p_ids=8, k_imgs=8,
                         epochs=120, lr_halving_epochs=(60, 70, 80, 90),
                         pyramid_mask="111111"),
}


# -- config text codec ----------------------------------------------------------
#
# One text form serves config files, resolved_config.ini and checkpoints. A
# field's parser and formatter follow the type of its default value, and
# tuple items are separated by ",".

_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


def _parse_value(text: str, like):
    """Parse text as a value of the type of `like`."""
    if isinstance(like, tuple):
        return tuple(type(like[0])(part.strip()) for part in text.split(",") if part.strip())
    return type(like)(text.strip())


def _format_value(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _config_lines(text: str, source):
    """(line number, key, value text) per `key = value` line; '#' starts a
    comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {short(raw)!r}")
        key, _, val = line.partition("=")
        yield lineno, key.strip(), val.strip()


def parse_config_text(text: str, source) -> dict:
    """Typed field values of a config text. Errors name the source, the line
    and the key; a key may be set once."""
    values, first_line = {}, {}
    for lineno, key, val in _config_lines(text, source):
        if key not in _DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {short(key)!r}")
        if key in first_line:
            raise ConfigError(f"{source}:{lineno}: config key {key!r} repeated "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        try:
            values[key] = _parse_value(val, _DEFAULTS[key])
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {short(val)!r}") from exc
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

    def __init__(self, named_params: list):
        self.params = list(named_params)
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
            sgd_step(p.data, g, self.velocity[name], lr, MOMENTUM,
                     WEIGHT_DECAY if self.decays(name) else 0.0)


# -- model construction and checkpointing ---------------------------------------


def make_label_map(split: Split) -> dict:
    return {int(ident): i for i, ident in enumerate(sorted(np.unique(split.identities)))}


def build_model(config: TrainConfig, image_hw: tuple, num_identities: int) -> PyramidModel:
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([config.seed, _INIT_PURPOSE])))
    try:
        return PyramidModel(Backbone(STAGES, rng), BranchMask.from_string(config.pyramid_mask),
                            config.feature_dim, num_identities, image_hw, rng)
    except MemoryError as exc:
        raise ConfigError(f"feature_dim {short(config.feature_dim)} is too large to "
                          f"allocate") from exc


def _entry(entries: dict, key: str, shape=(), finite: bool = False) -> np.ndarray:
    """Checkpoint entry `key`, which must exist with `shape` (any if None),
    and hold only finite values if `finite`."""
    arr = entries.get(key)
    if arr is None:
        raise ContainerError(f"checkpoint has no entry {key!r}")
    if shape is not None and arr.shape != shape:
        raise ContainerError(f"checkpoint entry {key!r}: stored shape {arr.shape}, "
                             f"expected {shape}")
    if finite and not np.isfinite(arr).all():
        raise ContainerError(f"checkpoint entry {key!r} holds a non-finite value")
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
    sizes = {key: _int_entry(entries, f"meta/{key}") for key in ("image_h", "image_w")}
    for key, value in sizes.items():
        if value < 1:
            raise ContainerError(f"checkpoint entry 'meta/{key}' must be positive, "
                                 f"got {value}")
    # the classifier's last axis is the identity count; its full shape is checked
    # before anything is allocated, so an empty axis cannot back a forged count
    classifier = _entry(entries, "param/head.classifier.weight", shape=None)
    branches = BranchMask.from_string(config.pyramid_mask).branches()
    if (classifier.ndim != 3 or classifier.shape[:2] != (branches, config.feature_dim)
            or classifier.shape[-1] < 1):
        raise ContainerError(f"checkpoint entry 'param/head.classifier.weight' has shape "
                             f"{classifier.shape}, expected ({branches}, "
                             f"{config.feature_dim}, identities >= 1)")
    model = build_model(config, (sizes["image_h"], sizes["image_w"]), classifier.shape[-1])
    for name, p in model.named_parameters():
        p.data[...] = _entry(entries, f"param/{name}", p.data.shape, finite=True)
    for name, buf in model.named_buffers():
        buf[...] = _entry(entries, f"buffer/{name}", buf.shape, finite=True)
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

    def next(self) -> Split:
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


def train(config: TrainConfig, dataset: ReIDDataset, out_dir,
          resume_from=None) -> TrainResult:
    """Run dynamic two-loss training (or an ablation mode) to completion,
    writing the resolved config, a per-iteration trace CSV and a final
    checkpoint under out_dir."""
    config.validate()
    split = dataset.train_split()
    if len(split) == 0:
        raise ConfigError("train: dataset has no train split")
    # an unfillable P x K batch, a misfit pyramid, a model too large to allocate
    # or a checkpoint that does not match is refused before any output exists
    pk_groups(split, config.p_ids, config.k_imgs)
    label_map = make_label_map(split)
    model = build_model(config, dataset.image_hw, len(label_map))
    fingerprint = dataset.fingerprint()
    opt = SGD(list(model.named_parameters()))
    sched = SchedulerState(policy=config.loss_policy)

    rand_stream = _BatchStream(lambda e: random_batches(
        split, config.batch_size, config.seed, e))
    pk_stream = _BatchStream(lambda e: pk_batches(
        split, config.p_ids, config.k_imgs, config.seed, e))

    if resume_from is not None:
        entries = load_checkpoint(resume_from)
        model, stored_config = rebuild_model(entries)
        # the run length may legitimately change on resume
        diff = [f.name for f in fields(TrainConfig) if f.name != "epochs"
                and getattr(stored_config, f.name) != getattr(config, f.name)]
        if diff:
            raise ConfigError(f"checkpoint config does not match requested config, "
                              f"differing fields: {diff}")
        if _bytes_entry(entries, "meta/dataset_fingerprint").hex() != fingerprint:
            raise ConfigError("checkpoint was trained on a different dataset "
                              "(fingerprint mismatch)")
        opt = SGD(list(model.named_parameters()))
        for name, velocity in opt.velocity.items():
            velocity[...] = _entry(entries, f"momentum/{name}", velocity.shape, finite=True)
        scalars = {key: float(_entry(entries, f"sched/{key}")[()]) for key in sched.to_scalars()}
        for key, value in scalars.items():
            # NaN in k_id or k_tp is a task with no loss yet
            if not (math.isfinite(value) or (math.isnan(value) and key in ("k_id", "k_tp"))):
                raise ContainerError(f"checkpoint entry 'sched/{key}' holds a non-finite value")
        sched.restore(scalars)
        rand_stream.restore(_int_entry(entries, "meta/rand_epoch"),
                            _int_entry(entries, "meta/rand_pos"))
        pk_stream.restore(_int_entry(entries, "meta/pk_epoch"),
                          _int_entry(entries, "meta/pk_pos"))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.ini").write_text(resolved_config_text(config))
    iters_per_epoch = math.ceil(len(split) / config.batch_size)
    total_iters = config.epochs * iters_per_epoch
    trace_path = out_dir / "trace.csv"
    checkpoint_path = out_dir / "checkpoint.pyrt"

    with TraceWriter(trace_path) as trace:
        while sched.tau < total_iters:
            epoch = sched.tau // iters_per_epoch
            lr = lr_schedule(epoch, config.base_lr, config.lr_halving_epochs)
            phase = sched.begin_iteration()
            batch = rand_stream.next() if phase == Phase.ID_ONLY else pk_stream.next()
            images = Tensor(dataset.images[batch.indices])
            class_labels = np.asarray([label_map[int(i)] for i in batch.identities],
                                      dtype=np.int64)

            try:
                embedding, logits = model.forward(images, training=True)
                l_id = id_loss(logits, class_labels)
                # an ID-only iteration tracks L_tp without optimizing it; its
                # node is not reached from the objective, so no backward visits it
                l_tp = (triplet_loss(embedding, batch.identities, config.margin)
                        if sched.tracks_triplet else LossValue(None, count=0))
                loss = sched.objective(l_id.tensor, l_tp.tensor)
                if loss is not None:
                    if not np.isfinite(loss.data).all():
                        raise TrainingDiverged(f"non-finite loss at iteration {sched.tau}")
                    model.zero_grad()
                    backward(loss)
                    opt.step(lr)
            except FloatingPointError as exc:  # an op's finiteness check (PYREID_DEBUG)
                raise TrainingDiverged(f"{exc} at iteration {sched.tau}") from exc

            sched.observe(l_id.value, l_tp.value)
            trace.write(sched.tau, phase, l_id.value, l_tp.value, sched, lr)

    # the losses can stay finite while a running statistic overflows
    for name, buf in model.named_buffers():
        if not np.isfinite(buf).all():  # no evaluation could use the checkpoint
            raise TrainingDiverged(f"batch-norm statistic {name!r} is non-finite after "
                                   f"iteration {sched.tau - 1}")
    stream_state = {"rand_epoch": rand_stream.epoch, "rand_pos": rand_stream.pos,
                    "pk_epoch": pk_stream.epoch, "pk_pos": pk_stream.pos}
    save_checkpoint(checkpoint_path, model, config, sched, opt, stream_state, fingerprint)
    return TrainResult(checkpoint_path=checkpoint_path, trace_path=trace_path)
