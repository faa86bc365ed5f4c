"""Procedural toy Re-ID dataset.

Each identity is rendered as a vertically segmented figure (head / torso /
legs color bands, striped torso) on a dark background. Cameras apply a
fixed brightness factor, channel shift and noise level, and each sample is
optionally corrupted with the detection-failure artifacts the embedding
must survive: vertical misalignment, vertical scale jitter, and a painted
occlusion box. A single severity knob in [0, 1] scales all three.

Generation is a pure function of (config, seed): identities, cameras and
samples each draw from their own SeedSequence-derived PCG64 stream. Images
are held channels-last, (N, H, W, 3); on disk each split's container holds
its images as one `images` entry, in `manifest.csv` row order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .batching import Split
from .container import load_tensors, save_tensors
from .errors import ConfigError, ContainerError

SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY = 0, 1, 2
_SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_QUERY: "query", SPLIT_GALLERY: "gallery"}

_ID_STREAM, _CAM_STREAM, _SAMPLE_STREAM, _SPLIT_STREAM = 11, 22, 33, 44

MANIFEST_COLUMNS = ("entry_name", "identity", "camera", "split",
                    "offset", "scale", "occ_x", "occ_y", "occ_w", "occ_h")


@dataclass(frozen=True)
class GenConfig:
    num_ids: int = 20
    imgs_per_id: int = 10
    num_cams: int = 2
    img_h: int = 48
    img_w: int = 16
    severity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_ids < 4:
            raise ConfigError(f"num_ids must be >= 4, got {self.num_ids}")
        if self.num_cams < 2:
            raise ConfigError(f"num_cams must be >= 2, got {self.num_cams}")
        if self.imgs_per_id < 2:
            raise ConfigError(f"imgs_per_id must be >= 2, got {self.imgs_per_id}")
        # the figure needs a head row above the rest of the body
        if self.img_h < 2:
            raise ConfigError(f"img_h must be >= 2, got {self.img_h}")
        if self.img_w < 1:
            raise ConfigError(f"img_w must be >= 1, got {self.img_w}")
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigError(f"severity must be in [0, 1], got {self.severity}")


@dataclass(frozen=True)
class IdentitySpec:
    identity: int
    head_color: np.ndarray
    torso_color: np.ndarray
    torso_color2: np.ndarray
    legs_color: np.ndarray
    stripe_period: int  # 0 = plain torso
    proportions: tuple  # (head, torso, legs) height fractions, sum 1


@dataclass(frozen=True)
class CameraSpec:
    camera: int
    brightness: float
    channel_shift: np.ndarray
    noise_sigma: float


@dataclass(frozen=True)
class Corruption:
    offset: float = 0.0
    scale: float = 1.0
    occ_box: tuple | None = None  # (x, y, w, h) in pixels
    occ_color: np.ndarray | None = None


def _identity_spec(seed: int, identity: int) -> IdentitySpec:
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _ID_STREAM, identity])))
    colors = rng.uniform(0.05, 0.95, size=(4, 3))
    head = rng.uniform(0.15, 0.30)
    torso = rng.uniform(0.30, 0.45)
    stripe = int(rng.choice([0, 2, 3, 4]))
    return IdentitySpec(identity=identity,
                        head_color=colors[0], torso_color=colors[1],
                        torso_color2=colors[2], legs_color=colors[3],
                        stripe_period=stripe,
                        proportions=(head, torso, 1.0 - head - torso))


def _camera_spec(seed: int, camera: int) -> CameraSpec:
    # strong enough that raw pixels do not match across cameras; the model
    # has to learn the invariance
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _CAM_STREAM, camera])))
    return CameraSpec(camera=camera,
                      brightness=float(rng.uniform(0.70, 1.30)),
                      channel_shift=rng.uniform(-0.15, 0.15, size=3),
                      noise_sigma=float(rng.uniform(0.02, 0.06)))


def render_identity(spec: IdentitySpec, h: int, w: int) -> np.ndarray:
    """Clean (3, h, w) render of one identity on the default background."""
    img = np.full((3, h, w), 0.10)
    head_rows = max(1, int(round(spec.proportions[0] * h)))
    torso_rows = max(1, int(round(spec.proportions[1] * h)))
    margin = max(1, w // 8)
    body = slice(margin, w - margin)
    img[:, :head_rows, body] = spec.head_color[:, None, None]
    torso = slice(head_rows, head_rows + torso_rows)
    img[:, torso, body] = spec.torso_color[:, None, None]
    if spec.stripe_period:
        rows = np.arange(head_rows, head_rows + torso_rows)
        striped = rows[(rows - head_rows) % (2 * spec.stripe_period) < spec.stripe_period]
        img[:, striped, body] = spec.torso_color2[:, None, None]
    img[:, head_rows + torso_rows:, body] = spec.legs_color[:, None, None]
    return img


def apply_misalignment(image: np.ndarray, offset_fraction: float, scale: float,
                       occlusion: tuple | None = None,
                       occ_color: np.ndarray | None = None) -> np.ndarray:
    """Vertical shift (edge-replicated), vertical rescale about the center,
    then an optional painted occlusion box. Output size equals input size."""
    if not -0.3 <= offset_fraction <= 0.3:
        raise ValueError(f"offset_fraction must be in [-0.3, 0.3], got {offset_fraction}")
    if not 0.7 <= scale <= 1.3:
        raise ValueError(f"scale must be in [0.7, 1.3], got {scale}")
    _, h, w = image.shape
    out = image
    offset_px = int(round(offset_fraction * h))
    if offset_px:
        src = np.clip(np.arange(h) - offset_px, 0, h - 1)
        out = out[:, src, :]
    if scale != 1.0:
        center = (h - 1) / 2.0
        src = np.clip(np.rint(center + (np.arange(h) - center) / scale).astype(int), 0, h - 1)
        out = out[:, src, :]
    if out is image:
        out = image.copy()
    if occlusion is not None:
        x, y, bw, bh = occlusion
        if bw > 0 and bh > 0:
            color = occ_color if occ_color is not None else np.array([0.9, 0.9, 0.9])
            out[:, y:y + bh, x:x + bw] = color[:, None, None]
    return out


def _draw_corruption(rng: np.random.Generator, severity: float,
                     h: int, w: int) -> Corruption:
    # all uniforms are drawn regardless of severity so that datasets generated
    # from the same seed at different severities share their draws
    u_off = rng.uniform(-1.0, 1.0)
    u_scale = rng.uniform(-1.0, 1.0)
    u_occ = rng.uniform()
    u_area = rng.uniform()
    u_aspect = rng.uniform(0.5, 2.0)
    u_x = rng.uniform()
    u_y = rng.uniform()
    occ_color = rng.uniform(0.7, 1.0, size=3)
    offset = 0.3 * severity * u_off
    scale = 1.0 + 0.3 * severity * u_scale
    box = None
    if severity > 0 and u_occ < 0.5 * severity:
        area = 0.25 * severity * u_area * h * w
        bh = max(1, min(h, int(round(math.sqrt(area * u_aspect)))))
        bw = max(1, min(w, int(round(area / bh))))
        x = int(u_x * (w - bw + 1))
        y = int(u_y * (h - bh + 1))
        box = (x, y, bw, bh)
    return Corruption(offset=offset, scale=scale, occ_box=box, occ_color=occ_color)


@dataclass
class ReIDDataset:
    """In-memory dataset: (N, H, W, 3) float32 images plus per-sample metadata."""
    images: np.ndarray
    identities: np.ndarray
    cameras: np.ndarray
    splits: np.ndarray
    offsets: np.ndarray
    scales: np.ndarray
    occ_boxes: np.ndarray  # (N, 4) int, -1s where absent

    def __len__(self):
        return len(self.identities)

    @property
    def image_hw(self) -> tuple:
        return self.images.shape[1], self.images.shape[2]

    def _split(self, code: int) -> Split:
        idx = np.flatnonzero(self.splits == code)
        return Split(indices=idx, identities=self.identities[idx], cameras=self.cameras[idx])

    def train_split(self) -> Split:
        return self._split(SPLIT_TRAIN)

    def query_split(self) -> Split:
        return self._split(SPLIT_QUERY)

    def gallery_split(self) -> Split:
        return self._split(SPLIT_GALLERY)

    # -- persistence ---------------------------------------------------------

    def _manifest_bytes(self) -> bytes:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(MANIFEST_COLUMNS)
        for i in range(len(self)):
            box = self.occ_boxes[i]
            writer.writerow([f"img_{i:05d}", int(self.identities[i]), int(self.cameras[i]),
                             _SPLIT_NAMES[int(self.splits[i])],
                             repr(float(self.offsets[i])), repr(float(self.scales[i])),
                             int(box[0]), int(box[1]), int(box[2]), int(box[3])])
        return buf.getvalue().encode()

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for code, name in _SPLIT_NAMES.items():
            save_tensors(directory / f"{name}.pyrt", {"images": self.images[self.splits == code]})
        (directory / "manifest.csv").write_bytes(self._manifest_bytes())

    @classmethod
    def load(cls, directory) -> "ReIDDataset":
        directory = Path(directory)
        reader = csv.reader((directory / "manifest.csv").read_text().splitlines())
        header = next(reader, [])
        if tuple(header) != MANIFEST_COLUMNS:
            raise ConfigError(f"unexpected manifest columns {header}")
        split_codes = {v: k for k, v in _SPLIT_NAMES.items()}
        rows = []
        for r in reader:
            where = f"manifest.csv:{reader.line_num}"
            if len(r) != len(MANIFEST_COLUMNS):
                raise ContainerError(f"{where}: expected {len(MANIFEST_COLUMNS)} fields, "
                                     f"got {len(r)}")
            # a row's image is the next one of its split's container
            if r[0] != f"img_{len(rows):05d}":
                raise ContainerError(f"{where}: image {r[0]!r} is out of place, expected "
                                     f"'img_{len(rows):05d}'")
            if r[3] not in split_codes:
                raise ContainerError(f"{where}: unknown split {r[3]!r}")
            try:
                rows.append((int(r[1]), int(r[2]), split_codes[r[3]],
                             float(r[4]), float(r[5]), [int(v) for v in r[6:]]))
            except ValueError as exc:
                raise ContainerError(f"{where}: {exc}") from exc
        if not rows:
            raise ContainerError("manifest.csv lists no images")
        identities, cameras, splits, offsets, scales, boxes = zip(*rows)
        splits = np.array(splits, dtype=np.int64)
        images = None
        for code, name in _SPLIT_NAMES.items():
            split_images = _split_images(directory / f"{name}.pyrt")
            members = np.flatnonzero(splits == code)
            if len(split_images) != len(members):
                raise ContainerError(f"{name}.pyrt holds {len(split_images)} images, "
                                     f"manifest.csv lists {len(members)} {name} rows")
            if images is None:
                images = np.empty((len(rows),) + split_images.shape[1:], dtype=np.float32)
            elif split_images.shape[1:] != images.shape[1:]:
                raise ContainerError(f"{name}.pyrt: images are {split_images.shape[1:]}, "
                                     f"train.pyrt's are {images.shape[1:]}")
            images[members] = split_images
        return cls(images=images,
                   identities=np.array(identities, dtype=np.int64),
                   cameras=np.array(cameras, dtype=np.int64),
                   splits=splits,
                   offsets=np.array(offsets, dtype=np.float64),
                   scales=np.array(scales, dtype=np.float64),
                   occ_boxes=np.array(boxes, dtype=np.int64))

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self._manifest_bytes())
        # the pixels are hashed in place: a copy per split would raise peak memory
        h.update(repr(self.images.shape).encode())
        h.update(np.ascontiguousarray(self.images, dtype="<f4"))
        return h.hexdigest()


def _split_images(path: Path) -> np.ndarray:
    """The (n, H, W, 3) float32 images of one split container."""
    entries = load_tensors(path)
    if list(entries) != ["images"]:
        raise ContainerError(f"{path.name} holds {len(entries)} entries, not one 'images' "
                             f"tensor; a dataset with one entry per image is in an old "
                             f"format: regenerate it with gen-data")
    images = entries["images"]
    if images.dtype != np.float32 or images.ndim != 4 or images.shape[3] != 3:
        raise ContainerError(f"{path.name}: images are {images.dtype.name} of shape "
                             f"{images.shape}, expected float32 of shape (n, H, W, 3)")
    bad = np.flatnonzero(~np.isfinite(images).all(axis=(1, 2, 3)))
    if len(bad):
        raise ContainerError(f"{path.name}: image {bad[0]} holds a non-finite pixel")
    return images


def _camera_assignment(seed: int, identity: int, imgs: int, cams: int,
                       need_feasible: bool) -> np.ndarray:
    """Per-image camera labels; re-rolled until every camera's query would
    keep a cross-camera match (test identities only)."""
    for attempt in range(100):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, _CAM_STREAM, identity, attempt])))
        assignment = rng.integers(0, cams, size=imgs)
        if not need_feasible:
            return assignment
        counts = np.bincount(assignment, minlength=cams)
        present = np.flatnonzero(counts)
        if len(present) < 2:
            continue
        total_extra = int((counts[present] - 1).sum())
        if all(total_extra - (counts[c] - 1) >= 1 for c in present):
            return assignment
    raise ConfigError(f"identity {identity}: no feasible camera assignment after 100 attempts")


def generate_dataset(config: GenConfig) -> ReIDDataset:
    """Render the full dataset: half the identities become the train split,
    the other half the test split with one query per (identity, camera)."""
    h, w = config.img_h, config.img_w
    seed = config.seed
    split_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _SPLIT_STREAM])))
    id_order = split_rng.permutation(config.num_ids)
    train_ids = set(int(i) for i in id_order[:config.num_ids // 2])

    n = config.num_ids * config.imgs_per_id
    images = np.zeros((n, h, w, 3), dtype=np.float32)
    identities = np.zeros(n, dtype=np.int64)
    cameras = np.zeros(n, dtype=np.int64)
    splits = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n, dtype=np.float64)
    scales = np.ones(n, dtype=np.float64)
    occ_boxes = np.full((n, 4), -1, dtype=np.int64)

    cam_specs = [_camera_spec(seed, c) for c in range(config.num_cams)]
    # an identity's images are clipped channels-first here, then written
    # channels-last with one transposed copy
    clipped = np.empty((config.imgs_per_id, 3, h, w), dtype=np.float32)

    idx = 0
    for identity in range(config.num_ids):
        spec = _identity_spec(seed, identity)
        base = render_identity(spec, h, w)
        is_test = identity not in train_ids
        assignment = _camera_assignment(seed, identity, config.imgs_per_id,
                                        config.num_cams, need_feasible=is_test)
        first = idx
        for j in range(config.imgs_per_id):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, _SAMPLE_STREAM, identity, j])))
            cam = cam_specs[int(assignment[j])]
            img = base + rng.uniform(-0.05, 0.05, size=(3, 1, 1))
            corr = _draw_corruption(rng, config.severity, h, w)
            img = apply_misalignment(img, corr.offset, corr.scale, corr.occ_box,
                                     corr.occ_color)
            img = img * cam.brightness + cam.channel_shift[:, None, None]
            img = img + rng.normal(0.0, cam.noise_sigma, size=img.shape)
            np.clip(img, 0.0, 1.0, out=clipped[j])
            identities[idx] = identity
            cameras[idx] = cam.camera
            offsets[idx] = corr.offset
            scales[idx] = corr.scale
            if corr.occ_box is not None:
                occ_boxes[idx] = corr.occ_box
            idx += 1
        images[first:idx] = clipped.transpose(0, 2, 3, 1)
        if is_test:
            # one query per camera the identity appears in, remainder gallery
            splits[first:idx] = SPLIT_GALLERY
            sample_rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, _SPLIT_STREAM, identity])))
            for cam_id in sorted(set(int(c) for c in assignment)):
                members = first + np.flatnonzero(assignment == cam_id)
                splits[int(sample_rng.choice(members))] = SPLIT_QUERY
    return ReIDDataset(images=images, identities=identities, cameras=cameras,
                       splits=splits, offsets=offsets, scales=scales,
                       occ_boxes=occ_boxes)
