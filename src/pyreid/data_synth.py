"""Procedural toy Re-ID dataset.

Each identity is rendered as a vertically segmented figure (head / torso /
legs color bands, striped torso) on a dark background. Cameras apply a
fixed brightness factor, channel shift and noise level, and each sample is
optionally corrupted with the detection-failure artifacts the embedding
must survive: vertical misalignment, vertical scale jitter, and a painted
occlusion box. A single severity knob in [0, 1] scales all three.

Generation is a pure function of (config, seed): identities, cameras and
samples each draw from their own SeedSequence-derived PCG64 stream. A
sample's stream only supplies its draws; each identity's samples are then
corrupted, lit and noised together in one float64 pass. Images are held
channels-last, (N, H, W, 3); on disk each split's container holds its
images as one `images` entry, in `manifest.csv` row order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .batching import Split
from .container import load_tensors, save_tensors
from .errors import ConfigError, ContainerError, short

SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY = 0, 1, 2
_SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_QUERY: "query", SPLIT_GALLERY: "gallery"}

_ID_STREAM, _CAM_STREAM, _SAMPLE_STREAM, _SPLIT_STREAM = 11, 22, 33, 44

# a sample's uniforms in draw order, as [low, high) bounds: tint (3),
# offset, scale, occlusion, area, aspect, x, y, occlusion color (3)
_SAMPLE_LOW = np.array([-0.05] * 3 + [-1.0, -1.0, 0.0, 0.0, 0.5, 0.0, 0.0] + [0.7] * 3)
_SAMPLE_HIGH = np.array([0.05] * 3 + [1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 1.0] + [1.0] * 3)

MANIFEST_COLUMNS = ("entry_name", "identity", "camera", "split",
                    "offset", "scale", "occ_x", "occ_y", "occ_w", "occ_h")


# the one geometry generated: two cameras and 48 x 16 images (a loaded
# dataset may hold images of any size)
NUM_CAMS, IMG_H, IMG_W = 2, 48, 16


@dataclass(frozen=True)
class GenConfig:
    num_ids: int = 20
    imgs_per_id: int = 10
    severity: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_ids < 4:
            raise ConfigError(f"num_ids must be >= 4, got {short(self.num_ids)}")
        # each test identity needs a query in each camera and, for each
        # query, a gallery image from the other camera: two images per camera
        if self.imgs_per_id < 4:
            raise ConfigError(f"imgs_per_id must be >= 4, got {short(self.imgs_per_id)}: a test "
                              f"identity needs a query in each of its cameras and a "
                              f"gallery match from another camera for each query")
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigError(f"severity must be in [0, 1], got {self.severity}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {short(self.seed)}")


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


def _entropy(values) -> np.ndarray:
    """The uint32 words a SeedSequence makes of a list of non-negative ints:
    each int's little-endian 32-bit words, at least one per int. A
    SeedSequence of this array equals the list's, and skips converting each
    int, which costs more than the rest of building a sample's stream."""
    return np.array([(int(v) >> shift) & 0xFFFFFFFF for v in values
                     for shift in range(0, max(int(v).bit_length(), 1), 32)], dtype=np.uint32)


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


def apply_misalignment(images: np.ndarray, offset_fractions: np.ndarray,
                       scales: np.ndarray, occ_boxes: np.ndarray | None = None,
                       occ_colors: np.ndarray | None = None) -> np.ndarray:
    """Per image of an (N, C, H, W) stack: a vertical shift by its offset
    fraction of H (edge-replicated), then a vertical rescale about the
    center, then its (x, y, w, h) occlusion box painted in its (C,) color;
    a box row of -1s paints nothing. Returns a new stack of the same shape."""
    offset_fractions = np.asarray(offset_fractions, dtype=np.float64)
    scales = np.asarray(scales, dtype=np.float64)
    for name, values, low, high in (("offset_fraction", offset_fractions, -0.3, 0.3),
                                    ("scale", scales, 0.7, 1.3)):
        outside = ~((values >= low) & (values <= high))
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"{name} must be in [{low}, {high}], got {values[i]} for image {i}")
    n, c, h, _ = images.shape
    rows = np.arange(h)
    # output row r reads row rescaled[r] of the shifted image, which is
    # input row rescaled[r] - shift, edge-replicated; a scale of 1 maps every
    # row to itself
    center = (h - 1) / 2.0
    rescaled = np.clip(np.rint(center + (rows - center) / scales[:, None]).astype(np.int64),
                       0, h - 1)
    shift = np.rint(offset_fractions * h).astype(np.int64)
    source = np.clip(rescaled - shift[:, None], 0, h - 1)
    out = images[np.arange(n)[:, None, None], np.arange(c)[:, None], source[:, None, :]]
    if occ_boxes is not None:
        for i in np.flatnonzero(occ_boxes[:, 2] > 0):
            x, y, bw, bh = occ_boxes[i]
            out[i, :, y:y + bh, x:x + bw] = occ_colors[i][:, None, None]
    return out


def _occlusion_boxes(severity: float, u_occ: np.ndarray, u_area: np.ndarray,
                     u_aspect: np.ndarray, u_x: np.ndarray, u_y: np.ndarray,
                     h: int, w: int) -> np.ndarray:
    """(N, 4) int (x, y, w, h) occlusion boxes in pixels, -1s where a sample
    has none. Each sample is occluded with probability severity / 2 (its
    uniform u_occ is never negative, so severity 0 occludes nothing) by a
    box of up to a quarter of the image at severity 1."""
    area = 0.25 * severity * u_area * h * w
    bh = np.clip(np.rint(np.sqrt(area * u_aspect)), 1, h).astype(np.int64)
    bw = np.clip(np.rint(area / bh), 1, w).astype(np.int64)
    boxes = np.stack([(u_x * (w - bw + 1)).astype(np.int64),
                      (u_y * (h - bh + 1)).astype(np.int64), bw, bh], axis=1)
    return np.where((u_occ < 0.5 * severity)[:, None], boxes, -1)


def _int64(text: str, column: str, where: str) -> int:
    """A manifest integer, which must fit the int64 arrays it is stored in.
    int() refuses decimals longer than sys.get_int_max_str_digits(), and
    none of those fits either."""
    try:
        value = int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):
            raise ContainerError(f"{where}: {column} {short(text)!r} is not an integer") from None
        value = None
    if value is None or not -2 ** 63 <= value < 2 ** 63:
        raise ContainerError(f"{where}: {column} {short(text.strip())} does not fit in int64")
    return value


def _float(text: str, column: str, where: str) -> float:
    """A manifest real number."""
    try:
        return float(text)
    except ValueError:
        raise ContainerError(f"{where}: {column} {short(text)!r} is not a number") from None


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
        try:
            records = [(reader.line_num, r) for r in reader]
        except csv.Error as exc:  # a field over csv's size limit, say
            raise ContainerError(f"manifest.csv:{reader.line_num}: {exc}") from None
        header = records[0][1] if records else []
        if tuple(header) != MANIFEST_COLUMNS:
            raise ConfigError(f"unexpected manifest columns {short(','.join(header))!r}")
        split_codes = {v: k for k, v in _SPLIT_NAMES.items()}
        rows = []
        for line, r in records[1:]:
            where = f"manifest.csv:{line}"
            if len(r) != len(MANIFEST_COLUMNS):
                raise ContainerError(f"{where}: expected {len(MANIFEST_COLUMNS)} fields, "
                                     f"got {len(r)}")
            # a row's image is the next one of its split's container
            if r[0] != f"img_{len(rows):05d}":
                raise ContainerError(f"{where}: image {short(r[0])!r} is out of place, expected "
                                     f"'img_{len(rows):05d}'")
            if r[3] not in split_codes:
                raise ContainerError(f"{where}: unknown split {short(r[3])!r}")
            ints = [_int64(r[i], MANIFEST_COLUMNS[i], where) for i in (1, 2, 6, 7, 8, 9)]
            rows.append((ints[0], ints[1], split_codes[r[3]], _float(r[4], "offset", where),
                         _float(r[5], "scale", where), ints[2:]))
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


def _camera_assignment(seed: int, identity: int, imgs: int, need_feasible: bool) -> np.ndarray:
    """Per-image camera labels; for a test identity, re-rolled until each
    camera holds at least two images, so that each camera's query keeps a
    match from the other camera. If 100 draws miss, each camera takes half
    the images, at least two since imgs >= 4."""
    for attempt in range(100):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, _CAM_STREAM, identity, attempt])))
        assignment = rng.integers(0, NUM_CAMS, size=imgs)
        if not need_feasible or np.bincount(assignment, minlength=NUM_CAMS).min() >= 2:
            return assignment
    return (identity + np.arange(imgs) * NUM_CAMS // imgs) % NUM_CAMS


def generate_dataset(config: GenConfig) -> ReIDDataset:
    """Render the full dataset: half the identities become the train split,
    the other half the test split with one query per (identity, camera)."""
    h, w, k = IMG_H, IMG_W, config.imgs_per_id
    seed, severity = config.seed, config.severity
    split_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, _SPLIT_STREAM])))
    id_order = split_rng.permutation(config.num_ids)
    train_ids = set(int(i) for i in id_order[:config.num_ids // 2])

    n = config.num_ids * k
    images = np.zeros((n, h, w, 3), dtype=np.float32)
    identities = np.repeat(np.arange(config.num_ids, dtype=np.int64), k)
    cameras = np.zeros(n, dtype=np.int64)
    splits = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n, dtype=np.float64)
    scales = np.ones(n, dtype=np.float64)
    occ_boxes = np.full((n, 4), -1, dtype=np.int64)

    cam_specs = [_camera_spec(seed, c) for c in range(NUM_CAMS)]
    brightness = np.array([c.brightness for c in cam_specs])
    channel_shift = np.array([c.channel_shift for c in cam_specs])
    # one identity's draws; its images are then made in one float64 pass,
    # channels-first, and written channels-last by the final clip
    uniforms = np.empty((k, len(_SAMPLE_LOW)))
    noise = np.empty((k, 3, h, w))

    for identity in range(config.num_ids):
        base = render_identity(_identity_spec(seed, identity), h, w)
        is_test = identity not in train_ids
        assignment = _camera_assignment(seed, identity, k, need_feasible=is_test)
        # sample j's stream is SeedSequence([seed, _SAMPLE_STREAM, identity, j])
        entropy = np.tile(_entropy([seed, _SAMPLE_STREAM, identity, 0]), (k, 1))
        entropy[:, -1] = np.arange(k)
        for j in range(k):
            # every draw is made regardless of severity, so that datasets of
            # the same seed at different severities share their draws
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy[j])))
            uniforms[j] = rng.uniform(_SAMPLE_LOW, _SAMPLE_HIGH)
            noise[j] = rng.normal(0.0, cam_specs[assignment[j]].noise_sigma, size=(3, h, w))
        tint, occ_colors = uniforms[:, 0:3], uniforms[:, 10:13]
        u_off, u_scale, u_occ, u_area, u_aspect, u_x, u_y = uniforms[:, 3:10].T
        block = slice(identity * k, (identity + 1) * k)
        offsets[block] = 0.3 * severity * u_off
        scales[block] = 1.0 + 0.3 * severity * u_scale
        occ_boxes[block] = _occlusion_boxes(severity, u_occ, u_area, u_aspect, u_x, u_y, h, w)
        cameras[block] = assignment

        img = apply_misalignment(base + tint[:, :, None, None], offsets[block], scales[block],
                                 occ_boxes[block], occ_colors)
        img *= brightness[assignment][:, None, None, None]
        img += channel_shift[assignment][:, :, None, None]
        img += noise
        np.clip(img, 0.0, 1.0, out=images[block].transpose(0, 3, 1, 2))
        if is_test:
            # one query per camera, remainder gallery
            splits[block] = SPLIT_GALLERY
            sample_rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, _SPLIT_STREAM, identity])))
            for cam_id in range(NUM_CAMS):
                members = block.start + np.flatnonzero(assignment == cam_id)
                splits[int(sample_rng.choice(members))] = SPLIT_QUERY
    return ReIDDataset(images=images, identities=identities, cameras=cameras,
                       splits=splits, offsets=offsets, scales=scales,
                       occ_boxes=occ_boxes)
