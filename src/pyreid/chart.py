"""Minimal line-chart renderer writing PNG files, no plotting dependency."""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

PALETTE = (
    (31, 119, 180),   # blue
    (255, 127, 14),   # orange
    (44, 160, 44),    # green
    (214, 39, 40),    # red
    (148, 103, 189),  # purple
)

_BG = (255, 255, 255)
_AXIS = (80, 80, 80)


def write_png(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as an 8-bit RGB PNG."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"write_png: expected (H, W, 3) uint8, got "
                         f"{rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    raw = b"".join(b"\x00" + rgb[y].tobytes() for y in range(h))
    png = b"".join([
        b"\x89PNG\r\n\x1a\n",
        chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)),
        chunk(b"IDAT", zlib.compress(raw, 9)),
        chunk(b"IEND", b""),
    ])
    Path(path).write_bytes(png)


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int, color) -> None:
    # Bresenham
    h, w = img.shape[:2]
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= y0 < h and 0 <= x0 < w:
            img[y0, x0] = color
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def line_chart(series: list, width: int = 640, height: int = 400) -> np.ndarray:
    """Render [(label, xs, ys), ...] as polylines on shared axes.

    Labels are drawn as colored swatches in the top-left corner (no font
    rasterization); colors cycle through the palette in series order.
    """
    if not series:
        raise ValueError("line_chart: no series")
    img = np.full((height, width, 3), _BG, dtype=np.uint8)
    ml, mr, mt, mb = 40, 12, 12, 24
    x_all = np.concatenate([np.asarray(xs, dtype=np.float64) for _, xs, _ in series])
    y_all = np.concatenate([np.asarray(ys, dtype=np.float64) for _, _, ys in series])
    y_all = y_all[np.isfinite(y_all)]
    if y_all.size == 0:
        y_all = np.zeros(1)
    x_min, x_max = float(x_all.min()), float(x_all.max())
    y_min, y_max = float(y_all.min()), float(y_all.max())

    def frac(v, lo, hi):
        # halves keep the difference of any two finite floats finite; a flat
        # range puts every point on the axis
        span = hi / 2 - lo / 2
        return (v / 2 - lo / 2) / span if span > 0 else 0.0

    def px(x):
        return ml + int(round(frac(x, x_min, x_max) * (width - ml - mr - 1)))

    def py(y):
        return height - mb - 1 - int(round(frac(y, y_min, y_max) * (height - mt - mb - 1)))

    img[height - mb - 1, ml:width - mr] = _AXIS
    img[mt:height - mb, ml] = _AXIS

    for si, (_, xs, ys) in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        last = None
        for x, y in zip(xs, ys):
            if not np.isfinite(y):
                last = None
                continue
            pt = (px(x), py(y))
            if last is not None:
                _draw_line(img, last[0], last[1], pt[0], pt[1], color)
            else:
                img[pt[1], pt[0]] = color
            last = pt
        # legend swatch
        sw_y = 6 + 8 * si
        img[sw_y:sw_y + 5, 6:16] = color
    return img
