"""Seeded benchmark inputs, written straight from the file formats that
README.md documents (CCEMB1 binary embeddings, PNG), with numpy, zlib
and struct only.

Nothing here calls a cornercase writer, so a change to the program's
encoders cannot change what the benchmark feeds the program. Every
function is a pure function of its numpy generator, so one workload
seed gives the same bytes on every run.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# Scene pixels stay below pure white, so every pixel a white box paints
# differs from its source and the box can be recovered exactly.
SCENE_MAX = 239


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _filtered_scanlines(raw: np.ndarray, bpp: int, filters: np.ndarray) -> bytes:
    """Apply PNG filter filters[r] to row r of raw (H, stride) uint8 and
    prepend the filter-type byte, as the PNG specification defines it."""
    x = raw.astype(np.int16)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[:, bpp:] = b[:, :-bpp]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    predictors = np.stack([np.zeros_like(x), a, b, (a + b) >> 1, paeth])
    rows = np.arange(x.shape[0])
    filtered = ((x - predictors[filters, rows]) & 0xFF).astype(np.uint8)
    return np.hstack([filters.astype(np.uint8)[:, None], filtered]).tobytes()


def png_bytes(arr: np.ndarray, filters=None) -> bytes:
    """Encode (H, W, 3) uint8 RGB, (H, W) uint8 gray or (H, W) uint16
    gray as a non-interlaced PNG. filters gives each row's filter type;
    None writes every row with filter 0."""
    arr = np.asarray(arr)
    height, width = arr.shape[:2]
    if arr.ndim == 3 and arr.shape[2] == 3 and arr.dtype == np.uint8:
        color_type, bit_depth, bpp = 2, 8, 3
        raw = arr.reshape(height, width * 3)
    elif arr.ndim == 2 and arr.dtype == np.uint8:
        color_type, bit_depth, bpp = 0, 8, 1
        raw = arr
    elif arr.ndim == 2 and arr.dtype == np.uint16:
        color_type, bit_depth, bpp = 0, 16, 2
        raw = arr.astype(">u2").view(np.uint8).reshape(height, width * 2)
    else:
        raise ValueError(f"cannot encode shape {arr.shape} dtype {arr.dtype}")
    if filters is None:
        filters = np.zeros(height, dtype=np.intp)
    scanlines = _filtered_scanlines(raw, bpp, np.asarray(filters, dtype=np.intp))
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    return (
        PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(scanlines, 6))
        + _chunk(b"IEND", b"")
    )


def cycled_filters(height: int) -> np.ndarray:
    """None/Sub/Up/Average/Paeth in turn, row by row. The same pattern
    for every seed keeps the decoder's work independent of the seed."""
    return np.arange(height) % 5


def write_png(path: Path, arr: np.ndarray, filters=None) -> None:
    path.write_bytes(png_bytes(arr, filters))


# ---------------------------------------------------------------------------
# CCEMB1 embeddings
# ---------------------------------------------------------------------------


def ccemb_bytes(ids: list[str], matrix: np.ndarray) -> bytes:
    """magic CCEMB1, u16 version, u32 dim, u64 count, then per record
    u16 id length + UTF-8 id + dim x f32, little-endian."""
    count, dim = matrix.shape
    encoded = [i.encode("utf-8") for i in ids]
    id_len = len(encoded[0])
    if any(len(e) != id_len for e in encoded):
        raise ValueError("the generator writes fixed-length ids")
    records = np.zeros(
        count, dtype=[("n", "<u2"), ("id", f"S{id_len}"), ("vec", "<f4", (dim,))]
    )
    records["n"] = id_len
    records["id"] = encoded
    records["vec"] = matrix
    return b"CCEMB1" + struct.pack("<HIQ", 1, dim, count) + records.tobytes()


def gaussian_rows(rng: np.random.Generator, count: int, dim: int, mean) -> np.ndarray:
    """Float32-representable Gaussian rows, exactly what the file stores."""
    return (rng.standard_normal((count, dim)) + mean).astype(np.float32)


def write_embeddings(path: Path, prefix: str, matrix: np.ndarray) -> list[str]:
    ids = [f"{prefix}{i:06d}" for i in range(matrix.shape[0])]
    path.write_bytes(ccemb_bytes(ids, matrix))
    return ids


# ---------------------------------------------------------------------------
# road scenes
# ---------------------------------------------------------------------------


def road_scene(
    rng: np.random.Generator, height: int, width: int, palette: str, contrast: float
) -> np.ndarray:
    """One low-contrast road scene as (H, W, 3) uint8 in [0, SCENE_MAX].

    Sky above a random horizon, a road trapezoid with a dashed centre
    line below it, and a few vehicles or buildings. Each channel is then
    rescaled to the fixed contrast, so small sensor noise moves the toy
    encoder's global deviation features.
    """
    sky, road, grass = {
        "day": ((0.50, 0.52, 0.56), 0.45, (0.42, 0.47, 0.40)),
        "dusk": ((0.40, 0.36, 0.42), 0.33, (0.30, 0.32, 0.28)),
    }[palette]
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    horizon = int(height * rng.uniform(0.35, 0.5))
    img = np.empty((height, width, 3))
    fade = np.clip(rows / max(horizon - 1, 1), 0.0, 1.0)[:, :, None]
    img[:] = np.asarray(sky) * (1 - 0.3 * fade) + 0.3 * 0.8 * fade
    below = rows >= horizon
    depth = np.clip((rows - horizon) / max(height - horizon, 1), 0.0, 1.0)
    centre = width * rng.uniform(0.4, 0.6)
    half = 0.05 * width + 0.45 * width * depth
    on_road = below & (np.abs(cols - centre) < half)
    img[below[:, 0]] = grass
    img[on_road] = road + rng.normal(0.0, 0.01)
    lane = on_road & (np.abs(cols - centre) < 0.3 + 0.02 * width * depth) & ((rows // 4) % 2 == 0)
    img[lane] = 0.8
    for _ in range(int(rng.integers(2, 6))):
        bh = int(rng.integers(3, max(4, height // 4)))
        bw = int(rng.integers(3, max(4, width // 5)))
        top = int(rng.integers(max(0, horizon - bh), min(height - bh, horizon + height // 6) + 1))
        left = int(rng.integers(0, width - bw + 1))
        img[top : top + bh, left : left + bw] = rng.uniform(0.3, 0.6, 3)
    img += rng.normal(0.0, 0.004, img.shape)
    for ch in range(3):
        plane = img[:, :, ch]
        plane[:] = plane.mean() + (plane - plane.mean()) * (contrast / max(plane.std(), 1e-9))
    img *= 1.0 + rng.uniform(-0.04, 0.04)
    scaled = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5)
    return np.minimum(scaled, SCENE_MAX).astype(np.uint8)


def textured_frame(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """A larger road frame with sensor grain, so compression and the PNG
    filters see realistic, not flat, rows."""
    img = road_scene(rng, height, width, "day", contrast=0.12).astype(np.int16)
    img += rng.integers(-6, 7, img.shape)
    return np.clip(img, 0, SCENE_MAX).astype(np.uint8)


# ---------------------------------------------------------------------------
# uncertainty maps and pixel ground truth
# ---------------------------------------------------------------------------


def uncertainty_map(
    rng: np.random.Generator, height: int, width: int, blobs: int
) -> tuple[np.ndarray, np.ndarray]:
    """(16-bit uncertainty map, 8-bit ground truth).

    The background is low, noisy uncertainty; each blob is an ellipse of
    high uncertainty marked 255 in the ground truth. The bottom rows
    (the ego vehicle's hood) are marked invalid with value 128.
    """
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    values = 0.06 + 0.04 * np.abs(rng.standard_normal((height, width)))
    values += 0.05 * np.sin(rows / rng.uniform(6, 14)) * np.cos(cols / rng.uniform(6, 14))
    truth = np.zeros((height, width), dtype=np.uint8)
    for _ in range(blobs):
        cy, cx = rng.uniform(0.2, 0.8) * height, rng.uniform(0.1, 0.9) * width
        ry, rx = rng.uniform(0.05, 0.15) * height, rng.uniform(0.04, 0.12) * width
        inside = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
        values[inside] = rng.uniform(0.45, 0.75) + 0.2 * rng.random(int(inside.sum()))
        truth[inside] = 255
    truth[int(0.9 * height) :] = 128
    quantized = np.floor(np.clip(values, 0.0, 1.0) * 65535.0 + 0.5).astype(np.uint16)
    return quantized, truth
