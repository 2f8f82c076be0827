"""Image and depth-map containers plus a self-contained PNG codec.

Only the PNG subset the toolkit needs is implemented: 8-bit RGB
(corruption inputs and outputs), 8-bit grayscale (pixel ground truth)
and 16-bit grayscale (depth and uncertainty maps), non-interlaced.
Files written here always use filter type 0; all five filter types are
decoded on read so images from other encoders load fine.

Pixel values travel through the toolkit as float64 in [0, 1]; 8-bit
quantization uses round-half-up so file output is bit-reproducible.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

# meters-per-unit key in the depth sidecar file
_DEPTH_SCALE_KEY = "meters_per_unit"


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ImageBuffer:
    """Normalized RGB image: pixels is (H, W, 3) float64 in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=float)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValidationError(f"image must have shape (H, W, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("image must have positive height and width")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("image contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValidationError("image values must lie in [0, 1]")
        object.__setattr__(self, "pixels", _frozen_array(arr))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def to_uint8(self) -> np.ndarray:
        """Quantize to 8-bit with round-half-up."""
        return np.floor(self.pixels * 255.0 + 0.5).astype(np.uint8)

    @classmethod
    def from_uint8(cls, arr: np.ndarray) -> "ImageBuffer":
        return cls(np.asarray(arr, dtype=float) / 255.0)


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth in meters with a validity mask.

    Invalid pixels carry no usable depth; consumers apply their own
    fallback policy (see corruptions.apply_fog).
    """

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        if depth.ndim != 2:
            raise ValidationError(f"depth must be 2-d, got shape {depth.shape}")
        if valid.shape != depth.shape:
            raise ValidationError("depth and valid mask shapes differ")
        chosen = depth[valid]
        if chosen.size and (not np.all(np.isfinite(chosen)) or chosen.min() <= 0.0):
            raise ValidationError("valid depths must be positive and finite")
        object.__setattr__(self, "depth", _frozen_array(depth))
        object.__setattr__(self, "valid", _frozen_array(valid, dtype=bool))

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]


# ---------------------------------------------------------------------------
# PNG decoding
# ---------------------------------------------------------------------------


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> bytearray:
    """Reverse PNG scanline filtering. stride excludes the filter byte."""
    out = bytearray(height * stride)
    prior = bytearray(stride)
    pos = 0
    for row in range(height):
        ftype = raw[pos]
        pos += 1
        line = bytearray(raw[pos : pos + stride])
        pos += stride
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(bpp, stride):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(stride):
                line[i] = (line[i] + prior[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + ((left + prior[i]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                left = line[i - bpp] if i >= bpp else 0
                upleft = prior[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + _paeth(left, prior[i], upleft)) & 0xFF
        else:
            raise FormatError(f"unsupported PNG filter type {ftype}")
        out[row * stride : (row + 1) * stride] = line
        prior = line
    return out


def read_png(path) -> np.ndarray:
    """Decode a PNG file.

    Returns (H, W, 3) uint8 for RGB images, (H, W) uint8 for 8-bit
    grayscale, and (H, W) uint16 for 16-bit grayscale.
    """
    data = Path(path).read_bytes()
    if data[:8] != _PNG_SIGNATURE:
        raise FormatError(f"{path}: not a PNG file")
    pos = 8
    header = None
    idat = bytearray()
    while pos < len(data):
        if pos + 8 > len(data):
            raise FormatError(f"{path}: truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        chunk = data[pos + 8 : pos + 8 + length]
        if len(chunk) != length or pos + 12 + length > len(data):
            raise FormatError(f"{path}: truncated PNG chunk {ctype!r}")
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(ctype + chunk) & 0xFFFFFFFF != crc:
            raise FormatError(f"{path}: PNG chunk {ctype!r} fails CRC check")
        pos += 12 + length
        if ctype == b"IHDR":
            if length != 13:
                raise FormatError(f"{path}: IHDR chunk has {length} bytes, expected 13")
            header = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
    if header is None:
        raise FormatError(f"{path}: missing IHDR chunk")
    width, height, bit_depth, color_type, compression, filter_method, interlace = header
    if compression != 0 or filter_method != 0:
        raise FormatError(f"{path}: unsupported PNG compression/filter method")
    if interlace != 0:
        raise FormatError(f"{path}: interlaced PNG not supported")
    if color_type not in (0, 2) or bit_depth not in (8, 16):
        raise FormatError(
            f"{path}: unsupported PNG layout (color type {color_type}, "
            f"bit depth {bit_depth}); expected 8/16-bit grayscale or 8-bit RGB"
        )
    if color_type == 2 and bit_depth != 8:
        raise FormatError(f"{path}: only 8-bit RGB is supported")
    channels = 3 if color_type == 2 else 1
    sample_bytes = bit_depth // 8
    stride = width * channels * sample_bytes
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise FormatError(f"{path}: corrupt PNG image data ({exc})") from exc
    if len(raw) != height * (stride + 1):
        raise FormatError(f"{path}: PNG pixel payload has wrong size")
    flat = _unfilter(raw, height, stride, channels * sample_bytes)
    if bit_depth == 8:
        arr = np.frombuffer(bytes(flat), dtype=np.uint8)
    else:
        arr = np.frombuffer(bytes(flat), dtype=">u2").astype(np.uint16)
    if channels == 3:
        return arr.reshape(height, width, 3)
    return arr.reshape(height, width)


# ---------------------------------------------------------------------------
# PNG encoding
# ---------------------------------------------------------------------------


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + ctype
        + payload
        + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
    )


def write_png(path, arr: np.ndarray) -> None:
    """Encode an array as PNG.

    Accepts (H, W, 3) uint8 (RGB), (H, W) uint8 (gray) or (H, W)
    uint16 (16-bit gray). Rows are written with filter type 0.
    """
    arr = np.asarray(arr)
    if arr.ndim == 3 and arr.shape[2] == 3 and arr.dtype == np.uint8:
        color_type, bit_depth = 2, 8
        payload = arr.tobytes()
    elif arr.ndim == 2 and arr.dtype == np.uint8:
        color_type, bit_depth = 0, 8
        payload = arr.tobytes()
    elif arr.ndim == 2 and arr.dtype == np.uint16:
        color_type, bit_depth = 0, 16
        payload = arr.astype(">u2").tobytes()
    else:
        raise ValidationError(
            f"cannot encode array with shape {arr.shape} and dtype {arr.dtype}"
        )
    height, width = arr.shape[0], arr.shape[1]
    stride = len(payload) // height
    scanlines = bytearray()
    for row in range(height):
        scanlines.append(0)
        scanlines.extend(payload[row * stride : (row + 1) * stride])
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    blob = (
        _PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(scanlines), 6))
        + _chunk(b"IEND", b"")
    )
    Path(path).write_bytes(blob)


# ---------------------------------------------------------------------------
# toolkit-level file helpers
# ---------------------------------------------------------------------------


def load_image(path) -> ImageBuffer:
    """Load an 8-bit RGB PNG as a normalized image."""
    arr = read_png(path)
    if arr.ndim != 3:
        raise FormatError(f"{path}: expected an RGB image, got grayscale")
    return ImageBuffer.from_uint8(arr)


def save_image(img: ImageBuffer, path) -> None:
    write_png(path, img.to_uint8())


def load_depth(path) -> DepthMap:
    """Load a 16-bit grayscale depth PNG plus its sidecar scale file.

    The sidecar `<path>.json` declares {"meters_per_unit": s}; depth in
    meters is raw_value * s. Raw value 0 marks an invalid pixel.
    """
    arr = read_png(path)
    if arr.ndim != 2 or arr.dtype != np.uint16:
        raise FormatError(f"{path}: depth maps must be 16-bit single-channel PNG")
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise FormatError(f"{path}: missing depth sidecar {sidecar.name}")
    try:
        meta = json.loads(sidecar.read_text())
        scale = float(meta[_DEPTH_SCALE_KEY])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar}: bad depth sidecar ({exc})") from exc
    if scale <= 0:
        raise FormatError(f"{sidecar}: {_DEPTH_SCALE_KEY} must be positive")
    valid = arr > 0
    depth = arr.astype(float) * scale
    depth[~valid] = 1.0  # placeholder; masked out
    return DepthMap(depth=depth, valid=valid)


def save_depth(dm: DepthMap, path, meters_per_unit: float) -> None:
    """Write a depth map as 16-bit PNG plus sidecar; invalid pixels become 0."""
    if meters_per_unit <= 0:
        raise ValidationError("meters_per_unit must be positive")
    raw = np.floor(dm.depth / meters_per_unit + 0.5)
    raw = np.clip(raw, 1, 65535)
    raw[~dm.valid] = 0
    write_png(path, raw.astype(np.uint16))
    Path(str(path) + ".json").write_text(
        json.dumps({_DEPTH_SCALE_KEY: meters_per_unit}) + "\n"
    )
