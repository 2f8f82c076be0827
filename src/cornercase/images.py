"""Image and depth-map containers plus a self-contained PNG codec.

Only the PNG subset the toolkit needs is implemented: 8-bit RGB
(corruption inputs and outputs), 8-bit grayscale (pixel ground truth)
and 16-bit grayscale (depth and uncertainty maps), non-interlaced.
Files written here use filter type 0 on every row, and a file read
with filter 0 throughout is sliced from its inflated bytes with no work.
Any other file, which may mix all five filter types, decodes as one
anti-diagonal wavefront of H + W - 1 vector steps, holding one int16
buffer of about 2 (H + W)(min(H, W) + 1) bpp bytes (bpp bytes per
pixel), at most about four times the pixel bytes.

Pixel values travel through the toolkit as float64 in [0, 1]; 8-bit
quantization uses round-half-up so file output is bit-reproducible.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


def _adopt(cls, arr: np.ndarray):
    """A cls (ImageBuffer or uncertainty.UncertaintyMap) that holds arr
    itself, validated and made read-only, where the public constructor
    would copy it: only for a fresh array that no caller holds."""
    obj = cls.__new__(cls)
    obj._keep(arr)
    return obj


def _keep_unit(obj, field: str, arr: np.ndarray, whole: str, values: str) -> None:
    """Set obj.field to arr, read-only, once all its values lie in [0, 1]."""
    # NaN fails both comparisons, and an infinity is the min or the max
    low, high = arr.min(), arr.max()
    if not (0.0 <= low and high <= 1.0):
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValidationError(f"{whole} contains non-finite values")
        raise ValidationError(f"{values} must lie in [0, 1]")
    arr.flags.writeable = False
    object.__setattr__(obj, field, arr)


# Largest magnitude an embedding value or a mixture mean may take. Its
# square times any dimension below 1e8 stays under the float64 maximum
# (1.8e308), so the squared distances, variances and Gram products that
# the fits, scorers and PCA form from such values stay finite.
MAX_MAGNITUDE = 1e150


def _in_envelope(arr: np.ndarray) -> bool:
    """True when every value is finite and below MAX_MAGNITUDE in
    magnitude: two reductions, no temporaries (NaN fails both tests)."""
    return arr.size == 0 or bool(-MAX_MAGNITUDE < arr.min() and arr.max() < MAX_MAGNITUDE)


def _quantize(values: np.ndarray) -> np.ndarray:
    """8-bit levels floor(255 v + 0.5) of float values in [0, 1], of any
    shape. values is scaled in place: pass a copy to keep it."""
    values *= 255.0
    values += 0.5
    return np.floor(values, out=values).astype(np.uint8)


@dataclass(frozen=True)
class ImageBuffer:
    """Normalized RGB image: pixels is (H, W, 3) float64 in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.pixels, dtype=float))

    def _keep(self, arr: np.ndarray) -> None:
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValidationError(f"image must have shape (H, W, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError("image must have positive height and width")
        _keep_unit(self, "pixels", arr, "image", "image values")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def to_uint8(self) -> np.ndarray:
        """Quantize to 8-bit with round-half-up."""
        return _quantize(self.pixels.copy())

    @classmethod
    def from_uint8(cls, arr: np.ndarray) -> "ImageBuffer":
        return _adopt(cls, np.divide(arr, 255.0, dtype=float))


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


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse PNG scanline filtering into a (height, stride) uint8 array
    (stride excludes the filter byte): a view of raw when every row has
    filter 0, else one vector step per anti-diagonal d = r + c, as pixel
    (r, c), bpp bytes, depends only on (r, c-1), (r-1, c) and (r-1, c-1)."""
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = rows[:, :1]
    if np.any(filters > 4):
        raise FormatError(f"unsupported PNG filter type {filters[filters > 4][0]}")
    if not filters.any():
        return rows[:, 1:]
    width = stride // bpp
    # Pixel (r, c) sits at T[r + c + 1, k + 1], in lane k = r if H <= W
    # else c: a diagonal is a run of one row of T, whose size follows the
    # shorter side. Row 0 and column 0 stay zero, the pixels above and
    # left of the image (c at d = 0 reads T[-1, 0]). An entry holds its
    # filtered byte until its step adds the predictor.
    by_rows = height <= width
    lanes, across = (height, width) if by_rows else (width, height)
    T = np.zeros((height + width, lanes + 1, bpp), dtype=np.int16)
    s0, s1, s2 = T.strides
    moves = (s0 + s1, s0, s2) if by_rows else (s0, s0 + s1, s2)
    skewed = as_strided(T[1:, 1:], (height, width, bpp), moves)
    skewed[...] = rows[:, 1:].reshape(height, width, bpp)
    # None, Sub, Up and Average rows predict (wa a + wb b) >> avg. Lane k
    # of a column-lane diagonal is row d - k, at H - 1 - d + k reversed.
    avg = (filters == 3).astype(np.int16)
    per_row = [(filters == 1) + avg, (filters == 2) + avg, avg, filters == 4]
    wa, wb, avg, paeth_row = per_row if by_rows else [m[::-1] for m in per_row]
    for d in range(height + width - 1):
        lo, hi = max(0, d - across + 1), min(d, lanes - 1) + 1
        row = slice(lo, hi) if by_rows else slice(height - 1 - d + lo, height - 1 - d + hi)
        same, prior, c = T[d, lo + 1 : hi + 1], T[d, lo:hi], T[d - 1, lo:hi]
        a, b = (same, prior) if by_rows else (prior, same)
        pa, pb, pc = np.abs(b - c), np.abs(a - c), np.abs(a + b - 2 * c)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        linear = (wa[row] * a + wb[row] * b) >> avg[row]
        current = T[d + 1, lo + 1 : hi + 1]
        current += np.where(paeth_row[row], paeth, linear)
        current &= 0xFF
    return skewed.astype(np.uint8, order="C").reshape(height, stride)


def _png_chunks(path, data: bytes):
    """(IHDR fields, IDAT payload) of a PNG file's bytes, every
    chunk CRC-checked in place. One IDAT, as this toolkit writes, comes
    back as a view of data; several are joined."""
    if data[:8] != _PNG_SIGNATURE:
        raise FormatError(f"{path}: not a PNG file")
    view = memoryview(data)
    pos = 8
    header = None
    idat = []
    while pos < len(data):
        if pos + 8 > len(data):
            raise FormatError(f"{path}: truncated PNG chunk header")
        (length,) = struct.unpack_from(">I", data, pos)
        ctype = data[pos + 4 : pos + 8]
        chunk = view[pos + 8 : pos + 8 + length]
        if len(chunk) != length or pos + 12 + length > len(data):
            raise FormatError(f"{path}: truncated PNG chunk {ctype!r}")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if zlib.crc32(chunk, zlib.crc32(ctype)) != crc:
            raise FormatError(f"{path}: PNG chunk {ctype!r} fails CRC check")
        pos += 12 + length
        if ctype == b"IHDR":
            if length != 13:
                raise FormatError(f"{path}: IHDR chunk has {length} bytes, expected 13")
            header = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            break
    if header is None:
        raise FormatError(f"{path}: missing IHDR chunk")
    return header, idat[0] if len(idat) == 1 else b"".join(idat)


def read_png(path) -> np.ndarray:
    """Decode a PNG file.

    Returns (H, W, 3) uint8 for RGB images, (H, W) uint8 for 8-bit
    grayscale, and (H, W) uint16 for 16-bit grayscale.
    """
    header, idat = _png_chunks(path, Path(path).read_bytes())
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
    bpp = (3 if color_type == 2 else 1) * bit_depth // 8  # bytes per pixel
    stride = width * bpp
    # Inflate at most one byte past the size the header implies, so a
    # small IDAT that inflates to gigabytes cannot exhaust memory.
    expected = height * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise FormatError(f"{path}: corrupt PNG image data ({exc})") from exc
    if len(raw) > expected or inflater.unconsumed_tail or inflater.unused_data:
        raise FormatError(
            f"{path}: PNG image data goes past the {expected} bytes its header implies"
        )
    if len(raw) != expected or not inflater.eof:
        raise FormatError(f"{path}: PNG pixel payload has wrong size")
    del idat  # frees the file's bytes: only the inflated rows are needed from here on
    pixels = _unfilter(raw, height, stride, bpp)
    if bit_depth == 16:
        return pixels.view(">u2").astype(np.uint16)
    return pixels.reshape(height, width, 3) if color_type == 2 else pixels


# ---------------------------------------------------------------------------
# PNG encoding
# ---------------------------------------------------------------------------


def write_png(path, arr: np.ndarray) -> None:
    """Encode an array as PNG.

    Accepts (H, W, 3) uint8 (RGB), (H, W) uint8 (gray) or (H, W)
    uint16 (16-bit gray). Rows are written with filter type 0.
    """
    Path(path).write_bytes(_png_bytes(np.asarray(arr)))


def _png_bytes(arr: np.ndarray) -> bytes:
    """The PNG file write_png writes for arr."""
    header, scanlines = _scanlines(arr)
    return _png_file(header, zlib.compress(scanlines, 6))


def _scanlines(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """(IHDR payload, (H, 1 + row bytes) uint8 filter-0 scanlines) of arr."""
    if arr.ndim == 3 and arr.shape[2] == 3 and arr.dtype == np.uint8:
        color_type, bit_depth = 2, 8
    elif arr.ndim == 2 and arr.dtype == np.uint8:
        color_type, bit_depth = 0, 8
    elif arr.ndim == 2 and arr.dtype == np.uint16:
        color_type, bit_depth = 0, 16
    else:
        raise ValidationError(
            f"cannot encode array with shape {arr.shape} and dtype {arr.dtype}"
        )
    height, width = arr.shape[0], arr.shape[1]
    samples = arr.astype(">u2" if bit_depth == 16 else np.uint8, copy=False).view(np.uint8)
    rows = samples.reshape(height, arr.nbytes // height)
    scanlines = np.hstack([np.zeros((height, 1), np.uint8), rows])
    header = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    return header, scanlines


def _png_file(header: bytes, idat: bytes) -> bytes:
    """The PNG file of one IHDR payload and one IDAT payload."""
    parts = [_PNG_SIGNATURE]
    for ctype, payload in ((b"IHDR", header), (b"IDAT", idat), (b"IEND", b"")):
        crc = zlib.crc32(payload, zlib.crc32(ctype))
        parts += (struct.pack(">I", len(payload)), ctype, payload, struct.pack(">I", crc))
    return b"".join(parts)


# ---------------------------------------------------------------------------
# toolkit-level file helpers
# ---------------------------------------------------------------------------


def _sorted_pngs(directory: Path) -> list[Path]:
    """The PNGs under directory in filename order; none is a ValidationError."""
    pngs = sorted(p for p in directory.iterdir() if p.suffix.lower() == ".png")
    if not pngs:
        raise ValidationError(f"no PNG images under {directory}")
    return pngs


def load_image(path) -> ImageBuffer:
    """Load an 8-bit RGB PNG as a normalized image."""
    return ImageBuffer.from_uint8(_read_rgb(path))


def _read_rgb(path) -> np.ndarray:
    """The (H, W, 3) uint8 pixels of an 8-bit RGB PNG."""
    arr = read_png(path)
    if arr.ndim != 3:
        raise FormatError(f"{path}: expected an RGB image, got grayscale")
    return arr


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
        scale = json.loads(sidecar.read_text(), parse_int=float)[_DEPTH_SCALE_KEY]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar}: bad depth sidecar ({exc})") from exc
    # a JSON number only: float() would also take true and "0.5"
    if type(scale) is not float or not 0 < scale < math.inf:
        raise FormatError(f"{sidecar}: {_DEPTH_SCALE_KEY} must be a positive, finite number")
    valid = arr > 0
    depth = arr.astype(float) * scale
    depth[~valid] = 1.0  # placeholder; masked out
    return DepthMap(depth=depth, valid=valid)


def save_depth(dm: DepthMap, path, meters_per_unit: float) -> None:
    """Write a depth map as 16-bit PNG plus sidecar; invalid pixels become 0."""
    if not 0 < meters_per_unit < math.inf:
        raise ValidationError("meters_per_unit must be positive and finite")
    raw = np.floor(dm.depth / meters_per_unit + 0.5)
    raw = np.clip(raw, 1, 65535)
    raw[~dm.valid] = 0
    write_png(path, raw.astype(np.uint16))
    Path(str(path) + ".json").write_text(
        json.dumps({_DEPTH_SCALE_KEY: meters_per_unit}) + "\n"
    )
