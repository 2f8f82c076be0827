"""Image and depth-map containers plus a self-contained PNG codec.

Only the PNG layouts of _LAYOUTS are implemented: 8-bit RGB
(corruption inputs and outputs), 8-bit grayscale (pixel ground truth)
and 16-bit grayscale (depth and uncertainty maps), non-interlaced.
Files written here use filter type 0 on every row, and their image data
is deflated in bands of whole rows that share no deflate state, so a
band's bytes depend on its rows alone. A file read with filter 0
throughout is sliced from its inflated bytes with no work.
None and Sub rows read no other row and are decoded directly (Sub by a
uint8 cumsum), which is all a file without other filters needs. A file
with Up, Average or Paeth rows decodes as one anti-diagonal wavefront of
H + W - 1 vector steps, holding one uint8 buffer of about
(H + W)(min(H, W) + 1) bpp bytes (bpp bytes per pixel), at most about
twice the pixel bytes. Each step is one lookup in a uint8 table of
(predictor - c) mod 256 over (filter, a - c, b - c): 3 x 511 x 511
bytes (0.78 MB), built on first use.

Pixel values travel through the toolkit as float64 in [0, 1]; 8-bit
quantization uses round-half-up so file output is bit-reproducible.

Every file the toolkit writes, not only PNGs, goes through _write_file:
its pieces are written in turn to a temporary beside the target,
<name>.<pid>-<n>.tmp, which is then renamed over the target, so a file
under its final name is always whole. Nothing is fsync'ed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


@functools.cache
def _predictor_table() -> np.ndarray:
    """(predictor - c) mod 256 of Up, Average and Paeth, as a flat uint8
    table indexed by (filter - 2) 511^2 + (a - c + 255) 511 + (b - c + 255):
    each predictor less c is a function of x = a - c and y = b - c alone.
    Built on first use, in place, with (511, 511) int16 and bool
    temporaries only (about 0.5 MB each)."""
    table = np.empty((3, 511, 511), dtype=np.uint8)
    x = np.arange(-255, 256, dtype=np.int16).reshape(-1, 1)
    y = x.reshape(1, -1)
    up, average, paeth = table
    up[...] = y  # b - c, stored mod 256
    both = x + y
    np.right_shift(both, 1, out=average, casting="unsafe")  # (a + b) >> 1 - c
    # Paeth picks a, b or c by the distances |b - c|, |a - c|, |a + b - 2c|
    pa, pb, pc = np.abs(y), np.abs(x), np.abs(both, out=both)
    paeth[...] = 0
    np.copyto(paeth, y, casting="unsafe", where=pb <= pc)
    np.copyto(paeth, x, casting="unsafe", where=(pa <= pb) & (pa <= pc))
    table.flags.writeable = False  # one table, shared by every decode
    return table.reshape(-1)


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Reverse PNG scanline filtering into a (height, stride) uint8 array
    (stride excludes the filter byte): a view of raw when every row has
    filter 0. None and Sub rows read no other row and are decoded
    directly, Sub by a uint8 cumsum along the row. Up, Average and Paeth
    rows are decoded by one vector step per anti-diagonal d = r + c, as
    pixel (r, c), bpp bytes, depends only on (r, c-1), (r-1, c) and
    (r-1, c-1): each step is one lookup in _predictor_table."""
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = rows[:, :1]
    if np.any(filters > 4):
        raise FormatError(f"unsupported PNG filter type {filters[filters > 4][0]}")
    if not filters.any():
        return rows[:, 1:]
    width = stride // bpp
    pixels = rows[:, 1:].reshape(height, width, bpp)
    sub = np.flatnonzero(filters == 1)
    if filters.max() <= 1:
        out = pixels.copy()
        out[sub] = np.cumsum(pixels[sub], axis=1, dtype=np.uint8)
        return out.reshape(height, stride)
    # Pixel (r, c) sits at T[r + c + 1, k + 1], in lane k = r if H <= W
    # else c: a diagonal is a run of one row of T, whose size follows the
    # shorter side. Row 0 and column 0 stay zero, the pixels above and
    # left of the image (c at d = 0 reads T[-1, 0]). An Up, Average or
    # Paeth entry holds its filtered byte until its step adds the
    # predictor; None and Sub entries hold their pixel from the start.
    by_rows = height <= width
    lanes, across = (height, width) if by_rows else (width, height)
    T = np.zeros((height + width, lanes + 1, bpp), dtype=np.uint8)
    s0, s1, s2 = T.strides
    moves = (s0 + s1, s0, s2) if by_rows else (s0, s0 + s1, s2)
    skewed = as_strided(T[1:, 1:], (height, width, bpp), moves)
    skewed[...] = pixels
    skewed[sub] = np.cumsum(pixels[sub], axis=1, dtype=np.uint8)
    # Each step reads the table at base + 511 a + b - 512 c, where base
    # selects the row's filter, from intp copies of the last two rows of
    # T. Rows of None and Sub (keep 0) look up an Up entry and add
    # nothing. Lane k of a column-lane diagonal is row d - k, at
    # H - 1 - d + k reversed.
    keep = np.repeat(filters >= 2, bpp, axis=1).astype(np.uint8)
    base = np.repeat(np.maximum(filters, 2) - 2, bpp, axis=1).astype(np.intp)
    base *= 511**2
    base += 255 * 512
    base, keep = (base, keep) if by_rows else (base[::-1], keep[::-1])
    some_direct = not keep.all()
    table = _predictor_table()
    prev = cur = np.zeros((lanes + 1, bpp), dtype=np.intp)
    for d in range(height + width - 1):
        lo, hi = max(0, d - across + 1), min(d, lanes - 1) + 1
        row = slice(lo, hi) if by_rows else slice(height - 1 - d + lo, height - 1 - d + hi)
        same, prior = cur[lo + 1 : hi + 1], cur[lo:hi]
        a, b = (same, prior) if by_rows else (prior, same)
        i = a * 511
        i += b
        j = prev[lo:hi] * -512
        j += base[row]
        i += j
        p = table[i]
        p += T[d - 1, lo:hi]
        if some_direct:
            p *= keep[row]
        T[d + 1, lo + 1 : hi + 1] += p
        prev, cur = cur, T[d + 1].astype(np.intp)
    return np.ascontiguousarray(skewed).reshape(height, stride)


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


@dataclass(frozen=True)
class PngLayout:
    """A PNG layout: (H, W, *pixel_shape) arrays of dtype, big-endian on file."""

    pixel_shape: tuple
    dtype: np.dtype
    name: str  # a file of this layout, in errors
    wanted: str  # what a reader of this layout expected, in errors


# frames; pixel ground truth; depth and uncertainty maps
RGB8 = PngLayout((3,), np.dtype("u1"), "RGB", "an RGB image")
GRAY8 = PngLayout((), np.dtype("u1"), "8-bit grayscale", "an 8-bit grayscale image")
GRAY16 = PngLayout((), np.dtype("u2"), "16-bit grayscale", "a 16-bit grayscale image")
_SIXTEEN_BIT_MAX = 65535  # the largest GRAY16 value; uncertainty maps hold value / it
# the one table of layouts, by IHDR (color type, bit depth)
_LAYOUTS = {(2, 8): RGB8, (0, 8): GRAY8, (0, 16): GRAY16}

# Most pixels a PNG header may claim, 16 paper frames of 1024x2048: a decode
# takes about 30 B per claimed pixel (a 16-bit 4000x4000 map in 120 KB reached
# 456 MB max RSS), and IHDR allows 2^31-1 a side. A constant, not a setting.
_MAX_PNG_PIXELS = 1 << 25


def read_png(path, layout: PngLayout | None = None) -> np.ndarray:
    """The (H, W, *pixel_shape) array of a PNG file of the given layout,
    or of any in _LAYOUTS. A file of another layout is a FormatError,
    raised from its header before any image data is inflated."""
    header, idat = _png_chunks(path, Path(path).read_bytes())
    width, height, bit_depth, color_type, compression, filter_method, interlace = header
    if width * height > _MAX_PNG_PIXELS:
        raise FormatError(f"{path}: PNG is {width}x{height}, above the {_MAX_PNG_PIXELS} px budget")
    if compression != 0 or filter_method != 0:
        raise FormatError(f"{path}: unsupported PNG compression/filter method")
    if interlace != 0:
        raise FormatError(f"{path}: interlaced PNG not supported")
    found = _LAYOUTS.get((color_type, bit_depth))
    if found is None:
        raise FormatError(
            f"{path}: unsupported PNG layout (color type {color_type}, "
            f"bit depth {bit_depth}); expected 8/16-bit grayscale or 8-bit RGB"
        )
    if layout is not None and found is not layout:
        raise FormatError(f"{path}: expected {layout.wanted}, got {found.name}")
    if not (width and height):
        raise FormatError(f"{path}: PNG is {width}x{height}; width and height must be at least 1")
    big_endian = found.dtype.newbyteorder(">")
    bpp = big_endian.itemsize * math.prod(found.pixel_shape)  # bytes per pixel
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
    pixels = _unfilter(raw, height, stride, bpp).view(big_endian)
    return pixels.astype(found.dtype, copy=False).reshape(height, width, *found.pixel_shape)


# ---------------------------------------------------------------------------
# PNG encoding
# ---------------------------------------------------------------------------


def write_png(path, arr: np.ndarray) -> None:
    """Encode an array of a layout in _LAYOUTS as PNG, every row with
    filter type 0."""
    _write_file(path, _encode_png(*_scanlines(np.asarray(arr))))


# Scanline bytes per deflate band of a written PNG; a band holds at least
# one row. Each band is deflated by its own compressor, so its bytes
# depend on its rows alone, and a white-box sweep output re-deflates only
# the bands its box overlaps. On 2 cores, encoding the 80 outputs of a
# white-box paper sweep of four 192x288 frames one by one took 150-158 ms,
# against 328-336 ms when each output re-deflated every row from its box's
# top down (medians of 4 alternating runs), and the paper sweep of two
# 1024x2048 frames took 1.9-2.2 s against 3.0-3.5 s. The price is the
# matches a band cannot make into the rows above it: outputs grew by 0.3%
# on random frames, by -0.1% on grainy road frames and by 10% on flat
# ones, and fog outputs by 0.4-7%. An image of at most one band is written
# as zlib.compress(rows, 6). A constant, not a setting.
_BAND_BYTES = 1 << 13


def _band_rows(scanlines: np.ndarray) -> int:
    """Rows per deflate band of (H, 1 + row bytes) scanlines."""
    return max(1, _BAND_BYTES // scanlines.shape[1])


def _deflate_band(rows, last: bool) -> bytes:
    """Raw level-6 deflate of one band's scanlines by a fresh compressor,
    ended by a full flush, or by the stream's final block when last."""
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    end = zlib.Z_FINISH if last else zlib.Z_FULL_FLUSH
    return compressor.compress(rows) + compressor.flush(end)


def _deflated_bands(scanlines: np.ndarray, source=None) -> list[bytes]:
    """Each band's _deflate_band, top down, the last one finished. With
    source = (bands, top, stop), scanlines equal the rows that deflated to
    bands outside rows top to stop - 1, and only the bands that hold one
    of those rows are deflated again (none when top == stop); the others
    are taken from bands."""
    step, height = _band_rows(scanlines), len(scanlines)
    bands, top, stop = source or ((), 0, height)
    return [
        _deflate_band(scanlines[row : row + step], row + step >= height)
        if max(row, top) < min(row + step, stop)
        else bands[b]
        for b, row in enumerate(range(0, height, step))
    ]


def _encode_png(header: bytes, scanlines: np.ndarray, source=None) -> list[bytes]:
    """The PNG file of an IHDR payload and its filter-0 scanlines, as the
    pieces that _write_file writes in turn. Its IDAT is the zlib header
    78 9c, _deflated_bands(scanlines, source) and the adler32 of all the
    scanlines: for one band, the bytes of zlib.compress(scanlines, 6)."""
    adler = struct.pack(">I", zlib.adler32(scanlines))
    idat = [b"\x78\x9c", *_deflated_bands(scanlines, source), adler]
    pieces = [_PNG_SIGNATURE]
    for ctype, payload in ((b"IHDR", [header]), (b"IDAT", idat), (b"IEND", [])):
        crc = zlib.crc32(ctype)
        for piece in payload:
            crc = zlib.crc32(piece, crc)
        size = sum(map(len, payload))
        pieces += (struct.pack(">I", size), ctype, *payload, struct.pack(">I", crc))
    return pieces


# Numbers the temporaries of one process; next() on it is atomic, so the
# sweep's writer threads may share it.
_temporaries = itertools.count()


def _write_file(path, pieces) -> None:
    """Write pieces one after another, never joined in memory, to a
    temporary beside path, then rename it over path: the one place the
    toolkit writes a file. A piece is bytes-like, a C-contiguous numpy
    array included, or a str, written as UTF-8. On any error the
    temporary is removed and path keeps what it held."""
    temporary = f"{os.fspath(path)}.{os.getpid()}-{next(_temporaries)}.tmp"
    try:
        with open(temporary, "wb") as f:
            f.writelines(p.encode() if isinstance(p, str) else p for p in pieces)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def _write_json(path, obj) -> None:
    """Write obj as JSON indented by 2 with sorted keys and a final newline."""
    _write_file(path, [json.dumps(obj, indent=2, sort_keys=True), "\n"])


def _scanlines(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """(IHDR payload, (H, 1 + row bytes) uint8 filter-0 scanlines) of arr."""
    for (color_type, bit_depth), layout in _LAYOUTS.items():
        if arr.ndim >= 2 and (arr.shape[2:], arr.dtype) == (layout.pixel_shape, layout.dtype):
            break
    else:
        raise ValidationError(f"cannot encode array with shape {arr.shape} and dtype {arr.dtype}")
    height, width = arr.shape[0], arr.shape[1]
    if not arr.size:
        raise ValidationError(f"cannot encode an empty array of shape {arr.shape}")
    samples = arr.astype(layout.dtype.newbyteorder(">"), copy=False).view(np.uint8)
    rows = samples.reshape(height, arr.nbytes // height)
    scanlines = np.hstack([np.zeros((height, 1), np.uint8), rows])
    header = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    return header, scanlines


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
    return ImageBuffer.from_uint8(read_png(path, RGB8))


def save_image(img: ImageBuffer, path) -> None:
    write_png(path, img.to_uint8())


def load_depth(path) -> DepthMap:
    """Load a 16-bit grayscale depth PNG plus its sidecar scale file.

    The sidecar `<path>.json` declares {"meters_per_unit": s}; depth in
    meters is raw_value * s. Raw value 0 marks an invalid pixel.
    """
    arr = read_png(path, GRAY16)
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise FormatError(f"{path}: missing depth sidecar {sidecar.name}")
    try:
        scale = json.loads(sidecar.read_text(), parse_int=float)[_DEPTH_SCALE_KEY]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar}: bad depth sidecar ({exc})") from exc
    # a JSON number only (float() takes true and "0.5"), finite at the largest raw value
    if type(scale) is not float or not 0 < _SIXTEEN_BIT_MAX * scale < math.inf:
        raise FormatError(
            f"{sidecar}: {_DEPTH_SCALE_KEY} must be a positive number, "
            f"finite times {_SIXTEEN_BIT_MAX}"
        )
    valid = arr > 0
    depth = arr.astype(float) * scale
    depth[~valid] = 1.0  # placeholder; masked out
    return DepthMap(depth=depth, valid=valid)


def save_depth(dm: DepthMap, path, meters_per_unit: float) -> None:
    """Write a depth map as 16-bit PNG plus sidecar; invalid pixels become 0."""
    if not 0 < meters_per_unit < math.inf:
        raise ValidationError("meters_per_unit must be positive and finite")
    raw = np.floor(dm.depth / meters_per_unit + 0.5)
    raw = np.clip(raw, 1, _SIXTEEN_BIT_MAX)
    raw[~dm.valid] = 0
    write_png(path, raw.astype(np.uint16))
    _write_file(f"{path}.json", [json.dumps({_DEPTH_SCALE_KEY: meters_per_unit}), "\n"])
