"""Latent-embedding containers, spatial pooling, file formats and a toy encoder.

The toy encoder stands in for a real backbone so corruption-to-detection
pipelines can run end to end without a neural network: it summarizes an
image by per-cell per-channel means over a g x g grid plus three global
per-channel standard deviations, which makes fog, noise and occlusion
corruptions measurably shift the embedding.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError
from .images import MAX_MAGNITUDE, ImageBuffer, _frozen_array, _in_envelope

EMBED_MAGIC = b"CCEMB1"
FMAP_MAGIC = b"CCFMP1"
# the one version of every binary container (CCEMB1, CCFMP1, CCMDL1)
CONTAINER_VERSION = 1

MANIFEST_ROLES = ("id_train", "id_test", "ood")

# pixel values in one band of rows that toy_encode_noise_sweep scans for
# clip candidates: its temporaries follow the band, not the image or the
# share of pixels that clip
_CLIP_BLOCK_ELEMENTS = 1 << 16


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureMap:
    """Pre-pooling encoder output stored channel-major: data is (C, H, W)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise ValidationError(f"feature map must be (C, H, W), got {arr.shape}")
        if min(arr.shape) < 1:
            raise ValidationError("feature map dimensions must be positive")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("feature map contains non-finite values")
        object.__setattr__(self, "data", _frozen_array(arr))

    @property
    def channels(self) -> int:
        return self.data.shape[0]


class EmbeddingSet:
    """An ordered collection of embeddings: one string id per row of a
    frozen (n, dim) float64 matrix.

    The set is validated once, on construction: the matrix is 2-d and
    finite, ids are unique strings, and there is one id per row. An
    empty set (dim 0) is loadable but rejected by every fitting
    operation; validation happens at the consumer.
    """

    def __init__(self, ids, matrix):
        ids = tuple(ids)
        try:
            matrix = np.array(matrix, dtype=float, order="C")
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"embeddings do not form an (n, dim) matrix ({exc})") from exc
        if matrix.ndim != 2 or len(ids) != matrix.shape[0]:
            raise ValidationError("ids and matrix rows must correspond")
        if ids and matrix.shape[1] == 0:
            raise ValidationError("embedding vectors must be non-empty")
        if not all(isinstance(i, str) for i in ids):
            raise ValidationError("embedding ids must be strings")
        if len(set(ids)) < len(ids):
            seen = set()
            for ident in ids:
                if ident in seen:
                    raise ValidationError(f"duplicate embedding id {ident!r}")
                seen.add(ident)
        if not _in_envelope(matrix):
            bad = ids[int(np.argmin(np.abs(matrix).max(axis=1) < MAX_MAGNITUDE))]
            raise ValidationError(
                f"embedding {bad!r} is not finite or reaches {MAX_MAGNITUDE:g} in magnitude"
            )
        matrix.flags.writeable = False
        self._ids = ids
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def ids(self) -> list[str]:
        return list(self._ids)

    def matrix(self) -> np.ndarray:
        """The read-only (n, dim) matrix, row i belonging to ids()[i]."""
        return self._matrix


@dataclass(frozen=True)
class DatasetManifest:
    """Named pointer to an embedding file or an image directory."""

    name: str
    role: str
    path: str

    def __post_init__(self):
        if self.role not in MANIFEST_ROLES:
            raise ValidationError(
                f"manifest role must be one of {MANIFEST_ROLES}, got {self.role!r}"
            )
        if not self.path:
            raise ValidationError("manifest path must be non-empty")


# ---------------------------------------------------------------------------
# pooling and the toy encoder
# ---------------------------------------------------------------------------


def pool_spatial_mean(fm: FeatureMap) -> np.ndarray:
    """Average each channel over its spatial extent.

    Component c of the result is the mean of fm.data[c] over all (i, j).
    """
    return fm.data.mean(axis=(1, 2))


def _encoding_grid(h: int, w: int, grid: int):
    """Row starts, column starts and (grid, grid) cell sizes of the toy
    encoding grid; the last row and column of cells absorb remainders."""
    if grid < 1:
        raise ValidationError("grid must be a positive integer")
    if h < grid or w < grid:
        raise ValidationError(
            f"image {h}x{w} too small for a {grid}x{grid} encoding grid"
        )
    row_starts = np.arange(grid) * (h // grid)
    col_starts = np.arange(grid) * (w // grid)
    cell_sizes = np.outer(np.diff(row_starts, append=h), np.diff(col_starts, append=w))
    return row_starts, col_starts, cell_sizes


def _cell_sums(stack, row_starts, col_starts) -> np.ndarray:
    """Per-cell per-channel sums of an (n, H, W, 3) stack: (n, grid, grid, 3)."""
    return np.add.reduceat(np.add.reduceat(stack, row_starts, axis=1), col_starts, axis=2)


def _channel_dots(u, v, w: int) -> np.ndarray:
    """Per-channel sums of u * v for (..., rows, W*3) arrays, rows
    interleaving the 3 channels: (..., 3)."""
    per_column = np.einsum("...ij,...ij->...j", u, v)
    return per_column.reshape(*per_column.shape[:-1], w, 3).sum(axis=-2)


def _features(sums, cell_sizes, sq, pixels: int) -> np.ndarray:
    """(n, 3*grid*grid + 3) features from cell sums (n, grid, grid, 3) and
    per-channel sums of squares about the channel means (n, 3)."""
    n = len(sums)
    means = sums / cell_sizes[:, :, None]
    feats = np.concatenate([means.reshape(n, -1), np.sqrt(sq / pixels)], axis=1)
    if not np.isfinite(feats).all():
        raise ValidationError("toy_encode input contains non-finite values")
    return feats


def toy_encode(images, grid: int = 4) -> np.ndarray:
    """Deterministic image embedding of length 3*grid*grid + 3.

    images is an ImageBuffer, which gives one embedding vector, or an
    (n, H, W, 3) float stack, which gives an (n, dim) matrix whose row k
    embeds images[k]. Features are per-cell per-channel means over a
    grid x grid partition (remainder rows/columns absorbed by the last
    cell), followed by the three global per-channel standard deviations.
    """
    single = isinstance(images, ImageBuffer)
    stack = images.pixels[None] if single else np.asarray(images, dtype=float)
    if stack.ndim != 4 or stack.shape[3] != 3:
        raise ValidationError(
            f"toy_encode needs an ImageBuffer or an (n, H, W, 3) stack, got {stack.shape}"
        )
    n, h, w, _ = stack.shape
    row_starts, col_starts, cell_sizes = _encoding_grid(h, w, grid)
    sums = _cell_sums(stack, row_starts, col_starts)
    # centre each (H, W*3) image row on its per-channel mean, tiled along
    # the row, so the elementwise work runs over contiguous rows
    mean_row = np.tile(sums.sum(axis=(1, 2)) / (h * w), w)
    centred = stack.reshape(n, h, w * 3) - mean_row[:, None, :]
    feats = _features(sums, cell_sizes, _channel_dots(centred, centred, w), h * w)
    return feats[0] if single else feats


def _unclipped_count(p, f, sigmas) -> np.ndarray:
    """Per element, how many of the ascending sigmas leave fl(sigma * f) + p
    in [0, 1], for elements that leave it at the last sigma.

    Those sigmas are a prefix, as rounding is monotone and every sigma is
    non-negative, so a bisection that evaluates the noisy value as the
    sweep engine does finds the count exactly.
    """
    lo = np.zeros(len(p), dtype=np.intp)
    hi = np.full(len(p), len(sigmas) - 1)
    for _ in range(len(sigmas).bit_length()):
        mid = (lo + hi) // 2
        noisy = sigmas[mid] * f
        noisy += p
        inside = (noisy >= 0.0) & (noisy <= 1.0)
        lo = np.where(inside, mid + 1, lo)
        hi = np.where(inside, hi, mid)
    return lo


def toy_encode_noise_sweep(img: ImageBuffer, field, sigmas, grid: int = 4) -> np.ndarray:
    """toy_encode of clip(img + sigma * field, 0, 1) for every sigma, as a
    (K, dim) matrix, from per-image sums: no corrupted image is built.

    The noisy value of a pixel channel p with noise f is
    fl(sigma * f) + p, as in the sweep engine. In ascending sigma order
    an element is inside [0, 1] for the first t sigmas and clipped to
    its bound b (1 if f > 0, else 0) from then on. Elements inside at
    the largest sigma (t = K) enter through band-wise sums over the
    image; the others, the clip candidates, are found in bands of
    _CLIP_BLOCK_ELEMENTS values, their t by bisection (_unclipped_count),
    and their sums are binned by t. At sigma j, a cell sums
    S_p + sigma S_f over the elements with t > j and S_b over the
    others; the squared deviations from the clean channel mean a sum to
    S_(p-a)^2 + 2 sigma S_(p-a)f + sigma^2 S_f^2 over the first and
    S_(b-a)^2 over the second. |sigma * f| <= 1 in every element of the
    first kind, so no term grows with sigma and nothing cancels. The
    standard deviation follows from sum (x - a)^2 - n (m - a)^2. Rows
    equal toy_encode of the corrupted images to within 1e-12, and those
    of sigma 0 equal toy_encode(img) exactly. No array has K times as
    many values as a band.
    """
    pixels = img.pixels
    h, w, _ = pixels.shape
    field = np.asarray(field, dtype=float)
    if field.shape != pixels.shape:
        raise ValidationError(f"noise field {field.shape} does not match image {pixels.shape}")
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 1 or not sigmas.size or not (np.isfinite(sigmas) & (sigmas >= 0)).all():
        raise ValidationError("sigmas must be a non-empty sequence of non-negative reals")
    row_starts, col_starts, cell_sizes = _encoding_grid(h, w, grid)
    a = _cell_sums(pixels[None], row_starts, col_starts).sum(axis=(1, 2))[0] / (h * w)
    mean_row = np.tile(a, w)
    order = np.argsort(sigmas, kind="stable")
    ascending = sigmas[order]
    k = len(ascending)
    # the grid cell of every row and column, as _encoding_grid cuts them
    row_cell = np.minimum(np.arange(h) // (h // grid), grid - 1)
    col_cell = np.minimum(np.arange(w) // (w // grid), grid - 1)
    # binned by t: per cell S_p, S_f and S_b; per channel S_(p-a)^2,
    # S_(p-a)f, S_f^2 and S_(b-a)^2
    cell_terms = np.zeros((3, k + 1, grid, grid, 3))
    channel_terms = np.zeros((4, k + 1, 3))
    band = max(1, _CLIP_BLOCK_ELEMENTS // (3 * w))
    for r0 in range(0, h, band):
        p = pixels[r0 : r0 + band].reshape(-1, 3 * w)
        f = field[r0 : r0 + band].reshape(-1, 3 * w)
        centred = p - mean_row
        noisy = ascending[-1] * f
        noisy += p
        clips = (noisy < 0.0) | (noisy > 1.0)
        del noisy
        if clips.any():
            at = np.flatnonzero(clips)
            pc, fc, channel = p.ravel()[at], f.ravel()[at], at % 3
            rows, cols = np.divmod(at // 3, w)
            cell = (row_cell[r0 + rows] * grid + col_cell[cols]) * 3 + channel
            del at, rows, cols
            t = _unclipped_count(pc, fc, ascending)
            by_cell, by_channel = t * (grid * grid * 3) + cell, t * 3 + channel
            del cell, t
            bound = (fc > 0.0).astype(float)
            for terms, weights in zip(cell_terms, (pc, fc, bound)):
                terms[:k] += np.bincount(by_cell, weights, terms[:k].size).reshape(terms[:k].shape)
            centre = a[channel]
            dp, db = pc - centre, bound - centre
            products = ((dp, dp), (dp, fc), (fc, fc), (db, db))
            for terms, (u, v) in zip(channel_terms, products):
                terms[:k] += np.bincount(by_channel, u * v, 3 * k).reshape(k, 3)
            p = np.where(clips, 0.0, p)
            f = np.where(clips, 0.0, f)
            centred[clips] = 0.0
        first, last = row_cell[r0], row_cell[min(r0 + band, h) - 1]
        starts = np.maximum(row_starts[first : last + 1] - r0, 0)
        for terms, values in zip(cell_terms[:2, k], (p, f)):
            band_sums = _cell_sums(values.reshape(1, -1, w, 3), starts, col_starts)
            terms[first : last + 1] += band_sums[0]
        channel_terms[:3, k] += [
            _channel_dots(centred, centred, w), _channel_dots(centred, f, w), _channel_dots(f, f, w)
        ]
    # at sigma j: terms of t > j (a suffix sum) and of t <= j (a prefix sum)
    s_p, s_f = np.cumsum(cell_terms[:2, ::-1], axis=1)[:, k - 1 :: -1]
    s_pp, s_pf, s_ff = np.cumsum(channel_terms[:3, ::-1], axis=1)[:, k - 1 :: -1]
    sums = s_p + ascending[:, None, None, None] * s_f + np.cumsum(cell_terms[2, :k], axis=0)
    # (sigma * sqrt(S_f^2))^2 is at most n, where sigma^2 may overflow
    sq = s_pp + 2.0 * ascending[:, None] * s_pf + (ascending[:, None] * np.sqrt(s_ff)) ** 2
    sq += np.cumsum(channel_terms[3, :k], axis=0)
    shift = sums.sum(axis=(1, 2)) / (h * w) - a
    sq -= (h * w) * shift**2
    feats = np.empty((k, cell_sizes.size * 3 + 3))
    # rounding can leave a zero spread a hair below 0
    feats[order] = _features(sums, cell_sizes, np.maximum(sq, 0.0), h * w)
    # sigma 0 leaves the image clean; its rows must tie with the clean
    # encoding exactly, as ties decide ranks and precision
    clean = sigmas == 0.0
    if clean.any():
        feats[clean] = toy_encode(img, grid)
    return feats


# ---------------------------------------------------------------------------
# file encodings (JSON lines, binary containers) and the embedding formats
# ---------------------------------------------------------------------------


def json_lines(path, what: str):
    """(line number, object) per non-blank line of a UTF-8 JSON-lines file
    of `what` records; a non-UTF-8 file or a line that is not a JSON object
    raises FormatError. Every JSON number parses as a float, so an integer
    too large for one is inf and fails the caller's finiteness check."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line, parse_int=float)
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: bad {what} record ({exc})") from exc
                if not isinstance(obj, dict):
                    raise FormatError(f"{path}:{lineno}: {what} record is not a JSON object")
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {what} file is not UTF-8 ({exc})") from exc


def write_container(path, magic: bytes, header: str, values, payload) -> None:
    """Write a binary container: the 6 magic bytes, a u16 version, the
    header values packed by the little-endian struct format `header`,
    then the payload parts."""
    head = magic + struct.pack("<H" + header, CONTAINER_VERSION, *values)
    Path(path).write_bytes(b"".join([head, *payload]))


def read_container(path, data: bytes, magic: bytes, what: str, header: str, payload_size=None):
    """(header values, payload offset) of `data`, the bytes of the container
    file at path. A bad magic, version or header raises FormatError, as
    does a payload of other than payload_size(*values) bytes; a caller
    that finds the payload's end by parsing it passes None and checks it."""
    if data[:6] != magic:
        raise FormatError(f"{path}: bad magic bytes, not a {what} file")
    end = 8 + struct.calcsize("<" + header)
    if len(data) < end:
        raise FormatError(f"{path}: truncated {what} header")
    version, *values = struct.unpack_from("<H" + header, data, 6)
    if version != CONTAINER_VERSION:
        raise FormatError(f"{path}: file version {version}, supported version {CONTAINER_VERSION}")
    if payload_size is not None and len(data) - end != payload_size(*values):
        raise FormatError(
            f"{path}: {what} payload has {len(data) - end} bytes, "
            f"expected {payload_size(*values)}"
        )
    return values, end


def _format_real(v: float) -> str:
    return format(v, ".9g")


def save_embeddings(es: EmbeddingSet, path, fmt: str = "binary") -> None:
    """Write an embedding set as JSON-lines text or the binary container."""
    path = Path(path)
    rows = zip(es.ids(), es.matrix())
    if fmt == "text":
        lines = []
        for ident, row in rows:
            vec = ", ".join(_format_real(v) for v in row.tolist())
            lines.append(f'{{"id": {json.dumps(ident)}, "vec": [{vec}]}}\n')
        path.write_text("".join(lines), encoding="utf-8")
    elif fmt == "binary":
        parts = []
        for ident, row in rows:
            encoded = ident.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValidationError(f"id {ident!r} too long for binary format")
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(row.astype("<f4").tobytes())
        write_container(path, EMBED_MAGIC, "IQ", (es.dim, len(es)), parts)
    else:
        raise ValidationError(f"unknown embedding format {fmt!r}")


def _checked_set(path: Path, ids, rows) -> EmbeddingSet:
    """Build the set from parsed rows; a bad row is a format error."""
    try:
        return EmbeddingSet(ids, rows if len(ids) else np.zeros((0, 0)))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _load_embeddings_text(path: Path) -> EmbeddingSet:
    ids, rows = [], []
    for lineno, obj in json_lines(path, "embedding"):
        try:
            ident, values = obj["id"], np.array(obj["vec"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: bad embedding record ({exc})") from exc
        if not isinstance(ident, str) or values.ndim != 1 or not values.size:
            raise FormatError(f"{path}:{lineno}: bad embedding record")
        if rows and values.size != rows[0].size:
            raise FormatError(
                f"{path}:{lineno}: record {ident!r} has dim {values.size}, "
                f"expected {rows[0].size}"
            )
        ids.append(ident)
        rows.append(values)
    return _checked_set(path, ids, rows)


def _uniform_records(path: Path, data: bytes, pos: int, dim: int, count: int):
    """The set in data, the bytes of a CCEMB1 file whose records start at
    pos, when every id is ASCII and as long as the first, which is not
    0: ids and rows are then read through one strided view of data, and
    the ids decoded in one call. None for other files (or none with
    records), which load_embeddings parses record by record."""
    if not count or len(data) < pos + 2:
        return None
    (id_len,) = struct.unpack_from("<H", data, pos)
    stride = 2 + id_len + 4 * dim
    if not id_len or len(data) - pos != count * stride:
        return None
    # record i starts at pos + i * stride if every length field before it says id_len
    lengths = np.ndarray((count,), "<u2", data, pos, (stride,))
    if (lengths != id_len).any():
        return None
    joined = np.ndarray((count,), f"V{id_len}", data, pos + 2, (stride,)).tobytes()
    if not joined.isascii():
        return None
    text = joined.decode("ascii")
    ids = [text[i : i + id_len] for i in range(0, len(text), id_len)]
    rows = np.ndarray((count, dim), "<f4", data, pos + 2 + id_len, (stride, 4))
    return _checked_set(path, ids, rows)


def load_embeddings(path) -> EmbeddingSet:
    """Load an embedding set: the binary container if the file starts with
    EMBED_MAGIC, JSON-lines text otherwise."""
    path = Path(path)
    with path.open("rb") as fh:
        binary = fh.read(6) == EMBED_MAGIC
    if not binary:
        return _load_embeddings_text(path)
    data = path.read_bytes()
    (dim, count), pos = read_container(path, data, EMBED_MAGIC, "embedding", "IQ")
    uniform = _uniform_records(path, data, pos, dim, count)
    if uniform is not None:
        return uniform
    ids, starts = [], []
    for _ in range(count):
        if pos + 2 > len(data):
            raise FormatError(f"{path}: truncated record header")
        (id_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        if pos + id_len + 4 * dim > len(data):
            raise FormatError(f"{path}: truncated record payload")
        try:
            ids.append(data[pos : pos + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: record {len(ids)} id is not UTF-8 ({exc})") from exc
        pos += id_len
        starts.append(pos)
        pos += 4 * dim
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} bytes after the last record")
    if not ids:
        return _checked_set(path, ids, ())
    # each record's row, gathered in one copy from the 4 * dim byte windows of data
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), 4 * dim)
    return _checked_set(path, ids, windows[starts].view("<f4"))


# ---------------------------------------------------------------------------
# feature-map container (single-tensor files, e.g. exported uncertainty maps)
# ---------------------------------------------------------------------------


def save_feature_map(fm: FeatureMap, path) -> None:
    """Write a feature map as a little-endian f32 tensor container."""
    write_container(path, FMAP_MAGIC, "III", fm.data.shape, [fm.data.astype("<f4").tobytes()])


def load_feature_map(path) -> FeatureMap:
    data = Path(path).read_bytes()
    shape, pos = read_container(
        path, data, FMAP_MAGIC, "feature-map", "III", lambda c, h, w: 4 * c * h * w
    )
    values = np.frombuffer(data, dtype="<f4", offset=pos)
    return FeatureMap(data=values.astype(float).reshape(shape))
