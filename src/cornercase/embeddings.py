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

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


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


def toy_encode(images, grid: int = 4) -> np.ndarray:
    """Deterministic image embedding of length 3*grid*grid + 3.

    images is an ImageBuffer, which gives one embedding vector, or an
    (n, H, W, 3) float stack, which gives an (n, dim) matrix whose row k
    embeds images[k]. Features are per-cell per-channel means over a
    grid x grid partition (remainder rows/columns absorbed by the last
    cell), followed by the three global per-channel standard deviations.
    """
    if grid < 1:
        raise ValidationError("grid must be a positive integer")
    single = isinstance(images, ImageBuffer)
    stack = images.pixels[None] if single else np.asarray(images, dtype=float)
    if stack.ndim != 4 or stack.shape[3] != 3:
        raise ValidationError(
            f"toy_encode needs an ImageBuffer or an (n, H, W, 3) stack, got {stack.shape}"
        )
    n, h, w, _ = stack.shape
    if h < grid or w < grid:
        raise ValidationError(
            f"image {h}x{w} too small for a {grid}x{grid} encoding grid"
        )
    row_starts = np.arange(grid) * (h // grid)
    col_starts = np.arange(grid) * (w // grid)
    sums = np.add.reduceat(np.add.reduceat(stack, row_starts, axis=1), col_starts, axis=2)
    cell_sizes = np.outer(np.diff(row_starts, append=h), np.diff(col_starts, append=w))
    means = sums / cell_sizes[:, :, None]
    # centre each (H, W*3) image row on its per-channel mean, tiled along
    # the row, so the elementwise work runs over contiguous rows
    mean_row = np.tile(sums.sum(axis=(1, 2)) / (h * w), w)
    centred = stack.reshape(n, h, w * 3) - mean_row[:, None, :]
    sq = np.einsum("nij,nij->nj", centred, centred).reshape(n, w, 3).sum(axis=1)
    feats = np.concatenate([means.reshape(n, -1), np.sqrt(sq / (h * w))], axis=1)
    if not np.isfinite(feats).all():
        raise ValidationError("toy_encode input contains non-finite values")
    return feats[0] if single else feats


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
