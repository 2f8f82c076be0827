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
from .images import ImageBuffer, _frozen_array

EMBED_MAGIC = b"CCEMB1"
EMBED_VERSION = 1
FMAP_MAGIC = b"CCFMP1"
FMAP_VERSION = 1

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
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            bad = ids[int(np.argmin(finite))]
            raise ValidationError(f"embedding {bad!r} contains non-finite values")
        matrix.flags.writeable = False
        self._ids = ids
        self._matrix = matrix

    @classmethod
    def from_matrix(cls, ids, matrix) -> "EmbeddingSet":
        """Same as EmbeddingSet(ids, matrix)."""
        return cls(ids, matrix)

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


def toy_encode(img: ImageBuffer, grid: int = 4) -> np.ndarray:
    """Deterministic 1-d image embedding of length 3*grid*grid + 3.

    Features are per-cell per-channel means over a grid x grid partition
    (remainder rows/columns absorbed by the last cell), followed by the
    three global per-channel standard deviations.
    """
    if grid < 1:
        raise ValidationError("grid must be a positive integer")
    h, w = img.height, img.width
    if h < grid or w < grid:
        raise ValidationError(
            f"image {h}x{w} too small for a {grid}x{grid} encoding grid"
        )
    row_step, col_step = h // grid, w // grid
    feats = []
    for r in range(grid):
        r0 = r * row_step
        r1 = (r + 1) * row_step if r < grid - 1 else h
        for c in range(grid):
            c0 = c * col_step
            c1 = (c + 1) * col_step if c < grid - 1 else w
            feats.extend(img.pixels[r0:r1, c0:c1].mean(axis=(0, 1)))
    feats.extend(img.pixels.std(axis=(0, 1)))
    return np.array(feats)


# ---------------------------------------------------------------------------
# embedding file formats
# ---------------------------------------------------------------------------


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
        parts = [EMBED_MAGIC, struct.pack("<HIQ", EMBED_VERSION, es.dim, len(es))]
        for ident, row in rows:
            encoded = ident.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValidationError(f"id {ident!r} too long for binary format")
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(row.astype("<f4").tobytes())
        path.write_bytes(b"".join(parts))
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
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
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


def _load_embeddings_binary(path: Path) -> EmbeddingSet:
    data = path.read_bytes()
    if data[:6] != EMBED_MAGIC:
        raise FormatError(f"{path}: bad magic bytes, not an embedding file")
    if len(data) < 6 + 14:
        raise FormatError(f"{path}: truncated embedding header")
    version, dim, count = struct.unpack_from("<HIQ", data, 6)
    if version != EMBED_VERSION:
        raise FormatError(
            f"{path}: file version {version}, supported version {EMBED_VERSION}"
        )
    pos = 6 + 14
    ids, payloads = [], []
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
        payloads.append(data[pos : pos + 4 * dim])
        pos += 4 * dim
    rows = np.frombuffer(b"".join(payloads), dtype="<f4").reshape(len(ids), dim)
    return _checked_set(path, ids, rows)


def load_embeddings(path, fmt: str | None = None) -> EmbeddingSet:
    """Load an embedding set; fmt None sniffs binary magic vs text."""
    path = Path(path)
    if fmt is None:
        with path.open("rb") as fh:
            fmt = "binary" if fh.read(6) == EMBED_MAGIC else "text"
    if fmt == "text":
        return _load_embeddings_text(path)
    if fmt == "binary":
        return _load_embeddings_binary(path)
    raise ValidationError(f"unknown embedding format {fmt!r}")


# ---------------------------------------------------------------------------
# feature-map container (single-tensor files, e.g. exported uncertainty maps)
# ---------------------------------------------------------------------------


def save_feature_map(fm: FeatureMap, path) -> None:
    """Write a feature map as a little-endian f32 tensor container."""
    header = FMAP_MAGIC + struct.pack(
        "<HIII", FMAP_VERSION, fm.channels, fm.height, fm.width
    )
    Path(path).write_bytes(header + fm.data.astype("<f4").tobytes())


def load_feature_map(path) -> FeatureMap:
    data = Path(path).read_bytes()
    if data[:6] != FMAP_MAGIC:
        raise FormatError(f"{path}: bad magic bytes, not a feature-map file")
    if len(data) < 6 + 14:
        raise FormatError(f"{path}: truncated feature-map header")
    version, channels, height, width = struct.unpack_from("<HIII", data, 6)
    if version != FMAP_VERSION:
        raise FormatError(
            f"{path}: file version {version}, supported version {FMAP_VERSION}"
        )
    expect = channels * height * width
    if len(data) - 20 != 4 * expect:
        raise FormatError(f"{path}: payload has {len(data) - 20} bytes, expected {4 * expect}")
    values = np.frombuffer(data, dtype="<f4", offset=20)
    return FeatureMap(data=values.astype(float).reshape(channels, height, width))
