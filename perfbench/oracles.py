"""Independent reference computations for the output checks.

Each oracle follows the documented definition by a different route
than the program: pairwise comparison for AUROC, one vectorised sort
for average precision, a GEMM-expanded distance matrix for kNN (itself
cross-checked by explicit differences on a sample), an SVD for PCA and
a standalone PNG decoder for the sweep outputs.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from inputs import PNG_SIGNATURE


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Percentage of (ID, OOD) pairs with the ID score higher, ties half."""
    wins = ties = 0
    for block in np.array_split(id_scores, max(1, id_scores.size // 512)):
        diff = block[:, None] - ood_scores[None, :]
        wins += int((diff > 0).sum())
        ties += int((diff == 0).sum())
    return 100.0 * (wins + 0.5 * ties) / (id_scores.size * ood_scores.size)


def average_precision(scores: np.ndarray, positive: np.ndarray) -> float:
    """Sum over descending score groups of (recall step) x precision,
    tied scores forming one group."""
    order = np.argsort(-scores, kind="stable")
    ranked, hits = scores[order], positive[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(hits)[last]
    seen = last + 1
    recall = tp / tp[-1]
    precision = tp / seen
    return float(np.sum(np.diff(recall, prepend=0.0) * precision))


def fpr_at_tpr(pos: np.ndarray, neg: np.ndarray, tpr: float = 0.95) -> float:
    """Percentage of negatives at or above the largest threshold that
    keeps at least tpr of the positives."""
    keep = math.ceil(tpr * pos.size)
    threshold = np.sort(pos)[pos.size - keep]
    return 100.0 * float((neg >= threshold).sum()) / neg.size


def detection_report(id_scores, ood_scores, tpr: float = 0.95) -> dict:
    """The four detection metrics; larger score = more in-distribution."""
    scores = np.concatenate([id_scores, ood_scores])
    is_id = np.arange(scores.size) < id_scores.size
    return {
        "fpr_at_95": fpr_at_tpr(id_scores, ood_scores, tpr),
        "auroc": auroc(id_scores, ood_scores),
        "aupr_in": 100.0 * average_precision(scores, is_id),
        "aupr_out": 100.0 * average_precision(-scores, ~is_id),
    }


def knn_kth_sqdist(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """k-th smallest squared distance per query from the expanded form
    |q|^2 + |p|^2 - 2 q.p, in blocks of queries."""
    p2 = (points * points).sum(axis=1)
    out = np.empty(len(queries))
    for start in range(0, len(queries), 256):
        q = queries[start : start + 256]
        d2 = (q * q).sum(axis=1)[:, None] + p2[None, :] - 2.0 * (q @ points.T)
        out[start : start + 256] = np.partition(d2, k - 1, axis=1)[:, k - 1]
    return out


def knn_brute_force(points: np.ndarray, query: np.ndarray, k: int) -> float:
    return float(np.sort(((points - query) ** 2).sum(axis=1))[k - 1])


def rankdata(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inverse]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return pearson(rankdata(x), rankdata(y))


def pca_coords(matrix: np.ndarray, k: int) -> np.ndarray:
    """Coordinates on the top-k principal axes from an SVD of the
    centred data; each column is fixed up to its sign."""
    centred = matrix - matrix.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    return centred @ vt[:k].T


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.zeros((height, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.int64)
    for r in range(height):
        ftype, line = rows[r, 0], rows[r, 1:].astype(np.int64)
        if ftype == 1:
            line = line.reshape(-1, bpp).cumsum(axis=0).ravel() & 0xFF
        elif ftype == 2:
            line = (line + prior) & 0xFF
        elif ftype in (3, 4):
            cur = line.copy()
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                b = prior[i]
                if ftype == 3:
                    pred = (a + b) >> 1
                else:
                    c = prior[i - bpp] if i >= bpp else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[i] = (cur[i] + pred) & 0xFF
            line = cur
        elif ftype != 0:
            raise ValueError(f"bad PNG filter type {ftype}")
        out[r] = line
        prior = line.astype(np.int64)
    return out


def decode_png(data: bytes) -> np.ndarray:
    """Decode 8-bit RGB/gray or 16-bit gray, non-interlaced PNG bytes."""
    if data[:8] != PNG_SIGNATURE:
        raise ValueError("not a PNG")
    pos, idat, header = 8, [], None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if zlib.crc32(ctype + body) & 0xFFFFFFFF != struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0]:
            raise ValueError(f"CRC mismatch in {ctype!r}")
        if ctype == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif ctype == b"IDAT":
            idat.append(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    width, height, depth, color, _, _, interlace = header
    if interlace or depth not in (8, 16) or color not in (0, 2):
        raise ValueError("unsupported PNG layout")
    channels = 3 if color == 2 else 1
    bpp = channels * depth // 8
    pixels = _unfilter(zlib.decompress(b"".join(idat)), height, width * bpp, bpp)
    if depth == 16:
        return pixels.view(">u2").astype(np.uint16).reshape(height, width)
    return pixels.reshape(height, width, 3) if channels == 3 else pixels.reshape(height, width)
