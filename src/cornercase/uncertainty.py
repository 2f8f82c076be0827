"""Evidential (Dirichlet) machinery and mean-uncertainty aggregation.

The mean-uncertainty score is negated so that all scoring methods share
one thresholding convention (larger score = more in-distribution).
Aggregation treats pixel uncertainties as independent; no spatial
statistic beyond the mean is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import FMAP_MAGIC, DatasetManifest, load_feature_map
from .errors import FormatError, ValidationError
from .images import GRAY16, _SIXTEEN_BIT_MAX, _adopt, _frozen_array, _keep_unit, read_png

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration parameters of a Dirichlet over K >= 2 classes."""

    kappa: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.kappa, dtype=float).reshape(-1)
        if arr.size < 2:
            raise ValidationError("need at least 2 concentration parameters")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValidationError("concentration parameters must be positive and finite")
        object.__setattr__(self, "kappa", _frozen_array(arr))

    @property
    def num_classes(self) -> int:
        return self.kappa.size


@dataclass(frozen=True, eq=False)
class UncertaintyMap:
    """Pixel-wise uncertainty in [0, 1]; values is (H, W)."""

    values: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.values, dtype=float))

    def _keep(self, arr: np.ndarray) -> None:
        if arr.ndim != 2 or min(arr.shape) < 1:
            raise ValidationError(f"uncertainty map must be (H, W), got {arr.shape}")
        _keep_unit(self, "values", arr, "uncertainty map", "uncertainty values")


def dirichlet_pdf(params: DirichletParams, p) -> float:
    """Dirichlet density at a point of the probability simplex.

    Evaluated in log space and exponentiated. On the simplex boundary
    (some p_k = 0) the density is 0 when kappa_k > 1, the factor is 1
    when kappa_k = 1, and the result is +inf when kappa_k < 1 (the
    distinguished overflow value).
    """
    return float(dirichlet_pdf_batch(params, np.asarray(p, dtype=float).reshape(1, -1))[0])


def dirichlet_pdf_batch(params: DirichletParams, P: np.ndarray) -> np.ndarray:
    """Vectorized dirichlet_pdf over rows of P (same boundary rules).

    Every row must be finite, non-negative and sum to 1 within SIMPLEX_TOL.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[1] != params.num_classes:
        raise ValidationError(
            f"probability rows must be (n, {params.num_classes}), got shape {P.shape}"
        )
    if not np.all(np.isfinite(P)) or np.any(P < 0.0):
        raise ValidationError("probability vectors must be non-negative and finite")
    sums = P.sum(axis=1)
    off = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_TOL)
    if off.size:
        raise ValidationError(f"probability row {off[0]} sums to {float(sums[off[0]])!r}, not 1")
    kappa = params.kappa
    log_norm = math.lgamma(kappa.sum()) - sum(math.lgamma(k) for k in kappa)
    # boundary rows may sum +inf and -inf terms; the masks below decide them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = (kappa - 1.0)[None, :] * np.log(P)
        # kappa == 1 contributes factor 1 even at p == 0
        logs[:, kappa == 1.0] = 0.0
        out = np.exp(log_norm + logs.sum(axis=1))
    inf_rows = ((P == 0.0) & (kappa < 1.0)[None, :]).any(axis=1)
    out[inf_rows] = np.inf
    zero_rows = ((P == 0.0) & (kappa > 1.0)[None, :]).any(axis=1) & ~inf_rows
    out[zero_rows] = 0.0
    return out


def dirichlet_uncertainty(params: DirichletParams) -> float:
    """Evidential uncertainty K / sum(kappa); scale-inverse in kappa."""
    return params.num_classes / float(params.kappa.sum())


def mean_uncertainty(umap: UncertaintyMap) -> float:
    """Aggregate a pixel-wise map into one score.

    Returns the negated mean so the module-wide orientation (larger
    score = more in-distribution) holds.
    """
    return -float(umap.values.mean())


def load_uncertainty_map(path) -> UncertaintyMap:
    """Read a map from a 16-bit grayscale PNG (value/65535) or a
    single-channel feature-map container."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(6)
    if magic == FMAP_MAGIC:
        fm = load_feature_map(path)
        if fm.channels != 1:
            raise FormatError(
                f"{path}: uncertainty tensor must have 1 channel, got {fm.channels}"
            )
        values = fm.data[0]
        if values.min() < 0.0 or values.max() > 1.0:
            raise FormatError(f"{path}: uncertainty values must lie in [0, 1]")
        return _adopt(UncertaintyMap, values)  # read-only, and fm is ours alone
    arr = read_png(path, GRAY16)
    # one float pass, bit for bit arr.astype(float) / 65535
    return _adopt(UncertaintyMap, arr / _SIXTEEN_BIT_MAX)


def score_dataset_maps(manifest: DatasetManifest) -> tuple[list[str], list[float]]:
    """(sample ids, mean_uncertainty scores) of a directory of map files,
    each map scored as it is read, so one map is held at a time."""
    path = Path(manifest.path)
    if not path.is_dir():
        raise ValidationError(
            f"{manifest.name}: mean_uncertainty needs a directory of uncertainty "
            f"maps, got file {path}"
        )
    files = sorted(p for p in path.iterdir() if p.suffix.lower() in (".png", ".ccfm", ".bin"))
    if not files:
        raise ValidationError(f"{manifest.name}: no uncertainty maps under {path}")
    return [p.stem for p in files], [mean_uncertainty(load_uncertainty_map(p)) for p in files]
