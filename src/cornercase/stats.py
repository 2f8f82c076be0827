"""Correlation analysis and PCA for latent-space inspection.

P-values use the two-sided Student-t test t = r*sqrt(n-2)/sqrt(1-r^2)
evaluated through the regularized incomplete beta function. For
Spearman this t-approximation is standard for n >= 10 and approximate
below that. Coefficients are stored as fractions in [-1, 1]; report
rendering multiplies by 100.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DegenerateInputError, ValidationError
from .images import _frozen_array, _write_file

CORRELATION_KINDS = ("pearson", "spearman")


@dataclass(frozen=True)
class CorrelationResult:
    coefficient: float
    p_value: float
    n: int
    kind: str

    def __post_init__(self):
        if self.kind not in CORRELATION_KINDS:
            raise ValidationError(f"unknown correlation kind {self.kind!r}")
        if abs(self.coefficient) > 1.0 or not (0.0 <= self.p_value <= 1.0):
            raise ValidationError("coefficient must be in [-1, 1] and p in [0, 1]")


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Top-k principal axes of the fitting set.

    components has orthonormal rows; explained_variances is descending.
    The sign convention makes the largest-magnitude entry of each
    component positive, so fits are deterministic.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variances: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        comps = np.asarray(self.components, dtype=float)
        evs = np.asarray(self.explained_variances, dtype=float).reshape(-1)
        if comps.ndim != 2 or comps.shape[1] != mean.size or evs.size != comps.shape[0]:
            raise ValidationError("PCA model shapes disagree")
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=1e-9):
            raise ValidationError("component rows must be orthonormal")
        if np.any(evs < 0) or np.any(np.diff(evs) > 1e-12):
            raise ValidationError("explained variances must be non-negative, descending")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "components", _frozen_array(comps))
        object.__setattr__(self, "explained_variances", _frozen_array(evs))

    @property
    def input_dim(self) -> int:
        return self.mean.size


# ---------------------------------------------------------------------------
# regularized incomplete beta / Student-t p-values
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValidationError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def corr_p_value(r: float, n: int) -> float:
    """Two-sided p-value for H0: rho = 0 given a sample coefficient.

    Uses t = r*sqrt(n-2)/sqrt(1-r^2) against Student-t with n-2 degrees
    of freedom; with none (n < 3) p = 1, else |r| = 1 gives p = 0.
    """
    df = n - 2
    if df < 1:
        return 1.0
    if abs(r) >= 1.0:
        return 0.0
    t2 = r * r * df / (1.0 - r * r)
    return regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t2))


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def _tie_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Exclusive end index of each run of equal values in a sorted array."""
    changes = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(np.append(changes, sorted_values.size > 0)) + 1


def midranks(values) -> np.ndarray:
    """1-based ranks with ties averaged (midranks)."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ends = _tie_ends(values[order])
    counts = np.diff(ends, prepend=0)
    starts = ends - counts
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, counts)
    return ranks


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValidationError("need at least 2 observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("inputs contain non-finite values")
    return x, y


def _centred(v: np.ndarray) -> np.ndarray:
    """v less its mean, scaled by a power of two to a largest magnitude in
    [0.5, 1) unless all zero. v is scaled the same way first, so its sum
    stays finite. Scaling is exact, so the coefficient keeps its bits,
    while its squares neither overflow near the float maximum nor vanish
    near the minimum."""
    v = np.ldexp(v, -np.frexp(max(v.max(), -v.min()))[1])
    v -= v.mean()
    return np.ldexp(v, -np.frexp(max(v.max(), -v.min()))[1])


def _pearson_coefficient(x: np.ndarray, y: np.ndarray) -> float:
    # a constant series whose mean does not round back to its value
    # (0.1, 96.9) would centre to residues, not zeros. In any other, some
    # value differs from the computed mean, so _centred scales a nonzero
    # residue to at least 0.5 and den is never 0.
    if x.min() == x.max() or y.min() == y.max():
        raise DegenerateInputError("constant input has no defined correlation")
    xm = _centred(x)
    ym = _centred(y)
    den = math.sqrt(float((xm * xm).sum()) * float((ym * ym).sum()))
    r = float((xm * ym).sum()) / den
    r = max(-1.0, min(1.0, r))
    # snap floating-point residue on exactly (anti)linear data
    if 1.0 - abs(r) < 1e-12:
        r = math.copysign(1.0, r)
    return r


def pearson(x, y) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided t-test p-value."""
    x, y = _check_pair(x, y)
    r = _pearson_coefficient(x, y)
    return CorrelationResult(
        coefficient=r, p_value=corr_p_value(r, x.size), n=x.size, kind="pearson"
    )


def spearman(x, y) -> CorrelationResult:
    """Rank correlation: Pearson on midranks, same p-value approximation."""
    x, y = _check_pair(x, y)
    r = _pearson_coefficient(midranks(x), midranks(y))
    return CorrelationResult(
        coefficient=r, p_value=corr_p_value(r, x.size), n=x.size, kind="spearman"
    )


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def pca_fit(data: EmbeddingSet, k: int) -> PcaModel:
    """Fit top-k principal axes via dense eigendecomposition of the
    sample covariance."""
    n = len(data)
    if n < 2:
        raise ValidationError(f"need at least 2 records to fit PCA, got {n}")
    if k < 1 or k > min(data.dim, n - 1):
        raise ValidationError(
            f"k={k} out of range; need 1 <= k <= min(dim={data.dim}, n-1={n - 1})"
        )
    X = data.matrix()
    mean = X.mean(axis=0)
    Xc = X - mean
    cov = (Xc.T @ Xc) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    comps = eigvecs[:, order].T.copy()
    evs = np.maximum(eigvals[order], 0.0)
    for i in range(k):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return PcaModel(mean=mean, components=comps, explained_variances=evs)


def pca_transform(model: PcaModel, X) -> np.ndarray:
    """Project each row of X onto the principal axes."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValidationError(
            f"query shape {X.shape} does not match PCA input dim {model.input_dim}"
        )
    return (X - model.mean) @ model.components.T


def export_pca_coords(model: PcaModel, named_sets, path) -> None:
    """Write JSON-lines {"id", "dataset", "coords"} for external plotting."""
    # "%.9g" % v is format(v, ".9g"): one %-format per row
    row_format = ", ".join(["%.9g"] * model.components.shape[0])
    _write_file(path, (
        f'{{"id": {json.dumps(ident)}, "dataset": {json.dumps(name)}, '
        f'"coords": [{row_format % tuple(row.tolist())}]}}\n'
        for name, es in named_sets
        for ident, row in zip(es.ids(), pca_transform(model, es.matrix()))
    ))
