"""In-distribution density models over pooled embeddings.

Two co-variate scorers are provided: a diagonal-covariance Gaussian
mixture fitted with EM (score = log density) and an exact k-nearest-
neighbor index (score = negative squared distance to the k-th
neighbor). Both follow the shared orientation convention: larger
score means more in-distribution.

Log density rather than raw density is used for the GMM score because
raw densities underflow in high dimension; the monotone transform
leaves every rank-based detection metric unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet
from .errors import FitError, FormatError, ValidationError
from .images import _frozen_array

MODEL_MAGIC = b"CCMDL1"
MODEL_VERSION = 1
_KIND_GMM = 0
_KIND_KNN = 1

VARIANCE_FLOOR = 1e-6

# Largest temporary a kNN query block may allocate, in float64 values
# (2 MiB), apart from one row of distances per query.
_KNN_BLOCK_ELEMENTS = 1 << 18

@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture over the fitting embeddings.

    log_likelihoods records the EM trace (one entry per E-step, so the
    last entry is the log-likelihood of the returned parameters); it is
    fitting diagnostics and is not persisted.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    trained_on: int
    seed: int
    log_likelihoods: tuple = field(default_factory=tuple)

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        k = weights.size
        if means.ndim != 2 or means.shape[0] != k or variances.shape != means.shape:
            raise ValidationError("weights, means and variances shapes disagree")
        if not all(np.isfinite(a).all() for a in (weights, means, variances)):
            raise ValidationError("weights, means and variances must be finite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValidationError("mixture weights must be non-negative and sum to 1")
        if np.any(variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise ValidationError(f"variances must respect the {VARIANCE_FLOOR} floor")
        object.__setattr__(self, "weights", _frozen_array(weights))
        object.__setattr__(self, "means", _frozen_array(means))
        object.__setattr__(self, "variances", _frozen_array(variances))
        object.__setattr__(self, "log_likelihoods", tuple(self.log_likelihoods))

    @property
    def components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class KnnIndex:
    """Exact k-th-neighbor index over the stored fitting embeddings."""

    k: int
    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValidationError("index points must form a non-empty (n, dim) array")
        if not np.isfinite(points).all():
            raise ValidationError("index points must be finite")
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        if self.k > points.shape[0]:
            raise ValidationError(
                f"k={self.k} exceeds the {points.shape[0]} stored points"
            )
        object.__setattr__(self, "points", _frozen_array(points))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# GMM fitting
# ---------------------------------------------------------------------------


def _log_gaussian_matrix(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Per-sample per-component diagonal-Gaussian log densities, (n, K)."""
    const = -0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)  # (K,)
    # (n, K) quadratic terms
    quad = np.empty((X.shape[0], means.shape[0]))
    for j in range(means.shape[0]):
        quad[:, j] = ((X - means[j]) ** 2 / variances[j]).sum(axis=1)
    return const[None, :] - 0.5 * quad


def _logsumexp_rows(logp: np.ndarray) -> np.ndarray:
    m = logp.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(logp - m).sum(axis=1, keepdims=True))).ravel()


def _kmeanspp_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            raise FitError(
                f"component {j} collapsed during initialization: "
                f"fewer than {k} distinct fitting points"
            )
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))
    return centers


def fit_gmm(
    ids: EmbeddingSet,
    components: int = 4,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> GmmModel:
    """Fit a diagonal-covariance mixture to the embedding set with EM.

    Initialization is k-means++ style from a generator seeded with
    `seed`, so the fit is deterministic given (ids, components, seed,
    max_iters, tol). The per-iteration log-likelihood is checked to be
    non-decreasing (tolerance 1e-9); EM stops once the relative
    improvement drops below `tol` or after `max_iters` M-steps.
    """
    if components < 1:
        raise FitError("components must be a positive integer")
    if max_iters < 1 or tol <= 0:
        raise FitError("max_iters must be >= 1 and tol > 0")
    n = len(ids)
    if n < 2:
        raise FitError(f"need at least 2 records to fit, got {n}")
    if n < components:
        raise FitError(f"cannot fit {components} components to {n} records")
    X = ids.matrix()
    if np.all(X == X[0]):
        raise FitError(
            "component 0 collapsed: all fitting records are identical"
        )
    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(X, components, rng)
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (components, 1))
    weights = np.full(components, 1.0 / components)

    ll_trace: list[float] = []
    prev_ll = None
    # max_iters M-steps, and one E-step past the last of them, so the
    # final trace entry scores the parameters returned
    for m_steps in range(max_iters + 1):
        with np.errstate(divide="ignore"):
            log_joint = np.log(weights)[None, :] + _log_gaussian_matrix(X, means, variances)
        log_norm = _logsumexp_rows(log_joint)
        ll = float(log_norm.sum())
        if prev_ll is not None and ll < prev_ll - 1e-9:
            raise FitError(
                f"log-likelihood decreased during EM ({prev_ll} -> {ll})"
            )
        ll_trace.append(ll)
        if m_steps == max_iters or (
            prev_ll is not None and ll - prev_ll < tol * max(abs(prev_ll), 1e-12)
        ):
            break
        prev_ll = ll
        resp = np.exp(log_joint - log_norm[:, None])
        mass = resp.sum(axis=0)
        for j in range(components):
            if mass[j] <= 0.0:
                raise FitError(f"component {j} collapsed: zero responsibility mass")
        weights = mass / n
        means = (resp.T @ X) / mass[:, None]
        for j in range(components):
            diff2 = (X - means[j]) ** 2
            variances[j] = np.maximum((resp[:, j] @ diff2) / mass[j], VARIANCE_FLOOR)

    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        trained_on=n,
        seed=seed,
        log_likelihoods=tuple(ll_trace),
    )


def fit_gmm_bic(
    ids: EmbeddingSet,
    candidates=(1, 2, 4, 8),
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> GmmModel:
    """Fit over candidate component counts and keep the lowest-BIC model.

    Candidates exceeding the record count are skipped; at least one
    candidate must be viable.
    """
    n = len(ids)
    viable = [k for k in candidates if 1 <= k <= n]
    if not viable:
        raise FitError(f"no viable component count in {tuple(candidates)} for {n} records")
    best = None
    best_bic = np.inf
    for k in viable:
        model = fit_gmm(ids, components=k, seed=seed, max_iters=max_iters, tol=tol)
        n_params = k * 2 * model.dim + (k - 1)
        bic = -2.0 * model.log_likelihoods[-1] + n_params * np.log(n)
        if bic < best_bic:
            best, best_bic = model, bic
    return best


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def gmm_log_density(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Log mixture density for each row of X, via log-sum-exp."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValidationError(
            f"query dim {X.shape[-1] if X.ndim else '?'} does not match model dim {model.dim}"
        )
    with np.errstate(divide="ignore"):
        log_joint = np.log(model.weights)[None, :] + _log_gaussian_matrix(
            X, model.means, model.variances
        )
    return _logsumexp_rows(log_joint)


def build_knn_index(ids: EmbeddingSet, k: int = 50) -> KnnIndex:
    """Store the embedding set for exact k-th-neighbor queries."""
    if k < 1:
        raise ValidationError("k must be a positive integer")
    if len(ids) < k:
        raise ValidationError(f"k={k} exceeds the {len(ids)} available records")
    return KnnIndex(k=k, points=ids.matrix())


def knn_kth_sqdist(index: KnnIndex, X: np.ndarray) -> np.ndarray:
    """Squared distance from each row of X to its k-th nearest stored point.

    The result equals a brute-force scan of explicit differences,
    ``((x - p) ** 2).sum()``, bit for bit. It is found in two stages:

    1. Candidates. One GEMM per block of queries gives the expanded
       distance |x|^2 + |p|^2 - 2 x.p to every stored point. It rounds
       differently from the explicit sum, but by at most a bound E
       (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
       so every point within 2E of the k-th smallest expanded distance
       is kept.
    2. Re-rank. Explicit differences are recomputed for the candidates
       only, and the k-th smallest of those is the result.

    Both stages work in blocks of at most _KNN_BLOCK_ELEMENTS values
    (beyond one row of distances per query), so memory stays bounded
    whatever the index size or the number of ties. Non-finite query
    rows raise ValidationError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != index.dim:
        raise ValidationError(
            f"query dim {X.shape[-1] if X.ndim else '?'} does not match index dim {index.dim}"
        )
    if not np.isfinite(X).all():
        raise ValidationError("kNN query rows must be finite")
    points, k = index.points, index.k
    count, dim = points.shape
    # For a query x and a point p, let a be the expanded distance and f
    # the explicit one. Each is at most gamma_(dim+2) * (|x| + |p|)^2 away
    # from the exact |x - p|^2: a takes dim roundings per inner product
    # plus two additions, f takes a difference (counted twice, as it is
    # squared), a square and dim - 1 additions. So |a - f| <= E with
    # E = gamma_(2 dim + 4) * (|x| + max|p|)^2, plus one `tiny` per
    # rounding for underflow. The factor 2 in `bound` also covers the
    # roundings of the norms, of E itself and of the threshold.
    # Let tau be the k-th smallest a in a row:
    #   - the k points with the smallest a have f <= a + E <= tau + E,
    #     so the true k-th explicit distance F is at most tau + E;
    #   - any point with f <= F has a <= f + E <= tau + 2E.
    # Every point with f <= F is therefore a candidate, and the k-th
    # smallest f over the candidates is F itself. When 4 (|x| + max|p|)^2
    # is not finite, the bound can overflow, and the row keeps all points.
    roundings = 2 * dim + 4
    unit = np.finfo(float).eps / 2
    gamma = roundings * unit / (1 - roundings * unit)
    floor = roundings * np.finfo(float).tiny
    out = np.empty(X.shape[0])
    rows = max(1, _KNN_BLOCK_ELEMENTS // count)
    pair_step = max(1, _KNN_BLOCK_ELEMENTS // max(dim, 1))
    # overflow in the expanded form is expected: such rows keep all points
    with np.errstate(over="ignore", invalid="ignore"):
        p_sq = np.einsum("ij,ij->i", points, points)
        p_max = np.sqrt(p_sq.max())
        for start in range(0, X.shape[0], rows):
            block = X[start : start + rows]
            x_sq = np.einsum("ij,ij->i", block, block)
            approx = block @ points.T
            approx *= -2.0
            approx += p_sq
            approx += x_sq[:, None]
            scale = (np.sqrt(x_sq) + p_max) ** 2
            bound = 2.0 * (gamma * scale + floor)
            tau = np.partition(approx, k - 1, axis=1)[:, k - 1]
            keep = approx <= (tau + 2.0 * bound)[:, None]
            keep[~np.isfinite(4.0 * scale)] = True
            row, col = np.nonzero(keep)
            exact = np.empty(row.size)
            for s in range(0, row.size, pair_step):
                diff = block[row[s : s + pair_step]]
                diff -= points[col[s : s + pair_step]]
                exact[s : s + pair_step] = (diff * diff).sum(axis=1)
            # row is sorted, so each query's candidates are one run of
            # pairs; its k-th sits k - 1 places after the run's start
            counts = keep.sum(axis=1)
            first = np.cumsum(counts) - counts
            order = np.lexsort((exact, row))
            out[start : start + rows] = exact[order[first + k - 1]]
    return out


def score_set(model, es: EmbeddingSet) -> np.ndarray:
    """Score every row of an embedding set against a fitted model.

    A GMM scores by log density; a k-NN index by the negative squared
    distance to the k-th stored neighbor, where stored points equal to
    the query count as neighbors and equidistant points cannot change
    the k-th distance itself.
    """
    if isinstance(model, GmmModel):
        return gmm_log_density(model, es.matrix())
    if isinstance(model, KnnIndex):
        return -knn_kth_sqdist(model, es.matrix())
    raise ValidationError(f"cannot score with model of type {type(model).__name__}")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def persist_model(model, path) -> None:
    """Write a fitted model as a self-describing little-endian file."""
    parts = [MODEL_MAGIC, struct.pack("<H", MODEL_VERSION)]
    if isinstance(model, GmmModel):
        parts.append(struct.pack("<B", _KIND_GMM))
        parts.append(
            struct.pack("<IIQq", model.components, model.dim, model.trained_on, model.seed)
        )
        parts.append(model.weights.astype("<f8").tobytes())
        parts.append(model.means.astype("<f8").tobytes())
        parts.append(model.variances.astype("<f8").tobytes())
    elif isinstance(model, KnnIndex):
        parts.append(struct.pack("<B", _KIND_KNN))
        parts.append(struct.pack("<IIQ", model.dim, model.k, model.count))
        parts.append(model.points.astype("<f8").tobytes())
    else:
        raise ValidationError(f"cannot persist model of type {type(model).__name__}")
    Path(path).write_bytes(b"".join(parts))


def restore_model(path):
    """Reconstruct a model written by persist_model."""
    data = Path(path).read_bytes()
    if data[:6] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic bytes, not a model file")
    if len(data) < 9:
        raise FormatError(f"{path}: truncated model header")
    (version,) = struct.unpack_from("<H", data, 6)
    if version != MODEL_VERSION:
        raise FormatError(
            f"{path}: file version {version}, supported version {MODEL_VERSION}"
        )
    kind = data[8]
    pos = 9
    if kind == _KIND_GMM:
        if len(data) < pos + 24:
            raise FormatError(f"{path}: truncated model payload")
        k, dim, trained_on, seed = struct.unpack_from("<IIQq", data, pos)
        pos += 24
        expect = pos + 8 * (k + 2 * k * dim)
        if len(data) < expect:
            raise FormatError(f"{path}: truncated model payload")
        weights = np.frombuffer(data, dtype="<f8", count=k, offset=pos)
        pos += 8 * k
        means = np.frombuffer(data, dtype="<f8", count=k * dim, offset=pos).reshape(k, dim)
        pos += 8 * k * dim
        variances = np.frombuffer(data, dtype="<f8", count=k * dim, offset=pos).reshape(k, dim)
        return GmmModel(
            weights=weights, means=means, variances=variances,
            trained_on=trained_on, seed=seed,
        )
    if kind == _KIND_KNN:
        if len(data) < pos + 16:
            raise FormatError(f"{path}: truncated model payload")
        dim, k, count = struct.unpack_from("<IIQ", data, pos)
        pos += 16
        if len(data) < pos + 8 * count * dim:
            raise FormatError(f"{path}: truncated model payload")
        points = np.frombuffer(data, dtype="<f8", count=count * dim, offset=pos)
        return KnnIndex(k=k, points=points.reshape(count, dim))
    raise FormatError(f"{path}: unknown model kind {kind}")
