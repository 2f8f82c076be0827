"""In-distribution density models over pooled embeddings.

Two co-variate scorers are provided: a diagonal-covariance Gaussian
mixture fitted with EM (score = log density) and an exact k-nearest-
neighbor index (score = negative squared distance to the k-th
neighbor). Both follow the shared orientation convention: larger
score means more in-distribution.

Log density rather than raw density is used for the GMM score because
raw densities underflow in high dimension; the monotone transform
leaves every rank-based detection metric unchanged.

EM runs on the fitting rows centred on their column mean (Xc), and the
scorer centres queries on the model mean. The E-step's quadratic term
is Xc2 @ (1/var).T - 2 Xc @ (mu/var).T + sum(mu^2/var) and the M-step
variance (R.T @ Xc2) / mass - mu^2: a few matrix products in place of
a loop over components. Both expanded forms can cancel (tight clusters
far from the centre), so every entry carries a proven rounding bound
(Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and one
whose bound exceeds 1e-9 * max(1, |value|) is recomputed by explicit
differences; see _log_gaussian_matrix and _m_step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet, read_container, write_container
from .errors import FitError, FormatError, ValidationError
from .images import MAX_MAGNITUDE, _frozen_array, _in_envelope

MODEL_MAGIC = b"CCMDL1"
_KIND_GMM = 0
_KIND_KNN = 1
# per model kind, the container header (the kind byte, then components,
# dim, trained_on, seed for a gmm and dim, k, count for a knn index) and
# the f64 payload size it implies
_MODEL_LAYOUTS = {
    _KIND_GMM: ("BIIQq", lambda _, k, dim, *__: 8 * (k + 2 * k * dim)),
    _KIND_KNN: ("BIIQ", lambda _, dim, k, count: 8 * dim * count),
}

VARIANCE_FLOOR = 1e-6

# Largest temporary a kNN query block, or a block of GMM entries
# recomputed by explicit differences, may allocate, in float64 values
# (2 MiB), apart from one row of distances per kNN query.
_BLOCK_ELEMENTS = 1 << 18

# Largest rounding bound, relative to max(1, |value|), that an expanded
# (GEMM) GMM entry may carry before it is recomputed explicitly.
_GEMM_REL_TOL = 1e-9

@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture over the fitting embeddings.

    log_likelihoods records the EM trace (one entry per E-step, so the
    last entry is the log-likelihood of the returned parameters), and
    converged whether EM stopped on its tolerance test rather than at
    max_iters. Both are fitting diagnostics and are not persisted: a
    restored or hand-built model has an empty trace and converged False.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    trained_on: int
    seed: int
    log_likelihoods: tuple = field(default_factory=tuple)
    converged: bool = False

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        k = weights.size
        if means.ndim != 2 or means.shape[0] != k or variances.shape != means.shape:
            raise ValidationError("weights, means and variances shapes disagree")
        if means.shape[1] < 1:
            raise ValidationError("mixture dimension must be positive")
        if not all(np.isfinite(a).all() for a in (weights, means, variances)):
            raise ValidationError("weights, means and variances must be finite")
        if not _in_envelope(means):
            raise ValidationError(f"mixture means must lie below {MAX_MAGNITUDE:g} in magnitude")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValidationError("mixture weights must be non-negative and sum to 1")
        # the floor also keeps every 1/variance at most 1e6, so no reciprocal overflows
        if np.any(variances < VARIANCE_FLOOR * (1 - 1e-12)):
            raise ValidationError(f"variances must respect the {VARIANCE_FLOOR} floor")
        object.__setattr__(self, "weights", _frozen_array(weights))
        object.__setattr__(self, "means", _frozen_array(means))
        object.__setattr__(self, "variances", _frozen_array(variances))
        object.__setattr__(self, "log_likelihoods", tuple(self.log_likelihoods))
        object.__setattr__(self, "converged", bool(self.converged))

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
        if points.ndim != 2 or min(points.shape) < 1:
            raise ValidationError("index points must form an (n, dim) array with n, dim >= 1")
        # any finite point is admitted, beyond MAX_MAGNITUDE too: where
        # squared norms overflow, the query falls back to explicit
        # differences (knn_kth_sqdist), and overflowing distances read inf
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


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u) for float64 (u = eps / 2): m
    roundings in a row move a value by at most this relative amount."""
    unit = np.finfo(float).eps / 2
    return m * unit / (1 - m * unit)


def _log_gaussian_matrix(
    Xc: np.ndarray, Xc2: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Per-sample per-component diagonal-Gaussian log densities, (n, K).

    Xc holds the rows about some centre, Xc2 = Xc ** 2, and means lie
    about the same centre. The quadratic term sum((x - mu)^2 / var)
    comes from three products,

        quad = Xc2 @ (1/var).T - 2 Xc @ (mu/var).T + sum(mu^2/var),

    and entries whose rounding bound exceeds _GEMM_REL_TOL * max(1, quad)
    are recomputed by explicit differences.
    """
    # Let a = sum(x^2/var), b = sum(x mu/var) and c = sum(mu^2/var) be
    # exact over the stored x, mu and var, so quad = a - 2b + c exactly.
    # Higham (Accuracy and Stability of Numerical Algorithms, 3.1): the
    # square, the reciprocal and the product round each term 3 times and
    # d - 1 additions follow, in any order, so each computed product is
    # within gamma_(d+2) times its sum of absolute terms: gamma_(d+2) a,
    # gamma_(d+2) c, and gamma_(d+2) sum|x mu|/var <= gamma_(d+2) (a + c)/2
    # for b (2|x mu| <= x^2 + mu^2). The sum s = a + c adds a rounding,
    # s - 2b one more (2b is exact). So the computed quad is within
    #     2 gamma_(d+4) (a + c)
    # of the exact one. The factor 2 in `bound` also covers computing it
    # from the rounded s. Underflow adds under 1e-300 per entry (var is
    # at least VARIANCE_FLOOR), far below the threshold's floor of 1e-9.
    d = Xc.shape[1]
    inv = 1.0 / variances
    scaled = means * inv
    # The expanded terms overflow for a query far from a tight component,
    # even where the explicit sum does not. Their inf or NaN entries fail
    # the finite threshold below, so they are recomputed.
    with np.errstate(over="ignore", invalid="ignore"):
        quad = Xc2 @ inv.T
        quad += (means * scaled).sum(axis=1)
        bound = (4.0 * _gamma(d + 4)) * quad
        quad -= 2.0 * (Xc @ scaled.T)
    limit = _GEMM_REL_TOL * np.clip(quad, 1.0, np.finfo(float).max)
    row, comp = np.nonzero(~(bound <= limit))
    step = max(1, _BLOCK_ELEMENTS // max(d, 1))
    for s in range(0, row.size, step):
        r, j = row[s : s + step], comp[s : s + step]
        # an explicit sum past the float64 range is inf: density 0
        with np.errstate(over="ignore"):
            quad[r, j] = ((Xc[r] - means[j]) ** 2 / variances[j]).sum(axis=1)
    const = -0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)  # (K,)
    return const[None, :] - 0.5 * quad


def _m_step(Xc: np.ndarray, Xc2: np.ndarray, resp: np.ndarray):
    """Weights, means (about Xc's centre) and floored variances from the
    responsibilities resp, (n, K).

    A variance is the second moment less the squared mean,
    (resp.T @ Xc2) / mass - mu^2; entries whose rounding bound exceeds
    _GEMM_REL_TOL * max(1, var) are recomputed two-pass, as
    resp[:, j] @ (x - mu_j)^2 / mass_j.
    """
    # Per (component j, dim): with mass m = sum(r) and mean mu as
    # computed, the two-pass value is v = sum(r (x - mu)^2) / m, and
    #     v = s2/m - mu^2 + mu (mu (M/m + 1) - 2 s1/m)
    # holds exactly, with s1 = sum(r x), s2 = sum(r x^2) and M = sum(r)
    # exact. m is within gamma_(n-1) of M, the computed s1 within
    # gamma_n sum(r |x|) of s1, and mu takes one more rounding, so the
    # bracket is at most 3 gamma_(n+1) sum(r |x|) / m to first order;
    # with 2|mu x| <= mu^2 + x^2 the last term is at most
    # 1.5 gamma_(n+1) (s2/m + mu^2). The computed s2/m takes n + 2
    # roundings of non-negative terms, mu^2 one and the difference one,
    # so the computed variance is within
    #     2.5 gamma_(n+3) (s2/m + mu^2)
    # of v to first order. `bound` uses 4 in place of 2.5 to cover the
    # second-order terms and its own rounding while n u is far below 1.
    n, d = Xc.shape
    mass = resp.sum(axis=0)
    for j in range(mass.size):
        if mass[j] <= 0.0:
            raise FitError(f"component {j} collapsed: zero responsibility mass")
    means = (resp.T @ Xc) / mass[:, None]
    second = (resp.T @ Xc2) / mass[:, None]
    mean_sq = means * means
    variances = second - mean_sq
    bound = (4.0 * _gamma(n + 3)) * (second + mean_sq)
    redo = ~(bound <= _GEMM_REL_TOL * np.maximum(variances, 1.0))
    step = max(1, _BLOCK_ELEMENTS // n)
    for j in np.flatnonzero(redo.any(axis=1)):
        cols = np.flatnonzero(redo[j])
        for s in range(0, cols.size, step):
            c = cols[s : s + step]
            diff2 = (Xc[:, c] - means[j, c]) ** 2
            variances[j, c] = (resp[:, j] @ diff2) / mass[j]
    return mass / n, means, np.maximum(variances, VARIANCE_FLOOR)


def _logsumexp_rows(logp: np.ndarray) -> np.ndarray:
    m = logp.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(logp - m).sum(axis=1, keepdims=True))).ravel()


def _kmeanspp_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    # Differences are scaled by 2^-e, 2^e above X's largest magnitude,
    # before they are squared. That is exact, so the draw probabilities
    # d2 / total are X's, but squares of tiny rows (1e-200) stay above 0.
    e = np.frexp(max(X.max(), -X.min()))[1]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = (np.ldexp(X - centers[0], -e) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            if len(np.unique(X, axis=0)) >= k:
                # distinct rows whose scaled differences all square to 0
                raise FitError(
                    f"component {j} collapsed during initialization: the column "
                    "scales are too far apart for float64 distances"
                )
            raise FitError(
                f"component {j} collapsed during initialization: "
                f"fewer than {k} distinct fitting points"
            )
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, (np.ldexp(X - centers[j], -e) ** 2).sum(axis=1))
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
    max_iters, tol). EM runs on the rows centred on their column mean,
    with the E-step and M-step as matrix products (see
    _log_gaussian_matrix and _m_step). The per-iteration log-likelihood
    is checked to be non-decreasing (tolerance 1e-9 relative to its
    size); EM stops once the relative improvement drops below `tol`
    (converged) or after `max_iters` M-steps (not converged).
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
    centre = X.mean(axis=0)
    means = _kmeanspp_centers(X, components, rng) - centre
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (components, 1))
    weights = np.full(components, 1.0 / components)
    Xc = X - centre
    Xc2 = Xc * Xc

    ll_trace: list[float] = []
    prev_ll = None
    converged = False
    # max_iters M-steps, and one E-step past the last of them, so the
    # final trace entry scores the parameters returned
    for m_steps in range(max_iters + 1):
        with np.errstate(divide="ignore"):
            log_joint = np.log(weights)[None, :] + _log_gaussian_matrix(
                Xc, Xc2, means, variances
            )
        log_norm = _logsumexp_rows(log_joint)
        ll = float(log_norm.sum())
        if prev_ll is not None:
            if ll < prev_ll - 1e-9 * max(1.0, abs(prev_ll)):
                raise FitError(
                    f"log-likelihood decreased during EM ({prev_ll} -> {ll})"
                )
            converged = ll - prev_ll < tol * max(abs(prev_ll), 1e-12)
        ll_trace.append(ll)
        if converged or m_steps == max_iters:
            break
        prev_ll = ll
        weights, means, variances = _m_step(
            Xc, Xc2, np.exp(log_joint - log_norm[:, None])
        )

    return GmmModel(
        weights=weights,
        means=means + centre,
        variances=variances,
        trained_on=n,
        seed=seed,
        log_likelihoods=tuple(ll_trace),
        converged=converged,
    )


def fit_gmm_bic(
    ids: EmbeddingSet,
    candidates=(1, 2, 4, 8),
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> GmmModel:
    """Fit over candidate component counts and keep the lowest-BIC model.

    Candidates exceeding the number of distinct records are skipped, as
    k-means++ cannot place more centres than there are distinct points;
    at least one candidate must be viable.
    """
    n = len(ids)
    distinct = len(np.unique(ids.matrix(), axis=0))
    viable = [k for k in candidates if 1 <= k <= distinct]
    if not viable:
        raise FitError(
            f"no viable component count in {tuple(candidates)} for {n} records "
            f"({distinct} distinct)"
        )
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
    """Log mixture density for each row of X, via log-sum-exp.

    Rows are centred on the model mean, weights @ means (for a fitted
    model, the fitting data's mean), as in fit_gmm.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValidationError(
            f"query dim {X.shape[-1] if X.ndim else '?'} does not match model dim {model.dim}"
        )
    centre = model.weights @ model.means
    Xc = X - centre
    with np.errstate(divide="ignore"):
        log_joint = np.log(model.weights)[None, :] + _log_gaussian_matrix(
            Xc, Xc * Xc, model.means - centre, model.variances
        )
    bad = np.flatnonzero(~np.isfinite(log_joint.max(axis=1)))
    if bad.size:
        raise ValidationError(f"query row {bad[0]}: log density is not finite in float64")
    return _logsumexp_rows(log_joint)


def build_knn_index(ids: EmbeddingSet, k: int = 50) -> KnnIndex:
    """Store the embedding set for exact k-th-neighbor queries."""
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

    Both stages work in blocks of at most _BLOCK_ELEMENTS values
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
    gamma = _gamma(roundings)
    floor = roundings * np.finfo(float).tiny
    out = np.empty(X.shape[0])
    rows = max(1, _BLOCK_ELEMENTS // count)
    pair_step = max(1, _BLOCK_ELEMENTS // max(dim, 1))
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
    if isinstance(model, GmmModel):
        header = (_KIND_GMM, model.components, model.dim, model.trained_on, model.seed)
        arrays = (model.weights, model.means, model.variances)
    elif isinstance(model, KnnIndex):
        header = (_KIND_KNN, model.dim, model.k, model.count)
        arrays = (model.points,)
    else:
        raise ValidationError(f"cannot persist model of type {type(model).__name__}")
    payload = [a.astype("<f8").tobytes() for a in arrays]
    write_container(path, MODEL_MAGIC, _MODEL_LAYOUTS[header[0]][0], header, payload)


def restore_model(path):
    """Reconstruct a model written by persist_model."""
    data = Path(path).read_bytes()
    (kind,), _ = read_container(path, data, MODEL_MAGIC, "model", "B")
    if kind not in _MODEL_LAYOUTS:
        raise FormatError(f"{path}: unknown model kind {kind}")
    (_, *header), pos = read_container(path, data, MODEL_MAGIC, "model", *_MODEL_LAYOUTS[kind])
    values = np.frombuffer(data, dtype="<f8", offset=pos)
    if kind == _KIND_KNN:
        dim, k, count = header
        return KnnIndex(k=k, points=values.reshape(count, dim))
    k, dim, trained_on, seed = header
    weights, means, variances = np.split(values, [k, k + k * dim])
    return GmmModel(
        weights=weights, means=means.reshape(k, dim), variances=variances.reshape(k, dim),
        trained_on=trained_on, seed=seed,
    )
