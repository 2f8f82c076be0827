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
from functools import cached_property
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

# Query rows per kNN block when the stored points are tiled: enough rows
# for the GEMM to run near its peak rate.
_TILE_ROWS = 128

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
        # a read-only C-contiguous float64 array that owns its data, such
        # as an EmbeddingSet's matrix, is held as it is; anything else is copied
        flags = points.flags
        if flags.writeable or not (flags.owndata and flags.c_contiguous):
            points = _frozen_array(points)
        object.__setattr__(self, "points", points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _sq_norms(self) -> np.ndarray:
        """|p|^2 of every stored point, computed on the first query."""
        return np.einsum("ij,ij->i", self.points, self.points)


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
        work = Xc @ scaled.T
        work *= 2.0
        quad -= work
    limit = np.clip(quad, 1.0, np.finfo(float).max, out=work)
    limit *= _GEMM_REL_TOL
    # recompute where the bound fails the test, NaN included, in one mask
    redo = np.less_equal(bound, limit)
    row, comp = np.divmod(np.flatnonzero(np.logical_not(redo, out=redo)), quad.shape[1])
    step = max(1, _BLOCK_ELEMENTS // max(d, 1))
    for s in range(0, row.size, step):
        r, j = row[s : s + step], comp[s : s + step]
        # an explicit sum past the float64 range is inf: density 0
        with np.errstate(over="ignore"):
            quad[r, j] = ((Xc[r] - means[j]) ** 2 / variances[j]).sum(axis=1)
    quad *= -0.5
    quad += -0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)  # (K,)
    return quad


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
    # the row maxima, one column at a time: a maximum is exact in any
    # order, and (n, K) rows of a few components reduce slowly
    m = logp[:, :1].copy()
    for j in range(1, logp.shape[1]):
        np.maximum(m, logp[:, j : j + 1], out=m)
    shifted = logp - m
    total = np.exp(shifted, out=shifted).sum(axis=1, keepdims=True)
    total = np.log(total, out=total)
    total += m
    return total.ravel()


def _kmeanspp_centers(
    X: np.ndarray, k: int, rng: np.random.Generator, sq: np.ndarray
) -> np.ndarray:
    """k initial means drawn k-means++ style from the rows of X; sq, an
    array like X, is overwritten with the squared differences."""
    n = X.shape[0]
    # Differences are scaled by 2^-e, 2^e above X's largest magnitude,
    # before they are squared. That is exact, so the draw probabilities
    # d2 / total are X's, but squares of tiny rows (1e-200) stay above 0.
    e = np.frexp(max(X.max(), -X.min()))[1]

    def sq_dist(center):
        np.subtract(X, center, out=sq)
        np.ldexp(sq, -e, out=sq)
        return np.multiply(sq, sq, out=sq).sum(axis=1)

    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    for j in range(1, k):
        # squared distance to the nearest centre drawn so far
        d2 = sq_dist(centers[0]) if j == 1 else np.minimum(d2, sq_dist(centers[j - 1]))
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
    # rows 0 and 1 differ in nearly every fit, which then skips the full pass
    if np.array_equal(X[0], X[1]) and np.all(X == X[0]):
        raise FitError(
            "component 0 collapsed: all fitting records are identical"
        )
    rng = np.random.default_rng(seed)
    centre = X.mean(axis=0)
    # k-means++ works in the buffer that then holds Xc ** 2
    Xc2 = np.empty_like(X)
    means = _kmeanspp_centers(X, components, rng, Xc2) - centre
    Xc = X - centre
    np.multiply(Xc, Xc, out=Xc2)
    # X.var(axis=0) to the bit: numpy's var takes the same centre and sums
    variances = np.tile(np.maximum(Xc2.sum(axis=0) / n, VARIANCE_FLOOR), (components, 1))
    weights = np.full(components, 1.0 / components)

    ll_trace: list[float] = []
    prev_ll = None
    converged = False
    # max_iters M-steps, and one E-step past the last of them, so the
    # final trace entry scores the parameters returned
    for m_steps in range(max_iters + 1):
        log_joint = _log_gaussian_matrix(Xc, Xc2, means, variances)
        with np.errstate(divide="ignore"):
            log_joint += np.log(weights)
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
        # the responsibilities, in place of log_joint
        log_joint -= log_norm[:, None]
        weights, means, variances = _m_step(Xc, Xc2, np.exp(log_joint, out=log_joint))

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


def _kth_in_rows(row: np.ndarray, values: np.ndarray, n: int, ranks: np.ndarray) -> np.ndarray:
    """Per row i in 0..n-1, the ranks[i]-th smallest (from 0) of its
    values, from (row, value) pairs sorted by row; +inf pads the shorter
    rows of the (n, widest row) table."""
    counts = np.bincount(row, minlength=n)
    first = np.cumsum(counts) - counts
    table = np.full((n, counts.max()), np.inf)
    table[row, np.arange(row.size) - first[row]] = values
    # the distinct ranks, ascending (np.unique would import numpy.ma, 50 ms)
    kth = np.flatnonzero(np.bincount(ranks))
    return np.partition(table, kth, axis=1)[np.arange(n), ranks]


def _block_candidates(block, points, p_sq, k, slack, keep_all, tile):
    """(table, cols) of a query block: per row, the b of the points that
    pass and the points' indices, the table padded with +inf; None if
    they outgrow the bound.

    b = |p|^2 - 2 x.p is the expanded distance less the row's own |x|^2.
    The points are scanned in tiles of `tile`, at least k of them. Pairs
    pass when their b is at most slack above a bound that is never below
    tau, the row's k-th smallest b; a row that keeps all points passes
    them all. With one tile, the bound is tau. With more, it is the k-th
    smallest of the first tile's minima over 4k groups of its points, k
    of which are b of distinct points, and takes no partition of the
    whole tile. Either way the pairs that pass hold every candidate, so
    the k-th smallest b over them is tau. None when a block of more than
    one tile has a row that keeps all points, or one where more than
    _BLOCK_ELEMENTS // len(block) pairs pass.
    """
    n, count = len(block), len(points)
    if tile < count and keep_all.any():
        return None
    neg2 = -2.0 * block
    passed = np.zeros(n, dtype=np.intp)
    found = []
    for c0 in range(0, count, tile):
        b = neg2 @ points[c0 : c0 + tile].T
        b += p_sq[c0 : c0 + tile]
        if c0 == 0:
            first = b
            if tile < count:
                groups = min(4 * k, tile)
                first = b[:, : groups * (tile // groups)].reshape(n, -1, groups).min(axis=1)
            thr = np.partition(first, k - 1, axis=1)[:, k - 1] + slack
        keep = b <= thr[:, None]
        keep[keep_all] = True
        flat = np.flatnonzero(keep)
        row, col = np.divmod(flat, b.shape[1])
        counts = np.bincount(row, minlength=n)
        # each pair's place in its row, after the pairs of earlier tiles
        place = np.arange(flat.size) - (np.cumsum(counts) - counts - passed)[row]
        passed += counts
        if tile < count and passed.max() > _BLOCK_ELEMENTS // n:
            return None
        found.append((row, place, col + c0, b.ravel()[flat]))
    table = np.full((n, passed.max()), np.inf)
    cols = np.empty(table.shape, dtype=np.intp)
    for row, place, col, values in found:
        table[row, place] = values
        cols[row, place] = col
    return table, cols


def _kth_block(block, points, p_sq, k, slack, keep_all, tile) -> np.ndarray:
    """knn_kth_sqdist of one query block, the points in tiles of `tile`.

    Only pairs whose b lies within slack of tau get explicit distances:
    a point more than slack below it lies strictly below the k-th
    explicit distance (see knn_kth_sqdist), so each such point lowers
    its row's rank by one. A block whose candidates outgrow their bound
    (_block_candidates) runs again against all points at once, in as many
    rows as fit.
    """
    found = _block_candidates(block, points, p_sq, k, slack, keep_all, tile)
    if found is None:
        step = max(1, _BLOCK_ELEMENTS // len(points))
        return np.concatenate([
            _kth_block(block[s : s + step], points, p_sq, k, slack[s : s + step],
                       keep_all[s : s + step], len(points))
            for s in range(0, len(block), step)
        ])
    table, cols = found
    n, dim = block.shape
    tau = np.partition(table, k - 1, axis=1)[:, k - 1]
    lo, hi = tau - slack, tau + slack
    lo[keep_all], hi[keep_all] = -np.inf, np.inf
    # a pair is passed over only when it is proven below or above; an
    # overflowing b (nan) never is. The +inf padding lies above hi: a row
    # that keeps all points, the one with an infinite hi, has none.
    below = table < lo[:, None]
    ranks = k - 1 - np.count_nonzero(below, axis=1)
    band = ~(below | (table > hi[:, None]))
    row, place = np.divmod(np.flatnonzero(band), table.shape[1])
    col = cols[row, place]
    exact = np.empty(row.size)
    step = max(1, _BLOCK_ELEMENTS // dim)
    for s in range(0, row.size, step):
        diff = block[row[s : s + step]]
        diff -= points[col[s : s + step]]
        diff *= diff
        exact[s : s + step] = diff.sum(axis=1)
    return _kth_in_rows(row, exact, n, ranks)


def knn_kth_sqdist(index: KnnIndex, X: np.ndarray) -> np.ndarray:
    """Squared distance from each row of X to its k-th nearest stored point.

    The result equals a brute-force scan of explicit differences,
    ``((x - p) ** 2).sum()``, bit for bit. It is found in two stages:

    1. Candidates. GEMMs give the expanded distance |x|^2 + |p|^2 - 2 x.p
       to every stored point. It rounds differently from the explicit
       sum, but by at most a bound E (Higham, Accuracy and Stability of
       Numerical Algorithms, 3.1), so every point within 2E of the k-th
       smallest expanded distance is kept (_block_candidates).
    2. Re-rank. Explicit differences are recomputed for the candidates
       that are not provably nearer than the k-th, and the result is the
       k-th smallest of those, counting the nearer ones (_kth_block).

    Queries run in blocks of up to _TILE_ROWS rows against tiles of the
    points. Every temporary holds at most _BLOCK_ELEMENTS values, beyond
    one row of distances per query, so memory stays bounded whatever the
    index size or the number of ties. Non-finite query rows raise
    ValidationError.
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
    # For a query x and a point p, let f be the explicit distance, b the
    # computed |p|^2 - 2 x.p and a = b + |x|^2, with |x|^2 and the sum
    # exact. Each of a and f is at most gamma_(dim+2) * (|x| + |p|)^2 away
    # from the exact |x - p|^2: |p|^2 and x.p take dim roundings each
    # (scaling x by -2 is exact; where it overflows, so does the bound
    # below) and b one addition; f takes a difference (counted twice, as
    # it is squared), a square and dim - 1 additions.
    # So |a - f| <= E with E = gamma_(2 dim + 4) * (|x| + max|p|)^2, plus
    # one `tiny` per rounding for underflow. `slack` is twice 2E, which
    # also covers the roundings of E itself and of tau -+ slack.
    # Let tau be the k-th smallest b in a row, so tau + |x|^2 is the k-th
    # smallest a, and F the k-th smallest f. As f is within E of a for
    # every point, F is within E of tau + |x|^2. So:
    #   - any point with f <= F has a <= F + E <= tau + |x|^2 + 2E, that
    #     is b <= tau + 2E: it is a candidate, and the k-th smallest f
    #     over the candidates is F itself;
    #   - any point with b < tau - 2E has f <= a + E < tau + |x|^2 - E
    #     <= F: it lies strictly below F, so at most k - 1 do.
    # When 4 (|x| + max|p|)^2 is not finite, the bound can overflow, and
    # the row keeps all points.
    roundings = 2 * dim + 4
    gamma = _gamma(roundings)
    floor = roundings * np.finfo(float).tiny
    # a tile holds at least k points, so its k-th smallest b exists
    rows = max(1, min(len(X), _TILE_ROWS, _BLOCK_ELEMENTS // k))
    tile = max(k, _BLOCK_ELEMENTS // rows)
    if tile >= count:
        tile, rows = count, max(1, _BLOCK_ELEMENTS // count)
    out = np.empty(len(X))
    # overflow in the expanded form is expected: such rows keep all points
    with np.errstate(over="ignore", invalid="ignore"):
        p_sq = index._sq_norms
        p_max = np.sqrt(p_sq.max())
        for start in range(0, len(X), rows):
            block = X[start : start + rows]
            scale = (np.sqrt(np.einsum("ij,ij->i", block, block)) + p_max) ** 2
            slack = 4.0 * (gamma * scale + floor)
            keep_all = ~np.isfinite(4.0 * scale)
            out[start : start + rows] = _kth_block(block, points, p_sq, k, slack, keep_all, tile)
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
