"""GMM fitting, k-NN scoring and model persistence tests."""

import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.density import (
    _BLOCK_ELEMENTS,
    MODEL_MAGIC,
    VARIANCE_FLOOR,
    GmmModel,
    KnnIndex,
    _block_candidates,
    _kmeanspp_centers,
    _log_gaussian_matrix,
    _logsumexp_rows,
    _m_step,
    build_knn_index,
    fit_gmm,
    fit_gmm_bic,
    gmm_log_density,
    knn_kth_sqdist,
    persist_model,
    restore_model,
    score_set,
)
from cornercase.embeddings import EmbeddingSet, save_embeddings
from cornercase.errors import FitError, FormatError, ValidationError


def _set_from(matrix, prefix="s"):
    matrix = np.asarray(matrix, dtype=float)
    return EmbeddingSet([f"{prefix}{i}" for i in range(len(matrix))], matrix)


def _score_one(model, z):
    return float(score_set(model, _set_from([z], prefix="q"))[0])


class TestFitGmm:
    def test_single_gaussian_recovery(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=2.5, scale=1.0, size=(500, 3))
        model = fit_gmm(_set_from(data), components=1, seed=0)
        # closed-form single-component MLE is the sample mean; allow 5 SE
        se = data.std(axis=0, ddof=1) / math.sqrt(len(data))
        assert np.all(np.abs(model.means[0] - data.mean(axis=0)) < 5 * se)

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(1)
        a = rng.normal(loc=(+10.0, +10.0), scale=1.0, size=(250, 2))
        b = rng.normal(loc=(-10.0, -10.0), scale=1.0, size=(250, 2))
        model = fit_gmm(_set_from(np.vstack([a, b])), components=2, seed=0)
        means = model.means[np.argsort(model.means[:, 0])]
        assert np.all(np.abs(means[0] - (-10.0)) < 0.5)
        assert np.all(np.abs(means[1] - (+10.0)) < 0.5)
        assert np.all(np.abs(model.weights - 0.5) < 0.1)

    def test_loglikelihood_nondecreasing(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(120, 4)) + rng.integers(0, 2, size=(120, 1)) * 6.0
        model = fit_gmm(_set_from(data), components=2, seed=3)
        trace = model.log_likelihoods
        assert len(trace) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_final_loglikelihood_scores_returned_model_at_max_iters(self):
        # EM runs out of iterations here; the last trace entry must be
        # the returned parameters' log-likelihood, the value BIC ranks on
        X = np.random.default_rng(0).standard_normal((2000, 16))
        model = fit_gmm(_set_from(X), components=4, seed=0, max_iters=5)
        assert len(model.log_likelihoods) == 6
        assert model.log_likelihoods[-1] == pytest.approx(
            gmm_log_density(model, X).sum(), rel=1e-12
        )
        assert model.log_likelihoods[-1] > model.log_likelihoods[-2]

    def test_converged_flag(self):
        X = np.random.default_rng(0).standard_normal((2000, 16))
        assert not fit_gmm(_set_from(X), components=4, seed=0, max_iters=5).converged
        assert fit_gmm(_set_from(X), components=4, seed=0).converged

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        es = _set_from(rng.normal(size=(80, 5)))
        m1 = fit_gmm(es, components=3, seed=9)
        m2 = fit_gmm(es, components=3, seed=9)
        np.testing.assert_array_equal(m1.means, m2.means)
        np.testing.assert_array_equal(m1.variances, m2.variances)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_too_few_records(self):
        es = _set_from(np.eye(3))
        with pytest.raises(FitError):
            fit_gmm(es, components=4)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_tol_outside_its_range_rejected(self, tol):
        with pytest.raises(FitError, match="tol a finite number > 0"):
            fit_gmm(_set_from(np.eye(3)), components=1, tol=tol)

    @pytest.mark.parametrize("seed", [-2, 2**63, 0.5, False])
    def test_seed_outside_its_range_rejected(self, seed):
        with pytest.raises(FitError, match="seed must be an integer in"):
            fit_gmm(_set_from(np.eye(3)), components=1, seed=seed)

    def test_all_identical_data(self):
        es = _set_from(np.ones((10, 2)))
        with pytest.raises(FitError, match="collapsed"):
            fit_gmm(es, components=2)

    def test_initialization_collapse_names_its_cause(self):
        # 300 rows on 3 points cannot seed 4 centres
        few = np.repeat([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]], 100, axis=0)
        with pytest.raises(FitError, match="fewer than 4 distinct fitting points"):
            fit_gmm(_set_from(few), components=4, seed=0)
        # 60 distinct rows: next to the constant 1e100 column, every
        # difference in the 1e-200 column squares to 0
        rng = np.random.default_rng(7)
        data = np.column_stack([np.full(60, 1e100), 1e-200 * rng.normal(size=60)])
        assert len(np.unique(data, axis=0)) == 60
        with pytest.raises(FitError, match="column scales are too far apart"):
            fit_gmm(_set_from(data), components=2, seed=0)

    def test_variance_floor(self):
        # one dimension is constant; its fitted variance must sit at the floor
        rng = np.random.default_rng(5)
        data = rng.normal(size=(60, 2))
        data[:, 1] = 7.0
        model = fit_gmm(_set_from(data), components=1, seed=0)
        assert model.variances[0, 1] == pytest.approx(1e-6)

    def test_bic_selects_reasonable_size(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(300, 2))
        data[:150] += 12.0
        model = fit_gmm_bic(_set_from(data), candidates=(1, 2, 4, 8), seed=0)
        assert model.components == 2

    def test_bic_skips_candidates_above_distinct_points(self):
        # 300 rows on 3 points: k-means++ cannot place 4 or 8 centres
        data = np.repeat([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]], 100, axis=0)
        model = fit_gmm_bic(_set_from(data), candidates=(1, 2, 4, 8), seed=0)
        assert model.components <= 2
        with pytest.raises(FitError, match="no viable component count"):
            fit_gmm_bic(_set_from(data), candidates=(4, 8), seed=0)
        with pytest.raises(FitError, match="identical"):
            fit_gmm_bic(_set_from(np.ones((10, 2))), seed=0)

    @pytest.mark.parametrize(
        "scales", [(1e-200,), (1.0,), (1e150,), (1e-200, 1e150)],
        ids=["1e-200", "1", "1e150", "mixed"],
    )
    def test_kmeanspp_centers_match_three_temporaries(self, scales):
        # the scaled, squared differences go through one reused buffer;
        # the draws must be the ones the temporaries gave, also where
        # squares of unscaled differences would underflow or overflow,
        # and where rows near 1e-200 share the matrix with rows near 1e150
        scale = np.repeat(scales, 400 // len(scales))[:, None]
        X = scale * np.random.default_rng(8).normal(size=(400, 6))
        X[:, 2:3] += scale * 40.0
        for seed in range(4):
            got = _kmeanspp_centers(X, 5, np.random.default_rng(seed), np.empty_like(X))
            want = kmeanspp_centers_reference(X, 5, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_initial_variances_equal_column_var(self, monkeypatch, offset):
        from cornercase import density

        rng = np.random.default_rng(9)
        X = rng.normal(size=(700, 5)) * [1.0, 1e-4, 3.0, 0.0, 1e3] + offset
        seen = []

        def spy(Xc, Xc2, means, variances):
            seen.append(variances.copy())
            return _log_gaussian_matrix(Xc, Xc2, means, variances)

        monkeypatch.setattr(density, "_log_gaussian_matrix", spy)
        fit_gmm(_set_from(X), components=3, seed=0, max_iters=1)
        want = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (3, 1))
        assert np.array_equal(seen[0], want)


class TestScoreGmm:
    def test_standard_normal_peak(self):
        model = GmmModel(
            weights=[1.0], means=[[0.0]], variances=[[1.0]], trained_on=2, seed=0
        )
        score = _score_one(model, [0.0])
        assert score == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_mean_scores_above_displaced(self):
        rng = np.random.default_rng(7)
        model = fit_gmm(_set_from(rng.normal(size=(200, 4))), components=1, seed=0)
        at_mean = _score_one(model, model.means[0])
        for axis in range(4):
            off = model.means[0].copy()
            off[axis] += 3.0 * math.sqrt(model.variances[0, axis])
            assert at_mean > _score_one(model, off)

    def test_matches_naive_summation_oracle(self):
        rng = np.random.default_rng(8)
        k, dim = 4, 6
        w = rng.uniform(0.5, 1.5, size=k)
        w /= w.sum()
        means = rng.normal(size=(k, dim))
        variances = rng.uniform(0.2, 2.0, size=(k, dim))
        model = GmmModel(weights=w, means=means, variances=variances, trained_on=10, seed=0)
        for _ in range(25):
            z = rng.normal(size=dim)
            # direct per-component density summation, no log-sum-exp
            total = 0.0
            for j in range(k):
                quad = np.sum((z - means[j]) ** 2 / variances[j])
                norm = np.prod(1.0 / np.sqrt(2 * math.pi * variances[j]))
                total += w[j] * norm * math.exp(-0.5 * quad)
            got = _score_one(model, z)
            assert got == pytest.approx(math.log(total), rel=1e-9)

    def test_dim_mismatch(self):
        model = GmmModel(
            weights=[1.0], means=[[0.0, 0.0]], variances=[[1.0, 1.0]], trained_on=2, seed=0
        )
        with pytest.raises(ValidationError):
            _score_one(model, [0.0])

    @staticmethod
    def _tight_pair(first, second, dim=128):
        """Two components at the variance floor, means inside the envelope."""
        return GmmModel(
            weights=[0.5, 0.5],
            means=np.vstack([np.full(dim, first), np.full(dim, second)]),
            variances=np.full((2, dim), VARIANCE_FLOOR),
            trained_on=2,
            seed=0,
        )

    # (first mean, second mean, query, the mean whose component scores it):
    # the expanded quadratic terms overflow for each query, while the
    # explicit one is finite for one component and overflows (density 0)
    # for the other. In the second case the scored component's own
    # expanded term reads inf with an inf rounding bound.
    @pytest.mark.parametrize(
        "first, second, query, scored",
        [(0.99e150, 0.0, -0.99e150, 0.0), (0.245e150, -0.845e150, 0.918e150, 0.245e150)],
        ids=["other-overflows", "own-expanded-overflows"],
    )
    def test_far_query_scores_explicit_differences(self, first, second, query, scored):
        quad = 128 * (query - scored) ** 2 / VARIANCE_FLOOR
        expected = math.log(0.5) - 64 * math.log(2 * math.pi * VARIANCE_FLOOR) - 0.5 * quad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gmm_log_density(self._tight_pair(first, second), np.full((1, 128), query))
        assert got[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bad_row", [-0.99e150, np.nan], ids=["too-far", "nan"])
    def test_unscorable_row_named(self, bad_row):
        model = self._tight_pair(0.99e150, 0.98e150)
        queries = np.vstack([np.zeros(128), np.full(128, bad_row), np.zeros(128)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="query row 1: log density is not finite"):
                gmm_log_density(model, queries)


def log_gaussian_matrix_loop_reference(X, means, variances):
    """The per-component loop the GEMM E-step replaced, kept as its reference."""
    const = -0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)  # (K,)
    # (n, K) quadratic terms
    quad = np.empty((X.shape[0], means.shape[0]))
    for j in range(means.shape[0]):
        quad[:, j] = ((X - means[j]) ** 2 / variances[j]).sum(axis=1)
    return const[None, :] - 0.5 * quad


def variances_two_pass_reference(X, resp, means, mass):
    """The two-pass M-step variance loop the GEMM form replaced."""
    variances = np.empty_like(means)
    for j in range(means.shape[0]):
        diff2 = (X - means[j]) ** 2
        variances[j] = np.maximum((resp[:, j] @ diff2) / mass[j], VARIANCE_FLOOR)
    return variances


def kmeanspp_centers_reference(X, k, rng):
    """k-means++ with three full-size temporaries per centre, as
    _kmeanspp_centers drew before it reused one buffer."""
    n = X.shape[0]
    e = np.frexp(max(X.max(), -X.min()))[1]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = (np.ldexp(X - centers[0], -e) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = X[rng.choice(n, p=d2 / d2.sum())]
        d2 = np.minimum(d2, (np.ldexp(X - centers[j], -e) ** 2).sum(axis=1))
    return centers


def fit_gmm_loop_reference(X, components, seed, max_iters=200, tol=1e-6):
    """EM with the per-component loops, as fit_gmm ran it before the GEMM
    rewrite, but on rows centred on their mean: uncentred, the loops' own
    rounding at a 1e6 offset moves the fitted weights by 1e-9 (against
    8.6e-13 for the centred loops and for fit_gmm, both measured against
    the uncentred loops in extended precision)."""
    n = X.shape[0]
    centre = X.mean(axis=0)
    means = _kmeanspp_centers(X, components, np.random.default_rng(seed), np.empty_like(X)) - centre
    variances = np.tile(np.maximum(X.var(axis=0), VARIANCE_FLOOR), (components, 1))
    X = X - centre
    weights = np.full(components, 1.0 / components)
    trace = []
    for m_steps in range(max_iters + 1):
        log_joint = np.log(weights)[None, :] + log_gaussian_matrix_loop_reference(
            X, means, variances
        )
        log_norm = _logsumexp_rows(log_joint)
        trace.append(float(log_norm.sum()))
        if m_steps == max_iters or (
            len(trace) > 1 and trace[-1] - trace[-2] < tol * max(abs(trace[-2]), 1e-12)
        ):
            break
        resp = np.exp(log_joint - log_norm[:, None])
        mass = resp.sum(axis=0)
        weights = mass / n
        means = (resp.T @ X) / mass[:, None]
        variances = variances_two_pass_reference(X, resp, means, mass)
    return weights, means + centre, variances, trace


def _gmm_draw(kind):
    """Data, a mixture state and responsibilities for one draw."""
    rng = np.random.default_rng(16)
    if kind == "perfbench":
        X = rng.standard_normal((8000, 128))
        means = rng.normal(scale=0.1, size=(4, 128))
        variances = rng.uniform(0.8, 1.2, size=(4, 128))
    elif kind == "offset":
        X = rng.standard_normal((2000, 16)) + 1e6
        means = 1e6 + rng.normal(scale=0.5, size=(3, 16))
        variances = rng.uniform(0.5, 2.0, size=(3, 16))
    elif kind == "criterion3":
        # means 12, 24, 36 and 48 units out, as in criterion 3
        centres = rng.normal(size=(4, 16))
        centres *= 12.0 * np.arange(1, 5)[:, None] / np.linalg.norm(centres, axis=1)[:, None]
        X = np.vstack([rng.normal(loc=c, size=(150, 16)) for c in centres])
        means = centres + rng.normal(scale=0.2, size=centres.shape)
        variances = rng.uniform(0.7, 1.4, size=(4, 16))
    elif kind == "tight":
        # two clusters at +-1000 with sd 0.01: the expanded forms cancel
        signs = np.where(np.arange(2000) < 1000, 1.0, -1.0)[:, None]
        X = 1000.0 * signs + 0.01 * rng.standard_normal((2000, 4))
        means = np.array([[1000.0] * 4, [-1000.0] * 4]) + 1e-3 * rng.standard_normal((2, 4))
        variances = np.full((2, 4), 1e-4)
    else:  # a constant column whose variance sits at the floor
        X = rng.standard_normal((1000, 6))
        X[:, 2] = 7.3
        means = rng.normal(scale=0.3, size=(2, 6))
        means[:, 2] = 7.3
        variances = rng.uniform(0.8, 1.2, size=(2, 6))
        variances[:, 2] = VARIANCE_FLOOR
    k = means.shape[0]
    weights = np.full(k, 1.0 / k)
    log_joint = np.log(weights) + log_gaussian_matrix_loop_reference(X, means, variances)
    resp = np.exp(log_joint - _logsumexp_rows(log_joint)[:, None])
    return X, GmmModel(weights, means, variances, trained_on=len(X), seed=0), resp


GMM_DRAWS = ("perfbench", "offset", "criterion3", "tight", "floor")


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 1e-9, f"largest relative difference {err.max():.3g}"


class TestGmmGemmReference:
    """The GEMM E-step and M-step against the loops they replaced, to
    1e-9 * max(1, |value|) (the rounding bound each path enforces), and
    the scorer, which sums explicit differences, bit for bit."""

    @pytest.mark.parametrize("kind", GMM_DRAWS)
    def test_e_step_and_scores(self, kind):
        X, model, _ = _gmm_draw(kind)
        want = log_gaussian_matrix_loop_reference(X, model.means, model.variances)
        centre = model.weights @ model.means
        Xc = X - centre
        _assert_close(
            _log_gaussian_matrix(Xc, Xc * Xc, model.means - centre, model.variances), want
        )
        # the perfbench draw's 8000 rows of 128 span four row blocks
        got = gmm_log_density(model, X)
        assert got.tobytes() == _logsumexp_rows(np.log(model.weights) + want).tobytes()

    @pytest.mark.parametrize("kind", GMM_DRAWS)
    def test_m_step(self, kind):
        X, _, resp = _gmm_draw(kind)
        mass = resp.sum(axis=0)
        means = (resp.T @ X) / mass[:, None]
        centre = X.mean(axis=0)
        Xc = X - centre
        weights, got_means, variances = _m_step(Xc, Xc * Xc, resp)
        _assert_close(weights, mass / len(X))
        _assert_close(got_means + centre, means)
        _assert_close(variances, variances_two_pass_reference(X, resp, means, mass))

    @pytest.mark.parametrize("kind", GMM_DRAWS)
    def test_fit(self, kind):
        X, model, _ = _gmm_draw(kind)
        if kind == "perfbench":
            X = X[:2000, :32]
        weights, means, variances, trace = fit_gmm_loop_reference(X, model.components, seed=1)
        got = fit_gmm(_set_from(X), components=model.components, seed=1)
        assert len(got.log_likelihoods) == len(trace)
        _assert_close(got.log_likelihoods, trace)
        _assert_close(got.weights, weights)
        _assert_close(got.means, means)
        _assert_close(got.variances, variances)


# OpenBLAS kernels for three CPU generations; SkylakeX needs AVX-512.
# Another BLAS ignores the variable, and the scores match trivially.
def _core_types():
    try:
        flags = Path("/proc/cpuinfo").read_text()
    except OSError:
        flags = ""
    return ("Haswell", "Sandybridge", "SkylakeX") if " avx512f" in flags else (
        "Haswell", "Sandybridge")


def _score_files_under_core_types(tmp_path, model, queries):
    """The bytes of `cornercase score` of the queries file against the
    model file, in a fresh process under each core type."""
    import cornercase

    src = str(Path(cornercase.__file__).resolve().parents[1])
    outputs = []
    for core in _core_types():
        env = dict(os.environ, OPENBLAS_CORETYPE=core)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"{core}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "cornercase", "score", "--model", str(model),
             "--embeddings", str(queries), "--label", "id", "--out", str(out)],
            check=True, env=env, capture_output=True,
        )
        outputs.append(out.read_bytes())
    return outputs


def test_scores_of_a_model_equal_under_every_blas_core_type(tmp_path):
    # A GEMM-scored model's score files differed from the 50th character
    # on between these core types, since each kernel sums in its own order.
    rng = np.random.default_rng(17)
    model = GmmModel(
        weights=rng.dirichlet(np.ones(4)),
        means=rng.normal(scale=0.5, size=(4, 128)),
        variances=rng.uniform(0.5, 2.0, size=(4, 128)),
        trained_on=8000,
        seed=0,
    )
    persist_model(model, tmp_path / "gmm.ccmdl")
    save_embeddings(_set_from(rng.standard_normal((500, 128)), "q"), tmp_path / "q.ccemb")
    outputs = _score_files_under_core_types(tmp_path, tmp_path / "gmm.ccmdl", tmp_path / "q.ccemb")
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("count", [5000, 1000])
def test_knn_scores_equal_under_every_blas_core_type(tmp_path, count):
    # Each kernel sums the candidate GEMMs in its own order, so the
    # candidates differ while the k-th explicit distance must not. 5000
    # points span three tiles of 2048 for a block of 128 queries; 1000
    # points are one tile.
    from cornercase.cli import main

    rng = np.random.default_rng(18)
    save_embeddings(_set_from(rng.standard_normal((count, 32))), tmp_path / "train.ccemb")
    save_embeddings(_set_from(rng.standard_normal((500, 32)) + 0.2, "q"), tmp_path / "q.ccemb")
    assert main(["fit-knn", "--embeddings", str(tmp_path / "train.ccemb"), "--k", "50",
                 "--out", str(tmp_path / "knn.ccmdl")]) == 0
    outputs = _score_files_under_core_types(tmp_path, tmp_path / "knn.ccmdl", tmp_path / "q.ccemb")
    assert all(out == outputs[0] for out in outputs[1:])


class TestKnn:
    def test_boundary_k_equals_count(self):
        rng = np.random.default_rng(9)
        es = _set_from(rng.normal(size=(50, 3)))
        index = build_knn_index(es, k=50)
        # k-th neighbor of any stored point is the farthest stored point
        pts = es.matrix()
        for i in (0, 17, 49):
            d2 = ((pts - pts[i]) ** 2).sum(axis=1)
            expected = -float(np.sort(d2)[-1])
            assert _score_one(index, pts[i]) == expected

    def test_k_zero_rejected(self):
        es = _set_from(np.eye(2))
        with pytest.raises(ValidationError):
            build_knn_index(es, k=0)

    def test_k_exceeds_count(self):
        es = _set_from(np.eye(2))
        with pytest.raises(ValidationError):
            build_knn_index(es, k=3)

    def test_analytic_1d(self):
        es = _set_from(np.array([[0.0], [2.0]]))
        index = build_knn_index(es, k=1)
        assert _score_one(index, [0.5]) == pytest.approx(-0.25)

    def test_self_match_scores_zero(self):
        es = _set_from(np.array([[1.0, 1.0], [3.0, 3.0]]))
        index = build_knn_index(es, k=1)
        assert _score_one(index, [1.0, 1.0]) == 0.0

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(300, 5))
        index = build_knn_index(_set_from(pts), k=50)
        queries = rng.normal(size=(40, 5))
        got = knn_kth_sqdist(index, queries)
        for qi, q in enumerate(queries):
            d2 = np.sort(((pts - q) ** 2).sum(axis=1))
            assert got[qi] == d2[49]


def _brute_kth(pts, queries, k):
    return np.array([np.sort(((pts - q) ** 2).sum(axis=1))[k - 1] for q in queries])


class TestKnnTwoStage:
    """The GEMM candidate stage must never change the k-th distance."""

    def _check(self, pts, queries, k):
        got = knn_kth_sqdist(KnnIndex(k=k, points=pts), queries)
        assert np.array_equal(got, _brute_kth(pts, queries, k))

    @pytest.mark.parametrize("spread", [1.0, 0.05])
    def test_large_common_offset(self, spread):
        # |x|^2 + |p|^2 - 2 x.p cancels ~1e13 down to the distances, so its
        # rounding error (~1e-2) exceeds the gaps between neighbors when
        # the cloud is narrow
        rng = np.random.default_rng(20)
        pts = spread * rng.normal(size=(500, 8)) + 1e6
        self._check(pts, spread * rng.normal(size=(30, 8)) + 1e6, k=10)

    def test_duplicates_tie_at_kth(self):
        rng = np.random.default_rng(21)
        pts = np.repeat(rng.normal(size=(40, 8)), 5, axis=0)
        for k in (1, 3, 5, 6, 12):
            self._check(pts, rng.normal(size=(10, 8)), k)

    def test_k_equals_count(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(70, 16)) * 1e3
        self._check(pts, rng.normal(size=(9, 16)), k=70)

    def test_all_points_identical(self):
        rng = np.random.default_rng(23)
        pts = np.tile(rng.normal(size=(1, 24)), (300, 1))
        self._check(pts, rng.normal(size=(7, 24)), k=50)
        self._check(pts, pts[:2], k=300)

    def test_queries_equal_stored_points(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(200, 12)) + 50.0
        self._check(pts, pts[::17], k=1)
        self._check(pts, pts[::17], k=4)

    def test_query_count_straddles_block(self):
        rng = np.random.default_rng(25)
        pts = rng.normal(size=(3000, 6))
        rows = _BLOCK_ELEMENTS // len(pts)
        self._check(pts, rng.normal(size=(2 * rows + 1, 6)), k=7)

    def test_overflowing_norms_fall_back_to_all_points(self):
        # |p|^2 overflows to inf, so the expanded form is nan, while the
        # explicit differences (~1e150) square to finite values
        rng = np.random.default_rng(27)
        pts = 1e150 * rng.normal(size=(60, 4)) + 1e154
        self._check(pts, 1e150 * rng.normal(size=(5, 4)) + 1e154, k=3)

    def test_expanded_distance_overflowing_under_a_finite_scale(self):
        # (|x| + max|p|)^2 is finite and 4 times it is not. The expanded b
        # of the first point rounds past the float maximum and the
        # second's reads it, while their explicit distances are the float
        # maximum and inf: with a finite slack, tau is inf and the second
        # point reads as proven below the k-th.
        pts = np.array([
            [-3.529351559548133e153, -9.300613612369264e153, 8.98952598798768e153],
            [-3.518985663709336e153, -9.304693255549856e153, 8.989367986956165e153],
        ])
        query = np.array([[5.135146501858793e140, 1.3563724068945132e141, -1.310994675556032e141]])
        with np.errstate(over="ignore"):
            self._check(pts, query, k=2)
        assert knn_kth_sqdist(KnnIndex(k=2, points=pts), query)[0] == np.inf

    @pytest.mark.parametrize("rows", [1, 128])
    def test_k_minus_one_proven_below_and_ties_at_kth(self, monkeypatch, rows):
        # each query has k - 1 stored copies of itself, proven below the
        # k-th, and 2 dim points at exactly 3 on its axes, which tie at it.
        # 128 queries take 128-row blocks over several tiles; one-row
        # blocks take one tile of all points.
        monkeypatch.setattr("cornercase.density._TILE_ROWS", rows)
        rng = np.random.default_rng(29)
        k, dim = 10, 8
        queries = rng.integers(-50, 51, size=(128, dim)).astype(float)
        axes = np.vstack([3.0 * np.eye(dim), -3.0 * np.eye(dim)])
        spread = 30.0 * rng.normal(size=(3000, dim))
        nearest = ((spread[:, None] - queries) ** 2).sum(axis=2).min(axis=1)
        pts = np.vstack([
            np.repeat(queries, k - 1, axis=0),
            (queries[:, None] + axes).reshape(-1, dim),
            spread[nearest > 16.0],
        ])
        got = knn_kth_sqdist(KnnIndex(k=k, points=pts), queries)
        assert np.array_equal(got, _brute_kth(pts, queries, k))
        assert (got == 9.0).all()

    def test_nan_query_rejected(self):
        index = KnnIndex(k=1, points=np.eye(3))
        queries = np.zeros((4, 3))
        queries[2, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            knn_kth_sqdist(index, queries)

    @pytest.mark.parametrize("kind", ["gaussian", "identical"])
    def test_memory_bounded(self, kind):
        # numpy reports its buffers to tracemalloc; a full (count, dim)
        # temporary here would be 41 MB
        rng = np.random.default_rng(26)
        pts = rng.normal(size=(20000, 256))
        if kind == "identical":
            pts[:] = pts[0]
        index = KnnIndex(k=50, points=pts)
        queries = rng.normal(size=(8, 256))
        tracemalloc.start()
        try:
            got = knn_kth_sqdist(index, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
        assert np.array_equal(got, _brute_kth(pts, queries, 50))

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_tiled_queries_match_brute_force(self, data):
        # small blocks put a few dozen points through every path: tiles
        # bounded by group minima, tiles whose ties overflow and fall back,
        # one tile of all points, and rows with no explicit distance to
        # spare below the k-th; integer points make duplicates and ties
        count = data.draw(st.integers(1, 60), label="count")
        dim = data.draw(st.integers(1, 5), label="dim")
        k = data.draw(st.sampled_from([1, count, data.draw(st.integers(1, count))]), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        if data.draw(st.booleans(), label="integer grid"):
            pts = rng.integers(-2, 3, size=(count, dim)).astype(float)
            queries = rng.integers(-2, 3, size=(data.draw(st.integers(1, 12)), dim)).astype(float)
        else:
            pts = np.repeat(rng.normal(size=(count, dim)), rng.integers(1, 4, size=count), axis=0)
            queries = np.vstack([pts[:3], rng.normal(size=(5, dim))])
        block = data.draw(st.sampled_from([8, 32, 128, 1 << 18]), label="block elements")
        rows = data.draw(st.sampled_from([1, 3, 8, 128]), label="tile rows")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cornercase.density._BLOCK_ELEMENTS", block)
            mp.setattr("cornercase.density._TILE_ROWS", rows)
            self._check(pts, queries, k)

    def test_tiles_fall_back_when_ties_overflow(self, monkeypatch):
        from cornercase import density

        monkeypatch.setattr(density, "_BLOCK_ELEMENTS", 2048)
        monkeypatch.setattr(density, "_TILE_ROWS", 8)
        found, tiles = [], set()

        def spy(block, points, *args):
            result = _block_candidates(block, points, *args)
            found.append(result is not None)
            tiles.add(args[-1])
            return result

        monkeypatch.setattr(density, "_block_candidates", spy)
        rng = np.random.default_rng(28)
        # 256-point tiles, at most 256 passing pairs a row: about 14 of 600
        # distinct points pass the bound from the first tile, while 300
        # copies of the nearer of two points all tie at it
        self._check(rng.normal(size=(600, 3)), rng.normal(size=(16, 3)), k=5)
        assert found == [True, True]
        found.clear()
        self._check(np.repeat(rng.normal(size=(2, 3)), 300, axis=0), rng.normal(size=(8, 3)), k=5)
        assert found[0] is False and found[1:] and all(found[1:])
        found.clear()
        # a query near 1e154: its distances stay finite, but the bound
        # 4 (|x| + max|p|)^2 overflows, so the row keeps all 600 points,
        # more than a tile holds
        queries = rng.normal(size=(8, 3))
        queries[3, 0] = 1e154
        self._check(rng.normal(size=(600, 3)), queries, k=5)
        assert found[0] is False and found[1:] and all(found[1:])
        # the fallback reruns its rows over the query's own tiles
        assert tiles == {256}


class TestInvariants:
    def test_translation_consistency(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(150, 3))
        shift = np.array([5.0, -3.0, 11.0])
        q = rng.normal(size=3)
        m1 = fit_gmm(_set_from(data), components=2, seed=1)
        m2 = fit_gmm(_set_from(data + shift), components=2, seed=1)
        s1 = _score_one(m1, q)
        s2 = _score_one(m2, q + shift)
        assert s1 == pytest.approx(s2, abs=1e-9)
        i1 = build_knn_index(_set_from(data), k=10)
        i2 = build_knn_index(_set_from(data + shift), k=10)
        k1 = _score_one(i1, q)
        k2 = _score_one(i2, q + shift)
        assert k1 == pytest.approx(k2, abs=1e-9)

    def test_scores_fall_along_ray(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(200, 3))
        model = fit_gmm(_set_from(data), components=2, seed=0)
        index = build_knn_index(_set_from(data), k=20)
        direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        radii = [4.0, 6.0, 9.0, 14.0, 22.0]
        gmm_scores = [
            _score_one(model, r * direction)
            for r in radii
        ]
        knn_scores = [
            _score_one(index, r * direction)
            for r in radii
        ]
        assert all(b < a for a, b in zip(gmm_scores, gmm_scores[1:]))
        assert all(b < a for a, b in zip(knn_scores, knn_scores[1:]))

    def test_orientation_contract_statistical(self):
        # ID probes outrank 5-sigma displaced probes in >= 99% of trials
        rng = np.random.default_rng(13)
        data = rng.normal(size=(300, 4))
        es = _set_from(data)
        model = fit_gmm(es, components=2, seed=0)
        index = build_knn_index(es, k=20)
        trials, ok_gmm, ok_knn = 300, 0, 0
        for _ in range(trials):
            zid = rng.normal(size=4)
            direction = rng.normal(size=4)
            direction /= np.linalg.norm(direction)
            zood = zid + 5.0 * direction * math.sqrt(4)  # 5 sigma in norm terms
            g_id = gmm_log_density(model, zid[None])[0]
            g_ood = gmm_log_density(model, zood[None])[0]
            k_id = -knn_kth_sqdist(index, zid[None])[0]
            k_ood = -knn_kth_sqdist(index, zood[None])[0]
            ok_gmm += g_id > g_ood
            ok_knn += k_id > k_ood
        assert ok_gmm >= 0.99 * trials
        assert ok_knn >= 0.99 * trials


class TestPersistence:
    def test_gmm_round_trip_scores(self, tmp_path):
        rng = np.random.default_rng(14)
        model = fit_gmm(_set_from(rng.normal(size=(100, 4))), components=2, seed=0)
        path = tmp_path / "m.ccmdl"
        persist_model(model, path)
        again = restore_model(path)
        probes = rng.normal(size=(100, 4))
        np.testing.assert_array_equal(
            gmm_log_density(model, probes), gmm_log_density(again, probes)
        )

    def test_knn_round_trip_answers(self, tmp_path):
        rng = np.random.default_rng(15)
        index = build_knn_index(_set_from(rng.normal(size=(60, 3))), k=7)
        path = tmp_path / "k.ccmdl"
        persist_model(index, path)
        again = restore_model(path)
        assert isinstance(again, KnnIndex)
        probes = rng.normal(size=(30, 3))
        np.testing.assert_array_equal(
            knn_kth_sqdist(index, probes), knn_kth_sqdist(again, probes)
        )

    def test_corrupted_magic(self, tmp_path):
        rng = np.random.default_rng(16)
        index = build_knn_index(_set_from(rng.normal(size=(10, 2))), k=2)
        path = tmp_path / "k.ccmdl"
        persist_model(index, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            restore_model(path)

    def test_version_mismatch_names_both(self, tmp_path):
        rng = np.random.default_rng(17)
        index = build_knn_index(_set_from(rng.normal(size=(10, 2))), k=2)
        path = tmp_path / "k.ccmdl"
        persist_model(index, path)
        blob = bytearray(path.read_bytes())
        blob[6] = 3  # u16 version low byte
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version 3.*version 1"):
            restore_model(path)

    # payload offsets: knn point 2 of a 5x2 index; gmm weight 0, mean 0
    # and variance 0 of a 2-component dim-2 mixture
    @pytest.mark.parametrize(
        "kind, offset", [("knn", 25 + 8 * 4), ("gmm", 33), ("gmm", 49), ("gmm", 81)]
    )
    def test_non_finite_parameters_rejected(self, tmp_path, kind, offset):
        if kind == "knn":
            model = build_knn_index(_set_from([[i, 0.0] for i in range(5)]), k=2)
        else:
            rng = np.random.default_rng(18)
            model = fit_gmm(_set_from(rng.normal(size=(40, 2))), components=2, seed=0)
        path = tmp_path / "m.ccmdl"
        persist_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 8] = struct.pack("<d", math.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match="finite"):
            restore_model(path)


    def test_dimension_zero_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="dimension"):
            GmmModel(weights=[1.0], means=np.zeros((1, 0)), variances=np.ones((1, 0)),
                     trained_on=5, seed=0)
        with pytest.raises(ValidationError):
            KnnIndex(k=1, points=np.zeros((5, 0)))
        # a knn header of dim 0 and count 5 implies an empty payload
        path = tmp_path / "k.ccmdl"
        path.write_bytes(MODEL_MAGIC + struct.pack("<HBIIQ", 1, 1, 0, 1, 5))
        with pytest.raises(ValidationError):
            restore_model(path)


class TestScoreSet:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(18)
        train = _set_from(rng.normal(size=(80, 3)))
        queries = _set_from(rng.normal(size=(20, 3)), prefix="q")
        model = fit_gmm(train, components=2, seed=0)
        batch = score_set(model, queries)
        assert batch.shape == (len(queries),)
        for score, q in zip(batch, queries.matrix()):
            assert score == pytest.approx(_score_one(model, q), rel=1e-12)
