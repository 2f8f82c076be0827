"""GMM fitting, k-NN scoring and model persistence tests."""

import math

import numpy as np
import pytest

from cornercase.density import (
    GmmModel,
    KnnIndex,
    build_knn_index,
    fit_gmm,
    fit_gmm_bic,
    gmm_log_density,
    knn_kth_sqdist,
    persist_model,
    restore_model,
    score_set,
)
from cornercase.embeddings import EmbeddingSet
from cornercase.errors import FitError, FormatError, ValidationError


def _set_from(matrix, prefix="s"):
    matrix = np.asarray(matrix, dtype=float)
    return EmbeddingSet.from_matrix([f"{prefix}{i}" for i in range(len(matrix))], matrix)


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

    def test_all_identical_data(self):
        es = _set_from(np.ones((10, 2)))
        with pytest.raises(FitError, match="collapsed"):
            fit_gmm(es, components=2)

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
