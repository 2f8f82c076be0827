"""Dirichlet machinery and mean-uncertainty aggregation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.embeddings import FeatureMap, save_feature_map
from cornercase.errors import FormatError, ValidationError
from cornercase.images import write_png
from cornercase.uncertainty import (
    DirichletParams,
    UncertaintyMap,
    dirichlet_pdf,
    dirichlet_pdf_batch,
    dirichlet_uncertainty,
    load_uncertainty_map,
    mean_uncertainty,
)


class TestDirichletPdf:
    def test_uniform_dirichlet_is_one(self):
        params = DirichletParams(kappa=[1.0, 1.0])
        for p in ([0.5, 0.5], [0.1, 0.9], [1.0, 0.0]):
            assert dirichlet_pdf(params, p) == pytest.approx(1.0)

    def test_beta_2_1_closed_form(self):
        # Beta(2, 1) density is 2*p1; at p1 = 0.5 that is 1.0
        params = DirichletParams(kappa=[2.0, 1.0])
        assert dirichlet_pdf(params, [0.5, 0.5]) == pytest.approx(1.0)

    def test_matches_gamma_oracle(self):
        params = DirichletParams(kappa=[3.0, 2.0, 4.0])
        p = np.array([0.2, 0.3, 0.5])
        # independent evaluation straight from the gamma-function form
        kappa = np.array([3.0, 2.0, 4.0])
        oracle = (
            math.gamma(kappa.sum())
            / np.prod([math.gamma(k) for k in kappa])
            * np.prod(p ** (kappa - 1.0))
        )
        assert dirichlet_pdf(params, p) == pytest.approx(oracle, rel=1e-9)

    def test_boundary_kappa_below_one(self):
        params = DirichletParams(kappa=[0.5, 2.0])
        assert dirichlet_pdf(params, [0.0, 1.0]) == math.inf

    def test_boundary_kappa_above_one(self):
        params = DirichletParams(kappa=[2.0, 2.0])
        assert dirichlet_pdf(params, [0.0, 1.0]) == 0.0

    def test_off_simplex_rejected(self):
        params = DirichletParams(kappa=[1.0, 1.0])
        with pytest.raises(ValidationError):
            dirichlet_pdf(params, [0.6, 0.6])
        with pytest.raises(ValidationError):
            dirichlet_pdf(params, [-0.1, 1.1])

    @pytest.mark.parametrize(
        "row", [[0.9, 0.9], [-0.1, 1.1], [math.nan, 1.0], [0.0, math.inf], [0.5, 0.5 + 1e-8]]
    )
    def test_batch_rejects_rows_off_simplex(self, row):
        params = DirichletParams(kappa=[2.0, 3.0])
        with pytest.raises(ValidationError, match="row 1|finite"):
            dirichlet_pdf_batch(params, np.array([[0.25, 0.75], row]))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        params = DirichletParams(kappa=[1.5, 0.8, 3.0])
        P = rng.dirichlet([1.0, 1.0, 1.0], size=50)
        batch = dirichlet_pdf_batch(params, P)
        for row, expected in zip(P, batch):
            assert dirichlet_pdf(params, row) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_normalization(self):
        # moderate n here; the acceptance suite runs the 10^6-sample check
        rng = np.random.default_rng(1)
        for kappa in ([2.0, 3.0], [1.5, 2.5, 4.0], [2.0, 1.0, 3.0, 0.7]):
            k = len(kappa)
            P = rng.dirichlet(np.ones(k), size=200_000)
            estimate = dirichlet_pdf_batch(DirichletParams(kappa=kappa), P).mean()
            estimate /= math.factorial(k - 1)  # uniform simplex density
            assert estimate == pytest.approx(1.0, abs=0.03)


class TestDirichletUncertainty:
    def test_unit_evidence(self):
        assert dirichlet_uncertainty(DirichletParams(kappa=[1.0, 1.0, 1.0])) == 1.0

    def test_concentrated(self):
        assert dirichlet_uncertainty(DirichletParams(kappa=[10.0, 10.0, 10.0])) == pytest.approx(0.1)

    def test_two_class(self):
        assert dirichlet_uncertainty(DirichletParams(kappa=[3.0, 1.0])) == pytest.approx(0.5)

    def test_scale_inverse_exact_for_binary_scales(self):
        params = DirichletParams(kappa=[0.7, 2.3, 5.1])
        u = dirichlet_uncertainty(params)
        for exp in (-3, -1, 1, 4):
            c = 2.0**exp
            scaled = DirichletParams(kappa=c * params.kappa)
            assert dirichlet_uncertainty(scaled) == u / c

    @given(c=st.floats(0.01, 100.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_scale_inverse_property(self, c, seed):
        rng = np.random.default_rng(seed)
        kappa = rng.uniform(0.1, 10.0, size=rng.integers(2, 6))
        u = dirichlet_uncertainty(DirichletParams(kappa=kappa))
        u_scaled = dirichlet_uncertainty(DirichletParams(kappa=c * kappa))
        assert u_scaled == pytest.approx(u / c, rel=1e-12)

    def test_kappa_validation(self):
        with pytest.raises(ValidationError):
            DirichletParams(kappa=[1.0])
        with pytest.raises(ValidationError):
            DirichletParams(kappa=[1.0, 0.0])


class TestMeanUncertainty:
    def test_constant_map(self):
        score = mean_uncertainty(UncertaintyMap(values=np.full((4, 4), 0.3)))
        assert score == pytest.approx(-0.3)

    def test_checkerboard(self):
        umap = UncertaintyMap(values=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert mean_uncertainty(umap) == pytest.approx(-0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(size=(64, 64))
        total = 0.0
        for i in range(64):
            for j in range(64):
                total += values[i, j]
        oracle = total / (64 * 64)
        assert mean_uncertainty(UncertaintyMap(values=values)) == pytest.approx(
            -oracle, abs=1e-12
        )

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pixel_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(size=(5, 6))
        perm = rng.permutation(30)
        shuffled = values.ravel()[perm].reshape(5, 6)
        assert mean_uncertainty(UncertaintyMap(values=values)) == pytest.approx(
            mean_uncertainty(UncertaintyMap(values=shuffled)), abs=1e-15
        )

    def test_tiling_weighted_average(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=(12, 9))
        whole = -mean_uncertainty(UncertaintyMap(values=values))
        tiles = [values[:5, :], values[5:, :4], values[5:, 4:]]
        weighted = sum(t.size * t.mean() for t in tiles) / values.size
        assert whole == pytest.approx(weighted, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            UncertaintyMap(values=np.full((2, 2), 1.5))


class TestMapLoading:
    def test_png16_normalization(self, tmp_path):
        arr = np.array([[0, 32768], [65535, 16384]], dtype=np.uint16)
        path = tmp_path / "u.png"
        write_png(path, arr)
        umap = load_uncertainty_map(path)
        np.testing.assert_allclose(umap.values, arr.astype(float) / 65535.0)

    def test_tensor_container_single_channel(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.uniform(size=(6, 7)).astype(np.float32).astype(float)
        path = tmp_path / "u.ccfm"
        save_feature_map(FeatureMap(data=values[None, :, :]), path)
        umap = load_uncertainty_map(path)
        np.testing.assert_array_equal(umap.values, values)

    def test_multichannel_tensor_rejected(self, tmp_path):
        path = tmp_path / "u.ccfm"
        save_feature_map(FeatureMap(data=np.zeros((2, 3, 3))), path)
        with pytest.raises(FormatError):
            load_uncertainty_map(path)

    def test_8bit_png_rejected(self, tmp_path):
        path = tmp_path / "u.png"
        write_png(path, np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(FormatError):
            load_uncertainty_map(path)
