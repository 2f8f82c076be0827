"""Embedding containers, pooling, file formats and the toy encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.corruptions import apply_fog
from cornercase.embeddings import (
    DatasetManifest,
    EmbeddingSet,
    FeatureMap,
    load_embeddings,
    load_feature_map,
    pool_spatial_mean,
    save_embeddings,
    save_feature_map,
    toy_encode,
)
from cornercase.errors import FormatError, ValidationError
from cornercase.images import ImageBuffer


class TestPoolSpatialMean:
    def test_two_channel_example(self):
        fm = FeatureMap(np.array([[[4.0, 4.0], [4.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]]))
        np.testing.assert_allclose(pool_spatial_mean(fm), [4.0, 2.5])

    def test_single_pixel_identity(self):
        fm = FeatureMap(np.array([[[3.5]], [[-1.25]], [[0.0]]]))
        np.testing.assert_array_equal(pool_spatial_mean(fm), [3.5, -1.25, 0.0])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(8, 16, 16))
        fm = FeatureMap(data)
        pooled = pool_spatial_mean(fm)
        # independent brute-force mean
        oracle = np.zeros(8)
        for c in range(8):
            acc = 0.0
            for i in range(16):
                for j in range(16):
                    acc += data[c, i, j]
            oracle[c] = acc / (16 * 16)
        np.testing.assert_allclose(pooled, oracle, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            FeatureMap(np.full((1, 2, 2), np.inf))

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=(3, 4, 5))
        z2 = rng.normal(size=(3, 4, 5))
        lhs = pool_spatial_mean(FeatureMap(a * z1 + b * z2))
        rhs = a * pool_spatial_mean(FeatureMap(z1)) + b * pool_spatial_mean(
            FeatureMap(z2)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_spatial_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(2, 4, 3))
        perm = rng.permutation(12)
        shuffled = data.reshape(2, 12)[:, perm].reshape(2, 4, 3)
        np.testing.assert_allclose(
            pool_spatial_mean(FeatureMap(data)),
            pool_spatial_mean(FeatureMap(shuffled)),
            rtol=1e-12,
        )


class TestEmbeddingFiles:
    def _random_set(self, n, dim, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingSet.from_matrix(
            [f"rec-{i}" for i in range(n)], rng.normal(size=(n, dim))
        )

    def test_text_minimal_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(
            '{"id": "a", "vec": [1.0, 2.0, 3.0]}\n{"id": "b", "vec": [4, 5, 6]}\n'
        )
        es = load_embeddings(path)
        assert es.dim == 3 and len(es) == 2
        assert es.ids() == ["a", "b"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        es = load_embeddings(path)
        assert es.dim == 0 and len(es) == 0

    def test_binary_round_trip_bit_exact(self, tmp_path):
        es = self._random_set(1000, 16, seed=3)
        # binary stores f32; round-trip the f32 values exactly
        f32 = EmbeddingSet.from_matrix(es.ids(), es.matrix().astype(np.float32))
        path = tmp_path / "e.ccemb"
        save_embeddings(f32, path, fmt="binary")
        again = load_embeddings(path)
        assert again.ids() == f32.ids()
        np.testing.assert_array_equal(again.matrix(), f32.matrix())

    def test_text_round_trip_relative_error(self, tmp_path):
        es = self._random_set(50, 8, seed=4)
        path = tmp_path / "e.jsonl"
        save_embeddings(es, path, fmt="text")
        again = load_embeddings(path)
        np.testing.assert_allclose(again.matrix(), es.matrix(), rtol=1e-6)

    def test_formats_mutually_convertible(self, tmp_path):
        es = self._random_set(20, 5, seed=5)
        t, b = tmp_path / "e.jsonl", tmp_path / "e.ccemb"
        save_embeddings(es, t, fmt="text")
        save_embeddings(load_embeddings(t), b, fmt="binary")
        again = load_embeddings(b)
        np.testing.assert_allclose(again.matrix(), es.matrix(), rtol=1e-6)

    def test_empty_set_round_trip(self, tmp_path):
        for fmt in ("text", "binary"):
            path = tmp_path / f"empty-{fmt}"
            save_embeddings(EmbeddingSet.from_matrix([], np.zeros((0, 0))), path, fmt=fmt)
            assert len(load_embeddings(path)) == 0

    def test_single_record_text_is_one_line(self, tmp_path):
        es = EmbeddingSet.from_matrix(["only"], np.array([[0.25]]))
        path = tmp_path / "one.jsonl"
        save_embeddings(es, path, fmt="text")
        assert path.read_text().count("\n") == 1

    def test_dim_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "vec": [1, 2]}\n{"id": "b", "vec": [1]}\n')
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "vec": [1]}\n{"id": "a", "vec": [2]}\n')
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "vec": [NaN]}\n')
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_binary_version_mismatch(self, tmp_path):
        es = self._random_set(2, 2)
        path = tmp_path / "e.ccemb"
        save_embeddings(es, path, fmt="binary")
        blob = bytearray(path.read_bytes())
        blob[6] = 9  # bump the u16 version
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            load_embeddings(path)

    def test_binary_duplicate_id_rejected(self, tmp_path):
        # hand-build a binary file whose two records share an id
        import struct

        from cornercase.embeddings import EMBED_MAGIC

        rec = struct.pack("<H", 1) + b"a" + struct.pack("<f", 1.0)
        blob = EMBED_MAGIC + struct.pack("<HIQ", 1, 1, 2) + rec + rec
        path = tmp_path / "dup.ccemb"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(path)

    def test_binary_truncation_rejected(self, tmp_path):
        es = self._random_set(5, 4)
        path = tmp_path / "e.ccemb"
        save_embeddings(es, path, fmt="binary")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(path)


class TestFeatureMapContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        fm = FeatureMap(rng.normal(size=(3, 4, 5)).astype(np.float32).astype(float))
        path = tmp_path / "z.ccfm"
        save_feature_map(fm, path)
        again = load_feature_map(path)
        np.testing.assert_array_equal(again.data, fm.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "z.ccfm"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_feature_map(path)


class TestToyEncoder:
    def test_uniform_gray_g1(self):
        img = ImageBuffer(np.full((8, 8, 3), 0.5))
        np.testing.assert_allclose(
            toy_encode(img, grid=1), [0.5, 0.5, 0.5, 0.0, 0.0, 0.0]
        )

    def test_half_split_g2(self):
        px = np.zeros((8, 8, 3))
        px[:, 4:, :] = 1.0
        v = toy_encode(ImageBuffer(px), grid=2)
        cells = v[:12].reshape(4, 3)  # (cell, channel) means, row-major cells
        np.testing.assert_allclose(cells[0], 0.0)  # top-left
        np.testing.assert_allclose(cells[1], 1.0)  # top-right
        np.testing.assert_allclose(cells[2], 0.0)  # bottom-left
        np.testing.assert_allclose(cells[3], 1.0)  # bottom-right

    def test_output_length(self):
        img = ImageBuffer(np.full((16, 16, 3), 0.25))
        assert toy_encode(img, grid=4).size == 3 * 16 + 3

    def test_remainders_absorbed_by_last_cell(self):
        # 7x9 with grid 2: last cells take the odd remainder
        px = np.zeros((7, 9, 3))
        px[3:, 4:, :] = 1.0  # exactly the bottom-right cell (rows 3.., cols 4..)
        v = toy_encode(ImageBuffer(px), grid=2)
        cells = v[:12].reshape(4, 3)
        np.testing.assert_allclose(cells[3], 1.0)
        np.testing.assert_allclose(cells[:3], 0.0)

    def test_fog_raises_global_means(self):
        rng = np.random.default_rng(2)
        img = ImageBuffer(rng.uniform(0.0, 0.6, size=(16, 16, 3)))
        foggy = apply_fog(img, None, beta=0.02, atmospheric_light=1.0)
        clean_v = toy_encode(img, grid=2)
        fog_v = toy_encode(foggy, grid=2)
        # atmospheric light above all scene radiance brightens every cell mean
        assert np.all(fog_v[:12] > clean_v[:12])

    def test_pure_function(self):
        rng = np.random.default_rng(3)
        img = ImageBuffer(rng.uniform(size=(12, 10, 3)))
        a = toy_encode(img, grid=3)
        b = toy_encode(img, grid=3)
        np.testing.assert_array_equal(a, b)

    def test_pure_across_process_restarts(self):
        # byte-identical output from a fresh interpreter
        import subprocess
        import sys

        snippet = (
            "import numpy as np\n"
            "from cornercase.embeddings import toy_encode\n"
            "from cornercase.images import ImageBuffer\n"
            "img = ImageBuffer(np.random.default_rng(99).uniform(size=(16, 12, 3)))\n"
            "print(toy_encode(img, grid=4).tobytes().hex())\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet], capture_output=True, text=True, check=True
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and len(runs[0].strip()) > 0

    def test_too_small_image_rejected(self):
        img = ImageBuffer(np.full((2, 2, 3), 0.5))
        with pytest.raises(ValidationError):
            toy_encode(img, grid=4)


class TestContainers:
    def test_set_rejects_mixed_dims(self):
        with pytest.raises(ValidationError):
            EmbeddingSet.from_matrix(["a", "b"], [[1.0, 2.0], [1.0]])

    def test_set_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            EmbeddingSet.from_matrix(["a", "a"], [[1.0], [1.0]])

    def test_manifest_role_enum(self):
        with pytest.raises(ValidationError):
            DatasetManifest(name="x", role="validation", path="p")
        m = DatasetManifest(name="x", role="ood", path="p")
        assert m.role == "ood"
