"""Embedding containers, pooling, file formats and the toy encoder."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cornercase.corruptions import (
    Sweep,
    _image_blocks,
    _noise_field,
    apply_fog,
    severity_sweep,
)
from cornercase.density import _gamma
from cornercase.embeddings import (
    _CLIP_BLOCK_ELEMENTS,
    DatasetManifest,
    EmbeddingSet,
    FeatureMap,
    load_embeddings,
    load_feature_map,
    pool_spatial_mean,
    save_embeddings,
    save_feature_map,
    toy_encode,
    toy_encode_noise_sweep,
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
    @example(seed=393701)  # channel means of 3.9e-6 that differ by 1.2e-12 relative
    @settings(max_examples=20, deadline=None)
    def test_spatial_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(2, 4, 3))
        perm = rng.permutation(12)
        shuffled = data.reshape(2, 12)[:, perm].reshape(2, 4, 3)
        # a mean that cancels has no relative bound; each order's mean of
        # 12 values is within gamma_12 * mean|x| of the exact one
        bound = 2 * _gamma(12) * np.abs(data).mean(axis=(1, 2))
        np.testing.assert_array_less(
            np.abs(pool_spatial_mean(FeatureMap(data)) - pool_spatial_mean(FeatureMap(shuffled))),
            bound,
        )


class TestEmbeddingFiles:
    def _random_set(self, n, dim, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingSet(
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

    def test_text_blank_lines_are_skipped(self, tmp_path):
        from cornercase.cli import main

        path = tmp_path / "e.jsonl"
        path.write_text('{"id": "a", "vec": [1.0, 2.0]}\n\n  \n{"id": "b", "vec": [3.0, 5.0]}\n')
        es = load_embeddings(path)
        assert es.ids() == ["a", "b"]
        np.testing.assert_array_equal(es.matrix(), [[1.0, 2.0], [3.0, 5.0]])
        assert main(["fit-knn", "--embeddings", str(path), "--k", "1",
                     "--out", str(tmp_path / "knn.ccmdl")]) == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        es = load_embeddings(path)
        assert es.dim == 0 and len(es) == 0

    def test_binary_round_trip_bit_exact(self, tmp_path):
        es = self._random_set(1000, 16, seed=3)
        # binary stores f32; round-trip the f32 values exactly
        f32 = EmbeddingSet(es.ids(), es.matrix().astype(np.float32))
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
            save_embeddings(EmbeddingSet([], np.zeros((0, 0))), path, fmt=fmt)
            assert len(load_embeddings(path)) == 0

    def test_single_record_text_is_one_line(self, tmp_path):
        es = EmbeddingSet(["only"], np.array([[0.25]]))
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

    @pytest.mark.parametrize(
        "ids",
        [
            ["a0", "b1", "c2"],
            ["é1", "ü2", "ab3"],  # 3 bytes each, not ASCII
            ["x", "yy", "z"],  # lengths differ: record by record
            [""],
            ["", "a"],
        ],
    )
    def test_binary_ids_read_as_written(self, tmp_path, ids):
        # equal-length ids take the strided read; every file must give
        # the ids and rows that were written, in order
        rows = np.random.default_rng(6).normal(size=(len(ids), 3)).astype(np.float32)
        path = tmp_path / "e.ccemb"
        save_embeddings(EmbeddingSet(ids, rows), path, fmt="binary")
        again = load_embeddings(path)
        assert again.ids() == ids
        np.testing.assert_array_equal(again.matrix(), rows)

    @pytest.mark.parametrize("same_length", [True, False])
    def test_binary_id_not_utf8_names_its_record(self, tmp_path, same_length):
        import struct

        from cornercase.embeddings import EMBED_MAGIC

        names = [b"ab", b"cd", b"\xff\xfe", b"ef"] if same_length else [b"a", b"cd", b"\xff", b"e"]
        recs = b"".join(struct.pack("<H", len(n)) + n + struct.pack("<f", 1.0) for n in names)
        path = tmp_path / "bad.ccemb"
        path.write_bytes(EMBED_MAGIC + struct.pack("<HIQ", 1, 1, len(names)) + recs)
        with pytest.raises(FormatError, match="record 2 id is not UTF-8"):
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


def toy_encode_loop_reference(pixels, grid):
    """The per-cell loop toy_encode replaced, kept as its reference."""
    h, w = pixels.shape[:2]
    row_step, col_step = h // grid, w // grid
    feats = []
    for r in range(grid):
        r0 = r * row_step
        r1 = (r + 1) * row_step if r < grid - 1 else h
        for c in range(grid):
            c0 = c * col_step
            c1 = (c + 1) * col_step if c < grid - 1 else w
            feats.extend(pixels[r0:r1, c0:c1].mean(axis=(0, 1)))
    feats.extend(pixels.std(axis=(0, 1)))
    return np.array(feats)


class TestToyEncoderStack:
    # (n, H, W, grid): remainder rows, remainder columns, both, none,
    # a cell per pixel, and the 64x96 sweep block of 3
    @pytest.mark.parametrize(
        "n,h,w,grid",
        [(1, 7, 8, 2), (2, 8, 11, 3), (3, 13, 10, 4), (2, 16, 16, 4), (1, 5, 5, 5), (3, 64, 96, 4)],
    )
    def test_equals_loop_reference(self, n, h, w, grid):
        stack = np.random.default_rng(h * w + grid).uniform(size=(n, h, w, 3))
        got = toy_encode(stack, grid=grid)
        assert got.shape == (n, 3 * grid * grid + 3)
        for k in range(n):
            np.testing.assert_allclose(
                got[k], toy_encode_loop_reference(stack[k], grid), rtol=0, atol=1e-12
            )
            np.testing.assert_array_equal(toy_encode(ImageBuffer(stack[k]), grid=grid), got[k])

    @pytest.mark.parametrize("shape", [(8, 8, 3), (2, 8, 8, 4), (2, 8, 8)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValidationError):
            toy_encode(np.zeros(shape), grid=2)

    def test_non_finite_stack_rejected(self):
        stack = np.zeros((2, 8, 8, 3))
        stack[1, 5, 6, 2] = np.nan
        with pytest.raises(ValidationError):
            toy_encode(stack, grid=2)


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
        # byte-identical output from a fresh interpreter, which imports
        # the same cornercase package as this one
        import os
        import subprocess
        import sys
        from pathlib import Path

        import cornercase

        package_root = str(Path(cornercase.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        snippet = (
            "import numpy as np\n"
            "from cornercase.embeddings import toy_encode\n"
            "from cornercase.images import ImageBuffer\n"
            "img = ImageBuffer(np.random.default_rng(99).uniform(size=(16, 12, 3)))\n"
            "print(toy_encode(img, grid=4).tobytes().hex())\n"
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, check=True, env=env,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and len(runs[0].strip()) > 0

    def test_too_small_image_rejected(self):
        img = ImageBuffer(np.full((2, 2, 3), 0.5))
        with pytest.raises(ValidationError):
            toy_encode(img, grid=4)


def noise_sweep_block_reference(img, sigmas, grid, seed):
    """toy_encode of the sweep engine's corrupted blocks, one row per sigma
    in the order given: the sweep runs over the distinct sigmas, ascending."""
    distinct, order = np.unique(sigmas, return_inverse=True)
    sweep = Sweep("gaussian_noise", distinct, seed=seed)
    feats = np.empty((len(distinct), 3 * grid * grid + 3))
    for j, block in _image_blocks(img, None, seed, sweep):
        feats[j : j + len(block)] = toy_encode(block, grid=grid)
    return feats[order]


NOISE_SIGMA_GRIDS = {
    "noise-paper": list(severity_sweep("gaussian_noise", "noise-paper").severities),
    "three": [0.0, 0.05, 0.3],
    "one": [0.2],
}


def _noise_test_image(kind, h, w, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return ImageBuffer(rng.uniform(size=(h, w, 3)))
    if kind == "saturated":  # every value 0 or 1, so every nonzero draw clips
        return ImageBuffer((rng.uniform(size=(h, w, 3)) < 0.5).astype(float))
    return ImageBuffer(rng.uniform(0.0, 0.02, size=(h, w, 3)))  # dark


class TestToyEncodeNoiseSweep:
    # shapes whose sides the grid does not divide, and one cell per image
    @pytest.mark.parametrize("sigmas", sorted(NOISE_SIGMA_GRIDS))
    @pytest.mark.parametrize("h,w,grid", [(37, 53, 4), (20, 31, 3), (50, 70, 5), (8, 8, 1)])
    @pytest.mark.parametrize("kind", ["random", "saturated", "dark"])
    def test_equals_toy_encode_of_sweep_blocks(self, kind, h, w, grid, sigmas):
        img = _noise_test_image(kind, h, w, seed=h * w + grid)
        sigmas = NOISE_SIGMA_GRIDS[sigmas]
        got = toy_encode_noise_sweep(img, _noise_field(4, img.pixels.shape), sigmas, grid=grid)
        want = noise_sweep_block_reference(img, sigmas, grid, seed=4)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # sigma 0 ties with the clean encoding exactly
        for row in got[np.array(sigmas) == 0.0]:
            np.testing.assert_array_equal(row, toy_encode(img, grid=grid))

    @pytest.mark.parametrize("sigmas", sorted(NOISE_SIGMA_GRIDS))
    @pytest.mark.parametrize("kind", ["random", "saturated"])
    def test_scan_bands_cutting_cells(self, kind, sigmas):
        # 300x200 spans three scan bands, whose edges cut grid cells
        h, w, grid = 300, 200, 7
        band = _CLIP_BLOCK_ELEMENTS // (3 * w)
        assert 2 * band < h and band % (h // grid)
        img = _noise_test_image(kind, h, w, seed=5)
        sigmas = NOISE_SIGMA_GRIDS[sigmas]
        got = toy_encode_noise_sweep(img, _noise_field(6, img.pixels.shape), sigmas, grid=grid)
        want = noise_sweep_block_reference(img, sigmas, grid, seed=6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["random", "saturated"])
    def test_unsorted_repeated_and_huge_sigmas(self, kind):
        # at 1e200 nearly every value clips, and nothing cancels
        sigmas = [0.3, 0.0, 1e200, 0.05, 2.0, 0.05]
        img = _noise_test_image(kind, 37, 53, seed=7)
        got = toy_encode_noise_sweep(img, _noise_field(8, img.pixels.shape), sigmas)
        want = noise_sweep_block_reference(img, sigmas, 4, seed=8)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "field,sigmas",
        [((8, 9, 3), [0.1]), ((8, 8, 3), []), ((8, 8, 3), [0.1, -0.1]), ((8, 8, 3), [np.nan])],
    )
    def test_bad_field_or_sigmas_rejected(self, field, sigmas):
        img = ImageBuffer(np.full((8, 8, 3), 0.5))
        with pytest.raises(ValidationError):
            toy_encode_noise_sweep(img, np.zeros(field), sigmas, grid=2)


class TestContainers:
    def test_set_rejects_mixed_dims(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(["a", "b"], [[1.0, 2.0], [1.0]])

    def test_set_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            EmbeddingSet(["a", "a"], [[1.0], [1.0]])

    def test_manifest_role_enum(self):
        with pytest.raises(ValidationError):
            DatasetManifest(name="x", role="validation", path="p")
        m = DatasetManifest(name="x", role="ood", path="p")
        assert m.role == "ood"
