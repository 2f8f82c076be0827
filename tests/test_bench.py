"""Benchmark runner, synthetic generation, report rendering tests."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cornercase import bench as bench_module
from cornercase.bench import (
    BenchConfig,
    BenchReport,
    SweepSettings,
    config_digest,
    config_from_dict,
    config_to_dict,
    emit_report,
    generate_synthetic_benchmark,
    load_config,
    load_report_json,
    parse_report,
    run_benchmark,
    run_corruption_sweep,
    save_report_json,
)
from cornercase.corruptions import (
    Sweep,
    _image_blocks,
    _seeded_sources,
    severity_sweep,
)
from cornercase.density import fit_gmm, fit_gmm_bic, knn_kth_sqdist, score_set
from cornercase.embeddings import (
    DatasetManifest,
    EmbeddingSet,
    load_embeddings,
    save_embeddings,
    toy_encode,
)
from cornercase.cli import main
from cornercase.embeddings import FeatureMap, load_feature_map, save_feature_map
from cornercase.errors import ConfigError, ValidationError
from cornercase.images import ImageBuffer, read_png, write_png
from cornercase.metrics import DetectionReport, LabeledScores, detection_report, save_scores
from cornercase.stats import CorrelationResult
from cornercase.synthetic import NOISE_FAMILY, scene_set
from cornercase.uncertainty import score_dataset_maps


def _write_sets(tmp_path, dim=8, n=60, shift=8.0, seed=0):
    rng = np.random.default_rng(seed)
    paths = {}
    for name, offset in (("id_train", 0.0), ("id_test", 0.0), ("ood", shift)):
        data = rng.normal(size=(n, dim)) + offset
        es = EmbeddingSet([f"{name}-{i}" for i in range(n)], data)
        path = tmp_path / f"{name}.ccemb"
        save_embeddings(es, path, fmt="binary")
        paths[name] = str(path)
    return paths


def _basic_config(paths, methods=("gmm", "knn"), **kwargs):
    return BenchConfig(
        seed=0,
        methods=tuple(methods),
        id_train=DatasetManifest(name="train", role="id_train", path=paths["id_train"]),
        id_test=DatasetManifest(name="test", role="id_test", path=paths["id_test"]),
        ood_sets=(DatasetManifest(name="shifted", role="ood", path=paths["ood"]),),
        knn_k=10,
        **kwargs,
    )


class TestSyntheticBenchmark:
    def test_zero_shift_auroc_near_chance(self, tmp_path):
        cfg = generate_synthetic_benchmark(
            dim=16, n_train=300, n_test=500, shift=0.0, seed=1, out_dir=tmp_path
        )
        report = run_benchmark(cfg)
        for _, _, rep in report.rows:
            assert rep.auroc == pytest.approx(50.0, abs=3.0)

    def test_large_shift_auroc_saturates(self, tmp_path):
        cfg = generate_synthetic_benchmark(
            dim=64, n_train=300, n_test=300, shift=10.0, seed=2, out_dir=tmp_path
        )
        report = run_benchmark(cfg)
        for _, _, rep in report.rows:
            assert rep.auroc >= 99.9

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_synthetic_benchmark(8, 20, 20, 3.0, seed=5, out_dir=a)
        generate_synthetic_benchmark(8, 20, 20, 3.0, seed=5, out_dir=b)
        for name in ("id_train.ccemb", "id_test.ccemb", "ood_shifted.ccemb", "config.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_config_loads_back(self, tmp_path):
        cfg = generate_synthetic_benchmark(8, 20, 20, 3.0, seed=5, out_dir=tmp_path)
        loaded = load_config(tmp_path / "config.json")
        assert config_digest(loaded) == config_digest(cfg)

    def test_bad_counts_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_synthetic_benchmark(8, 1, 20, 3.0, seed=0, out_dir=tmp_path)

    @pytest.mark.parametrize("seed", [-1, 2**63])
    def test_seed_outside_its_range_rejected(self, tmp_path, seed):
        with pytest.raises(ValidationError, match="seed must be an integer in"):
            generate_synthetic_benchmark(8, 20, 20, 3.0, seed=seed, out_dir=tmp_path / "s")
        assert not (tmp_path / "s").exists()


class TestRunBenchmark:
    def test_rows_cover_methods_and_datasets(self, tmp_path):
        paths = _write_sets(tmp_path)
        report = run_benchmark(_basic_config(paths))
        assert [(m, d) for m, d, _ in report.rows] == [
            ("gmm", "shifted"),
            ("knn", "shifted"),
        ]

    def test_determinism_byte_identical(self, tmp_path):
        paths = _write_sets(tmp_path)
        cfg = _basic_config(paths)
        r1, r2 = run_benchmark(cfg), run_benchmark(cfg)
        assert emit_report(r1, "csv") == emit_report(r2, "csv")
        assert emit_report(r1, "markdown") == emit_report(r2, "markdown")
        # a BIC-selected mixture: the same bytes again, from fit_gmm_bic's model
        bic = _basic_config(paths, methods=("gmm",), gmm_bic=True)
        r1, r2 = run_benchmark(bic), run_benchmark(bic)
        assert emit_report(r1, "csv") == emit_report(r2, "csv")
        train = load_embeddings(paths["id_train"])
        model = fit_gmm_bic(train, seed=bic.seed, max_iters=bic.max_iters, tol=bic.tol)
        id_scores, ood_scores = (
            score_set(model, load_embeddings(paths[name])) for name in ("id_test", "ood")
        )
        want = detection_report(LabeledScores(id_scores, ood_scores), bic.tpr_target)
        assert r1.rows == (("gmm", "shifted", want),)

    def test_method_isolation(self, tmp_path):
        paths = _write_sets(tmp_path)
        both = run_benchmark(_basic_config(paths))
        gmm_only = run_benchmark(_basic_config(paths, methods=("gmm",)))
        both_gmm_rows = [(m, d, r) for m, d, r in both.rows if m == "gmm"]
        assert both_gmm_rows == list(gmm_only.rows)

    def test_empty_ood_sets_is_config_error(self, tmp_path):
        paths = _write_sets(tmp_path)
        with pytest.raises(ConfigError):
            BenchConfig(
                seed=0,
                methods=("gmm",),
                id_train=DatasetManifest(name="a", role="id_train", path=paths["id_train"]),
                id_test=DatasetManifest(name="b", role="id_test", path=paths["id_test"]),
                ood_sets=(),
            )

    def test_dim_mismatch_names_both_dims(self, tmp_path):
        paths = _write_sets(tmp_path)
        other = EmbeddingSet(["x0", "x1"], np.zeros((2, 3)))
        bad = tmp_path / "bad.ccemb"
        save_embeddings(other, bad, fmt="binary")
        paths["ood"] = str(bad)
        with pytest.raises(ValidationError, match="train dim 8.*dim 3"):
            run_benchmark(_basic_config(paths))

    def test_unknown_method_rejected(self, tmp_path):
        paths = _write_sets(tmp_path)
        with pytest.raises(ConfigError):
            _basic_config(paths, methods=("energy",))

    def test_mean_uncertainty_over_map_directories(self, tmp_path):
        from cornercase.images import write_png

        rng = np.random.default_rng(11)

        def write_maps(name, low, high):
            d = tmp_path / name
            d.mkdir()
            for i in range(12):
                values = rng.uniform(low, high, size=(8, 8))
                write_png(d / f"m{i}.png", np.floor(values * 65535 + 0.5).astype(np.uint16))
            return str(d)

        confident = write_maps("id_maps", 0.0, 0.3)
        uncertain = write_maps("ood_maps", 0.6, 1.0)
        cfg = BenchConfig(
            seed=0,
            methods=("mean_uncertainty",),
            id_train=DatasetManifest(name="train", role="id_train", path=confident),
            id_test=DatasetManifest(name="test", role="id_test", path=confident),
            ood_sets=(DatasetManifest(name="shifted", role="ood", path=uncertain),),
        )
        report = run_benchmark(cfg)
        assert report.rows[0][0] == "mean_uncertainty"
        assert report.rows[0][2].auroc == 100.0

    def test_mean_uncertainty_rejects_embedding_file(self, tmp_path):
        paths = _write_sets(tmp_path)
        cfg = _basic_config(paths, methods=("mean_uncertainty",))
        with pytest.raises(ValidationError, match="directory of uncertainty"):
            run_benchmark(cfg)


def _write_map_dir(directory, rng, count, low=0.0, high=1.0, shape=(24, 40)):
    """count 16-bit PNG maps, plus one single-channel CCFMP1 map."""
    directory.mkdir()
    for i in range(count):
        levels = rng.integers(int(low * 65535), int(high * 65535) + 1, size=shape)
        write_png(directory / f"m{i:02d}.png", levels.astype(np.uint16))
    values = rng.uniform(low, high, size=(1, *shape)).astype(np.float32).astype(float)
    save_feature_map(FeatureMap(values), directory / "z.ccfm")
    return directory


def _reference_map_scores(directory):
    """(ids, scores) by the formula each map was scored with when every
    map of a directory was loaded first: -mean(levels / 65535) per PNG."""
    ids, scores = [], []
    for path in sorted(directory.iterdir()):
        if path.suffix == ".png":
            values = read_png(path).astype(float) / 65535
        else:
            values = np.array(load_feature_map(path).data[0])
        ids.append(path.stem)
        scores.append(-float(values.mean()))
    return ids, scores


class TestScoreDatasetMaps:
    def test_score_maps_file_equals_reference(self, tmp_path):
        maps = _write_map_dir(tmp_path / "maps", np.random.default_rng(40), 7)
        out = tmp_path / "u.jsonl"
        assert main(["score", "--maps", str(maps), "--out", str(out)]) == 0
        ids, scores = _reference_map_scores(maps)
        save_scores(tmp_path / "want.jsonl", ids, scores, "id")
        assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_mean_uncertainty_report_equals_reference(self, tmp_path):
        rng = np.random.default_rng(41)
        confident = _write_map_dir(tmp_path / "id_maps", rng, 9, 0.0, 1.0)
        uncertain = _write_map_dir(tmp_path / "ood_maps", rng, 6, 0.01, 1.0)
        cfg = BenchConfig(
            seed=0,
            methods=("mean_uncertainty",),
            id_train=DatasetManifest(name="train", role="id_train", path=str(confident)),
            id_test=DatasetManifest(name="test", role="id_test", path=str(confident)),
            ood_sets=(DatasetManifest(name="shifted", role="ood", path=str(uncertain)),),
        )
        report = run_benchmark(cfg)
        split = LabeledScores(
            id_scores=_reference_map_scores(confident)[1],
            ood_scores=_reference_map_scores(uncertain)[1],
        )
        want = detection_report(split, cfg.tpr_target)
        assert report.rows == (("mean_uncertainty", "shifted", want),)
        assert 0.0 < want.auroc < 100.0

    def test_memory_holds_one_map_at_a_time(self, tmp_path):
        # a 128x256 map is 256 KiB as float64; 20 maps held at once would
        # add 4.75 MiB over 2, ids and scores only about 2 KiB
        peaks = []
        for count in (2, 20):
            maps = tmp_path / f"maps{count}"
            maps.mkdir()
            rng = np.random.default_rng(42)
            for i in range(count):
                levels = rng.integers(0, 65536, size=(128, 256), dtype=np.uint16)
                write_png(maps / f"m{i:02d}.png", levels)
            manifest = DatasetManifest(name="maps", role="id_test", path=str(maps))
            tracemalloc.start()
            try:
                ids, scores = score_dataset_maps(manifest)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(ids) == len(scores) == count
        assert peaks[1] <= peaks[0] + 32 * 1024


class TestConfigSchema:
    def test_missing_schema_rejected(self, tmp_path):
        (tmp_path / "c.json").write_text("{}")
        with pytest.raises(ConfigError, match="schema"):
            load_config(tmp_path / "c.json")

    def test_future_schema_rejected(self, tmp_path):
        paths = _write_sets(tmp_path)
        data = config_to_dict(_basic_config(paths))
        data["schema"] = 99
        (tmp_path / "c.json").write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="99"):
            load_config(tmp_path / "c.json")

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        _write_sets(tmp_path)
        data = {
            "schema": 1,
            "seed": 0,
            "methods": ["gmm"],
            "id_train": {"name": "a", "role": "id_train", "path": "id_train.ccemb"},
            "id_test": {"name": "b", "role": "id_test", "path": "id_test.ccemb"},
            "ood_sets": [{"name": "c", "role": "ood", "path": "ood.ccemb"}],
        }
        (tmp_path / "c.json").write_text(json.dumps(data))
        cfg = load_config(tmp_path / "c.json")
        report = run_benchmark(cfg)
        assert len(report.rows) == 1

    def test_integral_float_fields_accepted(self, tmp_path):
        paths = _write_sets(tmp_path)
        data = config_to_dict(_basic_config(paths))
        data.update(seed=3.0, gmm_components=2.0, knn_k=5.0, max_iters=50.0)
        cfg = config_from_dict(data, ".")
        assert (cfg.seed, cfg.gmm_components, cfg.knn_k, cfg.max_iters) == (3, 2, 5, 50)
        assert all(
            type(v) is int for v in (cfg.seed, cfg.gmm_components, cfg.knn_k, cfg.max_iters)
        )

    @pytest.mark.parametrize("field", ["seed", "gmm_components", "knn_k", "max_iters"])
    @pytest.mark.parametrize("value", [2.7, True, "4", float("inf")])
    def test_non_integer_fields_rejected(self, tmp_path, field, value):
        paths = _write_sets(tmp_path)
        data = config_to_dict(_basic_config(paths))
        data[field] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(data, ".")

    # reports carry config_sha256 as provenance, so a change to the canonical
    # serialization must fail here rather than silently re-key old reports
    @pytest.mark.parametrize(
        "sweep, digest",
        [
            (None, "f84e23851d1e2c28e1ccc1a32362edf2f43ae1ed348a0ed9f3249d0eb9bb6253"),
            (
                {"kind": "gaussian_noise", "preset": "noise-paper", "encoder": "toy"},
                "459fd874c4020c1019f1f0bf30275a79dd3e1bf5e014815ad98610e692a687c9",
            ),
            (
                {
                    "kind": "fog",
                    "grid": [0.005, 0.01, 0.02],
                    "encoder": "external",
                    "severity_embeddings": [
                        "fog-0.005.ccemb", "fog-0.01.ccemb", "fog-0.02.ccemb"
                    ],
                },
                "bfb8709e6bdbbd88db71c101827f10dee84d944af3c9f599dd41b538267adb74",
            ),
        ],
    )
    def test_digest_pinned(self, sweep, digest):
        data = {
            "schema": 1,
            "seed": 0,
            "methods": ["gmm", "knn"],
            "id_train": {"name": "id_train", "role": "id_train", "path": "id_train.ccemb"},
            "id_test": {"name": "id_test", "role": "id_test", "path": "id_test.ccemb"},
            "ood_sets": [{"name": "shifted", "role": "ood", "path": "ood_shifted.ccemb"}],
            "sweep": sweep,
        }
        assert config_digest(config_from_dict(data, ".")) == digest

    def test_digest_stable_under_formatting(self, tmp_path):
        paths = _write_sets(tmp_path)
        cfg = _basic_config(paths)
        again = config_from_dict(config_to_dict(cfg), ".")
        assert config_digest(cfg) == config_digest(again)


class TestSweepRoutes:
    def test_toy_sweep_on_scene_images(self, tmp_path):
        scenes = scene_set(NOISE_FAMILY, 40, seed=0)
        named = [(f"s{i}", img) for i, img in enumerate(scenes)]
        train = EmbeddingSet(
            [sid for sid, _ in named], [toy_encode(img, 4) for img in scenes]
        )
        model = fit_gmm(train, components=2, seed=0)
        sweep = severity_sweep("gaussian_noise", [0.01, 0.05, 0.2], base_seed=0)
        sweep_rows, correlations = run_corruption_sweep(named, sweep, model)
        assert len(sweep_rows) == 3
        aurocs = [rep.auroc for _, rep in sweep_rows]
        assert aurocs[-1] > aurocs[0]  # strong noise is easier to detect
        kinds = {(m, c.kind) for m, c in correlations}
        assert ("auroc", "pearson") in kinds and ("fpr_at_95", "spearman") in kinds

    @pytest.mark.parametrize("grid", ["noise-paper", [0.0, 0.05, 0.3]])
    def test_noise_sweep_rows_equal_block_path(self, grid):
        # a black and a white patch in every scene, so the noise clips
        scenes = []
        for img in scene_set(NOISE_FAMILY, 12, seed=3):
            px = img.pixels.copy()
            px[:8, :16] = 0.0
            px[-8:, -16:] = 1.0
            scenes.append(ImageBuffer(px))
        ids = [f"s{i}" for i in range(len(scenes))]
        train = scene_set(NOISE_FAMILY, 40, seed=0)
        model = fit_gmm(
            EmbeddingSet([f"t{i}" for i in range(40)], [toy_encode(img) for img in train]),
            components=2,
            seed=0,
        )
        sweep = severity_sweep("gaussian_noise", grid, base_seed=5)
        rows, correlations = run_corruption_sweep(list(zip(ids, scenes)), sweep, model)
        # the block path: toy_encode of the sweep engine's corrupted stacks
        feats = np.empty((len(sweep.severities), len(scenes), 3 * 16 + 3))
        for i, seed, img, _ in _seeded_sources(((scene, None) for scene in scenes), sweep.seed):
            for j, block in _image_blocks(img, None, seed, sweep):
                feats[j : j + len(block), i] = toy_encode(block)
        id_set = EmbeddingSet(ids, [toy_encode(img) for img in scenes])
        severity_sets = (EmbeddingSet(ids, per_severity) for per_severity in feats)
        want = bench_module._score_sweep(
            model, score_set(model, id_set), severity_sets, sweep.severities, 0.95
        )
        assert (rows, correlations) == want

    def test_noise_sweep_spec_checks_shared_with_engine(self):
        # the record holds the one empty-grid check, so no sweep sees an empty grid
        message = "^severity grid must be non-empty$"
        with pytest.raises(ValidationError, match=message):
            severity_sweep("gaussian_noise", [])
        with pytest.raises(ValidationError, match=message):
            Sweep("gaussian_noise", ())

    def test_depths_must_align_with_images(self):
        from cornercase.corruptions import default_depth_ramp

        scenes = scene_set(NOISE_FAMILY, 3, seed=0)
        named = [(f"s{i}", img) for i, img in enumerate(scenes)]
        train = EmbeddingSet(
            [sid for sid, _ in named], [toy_encode(img, 4) for img in scenes]
        )
        model = fit_gmm(train, components=1, seed=0)
        sweep = severity_sweep("fog", [0.01])
        with pytest.raises(ValidationError, match="1 depth maps for 3 images"):
            run_corruption_sweep(named, sweep, model, depths=[default_depth_ramp(64, 96)])

    def test_config_driven_toy_sweep_on_image_dirs(self, tmp_path):
        from cornercase.synthetic import FOG_FAMILY, write_scene_set

        train_dir = tmp_path / "train"
        test_dir = tmp_path / "test"
        ood_dir = tmp_path / "heavy_fog"
        write_scene_set(train_dir, FOG_FAMILY, 60, seed=0)
        write_scene_set(test_dir, FOG_FAMILY, 40, seed=100)
        write_scene_set(ood_dir, FOG_FAMILY, 40, seed=200)
        cfg = BenchConfig(
            seed=0,
            methods=("gmm",),
            id_train=DatasetManifest(name="train", role="id_train", path=str(train_dir)),
            id_test=DatasetManifest(name="test", role="id_test", path=str(test_dir)),
            ood_sets=(DatasetManifest(name="fog", role="ood", path=str(ood_dir)),),
            gmm_components=2,
            sweep=SweepSettings(kind="fog", grid=(0.005, 0.05)),
        )
        report = run_benchmark(cfg)
        assert report.sweep_kind == "fog" and report.sweep_method == "gmm"
        assert len(report.sweep_rows) == 2
        light, heavy = report.sweep_rows[0][1], report.sweep_rows[1][1]
        assert heavy.auroc > light.auroc
        # identical scenes corrupted at beta=0 would be the ID side itself
        assert report.sweep_rows[0][0] == 0.005

    # 9e307 is past half the float maximum, where 2 sigma overflows in
    # the noise rows from sums; from 8e307 up, the centred severities'
    # squares overflow in Pearson
    @pytest.mark.parametrize("top", [8e307, 9e307])
    def test_noise_sweep_up_to_the_float_maximum(self, tmp_path, top):
        sweep = SweepSettings(kind="gaussian_noise", grid=(0.001, 0.01, top))
        report = run_benchmark(self._image_dir_config(tmp_path, sweep))
        severities = [severity for severity, _ in report.sweep_rows]
        assert severities == [0.001, 0.01, top]
        # a power-of-two scaling is exact and leaves the coefficient as it is
        scaled = np.ldexp(severities, -1023)
        pearsons = [(metric, c) for metric, c in report.correlations if c.kind == "pearson"]
        assert "fpr_at_95" in dict(pearsons)
        for metric, corr in pearsons:
            values = [getattr(rep, metric) for _, rep in report.sweep_rows]
            want = np.corrcoef(scaled, values)[0, 1]
            assert corr.coefficient == pytest.approx(want, abs=1e-12), metric

    @staticmethod
    def _image_dir_config(tmp_path, sweep):
        from cornercase.synthetic import FOG_FAMILY, write_scene_set

        for name, n, seed in (("train", 30, 0), ("test", 8, 100), ("ood", 8, 200)):
            write_scene_set(tmp_path / name, FOG_FAMILY, n, seed=seed)
        return BenchConfig(
            seed=0,
            methods=("gmm",),
            id_train=DatasetManifest(name="train", role="id_train", path=str(tmp_path / "train")),
            id_test=DatasetManifest(name="test", role="id_test", path=str(tmp_path / "test")),
            ood_sets=(DatasetManifest(name="ood", role="ood", path=str(tmp_path / "ood")),),
            gmm_components=1,
            sweep=sweep,
        )

    @pytest.mark.parametrize("kind", ["gaussian_noise", "white_box"])
    def test_config_toy_sweep_encodes_id_test_once(self, tmp_path, monkeypatch, kind):
        shapes = []

        def counting_toy_encode(images, grid=4):
            shapes.append(np.shape(images.pixels if isinstance(images, ImageBuffer) else images))
            return toy_encode(images, grid=grid)

        # the clean images are encoded in bench, the corrupted stacks by the kind's rows
        monkeypatch.setattr(bench_module, "toy_encode", counting_toy_encode)
        monkeypatch.setattr("cornercase.embeddings.toy_encode", counting_toy_encode)
        sweep = SweepSettings(kind=kind, grid=(0.01, 0.05, 0.2))
        report = run_benchmark(self._image_dir_config(tmp_path, sweep))
        # one call per image of id_train, id_test and the OOD set: the sweep's
        # ID side is id_test's rows. Only a white-box sweep encodes corrupted
        # stacks, 8 images x 3 severities; noise is encoded from sums.
        assert sum(len(s) == 3 for s in shapes) == 30 + 8 + 8
        assert sum(s[0] for s in shapes if len(s) == 4) == (kind == "white_box") * 8 * 3
        # the same rows as a sweep that encodes those images itself
        given = dataclasses.replace(sweep, images=str(tmp_path / "test"))
        again = run_benchmark(self._image_dir_config(tmp_path, given))
        assert (report.sweep_rows, report.correlations) == (again.sweep_rows, again.correlations)

    @staticmethod
    def _count_knn_queries(monkeypatch):
        from cornercase import density

        queries = []

        def counting_query(index, X):
            queries.append(len(X))
            return knn_kth_sqdist(index, X)

        monkeypatch.setattr(density, "knn_kth_sqdist", counting_query)
        return queries

    @pytest.mark.parametrize("kind", ["gaussian_noise", "white_box"])
    def test_config_toy_sweep_scores_id_test_once(self, tmp_path, monkeypatch, kind):
        queries = self._count_knn_queries(monkeypatch)
        sweep = SweepSettings(kind=kind, grid=(0.01, 0.05, 0.2))
        cfg = dataclasses.replace(
            self._image_dir_config(tmp_path, sweep), methods=("knn",), knn_k=5
        )
        report = run_benchmark(cfg)
        # id_test, the OOD set and 3 severities: the sweep's ID side is
        # the method's id_test scores
        assert queries == [8] * 5
        queries.clear()
        # a sweep with its own images still encodes and scores them
        given = dataclasses.replace(sweep, images=str(tmp_path / "test"))
        again = run_benchmark(dataclasses.replace(cfg, sweep=given))
        assert queries == [8] * 6
        assert (report.sweep_rows, report.correlations) == (again.sweep_rows, again.correlations)

    def test_config_sweep_reads_depth_maps_for_fog_only(self, tmp_path):
        (tmp_path / "no-depth").mkdir()
        no_depth = str(tmp_path / "no-depth")
        plain = run_benchmark(
            self._image_dir_config(tmp_path, SweepSettings(kind="white_box", grid=(0.01, 0.05)))
        )
        ignored = run_benchmark(
            self._image_dir_config(
                tmp_path, SweepSettings(kind="white_box", grid=(0.01, 0.05), depth=no_depth)
            )
        )
        assert (ignored.sweep_rows, ignored.correlations) == (plain.sweep_rows, plain.correlations)
        fog = SweepSettings(kind="fog", grid=(0.01,), depth=no_depth)
        with pytest.raises(FileNotFoundError):
            run_benchmark(self._image_dir_config(tmp_path, fog))

    @staticmethod
    def _write_frames_with_depth(frames_dir, depth_dir, count, h, w, seed):
        from cornercase.images import DepthMap, save_depth

        rng = np.random.default_rng(seed)
        frames_dir.mkdir()
        depth_dir.mkdir(exist_ok=True)
        for i in range(count):
            write_png(frames_dir / f"f{i:02d}.png", rng.integers(0, 256, (h, w, 3), np.uint8))
            valid = rng.random((h, w)) > 0.1  # some pixels take the median depth
            depth = DepthMap(depth=rng.uniform(2.0, 300.0, (h, w)), valid=valid)
            save_depth(depth, depth_dir / f"f{i:02d}.png", meters_per_unit=0.01)

    def test_config_fog_sweep_holds_one_frame_at_a_time(self, tmp_path):
        # a 256x512 frame is 3 MiB as float64 and its depth map 1 MiB more,
        # so a sweep that held every frame and map would peak about 25 MiB
        # higher at 8 frames than at 2
        h, w = 256, 512
        paths = _write_sets(tmp_path, dim=3 * 4 * 4 + 3, n=30)
        peaks = []
        for count in (2, 8):
            frames = tmp_path / f"frames{count}"
            self._write_frames_with_depth(frames, tmp_path / "depth", count, h, w, seed=count)
            sweep = SweepSettings(
                kind="fog", grid=(0.005, 0.02), images=str(frames), depth=str(tmp_path / "depth")
            )
            cfg = _basic_config(paths, methods=("gmm",), gmm_components=1, sweep=sweep)
            tracemalloc.start()
            try:
                report = run_benchmark(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(report.sweep_rows) == 2
        assert peaks[1] < peaks[0] + h * w * 3 * 8, [p / 2**20 for p in peaks]

    @pytest.mark.parametrize("with_depth, frames", [(False, 2.5), (True, 3.0)])
    def test_fog_toy_rows_without_frame_size_temporaries(self, with_depth, frames):
        # Scoring one frame takes its clean encoding, then each fog block
        # and its encoding: the block and toy_encode's centred copy are 2
        # float64 frames, a depth map with invalid pixels adds its filled
        # third. Building pixels * t and A * (1 - t) apart, tiling the
        # ramp and keeping a block while the next one is made reach 4.
        from cornercase.images import DepthMap

        h, w = 256, 512
        rng = np.random.default_rng(5)
        img = ImageBuffer(rng.random((h, w, 3)))
        depth = None
        if with_depth:
            depth = DepthMap(depth=rng.uniform(2.0, 300.0, (h, w)), valid=rng.random((h, w)) > 0.1)
        train = EmbeddingSet([f"t{i}" for i in range(30)], rng.random((30, 3 * 4 * 4 + 3)))
        model = fit_gmm(train, components=1, seed=0)
        tracemalloc.start()
        try:
            rows, _ = run_corruption_sweep(
                [("f", img)], severity_sweep("fog", "fog-paper"), model, depths=[depth]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 3
        assert peak <= frames * h * w * 3 * 8, f"peak {peak / (h * w * 3 * 8):.2f} frames"

    def test_config_sweep_with_images_reads_and_encodes_each_image_once(
        self, tmp_path, monkeypatch
    ):
        from cornercase import corruptions as corruptions_module
        from cornercase import images as images_module
        from cornercase.synthetic import FOG_FAMILY

        read_png = images_module.read_png
        reads, shapes = [], []

        def counting_read_png(path, layout=None):
            reads.append(Path(path))
            return read_png(path, layout)

        def counting_toy_encode(images, grid=4):
            shapes.append(np.shape(images.pixels if isinstance(images, ImageBuffer) else images))
            return toy_encode(images, grid=grid)

        # load_image reads id_test and the sweep reads its sources
        for module in (images_module, corruptions_module):
            monkeypatch.setattr(module, "read_png", counting_read_png)
        monkeypatch.setattr(bench_module, "toy_encode", counting_toy_encode)
        frames, depth = tmp_path / "frames", tmp_path / "depth"
        h, w = FOG_FAMILY.height, FOG_FAMILY.width
        self._write_frames_with_depth(frames, depth, 5, h, w, seed=1)
        sweep = SweepSettings(kind="fog", grid=(0.01, 0.05), images=str(frames), depth=str(depth))
        report = run_benchmark(self._image_dir_config(tmp_path, sweep))
        assert len(report.sweep_rows) == 2
        assert sorted(reads) == sorted(set(reads))
        assert set(frames.iterdir()) < set(reads) and set(depth.glob("*.png")) < set(reads)
        # one clean encoding per image of id_train, id_test, the OOD set and
        # the sweep, whose ID side is its own images
        assert sum(len(s) == 3 for s in shapes) == 30 + 8 + 8 + 5

    @staticmethod
    def _external_sweep_config(tmp_path):
        rng = np.random.default_rng(3)
        paths = _write_sets(tmp_path, dim=6, n=80, shift=6.0)
        sev_paths = []
        for i, scale in enumerate((1.0, 3.0, 6.0)):
            data = rng.normal(size=(50, 6)) + scale
            es = EmbeddingSet([f"c{i}-{j}" for j in range(50)], data)
            p = tmp_path / f"sev{i}.ccemb"
            save_embeddings(es, p, fmt="binary")
            sev_paths.append(str(p))
        return _basic_config(
            paths,
            methods=("gmm",),
            sweep=SweepSettings(
                kind="gaussian_noise",
                grid=(0.1, 0.2, 0.3),
                encoder="external",
                severity_embeddings=tuple(sev_paths),
            ),
        )

    def test_external_embedding_sweep(self, tmp_path):
        cfg = self._external_sweep_config(tmp_path)
        report = run_benchmark(cfg)
        assert len(report.sweep_rows) == 3
        aurocs = [rep.auroc for _, rep in report.sweep_rows]
        assert aurocs[0] < aurocs[-1]
        assert report.sweep_method == "gmm"

    def test_external_sweep_reads_each_file_once(self, tmp_path, monkeypatch):
        cfg = self._external_sweep_config(tmp_path)
        loaded = []

        def counting_load(path):
            loaded.append(Path(path).stem)
            return load_embeddings(path)

        monkeypatch.setattr(bench_module, "load_embeddings", counting_load)
        run_benchmark(cfg)
        assert sorted(loaded) == ["id_test", "id_train", "ood", "sev0", "sev1", "sev2"]

    def test_external_sweep_scores_id_test_once(self, tmp_path, monkeypatch):
        queries = self._count_knn_queries(monkeypatch)
        cfg = dataclasses.replace(self._external_sweep_config(tmp_path), methods=("knn",))
        report = run_benchmark(cfg)
        # id_test, the OOD set and 3 severity files
        assert queries == [80, 80, 50, 50, 50]
        assert len(report.sweep_rows) == 3

    def test_external_sweep_length_mismatch(self):
        with pytest.raises(ConfigError, match="per severity"):
            SweepSettings(
                kind="fog",
                grid=(0.1, 0.2),
                encoder="external",
                severity_embeddings=("only-one.ccemb",),
            )

    @pytest.mark.parametrize(
        "methods", [("gmm", "mean_uncertainty"), ("mean_uncertainty", "knn")]
    )
    def test_mean_uncertainty_with_a_density_method_rejected(self, tmp_path, methods):
        # no manifest holds both uncertainty maps and embeddings; the
        # config fails before any dataset is read
        paths = {name: str(tmp_path / "missing") for name in ("id_train", "id_test", "ood")}
        with pytest.raises(ConfigError, match="cannot mix"):
            _basic_config(paths, methods=methods)

    def test_sweep_with_uncertainty_first_method_rejected(self, tmp_path):
        paths = _write_sets(tmp_path)
        with pytest.raises(ConfigError, match="first configured method"):
            _basic_config(
                paths,
                methods=("mean_uncertainty",),
                sweep=SweepSettings(kind="fog", grid=(0.1, 0.2)),
            )

    def test_metric_constant_across_sweep_has_no_correlation_row(self):
        # three means of 96.9 do not round back to 96.9; a Pearson row of
        # r = 0, p = 1 was kept for it while Spearman's was dropped
        reports = [
            DetectionReport(fpr_at_95=96.9, auroc=auroc, aupr_in=50.0, aupr_out=50.0)
            for auroc in (60.0, 70.0, 90.0)
        ]
        correlations = bench_module._sweep_correlations([0.1, 0.2, 0.3], reports)
        assert [(metric, c.kind) for metric, c in correlations] == [
            ("auroc", "pearson"),
            ("auroc", "spearman"),
        ]


class TestReportRendering:
    def _report(self):
        rep = DetectionReport(fpr_at_95=3.126, auroc=99.789, aupr_in=98.4, aupr_out=99.0)
        corr = CorrelationResult(coefficient=-0.9734, p_value=3.2e-31, n=50, kind="spearman")
        return BenchReport(
            rows=(("gmm", "shifted", rep),),
            sweep_kind="fog",
            sweep_method="gmm",
            sweep_rows=((0.005, rep), (0.01, rep)),
            correlations=(("fpr_at_95", corr),),
            provenance=(("config_sha256", "abc"), ("seed", "0"), ("toolkit_version", "0.1.0")),
        )

    def test_two_decimal_rendering(self):
        text = emit_report(self._report(), "csv")
        assert "gmm,shifted,3.13,99.79,98.40,99.00" in text

    def test_csv_single_row_shape(self):
        rep = DetectionReport(fpr_at_95=1.0, auroc=99.0, aupr_in=98.0, aupr_out=97.0)
        report = BenchReport(rows=(("knn", "d", rep),), provenance=(("seed", "0"),))
        lines = [l for l in emit_report(report, "csv").splitlines() if l and not l.startswith("#")]
        assert len(lines) == 2  # header plus one row

    def test_markdown_csv_round_trip_identical(self):
        report = self._report()
        from_csv = parse_report(emit_report(report, "csv"), "csv")
        from_md = parse_report(emit_report(report, "markdown"), "markdown")
        assert from_csv == from_md
        assert from_csv["rows"][0][0] == "gmm"
        assert from_csv["sweep_rows"][0][0] == 0.005
        assert from_csv["correlations"][0][2] == -97.34

    def test_json_persistence_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        save_report_json(report, path)
        again = load_report_json(path)
        assert emit_report(again, "csv") == emit_report(report, "csv")
        assert emit_report(again, "markdown") == emit_report(report, "markdown")

    def test_correlation_coefficient_scaled_to_percent(self):
        text = emit_report(self._report(), "csv")
        assert "fpr_at_95,spearman,-97.34,3.2e-31,50" in text
