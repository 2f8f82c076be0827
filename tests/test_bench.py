"""Benchmark runner, synthetic generation, report rendering tests."""

import json

import numpy as np
import pytest

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
from cornercase.corruptions import severity_sweep
from cornercase.density import fit_gmm
from cornercase.embeddings import (
    DatasetManifest,
    EmbeddingSet,
    save_embeddings,
    toy_encode,
)
from cornercase.errors import ConfigError, ValidationError
from cornercase.metrics import DetectionReport
from cornercase.stats import CorrelationResult
from cornercase.synthetic import NOISE_FAMILY, scene_set


def _write_sets(tmp_path, dim=8, n=60, shift=8.0, seed=0):
    rng = np.random.default_rng(seed)
    paths = {}
    for name, offset in (("id_train", 0.0), ("id_test", 0.0), ("ood", shift)):
        data = rng.normal(size=(n, dim)) + offset
        es = EmbeddingSet.from_matrix([f"{name}-{i}" for i in range(n)], data)
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
        other = EmbeddingSet.from_matrix(["x0", "x1"], np.zeros((2, 3)))
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

    def test_digest_stable_under_formatting(self, tmp_path):
        paths = _write_sets(tmp_path)
        cfg = _basic_config(paths)
        again = config_from_dict(config_to_dict(cfg), ".")
        assert config_digest(cfg) == config_digest(again)


class TestSweepRoutes:
    def test_toy_sweep_on_scene_images(self, tmp_path):
        scenes = scene_set(NOISE_FAMILY, 40, seed=0)
        named = [(f"s{i}", img) for i, img in enumerate(scenes)]
        train = EmbeddingSet.from_matrix(
            [sid for sid, _ in named], [toy_encode(img, 4) for img in scenes]
        )
        model = fit_gmm(train, components=2, seed=0)
        specs = severity_sweep("gaussian_noise", [0.01, 0.05, 0.2], base_seed=0)
        sweep_rows, correlations = run_corruption_sweep(named, specs, model)
        assert len(sweep_rows) == 3
        aurocs = [rep.auroc for _, rep in sweep_rows]
        assert aurocs[-1] > aurocs[0]  # strong noise is easier to detect
        kinds = {(m, c.kind) for m, c in correlations}
        assert ("auroc", "pearson") in kinds and ("fpr_at_95", "spearman") in kinds

    def test_depths_must_align_with_images(self):
        from cornercase.corruptions import default_depth_ramp

        scenes = scene_set(NOISE_FAMILY, 3, seed=0)
        named = [(f"s{i}", img) for i, img in enumerate(scenes)]
        train = EmbeddingSet.from_matrix(
            [sid for sid, _ in named], [toy_encode(img, 4) for img in scenes]
        )
        model = fit_gmm(train, components=1, seed=0)
        specs = severity_sweep("fog", [0.01])
        with pytest.raises(ValidationError, match="1 depth maps for 3 images"):
            run_corruption_sweep(named, specs, model, depths=[default_depth_ramp(64, 96)])

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

    def test_external_embedding_sweep(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = _write_sets(tmp_path, dim=6, n=80, shift=6.0)
        sev_paths = []
        for i, scale in enumerate((1.0, 3.0, 6.0)):
            data = rng.normal(size=(50, 6)) + scale
            es = EmbeddingSet.from_matrix([f"c{i}-{j}" for j in range(50)], data)
            p = tmp_path / f"sev{i}.ccemb"
            save_embeddings(es, p, fmt="binary")
            sev_paths.append(str(p))
        cfg = _basic_config(
            paths,
            methods=("gmm",),
            sweep=SweepSettings(
                kind="gaussian_noise",
                grid=(0.1, 0.2, 0.3),
                encoder="external",
                severity_embeddings=tuple(sev_paths),
            ),
        )
        report = run_benchmark(cfg)
        assert len(report.sweep_rows) == 3
        aurocs = [rep.auroc for _, rep in report.sweep_rows]
        assert aurocs[0] < aurocs[-1]
        assert report.sweep_method == "gmm"

    def test_external_sweep_length_mismatch(self):
        with pytest.raises(ConfigError, match="per severity"):
            SweepSettings(
                kind="fog",
                grid=(0.1, 0.2),
                encoder="external",
                severity_embeddings=("only-one.ccemb",),
            )

    def test_sweep_with_uncertainty_first_method_rejected(self, tmp_path):
        paths = _write_sets(tmp_path)
        with pytest.raises(ConfigError, match="first configured method"):
            _basic_config(
                paths,
                methods=("mean_uncertainty",),
                sweep=SweepSettings(kind="fog", grid=(0.1, 0.2)),
            )


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
