"""End-to-end command-line tests, including exit-code mapping."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from cornercase.cli import main
from cornercase.density import MODEL_MAGIC
from cornercase.embeddings import EMBED_MAGIC, FMAP_MAGIC, EmbeddingSet, save_embeddings
from cornercase.images import DepthMap, ImageBuffer, save_depth, save_image, write_png
from cornercase.synthetic import WHITEBOX_FAMILY, write_scene_set


def _write_embeddings(path, n=40, dim=6, offset=0.0, seed=0):
    rng = np.random.default_rng(seed)
    es = EmbeddingSet(
        [f"e{i}" for i in range(n)], rng.normal(size=(n, dim)) + offset
    )
    save_embeddings(es, path, fmt="binary")
    return path


class TestFitScoreEval:
    def test_gmm_pipeline(self, tmp_path, capsys):
        train = _write_embeddings(tmp_path / "train.ccemb", seed=1)
        test = _write_embeddings(tmp_path / "test.ccemb", seed=2)
        ood = _write_embeddings(tmp_path / "ood.ccemb", offset=8.0, seed=3)
        model = tmp_path / "gmm.ccmdl"
        assert main(["fit-gmm", "--embeddings", str(train), "--out", str(model),
                     "--components", "2"]) == 0
        id_scores = tmp_path / "id.jsonl"
        ood_scores = tmp_path / "ood.jsonl"
        assert main(["score", "--model", str(model), "--embeddings", str(test),
                     "--label", "id", "--out", str(id_scores)]) == 0
        assert main(["score", "--model", str(model), "--embeddings", str(ood),
                     "--label", "ood", "--out", str(ood_scores)]) == 0
        assert main(["eval", "--scores", str(id_scores), "--scores", str(ood_scores)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"fitted gmm \(2 components, dim 6; \d+ EM iterations, converged True\)", out)
        row = [l for l in out.splitlines() if l.startswith("scores,")][0]
        auroc = float(row.split(",")[3])
        assert auroc > 95.0

    def test_knn_pipeline(self, tmp_path):
        train = _write_embeddings(tmp_path / "train.ccemb", seed=4)
        model = tmp_path / "knn.ccmdl"
        assert main(["fit-knn", "--embeddings", str(train), "--out", str(model),
                     "--k", "5"]) == 0
        scores = tmp_path / "s.jsonl"
        assert main(["score", "--model", str(model), "--embeddings", str(train),
                     "--out", str(scores)]) == 0
        assert len(scores.read_text().splitlines()) == 40

    def test_score_maps(self, tmp_path):
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        rng = np.random.default_rng(5)
        for i in range(3):
            write_png(
                maps_dir / f"m{i}.png",
                rng.integers(0, 65536, size=(6, 6), dtype=np.uint16),
            )
        out = tmp_path / "u.jsonl"
        assert main(["score", "--maps", str(maps_dir), "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 3 and all(r["score"] <= 0 for r in recs)


class TestSynthBenchReport:
    def test_full_cycle(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["synth", "--dim", "8", "--n-train", "60", "--n-test", "60",
                     "--shift", "8", "--seed", "3", "--out", str(out)]) == 0
        assert main(["bench", "--config", str(out / "config.json"),
                     "--out", str(out), "--format", "csv"]) == 0
        csv_text = (out / "report.csv").read_text()
        assert "method,dataset,fpr_at_95,auroc,aupr_in,aupr_out" in csv_text
        assert (out / "report.json").exists()
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json"),
                     "--format", "markdown"]) == 0
        md = capsys.readouterr().out
        assert "| method | dataset |" in md

    def test_bench_reports_byte_identical(self, tmp_path):
        out = tmp_path / "bench"
        main(["synth", "--dim", "6", "--n-train", "40", "--n-test", "40",
              "--shift", "5", "--seed", "7", "--out", str(out)])
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["bench", "--config", str(out / "config.json"), "--out", str(r1)]) == 0
        assert main(["bench", "--config", str(out / "config.json"), "--out", str(r2)]) == 0
        assert (r1 / "report.csv").read_bytes() == (r2 / "report.csv").read_bytes()
        assert (r1 / "report.json").read_bytes() == (r2 / "report.json").read_bytes()


class TestCorruptSweepCli:
    def test_corrupt_and_sweep(self, tmp_path):
        images = tmp_path / "imgs"
        write_scene_set(images, WHITEBOX_FAMILY, 2, seed=0)
        out1 = tmp_path / "c1"
        assert main(["corrupt", "--images", str(images), "--kind", "white_box",
                     "--severity", "0.05", "--out", str(out1)]) == 0
        assert (out1 / "white_box" / "0.05").exists()
        out2 = tmp_path / "c2"
        assert main(["sweep", "--images", str(images), "--kind", "fog",
                     "--grid", "0.005,0.02", "--out", str(out2)]) == 0
        manifest = json.loads((out2 / "fog" / "manifest.json").read_text())
        assert len(manifest["entries"]) == 4

    def test_sweep_needs_exactly_one_grid_source(self, tmp_path):
        images = tmp_path / "imgs"
        write_scene_set(images, WHITEBOX_FAMILY, 1, seed=0)
        assert main(["sweep", "--images", str(images), "--kind", "fog",
                     "--out", str(tmp_path / "o")]) == 2

    # fog reads depth maps that have invalid pixels, so its manifest says
    # provided_with_median_fill
    @pytest.mark.parametrize("kind", ["fog", "gaussian_noise", "white_box"])
    def test_corrupt_writes_what_a_one_severity_sweep_writes(self, tmp_path, kind):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 3, seed=0)
        argv = ["--images", str(tmp_path / "imgs"), "--kind", kind, "--seed", "5",
                "--out", str(tmp_path / "o")]
        if kind == "fog":
            _write_depth_dir(tmp_path / "depth", sorted((tmp_path / "imgs").iterdir()))
            argv += ["--depth", str(tmp_path / "depth")]
        assert main(["sweep", *argv, "--grid", "0.03"]) == 0
        swept = _tree_bytes(tmp_path / "o")
        shutil.rmtree(tmp_path / "o")
        assert main(["corrupt", *argv, "--severity", "0.03"]) == 0
        assert _tree_bytes(tmp_path / "o") == swept
        assert len(swept) == 4  # 3 PNGs and the manifest

    # only fog reads depth maps: a directory without them changes nothing
    # for the other kinds
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--kind", "white_box", "--grid", "0.01,0.02"],
            ["corrupt", "--kind", "gaussian_noise", "--severity", "0.01"],
        ],
    )
    def test_depth_maps_ignored_by_kinds_other_than_fog(self, tmp_path, argv):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 2, seed=0)
        (tmp_path / "no-depth").mkdir()
        argv = [*argv, "--images", str(tmp_path / "imgs"), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        without = _tree_bytes(tmp_path / "o")
        shutil.rmtree(tmp_path / "o")
        assert main([*argv, "--depth", str(tmp_path / "no-depth")]) == 0
        assert _tree_bytes(tmp_path / "o") == without

    # a white-box sweep reads its sources as uint8, not through load_image
    @pytest.mark.parametrize("kind", ["white_box", "fog"])
    def test_grayscale_source_exits_3(self, tmp_path, capsys, kind):
        (tmp_path / "imgs").mkdir()
        gray = tmp_path / "imgs" / "gray.png"
        write_png(gray, np.full((8, 8), 100, dtype=np.uint8))
        argv = ["sweep", "--images", str(tmp_path / "imgs"), "--kind", kind,
                "--grid", "0.01,0.02", "--out", str(tmp_path / "o")]
        assert _main_within(argv) == 3
        assert capsys.readouterr().err == f"data error: {gray}: expected an RGB image, got grayscale\n"
        assert not list((tmp_path / "o").rglob("*.png"))

    @pytest.mark.parametrize("command", ["sweep", "corrupt"])
    @pytest.mark.parametrize("kind", ["gaussian_noise", "white_box"])
    def test_atmospheric_light_is_a_usage_error_without_fog(self, tmp_path, capsys, command, kind):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 1, seed=0)
        severity = ["--severity", "0.05"] if command == "corrupt" else ["--grid", "0.05"]
        argv = [command, "--images", str(tmp_path / "imgs"), "--kind", kind, *severity,
                "--atmospheric-light", "0.3", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: --atmospheric-light is read by fog only\n"
        assert not (tmp_path / "o").exists()

    # only a fog manifest records the atmospheric light, the default when
    # the flag is not given
    @pytest.mark.parametrize(
        "kind, flag, recorded",
        [
            ("fog", [], 0.92),
            ("fog", ["--atmospheric-light", "0.5"], 0.5),
            ("gaussian_noise", [], None),
            ("white_box", [], None),
        ],
    )
    def test_manifest_records_atmospheric_light_for_fog_only(self, tmp_path, kind, flag, recorded):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 1, seed=0)
        argv = ["sweep", "--images", str(tmp_path / "imgs"), "--kind", kind, "--grid", "0.05",
                *flag, "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "o" / kind / "manifest.json").read_text())
        assert manifest.get("atmospheric_light") == recorded


def _tree_bytes(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _write_depth_dir(directory, images):
    """A depth map per image, each with an invalid band along its top rows."""
    directory.mkdir()
    for i, image in enumerate(images):
        depth = np.linspace(40.0 + i, 4.0, 64)[:, None] * np.ones((64, 96))
        valid = np.ones(depth.shape, dtype=bool)
        valid[:5] = False
        save_depth(DepthMap(depth, valid), directory / image.name, meters_per_unit=0.01)


def _empty_dir_sweep_argv(tmp_path, command):
    (tmp_path / "empty").mkdir()
    severity = ["--severity", "0.01"] if command == "corrupt" else ["--grid", "0.01"]
    return [command, "--images", str(tmp_path / "empty"), "--kind", "fog", *severity,
            "--out", str(tmp_path / "o")]


def _empty_dir_bench_argv(tmp_path, empty_slot):
    (tmp_path / "empty").mkdir()
    write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 20, seed=0)
    config = {
        "schema": 1,
        "seed": 0,
        "methods": ["gmm"],
        "gmm_components": 1,
        "id_train": {"name": "train", "role": "id_train", "path": "imgs"},
        "id_test": {
            "name": "test", "role": "id_test", "path": "empty" if empty_slot == "id_test" else "imgs"
        },
        "ood_sets": [{"name": "ood", "role": "ood", "path": "imgs"}],
    }
    if empty_slot == "sweep.images":
        config["sweep"] = {"kind": "gaussian_noise", "grid": [0.01], "images": "empty"}
    (tmp_path / "c.json").write_text(json.dumps(config))
    return ["bench", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda t: _empty_dir_sweep_argv(t, "sweep"),
        lambda t: _empty_dir_sweep_argv(t, "corrupt"),
        lambda t: _empty_dir_bench_argv(t, "id_test"),
        lambda t: _empty_dir_bench_argv(t, "sweep.images"),
    ],
    ids=["sweep", "corrupt", "bench id_test", "bench sweep.images"],
)
def test_empty_png_directory_exits_3_with_one_message(tmp_path, capsys, make_argv):
    assert main(make_argv(tmp_path)) == 3
    assert capsys.readouterr().err == f"data error: no PNG images under {tmp_path / 'empty'}\n"


def _main_within(argv, seconds=60.0):
    """main(argv) on a daemon thread, so a sweep whose writers deadlock
    fails the test instead of hanging it."""
    codes = []
    runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"{argv[0]} still running after {seconds} s"
    return codes[0]


class TestSweepWriterLifecycle:
    """Sweep outputs are written on writer threads; every run, failed or
    not, ends with those threads joined."""

    def _sweep(self, tmp_path, out):
        return ["sweep", "--images", str(tmp_path / "imgs"), "--kind", "white_box",
                "--grid", "0.05,0.1,0.2", "--out", str(out)]

    def test_successful_sweep(self, tmp_path):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 3, seed=0)
        before = threading.active_count()
        assert _main_within(self._sweep(tmp_path, tmp_path / "o")) == 0
        assert threading.active_count() == before
        assert len(list((tmp_path / "o").rglob("*.png"))) == 9

    def test_corrupt_second_source_exits_3(self, tmp_path):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 3, seed=0)
        first, second, _ = sorted((tmp_path / "imgs").glob("*.png"))
        second.write_bytes(b"not a PNG file")
        before = threading.active_count()
        assert _main_within(self._sweep(tmp_path, tmp_path / "o")) == 3
        assert threading.active_count() == before
        # the first source's outputs were all written before the error
        assert sorted(p.name for p in (tmp_path / "o").rglob("*.png")) == [first.name] * 3

    def test_output_path_that_is_a_directory_exits_4(self, tmp_path):
        write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 3, seed=0)
        _, second, _ = sorted((tmp_path / "imgs").glob("*.png"))
        (tmp_path / "o" / "white_box" / "0.1" / second.name).mkdir(parents=True)
        before = threading.active_count()
        assert _main_within(self._sweep(tmp_path, tmp_path / "o")) == 4
        assert threading.active_count() == before


class TestPcaCli:
    def test_export(self, tmp_path):
        a = _write_embeddings(tmp_path / "a.ccemb", n=30, seed=8)
        b = _write_embeddings(tmp_path / "b.ccemb", n=20, offset=4.0, seed=9)
        out = tmp_path / "coords.jsonl"
        assert main(["pca", "--embeddings", f"clean={a}", "--embeddings", f"shifted={b}",
                     "--k", "3", "--out", str(out)]) == 0
        recs = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(recs) == 50
        assert {r["dataset"] for r in recs} == {"clean", "shifted"}
        assert all(len(r["coords"]) == 3 for r in recs)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected_as_by_fit_knn(self, tmp_path, capsys, k):
        assert main(_pca_k_argv(tmp_path, k)) == 3
        assert main(["fit-knn", "--embeddings", str(tmp_path / "e.ccemb"),
                     "--out", str(tmp_path / "m"), "--k", str(k)]) == 3
        pca_err, knn_err = capsys.readouterr().err.splitlines()
        assert pca_err == knn_err == "data error: k must be a positive integer"


def test_cli_import_loads_no_thread_pool():
    # sweeps import their writer pool when they run, so `cornercase
    # --version` loads none of it
    import cornercase

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cornercase.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    snippet = (
        "import sys\n"
        "import cornercase.cli\n"
        "print(sorted({'concurrent.futures', 'queue'} & set(sys.modules)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert loaded.strip() == "[]"


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text(json.dumps({"schema": 42}))
        assert main(["bench", "--config", str(bad)]) == 2

    def test_data_error_is_3(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "vec": [1, 2]}\n{"id": "b", "vec": [1]}\n')
        assert main(["fit-gmm", "--embeddings", str(path),
                     "--out", str(tmp_path / "m.ccmdl")]) == 3

    def test_io_error_is_4(self, tmp_path):
        assert main(["fit-gmm", "--embeddings", str(tmp_path / "missing.ccemb"),
                     "--out", str(tmp_path / "m.ccmdl")]) == 4

    def test_fit_error_is_3(self, tmp_path):
        es = EmbeddingSet(["a", "b"], np.ones((2, 2)))
        path = tmp_path / "const.ccemb"
        save_embeddings(es, path, fmt="binary")
        assert main(["fit-gmm", "--embeddings", str(path),
                     "--out", str(tmp_path / "m.ccmdl"), "--components", "2"]) == 3


def _fit_gmm_argv(tmp_path, name, blob):
    (tmp_path / name).write_bytes(blob)
    return ["fit-gmm", "--embeddings", str(tmp_path / name), "--out", str(tmp_path / "m")]


def _score_maps_argv(tmp_path, name, blob):
    (tmp_path / "maps").mkdir()
    (tmp_path / "maps" / name).write_bytes(blob)
    return ["score", "--maps", str(tmp_path / "maps"), "--out", str(tmp_path / "s.jsonl")]


def _fit_knn_argv(tmp_path, name, blob):
    return ["fit-knn", *_fit_gmm_argv(tmp_path, name, blob)[1:], "--k", "1"]


def _score_model_argv(tmp_path, blob, n=3):
    (tmp_path / "m.ccmdl").write_bytes(blob)
    _write_embeddings(tmp_path / "e.ccemb", n=n, dim=1 if n else 0)
    return ["score", "--model", str(tmp_path / "m.ccmdl"), "--embeddings",
            str(tmp_path / "e.ccemb"), "--out", str(tmp_path / "s.jsonl")]


# 60 rows of 4-column text embeddings scaled to about 1e200: finite, but
# their squares overflow
_HUGE_TEXT_EMBEDDINGS = b"".join(
    json.dumps({"id": f"r{i}", "vec": row}).encode() + b"\n"
    for i, row in enumerate((1e200 * np.random.default_rng(0).normal(size=(60, 4))).tolist())
)


def _far_gmm_score_argv(tmp_path):
    # two dim-128 components at 0.99e150 and 0.98e150 with variances at the
    # floor: the quadratic term of a row at -0.99e150 overflows for both
    dim = 128
    values = np.concatenate(
        [[0.5, 0.5], np.full(dim, 0.99e150), np.full(dim, 0.98e150), np.full(2 * dim, 1e-6)]
    )
    header = struct.pack("<HBIIQq", 1, 0, 2, dim, 2, 0)
    (tmp_path / "m.ccmdl").write_bytes(MODEL_MAGIC + header + values.astype("<f8").tobytes())
    es = EmbeddingSet(["near", "far"], np.vstack([np.zeros(dim), np.full(dim, -0.99e150)]))
    save_embeddings(es, tmp_path / "e.jsonl", fmt="text")
    return ["score", "--model", str(tmp_path / "m.ccmdl"), "--embeddings",
            str(tmp_path / "e.jsonl"), "--out", str(tmp_path / "s.jsonl")]


def _pca_argv(tmp_path, name, blob):
    (tmp_path / name).write_bytes(blob)
    return ["pca", "--embeddings", f"a={tmp_path / name}", "--k", "2",
            "--out", str(tmp_path / "p.jsonl")]


def _pca_k_argv(tmp_path, k):
    _write_embeddings(tmp_path / "e.ccemb", n=30)
    return ["pca", "--embeddings", f"a={tmp_path / 'e.ccemb'}", "--k", str(k),
            "--out", str(tmp_path / "p.jsonl")]


# meters_per_unit values a depth sidecar must not load with; 1e400 and
# the 400-digit integer overflow a float
BAD_DEPTH_SCALES = {
    "true": "true",
    "string": '"0.5"',
    "NaN": "NaN",
    "Infinity": "Infinity",
    "1e400": "1e400",
    "400-digit integer": "1" + "0" * 400,
    "0": "0",
    "negative": "-0.5",
    "null": "null",
}


def _depth_sidecar_argv(tmp_path, sidecar_text):
    for name in ("imgs", "depth"):
        (tmp_path / name).mkdir()
    save_image(ImageBuffer(np.full((8, 8, 3), 0.5)), tmp_path / "imgs" / "a.png")
    write_png(tmp_path / "depth" / "a.png", np.full((8, 8), 100, dtype=np.uint16))
    (tmp_path / "depth" / "a.png.json").write_text('{"meters_per_unit": %s}\n' % sidecar_text)
    return ["sweep", "--images", str(tmp_path / "imgs"), "--kind", "fog", "--grid", "0.01",
            "--depth", str(tmp_path / "depth"), "--out", str(tmp_path / "o")]


def _config_bytes_argv(tmp_path, blob):
    (tmp_path / "c.json").write_bytes(blob)
    return ["bench", "--config", str(tmp_path / "c.json")]


# what follows the magic in a one-record CCEMB1 file (dim 1, id "a"), and a
# one-point CCMDL1 knn index (dim 1, k 1)
_CCEMB1_BODY = struct.pack("<HIQ", 1, 1, 1) + struct.pack("<H", 1) + b"a" + struct.pack("<f", 1.0)
_CCMDL1_KNN = MODEL_MAGIC + struct.pack("<HBIIQ", 1, 1, 1, 1, 1) + struct.pack("<d", 0.0)


def _bench_argv(tmp_path, sweep, **fields):
    manifest = {"name": "x", "role": "id_train", "path": "x.ccemb"}
    config = {
        "schema": 1,
        "seed": 0,
        "methods": ["gmm"],
        "id_train": manifest,
        "id_test": {**manifest, "role": "id_test"},
        "ood_sets": [{**manifest, "role": "ood"}],
        "sweep": sweep,
        **fields,
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    return ["bench", "--config", str(tmp_path / "c.json")]


def _sweep_grid_argv(tmp_path, grid):
    write_scene_set(tmp_path / "imgs", WHITEBOX_FAMILY, 1, seed=0)
    return ["sweep", "--images", str(tmp_path / "imgs"), "--kind", "gaussian_noise",
            "--grid", grid, "--out", str(tmp_path / "o")]


def _eval_argv(tmp_path, *lines):
    (tmp_path / "s.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    return ["eval", "--scores", str(tmp_path / "s.jsonl")]


_ID_SCORE = b'{"id": "a", "score": 1.0, "label": "id"}'


def _report_argv(tmp_path, text, fmt="markdown"):
    (tmp_path / "report.json").write_text(text)
    return ["report", "--report", str(tmp_path / "report.json"), "--format", fmt]


def _report_with(table, fmt="markdown", **fields):
    """A stored report holding one row per table, with fields replaced in
    the row of the given table, or at the top level when table is None."""
    scores = {"fpr_at_95": 1.0, "auroc": 99.0, "aupr_in": 98.0, "aupr_out": 97.0}
    report = {
        "rows": [{"method": "gmm", "dataset": "fog", **scores}],
        "sweep_kind": "fog",
        "sweep_method": "gmm",
        "sweep_rows": [{"severity": 0.01, **scores}],
        "correlations": [
            {"metric": "auroc", "kind": "spearman", "coefficient": 0.5, "p_value": 0.1, "n": 5}
        ],
        "provenance": {"seed": "0"},
    }
    (report if table is None else report[table][0]).update(fields)
    return lambda t: _report_argv(t, json.dumps(report), fmt)


def _png_chunk(ctype, payload):
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


MALFORMED_INPUTS = {
    "text embedding with a non-numeric value": (
        lambda t: _fit_gmm_argv(t, "e.jsonl", b'{"id": "a", "vec": [1.0, "x"]}\n'),
        3,
    ),
    "binary embedding id that is not UTF-8": (
        lambda t: _fit_gmm_argv(
            t,
            "e.ccemb",
            EMBED_MAGIC + struct.pack("<HIQ", 1, 1, 1) + struct.pack("<H", 1) + b"\xff"
            + struct.pack("<f", 1.0),
        ),
        3,
    ),
    "feature-map payload not a multiple of 4 bytes": (
        lambda t: _score_maps_argv(
            t, "m.ccfm", FMAP_MAGIC + struct.pack("<HIII", 1, 1, 1, 1) + bytes(6)
        ),
        3,
    ),
    "PNG with a 12-byte IHDR": (
        lambda t: _score_maps_argv(
            t,
            "m.png",
            b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", bytes(12)) + _png_chunk(b"IEND", b""),
        ),
        3,
    ),
    "non-integer sweep.encoder_grid": (
        lambda t: _bench_argv(
            t, {"kind": "gaussian_noise", "preset": "noise-paper", "encoder_grid": "four"}
        ),
        2,
    ),
    "non-integral sweep.encoder_grid": (
        lambda t: _bench_argv(
            t, {"kind": "gaussian_noise", "preset": "noise-paper", "encoder_grid": 2.5}
        ),
        2,
    ),
    "non-integral gmm_components": (
        lambda t: _bench_argv(t, None, gmm_components=2.7),
        2,
    ),
    "boolean knn_k": (
        lambda t: _bench_argv(t, None, knn_k=True),
        2,
    ),
    "string seed": (
        lambda t: _bench_argv(t, None, seed="7"),
        2,
    ),
    "non-numeric sweep.grid value": (
        lambda t: _bench_argv(t, {"kind": "fog", "grid": [0.01, "heavy"]}),
        2,
    ),
    "string gmm_bic": (
        lambda t: _bench_argv(t, None, gmm_bic="false"),
        2,
    ),
    "gmm_components with gmm_bic": (
        lambda t: _bench_argv(t, None, gmm_bic=True, gmm_components=3),
        2,
    ),
    "--components with --bic": (
        lambda t: [*_fit_gmm_argv(t, "e.jsonl", b'{"id": "a", "vec": [1.0]}\n'),
                   "--bic", "--components", "3"],
        2,
    ),
    "boolean tol": (
        lambda t: _bench_argv(t, None, tol=True),
        2,
    ),
    "string tpr_target": (
        lambda t: _bench_argv(t, None, tpr_target="0.5"),
        2,
    ),
    "string sweep.atmospheric_light": (
        lambda t: _bench_argv(
            t, {"kind": "fog", "preset": "fog-paper", "atmospheric_light": "0.9"}
        ),
        2,
    ),
    "sweep.atmospheric_light without fog": (
        lambda t: _bench_argv(
            t, {"kind": "gaussian_noise", "grid": [0.01], "atmospheric_light": 0.3}
        ),
        2,
    ),
    "boolean sweep.grid value": (
        lambda t: _bench_argv(t, {"kind": "fog", "grid": [0.01, True]}),
        2,
    ),
    "unknown config key": (
        lambda t: _bench_argv(t, None, **{"knn-k": 3}),
        2,
    ),
    "unknown sweep key": (
        lambda t: _bench_argv(t, {"kind": "fog", "preset": "fog-paper", "severity": 0.1}),
        2,
    ),
    "unknown manifest key": (
        lambda t: _bench_argv(
            t, None, id_test={"name": "x", "role": "id_test", "path": "x.ccemb", "fmt": "binary"}
        ),
        2,
    ),
    "toy sweep with severity_embeddings": (
        lambda t: _bench_argv(
            t, {"kind": "gaussian_noise", "grid": [0.01], "severity_embeddings": ["nope.ccemb"]}
        ),
        2,
    ),
    "external sweep with images": (
        lambda t: _bench_argv(t, {"kind": "fog", "grid": [0.01], "encoder": "external",
                                  "severity_embeddings": ["a.ccemb"], "images": "imgs"}),
        2,
    ),
    "external sweep with depth": (
        lambda t: _bench_argv(t, {"kind": "fog", "grid": [0.01], "encoder": "external",
                                  "severity_embeddings": ["a.ccemb"], "depth": "depth"}),
        2,
    ),
    "sweep preset for another kind": (
        lambda t: _bench_argv(t, {"kind": "fog", "preset": "noise-paper"}),
        2,
    ),
    "decreasing sweep.grid": (
        lambda t: _bench_argv(t, {"kind": "fog", "grid": [0.02, 0.01]}),
        2,
    ),
    "unknown sweep.kind": (
        lambda t: _bench_argv(t, {"kind": "rain", "grid": [0.1]}),
        2,
    ),
    "sweep.grid severities sharing an output directory": (
        lambda t: _bench_argv(t, {"kind": "gaussian_noise", "grid": [0.1234561, 0.1234562]}),
        2,
    ),
    "sweep --grid severities sharing an output directory": (
        lambda t: _sweep_grid_argv(t, "0.1234561,0.1234562"),
        3,
    ),
    "duplicate ood_sets names": (
        lambda t: _bench_argv(
            t, None, ood_sets=[{"name": "x", "role": "ood", "path": p} for p in ("a", "b")]
        ),
        2,
    ),
    "manifest role that differs from its slot": (
        lambda t: _bench_argv(t, None, id_train={"name": "x", "role": "ood", "path": "x.ccemb"}),
        2,
    ),
    "score file with a numeric id": (
        lambda t: _eval_argv(t, _ID_SCORE, b'{"id": 7, "score": 2.0, "label": "ood"}'),
        3,
    ),
    "score file with a boolean score": (
        lambda t: _eval_argv(t, _ID_SCORE, b'{"id": "b", "score": true, "label": "ood"}'),
        3,
    ),
    "score file with a string score": (
        lambda t: _eval_argv(t, _ID_SCORE, b'{"id": "b", "score": "2.5", "label": "ood"}'),
        3,
    ),
    "score file with an integer score too large for a float": (
        lambda t: _eval_argv(t, _ID_SCORE, b'{"id": "b", "score": 1' + b"0" * 400
                             + b', "label": "ood"}'),
        3,
    ),
    "score file that is not UTF-8": (
        lambda t: _eval_argv(t, _ID_SCORE, b'{"id": "\xff", "score": 2.0, "label": "ood"}'),
        3,
    ),
    "report.json that is not JSON": (
        lambda t: _report_argv(t, "rows: none"),
        3,
    ),
    "report.json holding a list": (
        lambda t: _report_argv(t, "[]"),
        3,
    ),
    "report.json row without a dataset": (
        lambda t: _report_argv(
            t,
            json.dumps({"rows": [
                {"method": "gmm", "fpr_at_95": 1.0, "auroc": 99.0, "aupr_in": 98.0,
                 "aupr_out": 97.0}
            ]}),
        ),
        3,
    ),
    "report.json sweep row with a string severity": (
        _report_with("sweep_rows", severity="x"),
        3,
    ),
    "report.json sweep row with a boolean severity": (
        _report_with("sweep_rows", fmt="csv", severity=True),
        3,
    ),
    "report.json row with a numeric method": (
        _report_with("rows", method=5),
        3,
    ),
    "report.json row with a list dataset": (
        _report_with("rows", fmt="csv", dataset=[1]),
        3,
    ),
    "report.json correlation with a numeric metric": (
        _report_with("correlations", metric=3),
        3,
    ),
    "report.json correlation with a string n": (
        _report_with("correlations", fmt="csv", n="five"),
        3,
    ),
    "report.json row with a boolean fpr_at_95": (
        _report_with("rows", fmt="csv", fpr_at_95=True),
        3,
    ),
    "report.json correlation with a boolean coefficient": (
        _report_with("correlations", coefficient=False),
        3,
    ),
    "report.json correlation with a boolean p_value": (
        _report_with("correlations", fmt="csv", p_value=True),
        3,
    ),
    "report.json with a numeric sweep_kind": (
        _report_with(None, sweep_kind=5),
        3,
    ),
    "report.json with a list provenance value": (
        _report_with(None, fmt="csv", provenance={"seed": [1]}),
        3,
    ),
    "config with a numeric manifest name": (
        lambda t: _bench_argv(t, None, ood_sets=[{"name": 5, "role": "ood", "path": "x.ccemb"}]),
        2,
    ),
    "config tol as an integer too large for a float": (
        lambda t: _bench_argv(t, None, tol=10**400),
        2,
    ),
    "config tol NaN": (
        lambda t: _bench_argv(t, None, tol=float("nan")),
        2,
    ),
    "config tol Infinity": (
        lambda t: _bench_argv(t, None, tol=float("inf")),
        2,
    ),
    "config that is not UTF-8": (
        lambda t: _config_bytes_argv(t, b'{"schema": 1, "seed": 0, "methods": ["\xff"]}'),
        2,
    ),
    "text embedding id that is not UTF-8": (
        lambda t: _fit_gmm_argv(t, "e.jsonl", b'{"id": "\xff", "vec": [1.0]}\n'),
        3,
    ),
    "binary embedding with a damaged magic": (
        lambda t: _fit_gmm_argv(t, "e.ccemb", b"CCEMBX" + _CCEMB1_BODY),
        3,
    ),
    "text embedding with an integer too large for a float": (
        lambda t: _fit_gmm_argv(t, "e.jsonl", b'{"id": "a", "vec": [1' + b"0" * 400 + b"]}\n"),
        3,
    ),
    "report.json with an unknown top-level key": (
        _report_with(None, notes="x"),
        3,
    ),
    "binary embedding with trailing bytes": (
        lambda t: _fit_knn_argv(t, "e.ccemb", EMBED_MAGIC + _CCEMB1_BODY + b"\x00"),
        3,
    ),
    "model file with trailing bytes": (
        lambda t: _score_model_argv(t, _CCMDL1_KNN + b"\x00"),
        3,
    ),
    "knn model of dimension 0, scoring an empty embedding set": (
        lambda t: _score_model_argv(t, MODEL_MAGIC + struct.pack("<HBIIQ", 1, 1, 0, 1, 5), n=0),
        3,
    ),
    "text embeddings near 1e200 fitted by a gmm": (
        lambda t: [*_fit_gmm_argv(t, "e.jsonl", _HUGE_TEXT_EMBEDDINGS), "--components", "2"],
        3,
    ),
    "text embeddings near 1e200 projected by pca": (
        lambda t: _pca_argv(t, "e.jsonl", _HUGE_TEXT_EMBEDDINGS),
        3,
    ),
    "gmm model with a mean of 1e300, scoring": (
        lambda t: _score_model_argv(
            t,
            MODEL_MAGIC + struct.pack("<HBIIQq", 1, 0, 2, 1, 2, 0)
            + struct.pack("<6d", 0.5, 0.5, 0.0, 1e300, 1.0, 1.0),
        ),
        3,
    ),
    "gmm scoring a row too far from every component for float64": (_far_gmm_score_argv, 3),
    "non-numeric sweep --grid": (
        lambda t: ["sweep", "--images", str(t), "--kind", "fog", "--grid", "a,b",
                   "--out", str(t / "o")],
        2,
    ),
    "pca --k 0": (lambda t: _pca_k_argv(t, 0), 3),
    "pca --k -3": (lambda t: _pca_k_argv(t, -3), 3),
    **{
        f"depth sidecar scale {label}": (lambda t, text=text: _depth_sidecar_argv(t, text), 3)
        for label, text in BAD_DEPTH_SCALES.items()
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_typed_error(tmp_path, case):
    make_argv, expected = MALFORMED_INPUTS[case]
    assert main(make_argv(tmp_path)) == expected


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e149])
def test_fits_and_scores_across_scales(tmp_path, scale):
    # 60 distinct 4-column rows: every fit and every score of a written
    # model ends in exit 0 or a typed error (3), with no warning
    rows = scale * np.random.default_rng(0).normal(size=(60, 4))
    path = tmp_path / "e.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"r{i}", "vec": row}) + "\n" for i, row in enumerate(rows.tolist())
    ))
    embeddings = ["--embeddings", str(path)]
    codes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes["fit-gmm"] = main(["fit-gmm", *embeddings, "--out", str(tmp_path / "gmm"),
                                 "--components", "2"])
        codes["fit-knn"] = main(["fit-knn", *embeddings, "--out", str(tmp_path / "knn"),
                                 "--k", "5"])
        codes["pca"] = main(["pca", "--embeddings", f"a={path}", "--k", "2",
                             "--out", str(tmp_path / "p.jsonl")])
        for model in ("gmm", "knn"):
            if codes[f"fit-{model}"] == 0:
                codes[f"score {model}"] = main(["score", "--model", str(tmp_path / model),
                                                *embeddings, "--out", str(tmp_path / "s.jsonl")])
    assert set(codes.values()) <= {0, 3}, codes
    # the rows are distinct, so two components can always be placed
    assert codes["fit-gmm"] == 0, codes
