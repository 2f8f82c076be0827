"""End-to-end command-line tests, including exit-code mapping."""

import json
import re
import struct
import zlib

import numpy as np
import pytest

from cornercase.cli import main
from cornercase.embeddings import EMBED_MAGIC, FMAP_MAGIC, EmbeddingSet, save_embeddings
from cornercase.images import write_png
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
    "non-numeric sweep --grid": (
        lambda t: ["sweep", "--images", str(t), "--kind", "fog", "--grid", "a,b",
                   "--out", str(t / "o")],
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_typed_error(tmp_path, case):
    make_argv, expected = MALFORMED_INPUTS[case]
    assert main(make_argv(tmp_path)) == expected
