"""Every file the toolkit writes goes through images._write_file, whose
bytes equal what the writers' own joins and dumps used to make."""

import json
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from cornercase import bench, cli, corruptions, density, embeddings, images, metrics, stats
from cornercase.cli import main
from cornercase.density import MODEL_MAGIC, KnnIndex, fit_gmm, persist_model
from cornercase.embeddings import (
    CONTAINER_VERSION,
    EMBED_MAGIC,
    FMAP_MAGIC,
    EmbeddingSet,
    FeatureMap,
    save_embeddings,
    save_feature_map,
)
from cornercase.images import DepthMap, save_depth, write_png
from cornercase.metrics import save_scores
from cornercase.stats import export_pca_coords, pca_fit
from cornercase.synthetic import WHITEBOX_FAMILY, write_scene_set

# every writer module is loaded, so the spy below finds each binding
_WRITERS = (bench, cli, corruptions, density, embeddings, images, metrics, stats)


def _spy_on_write_file(monkeypatch) -> set:
    """The resolved paths written from here on, with every cornercase
    module's binding of images._write_file wrapped to record them."""
    original, written = images._write_file, set()

    def spy(path, pieces):
        written.add(Path(path).resolve())
        original(path, pieces)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cornercase" and getattr(module, "_write_file", None) is original:
            monkeypatch.setattr(module, "_write_file", spy)
    return written


def test_every_output_goes_through_write_file(tmp_path, monkeypatch):
    written = _spy_on_write_file(monkeypatch)
    t = tmp_path
    rng = np.random.default_rng(0)
    syn = t / "syn"
    es = EmbeddingSet(["café", "b"], rng.normal(size=(2, 3)))

    def scenes_and_depth():
        for path in write_scene_set(t / "scenes", WHITEBOX_FAMILY, 2, seed=0):
            h, w = images.read_png(path).shape[:2]
            depth = DepthMap(rng.uniform(2, 300, (h, w)), rng.random((h, w)) >= 0.1)
            save_depth(depth, t / "depth" / path.name, meters_per_unit=0.01)

    def maps():
        (t / "maps").mkdir()
        for i in range(2):
            write_png(t / "maps" / f"m{i}.png", rng.integers(0, 65536, (6, 9), dtype=np.uint16))

    def cli_step(*argv):
        def run():
            assert main([str(a) for a in argv]) == 0, argv[0]

        return run

    (t / "depth").mkdir()
    steps = {
        "synth": cli_step("synth", "--dim", 4, "--n-train", 30, "--n-test", 20, "--out", syn),
        "bench csv": cli_step("bench", "--config", syn / "config.json", "--out", t / "b1"),
        "bench markdown": cli_step(
            "bench", "--config", syn / "config.json", "--out", t / "b2", "--format", "markdown"
        ),
        "fit-gmm": cli_step("fit-gmm", "--embeddings", syn / "id_train.ccemb", "--components", 2,
                            "--out", t / "gmm.ccmdl"),
        "fit-knn": cli_step("fit-knn", "--embeddings", syn / "id_train.ccemb", "--k", 3,
                            "--out", t / "knn.ccmdl"),
        "score --model": cli_step("score", "--model", t / "knn.ccmdl", "--embeddings",
                                  syn / "id_test.ccemb", "--out", t / "knn.jsonl"),
        "maps": maps,
        "score --maps": cli_step("score", "--maps", t / "maps", "--out", t / "maps.jsonl"),
        "pca": cli_step("pca", "--embeddings", f"a={syn / 'id_test.ccemb'}", "--k", 2,
                        "--out", t / "pca.jsonl"),
        "scenes and depth maps": scenes_and_depth,
        "fog sweep": cli_step("sweep", "--images", t / "scenes", "--kind", "fog", "--grid",
                              "0.01,0.02", "--depth", t / "depth", "--out", t / "sw"),
        "white-box sweep": cli_step("sweep", "--images", t / "scenes", "--kind", "white_box",
                                    "--grid", "0.05,0.1", "--out", t / "sw"),
        "corrupt": cli_step("corrupt", "--images", t / "scenes", "--kind", "gaussian_noise",
                            "--severity", 0.05, "--out", t / "cor"),
        "save_feature_map": lambda: save_feature_map(FeatureMap(rng.random((2, 3, 4))), t / "f"),
        "save_embeddings text": lambda: save_embeddings(es, t / "e.jsonl", fmt="text"),
        "save_embeddings binary": lambda: save_embeddings(es, t / "e.ccemb", fmt="binary"),
    }
    for name, step in steps.items():
        step()
        missed = sorted(
            str(p.relative_to(t)) for p in t.rglob("*") if p.is_file() and p.resolve() not in written
        )
        assert not missed, f"{name} wrote {missed} around images._write_file"
    assert all(p.is_file() for p in written)


def test_persist_model_streams_the_index(tmp_path):
    # the index's own points are written as they are: before, two copies
    # (astype, tobytes) and a join peaked at 39.1 MiB for these 19.5 MiB
    index = KnnIndex(k=50, points=np.random.default_rng(0).normal(size=(20000, 128)))
    tracemalloc.start()
    try:
        persist_model(index, tmp_path / "knn.ccmdl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"persist_model peaked at {peak / 2**20:.1f} MiB"


def _container(magic, header, values, payload) -> bytes:
    """The bytes write_container used to join in memory."""
    head = magic + struct.pack("<H" + header, CONTAINER_VERSION, *values)
    return b"".join([head, *payload])


def _json_document(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_writers_match_reference_expressions(tmp_path):
    t = tmp_path
    rng = np.random.default_rng(5)
    scale = [1.0, 1e-9, 1e12, 3.0, -0.5]
    es = EmbeddingSet(["café", "中文-id", "plain"], rng.normal(size=(3, 5)) * scale)

    save_embeddings(es, t / "e.jsonl", fmt="text")
    lines = []
    for ident, row in zip(es.ids(), es.matrix()):
        vec = ", ".join(format(v, ".9g") for v in row.tolist())
        lines.append(f'{{"id": {json.dumps(ident)}, "vec": [{vec}]}}\n')
    assert (t / "e.jsonl").read_bytes() == "".join(lines).encode("utf-8")

    save_embeddings(es, t / "e.ccemb", fmt="binary")
    parts = []
    for ident, row in zip(es.ids(), es.matrix()):
        encoded = ident.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, row.astype("<f4").tobytes()]
    assert (t / "e.ccemb").read_bytes() == _container(EMBED_MAGIC, "IQ", (5, 3), parts)

    # a Fortran-ordered map is written channel-major all the same
    fm = FeatureMap(np.asfortranarray(rng.random((2, 3, 4))))
    save_feature_map(fm, t / "f.ccfmp")
    want = _container(FMAP_MAGIC, "III", (2, 3, 4), [fm.data.astype("<f4").tobytes()])
    assert (t / "f.ccfmp").read_bytes() == want

    gmm = fit_gmm(EmbeddingSet([f"t{i}" for i in range(40)], rng.normal(size=(40, 3))),
                  components=2, seed=1)
    knn = KnnIndex(k=2, points=np.asfortranarray(rng.normal(size=(6, 3))))
    for name, model, header, arrays in (
        ("gmm", gmm, ("BIIQq", (0, 2, 3, 40, 1)), (gmm.weights, gmm.means, gmm.variances)),
        ("knn", knn, ("BIIQ", (1, 3, 2, 6)), (knn.points,)),
    ):
        persist_model(model, t / f"{name}.ccmdl")
        payload = [a.astype("<f8").tobytes() for a in arrays]
        assert (t / f"{name}.ccmdl").read_bytes() == _container(MODEL_MAGIC, *header, payload)

    scores = rng.normal(size=3) * scale[:3]
    save_scores(t / "s.jsonl", es.ids(), scores, "ood")
    lines = [
        json.dumps({"id": ident, "score": score, "label": "ood"}) + "\n"
        for ident, score in zip(es.ids(), scores.tolist())
    ]
    assert (t / "s.jsonl").read_bytes() == "".join(lines).encode("utf-8")

    model = pca_fit(es, 2)
    export_pca_coords(model, [("ä", es)], t / "pca.jsonl")
    lines = []
    for ident, row in zip(es.ids(), stats.pca_transform(model, es.matrix())):
        coords = ", ".join(format(v, ".9g") for v in row.tolist())
        lines.append(f'{{"id": {json.dumps(ident)}, "dataset": {json.dumps("ä")}, '
                     f'"coords": [{coords}]}}\n')
    assert (t / "pca.jsonl").read_bytes() == "".join(lines).encode("utf-8")

    save_depth(DepthMap(np.full((2, 2), 3.0), np.ones((2, 2), bool)), t / "d.png", 0.01)
    assert (t / "d.png.json").read_bytes() == (json.dumps({"meters_per_unit": 0.01}) + "\n").encode()

    # the three indented JSON documents, and the bench's rendered report
    assert main(["synth", "--dim", "3", "--n-train", "20", "--n-test", "10", "--out", str(t / "b")]) == 0
    assert main(["bench", "--config", str(t / "b" / "config.json"), "--format", "markdown"]) == 0
    write_scene_set(t / "scenes", WHITEBOX_FAMILY, 2, seed=0)
    corruptions.run_sweep(t / "scenes", corruptions.severity_sweep("fog", [0.01]), t / "sw")
    for document in (t / "b" / "config.json", t / "b" / "report.json", t / "sw/fog/manifest.json"):
        text = document.read_bytes()
        assert text == _json_document(json.loads(text)), document
    report = bench.load_report_json(t / "b" / "report.json")
    rendered = bench.emit_report(report, "markdown")
    assert (t / "b" / "report.md").read_bytes() == rendered.encode("utf-8")
