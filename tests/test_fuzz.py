"""Byte-level fuzzing of every file loader.

Each case takes one valid file, applies a few byte edits (set, cut,
insert) and checks that loading it raises nothing but a CornerCaseError
or an OSError, and that the command that reads it exits 0, 2, 3 or 4
(2, 3 or 4 when the loader failed). A second test writes float64 values
from the whole range into models and embeddings and checks the same of
the commands that fit, score and project them, with warnings as errors.
Hypothesis runs derandomized, so every run tries the same edits and
values.
"""

import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornercase.bench import load_config, load_report_json
from cornercase.cli import main
from cornercase.density import GmmModel, KnnIndex, persist_model, restore_model
from cornercase.embeddings import EmbeddingSet, FeatureMap, load_embeddings, save_embeddings
from cornercase.embeddings import save_feature_map
from cornercase.errors import CornerCaseError
from cornercase.images import DepthMap, load_depth, load_image, save_depth, write_png
from cornercase.metrics import load_score_lines, save_scores
from cornercase.uncertainty import load_uncertainty_map


def _write_inputs(root):
    """One valid file per loader, plus what the commands that read them need."""
    rng = np.random.default_rng(0)
    es = EmbeddingSet([f"e{i}" for i in range(6)], rng.normal(size=(6, 2)))
    save_embeddings(es, root / "emb.ccemb", fmt="binary")
    save_embeddings(es, root / "emb.jsonl", fmt="text")
    persist_model(
        GmmModel(weights=[0.5, 0.5], means=rng.normal(size=(2, 2)), variances=np.ones((2, 2)),
                 trained_on=6, seed=0),
        root / "gmm.ccmdl",
    )
    persist_model(KnnIndex(k=1, points=rng.normal(size=(4, 2))), root / "knn.ccmdl")
    for name in ("fmaps", "pmaps", "imgs", "depth"):
        (root / name).mkdir()
    save_feature_map(FeatureMap(rng.uniform(size=(1, 4, 5))), root / "fmaps" / "m.ccfm")
    write_png(root / "pmaps" / "m.png", rng.integers(0, 65536, size=(4, 5)).astype(np.uint16))
    for name in ("a.png", "b.png"):
        write_png(root / "imgs" / name, rng.integers(0, 256, size=(6, 8, 3)).astype(np.uint8))
        depth = DepthMap(depth=rng.uniform(1.0, 50.0, size=(6, 8)), valid=np.ones((6, 8)))
        save_depth(depth, root / "depth" / name, meters_per_unit=0.01)
    save_scores(root / "scores.jsonl", ["a", "b", "c", "d"], [3.0, 2.5, 1.0, 0.5], "id")
    with (root / "scores.jsonl").open("a", encoding="utf-8") as fh:
        fh.write('{"id": "x", "score": 0.75, "label": "ood"}\n')
    for name, n in (("cfg_train", 10), ("cfg_test", 4), ("cfg_ood", 4)):
        matrix = rng.normal(size=(n, 6))
        save_embeddings(EmbeddingSet([f"r{i}" for i in range(n)], matrix), root / f"{name}.ccemb")
    config = {
        "schema": 1,
        "seed": 0,
        "methods": ["gmm", "knn"],
        "gmm_components": 1,
        "knn_k": 2,
        "id_train": {"name": "train", "role": "id_train", "path": "cfg_train.ccemb"},
        "id_test": {"name": "test", "role": "id_test", "path": "cfg_test.ccemb"},
        "ood_sets": [{"name": "shift", "role": "ood", "path": "cfg_ood.ccemb"}],
        "sweep": {"kind": "gaussian_noise", "grid": [0.05, 0.1, 0.2], "encoder_grid": 1,
                  "images": "imgs"},
    }
    (root / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
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
    (root / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")


def _fit_knn(w, f):
    return ["fit-knn", "--embeddings", str(f), "--out", str(w / "o.ccmdl"), "--k", "1"]


def _score(w, f):
    return ["score", "--model", str(f), "--embeddings", str(w / "emb.ccemb"),
            "--out", str(w / "s.jsonl")]


def _score_maps(w, f):
    return ["score", "--maps", str(f.parent), "--out", str(w / "s.jsonl")]


def _corrupt(w, f, *extra):
    return ["corrupt", "--images", str(w / "imgs"), "--severity", "0.05",
            "--out", str(w / "o"), *extra]


# file under test -> (its loader, the command that reads it)
CASES = {
    "emb.ccemb": (load_embeddings, _fit_knn),
    "emb.jsonl": (load_embeddings, _fit_knn),
    "gmm.ccmdl": (restore_model, _score),
    "knn.ccmdl": (restore_model, _score),
    "fmaps/m.ccfm": (load_uncertainty_map, _score_maps),
    "pmaps/m.png": (load_uncertainty_map, _score_maps),
    "imgs/a.png": (load_image, lambda w, f: _corrupt(w, f, "--kind", "gaussian_noise")),
    "depth/a.png": (
        load_depth,
        lambda w, f: _corrupt(w, f, "--kind", "fog", "--depth", str(w / "depth")),
    ),
    "depth/a.png.json": (
        lambda f: load_depth(str(f)[: -len(".json")]),
        lambda w, f: _corrupt(w, f, "--kind", "fog", "--depth", str(w / "depth")),
    ),
    "scores.jsonl": (load_score_lines, lambda w, f: ["eval", "--scores", str(f)]),
    "config.json": (
        load_config,
        lambda w, f: ["bench", "--config", str(f), "--out", str(w / "out")],
    ),
    "report.json": (load_report_json, lambda w, f: ["report", "--report", str(f)]),
}

# (operation, position, byte); positions wrap around the file's length
EDITS = st.lists(
    st.tuples(
        st.sampled_from(("set", "cut", "insert")),
        st.integers(0, 1 << 16),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=3,
)


def _edit(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for op, at, value in edits:
        if op == "insert":
            out.insert(at % (len(out) + 1), value)
        elif out and op == "set":
            out[at % len(out)] = value
        elif out:
            del out[at % len(out)]
    return bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    _write_inputs(root)
    return root


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(edits=EDITS)
def test_damaged_file_ends_in_typed_error(inputs, case, edits):
    load, argv = CASES[case]
    path = inputs / case
    original = path.read_bytes()
    try:
        path.write_bytes(_edit(original, edits))
        try:
            load(path)
            loaded = True
        except (CornerCaseError, OSError):
            loaded = False
        assert main(argv(inputs, path)) in ((0, 2, 3, 4) if loaded else (2, 3, 4))
    finally:
        path.write_bytes(original)


def test_inputs_are_valid(tmp_path):
    """Unedited, every file loads and every command succeeds."""
    _write_inputs(tmp_path)
    for case, (load, argv) in CASES.items():
        load(tmp_path / case)
        assert main(argv(tmp_path, tmp_path / case)) == 0, case


def _payload(size):
    """size float64 values on one scale: mantissas in [-10, 10] times 10**e,
    e anywhere in [-308, 308]; mantissas near 10 at e = 308 overflow to
    infinities."""
    return st.builds(
        lambda e, mantissas: [m * 10.0**e for m in mantissas],
        st.integers(-308, 308),
        st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size),
    )


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(means=_payload(4), variances=_payload(4), rows=_payload(12))
def test_wide_floats_end_in_typed_errors(inputs, means, variances, rows):
    work = inputs / "wide"
    work.mkdir(exist_ok=True)
    # a CCMDL1 file ends in its float64 values: a gmm's 2 weights (kept), 2x2
    # means and 2x2 variances, here above the 1e-6 floor; a knn index's 4x2 points
    for name, values in (("gmm.ccmdl", [*means, *(1e-6 + abs(v) for v in variances)]),
                         ("knn.ccmdl", [*means, *variances])):
        head = (inputs / name).read_bytes()[: -8 * len(values)]
        (work / name).write_bytes(head + struct.pack(f"<{len(values)}d", *values))
    emb = work / "e.jsonl"
    emb.write_text("".join(
        json.dumps({"id": f"r{i}", "vec": rows[2 * i : 2 * i + 2]}) + "\n" for i in range(6)
    ))
    out = ["--out", str(work / "o")]
    # (files the command reads, its argv)
    commands = [
        ((work / "gmm.ccmdl", emb), ["score", "--model", str(work / "gmm.ccmdl"),
                                     "--embeddings", str(emb), *out]),
        ((work / "knn.ccmdl", emb), ["score", "--model", str(work / "knn.ccmdl"),
                                     "--embeddings", str(emb), *out]),
        ((emb,), ["fit-gmm", "--embeddings", str(emb), "--components", "2", *out]),
        ((emb,), ["fit-knn", "--embeddings", str(emb), "--k", "2", *out]),
        ((emb,), ["pca", "--embeddings", f"a={emb}", "--k", "2", *out]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = {}
        for path, load in ((work / "gmm.ccmdl", restore_model),
                           (work / "knn.ccmdl", restore_model), (emb, load_embeddings)):
            try:
                load(path)
                loaded[path] = True
            except (CornerCaseError, OSError):
                loaded[path] = False
        for reads, argv in commands:
            allowed = (0, 2, 3, 4) if all(loaded[f] for f in reads) else (2, 3, 4)
            assert main(argv) in allowed, argv
