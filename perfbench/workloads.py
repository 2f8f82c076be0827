"""The four benchmark workloads: inputs, the plan the program runs, the
amount of work one run completes, and the output checks.

Every workload writes its inputs under ``<work>/in`` from the workload
seed and has the program write under ``<work>/out``. Checks test
properties of the outputs against the oracles in oracles.py; they do
not replay the program's own seed scheme.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles

# Sizes. One run of each workload takes 2-4 seconds on a 2-core
# machine, so a 20-second measurement gets six or more fresh-process
# runs and their median shrugs off a slow one.
# EM has no iteration cap and stops on its relative-tolerance test. At
# tol 1e-5 it takes 13-19 iterations over seeds 1-20; at the default
# 1e-6 it took 39-62, which would spread wall time across seeds.
COVARIATE = {"dim": 128, "train": 8000, "test": 300, "ood": 300, "shift": 8.0,
             "components": 4, "k": 50, "tol": 1e-5}
SWEEP_SCORE = {"height": 64, "width": 96, "train": 160, "test": 32, "ood": 32,
               "preset": "noise-paper", "severities": 50}
SWEEP_WRITE = {"height": 192, "width": 288, "frames": 4,
               "preset": "whitebox-paper", "severities": 20}
MAPS = {"height": 192, "width": 384, "id": 20, "ood": 40}

NOISE_PAPER = np.linspace(0.001, 0.01, 50)
WHITEBOX_PAPER = np.linspace(0.007, 0.119, 20)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    items: int
    item_unit: str
    generate: Callable
    check: Callable


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _report(work: Path, name: str) -> dict:
    return json.loads((work / "out" / name / "report.json").read_text(encoding="utf-8"))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _compare_row(row: dict, expected: dict, tol: float, label: str) -> list[str]:
    return [
        f"{label} {key}: report {row[key]!r}, oracle {want!r}"
        for key, want in expected.items()
        if not _close(row[key], want, tol)
    ]


def _in_range(row: dict, label: str) -> list[str]:
    return [
        f"{label} {key}={row[key]!r} outside [0, 100]"
        for key in ("fpr_at_95", "auroc", "aupr_in", "aupr_out")
        if not 0.0 <= row[key] <= 100.0
    ]


# ---------------------------------------------------------------------------
# covariate-embed
# ---------------------------------------------------------------------------


def _generate_covariate(work: Path, seed: int) -> tuple[list, dict]:
    c = COVARIATE
    rng = _rng(seed, 1)
    direction = rng.standard_normal(c["dim"])
    direction /= np.linalg.norm(direction)
    sets = {
        "id_train": inputs.gaussian_rows(rng, c["train"], c["dim"], 0.0),
        "id_test": inputs.gaussian_rows(rng, c["test"], c["dim"], 0.0),
        "ood_shifted": inputs.gaussian_rows(rng, c["ood"], c["dim"], c["shift"] * direction),
    }
    base = work / "in" / "cov"
    base.mkdir(parents=True)
    ids = {name: inputs.write_embeddings(base / f"{name}.ccemb", name[:3], m) for name, m in sets.items()}
    _write_json(base / "config.json", {
        "schema": 1,
        "seed": seed,
        "methods": ["gmm", "knn"],
        "gmm_components": c["components"],
        "knn_k": c["k"],
        "tol": c["tol"],
        "id_train": {"name": "id_train", "role": "id_train", "path": "id_train.ccemb"},
        "id_test": {"name": "id_test", "role": "id_test", "path": "id_test.ccemb"},
        "ood_sets": [{"name": "shifted", "role": "ood", "path": "ood_shifted.ccemb"}],
    })
    plan = [
        {"cli": ["bench", "--config", "in/cov/config.json", "--out", "out/cov"]},
        {"cli": ["pca", "--embeddings", "id_test=in/cov/id_test.ccemb",
                 "--embeddings", "shifted=in/cov/ood_shifted.ccemb",
                 "--out", "out/cov/pca.jsonl"]},
    ]
    files = {f"in/cov/{name}.ccemb": (ids[name], m) for name, m in sets.items()}
    return plan, {"sets": sets, "ids": ids, "embedding_files": files, "seed": seed}


def _check_covariate(work: Path, ctx: dict) -> list[str]:
    c, sets = COVARIATE, {k: v.astype(float) for k, v in ctx["sets"].items()}
    report = _report(work, "cov")
    problems = []
    rows = {(r["method"], r["dataset"]): r for r in report["rows"]}
    if sorted(rows) != [("gmm", "shifted"), ("knn", "shifted")]:
        return [f"covariate report rows {sorted(rows)}"]
    if report["provenance"].get("seed") != str(ctx["seed"]):
        problems.append("covariate report does not record the config seed")

    train, test, ood = sets["id_train"], sets["id_test"], sets["ood_shifted"]
    kth_test = oracles.knn_kth_sqdist(train, test, c["k"])
    kth_ood = oracles.knn_kth_sqdist(train, ood, c["k"])
    sample = np.random.default_rng(ctx["seed"]).choice(len(test), 16, replace=False)
    for i in sample:
        brute = oracles.knn_brute_force(train, test[i], c["k"])
        if not _close(kth_test[i], brute, 1e-9 * brute):
            problems.append(f"kNN oracle disagrees with brute force on query {i}")
    problems += _compare_row(rows["knn", "shifted"], oracles.detection_report(-kth_test, -kth_ood), 1e-6, "knn")
    for method in ("gmm", "knn"):
        row = rows[method, "shifted"]
        problems += _in_range(row, method)
        # an 8-sigma mean shift in 128 dimensions is plain to both detectors
        if row["auroc"] < 80.0:
            problems.append(f"{method} misses the mean shift (AUROC {row['auroc']:.2f})")

    lines = (work / "out" / "cov" / "pca.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    expected_keys = [("id_test", i) for i in ctx["ids"]["id_test"]] + [
        ("shifted", i) for i in ctx["ids"]["ood_shifted"]
    ]
    if [(r["dataset"], r["id"]) for r in records] != expected_keys:
        return problems + ["pca export does not list every record once, in order"]
    coords = np.array([r["coords"] for r in records])
    want = oracles.pca_coords(np.vstack([test, ood]), coords.shape[1])
    if coords.shape[1] != min(50, c["dim"], len(records) - 1):
        problems.append(f"pca export has {coords.shape[1]} coordinates")
    for j in range(coords.shape[1]):
        sign = 1.0 if coords[:, j] @ want[:, j] >= 0 else -1.0
        scale = np.abs(want[:, j]).max()
        if np.abs(coords[:, j] - sign * want[:, j]).max() > 1e-6 * scale:
            problems.append(f"pca coordinate {j} differs from the SVD projection")
            break
    return problems


# ---------------------------------------------------------------------------
# sweep-score
# ---------------------------------------------------------------------------


def _write_scenes(directory: Path, rng, count: int, palette: str) -> dict:
    directory.mkdir(parents=True)
    files = {}
    for i in range(count):
        img = inputs.road_scene(rng, SWEEP_SCORE["height"], SWEEP_SCORE["width"], palette, 0.025)
        rel = directory / f"scene-{i:04d}.png"
        inputs.write_png(rel, img)
        files[str(rel)] = img
    return files


def _generate_sweep_score(work: Path, seed: int) -> tuple[list, dict]:
    s = SWEEP_SCORE
    rng = _rng(seed, 2)
    base = work / "in" / "scn"
    images = {}
    for name, count, palette in (("train", s["train"], "day"), ("test", s["test"], "day"), ("ood", s["ood"], "dusk")):
        images.update(_write_scenes(base / name, rng, count, palette))
    _write_json(base / "config.json", {
        "schema": 1,
        "seed": seed,
        "methods": ["gmm"],
        "gmm_components": 4,
        "id_train": {"name": "id_train", "role": "id_train", "path": "train"},
        "id_test": {"name": "id_test", "role": "id_test", "path": "test"},
        "ood_sets": [{"name": "dusk", "role": "ood", "path": "ood"}],
        "sweep": {"kind": "gaussian_noise", "preset": s["preset"], "encoder": "toy"},
    })
    plan = [{"cli": ["bench", "--config", "in/scn/config.json", "--out", "out/scn"]}]
    return plan, {"png_files": {str(Path(k).relative_to(work)): v for k, v in images.items()}}


def _check_sweep_score(work: Path, ctx: dict) -> list[str]:
    report = _report(work, "scn")
    problems = []
    if [(r["method"], r["dataset"]) for r in report["rows"]] != [("gmm", "dusk")]:
        return [f"sweep-score report rows {report['rows']}"]
    problems += _in_range(report["rows"][0], "gmm dusk")
    if (report["sweep_kind"], report["sweep_method"]) != ("gaussian_noise", "gmm"):
        problems.append("sweep-score report names the wrong sweep kind or method")
    sweep = report["sweep_rows"]
    severities = np.array([r["severity"] for r in sweep])
    if severities.shape != NOISE_PAPER.shape or np.abs(severities - NOISE_PAPER).max() > 1e-12:
        return problems + ["sweep rows do not follow the noise-paper grid"]
    for r in sweep:
        problems += _in_range(r, f"severity {r['severity']:.6g}")
    expected = {}
    for metric in ("fpr_at_95", "auroc"):
        values = np.array([r[metric] for r in sweep])
        if values.std() > 0:
            expected[metric, "pearson"] = oracles.pearson(severities, values)
            expected[metric, "spearman"] = oracles.spearman(severities, values)
    got = {(c["metric"], c["kind"]): c for c in report["correlations"]}
    if sorted(got) != sorted(expected):
        return problems + [f"correlation rows {sorted(got)}, expected {sorted(expected)}"]
    for key, want in expected.items():
        corr = got[key]
        if not _close(corr["coefficient"], want, 1e-9) or corr["n"] != len(sweep):
            problems.append(f"{key} correlation {corr['coefficient']!r}, oracle {want!r}")
        if not 0.0 <= corr["p_value"] <= 1.0:
            problems.append(f"{key} p-value {corr['p_value']!r} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# sweep-write
# ---------------------------------------------------------------------------


def _generate_sweep_write(work: Path, seed: int) -> tuple[list, dict]:
    s = SWEEP_WRITE
    rng = _rng(seed, 3)
    base = work / "in" / "frames"
    base.mkdir(parents=True)
    frames = {}
    for i in range(s["frames"]):
        img = inputs.textured_frame(rng, s["height"], s["width"])
        inputs.write_png(base / f"frame-{i:03d}.png", img, inputs.cycled_filters(s["height"]))
        frames[f"in/frames/frame-{i:03d}.png"] = img
    plan = [{"cli": ["sweep", "--images", "in/frames", "--kind", "white_box",
                     "--preset", s["preset"], "--out", "out/sweep"]}]
    return plan, {"png_files": frames}


def _check_sweep_write(work: Path, ctx: dict) -> list[str]:
    sources = ctx["png_files"]
    kind_dir = work / "out" / "sweep" / "white_box"
    manifest = json.loads((kind_dir / "manifest.json").read_text(encoding="utf-8"))
    entries = manifest["entries"]
    pairs = sorted((Path(e["source"]).as_posix(), e["severity"]) for e in entries)
    want = sorted((src, float(sev)) for src in sources for sev in WHITEBOX_PAPER)
    if len(pairs) != len(want) or any(
        a[0] != b[0] or not _close(a[1], b[1], 1e-12) for a, b in zip(pairs, want)
    ):
        return ["sweep manifest does not hold one entry per (source, severity)"]
    problems = []
    for e in entries:
        out = work / e["output"]
        src = Path(e["source"])
        if out.parent.parent != kind_dir or out.name != src.name or not _close(float(out.parent.name), e["severity"], 1e-5 * e["severity"]):
            problems.append(f"sweep output {e['output']} is outside <out>/<kind>/<severity>/")
            continue
        before = sources[src.as_posix()]
        after = oracles.decode_png(out.read_bytes())
        h, w = before.shape[:2]
        side = min(int(math.floor(math.sqrt(e["severity"] * h * w) + 0.5)), h, w)
        changed = (after != before).any(axis=2)
        rows, cols = np.flatnonzero(changed.any(axis=1)), np.flatnonzero(changed.any(axis=0))
        box_ok = not changed.any() if side == 0 else (
            rows.size == side == cols.size
            and rows[-1] - rows[0] + 1 == side
            and cols[-1] - cols[0] + 1 == side
            and changed.sum() == side * side
            and (after[changed] == 255).all()
        )
        if not box_ok:
            problems.append(f"{e['output']} differs from its source outside one white {side}x{side} square")
    return problems


# ---------------------------------------------------------------------------
# semantic-maps
# ---------------------------------------------------------------------------


def _generate_maps(work: Path, seed: int) -> tuple[list, dict]:
    m = MAPS
    rng = _rng(seed, 4)
    base = work / "in" / "maps"
    for sub in ("id", "ood", "gt"):
        (base / sub).mkdir(parents=True)
    maps, truths, pngs = {}, {}, {}
    for split, count in (("id", m["id"]), ("ood", m["ood"])):
        for i in range(count):
            values, truth = inputs.uncertainty_map(rng, m["height"], m["width"], 0 if split == "id" else int(rng.integers(1, 4)))
            rel = f"in/maps/{split}/map-{i:03d}.png"
            inputs.write_png(work / rel, values)
            maps[rel], pngs[rel] = values, values
            if split == "ood":
                gt_rel = f"in/maps/gt/map-{i:03d}.png"
                inputs.write_png(work / gt_rel, truth)
                truths[rel], pngs[gt_rel] = truth, truth
    _write_json(base / "config.json", {
        "schema": 1,
        "seed": seed,
        "methods": ["mean_uncertainty"],
        "id_train": {"name": "id_train", "role": "id_train", "path": "id"},
        "id_test": {"name": "id_test", "role": "id_test", "path": "id"},
        "ood_sets": [{"name": "anomalies", "role": "ood", "path": "ood"}],
    })
    ood = sorted(truths)
    plan = [
        {"cli": ["bench", "--config", "in/maps/config.json", "--out", "out/maps"]},
        {"pixel": {"maps": ood, "ground_truth": [p.replace("/ood/", "/gt/") for p in ood],
                   "out": "out/maps/pixel.json"}},
    ]
    return plan, {"maps": maps, "truths": truths, "png_files": pngs}


def _check_maps(work: Path, ctx: dict) -> list[str]:
    report = _report(work, "maps")
    if [(r["method"], r["dataset"]) for r in report["rows"]] != [("mean_uncertainty", "anomalies")]:
        return [f"semantic-maps report rows {report['rows']}"]
    score = {rel: -float(np.mean(v / 65535.0)) for rel, v in ctx["maps"].items()}
    id_scores = np.array([score[r] for r in sorted(score) if "/id/" in r])
    ood_scores = np.array([score[r] for r in sorted(score) if "/ood/" in r])
    problems = _compare_row(report["rows"][0], oracles.detection_report(id_scores, ood_scores), 1e-6, "mean_uncertainty")

    ood = sorted(ctx["truths"])
    values = np.concatenate([ctx["maps"][r] for r in ood]).ravel() / 65535.0
    truth = np.concatenate([ctx["truths"][r] for r in ood]).ravel()
    valid = (truth == 0) | (truth == 255)
    scores, positive = values[valid], truth[valid] == 255
    want = {
        "pixel_ap": 100.0 * oracles.average_precision(scores, positive),
        "pixel_fpr_at_95": oracles.fpr_at_tpr(scores[positive], scores[~positive]),
    }
    got = json.loads((work / "out" / "maps" / "pixel.json").read_text(encoding="utf-8"))
    for key, value in want.items():
        if not _close(got[key], value, 1e-9 * max(1.0, value)):
            problems.append(f"{key}: program {got[key]!r}, oracle {value!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="covariate-embed",
            sizes=COVARIATE,
            items=2 * (COVARIATE["test"] + COVARIATE["ood"]),
            item_unit="rows scored (two methods)",
            generate=_generate_covariate,
            check=_check_covariate,
        ),
        Workload(
            name="sweep-score",
            sizes=SWEEP_SCORE,
            items=SWEEP_SCORE["test"] * SWEEP_SCORE["severities"],
            item_unit="image x severity pairs",
            generate=_generate_sweep_score,
            check=_check_sweep_score,
        ),
        Workload(
            name="sweep-write",
            sizes=SWEEP_WRITE,
            items=SWEEP_WRITE["frames"] * SWEEP_WRITE["severities"],
            item_unit="image x severity pairs",
            generate=_generate_sweep_write,
            check=_check_sweep_write,
        ),
        Workload(
            name="semantic-maps",
            sizes=MAPS,
            items=MAPS["ood"] * MAPS["height"] * MAPS["width"],
            item_unit="pooled OOD map pixels",
            generate=_generate_maps,
            check=_check_maps,
        ),
    )
}
