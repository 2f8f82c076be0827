"""Declarative benchmark runner: manifests + models + corruption sweeps
in, detection-report tables out.

A run is a pure function of the config plus the referenced files: all
randomness derives from the config seed, reports carry a content hash
of the config, and emitting the same report twice produces identical
bytes. Sweep rows are scored with the first configured method (the
correlation analysis in the source benchmarks uses the GMM detector).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corruptions import (
    CORRUPTION_KINDS,
    DEFAULT_ATMOSPHERIC_LIGHT,
    SWEEP_PRESETS,
    severity_dirname,
    severity_sweep,
    sweep_images,
)
from .density import build_knn_index, fit_gmm, fit_gmm_bic, score_set
from .embeddings import (
    DatasetManifest,
    EmbeddingSet,
    load_embeddings,
    save_embeddings,
    toy_encode,
)
from .errors import ConfigError, DegenerateInputError, ValidationError
from .images import load_depth, load_image
from .metrics import DetectionReport, LabeledScores, detection_report
from .stats import CorrelationResult, pearson, spearman
from .uncertainty import load_uncertainty_map, mean_uncertainty
from .version import TOOLKIT_VERSION

SCHEMA_VERSION = 1

BENCH_METHODS = ("gmm", "knn", "mean_uncertainty")

REPORT_COLUMNS = ("fpr_at_95", "auroc", "aupr_in", "aupr_out")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSettings:
    """Optional corruption sweep attached to a benchmark run."""

    kind: str
    preset: str | None = None
    grid: tuple = ()
    encoder: str = "toy"
    encoder_grid: int = 4
    images: str | None = None
    depth: str | None = None
    atmospheric_light: float = DEFAULT_ATMOSPHERIC_LIGHT
    severity_embeddings: tuple = ()

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ConfigError(f"unknown sweep kind {self.kind!r}")
        if (self.preset is None) == (len(self.grid) == 0):
            raise ConfigError("sweep needs exactly one of preset or grid")
        if self.preset is not None and self.preset not in SWEEP_PRESETS:
            raise ConfigError(f"unknown sweep preset {self.preset!r}")
        if self.encoder not in ("toy", "external"):
            raise ConfigError(f"sweep encoder must be 'toy' or 'external', got {self.encoder!r}")
        if self.encoder_grid < 1:
            raise ConfigError("encoder_grid must be a positive integer")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "severity_embeddings", tuple(self.severity_embeddings))
        if self.encoder == "external":
            if len(self.severity_embeddings) != len(self.severities()):
                raise ConfigError(
                    "external sweep needs one embedding file per severity "
                    f"({len(self.severities())} severities, "
                    f"{len(self.severity_embeddings)} files)"
                )

    def severities(self) -> tuple:
        if self.preset is not None:
            return SWEEP_PRESETS[self.preset][1]
        return self.grid


@dataclass(frozen=True)
class BenchConfig:
    """Everything a benchmark run depends on, seeds included."""

    seed: int
    methods: tuple
    id_train: DatasetManifest
    id_test: DatasetManifest
    ood_sets: tuple
    gmm_components: int = 4
    gmm_bic: bool = False
    knn_k: int = 50
    max_iters: int = 200
    tol: float = 1e-6
    tpr_target: float = 0.95
    sweep: SweepSettings | None = None

    def __post_init__(self):
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("config needs at least one method")
        for m in methods:
            if m not in BENCH_METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {BENCH_METHODS}")
        if len(set(methods)) != len(methods):
            raise ConfigError("methods must be unique")
        ood_sets = tuple(self.ood_sets)
        if not ood_sets:
            raise ConfigError("config needs at least one ood_set")
        if self.gmm_components < 1 or self.knn_k < 1:
            raise ConfigError("gmm_components and knn_k must be positive")
        if not 0.0 < self.tpr_target <= 1.0:
            raise ConfigError("tpr_target must lie in (0, 1]")
        if self.sweep is not None and methods[0] == "mean_uncertainty":
            raise ConfigError(
                "sweep scoring requires gmm or knn as the first configured method"
            )
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "ood_sets", ood_sets)


def _manifest_to_dict(m: DatasetManifest) -> dict:
    return {"name": m.name, "role": m.role, "path": m.path}


def config_to_dict(cfg: BenchConfig) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "seed": cfg.seed,
        "methods": list(cfg.methods),
        "id_train": _manifest_to_dict(cfg.id_train),
        "id_test": _manifest_to_dict(cfg.id_test),
        "ood_sets": [_manifest_to_dict(m) for m in cfg.ood_sets],
        "gmm_components": cfg.gmm_components,
        "gmm_bic": cfg.gmm_bic,
        "knn_k": cfg.knn_k,
        "max_iters": cfg.max_iters,
        "tol": cfg.tol,
        "tpr_target": cfg.tpr_target,
    }
    if cfg.sweep is not None:
        s = cfg.sweep
        out["sweep"] = {
            "kind": s.kind,
            "preset": s.preset,
            "grid": list(s.grid),
            "encoder": s.encoder,
            "encoder_grid": s.encoder_grid,
            "images": s.images,
            "depth": s.depth,
            "atmospheric_light": s.atmospheric_light,
            "severity_embeddings": list(s.severity_embeddings),
        }
    return out


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return d[key]


def _integer(value, where: str) -> int:
    """An int, or a float with an integral value; bools, strings and
    fractional values are rejected rather than coerced or truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where}: expected an integer, got {value!r}")


def _manifest_from_dict(d: dict, base: Path, where: str) -> DatasetManifest:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: manifest must be an object")
    name = _require(d, "name", where)
    role = _require(d, "role", where)
    path = _require(d, "path", where)
    try:
        return DatasetManifest(name=name, role=role, path=str((base / path)))
    except ValidationError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(data: dict, base_dir) -> BenchConfig:
    """Build a config from parsed JSON; relative paths resolve against
    base_dir. Future schema versions are rejected."""
    base = Path(base_dir)
    if "schema" not in data:
        raise ConfigError("config is missing the schema field")
    if data["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema {data['schema']} is not supported "
            f"(this toolkit reads schema {SCHEMA_VERSION})"
        )
    try:
        sweep = None
        if data.get("sweep") is not None:
            s = data["sweep"]
            if not isinstance(s, dict):
                raise ConfigError("sweep: must be an object")
            images = s.get("images")
            depth = s.get("depth")
            sweep = SweepSettings(
                kind=_require(s, "kind", "sweep"),
                preset=s.get("preset"),
                grid=tuple(s.get("grid") or ()),
                encoder=s.get("encoder", "toy"),
                encoder_grid=_integer(s.get("encoder_grid", 4), "sweep.encoder_grid"),
                images=str(base / images) if images else None,
                depth=str(base / depth) if depth else None,
                atmospheric_light=float(s.get("atmospheric_light", DEFAULT_ATMOSPHERIC_LIGHT)),
                severity_embeddings=tuple(
                    str(base / p) for p in s.get("severity_embeddings") or ()
                ),
            )
        return BenchConfig(
            seed=_integer(_require(data, "seed", "config"), "seed"),
            methods=tuple(_require(data, "methods", "config")),
            id_train=_manifest_from_dict(_require(data, "id_train", "config"), base, "id_train"),
            id_test=_manifest_from_dict(_require(data, "id_test", "config"), base, "id_test"),
            ood_sets=tuple(
                _manifest_from_dict(m, base, f"ood_sets[{i}]")
                for i, m in enumerate(_require(data, "ood_sets", "config"))
            ),
            gmm_components=_integer(data.get("gmm_components", 4), "gmm_components"),
            gmm_bic=bool(data.get("gmm_bic", False)),
            knn_k=_integer(data.get("knn_k", 50), "knn_k"),
            max_iters=_integer(data.get("max_iters", 200), "max_iters"),
            tol=float(data.get("tol", 1e-6)),
            tpr_target=float(data.get("tpr_target", 0.95)),
            sweep=sweep,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path) -> BenchConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config_from_dict(data, path.parent)


def config_digest(cfg: BenchConfig) -> str:
    """Content hash of the canonical config serialization."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchReport:
    """Detection rows per (method, dataset), optional sweep and correlations."""

    rows: tuple
    sweep_kind: str | None = None
    sweep_method: str | None = None
    sweep_rows: tuple = ()
    correlations: tuple = ()
    provenance: tuple = ()

    def provenance_dict(self) -> dict:
        return dict(self.provenance)


# ---------------------------------------------------------------------------
# dataset materialization
# ---------------------------------------------------------------------------


def _sorted_pngs(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.suffix.lower() == ".png")


def load_dataset_embeddings(manifest: DatasetManifest, grid: int = 4) -> EmbeddingSet:
    """Embeddings from a file, or toy-encoded from an image directory."""
    path = Path(manifest.path)
    if path.is_dir():
        pngs = _sorted_pngs(path)
        if not pngs:
            raise ValidationError(f"{manifest.name}: no PNG images under {path}")
        return EmbeddingSet(
            [p.stem for p in pngs], [toy_encode(load_image(p), grid=grid) for p in pngs]
        )
    return load_embeddings(path)


def load_dataset_maps(manifest: DatasetManifest) -> list:
    """(sample id, UncertaintyMap) pairs from a directory of map files."""
    path = Path(manifest.path)
    if not path.is_dir():
        raise ValidationError(
            f"{manifest.name}: mean_uncertainty needs a directory of uncertainty "
            f"maps, got file {path}"
        )
    files = sorted(
        p for p in path.iterdir() if p.suffix.lower() in (".png", ".ccfm", ".bin")
    )
    if not files:
        raise ValidationError(f"{manifest.name}: no uncertainty maps under {path}")
    return [(p.stem, load_uncertainty_map(p)) for p in files]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _fit_method(method: str, train: EmbeddingSet, cfg: BenchConfig):
    if method == "gmm":
        if cfg.gmm_bic:
            return fit_gmm_bic(train, seed=cfg.seed, max_iters=cfg.max_iters, tol=cfg.tol)
        return fit_gmm(
            train,
            components=cfg.gmm_components,
            seed=cfg.seed,
            max_iters=cfg.max_iters,
            tol=cfg.tol,
        )
    if method == "knn":
        return build_knn_index(train, k=cfg.knn_k)
    return None


def _check_dim(train: EmbeddingSet, es: EmbeddingSet, name: str):
    if es.dim != train.dim:
        raise ValidationError(
            f"embedding dim mismatch: train dim {train.dim}, {name} dim {es.dim}"
        )


def _sweep_specs(sweep: SweepSettings, seed: int) -> list:
    grid_arg = sweep.preset if sweep.preset is not None else sweep.grid
    return severity_sweep(
        sweep.kind, grid_arg, base_seed=seed, atmospheric_light=sweep.atmospheric_light
    )


def _sweep_correlations(severities, sweep_reports) -> tuple:
    """Pearson and Spearman of severity against FPR@95 and AUROC.

    Degenerate series (a metric constant across the sweep) yield no
    correlation row; at least 3 severities are needed for any row.
    """
    out = []
    if len(severities) < 3:
        return tuple(out)
    for metric in ("fpr_at_95", "auroc"):
        values = [getattr(rep, metric) for rep in sweep_reports]
        for fn in (pearson, spearman):
            try:
                out.append((metric, fn(severities, values)))
            except DegenerateInputError:
                continue
    return tuple(out)


def _score_sweep(model, id_set: EmbeddingSet, severity_sets, specs, tpr_target) -> tuple:
    """Score the ID side once and each spec's severity set against it.

    severity_sets aligns with specs and is consumed lazily, one set at a
    time. Returns (sweep_rows, correlations).
    """
    severities = [spec.severity for spec in specs]
    id_scores = score_set(model, id_set)
    reports = [
        detection_report(LabeledScores(id_scores, score_set(model, es)), tpr_target)
        for es in severity_sets
    ]
    return tuple(zip(severities, reports)), _sweep_correlations(severities, reports)


def run_corruption_sweep(
    clean_images,
    specs,
    model,
    *,
    grid: int = 4,
    depths=None,
    tpr_target: float = 0.95,
) -> tuple:
    """Corrupt, encode and score a set of named clean images per severity.

    clean_images is a sequence of (sample_id, ImageBuffer); depths, when
    given, aligns with it. The ID side of every severity report is the
    toy encoding of the clean images. Returns (sweep_rows, correlations).
    """
    clean_images = list(clean_images)
    if not clean_images:
        raise ValidationError("sweep needs at least one clean image")
    specs = list(specs)
    depths = [None] * len(clean_images) if depths is None else list(depths)
    if len(depths) != len(clean_images):
        raise ValidationError(f"{len(depths)} depth maps for {len(clean_images)} images")
    ids = [sid for sid, _ in clean_images]
    id_set = EmbeddingSet(ids, [toy_encode(img, grid=grid) for _, img in clean_images])
    # one array rather than lists of small rows: rows kept alive between
    # the per-image temporaries made the allocator re-fault their pages
    feats = np.empty((len(specs), len(ids), id_set.dim))
    sources = zip((img for _, img in clean_images), depths)
    for i, j, _, corrupted in sweep_images(sources, specs):
        feats[j, i] = toy_encode(corrupted, grid=grid)
    severity_sets = (EmbeddingSet(ids, per_spec) for per_spec in feats)
    return _score_sweep(model, id_set, severity_sets, specs, tpr_target)


def _run_sweep_for_config(cfg: BenchConfig, train: EmbeddingSet, model) -> tuple:
    sweep = cfg.sweep
    specs = _sweep_specs(sweep, cfg.seed)
    if sweep.encoder == "external":
        id_test = load_dataset_embeddings(cfg.id_test, sweep.encoder_grid)
        _check_dim(train, id_test, "sweep id side")

        def severity_sets():
            for spec, emb_path in zip(specs, sweep.severity_embeddings):
                es = load_embeddings(emb_path)
                _check_dim(train, es, f"sweep severity {severity_dirname(spec.severity)}")
                yield es

        return _score_sweep(model, id_test, severity_sets(), specs, cfg.tpr_target)

    images_dir = sweep.images or (
        cfg.id_test.path if Path(cfg.id_test.path).is_dir() else None
    )
    if images_dir is None:
        raise ConfigError(
            "toy-encoder sweep needs sweep.images or an image-directory id_test"
        )
    pngs = _sorted_pngs(Path(images_dir))
    if not pngs:
        raise ValidationError(f"no PNG images under {images_dir}")
    clean = [(p.stem, load_image(p)) for p in pngs]
    depths = None
    if sweep.depth is not None:
        depths = [load_depth(Path(sweep.depth) / p.name) for p in pngs]
    return run_corruption_sweep(
        clean,
        specs,
        model,
        grid=sweep.encoder_grid,
        depths=depths,
        tpr_target=cfg.tpr_target,
    )


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Fit every configured method on id_train, score id_test and each
    ood_set, and attach the optional corruption sweep.

    Deterministic given the config plus referenced file contents.
    """
    grid = cfg.sweep.encoder_grid if cfg.sweep is not None else 4
    needs_embeddings = any(m in ("gmm", "knn") for m in cfg.methods)
    train = None
    id_test = None
    ood_embeddings = {}
    if needs_embeddings:
        train = load_dataset_embeddings(cfg.id_train, grid)
        if len(train) == 0:
            raise ValidationError("id_train embedding set is empty; cannot fit")
        id_test = load_dataset_embeddings(cfg.id_test, grid)
        _check_dim(train, id_test, cfg.id_test.name)
        for m in cfg.ood_sets:
            es = load_dataset_embeddings(m, grid)
            _check_dim(train, es, m.name)
            ood_embeddings[m.name] = es

    rows = []
    first_model = None
    for method in cfg.methods:
        if method == "mean_uncertainty":
            id_maps = load_dataset_maps(cfg.id_test)
            id_scores = [mean_uncertainty(um) for _, um in id_maps]
            for m in cfg.ood_sets:
                ood_scores = [mean_uncertainty(um) for _, um in load_dataset_maps(m)]
                rep = detection_report(LabeledScores(id_scores, ood_scores), cfg.tpr_target)
                rows.append((method, m.name, rep))
            continue
        model = _fit_method(method, train, cfg)
        if first_model is None and method == cfg.methods[0]:
            first_model = model
        id_scores = score_set(model, id_test)
        for m in cfg.ood_sets:
            rep = detection_report(
                LabeledScores(id_scores, score_set(model, ood_embeddings[m.name])),
                cfg.tpr_target,
            )
            rows.append((method, m.name, rep))

    sweep_kind = None
    sweep_method = None
    sweep_rows: tuple = ()
    correlations: tuple = ()
    if cfg.sweep is not None:
        sweep_method = cfg.methods[0]
        sweep_kind = cfg.sweep.kind
        sweep_rows, correlations = _run_sweep_for_config(cfg, train, first_model)

    provenance = (
        ("config_sha256", config_digest(cfg)),
        ("seed", str(cfg.seed)),
        ("toolkit_version", TOOLKIT_VERSION),
    )
    return BenchReport(
        rows=tuple(rows),
        sweep_kind=sweep_kind,
        sweep_method=sweep_method,
        sweep_rows=sweep_rows,
        correlations=correlations,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# synthetic benchmark generation
# ---------------------------------------------------------------------------


def generate_synthetic_benchmark(
    dim: int,
    n_train: int,
    n_test: int,
    shift: float,
    seed: int,
    out_dir,
) -> BenchConfig:
    """Materialize a desk-scale benchmark: standard-normal ID embeddings
    plus one OOD set mean-shifted by `shift` along a random unit
    direction. Writes the embedding files and config.json under out_dir
    and returns the ready config.
    """
    if dim < 1:
        raise ValidationError("dim must be a positive integer")
    if n_train < 2 or n_test < 2:
        raise ValidationError("n_train and n_test must be at least 2")
    if shift < 0 or not np.isfinite(shift):
        raise ValidationError("shift must be a non-negative real")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0 else np.eye(dim)[0]

    def write(name: str, count: int, offset: np.ndarray) -> str:
        data = rng.normal(size=(count, dim)) + offset
        ids = [f"{name}-{i:05d}" for i in range(count)]
        path = out_dir / f"{name}.ccemb"
        save_embeddings(EmbeddingSet(ids, data), path, fmt="binary")
        return path.name

    zero = np.zeros(dim)
    train_file = write("id_train", n_train, zero)
    test_file = write("id_test", n_test, zero)
    ood_file = write("ood_shifted", n_test, shift * direction)

    cfg_dict = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "methods": ["gmm", "knn"],
        "gmm_components": min(4, n_train),
        "knn_k": min(50, n_train),
        "id_train": {"name": "id_train", "role": "id_train", "path": train_file},
        "id_test": {"name": "id_test", "role": "id_test", "path": test_file},
        "ood_sets": [{"name": "shifted", "role": "ood", "path": ood_file}],
    }
    (out_dir / "config.json").write_text(
        json.dumps(cfg_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return config_from_dict(cfg_dict, out_dir)


# ---------------------------------------------------------------------------
# report rendering, parsing and persistence
# ---------------------------------------------------------------------------


def _fmt_metrics(rep: DetectionReport) -> list:
    return [f"{getattr(rep, c):.2f}" for c in REPORT_COLUMNS]


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render a report as CSV (with # provenance header lines) or markdown.

    Detection metrics use fixed two-decimal rendering; correlation
    coefficients are scaled to percent.
    """
    if fmt == "csv":
        lines = [f"# {k}={v}" for k, v in report.provenance]
        lines.append("method,dataset," + ",".join(REPORT_COLUMNS))
        for method, dataset, rep in report.rows:
            lines.append(",".join([method, dataset] + _fmt_metrics(rep)))
        if report.sweep_rows:
            lines.append("")
            lines.append(f"# sweep_kind={report.sweep_kind}")
            lines.append(f"# sweep_method={report.sweep_method}")
            lines.append("severity," + ",".join(REPORT_COLUMNS))
            for severity, rep in report.sweep_rows:
                lines.append(",".join([severity_dirname(severity)] + _fmt_metrics(rep)))
        if report.correlations:
            lines.append("")
            lines.append("metric,kind,coefficient_pct,p_value,n")
            for metric, corr in report.correlations:
                lines.append(
                    f"{metric},{corr.kind},{100.0 * corr.coefficient:.2f},"
                    f"{corr.p_value:.3g},{corr.n}"
                )
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["# Benchmark report", ""]
        lines.extend(f"- {k}: {v}" for k, v in report.provenance)
        lines.append("")
        lines.append("| method | dataset | " + " | ".join(REPORT_COLUMNS) + " |")
        lines.append("|" + "---|" * (2 + len(REPORT_COLUMNS)))
        for method, dataset, rep in report.rows:
            lines.append("| " + " | ".join([method, dataset] + _fmt_metrics(rep)) + " |")
        if report.sweep_rows:
            lines.append("")
            lines.append(f"## Severity sweep ({report.sweep_kind}, {report.sweep_method})")
            lines.append("")
            lines.append("| severity | " + " | ".join(REPORT_COLUMNS) + " |")
            lines.append("|" + "---|" * (1 + len(REPORT_COLUMNS)))
            for severity, rep in report.sweep_rows:
                lines.append(
                    "| " + " | ".join([severity_dirname(severity)] + _fmt_metrics(rep)) + " |"
                )
        if report.correlations:
            lines.append("")
            lines.append("## Correlations")
            lines.append("")
            lines.append("| metric | kind | coefficient_pct | p_value | n |")
            lines.append("|" + "---|" * 5)
            for metric, corr in report.correlations:
                lines.append(
                    f"| {metric} | {corr.kind} | {100.0 * corr.coefficient:.2f} "
                    f"| {corr.p_value:.3g} | {corr.n} |"
                )
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}")


def parse_report(text: str, fmt: str = "csv") -> dict:
    """Parse emit_report output back into plain values (round-trip check)."""
    rows = []
    sweep_rows = []
    correlations = []
    provenance = {}

    def add_row(cells: list):
        if len(cells) == 2 + len(REPORT_COLUMNS):
            rows.append(
                (cells[0], cells[1], [float(v) for v in cells[2:]])
            )
        elif cells and cells[0] not in ("metric",):
            sweep_rows.append((float(cells[0]), [float(v) for v in cells[1:]]))

    if fmt == "csv":
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                provenance[key] = value
                continue
            cells = line.split(",")
            if cells[0] in ("method", "severity"):
                continue
            if len(cells) == 5 and cells[1] in ("pearson", "spearman"):
                correlations.append(
                    (cells[0], cells[1], float(cells[2]), float(cells[3]), int(cells[4]))
                )
            else:
                add_row(cells)
    elif fmt == "markdown":
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("- "):
                key, _, value = line[2:].partition(": ")
                provenance[key] = value
                continue
            if line.startswith("## Severity sweep (") and line.endswith(")"):
                kind, _, method = line[len("## Severity sweep (") : -1].partition(", ")
                provenance["sweep_kind"] = kind
                provenance["sweep_method"] = method
                continue
            if not line.startswith("|") or line.startswith("|-") or line.startswith("|---"):
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            if cells[0] in ("method", "severity", "metric"):
                continue
            if len(cells) == 5 and cells[1] in ("pearson", "spearman"):
                correlations.append(
                    (cells[0], cells[1], float(cells[2]), float(cells[3]), int(cells[4]))
                )
            else:
                add_row(cells)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    return {
        "provenance": provenance,
        "rows": rows,
        "sweep_rows": sweep_rows,
        "correlations": correlations,
    }


def report_to_dict(report: BenchReport) -> dict:
    return {
        "rows": [
            {"method": m, "dataset": d, **{c: getattr(rep, c) for c in REPORT_COLUMNS}}
            for m, d, rep in report.rows
        ],
        "sweep_kind": report.sweep_kind,
        "sweep_method": report.sweep_method,
        "sweep_rows": [
            {"severity": s, **{c: getattr(rep, c) for c in REPORT_COLUMNS}}
            for s, rep in report.sweep_rows
        ],
        "correlations": [
            {
                "metric": metric,
                "kind": corr.kind,
                "coefficient": corr.coefficient,
                "p_value": corr.p_value,
                "n": corr.n,
            }
            for metric, corr in report.correlations
        ],
        "provenance": dict(report.provenance),
    }


def report_from_dict(data: dict) -> BenchReport:
    def rep(d: dict) -> DetectionReport:
        return DetectionReport(**{c: d[c] for c in REPORT_COLUMNS})

    return BenchReport(
        rows=tuple((r["method"], r["dataset"], rep(r)) for r in data["rows"]),
        sweep_kind=data.get("sweep_kind"),
        sweep_method=data.get("sweep_method"),
        sweep_rows=tuple((r["severity"], rep(r)) for r in data.get("sweep_rows", ())),
        correlations=tuple(
            (
                c["metric"],
                CorrelationResult(
                    coefficient=c["coefficient"],
                    p_value=c["p_value"],
                    n=c["n"],
                    kind=c["kind"],
                ),
            )
            for c in data.get("correlations", ())
        ),
        provenance=tuple(sorted(data.get("provenance", {}).items())),
    )


def save_report_json(report: BenchReport, path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_report_json(path) -> BenchReport:
    return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
