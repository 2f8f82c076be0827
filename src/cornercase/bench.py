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
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corruptions import (
    _KINDS,
    DEFAULT_ATMOSPHERIC_LIGHT,
    Sweep,
    _read_sources,
    _seeded_sources,
    severity_dirname,
    severity_sweep,
)
from .density import build_knn_index, fit_gmm, fit_gmm_bic, score_set
from .embeddings import DatasetManifest, EmbeddingSet, load_embeddings, save_embeddings, toy_encode
from .errors import ConfigError, DegenerateInputError, FormatError, ValidationError, check_seed
from .images import ImageBuffer, _sorted_pngs, _write_json, load_image
from .metrics import DetectionReport, LabeledScores, detection_report
from .stats import CorrelationResult, pearson, spearman
from .uncertainty import score_dataset_maps
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
        if (self.preset is None) == (len(self.grid) == 0):
            raise ConfigError("sweep needs exactly one of preset or grid")
        if self.encoder not in ("toy", "external"):
            raise ConfigError(f"sweep encoder must be 'toy' or 'external', got {self.encoder!r}")
        if self.encoder_grid < 1:
            raise ConfigError("encoder_grid must be a positive integer")
        if self.encoder == "toy" and self.severity_embeddings:
            raise ConfigError("severity_embeddings is read by the external encoder only")
        if self.encoder == "external" and (self.images is not None or self.depth is not None):
            raise ConfigError("images and depth are read by the toy encoder only")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "severity_embeddings", tuple(self.severity_embeddings))
        try:
            count = len(_sweep_of(self, seed=0).severities)
        except ValidationError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
        if self.kind != "fog" and self.atmospheric_light != DEFAULT_ATMOSPHERIC_LIGHT:
            raise ConfigError("atmospheric_light is read by fog only")
        if self.encoder == "external" and len(self.severity_embeddings) != count:
            raise ConfigError(
                "external sweep needs one embedding file per severity "
                f"({count} severities, {len(self.severity_embeddings)} files)"
            )


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
        check_seed(self.seed, ConfigError)
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("config needs at least one method")
        for m in methods:
            if m not in BENCH_METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {BENCH_METHODS}")
        if len(set(methods)) != len(methods):
            raise ConfigError("methods must be unique")
        # map directories and embedding files or image directories: no
        # manifest can be both
        if "mean_uncertainty" in methods and len(methods) > 1:
            raise ConfigError(
                "mean_uncertainty reads uncertainty maps and gmm/knn read embeddings; "
                "a config cannot mix them"
            )
        ood_sets = tuple(self.ood_sets)
        if not ood_sets:
            raise ConfigError("config needs at least one ood_set")
        names = [m.name for m in ood_sets]
        if len(set(names)) != len(names):
            raise ConfigError(f"ood_sets names must be unique, got {names}")
        slots = [("id_train", self.id_train), ("id_test", self.id_test)]
        for slot, m in slots + [("ood", m) for m in ood_sets]:
            if m.role != slot:
                raise ConfigError(f"manifest {m.name!r} has role {m.role!r} in the {slot} slot")
        if self.gmm_components < 1 or self.knn_k < 1:
            raise ConfigError("gmm_components and knn_k must be positive")
        if self.gmm_bic and self.gmm_components != BenchConfig.gmm_components:
            raise ConfigError("gmm_components is not read with gmm_bic, which picks the count by BIC")
        if self.max_iters < 1 or not 0.0 < self.tol < np.inf:
            raise ConfigError("max_iters must be >= 1 and tol a finite number > 0")
        if not 0.0 < self.tpr_target <= 1.0:
            raise ConfigError("tpr_target must lie in (0, 1]")
        if self.sweep is not None and methods[0] == "mean_uncertainty":
            raise ConfigError(
                "sweep scoring requires gmm or knn as the first configured method"
            )
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "ood_sets", ood_sets)


def config_to_dict(cfg: BenchConfig) -> dict:
    out = {"schema": SCHEMA_VERSION, **asdict(cfg)}
    if cfg.sweep is None:
        del out["sweep"]
    return out


def _integer(value, where: str) -> int:
    """An int, or a float with an integral value; bools, strings and
    fractional values are rejected rather than coerced or truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{where}: expected an integer, got {value!r}")


def _number(value, where: str) -> float:
    """An int or a float within the finite float range, as a float; bools,
    strings, NaN and infinities are rejected. The range test is exact for
    an int of any size, where float() or math.isfinite would overflow."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ValidationError(f"{where}: expected a finite number, got {value!r}")


def _boolean(value, where: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ValidationError(f"{where}: expected true or false, got {value!r}")


def _string(value, where: str) -> str:
    if isinstance(value, str):
        return value
    raise ValidationError(f"{where}: expected a string, got {value!r}")


def _array(value, where: str, read) -> tuple:
    """A JSON array's (or a tuple's) entries, each read by read(entry, where[i])."""
    if isinstance(value, (list, tuple)):
        return tuple(read(entry, f"{where}[{i}]") for i, entry in enumerate(value))
    raise ValidationError(f"{where}: expected an array, got {value!r}")


# how _from_keys reads a field it has no reader for, by the field's
# annotation; annotations are postponed, so each is its source string
_ANNOTATION_READERS = {
    "int": _integer, "float": _number, "bool": _boolean, "str": _string,
    "str | None": lambda v, w: None if v is None else _string(v, w),
}


def _from_keys(cls, data, where: str, readers: dict):
    """cls built from the keys data holds, each read by readers[key] or by
    its field's annotation (other fields pass as they are); absent keys
    keep their defaults. A fault raises ValidationError naming where."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: must be an object")
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in types:
            raise ValidationError(f"{where}: unknown key {key!r}")
        read = readers.get(key) or _ANNOTATION_READERS.get(types[key])
        kwargs[key] = read(value, f"{where}.{key}") if read else value
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING:
            raise ValidationError(f"{where}: missing required field {f.name!r}")
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def config_from_dict(data: dict, base_dir) -> BenchConfig:
    """Build a config from parsed JSON; relative paths resolve against
    base_dir. Future schema versions and unknown keys are rejected."""
    base = Path(base_dir)
    if "schema" not in data:
        raise ConfigError("config is missing the schema field")
    if data["schema"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema {data['schema']} is not supported "
            f"(this toolkit reads schema {SCHEMA_VERSION})"
        )

    def path(value, where):
        return str(base / _string(value, where))

    def optional_path(value, where):
        return None if value in (None, "") else path(value, where)

    def manifest(value, where):
        return _from_keys(DatasetManifest, value, where, {"path": path})

    sweep_readers = {
        "grid": lambda v, w: _array(v, w, _number),
        "images": optional_path,
        "depth": optional_path,
        "severity_embeddings": lambda v, w: _array(v, w, path),
    }
    readers = {
        "methods": lambda v, w: _array(v, w, _string),
        "id_train": manifest,
        "id_test": manifest,
        "ood_sets": lambda v, w: _array(v, w, manifest),
        "sweep": lambda v, w: None if v is None else _from_keys(SweepSettings, v, w, sweep_readers),
    }
    try:
        return _from_keys(
            BenchConfig, {k: v for k, v in data.items() if k != "schema"}, "config", readers
        )
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path) -> BenchConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


# ---------------------------------------------------------------------------
# dataset materialization
# ---------------------------------------------------------------------------


def load_dataset_embeddings(manifest: DatasetManifest, grid: int = 4) -> EmbeddingSet:
    """Embeddings from a file, or toy-encoded from an image directory."""
    path = Path(manifest.path)
    if path.is_dir():
        pngs = _sorted_pngs(path)
        return EmbeddingSet(
            [p.stem for p in pngs], [toy_encode(load_image(p), grid=grid) for p in pngs]
        )
    return load_embeddings(path)


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
    return build_knn_index(train, k=cfg.knn_k)


def _check_dim(train: EmbeddingSet, es: EmbeddingSet, name: str):
    if es.dim != train.dim:
        raise ValidationError(
            f"embedding dim mismatch: train dim {train.dim}, {name} dim {es.dim}"
        )


def _sweep_of(settings: SweepSettings, seed: int) -> Sweep:
    grid = settings.preset if settings.preset is not None else settings.grid
    return severity_sweep(settings.kind, grid, seed, settings.atmospheric_light)


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


def _reports(id_scores, ood_scores, tpr_target) -> list:
    """One detection report per OOD score array, each against the ID scores."""
    return [detection_report(LabeledScores(id_scores, s), tpr_target) for s in ood_scores]


def _score_sweep(model, id_scores, severity_sets, severities, tpr_target) -> tuple:
    """Score each severity's set against the ID side's scores.

    severity_sets aligns with severities and is consumed lazily, one set
    at a time. Returns (sweep_rows, correlations).
    """
    ood_scores = (score_set(model, es) for es in severity_sets)
    reports = _reports(id_scores, ood_scores, tpr_target)
    return tuple(zip(severities, reports)), _sweep_correlations(severities, reports)


def run_corruption_sweep(
    clean_images,
    sweep: Sweep,
    model,
    *,
    grid: int = 4,
    depths=None,
    tpr_target: float = 0.95,
) -> tuple:
    """Corrupt, encode and score a set of named clean images per severity.

    clean_images is a sequence of (sample_id, ImageBuffer); depths, when
    given, aligns with it. The ID side of every severity report is the
    toy encoding of the clean images. Each image is encoded clean, then
    corrupted by its kind's rows (noise from per-image sums, the other
    kinds from the sweep engine's blocks). Returns (sweep_rows,
    correlations).
    """
    clean_images = list(clean_images)
    if not clean_images:
        raise ValidationError("sweep needs at least one clean image")
    depths = [None] * len(clean_images) if depths is None else list(depths)
    if len(depths) != len(clean_images):
        raise ValidationError(f"{len(depths)} depth maps for {len(clean_images)} images")
    ids, images = zip(*clean_images)
    return _toy_sweep(list(ids), zip(images, depths), sweep, model, grid, tpr_target)


def _toy_sweep(ids, sources, sweep: Sweep, model, grid, tpr_target, id_scores=None) -> tuple:
    """run_corruption_sweep of the (ImageBuffer, depth) sources named by ids,
    consumed once; id_scores, if given, are the scores of their clean toy
    encoding."""
    toy_rows = _KINDS[sweep.kind].rows
    clean, feats = [], []
    for _, seed, img, depth in _seeded_sources(sources, sweep.seed):
        if id_scores is None:
            clean.append(toy_encode(img, grid=grid))
        feats.append(toy_rows(img, depth, seed, sweep, grid))
    if id_scores is None:
        id_scores = score_set(model, EmbeddingSet(ids, clean))
    severity_sets = (EmbeddingSet(ids, per_severity) for per_severity in np.stack(feats, axis=1))
    return _score_sweep(model, id_scores, severity_sets, sweep.severities, tpr_target)


def _run_sweep_for_config(cfg: BenchConfig, train: EmbeddingSet, id_scores, model) -> tuple:
    """The sweep of a config, its ID side id_test's scores under model."""
    settings = cfg.sweep
    sweep = _sweep_of(settings, cfg.seed)
    if settings.encoder == "external":
        def severity_sets():
            for severity, emb_path in zip(sweep.severities, settings.severity_embeddings):
                es = load_embeddings(emb_path)
                _check_dim(train, es, f"sweep severity {severity_dirname(severity)}")
                yield es

        return _score_sweep(model, id_scores, severity_sets(), sweep.severities, cfg.tpr_target)

    images_dir = settings.images or cfg.id_test.path
    if settings.images is None and not Path(images_dir).is_dir():
        raise ConfigError("toy-encoder sweep needs sweep.images or an image-directory id_test")
    pngs = _sorted_pngs(Path(images_dir))
    read = _read_sources(pngs, settings.depth, sweep.kind)
    sources = ((ImageBuffer.from_uint8(pixels), depth) for pixels, depth in read)
    # without sweep.images, the clean images are id_test's, encoded with
    # this grid, and id_scores are their scores
    clean_scores = id_scores if settings.images is None else None
    ids = [p.stem for p in pngs]
    return _toy_sweep(
        ids, sources, sweep, model, settings.encoder_grid, cfg.tpr_target, clean_scores
    )


def _tpr_provenance(tpr_target: float) -> tuple:
    """The provenance naming the TPR of the fpr_at_95 column, if not 95%."""
    return () if tpr_target == 0.95 else (("tpr_target", str(tpr_target)),)


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Fit every configured method on id_train, score id_test and each
    ood_set, and attach the optional corruption sweep.

    Deterministic given the config plus referenced file contents.
    """
    grid = cfg.sweep.encoder_grid if cfg.sweep is not None else 4
    test_sets = (cfg.id_test, *cfg.ood_sets)
    train = None
    embeddings = []
    if "mean_uncertainty" not in cfg.methods:
        train = load_dataset_embeddings(cfg.id_train, grid)
        if len(train) == 0:
            raise ValidationError("id_train embedding set is empty; cannot fit")
        for m in test_sets:
            embeddings.append(load_dataset_embeddings(m, grid))
            _check_dim(train, embeddings[-1], m.name)

    # every method scores (id_test, *ood_sets), one array per dataset
    rows = []
    fitted = {}  # per density method, its model and its id_test scores
    for method in cfg.methods:
        if method == "mean_uncertainty":
            scores = [score_dataset_maps(m)[1] for m in test_sets]
        else:
            model = _fit_method(method, train, cfg)
            scores = [score_set(model, es) for es in embeddings]
            fitted[method] = model, scores[0]
        reports = _reports(scores[0], scores[1:], cfg.tpr_target)
        rows += [(method, m.name, rep) for m, rep in zip(cfg.ood_sets, reports)]

    provenance = (
        ("config_sha256", config_digest(cfg)),
        ("seed", str(cfg.seed)),
        ("toolkit_version", TOOLKIT_VERSION),
        *_tpr_provenance(cfg.tpr_target),
    )
    if cfg.sweep is None:
        return BenchReport(rows=tuple(rows), provenance=provenance)
    method = cfg.methods[0]
    model, id_scores = fitted[method]
    sweep_rows, correlations = _run_sweep_for_config(cfg, train, id_scores, model)
    return BenchReport(
        rows=tuple(rows),
        sweep_kind=cfg.sweep.kind,
        sweep_method=method,
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
    check_seed(seed)
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
    _write_json(out_dir / "config.json", cfg_dict)
    return config_from_dict(cfg_dict, out_dir)


# ---------------------------------------------------------------------------
# report rendering, parsing and persistence
# ---------------------------------------------------------------------------


_ROW_COLUMNS = ("method", "dataset") + REPORT_COLUMNS
_SWEEP_COLUMNS = ("severity",) + REPORT_COLUMNS
_CORRELATION_COLUMNS = ("metric", "kind", "coefficient_pct", "p_value", "n")
_SWEEP_TITLE = "Severity sweep"
_SWEEP_META = ("sweep_kind", "sweep_method")

# per table: the parse_report key its rows go to and how one row's cells read back
_CELL_PARSERS = {
    _ROW_COLUMNS: ("rows", lambda c: (c[0], c[1], [float(v) for v in c[2:]])),
    _SWEEP_COLUMNS: ("sweep_rows", lambda c: (float(c[0]), [float(v) for v in c[1:]])),
    _CORRELATION_COLUMNS: (
        "correlations",
        lambda c: (c[0], c[1], float(c[2]), float(c[3]), int(c[4])),
    ),
}


def _tables(report: BenchReport) -> list:
    """The report's tables in order, as (title, meta, columns, rows):
    meta is (key, value) pairs naming the table's subject, and every
    cell is already a string. Detection metrics use fixed two-decimal
    rendering; correlation coefficients are scaled to percent."""

    def metrics(rep: DetectionReport) -> list:
        return [f"{getattr(rep, c):.2f}" for c in REPORT_COLUMNS]

    tables = [(None, (), _ROW_COLUMNS, [[m, d, *metrics(rep)] for m, d, rep in report.rows])]
    if report.sweep_rows:
        meta = tuple(zip(_SWEEP_META, (f"{report.sweep_kind}", f"{report.sweep_method}")))
        rows = [[severity_dirname(s), *metrics(rep)] for s, rep in report.sweep_rows]
        tables.append((_SWEEP_TITLE, meta, _SWEEP_COLUMNS, rows))
    if report.correlations:
        rows = [
            [metric, c.kind, f"{100.0 * c.coefficient:.2f}", f"{c.p_value:.3g}", f"{c.n}"]
            for metric, c in report.correlations
        ]
        tables.append(("Correlations", (), _CORRELATION_COLUMNS, rows))
    return tables


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render a report as CSV (with # provenance header lines) or markdown."""
    if fmt == "csv":
        lines = [f"# {k}={v}" for k, v in report.provenance]
        for i, (_, meta, columns, rows) in enumerate(_tables(report)):
            if i > 0:
                lines.append("")
            lines += [f"# {k}={v}" for k, v in meta]
            lines += [",".join(cells) for cells in [columns, *rows]]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["# Benchmark report", "", *(f"- {k}: {v}" for k, v in report.provenance)]
        for title, meta, columns, rows in _tables(report):
            lines.append("")
            if title is not None:
                subject = f" ({', '.join(v for _, v in meta)})" if meta else ""
                lines += [f"## {title}{subject}", ""]
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            lines += ["| " + " | ".join(cells) + " |" for cells in rows]
        return "\n".join(lines) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}")


def _csv_line(line: str) -> tuple:
    """(provenance pairs, cells or None) of one stripped CSV report line."""
    if line.startswith("# "):
        key, _, value = line[2:].partition("=")
        return [(key, value)], None
    return [], line.split(",") if line else None


def _markdown_line(line: str) -> tuple:
    """(provenance pairs, cells or None) of one stripped markdown report line."""
    if line.startswith("- "):
        key, _, value = line[2:].partition(": ")
        return [(key, value)], None
    sweep_heading = f"## {_SWEEP_TITLE} ("
    if line.startswith(sweep_heading) and line.endswith(")"):
        kind, _, method = line[len(sweep_heading) : -1].partition(", ")
        return list(zip(_SWEEP_META, (kind, method))), None
    if line.startswith("|") and not line.startswith("|-"):
        return [], [c.strip() for c in line.strip("|").split("|")]
    return [], None


def parse_report(text: str, fmt: str = "csv") -> dict:
    """Parse emit_report output back into plain values (round-trip check)."""
    split = {"csv": _csv_line, "markdown": _markdown_line}.get(fmt)
    if split is None:
        raise ValidationError(f"unknown report format {fmt!r}")
    out = {"provenance": {}, "rows": [], "sweep_rows": [], "correlations": []}
    table = None
    for line in text.splitlines():
        pairs, cells = split(line.strip())
        out["provenance"].update(pairs)
        if cells is None:
            continue
        if tuple(cells) in _CELL_PARSERS:
            table = _CELL_PARSERS[tuple(cells)]
            continue
        key, read = table
        out[key].append(read(cells))
    return out


def report_to_dict(report: BenchReport) -> dict:
    return {
        "rows": [{"method": m, "dataset": d, **asdict(rep)} for m, d, rep in report.rows],
        "sweep_kind": report.sweep_kind,
        "sweep_method": report.sweep_method,
        "sweep_rows": [{"severity": s, **asdict(rep)} for s, rep in report.sweep_rows],
        "correlations": [{"metric": m, **asdict(corr)} for m, corr in report.correlations],
        "provenance": dict(report.provenance),
    }


def report_from_dict(data: dict) -> BenchReport:
    """Rebuild a report_to_dict result; a mistyped field or an unknown key
    raises FormatError. A record of rows, sweep_rows or correlations is
    its key columns, each read by its reader, and the fields of a cls."""

    def records(cls, **key_readers):
        def read_one(r, at):
            keys = [read(r[k], f"{at}.{k}") for k, read in key_readers.items()]
            rest = {k: v for k, v in r.items() if k not in key_readers}
            return (*keys, _from_keys(cls, rest, at, {}))

        return lambda v, w: tuple(read_one(r, f"{w}[{i}]") for i, r in enumerate(v))

    readers = {
        "rows": records(DetectionReport, method=_string, dataset=_string),
        "sweep_rows": records(DetectionReport, severity=_number),
        "correlations": records(CorrelationResult, metric=_string),
        "provenance": lambda v, w: tuple(
            sorted((k, _string(s, f"{w}.{k}")) for k, s in v.items())
        ),
    }
    try:
        return _from_keys(BenchReport, data, "report", readers)
    except ValidationError as exc:
        raise FormatError(str(exc)) from exc


def save_report_json(report: BenchReport, path) -> None:
    _write_json(path, report_to_dict(report))


def load_report_json(path) -> BenchReport:
    """Read a report written by save_report_json; a file that does not
    hold one raises FormatError."""
    try:
        return report_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{path}: not a benchmark report ({exc!r})") from exc
