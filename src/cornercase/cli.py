"""Command-line surface.

Subcommands: fit-gmm, fit-knn, score, eval, corrupt, sweep, pca, synth,
bench, report. Exit codes: 0 success, 2 config error, 3 data error,
4 I/O error.

Each handler imports the layers it runs, so `--version` and `--help`
load no numpy, and `sweep` and `corrupt` load corruptions and images
only. The parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .corruption_kinds import CORRUPTION_KINDS, DEFAULT_ATMOSPHERIC_LIGHT
from .errors import ConfigError, CornerCaseError, ValidationError
from .version import TOOLKIT_VERSION

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornercase",
        description="Corner-case detection toolkit",
    )
    parser.add_argument("--version", action="version", version=TOOLKIT_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-gmm", help="fit a Gaussian mixture to ID embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--components", type=int, help="mixture components (default 4; not with --bic)")
    p.add_argument("--bic", action="store_true", help="select components by BIC over 1,2,4,8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("fit-knn", help="build an exact k-NN index over ID embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=50)

    p = sub.add_parser("score", help="score embeddings or uncertainty maps")
    p.add_argument("--model", help="fitted model file (gmm/knn scoring)")
    p.add_argument("--embeddings", help="embedding file to score")
    p.add_argument("--maps", help="directory of uncertainty maps (mean_uncertainty)")
    p.add_argument("--label", choices=("id", "ood"), default="id")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compute detection metrics from score files")
    p.add_argument("--scores", action="append", required=True)
    p.add_argument("--tpr", type=float, default=0.95)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")

    # the source flags of corrupt, a sweep of one severity, and of sweep
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--images", required=True)
    source.add_argument("--kind", choices=CORRUPTION_KINDS, required=True)
    source.add_argument("--out", required=True)
    source.add_argument("--depth", help="directory of matching 16-bit depth PNGs (fog only)")
    source.add_argument("--seed", type=int, default=0)
    source.add_argument(
        "--atmospheric-light",
        type=float,
        help=f"fog only (default {DEFAULT_ATMOSPHERIC_LIGHT})",
    )

    p = sub.add_parser(
        "corrupt", parents=[source], help="apply one corruption to a directory of images"
    )
    p.add_argument("--severity", type=float, required=True)

    p = sub.add_parser(
        "sweep", parents=[source], help="generate a severity sweep of corrupted datasets"
    )
    p.add_argument("--preset", help="named grid: fog-paper, noise-paper, whitebox-paper")
    p.add_argument("--grid", help="comma-separated severities, strictly increasing")

    p = sub.add_parser("pca", help="fit PCA on pooled embeddings and export coordinates")
    p.add_argument(
        "--embeddings",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="named embedding file; repeatable",
    )
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="materialize a synthetic benchmark")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--n-train", type=int, default=500)
    p.add_argument("--n-test", type=int, default=500)
    p.add_argument("--shift", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (default: config directory)")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")

    p = sub.add_parser("report", help="re-render a stored report.json")
    p.add_argument("--report", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")

    return parser


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------


def _cmd_fit_gmm(args) -> int:
    from . import density
    from .embeddings import load_embeddings

    if args.bic and args.components is not None:
        raise ConfigError("--components is not read with --bic, which picks the count by BIC")
    es = load_embeddings(args.embeddings)
    if args.bic:
        model = density.fit_gmm_bic(
            es, seed=args.seed, max_iters=args.max_iters, tol=args.tol
        )
    else:
        model = density.fit_gmm(
            es,
            components=4 if args.components is None else args.components,
            seed=args.seed,
            max_iters=args.max_iters,
            tol=args.tol,
        )
    density.persist_model(model, args.out)
    print(
        f"fitted gmm ({model.components} components, dim {model.dim}; "
        f"{len(model.log_likelihoods) - 1} EM iterations, converged {model.converged}) "
        f"-> {args.out}"
    )
    return EXIT_OK


def _cmd_fit_knn(args) -> int:
    from . import density
    from .embeddings import load_embeddings

    es = load_embeddings(args.embeddings)
    index = density.build_knn_index(es, k=args.k)
    density.persist_model(index, args.out)
    print(f"built knn index (k={index.k}, {index.count} points) -> {args.out}")
    return EXIT_OK


def _cmd_score(args) -> int:
    from . import metrics
    from .embeddings import DatasetManifest, load_embeddings

    if args.maps:
        if args.model or args.embeddings:
            raise ConfigError("--model and --embeddings are not read with --maps")
        from .uncertainty import score_dataset_maps

        manifest = DatasetManifest(name="maps", role="id_test", path=args.maps)
        ids, scores = score_dataset_maps(manifest)
    else:
        if not args.model or not args.embeddings:
            raise ConfigError("score needs --model and --embeddings, or --maps")
        from . import density

        model = density.restore_model(args.model)
        es = load_embeddings(args.embeddings)
        ids, scores = es.ids(), density.score_set(model, es)
    metrics.save_scores(args.out, ids, scores, args.label)
    print(f"wrote {len(ids)} scores -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from . import metrics
    from .bench import BenchReport, _tpr_provenance, emit_report

    split = metrics.labeled_scores_from_files(*args.scores)
    rep = metrics.detection_report(split, args.tpr)
    report = BenchReport(
        rows=(("scores", "scores", rep),),
        provenance=(("toolkit_version", TOOLKIT_VERSION), *_tpr_provenance(args.tpr)),
    )
    print(emit_report(report, args.format), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    """sweep, and corrupt as a sweep of the one severity [--severity]."""
    from . import corruptions

    if args.command == "corrupt":
        grid = [args.severity]
    elif (args.preset is None) == (args.grid is None):
        raise ConfigError("sweep needs exactly one of --preset or --grid")
    elif args.preset is not None:
        grid = args.preset
    else:
        try:
            grid = [float(v) for v in args.grid.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--grid expects comma-separated numbers ({exc})") from exc
    light = args.atmospheric_light
    if light is None:
        light = DEFAULT_ATMOSPHERIC_LIGHT
    elif args.kind != "fog":
        raise ConfigError("--atmospheric-light is read by fog only")
    sweep = corruptions.severity_sweep(args.kind, grid, base_seed=args.seed, atmospheric_light=light)
    manifest = corruptions.run_sweep(args.images, sweep, args.out, depth_dir=args.depth)
    images = len(manifest["entries"]) // len(sweep.severities)
    print(f"swept {len(sweep.severities)} severities over {images} images under {args.out}")
    return EXIT_OK


def _cmd_pca(args) -> int:
    import numpy as np

    from . import stats
    from .embeddings import EmbeddingSet, load_embeddings

    if args.k < 1:
        raise ValidationError("k must be a positive integer")
    named = []
    for item in args.embeddings:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"--embeddings expects NAME=PATH, got {item!r}")
        if any(name == seen for seen, _ in named):
            raise ConfigError(f"--embeddings name {name!r} given twice; each names one dataset")
        named.append((name, load_embeddings(path)))
    parts = [(name, es) for name, es in named if len(es)]
    if not parts:
        raise ValidationError("no embeddings to fit PCA on")
    if len({es.dim for _, es in parts}) > 1:
        raise ValidationError("embedding files to pool for PCA differ in dim")
    pool_set = EmbeddingSet(
        [f"{name}/{ident}" for name, es in parts for ident in es.ids()],
        np.concatenate([es.matrix() for _, es in parts]),
    )
    k = min(args.k, pool_set.dim, len(pool_set) - 1)
    if k < 1:
        raise ValidationError("not enough records to fit PCA")
    model = stats.pca_fit(pool_set, k)
    stats.export_pca_coords(model, named, args.out)
    print(f"exported {sum(len(es) for _, es in named)} records at k={k} -> {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .bench import generate_synthetic_benchmark

    generate_synthetic_benchmark(
        dim=args.dim,
        n_train=args.n_train,
        n_test=args.n_test,
        shift=args.shift,
        seed=args.seed,
        out_dir=args.out,
    )
    print(f"wrote synthetic benchmark -> {Path(args.out) / 'config.json'}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from . import bench
    from .images import _write_file

    cfg = bench.load_config(args.config)
    report = bench.run_benchmark(cfg)
    out_dir = Path(args.out) if args.out else Path(args.config).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    bench.save_report_json(report, out_dir / "report.json")
    ext = "csv" if args.format == "csv" else "md"
    rendered = bench.emit_report(report, args.format)
    _write_file(out_dir / f"report.{ext}", [rendered])
    print(rendered, end="")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .bench import emit_report, load_report_json

    report = load_report_json(args.report)
    print(emit_report(report, args.format), end="")
    return EXIT_OK


_HANDLERS = {
    "fit-gmm": _cmd_fit_gmm,
    "fit-knn": _cmd_fit_knn,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "corrupt": _cmd_sweep,
    "sweep": _cmd_sweep,
    "pca": _cmd_pca,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CornerCaseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
