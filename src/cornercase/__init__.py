"""Corner-case detection toolkit.

Fits in-distribution density models over pooled encoder embeddings,
scores samples for global (co-variate) corner cases, aggregates
evidential uncertainty for semantic corner cases, generates corruption
benchmarks (fog, sensor noise, white-pixel boxes) and evaluates
detection quality with the standard metric suite plus severity
correlation analyses.

Each public name is imported from its submodule on first access
(PEP 562), so `import cornercase` loads no numpy and a process loads
only the layers it uses.
"""

import importlib

_EXPORTS = {
    "bench": (
        "BenchConfig",
        "BenchReport",
        "SweepSettings",
        "config_digest",
        "emit_report",
        "generate_synthetic_benchmark",
        "load_config",
        "parse_report",
        "run_benchmark",
        "run_corruption_sweep",
    ),
    "corruptions": (
        "Sweep",
        "apply_corruption",
        "apply_fog",
        "apply_gaussian_noise",
        "apply_white_box",
        "default_depth_ramp",
        "severity_sweep",
    ),
    "density": (
        "GmmModel",
        "KnnIndex",
        "build_knn_index",
        "fit_gmm",
        "fit_gmm_bic",
        "persist_model",
        "restore_model",
        "score_set",
    ),
    "embeddings": (
        "DatasetManifest",
        "EmbeddingSet",
        "FeatureMap",
        "load_embeddings",
        "load_feature_map",
        "pool_spatial_mean",
        "save_embeddings",
        "save_feature_map",
        "toy_encode",
    ),
    "errors": (
        "ConfigError",
        "CornerCaseError",
        "DegenerateInputError",
        "FitError",
        "FormatError",
        "ValidationError",
    ),
    "images": ("DepthMap", "ImageBuffer", "load_depth", "load_image", "save_depth", "save_image"),
    "metrics": (
        "DetectionReport",
        "LabeledScores",
        "PixelScoreMap",
        "apply_threshold",
        "aupr",
        "auroc",
        "calibrate_threshold",
        "detection_report",
        "fpr_at_tpr",
        "pixel_average_precision",
        "pixel_fpr_at_tpr",
    ),
    "stats": (
        "CorrelationResult",
        "PcaModel",
        "corr_p_value",
        "pca_fit",
        "pca_transform",
        "pearson",
        "spearman",
    ),
    "uncertainty": (
        "DirichletParams",
        "UncertaintyMap",
        "dirichlet_pdf",
        "dirichlet_uncertainty",
        "mean_uncertainty",
    ),
    "version": ("TOOLKIT_VERSION",),
}

# public name -> (submodule, attribute)
_SOURCES = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_SOURCES["__version__"] = ("version", "TOOLKIT_VERSION")

__all__ = list(_SOURCES)


def __getattr__(name):
    if name in _EXPORTS:  # a layer module, as cornercase.density
        return importlib.import_module(f".{name}", __name__)
    try:
        module, attr = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
