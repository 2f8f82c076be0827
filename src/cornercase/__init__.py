"""Corner-case detection toolkit.

Fits in-distribution density models over pooled encoder embeddings,
scores samples for global (co-variate) corner cases, aggregates
evidential uncertainty for semantic corner cases, generates corruption
benchmarks (fog, sensor noise, white-pixel boxes) and evaluates
detection quality with the standard metric suite plus severity
correlation analyses.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    SweepSettings,
    config_digest,
    emit_report,
    generate_synthetic_benchmark,
    load_config,
    parse_report,
    run_benchmark,
    run_corruption_sweep,
)
from .corruptions import (
    CorruptionSpec,
    apply_corruption,
    apply_fog,
    apply_gaussian_noise,
    apply_white_box,
    default_depth_ramp,
    severity_sweep,
)
from .density import (
    GmmModel,
    KnnIndex,
    build_knn_index,
    fit_gmm,
    fit_gmm_bic,
    persist_model,
    restore_model,
    score_set,
)
from .embeddings import (
    DatasetManifest,
    EmbeddingSet,
    FeatureMap,
    load_embeddings,
    load_feature_map,
    pool_spatial_mean,
    save_embeddings,
    save_feature_map,
    toy_encode,
)
from .errors import (
    ConfigError,
    CornerCaseError,
    DegenerateInputError,
    FitError,
    FormatError,
    ValidationError,
)
from .images import DepthMap, ImageBuffer, load_depth, load_image, save_depth, save_image
from .metrics import (
    DetectionReport,
    LabeledScores,
    PixelScoreMap,
    apply_threshold,
    aupr,
    auroc,
    calibrate_threshold,
    detection_report,
    fpr_at_tpr,
    pixel_average_precision,
    pixel_fpr_at_tpr,
)
from .stats import (
    CorrelationResult,
    PcaModel,
    corr_p_value,
    pca_fit,
    pca_transform,
    pearson,
    spearman,
)
from .uncertainty import (
    DirichletParams,
    UncertaintyMap,
    dirichlet_pdf,
    dirichlet_uncertainty,
    mean_uncertainty,
)
from .version import TOOLKIT_VERSION

__version__ = TOOLKIT_VERSION
