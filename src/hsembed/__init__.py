"""Pixelwise hyperspectral classification with distribution embeddings.

Each pixel's spatial neighbourhood is embedded as an explicit
random-feature vector (the empirical mean map of the neighbourhood's
spectra), optionally fused with morphological-profile features, and
classified with a one-vs-one linear C-SVM. A bounds lab empirically
checks the generalization inequalities that motivate the construction.
"""

from .bounds import (
    BoundConfig,
    BoundReport,
    LossSpec,
    MetaSample,
    MetaSampleSpec,
    check_combined_risk_bound,
    check_embedding_gap_bound,
    draw_meta_sample,
    embedding_deviation_gaussian,
    empirical_risk,
    rademacher_estimate,
)
from .embedding import (
    EmbeddingConfig,
    FeatureSpace,
    FeatureTable,
    PixelFeature,
    build_feature_table,
    conv_mean_map_feature,
    mean_map_feature,
    median_heuristic,
    prepare_features,
)
from .errors import (
    ContractViolation,
    DegenerateDataError,
    FormatError,
    HsembedError,
    NumericalError,
    ParameterError,
    ShapeError,
    TruncationError,
    UndefinedInputError,
)
from .evaluation import (
    ClassifierSpec,
    McProtocol,
    McSummary,
    average_accuracy,
    confusion_matrix,
    kappa,
    monte_carlo_protocol,
    overall_accuracy,
)
from .hsi import (
    GroundTruthMap,
    HyperspectralImage,
    PatchSpec,
    SceneSpec,
    generate_synthetic_scene,
    load_envi,
    load_ground_truth,
    normalize_spectra,
    save_envi,
    save_ground_truth,
)
from .morphology import (
    MorphoProfileConfig,
    StructuringElement,
    close_by_reconstruction,
    closing,
    dilate,
    disk,
    erode,
    morphological_profile,
    open_by_reconstruction,
    opening,
    pca_reduce,
    reconstruct,
    square,
)
from .rff import (
    RandomFeatureMap,
    exact_gaussian_kernel,
    feature_matrix,
    sample_frequencies,
)
from .svm import (
    BinarySeparator,
    CvReport,
    SvmConfig,
    SvmModel,
    cross_validate,
    default_c_grid,
    predict_table,
    train_binary,
    train_multiclass,
)

__version__ = "0.1.0"
