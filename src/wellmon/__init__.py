"""wellmon: dispersion-feature time-series classification for wellhead
integrity monitoring.

Synthetic two-class multivariate sensor data, STD/COV dispersion transforms,
PCA, a regression-line baseline monitor, four classifiers (logistic
regression, decision tree, SVM, 1-D CNN), and an evaluation harness.
"""

from .base import NotFittedError
from .cnn import CnnClassifier, SearchSpace
from .dataset import (
    GeneratorConfig,
    Label,
    LabeledSeriesSet,
    MultivariateSeries,
    Segment,
    generate,
    preset_config,
    split,
    window,
)
from .dtree import DecisionTree, PruningPath, ccp_path, grid_search
from .evaluation import ConfusionMatrix, MethodReport, accuracy, confusion
from .logreg import LogisticRegression
from .pca import PCA
from .pipeline import PipelineConfig, run_compare, run_pipeline
from .svm import SvmClassifier
from .transforms import (
    CovMatrix,
    FeatureMatrix,
    Standardizer,
    cov_features,
    cov_matrix,
    cov_sqrt,
    correlation,
    standardize,
    std_features,
    transform_segments,
)

__version__ = "0.1.0"

__all__ = [
    "CnnClassifier",
    "ConfusionMatrix",
    "CovMatrix",
    "DecisionTree",
    "FeatureMatrix",
    "GeneratorConfig",
    "Label",
    "LabeledSeriesSet",
    "LogisticRegression",
    "MethodReport",
    "MultivariateSeries",
    "NotFittedError",
    "PCA",
    "PipelineConfig",
    "PruningPath",
    "SearchSpace",
    "Segment",
    "Standardizer",
    "SvmClassifier",
    "accuracy",
    "ccp_path",
    "confusion",
    "correlation",
    "cov_features",
    "cov_matrix",
    "cov_sqrt",
    "generate",
    "grid_search",
    "preset_config",
    "run_compare",
    "run_pipeline",
    "split",
    "standardize",
    "std_features",
    "transform_segments",
    "window",
]
