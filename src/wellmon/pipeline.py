"""End-to-end method pipelines and the pipeline driver.

Stage order: window -> transform -> standardize -> PCA -> classifier for
the classical methods; the CNN consumes per-channel standardized raw
windows. `transforms.Standardizer` is the one normalizer of all four: a
classical pipeline with PCA standardizes through PCA's own scaler, so each
window is normalized once. All intermediates (features, models, reports)
are persisted under the output directory, and every stage is deterministic
given the seeds.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import baseline as baseline_mod
from . import dataset as dataset_mod
from .cnn import CnnClassifier
from .dtree import DecisionTree
from .evaluation import compare, format_table, reports_to_csv
from .logreg import LogisticRegression
from .pca import PCA
from .svm import SvmClassifier
from .transforms import FeatureMatrix, Standardizer, transform_segments
from .validation import write_csv


class ConfigError(ValueError):
    """Invalid pipeline configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Missing or inconsistent input data (CLI exit code 3)."""


# method name -> estimator class; its constructor holds the method's defaults
ESTIMATORS = {
    "logreg": LogisticRegression,
    "dtree": DecisionTree,
    "svm": SvmClassifier,
    "cnn": CnnClassifier,
}
METHODS = tuple(ESTIMATORS)
TRANSFORMS = ("std", "cov")


@dataclass(frozen=True)
class PipelineConfig:
    """One pipeline run: data source, preprocessing, and method choice."""

    method: str = "logreg"
    transform: str = "cov"
    pcs: int = None
    noise: int = 1
    seed: int = 0
    n_series_per_class: int = 10
    series_len: int = dataset_mod.DEFAULT_SERIES_LEN
    preset: str = "slack"
    window_seconds: float = 60.0
    test_fraction: float = 0.2
    channels: tuple = None
    method_params: dict = field(default_factory=dict)

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.transform not in TRANSFORMS:
            raise ConfigError(
                f"transform must be one of {TRANSFORMS}, got {self.transform!r}"
            )
        if self.noise not in dataset_mod.NOISE_LEVELS:
            raise ConfigError(
                f"noise must be one of {dataset_mod.NOISE_LEVELS}, got {self.noise}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie strictly between 0 and 1")
        if self.n_series_per_class < 1:
            raise ConfigError(
                f"n_series_per_class must be >= 1, got {self.n_series_per_class}"
            )
        if self.series_len < 2:
            raise ConfigError(f"series_len must be >= 2, got {self.series_len}")
        if not self.window_seconds > 0:
            raise ConfigError(f"window_seconds must be > 0, got {self.window_seconds}")
        if self.channels is not None and len(set(self.channels)) != len(self.channels):
            raise ConfigError(f"channels repeat a name: {list(self.channels)}")
        if self.pcs is not None and self.pcs < 1:
            raise ConfigError(f"pcs must be >= 1, got {self.pcs}")
        if self.channels is not None:
            self.check_pcs(self.channels)
        if not isinstance(self.method_params, dict):
            raise ConfigError("method_params must be an object")
        for method in METHODS if self._keyed() else (self.method,):
            params = self.params_for(method)
            if not isinstance(params, dict):
                raise ConfigError(f"method_params of {method} must be an object")
            valid = ESTIMATORS[method]._param_names()
            unknown = set(params) - set(valid)
            if unknown:
                raise ConfigError(
                    f"unknown {method} parameter(s) {sorted(unknown)}; "
                    f"valid are {sorted(valid)}"
                )
        return self

    def check_pcs(self, channel_names):
        """Refuse a pcs above the feature count of the transform on
        channel_names: m for std, m(m+1)/2 for cov."""
        m = len(channel_names)
        feature_count = m if self.transform == "std" else m * (m + 1) // 2
        if self.pcs is not None and not 1 <= self.pcs <= feature_count:
            raise ConfigError(
                f"pcs must lie in [1, {feature_count}] for the {self.transform} "
                f"transform on {m} channel(s), got {self.pcs}"
            )

    def _keyed(self):
        params = self.method_params
        return bool(params) and all(key in METHODS for key in params)

    def params_for(self, method):
        """method_params either applies to self.method directly, or is keyed
        by method name (the form `compare` uses: {"cnn": {...}, ...})."""
        if self._keyed():
            return self.method_params.get(method, {})
        return self.method_params if method == self.method else {}

    def to_json(self):
        payload = asdict(self)
        if payload["channels"] is not None:
            payload["channels"] = list(payload["channels"])
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ConfigError("a config file holds one JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        if payload.get("channels") is not None:
            payload["channels"] = tuple(payload["channels"])
        return cls(**payload)

    def hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# method pipelines (fit on segments, predict on segments)
# ---------------------------------------------------------------------------

class ClassicalPipeline:
    """transform -> standardize -> optional PCA -> classifier."""

    def __init__(self, name, transform, pcs, estimator, channel_names=None):
        self.name = name
        self.transform = transform
        self.pcs = pcs
        self.estimator = estimator
        self.channel_names = channel_names

    def _features(self, segments):
        return transform_segments(segments, self.transform, self.channel_names)

    def fit_project(self, train_segments) -> FeatureMatrix:
        """Fit the scaler (PCA's own, with PCA) on the training windows;
        return the estimator's input for those windows."""
        features = self._features(train_segments)
        if self.pcs is None:
            self.pca_ = None
            self.scaler_ = Standardizer().fit(features)
        else:
            self.pca_ = PCA(self.pcs).fit(features)
            self.scaler_ = self.pca_.scaler_
        return self._projector().transform(features)

    def fit(self, train_segments):
        features = self.fit_project(train_segments)
        self.estimator.fit(features.values, features.labels)
        return self

    def _projector(self):
        return self.scaler_ if self.pca_ is None else self.pca_

    def project(self, segments) -> FeatureMatrix:
        return self._projector().transform(self._features(segments))

    def predict(self, segments):
        # the call's one FeatureMatrix screens the rows finite, so the
        # projector and estimator take them through their unscreened paths
        values = self._features(segments).values
        return self.estimator._predict_rows(self._projector()._apply(values))

    def describe(self):
        pca_part = f"+pca({self.pcs})" if self.pcs is not None else ""
        return f"{self.transform}{pca_part} {type(self.estimator).__name__}"

    def save(self, out_dir, stem):
        out_dir = Path(out_dir)
        self.scaler_.save(out_dir / f"{stem}_scaler.json")
        if self.pca_ is not None:
            self.pca_.save(out_dir / f"{stem}_pca.json")
        self.estimator.save(out_dir / f"{stem}_model.json")

    @classmethod
    def load(cls, out_dir, stem, kind, transform, pcs, channel_names=None):
        """What save(out_dir, stem) wrote, read back as fit_project made it."""
        out_dir = Path(out_dir)
        estimator = ESTIMATORS[kind].load(out_dir / f"{stem}_model.json")
        pipeline = cls(kind, transform, pcs, estimator, channel_names)
        if pcs is None:
            pipeline.pca_ = None
            pipeline.scaler_ = Standardizer.load(out_dir / f"{stem}_scaler.json")
        else:
            pipeline.pca_ = PCA.load(out_dir / f"{stem}_pca.json")
            pipeline.scaler_ = pipeline.pca_.scaler_
        return pipeline


class CnnPipeline:
    """Per-channel standardization of raw windows, then the CNN."""

    def __init__(self, name, estimator):
        self.name = name
        self.estimator = estimator

    @staticmethod
    def _to_array(segments):
        # segments hold (n_w, m); the network wants (N, m, n_w)
        return np.stack([np.asarray(s.samples).T for s in segments])

    def fit_project(self, train_segments):
        """Fit the channel standardizer on the training windows' samples;
        return the network's (N, m, n_w) input for those windows."""
        X = self._to_array(train_segments)
        samples = X.transpose(0, 2, 1).reshape(-1, X.shape[1])
        self.scaler_ = Standardizer().fit(samples)
        return self._normalize(X)

    def fit(self, train_segments):
        y = dataset_mod.labels_of(train_segments)
        self.estimator.fit(self.fit_project(train_segments), y)
        return self

    def _normalize(self, X):
        # the scaler's column statistics, applied over the channel axis
        mean, std = self.scaler_.mean_[None, :, None], self.scaler_.std_[None, :, None]
        return (X - mean) / std

    def project(self, segments):
        return self._normalize(self._to_array(segments))

    def predict(self, segments):
        return self.estimator.predict(self.project(segments))

    def embed(self, segments):
        return self.estimator.embed(self.project(segments))

    def describe(self):
        e = self.estimator
        return (
            f"raw CnnClassifier act={e.activation} lr={e.learning_rate:g} "
            f"wd={e.weight_decay:g} bs={e.batch_size} epochs={e.epochs}"
        )

    def save(self, out_dir, stem):
        out_dir = Path(out_dir)
        self.estimator.save(out_dir / f"{stem}_model")
        self.scaler_.save(out_dir / f"{stem}_channels.json")

    @classmethod
    def load(cls, out_dir, stem):
        out_dir = Path(out_dir)
        pipeline = cls("cnn", CnnClassifier.load(out_dir / f"{stem}_model"))
        pipeline.scaler_ = Standardizer.load(out_dir / f"{stem}_channels.json")
        return pipeline


def build_pipeline(cfg: PipelineConfig, method=None, channel_names=None):
    method = method or cfg.method
    params = cfg.params_for(method)
    if method == "cnn":
        defaults = {"seed": cfg.seed}
        if channel_names is not None:
            defaults["in_channels"] = len(channel_names)
        return CnnPipeline("cnn", CnnClassifier(**{**defaults, **params}))
    return ClassicalPipeline(
        method, cfg.transform, cfg.pcs, ESTIMATORS[method](**params), channel_names
    )


# ---------------------------------------------------------------------------
# pipeline driver
# ---------------------------------------------------------------------------

def subset_channels(segments, channel_names, keep):
    """Restrict segments to the named channels (e.g. one physical direction)."""
    keep = tuple(keep)
    missing = [c for c in keep if c not in channel_names]
    if missing:
        raise DataError(f"unknown channel(s) {missing}; have {list(channel_names)}")
    idx = [channel_names.index(c) for c in keep]
    out = [
        dataset_mod.Segment(
            samples=s.samples[:, idx],
            source_index=s.source_index,
            window_index=s.window_index,
            label=s.label,
        )
        for s in segments
    ]
    return out, keep


def generate_series(cfg: PipelineConfig):
    """The synthetic series set of cfg's preset, size, noise and seed."""
    return dataset_mod.generate(dataset_mod.preset_config(
        cfg.preset,
        n_series_per_class=cfg.n_series_per_class,
        noise_level=cfg.noise,
        seed=cfg.seed,
        series_len=cfg.series_len,
    ))


def window_segments(cfg: PipelineConfig, series_set=None):
    """Generate (or accept) series, cut them into cfg's windows and keep
    cfg's channels: the one place a run's windows are decided."""
    if series_set is None:
        series_set = generate_series(cfg)
    segments = dataset_mod.window(series_set, cfg.window_seconds)
    channel_names = series_set.channel_names
    if cfg.channels is not None:
        segments, channel_names = subset_channels(
            segments, channel_names, cfg.channels
        )
    return segments, channel_names


def prepare_segments(cfg: PipelineConfig, series_set=None):
    """window_segments, then the train/test split. A pcs is checked here,
    on the channels of the windows, before anything is fitted on them."""
    segments, channel_names = window_segments(cfg, series_set)
    cfg.check_pcs(channel_names)
    train, test = dataset_mod.split(segments, cfg.test_fraction, cfg.seed)
    return train, test, channel_names


def load_run(model_path, series_set):
    """The run saved beside <dir>/<stem>_model: its pipeline, of the model's
    `kind`, and series_set's windows cut by the run's config.json."""
    model_path = Path(model_path)
    out_dir, stem = model_path.parent, model_path.name.removesuffix("_model")
    if stem == model_path.name:
        raise DataError(f"a model path ends in _model: {model_path}")
    cfg = PipelineConfig.from_json((out_dir / "config.json").read_text())
    segments, channel_names = window_segments(cfg, series_set)
    try:
        kind = json.loads((out_dir / f"{stem}_model.json").read_text())["kind"]
        if kind not in ESTIMATORS:
            raise DataError(f"{model_path}: unknown model kind {kind!r}")
        if kind == "cnn":
            return CnnPipeline.load(out_dir, stem), segments
        return ClassicalPipeline.load(
            out_dir, stem, kind, cfg.transform, cfg.pcs, channel_names
        ), segments
    except (KeyError, TypeError) as exc:
        raise DataError(f"{model_path}: malformed saved model ({exc!r})") from None


def run_pipeline(cfg: PipelineConfig, out_dir, series_set=None):
    """Run one method end to end; persist features, model, and report."""
    cfg.validate()
    train, test, channel_names = prepare_segments(cfg, series_set)
    return run_split(cfg, out_dir, train, test, channel_names)


def run_split(cfg: PipelineConfig, out_dir, train, test, channel_names):
    """run_pipeline on a split that prepare_segments(cfg) already made."""
    pipeline = build_pipeline(cfg, channel_names=channel_names)
    reports = compare([pipeline], train, test)
    # made once the fit has succeeded, so a failed run leaves no directory
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.method
    pipeline.save(out_dir, stem)
    if isinstance(pipeline, ClassicalPipeline):
        pipeline.project(train).to_csv(out_dir / f"{stem}_train_features.csv")
        pipeline.project(test).to_csv(out_dir / f"{stem}_test_features.csv")
    reports = [_stamp(r, cfg) for r in reports]
    reports_to_csv(reports, out_dir / "report.csv")
    (out_dir / "config.json").write_text(cfg.to_json() + "\n")
    return reports, pipeline


def run_compare(cfg: PipelineConfig, out_dir, series_set=None):
    """Fit all four methods on one split; write report CSV and text table."""
    cfg.validate()
    train, test, channel_names = prepare_segments(cfg, series_set)
    pipelines = [
        build_pipeline(cfg, method, channel_names=channel_names)
        for method in METHODS
    ]
    reports = compare(pipelines, train, test)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for pipeline in pipelines:
        pipeline.save(out_dir, pipeline.name)
    reports = [_stamp(r, cfg) for r in reports]
    reports_to_csv(reports, out_dir / "report.csv")
    table = format_table(reports)
    (out_dir / "report.txt").write_text(table + "\n")
    (out_dir / "config.json").write_text(cfg.to_json() + "\n")
    return reports, pipelines


def _stamp(report, cfg):
    return replace(report, config=f"{report.config} cfg={cfg.hash()}")


# ---------------------------------------------------------------------------
# CSV bundles behind the plots
# ---------------------------------------------------------------------------

def emit_feature_scatter(features: FeatureMatrix, out_dir):
    """Pairwise scatter CSVs (one per feature pair) plus per-feature marginals."""
    if features.n_rows == 0:
        raise DataError("empty feature matrix")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    d = features.n_features
    written = []
    for i, j in combinations(range(d), 2):
        path = out_dir / f"pair_{i:02d}_{j:02d}.csv"
        write_csv(
            path,
            [features.feature_names[i], features.feature_names[j], "label"],
            zip(features.values[:, i], features.values[:, j], features.labels),
        )
        written.append(path)
    for i in range(d):
        path = out_dir / f"marginal_{i:02d}.csv"
        write_csv(
            path,
            [features.feature_names[i], "label"],
            zip(features.values[:, i], features.labels),
        )
        written.append(path)
    return written


def emit_pca_ratios(pca: PCA, path):
    """(component, ratio, cumulative) rows for the explained-ratio plot."""
    ratios = pca.explained_variance_ratio()
    rows = []
    cumulative = 0.0
    for i, ratio in enumerate(ratios, start=1):
        cumulative += ratio
        rows.append((i, ratio, cumulative))
    write_csv(Path(path), ["component", "ratio", "cumulative"], rows)
    return path


def emit_baseline_cloud(lines, path):
    """(window_start, beta0, beta1) rows for the baseline line cloud."""
    if not lines:
        raise DataError("no baseline lines to emit")
    baseline_mod.write_lines_csv(lines, path)
    return path


def emit_cnn_embedding(pipeline: CnnPipeline, segments, path):
    """(x1, x2, label) rows: the 2-D embedding of each segment."""
    if not segments:
        raise DataError("no segments to embed")
    embedding = pipeline.embed(segments)
    labels = dataset_mod.labels_of(segments)
    write_csv(
        Path(path),
        ["x1", "x2", "label"],
        zip(embedding[:, 0], embedding[:, 1], labels),
    )
    return path
