"""Dispersion feature transforms over fixed-length segments.

Two feature maps: per-channel standard deviations (m features), and the
row-major upper triangle of the covariance-matrix square root
(m(m+1)/2 features). In-window statistics use the sample divisor n-1;
segments are mean-centered inside the covariance regardless of any upstream
normalization, since the features measure within-window dispersion.
"""

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .linalg import sym_sqrt_batch
from .validation import as_float_matrix, as_label_vector, check_symmetric, write_csv

CONSTANT_COLUMN_TOL = 1e-12


@dataclass(frozen=True)
class FeatureMatrix:
    """N x d feature values with feature names and per-row labels."""

    values: np.ndarray
    feature_names: tuple
    labels: np.ndarray

    def __post_init__(self):
        values = as_float_matrix(self.values, "values")
        labels = as_label_vector(self.labels, "labels")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if len(self.feature_names) != values.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} names for {values.shape[1]} features"
            )
        if labels.shape[0] != values.shape[0]:
            raise ValueError("labels length does not match number of rows")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]

    def with_values(self, values, feature_names=None):
        """Same labels, new values (and optionally new names)."""
        names = self.feature_names if feature_names is None else feature_names
        return FeatureMatrix(values, names, self.labels)

    def select(self, row_indices):
        idx = np.asarray(row_indices)
        return FeatureMatrix(self.values[idx], self.feature_names, self.labels[idx])

    def to_csv(self, path):
        """Header = feature names plus trailing `label` column."""
        write_csv(
            path,
            list(self.feature_names) + ["label"],
            ([*row, int(label)] for row, label in zip(self.values, self.labels)),
        )

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if not header or header[-1] != "label":
                raise ValueError(f"{path}: last column must be 'label'")
            rows, labels = [], []
            for rec in reader:
                rows.append([float(v) for v in rec[:-1]])
                labels.append(int(rec[-1]))
        return cls(np.array(rows, dtype=np.float64), tuple(header[:-1]), labels)


@dataclass(frozen=True)
class CovMatrix:
    """Channel covariance of one segment; symmetric PSD by construction."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = check_symmetric(self.sigma, tol=1e-10, name="sigma")
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_channels(self):
        return self.sigma.shape[0]


def _segment_samples(segment):
    samples = np.asarray(segment.samples, dtype=np.float64)
    if samples.shape[0] < 2:
        raise ValueError(f"segment needs >= 2 samples, got {samples.shape[0]}")
    return samples


def std_features(segment):
    """Per-channel sample standard deviation (divisor n-1)."""
    samples = _segment_samples(segment)
    return np.std(samples, axis=0, ddof=1)


def _covariances(stack):
    """Sample covariances (divisor n-1) of a (B, n, m) stack of segments,
    each mean-centered over its own samples."""
    n_w = stack.shape[1]
    if n_w < 2:
        raise ValueError(f"segment needs >= 2 samples, got {n_w}")
    centered = stack - stack.mean(axis=1, keepdims=True)
    sigmas = (centered.transpose(0, 2, 1) @ centered) / (n_w - 1)
    return 0.5 * (sigmas + sigmas.transpose(0, 2, 1))


def cov_matrix(segment) -> CovMatrix:
    """Sample covariance (divisor n-1) of the mean-centered channels."""
    samples = _segment_samples(segment)
    return CovMatrix(_covariances(samples[None])[0])


def cov_sqrt(sigma):
    """Symmetric PSD square root R with R @ R = sigma.

    Accepts a CovMatrix or a raw symmetric matrix; eigenvalues below -1e-10
    are rejected, tiny negatives are clamped to zero.
    """
    if isinstance(sigma, CovMatrix):
        sigma = sigma.sigma
    sigma = check_symmetric(sigma, tol=1e-10, name="sigma")
    return sym_sqrt_batch(sigma[None], neg_tol=-1e-10)[0]


def correlation(sigma):
    """diag(sigma)^(-1/2) sigma diag(sigma)^(-1/2); unit diagonal."""
    if isinstance(sigma, CovMatrix):
        sigma = sigma.sigma
    sigma = check_symmetric(sigma, tol=1e-10, name="sigma")
    d = np.diag(sigma)
    if np.any(d <= 0):
        raise ValueError("correlation undefined: zero variance on the diagonal")
    inv_root = 1.0 / np.sqrt(d)
    corr = sigma * np.outer(inv_root, inv_root)
    np.fill_diagonal(corr, 1.0)
    return corr


def upper_triangle_indices(m):
    """Row-major upper-triangle index pairs, diagonal included."""
    return [(i, j) for i in range(m) for j in range(i, m)]


def cov_feature_names(channel_names):
    return tuple(
        f"sqrtcov({channel_names[i]},{channel_names[j]})"
        for i, j in upper_triangle_indices(len(channel_names))
    )


def cov_features(segment):
    """Upper triangle (row-major, diagonal included) of the covariance root."""
    return _cov_feature_rows([segment])[0]


def _cov_feature_rows(segments):
    """cov_features of every segment, one sym_sqrt_batch call per distinct
    segment shape."""
    samples = [np.asarray(s.samples, dtype=np.float64) for s in segments]
    m = samples[0].shape[-1]
    groups = {}
    for i, x in enumerate(samples):
        if x.ndim != 2 or x.shape[1] != m:
            raise ValueError(f"segment {i} has shape {x.shape}; expected (n, {m})")
        groups.setdefault(x.shape, []).append(i)
    rows, cols = np.triu_indices(m)
    values = np.empty((len(samples), len(rows)))
    for idx in groups.values():
        roots = sym_sqrt_batch(_covariances(np.stack([samples[i] for i in idx])))
        values[idx] = roots[:, rows, cols]
    return values


def transform_segments(segments, kind, channel_names=None):
    """Apply the std or cov transform to every segment -> FeatureMatrix."""
    segments = list(segments)
    if not segments:
        raise ValueError("no segments to transform")
    m = np.asarray(segments[0].samples).shape[1]
    if channel_names is None:
        channel_names = tuple(f"c{i}" for i in range(m))
    channel_names = tuple(channel_names)
    if len(channel_names) != m:
        raise ValueError(f"{len(channel_names)} channel names for {m} channels")
    if kind == "std":
        values = np.array([std_features(s) for s in segments])
        names = channel_names
    elif kind == "cov":
        values = _cov_feature_rows(segments)
        names = cov_feature_names(channel_names)
    else:
        raise ValueError(f"unknown transform kind {kind!r}; expected 'std' or 'cov'")
    labels = np.array([int(s.label) for s in segments], dtype=np.int64)
    return FeatureMatrix(values, names, labels)


class Standardizer(BaseEstimator):
    """Column-wise (x - mean) / std using train statistics only.

    The scale is the population standard deviation (divisor N). A constant
    train column gets std := 1 and a warning instead of an error, so
    degenerate synthetic configurations do not abort pipelines.
    """

    def fit(self, X):
        values, names = _matrix_values(X)
        if values.shape[0] == 0:
            raise ValueError("cannot standardize an empty matrix")
        self.mean_ = values.mean(axis=0)
        std = values.std(axis=0)
        constant = std <= CONSTANT_COLUMN_TOL
        if np.any(constant):
            which = (
                [names[i] for i in np.flatnonzero(constant)]
                if names
                else list(np.flatnonzero(constant))
            )
            warnings.warn(f"constant column(s) {which}: std set to 1")
            std = np.where(constant, 1.0, std)
        self.std_ = std
        return self

    def transform(self, X):
        check_is_fitted(self, "mean_")
        values, _ = _matrix_values(X)
        if values.shape[1] != self.mean_.shape[0]:
            raise ValueError(
                f"expected {self.mean_.shape[0]} features, got {values.shape[1]}"
            )
        out = (values - self.mean_) / self.std_
        if isinstance(X, FeatureMatrix):
            return X.with_values(out)
        return out

    def fit_transform(self, X):
        return self.fit(X).transform(X)

    def save(self, path):
        check_is_fitted(self, "mean_")
        payload = {
            "kind": "standardizer",
            "mean": self.mean_.tolist(),
            "std": self.std_.tolist(),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path):
        payload = json.loads(Path(path).read_text())
        scaler = cls()
        scaler.mean_ = np.array(payload["mean"], dtype=np.float64)
        scaler.std_ = np.array(payload["std"], dtype=np.float64)
        return scaler


def _matrix_values(X):
    if isinstance(X, FeatureMatrix):
        return X.values, X.feature_names
    return as_float_matrix(X), None


def standardize(train, test):
    """Standardize train and test with train statistics.

    Returns (train', test', mean, std).
    """
    scaler = Standardizer().fit(train)
    return scaler.transform(train), scaler.transform(test), scaler.mean_, scaler.std_
