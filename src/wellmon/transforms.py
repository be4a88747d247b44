"""Dispersion feature transforms over fixed-length segments.

Two feature maps: per-channel standard deviations (m features), and the
row-major upper triangle of the covariance-matrix square root
(m(m+1)/2 features). In-window statistics use the sample divisor n-1;
segments are mean-centered inside the covariance regardless of any upstream
normalization, since the features measure within-window dispersion.

Both maps run on stacks of same-shape windows; a one-window call
(std_features, cov_features) is a batch of one, so its row has the bits
of the same window's row in a batch.

Layout: a batch is cut into chunks of CHUNK consecutive windows, and each
chunk is stacked sample-major, (n_w, CHUNK, m), so every reduction runs
over the outer axis with all the chunk's channels in one contiguous inner
loop, where a window-major (B, n_w, m) stack had an m-wide one. At 300
samples and 6 channels a chunk's temporaries are about 460 KB each, small
enough to stay in cache. The bits are those of the window-major stack
reduced over axis 1: numpy adds a reduction over a non-inner axis in
sample order in either layout, each window's product with itself is its
own BLAS call, and the covariances of all chunks go through one
`sym_sqrt_batch` call, whose per-matrix `eigh` does not depend on the
batch. Channel-major windows (a channel subset) and one-channel windows,
whose samples numpy sums along memory, are kept in that order; see
_sample_major_chunks.

The pipelines that label the same windows in turn (logreg, dtree and svm
on one feature set) share one computation: _feature_rows keeps the rows of
its last call, keyed on (kind, window shape, window count, layout, the
C-order bytes of each float64 window). A call whose key equals that one
byte for byte gets a copy of the kept rows; any other call computes its
own and replaces the entry, so at most one call's windows are held. The
shape and sample-count checks run on every call, and a COV window that is
not finite raises before anything is kept.
"""

import csv
import functools
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .dataset import labels_of
from .linalg import sym_sqrt_batch
from .validation import (
    as_float_matrix, as_label_vector, check_symmetric, check_width, write_csv,
)

CONSTANT_COLUMN_TOL = 1e-12
CHUNK = 32


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
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, expected a header row")
            if not header or header[-1] != "label":
                raise ValueError(f"{path}: last column must be 'label'")
            rows, labels = [], []
            for rec in reader:
                rows.append([float(v) for v in rec[:-1]])
                labels.append(int(rec[-1]))
        # a header with no rows is a (0, d) matrix, which its consumers refuse
        values = np.array(rows or np.empty((0, len(header) - 1)), dtype=np.float64)
        return cls(values, tuple(header[:-1]), labels)


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


def std_features(segment):
    """Per-channel sample standard deviation (divisor n-1)."""
    return _feature_rows([segment], "std")[0]


def _covariances(stack):
    """Sample covariances (divisor n-1), (B, m, m), of a sample-major
    (n, B, m) stack of segments, each mean-centered over its own samples."""
    n_w = stack.shape[0]
    if n_w < 2:
        raise ValueError(f"segment needs >= 2 samples, got {n_w}")
    centered = stack - stack.mean(axis=0)
    sigmas = (centered.transpose(1, 2, 0) @ centered.transpose(1, 0, 2)) / (n_w - 1)
    return 0.5 * (sigmas + sigmas.transpose(0, 2, 1))


def cov_matrix(segment) -> CovMatrix:
    """Sample covariance (divisor n-1) of the mean-centered channels."""
    samples = np.asarray(segment.samples, dtype=np.float64)
    return CovMatrix(_covariances(samples[:, None, :])[0])


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


@functools.lru_cache(maxsize=None)
def _triangle(m):
    """upper_triangle_indices(m) as read-only (rows, cols) index arrays."""
    rows, cols = np.array(upper_triangle_indices(m)).reshape(-1, 2).T
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def cov_feature_names(channel_names):
    return _cov_feature_names(tuple(channel_names))


@functools.lru_cache(maxsize=64)
def _cov_feature_names(channel_names):
    return tuple(
        f"sqrtcov({channel_names[i]},{channel_names[j]})"
        for i, j in upper_triangle_indices(len(channel_names))
    )


def cov_features(segment):
    """Upper triangle (row-major, diagonal included) of the covariance root."""
    return _feature_rows([segment], "cov")[0]


# (key, rows) of the last _feature_rows call; see _feature_rows
_last_rows = None


def _feature_rows(segments, kind):
    """std_features or cov_features of every segment, computed on
    sample-major chunks of same-shape segments (one sym_sqrt_batch call
    for cov).

    A call whose key (kind, window shape, count, layout and the C-order
    bytes of each float64 window) equals the last call's, byte for byte,
    gets a copy of that call's rows; any other call computes its rows and
    replaces the entry.
    """
    global _last_rows
    samples = [np.asarray(s.samples, dtype=np.float64) for s in segments]
    shape = samples[0].shape
    for i, x in enumerate(samples):
        if x.ndim != 2 or x.shape != shape:
            raise ValueError(f"segment {i} has shape {x.shape}; expected {shape}")
    if shape[0] < 2:
        raise ValueError(f"segment needs >= 2 samples, got {shape[0]}")
    layout = _layout(samples[0])
    # bytes == stops at the first differing byte, so a miss costs the key
    key = (kind, shape, len(samples), layout, tuple(x.tobytes() for x in samples))
    last = _last_rows
    if last is not None and last[0] == key:
        return last[1].copy()
    _last_rows = None  # hold at most one call's windows
    rows = _computed_rows(samples, kind, layout)
    _last_rows = (key, rows)
    return rows.copy()


def _computed_rows(samples, kind, layout):
    chunks = _sample_major_chunks(samples, layout)
    # an inf sample centers to inf - inf = NaN; the finiteness screens
    # downstream raise for it, so numpy's warning would only repeat them
    with np.errstate(invalid="ignore"):
        if kind == "std":
            return np.concatenate([np.std(chunk, axis=0, ddof=1) for chunk in chunks])
        sigmas = np.concatenate([_covariances(chunk) for chunk in chunks])
    rows, cols = _triangle(samples[0].shape[1])
    # fancy indexing here yields Fortran order; the rows go back to C order,
    # because the column sums of the standardizer round by memory layout
    return np.ascontiguousarray(sym_sqrt_batch(sigmas)[:, rows, cols])


def _layout(window):
    """How _sample_major_chunks stacks windows laid out like this one."""
    if window.shape[1] == 1:
        return "one-channel"
    sample_stride, channel_stride = (abs(step) for step in window.strides)
    return "channel-major" if sample_stride < channel_stride else "row-major"


def _sample_major_chunks(samples, layout):
    """(n_w, <=CHUNK, m) stacks of consecutive windows, samples first.

    Row-major windows are copied sample-major. Channel-major windows (a
    channel subset is cut that way) and one-channel windows are copied into
    (CHUNK, m, n_w) memory and viewed sample-major: their sums over samples
    run along memory, as on the window-major stack numpy builds for them,
    so each row keeps that stack's bits.
    """
    for start in range(0, len(samples), CHUNK):
        part = samples[start:start + CHUNK]
        if layout == "row-major":
            yield np.stack(part, axis=1)
        else:
            yield np.stack([x.T for x in part]).transpose(2, 0, 1)


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
        names = channel_names
    elif kind == "cov":
        names = cov_feature_names(channel_names)
    else:
        raise ValueError(f"unknown transform kind {kind!r}; expected 'std' or 'cov'")
    return FeatureMatrix(_feature_rows(segments, kind), names, labels_of(segments))


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
        out = self._apply(values)
        if isinstance(X, FeatureMatrix):
            return X.with_values(out)
        return out

    def _apply(self, values):
        """transform of a float64 matrix already screened finite."""
        return (check_width(values, self.mean_.shape[0]) - self.mean_) / self.std_

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
