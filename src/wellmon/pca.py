"""Principal component analysis: normalize, eigendecompose, project.

fit and transform normalize the columns through the one `Standardizer` that
fit keeps as `scaler_`. The feature covariance uses the divisor 1/N on the
normalized data, and the full eigenvalue spectrum is kept so explained
ratios are available for any cut-off. Eigenvector sign is fixed so each
component's largest-magnitude coordinate is positive, which removes the
sign ambiguity and makes fits reproducible.
"""

import json
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .linalg import eigh_descending
from .transforms import FeatureMatrix, Standardizer, _matrix_values


def _fix_signs(vectors):
    flipped = vectors.copy()
    for j in range(flipped.shape[1]):
        pivot = np.argmax(np.abs(flipped[:, j]))
        if flipped[pivot, j] < 0:
            flipped[:, j] = -flipped[:, j]
    return flipped


class PCA(BaseEstimator):
    """Project features onto the top principal components.

    Parameters
    ----------
    n_components : int
        Number of components d to retain, 1 <= d <= number of input features.
    """

    def __init__(self, n_components):
        self.n_components = n_components

    def fit(self, X):
        values, _ = _matrix_values(X)
        n, d_in = values.shape
        if n < 2:
            raise ValueError("PCA needs at least 2 rows")
        if not 1 <= self.n_components <= d_in:
            raise ValueError(
                f"n_components must lie in [1, {d_in}], got {self.n_components}"
            )
        self.scaler_ = Standardizer().fit(X)
        self.mean_, self.std_ = self.scaler_.mean_, self.scaler_.std_
        normalized = self.scaler_.transform(values)
        sigma = normalized.T @ normalized / n
        sigma = 0.5 * (sigma + sigma.T)
        eigenvalues, vectors = eigh_descending(sigma)
        vectors = _fix_signs(vectors)
        self.eigenvalues_ = eigenvalues
        self.components_ = vectors[:, : self.n_components]
        return self

    def transform(self, X):
        check_is_fitted(self, "components_")
        values, _ = _matrix_values(X)
        projected = self._apply(values)
        if isinstance(X, FeatureMatrix):
            names = tuple(f"PC{i + 1}" for i in range(self.n_components))
            return FeatureMatrix(projected, names, X.labels)
        return projected

    def _apply(self, values):
        """transform of a float64 matrix already screened finite."""
        return self.scaler_._apply(values) @ self.components_

    def explained_variance_ratio(self):
        """eigenvalues / sum(eigenvalues) over the full spectrum."""
        check_is_fitted(self, "eigenvalues_")
        total = self.eigenvalues_.sum()
        if total <= 0:
            raise ValueError("all-zero eigenvalue spectrum")
        return self.eigenvalues_ / total

    def save(self, path):
        """JSON model: mean, std, eigenvalues, components (row-major), d."""
        check_is_fitted(self, "components_")
        payload = {
            "kind": "pca",
            "mean": self.mean_.tolist(),
            "std": self.std_.tolist(),
            "eigenvalues": self.eigenvalues_.tolist(),
            "components": self.components_.tolist(),
            "d": int(self.n_components),
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path):
        payload = json.loads(Path(path).read_text())
        model = cls(n_components=payload["d"])
        # the PCA file holds its scaler's mean and std under the same keys
        model.scaler_ = Standardizer.load(path)
        model.mean_, model.std_ = model.scaler_.mean_, model.scaler_.std_
        model.eigenvalues_ = np.array(payload["eigenvalues"], dtype=np.float64)
        model.components_ = np.array(payload["components"], dtype=np.float64)
        return model
