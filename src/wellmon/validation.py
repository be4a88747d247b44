"""Input validation helpers used across the toolkit, the k-fold scoring
loop and the one CSV writer every module's output goes through."""

import csv

import numpy as np


def as_float_matrix(X, name="X"):
    """Coerce to a finite 2-D float64 array."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite entries")
    return X


def as_float_vector(x, name="x"):
    """Coerce to a finite 1-D float64 array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def as_query_rows(X, n_features):
    """Coerce prediction input to finite float64 rows of n_features.

    A 1-D input is one row. Returns (rows, single), where single says the
    input was 1-D, so the caller can hand back a scalar.
    """
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    return X, single


def as_label_vector(y, name="y"):
    """Coerce labels to a 1-D int array of 0/1."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {y.shape}")
    y = y.astype(np.int64)
    binary = (y == 0) | (y == 1)
    if not binary.all():
        bad = np.unique(y[~binary])
        raise ValueError(f"{name} must be binary 0/1, found values {sorted(bad)}")
    return y


def check_X_y(X, y):
    """Validate a feature matrix with matching binary labels."""
    X = as_float_matrix(X)
    y = as_label_vector(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} labels")
    return X, y


def require_both_classes(y, name="y"):
    if len(np.unique(y)) < 2:
        raise ValueError(f"{name} must contain both classes")


def check_symmetric(A, tol, name="matrix"):
    A = as_float_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if np.max(np.abs(A - A.T)) > tol:
        raise ValueError(f"{name} is not symmetric within {tol}")
    return A


def stratified_kfold_indices(y, k, seed=0):
    """Deterministic stratified k-fold split: list of (train_idx, test_idx).

    Every fold must contain both classes; raises otherwise.
    """
    y = as_label_vector(y)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if len(idx) < k:
            raise ValueError(
                f"class {cls} has {len(idx)} samples, fewer than k={k} folds"
            )
        idx = idx[rng.permutation(len(idx))]
        for pos, i in enumerate(idx):
            folds[pos % k].append(i)
    splits = []
    for f in range(k):
        test_idx = np.sort(np.array(folds[f], dtype=np.int64))
        train_idx = np.sort(
            np.concatenate([folds[g] for g in range(k) if g != f]).astype(np.int64)
        )
        splits.append((train_idx, test_idx))
    return splits


def cv_accuracy(make_model, X, y, folds):
    """Mean over folds of the held-out accuracy of make_model() fit on the
    rest; folds as returned by stratified_kfold_indices."""
    scores = []
    for train_idx, test_idx in folds:
        model = make_model()
        model.fit(X[train_idx], y[train_idx])
        pred = model.predict(X[test_idx])
        scores.append(float(np.mean(pred == y[test_idx])))
    return float(np.mean(scores))


def write_csv(path, header, rows, append=False):
    """Write rows as CSV; append skips the header of an existing file.

    This is the toolkit's on-disk number format: floats (numpy float32
    included) are written as %.17g, which reads back bit for bit; strings
    and ints pass unchanged.
    """
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, (float, np.floating)) else v for v in row]
            )
