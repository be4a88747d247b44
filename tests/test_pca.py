import numpy as np
import pytest

from wellmon import transforms
from wellmon.base import NotFittedError
from wellmon.dataset import generate, preset_config, window
from wellmon.pca import PCA
from wellmon.transforms import FeatureMatrix, transform_segments
from wellmon.validation import as_float_matrix


def test_normalized_uncorrelated_data_whitens(rng):
    X = rng.standard_normal((4000, 3)) * np.array([3.0, 2.0, 1.0])
    model = PCA(3).fit(X)
    # normalization whitens the variances {9, 4, 1} away
    assert np.all(np.abs(model.eigenvalues_ - 1.0) < 0.15)


def test_rank_one_line():
    t = np.linspace(-2.0, 2.0, 50)
    X = np.column_stack([t, t])  # exactly y = x
    model = PCA(2).fit(X)
    assert model.eigenvalues_[1] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.abs(model.components_[:, 0]), 1.0 / np.sqrt(2.0))


def test_perfectly_correlated_columns_hand_case():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    model = PCA(2).fit(X)
    assert model.eigenvalues_[0] == pytest.approx(2.0, abs=1e-12)
    assert model.eigenvalues_[1] == pytest.approx(0.0, abs=1e-12)


def test_projection_decorrelates(rng):
    X = rng.standard_normal((200, 5)) @ rng.standard_normal((5, 5))
    model = PCA(5).fit(X)
    P = model.transform(X)
    cov = (P - P.mean(axis=0)).T @ (P - P.mean(axis=0)) / len(P)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 1e-8


def test_full_projection_is_isometry(rng):
    X = rng.standard_normal((60, 4))
    model = PCA(4).fit(X)
    P = model.transform(X)
    normalized = (X - model.mean_) / model.std_
    for i in range(0, 60, 13):
        for j in range(0, 60, 17):
            d_orig = np.linalg.norm(normalized[i] - normalized[j])
            d_proj = np.linalg.norm(P[i] - P[j])
            assert d_proj == pytest.approx(d_orig, abs=1e-8)


def test_mean_row_projects_to_zero(rng):
    X = rng.standard_normal((30, 4))
    model = PCA(2).fit(X)
    assert np.allclose(model.transform(model.mean_[None, :]), 0.0, atol=1e-12)


def test_feature_matrix_interface(rng):
    values = rng.standard_normal((20, 4))
    fm = FeatureMatrix(values, ("a", "b", "c", "d"), [0, 1] * 10)
    model = PCA(2).fit(fm)
    out = model.transform(fm)
    assert isinstance(out, FeatureMatrix)
    assert out.feature_names == ("PC1", "PC2")
    assert np.array_equal(out.labels, fm.labels)


def test_explained_ratio_arithmetic():
    model = PCA(1)
    model.eigenvalues_ = np.array([2.0, 1.0, 1.0])
    assert np.allclose(model.explained_variance_ratio(), [0.5, 0.25, 0.25])


def test_explained_ratio_rank_one():
    t = np.linspace(0.0, 1.0, 40)
    model = PCA(2).fit(np.column_stack([t, 2 * t]))
    ratios = model.explained_variance_ratio()
    assert ratios[0] == pytest.approx(1.0, abs=1e-12)
    assert ratios[1] == pytest.approx(0.0, abs=1e-12)


def test_explained_ratio_properties(rng):
    X = rng.standard_normal((100, 6)) @ rng.standard_normal((6, 6))
    model = PCA(3).fit(X)
    ratios = model.explained_variance_ratio()
    assert abs(ratios.sum() - 1.0) < 1e-10
    assert np.all(ratios >= -1e-12)
    assert np.all(np.diff(ratios) <= 1e-12)
    cumulative = np.cumsum(ratios)
    assert np.all(np.diff(cumulative) >= -1e-12)


def test_default_preset_cov_features_first7_dominate():
    cfg = preset_config("slack", n_series_per_class=4, seed=11, series_len=3001)
    segments = window(generate(cfg), 60.0)
    fm = transform_segments(segments, "cov")
    model = PCA(21).fit(fm)
    ratios = model.explained_variance_ratio()
    assert ratios[:7].sum() > 0.9


def test_eigen_residual(rng):
    X = rng.standard_normal((40, 6))
    model = PCA(6).fit(X)
    normalized = (X - model.mean_) / model.std_
    sigma = normalized.T @ normalized / len(X)
    for i in range(6):
        w = model.components_[:, i]
        lam = model.eigenvalues_[i]
        assert np.linalg.norm(sigma @ w - lam * w) < 1e-8


def test_reconstruction_full_rank(rng):
    X = rng.standard_normal((50, 5))
    model = PCA(5).fit(X)
    normalized = (X - model.mean_) / model.std_
    W = model.components_
    recon = normalized @ W @ W.T
    assert np.linalg.norm(recon - normalized) < 1e-8


def test_determinism_and_sign_convention(rng):
    X = rng.standard_normal((40, 4))
    a = PCA(4).fit(X)
    b = PCA(4).fit(X.copy())
    assert np.array_equal(a.components_, b.components_)
    for j in range(4):
        pivot = np.argmax(np.abs(a.components_[:, j]))
        assert a.components_[pivot, j] > 0


def test_errors():
    X = np.zeros((5, 3)) + np.arange(3.0)
    with pytest.raises(ValueError):
        PCA(0).fit(X)
    with pytest.raises(ValueError):
        PCA(4).fit(X)
    model = PCA(2)
    with pytest.raises(NotFittedError):
        model.transform(X)
    with pytest.raises(ValueError, match="features"):
        PCA(2).fit(np.random.default_rng(0).standard_normal((10, 3))).transform(
            np.zeros((2, 5))
        )


def test_transform_rejects_bad_input(rng, monkeypatch):
    # the scaler checks PCA.transform's input, in one pass over the values
    model = PCA(2).fit(rng.standard_normal((10, 3)))
    checks = []
    monkeypatch.setattr(transforms, "as_float_matrix",
                        lambda X: checks.append(X) or as_float_matrix(X))
    model.transform(rng.standard_normal((4, 3)))
    assert len(checks) == 1
    for bad in (np.nan, np.inf):
        X = rng.standard_normal((4, 3))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            model.transform(X)
    with pytest.raises(ValueError, match="expected 3 features, got 5"):
        model.transform(rng.standard_normal((4, 5)))


def test_json_roundtrip(tmp_path, rng):
    X = rng.standard_normal((30, 5))
    model = PCA(3).fit(X)
    model.save(tmp_path / "pca.json")
    loaded = PCA.load(tmp_path / "pca.json")
    assert loaded.n_components == 3
    assert np.array_equal(loaded.components_, model.components_)
    assert np.array_equal(loaded.eigenvalues_, model.eigenvalues_)
    assert np.allclose(loaded.transform(X), model.transform(X), atol=0, rtol=0)
