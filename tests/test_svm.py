import json

import numpy as np
import pytest

from wellmon.pipeline import PipelineConfig, build_pipeline, prepare_segments
from wellmon.svm import (
    ConvergenceError,
    SvmClassifier,
    dual_objective,
    kernel_eval,
    kernel_matrix,
    rbf_gamma_scale,
)

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([0, 0, 1, 1])


def project_feasible(z, y_pm, C, iters=60):
    """Exact Euclidean projection onto {0 <= a <= C} intersect {a'y = 0}.

    The KKT form is a_i = clip(z_i - lam * y_i, 0, C) with g(lam) = y'a
    monotone non-increasing in lam; bisection finds the root.
    """
    span = float(np.max(np.abs(z))) + C + 1.0
    lo, hi = -span, span
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if float(y_pm @ np.clip(z - mid * y_pm, 0.0, C)) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.clip(z - 0.5 * (lo + hi) * y_pm, 0.0, C)


def projected_gradient_dual(K, y_pm, C, steps=4000, lr=None):
    """Independent oracle: projected gradient descent on the dual with an
    exact projection onto the feasible set after every step."""
    n = len(y_pm)
    H = K * np.outer(y_pm, y_pm)
    if lr is None:
        lr = 0.5 / max(np.linalg.norm(H, 2), 1e-12)
    alpha = project_feasible(np.zeros(n), y_pm, C)
    for _ in range(steps):
        grad = H @ alpha - 1.0
        alpha = project_feasible(alpha - lr * grad, y_pm, C)
    return alpha


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_values():
    x = np.array([1.0, 0.0])
    z = np.array([0.0, 1.0])
    assert kernel_eval("rbf", x, x, gamma=2.0) == pytest.approx(1.0)
    assert kernel_eval("linear", x, z) == 0.0
    # gamma = 0.5, squared distance 2 -> exp(-1)
    assert kernel_eval("rbf", x, z, gamma=0.5) == pytest.approx(np.exp(-1.0))


def test_kernel_matrix_consistency(rng):
    A = rng.standard_normal((5, 3))
    B = rng.standard_normal((4, 3))
    Km = kernel_matrix("rbf", A, B, gamma=0.7)
    for i in range(5):
        for j in range(4):
            assert Km[i, j] == pytest.approx(
                kernel_eval("rbf", A[i], B[j], gamma=0.7), abs=1e-12
            )


def test_kernel_errors():
    with pytest.raises(ValueError, match="dimension"):
        kernel_eval("linear", np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError, match="gamma"):
        kernel_eval("rbf", np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="kernel"):
        kernel_eval("poly", np.zeros(2), np.zeros(2))


def test_gamma_scale_convention(rng):
    X = rng.standard_normal((50, 4)) * np.array([1.0, 2.0, 3.0, 4.0])
    expected = 1.0 / (4 * np.mean(np.var(X, axis=0)))
    assert rbf_gamma_scale(X) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _kkt_ok(model, X, y, tol=1e-3):
    return float(np.max(model.training_kkt_violations(X, y))) < tol


def test_two_point_symmetric_hard_margin():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = SvmClassifier(kernel="linear", C=100.0).fit(X, y)
    assert model.n_support_ == 2
    assert model.bias_ == pytest.approx(0.0, abs=1e-6)
    assert model.decision_function(np.array([1.0])) == pytest.approx(1.0, abs=1e-6)
    assert model.decision_function(np.array([-1.0])) == pytest.approx(-1.0, abs=1e-6)
    assert _kkt_ok(model, X, y)


def test_four_point_dual_matches_projected_gradient(rng):
    X = np.array([[0.0, 0.0], [0.4, 0.8], [2.0, 2.0], [2.2, 1.0]])
    y = np.array([0, 0, 1, 1])
    y_pm = 2.0 * y - 1.0
    for kernel, gamma, C in (("linear", None, 10.0), ("rbf", 0.5, 2.0)):
        model = SvmClassifier(kernel=kernel, C=C, gamma=gamma or "scale").fit(X, y)
        K = kernel_matrix(kernel, X, X, model.gamma_ if kernel == "rbf" else None)
        alpha_full = np.zeros(4)
        alpha_full[model.support_idx_] = model.alphas_
        oracle = projected_gradient_dual(K, y_pm, C)
        smo_obj = dual_objective(K, y_pm, alpha_full)
        oracle_obj = dual_objective(K, y_pm, oracle)
        assert smo_obj == pytest.approx(oracle_obj, abs=1e-4)
        assert abs(alpha_full @ y_pm) < 1e-8
        assert np.all(alpha_full >= -1e-12) and np.all(alpha_full <= C + 1e-12)


def test_dual_feasibility_and_kkt_on_random_problems(rng):
    for trial in range(5):
        n = 30
        X = rng.standard_normal((n, 2))
        y = (X[:, 0] + 0.3 * rng.standard_normal(n) > 0).astype(int)
        if len(np.unique(y)) < 2:
            continue
        model = SvmClassifier(kernel="rbf", C=1.0).fit(X, y)
        alpha_full = np.zeros(n)
        alpha_full[model.support_idx_] = model.alphas_
        y_pm = 2.0 * y - 1.0
        assert abs(alpha_full @ y_pm) < 1e-8
        assert np.all(alpha_full >= 0.0) and np.all(alpha_full <= 1.0)
        assert _kkt_ok(model, X, y)


def test_dual_objective_beats_random_feasible(rng):
    X = rng.standard_normal((12, 2))
    y = (X[:, 0] > 0).astype(int)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    C = 1.5
    model = SvmClassifier(kernel="rbf", C=C).fit(X, y)
    y_pm = 2.0 * y - 1.0
    K = kernel_matrix("rbf", X, X, model.gamma_)
    alpha_full = np.zeros(12)
    alpha_full[model.support_idx_] = model.alphas_
    fitted = dual_objective(K, y_pm, alpha_full)
    for _ in range(1000):
        cand = rng.uniform(0.0, C, size=12)
        for _ in range(80):
            cand = np.clip(cand, 0.0, C)
            cand = cand - y_pm * (cand @ y_pm) / 12
        cand = np.clip(cand, 0.0, C)
        if abs(cand @ y_pm) > 1e-9:
            continue
        assert fitted <= dual_objective(K, y_pm, cand) + 1e-6


def test_overlapping_tiny_C_saturates_box():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 2))
    y = np.array([0, 1] * 10)  # labels independent of X: full overlap
    C = 1e-3
    model = SvmClassifier(kernel="linear", C=C).fit(X, y)
    alpha_full = np.zeros(20)
    alpha_full[model.support_idx_] = model.alphas_
    assert np.sum(alpha_full >= C - 1e-9) >= 18  # nearly all at the box bound


def test_sv_count_non_increasing_in_C():
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.standard_normal((25, 2)), rng.standard_normal((25, 2)) + 3.0])
    y = np.array([0] * 25 + [1] * 25)
    counts = []
    for C in (0.01, 0.1, 1.0, 10.0):
        counts.append(SvmClassifier(kernel="rbf", C=C).fit(X, y).n_support_)
    assert all(b <= a for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# decision function and prediction
# ---------------------------------------------------------------------------

def test_boundary_point_of_symmetric_model():
    model = SvmClassifier(kernel="linear", C=100.0).fit(
        np.array([[-1.0], [1.0]]), np.array([0, 1])
    )
    assert model.decision_function(np.array([0.0])) == pytest.approx(0.0, abs=1e-8)


def test_margin_svs_sit_on_margin(rng):
    X = np.concatenate([rng.standard_normal((20, 2)), rng.standard_normal((20, 2)) + 2.5])
    y = np.array([0] * 20 + [1] * 20)
    model = SvmClassifier(kernel="rbf", C=1.0, tol=1e-4).fit(X, y)
    d = model.decision_function(X)
    y_pm = 2.0 * y - 1.0
    margin = (model.alphas_ > 1e-8) & (model.alphas_ < model.C - 1e-8)
    for idx, a in zip(model.support_idx_[margin], model.alphas_[margin]):
        assert y_pm[idx] * d[idx] == pytest.approx(1.0, abs=1e-3)


def test_linear_primal_dual_agree(rng):
    X = np.concatenate([rng.standard_normal((15, 3)), rng.standard_normal((15, 3)) + 2.0])
    y = np.array([0] * 15 + [1] * 15)
    model = SvmClassifier(kernel="linear", C=1.0).fit(X, y)
    points = rng.standard_normal((100, 3)) * 2.0
    dual = model.decision_function(points)
    primal = points @ model.w_ + model.bias_
    assert np.max(np.abs(dual - primal)) < 1e-10


def test_predict_signs_and_tie():
    model = SvmClassifier(kernel="linear", C=10.0).fit(
        np.array([[-1.0], [1.0]]), np.array([0, 1])
    )
    assert model.predict(np.array([2.0])) == 1
    assert model.predict(np.array([-2.0])) == 0
    # decision exactly zero -> broken by the tie rule
    assert model.decision_function(np.array([0.0])) == pytest.approx(0.0, abs=1e-9)
    assert model.predict(np.array([0.0])) == 1


def test_xor_rbf_separates():
    model = SvmClassifier(kernel="rbf", C=10.0, gamma=1.0).fit(XOR_X, XOR_Y)
    assert np.array_equal(model.predict(XOR_X), XOR_Y)
    assert _kkt_ok(model, XOR_X, XOR_Y)


def test_convergence_error_reports_violation():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 2))
    y = (X[:, 0] > 0).astype(int)
    with pytest.raises(ConvergenceError, match="KKT"):
        SvmClassifier(kernel="rbf", C=1.0, max_passes=1).fit(X, y)


def _budget(model, n):
    """Pair updates max_passes allows: ceil(n / 2) a pass."""
    return model.max_passes * -(-n // 2)


def test_budget_counts_pair_updates():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 2))
    y = (X[:, 0] > 0).astype(int)
    n_iter = SvmClassifier(kernel="rbf", C=1.0).fit(X, y).n_iter_
    passes = -(-n_iter // 15)
    model = SvmClassifier(kernel="rbf", C=1.0, max_passes=passes).fit(X, y)
    assert model.n_iter_ == n_iter <= _budget(model, 30)
    with pytest.raises(ConvergenceError, match=f"{passes - 1} passes"):
        SvmClassifier(kernel="rbf", C=1.0, max_passes=passes - 1).fit(X, y)


def test_solver_diagnostics_are_not_saved(tmp_path, rng):
    X = np.concatenate([rng.standard_normal((30, 2)), rng.standard_normal((30, 2)) + 1.5])
    y = np.array([0] * 30 + [1] * 30)
    model = SvmClassifier(kernel="rbf", C=1.0).fit(X, y)
    assert 0 < model.n_iter_ <= _budget(model, 60)
    assert model.kkt_violation_ < model.tol
    assert model.kkt_violation_ == pytest.approx(
        float(np.max(model.training_kkt_violations(X, y))), abs=1e-12
    )
    model.save(tmp_path / "svm.json")
    payload = json.loads((tmp_path / "svm.json").read_text())
    assert set(payload) == {
        "kind", "kernel", "C", "gamma", "bias", "alphas", "support_vectors",
        "support_labels",
    }


# COV+PCA(4) surrogate fits on which pairing each violator by max |E1 - E2|
# (Platt 1998) used up its 5000 passes and raised ConvergenceError; the
# second is criterion-7 size (1920 training windows)
@pytest.mark.parametrize("kernel, C, noise, seed, n_per_class, series_len", [
    ("linear", 10.0, 50, 0, 5, 6001),
    ("rbf", 100.0, 50, 1, 20, 18001),
])
def test_converges_on_hard_surrogate_fits(kernel, C, noise, seed, n_per_class,
                                          series_len):
    cfg = PipelineConfig(transform="cov", pcs=4, noise=noise, seed=seed,
                         n_series_per_class=n_per_class, series_len=series_len)
    train, _, names = prepare_segments(cfg)
    features = build_pipeline(cfg, channel_names=names).fit_project(train)
    X, y = features.values, features.labels
    model = SvmClassifier(kernel=kernel, C=C).fit(X, y)
    assert model.n_iter_ <= _budget(model, len(y))
    assert model.kkt_violation_ < model.tol
    assert float(np.max(model.training_kkt_violations(X, y))) < model.tol


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_json_roundtrip(tmp_path, rng):
    X = np.concatenate([rng.standard_normal((15, 2)), rng.standard_normal((15, 2)) + 2.0])
    y = np.array([0] * 15 + [1] * 15)
    for kernel in ("linear", "rbf"):
        model = SvmClassifier(kernel=kernel, C=2.0).fit(X, y)
        model.save(tmp_path / f"svm_{kernel}.json")
        loaded = SvmClassifier.load(tmp_path / f"svm_{kernel}.json")
        pts = rng.standard_normal((20, 2))
        assert np.allclose(
            loaded.decision_function(pts), model.decision_function(pts), atol=1e-12
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite(bad):
    model = SvmClassifier(kernel="rbf", C=1.0, gamma=1.0).fit(XOR_X, XOR_Y)
    for call in (model.predict, model.decision_function):
        with pytest.raises(ValueError, match="non-finite"):
            call(np.array([bad, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            call(np.array([[0.0, 1.0], [0.0, bad]]))


def test_errors():
    with pytest.raises(ValueError, match="both classes"):
        SvmClassifier().fit(np.zeros((3, 1)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="C must"):
        SvmClassifier(C=0.0).fit(XOR_X, XOR_Y)
    model = SvmClassifier(kernel="rbf", C=1.0, gamma=1.0).fit(XOR_X, XOR_Y)
    with pytest.raises(ValueError, match="features"):
        model.predict(np.zeros(5))
