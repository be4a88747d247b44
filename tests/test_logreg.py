import numpy as np
import pytest

from wellmon.logreg import LogisticRegression, penalized_nll, sigmoid

# 6-point 2-D instance used for the brute-force oracle comparison
ORACLE_X = np.array(
    [[-1.2, -0.5], [-0.8, -1.1], [-1.5, 0.3], [0.9, 1.4], [1.1, 0.2], [0.4, 1.0]]
)
ORACLE_Y = np.array([0, 0, 0, 1, 1, 1])
# frozen from a 6-round refined dense grid search over (b0, b1, b2) at lambda=1
ORACLE_PARAMS = np.array([0.0703, 1.0817, 0.6676])


def grid_search_loss_minimum(X, y, lam, rounds=6):
    """Independent oracle: iteratively refined dense grid over parameters."""
    yf = y.astype(float)

    def loss_grid(b0, b1, b2):
        z = (
            b0[:, None, None, None]
            + b1[None, :, None, None] * X[:, 0]
            + b2[None, None, :, None] * X[:, 1]
        )
        nll = np.logaddexp(0.0, z) - yf * z
        return nll.sum(axis=-1) + 0.5 * lam * (
            b1[None, :, None] ** 2 + b2[None, None, :] ** 2
        )

    center = np.zeros(3)
    width = 4.0
    for _ in range(rounds):
        grids = [np.linspace(c - width, c + width, 41) for c in center]
        values = loss_grid(*grids)
        idx = np.unravel_index(np.argmin(values), values.shape)
        center = np.array([grids[k][idx[k]] for k in range(3)])
        width *= 0.12
    return center


def test_all_zero_features_balanced():
    X = np.zeros((8, 3))
    y = np.array([0, 1] * 4)
    model = LogisticRegression().fit(X, y)
    assert model.intercept_ == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(model.weights_, 0.0, atol=1e-9)
    assert model.predict_proba(np.zeros(3)) == pytest.approx(0.5)


def test_symmetric_1d():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = LogisticRegression(reg_strength=1.0).fit(X, y)
    assert model.intercept_ == pytest.approx(0.0, abs=1e-8)
    assert model.weights_[0] > 0


def test_fit_matches_grid_oracle():
    model = LogisticRegression(reg_strength=1.0).fit(ORACLE_X, ORACLE_Y)
    fitted = np.concatenate([[model.intercept_], model.weights_])
    assert np.allclose(fitted, ORACLE_PARAMS, atol=1e-3)
    # keep the oracle honest: rerunning it reproduces the frozen values
    assert np.allclose(
        grid_search_loss_minimum(ORACLE_X, ORACLE_Y, 1.0), ORACLE_PARAMS, atol=5e-4
    )


def test_predictions_match_oracle_model():
    model = LogisticRegression(reg_strength=1.0).fit(ORACLE_X, ORACLE_Y)
    oracle_pred = (ORACLE_PARAMS[0] + ORACLE_X @ ORACLE_PARAMS[1:] >= 0).astype(int)
    assert np.array_equal(model.predict(ORACLE_X), oracle_pred)


def test_gradient_optimizer_agrees():
    newton = LogisticRegression(reg_strength=1.0).fit(ORACLE_X, ORACLE_Y)
    gradient = LogisticRegression(
        reg_strength=1.0, optimizer="gradient", max_iter=20000, tol=1e-6
    ).fit(ORACLE_X, ORACLE_Y)
    assert abs(gradient.intercept_ - newton.intercept_) < 1e-2
    assert np.allclose(gradient.weights_, newton.weights_, atol=1e-2)


def test_predict_proba_values():
    model = LogisticRegression()
    model.intercept_ = 0.0
    model.weights_ = np.zeros(2)
    assert model.predict_proba(np.zeros(2)) == pytest.approx(0.5)
    model.weights_ = np.array([1.0, 0.0])
    assert model.predict_proba(np.array([np.log(3.0), 0.0])) == pytest.approx(0.75)
    p = model.predict_proba(np.array([-1000.0, 0.0]))
    assert np.isfinite(p) and p == pytest.approx(0.0, abs=1e-12)
    p = model.predict_proba(np.array([1000.0, 0.0]))
    assert np.isfinite(p) and p == pytest.approx(1.0)


def test_predict_tie_goes_to_broken():
    model = LogisticRegression()
    model.intercept_ = 0.0
    model.weights_ = np.array([1.0])
    assert model.predict(np.array([0.0])) == 1  # P = 0.5 exactly
    assert model.predict(np.array([np.log(0.49 / 0.51)])) == 0  # P = 0.49


def test_logit_identity(rng):
    model = LogisticRegression()
    model.intercept_ = 0.3
    model.weights_ = rng.standard_normal(4)
    checked = 0
    for _ in range(300):
        x = rng.standard_normal(4) * 5.0
        z = model.intercept_ + model.weights_ @ x
        if abs(z) > 30:
            continue
        p = model.predict_proba(x)
        # the complement is evaluated stably as well: 1 - sigmoid(z) = sigmoid(-z)
        q = sigmoid(np.array([-z]))[0]
        assert np.log(p / q) == pytest.approx(z, abs=1e-9)
        if abs(z) <= 15:
            assert np.log(p / (1.0 - p)) == pytest.approx(z, abs=1e-9)
        checked += 1
    assert checked > 100


def test_probability_monotone_in_score(rng):
    model = LogisticRegression()
    model.intercept_ = -0.2
    model.weights_ = np.array([2.0, -1.0])
    xs = rng.standard_normal((50, 2))
    scores = model.intercept_ + xs @ model.weights_
    order = np.argsort(scores)
    probs = model.predict_proba(xs)[order]
    assert np.all(np.diff(probs) >= 0)


def test_decision_boundary_is_linear(rng):
    model = LogisticRegression(reg_strength=1.0).fit(ORACLE_X, ORACLE_Y)
    xs = rng.standard_normal((200, 2)) * 2.0
    scores = model.intercept_ + xs @ model.weights_
    assert np.array_equal(model.predict(xs), (scores >= 0).astype(int))


def test_fitted_loss_beats_random_vectors(rng):
    model = LogisticRegression(reg_strength=1.0).fit(ORACLE_X, ORACLE_Y)
    best = penalized_nll(
        model.intercept_, model.weights_, ORACLE_X, ORACLE_Y.astype(float), 1.0
    )
    for _ in range(100):
        candidate = rng.standard_normal(3) * 3.0
        loss = penalized_nll(
            candidate[0], candidate[1:], ORACLE_X, ORACLE_Y.astype(float), 1.0
        )
        assert best <= loss + 1e-12


def test_errors():
    with pytest.raises(ValueError, match="both classes"):
        LogisticRegression().fit(np.zeros((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        LogisticRegression(reg_strength=-1.0).fit(ORACLE_X, ORACLE_Y)
    with pytest.raises(ValueError, match="optimizer"):
        LogisticRegression(optimizer="adam").fit(ORACLE_X, ORACLE_Y)
    model = LogisticRegression().fit(ORACLE_X, ORACLE_Y)
    with pytest.raises(ValueError, match="features"):
        model.predict(np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite(bad):
    model = LogisticRegression().fit(ORACLE_X, ORACLE_Y)
    row = np.zeros(ORACLE_X.shape[1])
    row[0] = bad
    for call in (model.predict, model.predict_proba):
        with pytest.raises(ValueError, match="non-finite"):
            call(row)
        with pytest.raises(ValueError, match="non-finite"):
            call(np.vstack([np.zeros_like(row), row]))


def test_sigmoid_stability():
    z = np.array([-1e4, -30.0, 0.0, 30.0, 1e4])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[0] == 0.0 and p[-1] == 1.0 and p[2] == 0.5


def test_json_roundtrip(tmp_path):
    model = LogisticRegression(reg_strength=1.0).fit(ORACLE_X, ORACLE_Y)
    model.save(tmp_path / "logreg.json")
    loaded = LogisticRegression.load(tmp_path / "logreg.json")
    assert loaded.intercept_ == model.intercept_
    assert np.array_equal(loaded.weights_, model.weights_)
    assert loaded.reg_strength == 1.0
    xs = np.random.default_rng(0).standard_normal((10, 2))
    assert np.array_equal(loaded.predict(xs), model.predict(xs))
