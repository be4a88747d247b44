import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wellmon
from wellmon import cnn
from wellmon.base import NotFittedError
from wellmon.cnn import (
    ACTIVATIONS,
    CHUNK,
    CnnClassifier,
    SearchSpace,
    TrainingDivergedError,
    _conv_batch_backward,
    _unfold,
    avgpool_forward,
    conv1d_forward,
    random_search,
    sample_trial,
)


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------

def test_conv_identity_filter():
    x = np.arange(10.0)[None, :]  # 1 channel, length 10
    filters = np.zeros((1, 1, 3))
    filters[0, 0, 0] = 1.0  # delta at j=0
    out = conv1d_forward(x, filters, np.zeros(1))
    assert np.array_equal(out, x[:, :8])


def test_conv_sliding_sums():
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    filters = np.ones((1, 1, 3))
    out = conv1d_forward(x, filters, np.zeros(1))
    assert np.allclose(out, [[6.0, 9.0]])


def test_conv_default_layer_shape(rng):
    x = rng.standard_normal((6, 300))
    filters = rng.standard_normal((12, 6, 30))
    out = conv1d_forward(x, filters, rng.standard_normal(12))
    assert out.shape == (12, 271)


def test_conv_matches_direct_computation(rng):
    x = rng.standard_normal((3, 20))
    filters = rng.standard_normal((4, 3, 5))
    bias = rng.standard_normal(4)
    out = conv1d_forward(x, filters, bias)
    for c in range(4):
        for i in range(16):
            expected = bias[c] + np.sum(filters[c] * x[:, i : i + 5])
            assert out[c, i] == pytest.approx(expected, abs=1e-12)


def test_conv_input_gradient_matches_full_correlation(rng):
    # grad_x[b, c, i] = sum over o and 0 <= i - j < lo of g[b, o, i-j] W[o, c, j],
    # at the conv1 and conv2 shapes of the default network
    k = 30
    for c_in, c_out, length in ((6, 12, 300), (12, 24, 52)):
        lo = length - k + 1
        x = rng.standard_normal((2, c_in, length))
        filters = rng.standard_normal((c_out, c_in, k))
        grad_out = rng.standard_normal((2, c_out, lo))
        grad_x, _, _ = _conv_batch_backward(_unfold(x, k), filters, grad_out)
        expected = np.zeros_like(x)
        for c in range(c_in):
            for i in range(length):
                for j in range(max(0, i - lo + 1), min(k, i + 1)):
                    expected[:, c, i] += grad_out[:, :, i - j] @ filters[:, c, j]
        assert grad_x.shape == x.shape
        assert np.max(np.abs(grad_x - expected)) < 1e-12


def test_conv_rejects_short_input(rng):
    with pytest.raises(ValueError, match="kernel"):
        conv1d_forward(rng.standard_normal((1, 4)), np.ones((1, 1, 5)), np.zeros(1))


def test_avgpool_constant_preserved():
    out = avgpool_forward(np.full((3, 40), 2.5))
    assert np.allclose(out, 2.5)


def test_avgpool_shapes(rng):
    assert avgpool_forward(rng.standard_normal((12, 271))).shape == (12, 52)
    assert avgpool_forward(rng.standard_normal((24, 23))).shape == (24, 2)


def test_avgpool_window_means():
    x = np.arange(20.0)[None, :]
    out = avgpool_forward(x, kernel=4, stride=2)
    assert np.allclose(out[0], [1.5, 3.5, 5.5, 7.5, 9.5, 11.5, 13.5, 15.5, 17.5])


def test_avgpool_rejects_short(rng):
    with pytest.raises(ValueError):
        avgpool_forward(rng.standard_normal((2, 10)), kernel=15, stride=5)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

def test_zero_parameters_give_half():
    model = CnnClassifier().init_params(300)
    for name in model.params_:
        model.params_[name][:] = 0.0
    probs, embedding = model.forward(np.zeros((2, 6, 300)))
    assert np.all(probs == 0.5)
    assert np.all(embedding == 0.0)


def test_forward_shapes_and_range(rng):
    model = CnnClassifier(seed=1).init_params(300)
    probs, embedding = model.forward(rng.standard_normal((5, 6, 300)))
    assert probs.shape == (5,)
    assert embedding.shape == (5, 2)
    assert np.all((probs > 0.0) & (probs < 1.0))


@pytest.mark.parametrize("batch", [1, 31, 32, 33, 64, 65, 480])
def test_chunked_forward_matches_whole_batch_pass(rng, batch):
    # the conv stack runs CHUNK windows at a time and the head once over the
    # batch, so remainder chunks included, inference keeps the bits of the
    # whole-batch training pass; the thin fc products would not if chunked
    model = CnnClassifier(seed=1).init_params(300)
    X = model._prepare_batch(rng.standard_normal((batch, 6, 300)))
    probs, embedding = model.forward(X)
    cache = model._forward(X)
    assert probs.dtype == embedding.dtype == np.float32
    assert np.array_equal(probs, cache["probs"])
    assert np.array_equal(embedding, cache["embedding"])


def test_shape_chain_flatten_48():
    model = CnnClassifier()
    assert model.flatten_size(300) == 48
    for length in range(284, 309):
        assert model.flatten_size(length) == 48


def test_forward_rejects_incompatible_length(rng):
    model = CnnClassifier(seed=0).init_params(300)
    with pytest.raises(ValueError, match="fc1"):
        model.forward(rng.standard_normal((1, 6, 350)))
    with pytest.raises(ValueError, match="conv1"):
        model.forward(rng.standard_normal((1, 6, 20)))
    with pytest.raises(ValueError, match=r"channels"):
        model.forward(rng.standard_normal((1, 4, 300)))


@pytest.mark.parametrize("length", [290, 310])
def test_fitted_model_refuses_other_window_lengths(rng, length):
    # every length in 284-308 flattens to 48 features, so only the length
    # recorded at fit tells a 300-sample model from a 290-sample window
    X, y = _toy_data(rng, n=4)
    model = CnnClassifier(epochs=1, seed=0).fit(X, y)
    other = rng.standard_normal((2, 6, length))
    for call in (model.forward, model.predict):
        with pytest.raises(ValueError, match=f"input length {length}, but fc1 "
                                             "was fit on 300-sample windows"):
            call(other)


def test_forward_before_init_raises(rng):
    with pytest.raises(NotFittedError):
        CnnClassifier().forward(rng.standard_normal((1, 6, 300)))


def test_activations_cover_table_set():
    assert set(ACTIVATIONS) == {"tanh", "sigmoid", "swish", "relu", "leaky_relu"}
    f, _ = ACTIVATIONS["swish"]
    assert f(np.array([0.7]))[0] == pytest.approx(0.7 / (1.0 + np.exp(-0.7)))
    # each derivative takes the forward value a = f(z) alongside z
    z = np.array([-2.3, -0.7, 0.4, 0.7, 3.1])
    eps = 1e-6
    for name, (f, df) in ACTIVATIONS.items():
        numeric = (f(z + eps) - f(z - eps)) / (2 * eps)
        assert np.allclose(df(z, f(z)), numeric, rtol=0, atol=1e-8), name


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _toy_data(rng, n=8, length=300):
    X = rng.standard_normal((n, 6, length))
    X[n // 2 :, 4:, :] *= 2.0  # class 1 has inflated bending-moment channels
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def test_zero_learning_rate_leaves_parameters(rng):
    X, y = _toy_data(rng)
    model = CnnClassifier(epochs=3, learning_rate=0.0, seed=2)
    model.fit(X, y)
    reference = CnnClassifier(seed=2).init_params(300)
    for name in reference.params_:
        assert np.array_equal(model.params_[name], reference.params_[name])


def test_single_sample_memorization(rng):
    X = rng.standard_normal((1, 6, 300))
    y = np.array([1])
    model = CnnClassifier(epochs=500, learning_rate=1e-2, batch_size=1, seed=0)
    model.fit(X, y)
    assert model.mse(X, y) < 1e-3


def test_loss_decreases_early(rng):
    X, y = _toy_data(rng, n=12)
    for lr in (1e-3, 1e-2):
        model = CnnClassifier(epochs=5, learning_rate=lr, batch_size=4, seed=3)
        model.fit(X, y)
        curve = model.history_["train_mse"]
        assert curve[-1] < curve[0]


def test_history_shapes(rng, caplog):
    X, y = _toy_data(rng)
    model = CnnClassifier(epochs=4, learning_rate=1e-3, seed=0)
    with caplog.at_level(logging.DEBUG, logger="wellmon.cnn"):
        model.fit(X, y, eval_set=(X, y))
    assert len(model.history_["train_mse"]) == 4
    assert len(model.history_["test_mse"]) == 4
    # one progress line per epoch
    lines = [r.getMessage() for r in caplog.records if r.name == "wellmon.cnn"]
    assert len(lines) == 4
    assert lines[3].startswith("epoch 3: step ")
    assert f"test MSE {model.history_['test_mse'][3]:.6g}" in lines[3]


def test_float32_step_stays_float32(rng):
    # a single float64 derivative or scalar in the chain promotes the whole
    # backward pass to float64 through the mixed-dtype products
    X, y = _toy_data(rng, n=4)
    X = X.astype(np.float32)
    for activation in ACTIVATIONS:
        model = CnnClassifier(activation=activation, weight_decay=1e-4, seed=0)
        model.init_params(300)
        model.params_ = {k: p.astype(np.float32) for k, p in model.params_.items()}
        _, grads, cache = model._loss_and_grads(X, y)
        m = {k: np.zeros_like(p) for k, p in model.params_.items()}
        v = {k: np.zeros_like(p) for k, p in model.params_.items()}
        model._adam_step(grads, m, v, 1, 1e-3)
        assert cache["probs"].dtype == np.float32, activation
        for tensors in (grads, m, v, model.params_):
            for name, tensor in tensors.items():
                assert tensor.dtype == np.float32, (activation, name)


def test_inference_unfolds_at_most_chunk_windows(rng, monkeypatch):
    # the im2col copy bounds a pass's memory: inference unfolds one chunk at
    # a time, training the whole minibatch its backward pass needs
    seen = []

    def spy(x, k):
        seen.append(x.shape[0])
        return _unfold(x, k)

    monkeypatch.setattr(cnn, "_unfold", spy)
    X, y = _toy_data(rng, n=120)
    model = CnnClassifier(epochs=1, batch_size=50, seed=0).fit(X, y)
    assert seen == [50, 50, 50, 50, 20, 20]  # conv1 and conv2 per minibatch
    seen.clear()
    model.predict_proba(rng.standard_normal((480, 6, 300)))
    assert max(seen) <= CHUNK
    assert sum(seen) == 2 * 480


def test_training_determinism(rng):
    X, y = _toy_data(rng)
    a = CnnClassifier(epochs=3, learning_rate=1e-3, seed=7).fit(X, y)
    b = CnnClassifier(epochs=3, learning_rate=1e-3, seed=7).fit(X.copy(), y.copy())
    for name in a.params_:
        assert np.array_equal(a.params_[name], b.params_[name])


_ONE_ADAM_STEP = """
import sys
import numpy as np
from wellmon.cnn import CnnClassifier
rng = np.random.default_rng(0)
X = rng.standard_normal((50, 6, 300))
y = np.arange(50) % 2
model = CnnClassifier(epochs=1, batch_size=50, seed=0).fit(X, y)
for name in sorted(model.params_):
    sys.stdout.buffer.write(model.params_[name].tobytes())
"""


def test_training_independent_of_blas_threads():
    # a BLAS call that splits a batch reduction across threads changes the
    # summation order, hence the bits, with the thread count
    src = str(Path(wellmon.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _ONE_ADAM_STEP],
            env=env, capture_output=True, check=True, timeout=120,
        )
        outputs.append(result.stdout)
    assert len(outputs[0]) > 0
    assert outputs[0] == outputs[1]


def test_divergence_aborts_with_location(rng):
    # the guard fires on any non-finite loss, naming epoch and batch: the
    # first step of size 1e20 overflows the float32 activations of batch 1
    X, y = _toy_data(rng, n=4)
    model = CnnClassifier(epochs=5, learning_rate=1e20, batch_size=2, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch 0, batch 1"):
            model.fit(X, y)


def test_non_finite_input_rejected(rng):
    # a NaN probability compares false with 0.5, so it would silently read
    # as intact; an overflow to inf in the float32 cast would read as 1.0
    X, y = _toy_data(rng, n=4)
    model = CnnClassifier(epochs=1, seed=0).init_params(300)
    for bad in (np.nan, np.inf, 1e39):
        X_bad = X.copy()
        X_bad[1, 3, 17] = bad
        for call in (model.predict, model.embed, lambda X: model.fit(X, y)):
            with pytest.raises(ValueError, match="NaN, inf"):
                call(X_bad)


def test_predict_threshold(rng):
    X, y = _toy_data(rng)
    model = CnnClassifier(epochs=2, learning_rate=1e-3, seed=0).fit(X, y)
    probs = model.predict_proba(X)
    assert np.array_equal(model.predict(X), (probs >= 0.5).astype(int))


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------

def test_grad_check_fc_only_path(rng):
    # convs bypassed entirely: the model reduces to flatten -> fc -> sigmoid
    X = rng.standard_normal((4, 2, 12))
    y = np.array([0, 1, 0, 1])
    model = CnnClassifier(
        conv_layers=(), in_channels=2, activation="tanh", seed=0
    ).init_params(12)
    assert model.params_["fc1.W"].shape == (2, 24)
    err = model.grad_check(X, y, fraction=0.5, seed=1)
    assert err < 1e-7


def test_grad_check_full_network(rng):
    X = rng.standard_normal((4, 6, 300))
    y = np.array([0, 1, 1, 0])
    model = CnnClassifier(activation="swish", seed=4).init_params(300)
    assert model.grad_check(X, y, seed=2) < 1e-4


def test_grad_check_excludes_kink_probes():
    # zero input and zero conv biases put every relu pre-activation at the
    # kink; perturbing conv parameters flips the sign, so they are excluded
    model = CnnClassifier(activation="relu", seed=0).init_params(300)
    model.params_["conv1.b"][:] = 0.0
    X = np.zeros((2, 6, 300))
    y = np.array([0, 1])
    err = model.grad_check(X, y, fraction=0.02, seed=0)
    assert np.isfinite(err)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    X, y = _toy_data(rng)
    model = CnnClassifier(epochs=2, learning_rate=1e-3, seed=5).fit(X, y)
    model.save(tmp_path / "cnn_model")
    manifest = json.loads((tmp_path / "cnn_model.json").read_text())
    assert manifest["dtype"] == "float64"
    assert {t["name"] for t in manifest["tensors"]} == set(model.params_)
    loaded = CnnClassifier.load(tmp_path / "cnn_model")
    for name in model.params_:
        assert np.array_equal(loaded.params_[name], model.params_[name])
    assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))
    assert np.array_equal(loaded.predict(X), model.predict(X))


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------

def test_sample_distributions():
    space = SearchSpace()
    rng = np.random.default_rng(0)
    draws = [sample_trial(space, rng) for _ in range(10000)]
    log_lr = np.log10([d["learning_rate"] for d in draws])
    q1, q2, q3 = np.percentile(log_lr, [25, 50, 75])
    assert q1 == pytest.approx(-3.25, abs=0.1)
    assert q2 == pytest.approx(-2.5, abs=0.1)
    assert q3 == pytest.approx(-1.75, abs=0.1)
    assert {d["batch_size"] for d in draws} == {10, 30, 50, 100}
    assert {d["activation"] for d in draws} == set(space.activations)
    log_wd = np.log10([d["weight_decay"] for d in draws])
    assert log_wd.min() >= np.log10(1e-7) and log_wd.max() <= np.log10(5e-4)


def test_random_search_single_trial(rng, tmp_path):
    X, y = _toy_data(rng)
    space = SearchSpace(n_trials=1)
    best, trials = random_search(
        space, X, y, X, y, seed=3, epochs=2, log_path=tmp_path / "trials.jsonl"
    )
    assert len(trials) == 1
    assert best["activation"] == trials[0]["activation"]
    assert best["learning_rate"] == trials[0]["learning_rate"]
    lines = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["trial"] == 0


def test_random_search_picks_lowest_test_mse(rng):
    X, y = _toy_data(rng, n=8)
    space = SearchSpace(n_trials=3)
    best, trials = random_search(space, X, y, X, y, seed=0, epochs=2)
    finished = [t for t in trials if not t["diverged"]]
    assert best["learning_rate"] == min(finished, key=lambda t: t["test_mse"])[
        "learning_rate"
    ]
