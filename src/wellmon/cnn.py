"""Minimal 1-D convolutional classifier with manual backpropagation.

Architecture (for C x L input, canonical 6 x 300): conv(12, k=30) -> act ->
avgpool(15, stride 5) -> conv(24, k=30) -> act -> avgpool -> flatten(48) ->
fc(48, 2) -> act -> fc(2, 1) -> sigmoid. The 2-unit activation before the
output layer is exposed as the embedding. Convolutions are valid, stride 1,
implemented as cross-correlation (im2col); the input gradient scatters the
patch gradients back with col2im.

Every pass runs in the dtype of its input. `fit`, the Adam state and
`forward`/`predict`/`predict_proba`/`embed` run in float32 (Micikevicius et
al. 2018), which halves the memory traffic of the im2col copies and
products. `grad_check` and the single-sample `conv1d_forward` and
`avgpool_forward` run in float64, so the finite-difference check stays
meaningful. `params_` hold float32-exact float64 values: a float32 pass
sees them unrounded, a float64 pass sees them unchanged, and the float64
checkpoint reloads to bit-identical predictions.

Inference (`forward` and the calls built on it) runs the conv -> act ->
pool stages on chunks of CHUNK consecutive windows and keeps no backward
cache, so its peak memory is bounded by the chunk: for 6 x 300 windows a
chunk's conv1 im2col copy is about 6 MB, where a 480-window batch's would
be 94 MB. The fc head runs once on the concatenated chunk outputs. That keeps the bits of the
whole-batch pass at every batch size: the per-sample conv products and the
pool products give the same bits at any chunk size, but OpenBLAS sgemm's
bits for the thin fc products (B x 48 by 48 x 2, B x 2 by 2 x 1) depend on
the row count B.

Training is mini-batch Adam on the MSE between predicted probability and
the 0/1 label, with weight decay added to the gradient as lambda * theta
before the moment updates (the coupled convention). The step decays from
learning_rate along a half cosine over the epochs (Loshchilov & Hutter
2017), so an outlier batch late in training cannot throw the final weights
off. Reductions over the batch run in a fixed order, so a seeded fit gives
the same bits at any BLAS thread count. Each epoch's step and MSE go to the
"wellmon.cnn" logger at DEBUG level.
"""

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .logreg import sigmoid
from .validation import as_label_vector

logger = logging.getLogger(__name__)


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


# ---------------------------------------------------------------------------
# activations: value f(z) and derivative df(z, a), where a = f(z) comes from
# the forward pass so backward never re-evaluates f; both keep z's dtype
# ---------------------------------------------------------------------------

def _swish_grad(z, a):
    # swish = z * s with s = sigmoid(z): swish' = s + z * s * (1 - s). The
    # forward value a = z * s does not give s back at z = 0, so s is
    # evaluated here
    s = sigmoid(z)
    return s + a * (1.0 - s)


def _leaky_relu_grad(z, a):
    return np.maximum((z > 0).astype(z.dtype), 0.01)


ACTIVATIONS = {
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
    "swish": (lambda z: z * sigmoid(z), _swish_grad),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0).astype(z.dtype)),
    "leaky_relu": (lambda z: np.maximum(z, 0.01 * z), _leaky_relu_grad),
}

# activations with a non-differentiable point at zero
KINKED = ("relu", "leaky_relu")

# windows per chunk of an inference pass
CHUNK = 32


# ---------------------------------------------------------------------------
# layer primitives (batched internally, single-sample public wrappers)
# ---------------------------------------------------------------------------

def _unfold(x, k):
    """(B, C, L) -> (B, C*k, L-k+1): row c*k + j holds channel c shifted by j,
    so column p is the input patch that output position p reads."""
    b, c, length = x.shape
    lo = length - k + 1
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, k, lo), strides=(s[0], s[1], s[2], s[2])
    )
    return windows.reshape(b, c * k, lo)


def _conv_batch(unfolded, filters, bias):
    """Valid stride-1 cross-correlation of the unfolded (B, C*k, L-k+1) input."""
    return filters.reshape(filters.shape[0], -1) @ unfolded + bias[:, None]


def _conv_batch_backward(unfolded, filters, grad_out, need_input_grad=True):
    """Gradients of a valid stride-1 cross-correlation, reusing the
    forward pass's unfolded input."""
    c_out, c_in, k = filters.shape
    grad_bias = grad_out.sum(axis=(0, 2))
    # one BLAS product per sample, then a numpy sum over the batch: a single
    # product contracting batch and position would let BLAS split that
    # reduction across threads, so the bits would follow the thread count
    grad_flat = np.matmul(unfolded, grad_out.transpose(0, 2, 1)).sum(axis=0).T
    grad_filters = grad_flat.reshape(c_out, c_in, k)
    if not need_input_grad:
        return None, grad_filters, grad_bias
    # col2im (Chellapilla et al. 2006): W^T g is the gradient of every
    # unfolded row, and row (c, j) read channel c shifted by j, so it is
    # added back at that shift
    b, _, lo = unfolded.shape
    patches = (filters.reshape(c_out, -1).T @ grad_out).reshape(b, c_in, k, lo)
    grad_x = np.zeros((b, c_in, lo + k - 1), dtype=patches.dtype)
    for j in range(k):
        grad_x[:, :, j : j + lo] += patches[:, :, j]
    return grad_x, grad_filters, grad_bias


_POOL_CACHE = {}


def _cached_pool_matrix(length, kernel, stride, dtype):
    key = (length, kernel, stride, np.dtype(dtype))
    if key not in _POOL_CACHE:
        _POOL_CACHE[key] = _pool_matrix(length, kernel, stride).astype(dtype)
    return _POOL_CACHE[key]


def _pool_matrix(length, kernel, stride):
    if length < kernel:
        raise ValueError(f"input length {length} < pooling kernel {kernel}")
    lo = (length - kernel) // stride + 1
    mat = np.zeros((lo, length))
    for o in range(lo):
        mat[o, o * stride : o * stride + kernel] = 1.0 / kernel
    return mat


def conv1d_forward(x, filters, bias):
    """Valid stride-1 convolution of one (C_in, L) sample -> (C_out, L-k+1)."""
    x = np.asarray(x, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    _, c_in, k = filters.shape
    if x.shape[0] != c_in:
        raise ValueError(f"input has {x.shape[0]} channels, filters expect {c_in}")
    if x.shape[1] < k:
        raise ValueError(f"input length {x.shape[1]} < kernel size {k}")
    return _conv_batch(_unfold(x[None], k), filters,
                       np.asarray(bias, dtype=np.float64))[0]


def avgpool_forward(x, kernel=15, stride=5):
    """Window means of one (C, L) sample, no padding."""
    x = np.asarray(x, dtype=np.float64)
    return x @ _pool_matrix(x.shape[1], kernel, stride).T


# ---------------------------------------------------------------------------
# the classifier
# ---------------------------------------------------------------------------

class CnnClassifier(BaseEstimator):
    """1-D CNN binary classifier trained with Adam on MSE loss.

    Parameters
    ----------
    activation : str
        One of tanh, sigmoid, swish, relu, leaky_relu.
    learning_rate, weight_decay, batch_size, epochs : training knobs;
        learning_rate is the first epoch's step, decayed by a half cosine.
    adam_betas, adam_eps : Adam moment parameters.
    conv_layers : tuple of (out_channels, kernel_size)
        Convolution stack; each layer is followed by the average pool.
    embedding_dim : int
        Width of the hidden fully connected layer (the plotted embedding).
    seed : int
        Drives parameter init and epoch shuffling; same seed, same model.
    """

    def __init__(self, activation="leaky_relu", learning_rate=5e-3,
                 weight_decay=0.0, batch_size=50, epochs=30,
                 adam_betas=(0.9, 0.999), adam_eps=1e-8,
                 conv_layers=((12, 30), (24, 30)), pool_kernel=15,
                 pool_stride=5, embedding_dim=2, in_channels=6, seed=0):
        self.activation = activation
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.batch_size = batch_size
        self.epochs = epochs
        self.adam_betas = adam_betas
        self.adam_eps = adam_eps
        self.conv_layers = conv_layers
        self.pool_kernel = pool_kernel
        self.pool_stride = pool_stride
        self.embedding_dim = embedding_dim
        self.in_channels = in_channels
        self.seed = seed

    # -- construction ------------------------------------------------------

    def flatten_size(self, input_len):
        """Feature count after the conv/pool stack for a given input length."""
        length = input_len
        channels = self.in_channels
        for i, (c_out, k) in enumerate(self.conv_layers, start=1):
            if length < k:
                raise ValueError(f"conv{i}: input length {length} < kernel {k}")
            length = length - k + 1
            if length < self.pool_kernel:
                raise ValueError(
                    f"pool{i}: input length {length} < kernel {self.pool_kernel}"
                )
            length = (length - self.pool_kernel) // self.pool_stride + 1
            channels = c_out
        return channels * length

    def init_params(self, input_len=300):
        """Seeded uniform +/- 1/sqrt(fan_in) init, one draw order per tensor:
        conv weights then bias per layer, then fc1, then fc2. Each draw is
        rounded to float32, so float32 training starts from these values."""
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        rng = np.random.default_rng((self.seed, 0))

        def draw(fan_in, shape):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, shape).astype(np.float32).astype(np.float64)

        params = {}
        c_in = self.in_channels
        for i, (c_out, k) in enumerate(self.conv_layers, start=1):
            params[f"conv{i}.W"] = draw(c_in * k, (c_out, c_in, k))
            params[f"conv{i}.b"] = draw(c_in * k, c_out)
            c_in = c_out
        flat = self.flatten_size(input_len)
        params["fc1.W"] = draw(flat, (self.embedding_dim, flat))
        params["fc1.b"] = draw(flat, self.embedding_dim)
        params["fc2.W"] = draw(self.embedding_dim, (1, self.embedding_dim))
        params["fc2.b"] = draw(self.embedding_dim, 1)
        self.params_ = params
        self.input_len_ = input_len
        return self

    # -- forward / backward --------------------------------------------------

    def _prepare_batch(self, X, dtype=np.float32):
        """(B, C, L) or one (C, L) window, cast to the dtype the passes run
        in; NaN, inf and values beyond that dtype's range are rejected."""
        with np.errstate(over="ignore"):
            X = np.asarray(X, dtype=dtype)
        if X.ndim == 2:
            X = X[None]
        if X.ndim != 3 or X.shape[0] == 0:
            raise ValueError(f"expected (B, C, L) input with B > 0, got shape {X.shape}")
        if X.shape[1] != self.in_channels:
            raise ValueError(
                f"conv1: expected {self.in_channels} channels, got {X.shape[1]}"
            )
        if not np.isfinite(X).all():
            raise ValueError(
                f"input holds NaN, inf or values beyond the {X.dtype} range"
            )
        return X

    def _pass_params(self, X):
        """params_ in X's dtype, once the model is known fitted for X's
        window length: flatten_size validated the layer chain for that
        length only."""
        check_is_fitted(self, "params_")
        if X.shape[2] != self.input_len_:
            raise ValueError(
                f"conv1: input length {X.shape[2]}, but fc1 was fit on "
                f"{self.input_len_}-sample windows"
            )
        return {name: p.astype(X.dtype, copy=False) for name, p in self.params_.items()}

    def _conv_stack(self, X, params, cache=None):
        """conv -> act -> pool through every conv layer of a (B, C, L)
        batch -> (B, C_last, L_last). A cache dict records what backward
        needs."""
        act, _ = ACTIVATIONS[self.activation]
        out = X
        for i in range(1, len(self.conv_layers) + 1):
            unfolded = _unfold(out, params[f"conv{i}.W"].shape[2])
            z = _conv_batch(unfolded, params[f"conv{i}.W"], params[f"conv{i}.b"])
            a = act(z)
            pool = _cached_pool_matrix(a.shape[2], self.pool_kernel, self.pool_stride,
                                       X.dtype)
            if cache is not None:
                cache["unfolded"].append(unfolded)
                cache["preacts"].append(z)
                cache["acts"].append(a)
                cache[f"pool{i}"] = pool
            out = a @ pool.T
        return out

    def _head(self, flat, params):
        """fc1 -> act -> fc2 -> sigmoid of the (B, F) flattened conv output;
        returns fc1's pre-activation, the embedding and the probabilities."""
        act, _ = ACTIVATIONS[self.activation]
        z3 = flat @ params["fc1.W"].T + params["fc1.b"]
        embedding = act(z3)
        z4 = embedding @ params["fc2.W"].T + params["fc2.b"]
        return z3, embedding, sigmoid(z4)[:, 0]

    def _forward(self, X):
        """Forward pass of the whole batch in X's dtype, caching what
        backward needs."""
        params = self._pass_params(X)
        cache = {"params": params, "unfolded": [], "preacts": [], "acts": []}
        out = self._conv_stack(X, params, cache)
        cache["conv_out_shape"] = out.shape
        cache["flat"] = out.reshape(out.shape[0], -1)
        cache["z3"], cache["embedding"], cache["probs"] = self._head(cache["flat"], params)
        return cache

    def forward(self, X):
        """Probabilities in (0, 1) and the 2-D embedding after fc1, both
        computed in float32. The conv stack runs CHUNK windows at a time
        and keeps no backward cache; the head runs once on all of them."""
        X = self._prepare_batch(X)
        params = self._pass_params(X)
        out = np.concatenate([
            self._conv_stack(X[start : start + CHUNK], params)
            for start in range(0, X.shape[0], CHUNK)
        ])
        _, embedding, probs = self._head(out.reshape(out.shape[0], -1), params)
        return probs, embedding

    def _loss_and_grads(self, X, y):
        _, dact = ACTIVATIONS[self.activation]
        cache = self._forward(X)
        params = cache["params"]
        probs = cache["probs"]
        y = np.asarray(y, dtype=X.dtype)
        batch = X.shape[0]
        loss = float(np.mean((probs - y) ** 2))
        grads = {}
        dprob = 2.0 * (probs - y) / batch
        dz4 = (dprob * probs * (1.0 - probs))[:, None]
        grads["fc2.W"] = dz4.T @ cache["embedding"]
        grads["fc2.b"] = dz4.sum(axis=0)
        demb = dz4 @ params["fc2.W"]
        dz3 = demb * dact(cache["z3"], cache["embedding"])
        grads["fc1.W"] = dz3.T @ cache["flat"]
        grads["fc1.b"] = dz3.sum(axis=0)
        dflat = dz3 @ params["fc1.W"]
        dout = dflat.reshape(cache["conv_out_shape"])
        for i in range(len(self.conv_layers), 0, -1):
            da = dout @ cache[f"pool{i}"]
            dz = da * dact(cache["preacts"][i - 1], cache["acts"][i - 1])
            dout, grads[f"conv{i}.W"], grads[f"conv{i}.b"] = _conv_batch_backward(
                cache["unfolded"][i - 1], params[f"conv{i}.W"], dz,
                need_input_grad=(i > 1),
            )
        return loss, grads, cache

    def _adam_step(self, grads, m, v, t, step):
        """Adam update t (1-based) of params_ in place, with coupled weight
        decay; m and v hold the first and second moments per tensor."""
        beta1, beta2 = (float(b) for b in self.adam_betas)
        weight_decay, eps = float(self.weight_decay), float(self.adam_eps)
        for name, param in self.params_.items():
            g = grads[name] + weight_decay * param
            m[name] = beta1 * m[name] + (1.0 - beta1) * g
            v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
            mhat = m[name] / (1.0 - beta1**t)
            vhat = v[name] / (1.0 - beta2**t)
            param -= step * mhat / (np.sqrt(vhat) + eps)

    # -- training ------------------------------------------------------------

    def fit(self, X, y, eval_set=None):
        """Mini-batch Adam training in float32; records per-epoch train/test
        MSE and logs each epoch at DEBUG level.

        eval_set is an optional (X_test, y_test) pair for the test curve.
        """
        X = self._prepare_batch(X)
        y = as_label_vector(y).astype(X.dtype)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be >= 0")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        self.init_params(X.shape[2])
        self.params_ = {k: p.astype(X.dtype) for k, p in self.params_.items()}
        m = {k: np.zeros_like(p) for k, p in self.params_.items()}
        v = {k: np.zeros_like(p) for k, p in self.params_.items()}
        t = 0
        rng = np.random.default_rng((self.seed, 1))
        history = {"train_mse": [], "test_mse": []}
        n = X.shape[0]
        batch_size = min(self.batch_size, n)
        for epoch in range(self.epochs):
            # half-cosine decay from learning_rate towards 0 over the epochs
            decay = 0.5 * (1.0 + np.cos(np.pi * epoch / self.epochs))
            step = float(self.learning_rate * decay)
            perm = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = perm[start : start + batch_size]
                loss, grads, _ = self._loss_and_grads(X[idx], y[idx])
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {start // batch_size}"
                    )
                epoch_loss += loss * len(idx)
                t += 1
                self._adam_step(grads, m, v, t, step)
            # epoch training curve = sample-weighted mean of the batch losses
            history["train_mse"].append(epoch_loss / n)
            progress = f"epoch {epoch}: step {step:.4g}, train MSE {epoch_loss / n:.6g}"
            if eval_set is not None:
                history["test_mse"].append(self.mse(eval_set[0], eval_set[1]))
                progress += f", test MSE {history['test_mse'][-1]:.6g}"
            logger.debug(progress)
        self.params_ = {k: p.astype(np.float64) for k, p in self.params_.items()}
        self.history_ = history
        return self

    def mse(self, X, y):
        probs, _ = self.forward(X)
        y = np.asarray(y, dtype=np.float64)
        return float(np.mean((probs - y) ** 2))

    def predict_proba(self, X):
        probs, _ = self.forward(X)
        return probs

    def predict(self, X):
        """Label 1 iff probability >= 0.5."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def embed(self, X):
        _, embedding = self.forward(X)
        return embedding

    # -- verification ----------------------------------------------------------

    def _loss_and_kink_signs(self, X, y):
        cache = self._forward(X)
        loss = float(np.mean((cache["probs"] - y) ** 2))
        if self.activation in KINKED:
            signs = np.concatenate(
                [np.sign(z).ravel() for z in cache["preacts"]]
                + [np.sign(cache["z3"]).ravel()]
            )
        else:
            signs = None
        return loss, signs

    def grad_check(self, X, y, eps=1e-5, fraction=0.01, seed=0):
        """Max relative error between analytic and central-difference grads,
        both computed in float64.

        A random fraction of each tensor is probed. Two probe classes are
        excluded: for kinked activations, probes whose +/- eps evaluations
        flip any pre-activation sign (non-differentiable point policy), and
        probes whose loss difference sits below double-precision round-off
        (the central difference then carries no gradient information).
        """
        X = self._prepare_batch(X, np.float64)
        y = np.asarray(y, dtype=np.float64)
        _, grads, _ = self._loss_and_grads(X, y)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for name, param in self.params_.items():
            n_pick = max(1, int(round(fraction * param.size)))
            picks = rng.choice(param.size, size=min(n_pick, param.size), replace=False)
            for flat_idx in picks:
                original = param.flat[flat_idx]
                param.flat[flat_idx] = original + eps
                loss_plus, signs_plus = self._loss_and_kink_signs(X, y)
                param.flat[flat_idx] = original - eps
                loss_minus, signs_minus = self._loss_and_kink_signs(X, y)
                param.flat[flat_idx] = original
                if signs_plus is not None and np.any(signs_plus != signs_minus):
                    continue
                if abs(loss_plus - loss_minus) < 1e-12 * max(
                    1.0, abs(loss_plus) + abs(loss_minus)
                ):
                    continue
                numeric = (loss_plus - loss_minus) / (2.0 * eps)
                analytic = grads[name].flat[flat_idx]
                rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-8)
                worst = max(worst, rel)
        return worst

    # -- persistence -------------------------------------------------------------

    def save(self, stem):
        """Flat float64 binary of named tensors plus a JSON manifest."""
        check_is_fitted(self, "params_")
        stem = Path(stem)
        tensors = []
        offset = 0
        chunks = []
        for name, param in self.params_.items():
            tensors.append({"name": name, "shape": list(param.shape), "offset": offset})
            offset += param.size
            chunks.append(param.ravel())
        # name + suffix: with_suffix would cut a dotted stem such as v1.2_model
        np.concatenate(chunks).astype(np.float64).tofile(stem.parent / f"{stem.name}.bin")
        config = self.get_params()
        config["adam_betas"] = list(config["adam_betas"])
        config["conv_layers"] = [list(layer) for layer in config["conv_layers"]]
        manifest = {
            "kind": "cnn",
            "dtype": "float64",
            "input_len": self.input_len_,
            "config": config,
            "tensors": tensors,
        }
        (stem.parent / f"{stem.name}.json").write_text(json.dumps(manifest, indent=2) + "\n")

    @classmethod
    def load(cls, stem):
        stem = Path(stem)
        manifest = json.loads((stem.parent / f"{stem.name}.json").read_text())
        config = manifest["config"]
        config["adam_betas"] = tuple(config["adam_betas"])
        config["conv_layers"] = tuple(tuple(layer) for layer in config["conv_layers"])
        model = cls(**config)
        flat = np.fromfile(stem.parent / f"{stem.name}.bin", dtype=np.float64)
        model.params_ = {}
        for spec_entry in manifest["tensors"]:
            shape = tuple(spec_entry["shape"])
            size = int(np.prod(shape))
            start = spec_entry["offset"]
            model.params_[spec_entry["name"]] = flat[start : start + size].reshape(shape)
        model.input_len_ = manifest["input_len"]
        model.flatten_size(model.input_len_)  # raises if the layer chain fails
        return model


# ---------------------------------------------------------------------------
# random hyperparameter search
# ---------------------------------------------------------------------------

# the CnnClassifier parameters that sample_trial draws
SEARCHED_PARAMS = ("activation", "learning_rate", "weight_decay", "batch_size")


@dataclass(frozen=True)
class SearchSpace:
    """Sampling distributions for the training hyperparameters."""

    activations: tuple = ("tanh", "sigmoid", "swish", "relu", "leaky_relu")
    learning_rate_range: tuple = (1e-4, 1e-1)
    weight_decay_range: tuple = (1e-7, 5e-4)
    batch_sizes: tuple = (10, 30, 50, 100)
    n_trials: int = 100


def sample_trial(space, rng):
    """One hyperparameter draw: discrete uniform for activation and batch
    size, log-uniform for learning rate and weight decay."""
    lr_lo, lr_hi = space.learning_rate_range
    wd_lo, wd_hi = space.weight_decay_range
    return {
        "activation": str(rng.choice(space.activations)),
        "learning_rate": float(np.exp(rng.uniform(np.log(lr_lo), np.log(lr_hi)))),
        "weight_decay": float(np.exp(rng.uniform(np.log(wd_lo), np.log(wd_hi)))),
        "batch_size": int(rng.choice(space.batch_sizes)),
    }


def random_search(estimator, space, X_train, y_train, X_test, y_test, seed=0,
                  log_path=None):
    """Seeded independent trials of estimator, each with one draw of
    SEARCHED_PARAMS and its own seed; best = lowest MSE on (X_test, y_test).

    Pass held-out windows that are not the reported test split (the CLI
    passes a validation fold of the training windows), or the selection
    leaks into the reported score.

    Returns (best_params, trials): the best trial's draw and seed with the
    estimator's epochs, and the full log. Trial seeds are derived
    independently, so trials could run in parallel without changing results.
    """
    if space.n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    rng = np.random.default_rng(seed)
    trials = []
    for trial in range(space.n_trials):
        drawn = sample_trial(space, rng)
        trial_seed = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
        model = CnnClassifier(**{**estimator.get_params(), **drawn, "seed": trial_seed})
        record = {"trial": trial, "seed": trial_seed, **drawn}
        try:
            model.fit(X_train, y_train)
            record["train_mse"] = model.history_["train_mse"][-1]
            record["test_mse"] = model.mse(X_test, y_test)
            record["diverged"] = False
        except TrainingDivergedError as exc:
            record["diverged"] = True
            record["error"] = str(exc)
        trials.append(record)
    if log_path is not None:
        with open(log_path, "w") as fh:
            for record in trials:
                fh.write(json.dumps(record) + "\n")
    finished = [r for r in trials if not r["diverged"]]
    if not finished:
        raise RuntimeError(f"all {space.n_trials} trials diverged: {trials}")
    best = min(finished, key=lambda r: r["test_mse"])
    best_params = {k: best[k] for k in (*SEARCHED_PARAMS, "seed")}
    best_params["epochs"] = estimator.epochs
    return best_params, trials
