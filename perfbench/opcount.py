"""Operation counts computed from shapes, not measured.

The CNN count follows the implementation: every convolution, pooling and
fully connected layer is a matrix product (pooling multiplies by a dense
averaging matrix, and the conv2 input gradient correlates a zero-padded
output gradient), and one multiply-add counts as two floating-point
operations. Activations, losses and the Adam update are left out.
"""

import numpy as np


def cnn_flops_per_sample(model, input_len):
    """Component -> floating-point operations per training sample.

    model is a CnnClassifier (its constructor settings give the shapes).
    Components ending in `.forward` are the inference cost.
    """
    ops = {}
    c_in, length = model.in_channels, input_len
    for i, (c_out, k) in enumerate(model.conv_layers, start=1):
        conv_len = length - k + 1
        conv = 2 * conv_len * c_out * c_in * k
        ops[f"conv{i}.forward"] = conv
        ops[f"conv{i}.backward_filters"] = conv
        if i > 1:
            # full correlation of the padded gradient back to `length` samples
            ops[f"conv{i}.backward_input"] = 2 * length * c_in * c_out * k
        pooled = (conv_len - model.pool_kernel) // model.pool_stride + 1
        pool = 2 * c_out * conv_len * pooled
        ops[f"pool{i}.forward"] = pool
        ops[f"pool{i}.backward"] = pool
        c_in, length = c_out, pooled
    layers = (("fc1", c_in * length, model.embedding_dim), ("fc2", model.embedding_dim, 1))
    for name, fan_in, fan_out in layers:
        ops[f"{name}.forward"] = 2 * fan_in * fan_out
        ops[f"{name}.backward"] = 4 * fan_in * fan_out  # weight and input gradients
    return ops


def cnn_fit_flops(model, X):
    """Training operations of one fit: every sample is seen once per epoch."""
    n, _, input_len = np.shape(X)
    per_sample = sum(cnn_flops_per_sample(model, input_len).values())
    return per_sample * n * model.epochs


def cnn_steps(model, n_samples):
    """Adam steps of one fit: epochs x mini-batches."""
    batch = min(model.batch_size, n_samples)
    return model.epochs * -(-n_samples // batch)


def svm_fit_kernel_entries(model):
    """The full n x n training kernel matrix."""
    return model.n_samples_ ** 2


def svm_predict_kernel_entries(model, X):
    """One kernel value per (row, support vector) pair."""
    return np.atleast_2d(X).shape[0] * model.n_support_
