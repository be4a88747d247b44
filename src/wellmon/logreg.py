"""Binary logistic regression with an L2 penalty on the weights.

Minimizes the negative log-likelihood plus (lambda/2) * ||beta||^2 with the
intercept unpenalized. The default optimizer is damped Newton (step halving
until the loss decreases); plain gradient descent is kept as an independent
verification path. Probabilities are evaluated in log-sum form so extreme
logits neither overflow nor produce NaN.
"""

import json
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .validation import check_X_y, require_both_classes


def sigmoid(z):
    """Numerically stable logistic function, in float32 for float32 input
    and in float64 otherwise."""
    z = np.asarray(z)
    if z.dtype != np.float32:
        z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def penalized_nll(intercept, weights, X, y, reg_strength):
    """Negative log-likelihood + (lambda/2)||weights||^2, intercept free."""
    z = intercept + X @ weights
    # log(1 + exp(z)) - y*z, stable via logaddexp
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * reg_strength * float(weights @ weights)


class LogisticRegression(BaseEstimator):
    """Two-class logistic regression classifier.

    Parameters
    ----------
    reg_strength : float
        L2 penalty lambda on the weight vector (the intercept is free).
    max_iter : int
        Optimization iteration budget.
    tol : float
        Convergence threshold on the gradient infinity norm.
    optimizer : str
        "newton" (damped, default) or "gradient" (verification path).
    """

    def __init__(self, reg_strength=1.0, max_iter=200, tol=1e-8, optimizer="newton"):
        self.reg_strength = reg_strength
        self.max_iter = max_iter
        self.tol = tol
        self.optimizer = optimizer

    def _gradient(self, intercept, weights, X, y):
        p = sigmoid(intercept + X @ weights)
        residual = p - y
        return float(residual.sum()), X.T @ residual + self.reg_strength * weights, p

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y)
        if self.reg_strength < 0:
            raise ValueError("reg_strength must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.optimizer not in ("newton", "gradient"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        yf = y.astype(np.float64)
        d = X.shape[1]
        intercept = 0.0
        weights = np.zeros(d)
        loss = penalized_nll(intercept, weights, X, yf, self.reg_strength)
        updates = 0
        for _ in range(self.max_iter):
            g0, gw, p = self._gradient(intercept, weights, X, yf)
            grad_norm = max(abs(g0), float(np.max(np.abs(gw))) if d else 0.0)
            if grad_norm < self.tol:
                break
            if self.optimizer == "newton":
                step0, stepw = self._newton_step(X, p, g0, gw)
            else:
                scale = X.shape[0] * max(1.0, float(np.max(np.abs(X)))) ** 2
                step0, stepw = g0 / scale, gw / scale
            # halve the step until the penalized loss decreases
            t = 1.0
            improved = False
            for _ in range(60):
                cand0 = intercept - t * step0
                candw = weights - t * stepw
                cand_loss = penalized_nll(cand0, candw, X, yf, self.reg_strength)
                if cand_loss < loss:
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break  # at the numerical floor of the line search
            if not np.isfinite(cand_loss):
                raise RuntimeError(f"non-finite loss at iteration {updates + 1}")
            intercept, weights, loss = cand0, candw, cand_loss
            updates += 1
        g0, gw, _ = self._gradient(intercept, weights, X, yf)
        grad_norm = max(abs(g0), float(np.max(np.abs(gw))) if d else 0.0)
        self.intercept_ = float(intercept)
        self.weights_ = weights
        self.converged_ = bool(grad_norm < self.tol)
        self.n_iter_ = updates
        return self

    def _newton_step(self, X, p, g0, gw):
        w_diag = p * (1.0 - p)
        d = X.shape[1]
        H = np.empty((d + 1, d + 1))
        H[0, 0] = w_diag.sum()
        Xw = X * w_diag[:, None]
        H[0, 1:] = Xw.sum(axis=0)
        H[1:, 0] = H[0, 1:]
        H[1:, 1:] = X.T @ Xw + self.reg_strength * np.eye(d)
        grad = np.concatenate(([g0], gw))
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.solve(H + 1e-10 * np.eye(d + 1), grad)
        return float(step[0]), step[1:]

    def _scores(self, X):
        check_is_fitted(self, "weights_")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        if X.shape[1] != self.weights_.shape[0]:
            raise ValueError(
                f"expected {self.weights_.shape[0]} features, got {X.shape[1]}"
            )
        return self.intercept_ + X @ self.weights_, single

    def predict_proba(self, X):
        """P(class 1) per row; a 1-D input returns a scalar."""
        z, single = self._scores(X)
        p = sigmoid(z)
        return float(p[0]) if single else p

    def predict(self, X):
        """Class labels; ties at P = 0.5 go to 1 (broken)."""
        z, single = self._scores(X)
        labels = (z >= 0.0).astype(np.int64)
        return int(labels[0]) if single else labels

    def save(self, path):
        check_is_fitted(self, "weights_")
        payload = {
            "kind": "logreg",
            "intercept": self.intercept_,
            "weights": self.weights_.tolist(),
            "lambda": self.reg_strength,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path):
        payload = json.loads(Path(path).read_text())
        model = cls(reg_strength=payload["lambda"])
        model.intercept_ = float(payload["intercept"])
        model.weights_ = np.array(payload["weights"], dtype=np.float64)
        model.converged_ = True
        model.n_iter_ = 0
        return model
