"""Soft-margin SVM trained by sequential minimal optimization of the dual.

The dual quadratic program (minimize 0.5 a'Ha - a'1 subject to a'y = 0 and
0 <= a <= C) is solved by SMO with LIBSVM's second-order working-set
selection (Fan, Chen & Lin 2005, JMLR 6): i is the most violating index of
the up set, j the index of the low set whose pair step lowers the dual
most, and the pair moves to the clipped minimizer along its direction. The
solver is deterministic. The box constraint implements l1-penalization of
margin violations (hinge loss).
"""

import json
from pathlib import Path

import numpy as np

from .base import BaseEstimator, check_is_fitted
from .validation import as_query_rows, check_width, check_X_y, require_both_classes

ALPHA_SNAP = 1e-8
TAU = 1e-12  # curvature floor for a flat pair direction (LIBSVM's TAU)


class ConvergenceError(RuntimeError):
    """SMO ran out of passes with KKT violations above tolerance."""


def rbf_gamma_scale(X):
    """gamma = 1 / (d * mean per-feature variance), the 'scale' convention."""
    X = np.asarray(X, dtype=np.float64)
    mean_var = float(np.mean(np.var(X, axis=0)))
    if mean_var <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * mean_var)


def kernel_eval(kind, x, z, gamma=None):
    """Single kernel value: linear x'z or rbf exp(-gamma ||x - z||^2)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {z.shape}")
    if kind == "linear":
        return float(x @ z)
    if kind == "rbf":
        if gamma is None or gamma <= 0:
            raise ValueError("rbf kernel needs gamma > 0")
        diff = x - z
        return float(np.exp(-gamma * (diff @ diff)))
    raise ValueError(f"unknown kernel {kind!r}; expected 'linear' or 'rbf'")


def kernel_matrix(kind, A, B, gamma=None):
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    if kind == "linear":
        return A @ B.T
    if kind == "rbf":
        if gamma is None or gamma <= 0:
            raise ValueError("rbf kernel needs gamma > 0")
        sq = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.exp(-gamma * np.maximum(sq, 0.0))
    raise ValueError(f"unknown kernel {kind!r}; expected 'linear' or 'rbf'")


def dual_objective(K, y_pm, alpha):
    """0.5 a'Ha - a'1 with H_ij = y_i y_j K_ij."""
    hy = alpha * y_pm
    return 0.5 * float(hy @ K @ hy) - float(alpha.sum())


def kkt_violations(alpha, y_pm, decision, C, snap=ALPHA_SNAP):
    """Per-point KKT violation magnitudes for a dual solution."""
    margin = y_pm * decision
    v = np.zeros_like(alpha)
    at_zero = alpha <= snap
    at_c = alpha >= C - snap
    interior = ~at_zero & ~at_c
    v[at_zero] = np.maximum(0.0, 1.0 - margin[at_zero])
    v[interior] = np.abs(margin[interior] - 1.0)
    v[at_c & ~at_zero] = np.maximum(0.0, margin[at_c & ~at_zero] - 1.0)
    return v


class SvmClassifier(BaseEstimator):
    """Binary soft-margin SVM.

    Parameters
    ----------
    kernel : str
        "linear" or "rbf".
    C : float
        Box constraint on the dual coefficients (margin-violation penalty).
    gamma : float or "scale"
        RBF width; "scale" resolves to 1/(d * mean feature variance).
    tol : float
        KKT violation tolerance for convergence.
    max_passes : int
        Work budget. One pass is ceil(n/2) pair updates, which touches every
        training index about once; a fit still unconverged after
        max_passes passes raises ConvergenceError.

    After fit, n_iter_ holds the pair updates made and kkt_violation_ the
    largest KKT violation of the stored model; neither is saved.
    """

    def __init__(self, kernel="rbf", C=1.0, gamma="scale", tol=1e-3,
                 max_passes=5000):
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.tol = tol
        self.max_passes = max_passes

    # -- training ----------------------------------------------------------

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y)
        if self.C <= 0:
            raise ValueError("C must be positive")
        y_pm = 2.0 * y - 1.0
        gamma = self.gamma
        if self.kernel == "rbf" and gamma == "scale":
            gamma = rbf_gamma_scale(X)
        K = kernel_matrix(self.kernel, X, X, gamma)
        alpha, bias, n_iter = self._smo(K, y_pm)
        alpha[alpha < ALPHA_SNAP] = 0.0
        alpha[alpha > self.C - ALPHA_SNAP] = self.C
        f = K @ (alpha * y_pm)
        bias = self._final_bias(alpha, y_pm, f, bias)
        worst = float(np.max(kkt_violations(alpha, y_pm, f + bias, self.C)))
        if worst >= self.tol:
            raise ConvergenceError(
                f"SMO stalled; largest KKT violation {worst:.3e} >= tol {self.tol}"
            )
        sv = np.flatnonzero(alpha > 0.0)
        self.support_idx_ = sv
        self.alphas_ = alpha[sv]
        self.support_vectors_ = X[sv]
        self.support_labels_ = y_pm[sv]
        self.bias_ = bias
        self.n_support_ = len(sv)
        self.gamma_ = gamma
        self.n_samples_ = len(y)
        # solver diagnostics; save() leaves them out of the model file
        self.n_iter_ = n_iter
        self.kkt_violation_ = worst
        if self.kernel == "linear":
            self.w_ = (self.alphas_ * self.support_labels_) @ self.support_vectors_
        return self

    def _smo(self, K, y_pm):
        """LIBSVM's second-order working-set selection (Fan, Chen & Lin 2005).

        Minimizes 0.5 a'Qa - a'1 with Q_ij = y_i y_j K_ij, keeping the
        gradient G = Qa - 1. Returns (alpha, bias, pair updates)."""
        n = len(y_pm)
        C = self.C
        # the final bias is re-averaged over margin SVs, which can shift the
        # margins by up to the working tolerance; solving to 0.4 * tol keeps
        # the stored model inside the advertised KKT tolerance. A gap
        # m - M < 2 * tol puts every point within tol of its margin when the
        # bias sits at the gap's midpoint.
        tol = 0.4 * self.tol
        budget = self.max_passes * -(-n // 2)
        pos = y_pm > 0
        k_diag = np.diag(K).copy()
        alpha = np.zeros(n)
        G = -np.ones(n)
        n_iter = 0
        while True:
            # -y G is the bias that puts each point on its margin; alpha may
            # move so that a point of the up set raises it, one of the low
            # set lowers it
            score = -y_pm * G
            up = np.where(pos, alpha < C, alpha > 0.0)
            low = np.where(pos, alpha > 0.0, alpha < C)
            i = int(np.argmax(np.where(up, score, -np.inf)))
            m = score[i]
            M = float(np.min(score[low]))
            if m - M < 2.0 * tol:
                break
            if n_iter == budget:
                worst = float(np.max(kkt_violations(
                    alpha, y_pm, y_pm * (G + 1.0) + 0.5 * (m + M), C
                )))
                raise ConvergenceError(
                    f"no convergence in {self.max_passes} passes "
                    f"({n_iter} pair updates); largest KKT violation {worst:.3e}"
                )
            # j minimizes -b^2 / a, the decrease of the dual along the pair's
            # direction: gain b = m - score_t > 0, curvature a
            b = m - score
            a = k_diag[i] + k_diag - 2.0 * K[i]
            a = np.where(a > 0.0, a, TAU)
            j = int(np.argmin(np.where(low & (b > 0.0), -(b * b) / a, np.inf)))
            # alpha_i += y_i t and alpha_j -= y_j t keep y'alpha fixed; t is
            # the unconstrained minimizer b / a clipped to the box
            ti = C - alpha[i] if pos[i] else alpha[i]
            tj = alpha[j] if pos[j] else C - alpha[j]
            t = min(b[j] / a[j], ti, tj)
            alpha[i] = (C if pos[i] else 0.0) if t == ti else alpha[i] + y_pm[i] * t
            alpha[j] = (0.0 if pos[j] else C) if t == tj else alpha[j] - y_pm[j] * t
            G += t * y_pm * (K[i] - K[j])  # rows, as K is symmetric
            n_iter += 1
        return alpha, 0.5 * (m + M), n_iter

    def _final_bias(self, alpha, y_pm, f, fallback):
        """Average y - f over margin SVs; otherwise the KKT-interval midpoint."""
        margin = (alpha > 0.0) & (alpha < self.C)
        if np.any(margin):
            return float(np.mean(y_pm[margin] - f[margin]))
        lo, hi = [], []
        at_zero = alpha == 0.0
        at_c = alpha == self.C
        lo.extend(1.0 - f[at_zero & (y_pm > 0)])
        lo.extend(-1.0 - f[at_c & (y_pm < 0)])
        hi.extend(-1.0 - f[at_zero & (y_pm < 0)])
        hi.extend(1.0 - f[at_c & (y_pm > 0)])
        if lo and hi:
            return 0.5 * (max(lo) + min(hi))
        return float(fallback)

    # -- inference ---------------------------------------------------------

    def decision_function(self, X):
        """D(x) = sum_j y_j alpha_j K(x_j, x) + b."""
        check_is_fitted(self, "bias_")
        X, single = as_query_rows(X, self.support_vectors_.shape[1])
        d = self._decisions(X)
        return float(d[0]) if single else d

    def _decisions(self, X):
        X = check_width(X, self.support_vectors_.shape[1])
        K = kernel_matrix(self.kernel, X, self.support_vectors_, self.gamma_)
        return K @ (self.alphas_ * self.support_labels_) + self.bias_

    def predict(self, X):
        """Label 1 iff D(x) >= 0 (ties to broken)."""
        d = self.decision_function(X)
        if np.isscalar(d):
            return int(d >= 0.0)
        return (d >= 0.0).astype(np.int64)

    def _predict_rows(self, X):
        """predict of 2-D float64 rows already screened finite."""
        return (self._decisions(X) >= 0.0).astype(np.int64)

    def training_kkt_violations(self, X, y):
        """KKT violation per training point; X, y must be the fit data."""
        check_is_fitted(self, "bias_")
        X, y = check_X_y(X, y)
        if len(y) != self.n_samples_:
            raise ValueError("pass the training set used in fit")
        alpha = np.zeros(len(y))
        alpha[self.support_idx_] = self.alphas_
        d = self.decision_function(X)
        return kkt_violations(alpha, 2.0 * y - 1.0, d, self.C)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        check_is_fitted(self, "bias_")
        payload = {
            "kind": "svm",
            "kernel": self.kernel,
            "C": self.C,
            "gamma": self.gamma_ if self.kernel == "rbf" else None,
            "bias": self.bias_,
            "alphas": self.alphas_.tolist(),
            "support_vectors": self.support_vectors_.tolist(),
            "support_labels": self.support_labels_.tolist(),
        }
        if self.kernel == "linear":
            payload["w"] = self.w_.tolist()
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")

    @classmethod
    def load(cls, path):
        payload = json.loads(Path(path).read_text())
        model = cls(kernel=payload["kernel"], C=payload["C"])
        model.gamma_ = payload["gamma"]
        model.bias_ = float(payload["bias"])
        model.alphas_ = np.array(payload["alphas"], dtype=np.float64)
        model.support_vectors_ = np.array(
            payload["support_vectors"], dtype=np.float64
        )
        model.support_labels_ = np.array(
            payload["support_labels"], dtype=np.float64
        )
        model.support_idx_ = np.arange(len(model.alphas_))
        model.n_support_ = len(model.alphas_)
        model.n_samples_ = len(model.alphas_)
        if "w" in payload:
            model.w_ = np.array(payload["w"], dtype=np.float64)
        return model
