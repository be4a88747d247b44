"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 7 trains every method end to end on the surrogate generator, so
this module takes several minutes; run it with `pytest tests/test_acceptance.py`.
"""

import time

import numpy as np
import pytest

from wellmon.baseline import MonitorConfig, fit_line, monitor
from wellmon.cnn import CnnClassifier
from wellmon.dataset import MultivariateSeries
from wellmon.dtree import DecisionTree, ccp_path
from wellmon.evaluation import ConfusionMatrix, accuracy, compare, confusion, precision_recall_f1
from wellmon.pca import PCA
from wellmon.pipeline import PipelineConfig, build_pipeline, prepare_segments, run_pipeline
from wellmon.svm import SvmClassifier, dual_objective, kernel_matrix
from wellmon.transforms import (
    correlation,
    cov_matrix,
    cov_sqrt,
    std_features,
)

from conftest import make_segment
from test_dtree import brute_force_best_split, enumerate_pruned_subtrees, _risk
from test_svm import projected_gradient_dual


def report(n, text):
    # visible with `pytest -s`; pytest also replays it if the test fails
    print(f"\nACCEPTANCE {n}: PASS  {text}", flush=True)


def test_criterion_1_transform_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    segments = [make_segment(rng.standard_normal((40, 6))) for _ in range(1000)]
    sigmas = []
    for seg in segments:
        sigma = cov_matrix(seg).sigma
        sigmas.append(sigma)
        assert np.max(np.abs(np.sqrt(np.diag(sigma)) - std_features(seg))) < 1e-10
        corr = correlation(sigma)
        assert np.max(np.abs(np.diag(corr) - 1.0)) < 1e-12
    # batch square root over all 1000 covariances
    from wellmon.linalg import sym_sqrt_batch

    roots = sym_sqrt_batch(np.stack(sigmas))
    recon = np.einsum("bij,bjk->bik", roots, roots)
    worst = np.max(np.abs(recon - np.stack(sigmas)))
    assert worst < 1e-8
    # the per-matrix op agrees with the batch path
    for i in range(0, 1000, 137):
        assert np.max(np.abs(cov_sqrt(sigmas[i]) - roots[i])) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"transform identities on 1000 segments ({elapsed:.2f}s, "
              f"worst sqrt residual {worst:.1e})")


def test_criterion_2_pca_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(50):
        X = rng.standard_normal((20, 5))
        model = PCA(5).fit(X)
        normalized = (X - model.mean_) / model.std_
        sigma = normalized.T @ normalized / 20
        for i in range(5):
            w = model.components_[:, i]
            residual = np.linalg.norm(sigma @ w - model.eigenvalues_[i] * w)
            assert residual < 1e-8
        projected = model.transform(X)
        d_orig = np.linalg.norm(
            normalized[:, None, :] - normalized[None, :, :], axis=2
        )
        d_proj = np.linalg.norm(
            projected[:, None, :] - projected[None, :, :], axis=2
        )
        assert np.max(np.abs(d_orig - d_proj)) < 1e-8
        assert abs(model.explained_variance_ratio().sum() - 1.0) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"PCA eigen-residual/isometry/ratios on 50 matrices ({elapsed:.2f}s)")


def test_criterion_3_baseline_equivalence():
    # the clock times only the calls into wellmon, not the numpy oracle
    elapsed = 0.0
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10**4):
        x = rng.uniform(0.2, 3.0, size=10)
        y = rng.uniform(0.2, 3.0, size=10)
        start = time.perf_counter()
        line = fit_line(x, y)
        elapsed += time.perf_counter() - start
        b1 = np.mean((x - x.mean()) * (y - y.mean())) / x.var()
        b0 = y.mean() - x.mean() * b1
        worst = max(worst, abs(line.incline - b1), abs(line.intercept - b0))
    assert worst < 1e-10
    series = MultivariateSeries(
        rng.standard_normal((60 * 300, 2)), 5.0, ("accx_FJ", "bmx")
    )
    start = time.perf_counter()
    lines = monitor(series, MonitorConfig("accx_FJ", "bmx"))
    elapsed += time.perf_counter() - start
    assert len(lines) == 51
    assert elapsed < 1.0
    report(3, f"baseline closed/moment form agree on 10^4 pairs, 51 lines "
              f"({elapsed:.2f}s, worst gap {worst:.1e})")


def test_criterion_4_dtree_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    # greedy root vs exhaustive search on small instances
    checked = 0
    for _ in range(80):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        X = np.round(rng.standard_normal((n, d)), 1)
        y = rng.integers(0, 2, size=n)
        if len(np.unique(y)) < 2:
            continue
        for criterion in ("gini", "entropy"):
            expected = brute_force_best_split(X, y, criterion)
            tree = DecisionTree(criterion=criterion).fit(X, y)
            if expected is None:
                assert tree.root_.is_leaf
            else:
                assert tree.root_.feature == expected[1]
                assert tree.root_.threshold == pytest.approx(expected[2])
        checked += 1
    assert checked >= 40
    # unpruned fit reaches 100% train accuracy on consistent data
    X = rng.standard_normal((300, 4))
    y = rng.integers(0, 2, size=300)
    tree = DecisionTree().fit(X, y)
    assert np.mean(tree.predict(X) == y) == 1.0
    # XOR pruning path against exhaustive subtree enumeration
    X_xor = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y_xor = np.array([0, 0, 1, 1])
    xor_tree = DecisionTree().fit(X_xor, y_xor)
    path = ccp_path(xor_tree, X_xor, y_xor)
    subtrees = enumerate_pruned_subtrees(xor_tree.root_)
    for alpha in (0.0, 0.1, 1.0 / 6.0 + 1e-9, 0.3, 2.0):
        best = min(_risk(t, 4) + alpha * t.leaf_count() for t in subtrees)
        idx = max(i for i, a in enumerate(path.alphas) if a <= alpha)
        cost = _risk(path.trees[idx], 4) + alpha * path.trees[idx].leaf_count()
        assert cost == pytest.approx(best, abs=1e-12)
    # node count non-increasing along any path
    noisy_y = (X[:, 0] > 0).astype(int)
    noisy_y[rng.random(300) < 0.2] ^= 1
    noisy_tree = DecisionTree().fit(X[:, :2], noisy_y)
    noisy_path = ccp_path(noisy_tree, X[:, :2], noisy_y)
    counts = noisy_path.node_counts
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"decision-tree greedy/pruning oracles ({elapsed:.1f}s, "
              f"{checked} split instances)")


def test_criterion_5_svm_kkt_and_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    # KKT suite on every fitted model
    fitted = 0
    for trial in range(6):
        n = 40
        X = rng.standard_normal((n, 2))
        y = (X[:, 0] + 0.4 * rng.standard_normal(n) > 0).astype(int)
        if len(np.unique(y)) < 2:
            continue
        kernel = "rbf" if trial % 2 == 0 else "linear"
        model = SvmClassifier(kernel=kernel, C=1.0, seed=trial).fit(X, y)
        assert float(np.max(model.training_kkt_violations(X, y))) < 1e-3
        fitted += 1
    assert fitted >= 4
    # dual objective vs projected-gradient oracle on <= 4-point instances
    for _ in range(3):
        X = rng.standard_normal((4, 2)) + np.array([[0.0, 0.0]] * 2 + [[2.0, 2.0]] * 2)
        y = np.array([0, 0, 1, 1])
        y_pm = 2.0 * y - 1.0
        model = SvmClassifier(kernel="linear", C=5.0).fit(X, y)
        K = kernel_matrix("linear", X, X)
        alpha = np.zeros(4)
        alpha[model.support_idx_] = model.alphas_
        oracle = projected_gradient_dual(K, y_pm, 5.0)
        assert dual_objective(K, y_pm, alpha) == pytest.approx(
            dual_objective(K, y_pm, oracle), abs=1e-4
        )
    # linear primal and dual decision functions agree
    X = np.concatenate(
        [rng.standard_normal((20, 3)), rng.standard_normal((20, 3)) + 2.0]
    )
    y = np.array([0] * 20 + [1] * 20)
    model = SvmClassifier(kernel="linear", C=1.0).fit(X, y)
    pts = rng.standard_normal((200, 3))
    gap = np.max(np.abs(model.decision_function(pts) - (pts @ model.w_ + model.bias_)))
    assert gap < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"SVM KKT suite + dual oracle + primal/dual ({elapsed:.1f}s, "
              f"primal-dual gap {gap:.1e})")


def test_criterion_6_cnn_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    model = CnnClassifier()
    # exact shape chain 6x300 -> 12x271 -> 12x52 -> 24x23 -> 24x2 -> 48 -> 2 -> 1
    assert model.flatten_size(300) == 48
    model.init_params(300)
    cache = model._forward(model._prepare_batch(rng.standard_normal((1, 6, 300))))
    assert cache["preacts"][0].shape == (1, 12, 271)
    assert cache["preacts"][1].shape == (1, 24, 23)
    assert cache["flat"].shape == (1, 48)
    assert cache["embedding"].shape == (1, 2)
    assert cache["probs"].shape == (1,)
    # full-network gradient check
    X = rng.standard_normal((4, 6, 300))
    y = np.array([0, 1, 1, 0])
    err = CnnClassifier(seed=6).init_params(300).grad_check(X, y, seed=3)
    assert err < 1e-4
    # single-sample memorization
    mem = CnnClassifier(epochs=500, learning_rate=1e-2, batch_size=1, seed=0)
    X1 = rng.standard_normal((1, 6, 300))
    mem.fit(X1, np.array([1]))
    final_mse = mem.mse(X1, np.array([1]))
    assert final_mse < 1e-3
    # zero-parameter network outputs exactly 0.5
    zero = CnnClassifier().init_params(300)
    for name in zero.params_:
        zero.params_[name][:] = 0.0
    probs, _ = zero.forward(np.zeros((3, 6, 300)))
    assert np.all(probs == 0.5)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"CNN shapes/gradients/memorization ({elapsed:.1f}s, "
              f"grad err {err:.1e}, memorized MSE {final_mse:.1e})")


# pinned CNN training configuration for the end-to-end run (a 100-trial
# random search does not fit the wall-clock budget). CNN_PARAMS and the
# test-MSE bound below were checked on CNN seeds 0-4 at 1 and 2 OpenBLAS
# threads, which give the same bits.
CNN_PARAMS = {"epochs": 80, "learning_rate": 5e-3, "batch_size": 50}
METHODS = ("logreg", "dtree", "svm", "cnn")


def _surrogate_config(noise, pcs=4, transform="cov"):
    return PipelineConfig(
        method="logreg",
        transform=transform,
        pcs=pcs,
        noise=noise,
        seed=0,
        n_series_per_class=20,
        series_len=18001,
        method_params={"cnn": CNN_PARAMS},
    )


def test_criterion_7_end_to_end_trends():
    start = time.perf_counter()
    accuracies = {}
    splits = {}
    fitted = {}
    for noise in (1, 50):
        cfg = _surrogate_config(noise)
        train, test, names = prepare_segments(cfg)
        splits[noise] = (train, test, names)
        pipelines = [build_pipeline(cfg, m, channel_names=names) for m in METHODS]
        reports = compare(pipelines, train, test, timing_reps=1)
        accuracies[noise] = {r.method: r.accuracy for r in reports}
        fitted[noise] = dict(zip(METHODS, pipelines))
    train1, test1, names1 = splits[1]
    # (a) LogR on COV+PCA(4) >= 0.95 and strictly better than COV+PCA(2)
    cfg2 = _surrogate_config(1, pcs=2)
    logreg2 = build_pipeline(cfg2, "logreg", channel_names=names1).fit(train1)
    truth1 = np.array([int(s.label) for s in test1])
    acc_logreg2 = accuracy(logreg2.predict(test1), truth1)
    acc_logreg4 = accuracies[1]["logreg"]
    assert acc_logreg4 >= 0.95, f"LogR COV+PCA(4) accuracy {acc_logreg4:.4f}"
    assert acc_logreg2 < acc_logreg4, (
        f"PCA(2) {acc_logreg2:.4f} not below PCA(4) {acc_logreg4:.4f}"
    )
    # (b) every method degrades (or holds) from Noise 1 to Noise 50
    for method in METHODS:
        assert accuracies[50][method] <= accuracies[1][method], (
            f"{method}: noise-50 {accuracies[50][method]:.4f} exceeds "
            f"noise-1 {accuracies[1][method]:.4f}"
        )
    # (c) COV-transform SVM needs fewer support vectors than STD at 3 PCs
    sv_counts = {}
    for kind in ("std", "cov"):
        cfg3 = _surrogate_config(1, pcs=3, transform=kind)
        svm_pipe = build_pipeline(cfg3, "svm", channel_names=names1).fit(train1)
        sv_counts[kind] = svm_pipe.estimator.n_support_
    assert sv_counts["cov"] < sv_counts["std"], f"SV counts {sv_counts}"
    # (d) CNN is at least as accurate as every classical method on Noise 1
    for method in ("logreg", "dtree", "svm"):
        assert accuracies[1]["cnn"] >= accuracies[1][method], (
            f"cnn {accuracies[1]['cnn']:.4f} below {method} "
            f"{accuracies[1][method]:.4f}"
        )
    # the trained CNN's test MSE lands below 5e-2 within its epoch budget.
    # Over CNN seeds 0-4 it ran 0.016-0.027; the same network gives 0.130
    # after 10 epochs and 0.26 untrained.
    cnn_pipe = fitted[1]["cnn"]
    probs = cnn_pipe.estimator.predict_proba(
        cnn_pipe._normalize(cnn_pipe._to_array(test1))
    )
    cnn_test_mse = float(np.mean((probs - truth1) ** 2))
    cnn_summary = (
        f"CNN test MSE {cnn_test_mse:.4g}, accuracy {accuracies[1]['cnn']:.4f}, "
        f"last train MSE {cnn_pipe.estimator.history_['train_mse'][-1]:.4g}"
    )
    assert cnn_test_mse < 5e-2, cnn_summary
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        7,
        "end-to-end trends "
        f"({elapsed:.0f}s): logreg pca2/pca4 {acc_logreg2:.3f}/{acc_logreg4:.3f}, "
        f"noise-1 accs {[round(accuracies[1][m], 3) for m in METHODS]}, "
        f"noise-50 accs {[round(accuracies[50][m], 3) for m in METHODS]}, "
        f"SV std/cov {sv_counts['std']}/{sv_counts['cov']}, {cnn_summary}",
    )


def test_criterion_8_metrics_unit_suite():
    start = time.perf_counter()
    cm = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 1, 1)
    assert confusion([1, 1], [1, 1]) == ConfusionMatrix(2, 0, 0, 0)
    assert confusion([0, 1], [1, 0]) == ConfusionMatrix(0, 1, 1, 0)
    scores = precision_recall_f1(ConfusionMatrix(tp=1, fp=1, fn=1, tn=0))
    assert scores.precision == scores.recall == scores.f1 == 0.5
    rng = np.random.default_rng(808)
    for _ in range(200):
        cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 9, 4)))
        if cm.total == 0:
            continue
        s = precision_recall_f1(cm)
        if s.precision + s.recall > 0:
            assert s.f1 == pytest.approx(
                2 * s.precision * s.recall / (s.precision + s.recall), abs=1e-12
            )
        else:
            assert s.f1 == 0.0 and s.degenerate
    degenerate = precision_recall_f1(ConfusionMatrix(tp=0, fp=0, fn=3, tn=1))
    assert degenerate == (0.0, 0.0, 0.0, True)
    assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == 0.75
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(8, f"metrics unit suite ({elapsed:.2f}s)")


def test_criterion_9_determinism(tmp_path):
    import csv as csv_mod

    from wellmon.pipeline import run_compare

    start = time.perf_counter()

    def rows_without_timing(path):
        with open(path, newline="") as fh:
            rows = list(csv_mod.reader(fh))
        keep = [i for i, h in enumerate(rows[0]) if h not in ("train_ms", "test_ms")]
        return [[r[i] for i in keep] for r in rows]

    cfg = PipelineConfig(
        method="logreg", transform="cov", pcs=4, noise=1, seed=7,
        n_series_per_class=2, series_len=1501,
    )
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    for name in (
        "logreg_model.json", "logreg_scaler.json", "logreg_pca.json",
        "logreg_train_features.csv", "logreg_test_features.csv", "config.json",
    ):
        same = (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert same, f"{name} differs between reruns"
    assert rows_without_timing(tmp_path / "a" / "report.csv") == rows_without_timing(
        tmp_path / "b" / "report.csv"
    )
    # the four-method compare is deterministic too, model files included
    cmp_cfg = PipelineConfig(
        method="logreg", transform="cov", pcs=4, noise=1, seed=11,
        n_series_per_class=2, series_len=1501,
        method_params={"cnn": {"epochs": 2, "learning_rate": 1e-3}},
    )
    run_compare(cmp_cfg, tmp_path / "c")
    run_compare(cmp_cfg, tmp_path / "d")
    for name in (
        "logreg_model.json", "dtree_model.json", "svm_model.json",
        "cnn_model.bin", "cnn_model.json", "cnn_channels.json", "config.json",
    ):
        same = (tmp_path / "c" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
        assert same, f"{name} differs between compare reruns"
    assert rows_without_timing(tmp_path / "c" / "report.csv") == rows_without_timing(
        tmp_path / "d" / "report.csv"
    )
    elapsed = time.perf_counter() - start
    report(9, f"seeded pipeline and compare reruns byte-identical modulo "
              f"timing ({elapsed:.1f}s)")
