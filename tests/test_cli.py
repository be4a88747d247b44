import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wellmon
from wellmon import cli, dataset
from wellmon.cli import main
from wellmon.cnn import CnnClassifier, random_search
from wellmon.dtree import DecisionTree, ccp_path, cv_ccp_alpha, grid_search
from wellmon.evaluation import score_predictions
from wellmon.pipeline import (
    METHODS, PipelineConfig, build_pipeline, load_run, prepare_segments,
    run_compare, run_pipeline, window_segments,
)
from wellmon.transforms import transform_segments
from wellmon.validation import cv_accuracy, stratified_kfold_indices

COMMON = ["--n-per-class", "2", "--len", "1501", "--seed", "0"]


def run(argv):
    return main([str(a) for a in argv])


def test_cli_starts_without_scipy_signal():
    # only generation filters with scipy.signal, whose import takes about a
    # second, so the other commands start without it
    src = str(Path(wellmon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c",
         "import wellmon.cli, sys; assert 'scipy.signal' not in sys.modules"],
        env=env, check=True, timeout=120,
    )


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("series")
    code = run(["generate", *COMMON, "--noise", "1", "--out", path])
    assert code == 0
    return path


def test_generate_writes_series(data_dir):
    csvs = sorted(data_dir.glob("series_*.csv"))
    sidecars = sorted(data_dir.glob("series_*.json"))
    assert len(csvs) == 4 and len(sidecars) == 4
    sidecar = json.loads(sidecars[0].read_text())
    assert sidecar["noise_level"] == 1
    assert sidecar["sample_rate_hz"] == 5.0


def test_transform_subcommand(data_dir, tmp_path):
    out = tmp_path / "features.csv"
    assert run(["transform", "--in", data_dir, "--transform", "cov", "--out", out]) == 0
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))  # feature names contain commas, quoted
    assert len(header) == 22  # 21 features + label
    assert header[-1] == "label"
    out_std = tmp_path / "features_std.csv"
    code = run([
        "transform", "--in", data_dir, "--transform", "std",
        "--channels", "accx_FJ,accx_DAS,bmx", "--out", out_std,
    ])
    assert code == 0
    assert out_std.read_text().splitlines()[0] == "accx_FJ,accx_DAS,bmx,label"


def test_pca_subcommand(data_dir, tmp_path):
    features = tmp_path / "f.csv"
    run(["transform", "--in", data_dir, "--transform", "cov", "--out", features])
    model = tmp_path / "pca.json"
    code = run(["pca", "--in", features, "--pcs", "4", "--out", model])
    assert code == 0
    payload = json.loads(model.read_text())
    assert payload["d"] == 4
    assert len(payload["eigenvalues"]) == 21


def test_baseline_subcommand(tmp_path):
    # 12 full minutes of data so a 10-minute window fits
    run(["generate", "--n-per-class", "1", "--len", "3601", "--seed", "1",
         "--out", tmp_path / "bl"])
    lines_csv = tmp_path / "lines.csv"
    code = run(["baseline", "--x", "accx_FJ", "--y", "bmx", "--window", "10",
                "--step", "1", "--in", tmp_path / "bl" / "series_0000.csv",
                "--out", lines_csv])
    assert code == 0
    rows = lines_csv.read_text().splitlines()
    assert rows[0] == "window_start,beta0,beta1"
    assert len(rows) == 1 + 3  # 12 - 10 + 1 lines
    # a dot in the file name is part of the stem: a v1.2_ copy of the same
    # series writes the same lines
    for suffix in ("csv", "json"):
        shutil.copy(tmp_path / "bl" / f"series_0000.{suffix}",
                    tmp_path / "bl" / f"v1.2_run.{suffix}")
    dotted_csv = tmp_path / "dotted_lines.csv"
    assert run(["baseline", "--x", "accx_FJ", "--y", "bmx", "--window", "10",
                "--step", "1", "--in", tmp_path / "bl" / "v1.2_run.csv",
                "--out", dotted_csv]) == 0
    assert dotted_csv.read_text() == lines_csv.read_text()


def test_train_logreg(data_dir, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "logreg", "--data", data_dir, "--transform", "cov",
                "--pcs", "4", "--out", out])
    assert code == 0
    assert (out / "logreg_model.json").exists()
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 2


def test_train_dtree_post_prune(data_dir, tmp_path):
    out = tmp_path / "dtree"
    code = run(["train", "dtree", "--data", data_dir, "--criterion", "entropy",
                "--ccp-alpha", "0.01", "--out", out])
    assert code == 0
    payload = json.loads((out / "dtree_model.json").read_text())
    assert payload["criterion"] == "entropy"


def test_post_prune_alpha_comes_from_the_training_windows(tmp_path):
    # noise-50 series, where the alphas once keyed by --noise 1 and 50 gave
    # different trees: the typed --noise, which a --data run cannot check,
    # no longer picks the alpha
    data = tmp_path / "noise50"
    assert run(["generate", "--n-per-class", "3", "--len", "3601", "--seed", "1",
                "--noise", "50", "--out", data]) == 0
    models = []
    for noise in ("1", "50"):
        out = tmp_path / f"typed{noise}"
        assert run(["train", "dtree", "--data", data, "--noise", noise, "--pcs", "4",
                    "--criterion", "entropy", "--prune", "post", "--out", out]) == 0
        models.append((out / "dtree_model.json").read_bytes())
    assert models[0] == models[1]
    # the recorded alpha is the CV choice on the projected train features
    cfg = PipelineConfig.from_json((out / "config.json").read_text())
    train, _, channel_names = prepare_segments(cfg, dataset.load_series_set(data))
    features = build_pipeline(cfg, channel_names=channel_names).fit_project(train)
    alpha, _ = cv_ccp_alpha(DecisionTree("entropy"), features.values, features.labels, 5,
                            seed=cfg.seed)
    assert cfg.method_params == {"criterion": "entropy", "ccp_alpha": alpha}


def test_post_prune_alpha_is_tuned_on_trees_with_the_given_limits(tmp_path):
    # the series of the test above: CV once grew unlimited trees, so runs
    # with and without --max-depth 2 both chose ccp_alpha 0.0121915
    data = tmp_path / "noise50"
    assert run(["generate", "--n-per-class", "3", "--len", "3601", "--seed", "1",
                "--noise", "50", "--out", data]) == 0
    chosen = []
    for limit in ([], ["--max-depth", "2"]):
        out = tmp_path / f"limited{len(limit)}"
        assert run(["train", "dtree", "--data", data, "--pcs", "4", "--prune", "post",
                    *limit, "--out", out]) == 0
        cfg = PipelineConfig.from_json((out / "config.json").read_text())
        limits = {k: v for k, v in cfg.method_params.items() if k != "ccp_alpha"}
        # the alpha that refitting each candidate with those limits chooses
        train, _, channel_names = prepare_segments(cfg, dataset.load_series_set(data))
        features = build_pipeline(cfg, channel_names=channel_names).fit_project(train)
        X, y = features.values, features.labels
        alphas = np.unique(ccp_path(DecisionTree(**limits).fit(X, y), X, y).alphas)
        candidates = np.r_[0.0, np.sqrt(alphas[1:-1] * alphas[2:])]
        folds = stratified_kfold_indices(y, 5, cfg.seed)
        scores = [
            cv_accuracy(lambda: DecisionTree(**limits, ccp_alpha=alpha), X, y, folds)
            for alpha in candidates
        ]
        best = max(range(len(scores)), key=lambda c: (scores[c], c))
        assert cfg.method_params["ccp_alpha"] == candidates[best]
        chosen.append(cfg.method_params["ccp_alpha"])
    assert f"{chosen[0]:.6g}" == "0.0121915"
    assert chosen[1] != chosen[0]


@pytest.mark.parametrize("prune", ["pre", "post"])
def test_prune_with_fewer_windows_per_class_than_folds_exits_3(
        prune, data_dir, tmp_path, capsys):
    assert run(["train", "dtree", "--data", data_dir, "--prune", prune,
                "--k-folds", "50", "--out", tmp_path / "o"]) == 3
    assert "fewer than k=50 folds" in capsys.readouterr().err


def test_train_dtree_pre_prune(data_dir, tmp_path):
    out = tmp_path / "dtree_pre"
    code = run(["train", "dtree", "--data", data_dir, "--criterion", "gini",
                "--prune", "pre", "--transform", "std", "--k-folds", "2",
                "--out", out])
    assert code == 0
    assert (out / "dtree_model.json").exists()
    # the recorded parameters are the grid search's pick on the projected
    # train features of the split the final model reports on, over depths up
    # to that of the tree grown on all of those features
    cfg = PipelineConfig.from_json((out / "config.json").read_text())
    X, y = _train_features(cfg, data_dir)
    grid = _derived_grid(X, y, "gini")
    best, _ = grid_search(X, y, "gini", grid, 2, seed=0)
    assert cfg.method_params == {"criterion": "gini", **best}


def _train_features(cfg, data_dir):
    """The projected training features that a run of cfg tunes on."""
    train, _, channel_names = prepare_segments(cfg, dataset.load_series_set(data_dir))
    features = build_pipeline(cfg, channel_names=channel_names).fit_project(train)
    return features.values, features.labels


def _derived_grid(X, y, criterion):
    depth = DecisionTree(criterion).fit(X, y).depth_
    return {"max_depth": list(range(1, depth + 1)), "min_samples_split": [2, 3, 4],
            "min_samples_leaf": [1, 2]}


def test_train_svm(data_dir, tmp_path):
    out = tmp_path / "svm"
    code = run(["train", "svm", "--data", data_dir, "--kernel", "linear",
                "--C", "1.0", "--pcs", "3", "--out", out])
    assert code == 0
    payload = json.loads((out / "svm_model.json").read_text())
    assert payload["kernel"] == "linear"
    assert "w" in payload


def test_train_svm_records_a_numeric_gamma(data_dir, tmp_path):
    out = tmp_path / "svm_gamma"
    assert run(["train", "svm", "--data", data_dir, "--gamma", "0.5", "--out", out]) == 0
    assert _written_config(out)["method_params"] == {"gamma": 0.5}


def test_train_and_evaluate_cnn(data_dir, tmp_path):
    out = tmp_path / "cnn"
    code = run(["train", "cnn", "--data", data_dir, "--epochs", "2",
                "--learning-rate", "0.001", "--out", out])
    assert code == 0
    assert (out / "cnn_model.bin").exists()
    code = run(["evaluate", "--model", out / "cnn_model", "--data", data_dir,
                "--out", tmp_path / "cnn_report.csv"])
    assert code == 0


def test_train_cnn_with_random_search(data_dir, tmp_path, monkeypatch):
    searched = {}

    def spy(estimator, space, X_fit, y_fit, X_val, y_val, **kwargs):
        searched.update(X_val=X_val, y_val=y_val)
        return random_search(estimator, space, X_fit, y_fit, X_val, y_val, **kwargs)

    monkeypatch.setattr(cli, "random_search", spy)
    out = tmp_path / "cnn_search"
    code = run(["train", "cnn", "--data", data_dir, "--trials", "2",
                "--epochs", "1", "--out", out])
    assert code == 0
    # trials are scored on the first stratified fold of the train windows,
    # normalized with statistics of the other folds; the test windows are
    # never seen
    cfg = PipelineConfig.from_json((out / "config.json").read_text())
    train, _, _ = prepare_segments(cfg, dataset.load_series_set(data_dir))
    labels = np.array([int(s.label) for s in train])
    fit_idx, val_idx = stratified_kfold_indices(labels, 5, 0)[0]
    pipeline = build_pipeline(cfg)
    pipeline.fit_project([train[k] for k in fit_idx])
    expected = pipeline.project([train[k] for k in val_idx])
    assert np.array_equal(searched["X_val"], expected)
    assert np.array_equal(searched["y_val"], labels[val_idx])
    trials = (out / "trials.jsonl").read_text().splitlines()
    assert len(trials) == 2
    record = json.loads(trials[0])
    assert record["batch_size"] in (10, 30, 50, 100)
    assert 1e-4 <= record["learning_rate"] <= 1e-1
    best = min(map(json.loads, trials), key=lambda r: r["test_mse"])
    params = json.loads((out / "config.json").read_text())["method_params"]
    keys = ("activation", "learning_rate", "weight_decay", "batch_size", "seed")
    assert params == dict({key: best[key] for key in keys}, epochs=1)


def test_random_search_records_only_what_it_tuned(data_dir, tmp_path):
    # without --epochs, config.json keeps the estimator's default out of
    # method_params: the search chose only the drawn settings and the seed
    out = tmp_path / "cnn_search"
    assert run(["train", "cnn", "--data", data_dir, "--trials", "1", "--out", out]) == 0
    params = json.loads((out / "config.json").read_text())["method_params"]
    assert set(params) == set(cli.TUNED_PARAMS[("cnn", "trials")])


@pytest.mark.parametrize("argv", [
    ["dtree", "--prune", "pre", "--k-folds", "2"],
    ["cnn", "--trials", "1", "--epochs", "1"],
    ["dtree", "--prune", "post", "--k-folds", "2"],
])
def test_train_with_tuning_prepares_data_once(argv, tmp_path, monkeypatch):
    calls = {"generate": 0, "window": 0, "split": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(dataset, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dataset, name, counted)
    assert run(["train", *argv, *COMMON, "--out", tmp_path / "out"]) == 0
    assert calls == {"generate": 1, "window": 1, "split": 1}


def test_evaluate_cnn_loads_the_named_model(data_dir, tmp_path, capsys):
    out = tmp_path / "cnn_eval"
    assert run(["train", "cnn", "--data", data_dir, "--epochs", "1",
                "--out", out]) == 0
    capsys.readouterr()
    # a model name that does not exist fails loudly, even beside a saved CNN
    missing = out / "no_such_model"
    assert run(["evaluate", "--model", missing, "--data", data_dir]) == 3
    assert str(missing) in capsys.readouterr().err
    for model in (out / "cnn", out / "cnn_model.json"):
        assert run(["evaluate", "--model", model, "--data", data_dir]) == 3
    # the stem comes from --model: the same CNN saved under another stem
    # scores the same, and the old name then fails
    capsys.readouterr()
    assert run(["evaluate", "--model", out / "cnn_model", "--data", data_dir]) == 0
    scored = capsys.readouterr().out
    for name in ("model.json", "model.bin", "channels.json"):
        (out / f"cnn_{name}").rename(out / f"moved_{name}")
    assert run(["evaluate", "--model", out / "moved_model", "--data", data_dir]) == 0
    assert capsys.readouterr().out == scored
    assert run(["evaluate", "--model", out / "cnn_model", "--data", data_dir]) == 3


def test_emit_plots_loads_the_named_cnn(data_dir, tmp_path, capsys):
    # emit-plots takes the CNN stem from --cnn-model, as evaluate does
    out = tmp_path / "cnn_plots"
    assert run(["train", "cnn", "--data", data_dir, "--epochs", "1",
                "--out", out]) == 0
    assert run(["emit-plots", "--cnn-model", out / "cnn_model", "--data", data_dir,
                "--out", tmp_path / "plots"]) == 0
    for name in ("model.json", "model.bin", "channels.json"):
        (out / f"cnn_{name}").rename(out / f"moved_{name}")
    assert run(["emit-plots", "--cnn-model", out / "moved_model", "--data", data_dir,
                "--out", tmp_path / "moved_plots"]) == 0
    embedding = "cnn_embedding.csv"
    assert ((tmp_path / "moved_plots" / embedding).read_bytes()
            == (tmp_path / "plots" / embedding).read_bytes())
    capsys.readouterr()
    for missing in (out / "cnn_model", out / "no_such_model"):
        assert run(["emit-plots", "--cnn-model", missing, "--data", data_dir,
                    "--out", tmp_path / "x"]) == 3
        assert str(missing) in capsys.readouterr().err
    assert run(["emit-plots", "--cnn-model", out / "moved", "--data", data_dir,
                "--out", tmp_path / "x"]) == 3
    assert "ends in _model" in capsys.readouterr().err


def test_evaluate_classical(data_dir, tmp_path):
    out = tmp_path / "lr"
    run(["train", "logreg", "--data", data_dir, "--pcs", "4", "--out", out])
    code = run(["evaluate", "--model", out / "logreg_model", "--data", data_dir,
                "--out", tmp_path / "eval.csv"])
    assert code == 0
    rows = (tmp_path / "eval.csv").read_text().splitlines()
    assert len(rows) == 2
    # a feature CSV skips the run's scaler and PCA, so evaluate takes none
    with pytest.raises(SystemExit) as exc:
        run(["evaluate", "--model", out / "logreg_model", "--data", data_dir,
             "--features", out / "logreg_test_features.csv"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def new_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("new_series")
    assert run(["generate", "--n-per-class", "2", "--len", "1501", "--seed", "5",
                "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def saved_runs(data_dir, tmp_path_factory):
    """(run directory, fitted pipeline) by ("train" or "compare", method):
    each method alone on std features, and all four on cov + PCA(4)."""
    series_set = dataset.load_series_set(data_dir)
    root = tmp_path_factory.mktemp("runs")
    runs = {}
    for method in METHODS:
        params = {"epochs": 1} if method == "cnn" else {}
        cfg = PipelineConfig(method=method, transform="std", method_params=params)
        _, pipeline = run_pipeline(cfg, root / method, series_set)
        runs["train", method] = root / method, pipeline
    cfg = PipelineConfig(pcs=4, method_params={"cnn": {"epochs": 1}})
    _, pipelines = run_compare(cfg, root / "compare", series_set)
    for pipeline in pipelines:
        runs["compare", pipeline.name] = root / "compare", pipeline
    return runs


def _scored_line(method, pred, truth):
    report = score_predictions(method, pred, truth)
    return (
        f"{method}: precision {report.precision:.4f} recall {report.recall:.4f} "
        f"f1 {report.f1:.4f} accuracy {report.accuracy:.4f}\n"
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("run_kind", ["train", "compare"])
def test_evaluate_scores_as_the_fitted_pipeline(saved_runs, run_kind, method,
                                                new_dir, capsys):
    # new series go through the run's own windows, scaler, PCA and model
    out, fitted = saved_runs[run_kind, method]
    cfg = PipelineConfig.from_json((out / "config.json").read_text())
    segments, _ = window_segments(cfg, dataset.load_series_set(new_dir))
    pred = fitted.predict(segments)
    capsys.readouterr()
    assert run(["evaluate", "--model", out / f"{method}_model",
                "--data", new_dir]) == 0
    assert capsys.readouterr().out == _scored_line(
        method, pred, dataset.labels_of(segments)
    )
    loaded, loaded_segments = load_run(out / f"{method}_model",
                                       dataset.load_series_set(new_dir))
    assert np.array_equal(loaded.predict(loaded_segments), pred)


def test_evaluate_a_classical_run_on_new_series(tmp_path, capsys):
    old, new, out = tmp_path / "old", tmp_path / "new", tmp_path / "run"
    assert run(["generate", "--n-per-class", "3", "--len", "3601", "--seed", "0",
                "--out", old]) == 0
    assert run(["generate", "--n-per-class", "2", "--len", "3601", "--seed", "5",
                "--out", new]) == 0
    assert run(["train", "logreg", "--data", old, "--out", out]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--model", out / "logreg_model", "--data", new]) == 0
    scored = capsys.readouterr().out
    cfg = PipelineConfig.from_json((out / "config.json").read_text())
    train, _, channel_names = prepare_segments(cfg, dataset.load_series_set(old))
    pipeline = build_pipeline(cfg, channel_names=channel_names).fit(train)
    segments, _ = window_segments(cfg, dataset.load_series_set(new))
    truth = dataset.labels_of(segments)
    assert scored == _scored_line("logreg", pipeline.predict(segments), truth)
    # unscaled features called every window broken
    assert "accuracy 0.5000" not in scored


def test_evaluate_classical_loads_the_named_model(data_dir, tmp_path, capsys):
    out = tmp_path / "svm_named"
    assert run(["train", "svm", "--data", data_dir, "--pcs", "3",
                "--out", out]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--model", out / "svm_model", "--data", data_dir]) == 0
    scored = capsys.readouterr().out
    for name in ("model.json", "scaler.json", "pca.json"):
        (out / f"svm_{name}").rename(out / f"moved_{name}")
    assert run(["evaluate", "--model", out / "moved_model", "--data", data_dir]) == 0
    assert capsys.readouterr().out == scored
    assert run(["evaluate", "--model", out / "svm_model", "--data", data_dir]) == 3


@pytest.mark.parametrize("method", METHODS)
def test_evaluate_refuses_a_malformed_model(saved_runs, method, new_dir, tmp_path,
                                            capsys):
    out, _ = saved_runs["train", method]
    for model in (out / method, out / f"{method}_model.json"):
        assert run(["evaluate", "--model", model, "--data", new_dir]) == 3
    if method != "cnn":
        assert run(["emit-plots", "--cnn-model", out / f"{method}_model",
                    "--data", new_dir, "--out", tmp_path / "plots"]) == 3
    copy = shutil.copytree(out, tmp_path / "copy")
    for payload in ({"kind": "nope"}, {"kind": method}, [method]):
        (copy / f"{method}_model.json").write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["evaluate", "--model", copy / f"{method}_model",
                    "--data", new_dir]) == 3
        assert str(copy / f"{method}_model") in capsys.readouterr().err


def test_compare_subcommand(data_dir, tmp_path):
    out = tmp_path / "cmp"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "method_params": {"cnn": {"epochs": 2, "learning_rate": 1e-3}},
    }))
    code = run(["compare", "--data", data_dir, "--transform", "cov", "--pcs", "4",
                "--config", config, "--out", out])
    assert code == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["logreg", "dtree", "svm", "cnn"]


def test_compare_generates_when_no_data(tmp_path):
    out = tmp_path / "cmp_gen"
    config = tmp_path / "gen_cfg.json"
    config.write_text(json.dumps({
        "method_params": {"cnn": {"epochs": 2, "learning_rate": 1e-3}},
    }))
    code = run(["compare", "--n-per-class", "2", "--len", "1501", "--seed", "5",
                "--pcs", "4", "--config", config, "--out", out])
    assert code == 0
    assert (out / "report.csv").exists()


def test_compare_cnn_reads_the_given_channels(data_dir, tmp_path):
    out = tmp_path / "cmp_channels"
    config = _config_file(tmp_path, {"method_params": {"cnn": {"epochs": 1}}})
    assert run(["compare", "--data", data_dir, "--channels", "accx_FJ,bmx",
                "--config", config, "--out", out]) == 0
    assert CnnClassifier.load(out / "cnn_model").in_channels == 2


def test_cnn_trained_on_channels_evaluates_and_plots(data_dir, tmp_path, capsys):
    # evaluate and emit-plots cut the windows to the channels of the run,
    # as recorded in the config.json beside the model
    out = tmp_path / "cnn_channels"
    assert run(["train", "cnn", "--data", data_dir, "--channels", "accx_FJ,bmx",
                "--epochs", "1", "--out", out]) == 0
    assert run(["evaluate", "--model", out / "cnn_model", "--data", data_dir,
                "--out", tmp_path / "eval.csv"]) == 0
    plots = tmp_path / "plots"
    assert run(["emit-plots", "--cnn-model", out / "cnn_model", "--data", data_dir,
                "--out", plots]) == 0
    assert len((plots / "cnn_embedding.csv").read_text().splitlines()) == 1 + 20
    # without its run's config.json a CNN cannot know its windows
    (out / "config.json").unlink()
    capsys.readouterr()
    assert run(["evaluate", "--model", out / "cnn_model", "--data", data_dir]) == 3
    assert "config.json" in capsys.readouterr().err


def test_evaluate_and_plots_cut_the_trained_window_length(data_dir, tmp_path,
                                                          monkeypatch):
    out = tmp_path / "cnn58"
    assert run(["train", "cnn", "--data", data_dir, "--window-seconds", "58",
                "--epochs", "1", "--out", out]) == 0
    lengths = []
    forward = CnnClassifier.forward

    def spy(self, X):
        lengths.append(np.shape(X)[-1])
        return forward(self, X)

    monkeypatch.setattr(CnnClassifier, "forward", spy)
    assert run(["evaluate", "--model", out / "cnn_model", "--data", data_dir]) == 0
    assert run(["emit-plots", "--cnn-model", out / "cnn_model", "--data", data_dir,
                "--out", tmp_path / "plots"]) == 0
    assert lengths == [290, 290]
    # the window length is the run's, so no flag can set another one
    for argv in (["evaluate", "--model", out / "cnn_model"],
                 ["emit-plots", "--cnn-model", out / "cnn_model"]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--data", data_dir, "--window-seconds", "60",
                 "--out", tmp_path / "x"])
        assert exc.value.code == 2


def test_transform_channels_are_the_named_columns_of_each_window(data_dir, tmp_path):
    out = tmp_path / "bm.csv"
    assert run(["transform", "--in", data_dir, "--transform", "cov",
                "--channels", "bmx,bmy", "--out", out]) == 0
    series_set = dataset.load_series_set(data_dir)
    idx = [series_set.channel_names.index(c) for c in ("bmx", "bmy")]
    segments = [replace(s, samples=s.samples[:, idx])
                for s in dataset.window(series_set, 60.0)]
    expected = tmp_path / "expected.csv"
    transform_segments(segments, "cov", ("bmx", "bmy")).to_csv(expected)
    assert out.read_bytes() == expected.read_bytes()


def test_empty_csv_inputs_are_data_errors(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["pca", "--in", empty, "--pcs", "2", "--out", tmp_path / "p.json"]) == 3
    assert run(["emit-plots", "--lines", empty, "--out", tmp_path / "plots"]) == 3
    assert capsys.readouterr().err.count(f"{empty}: empty file") == 2


def test_header_only_feature_csv_is_refused_by_name(tmp_path, capsys):
    # a header with no rows reads as a (0, d) matrix, which each consumer
    # refuses in its own words
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("a,b,label\n")
    assert run(["emit-plots", "--features", header_only, "--out", tmp_path / "plots"]) == 3
    assert "empty feature matrix" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()
    assert run(["pca", "--in", header_only, "--pcs", "1", "--out", tmp_path / "p.json"]) == 3
    assert "PCA needs at least 2 rows" in capsys.readouterr().err


def test_emit_plots(data_dir, tmp_path):
    features = tmp_path / "f.csv"
    run(["transform", "--in", data_dir, "--transform", "std", "--out", features])
    out = tmp_path / "plots"
    code = run(["emit-plots", "--features", features, "--out", out])
    assert code == 0
    assert len(list(out.glob("pair_*.csv"))) == 15
    assert len(list(out.glob("marginal_*.csv"))) == 6


def test_emit_plots_other_bundles(data_dir, tmp_path):
    features = tmp_path / "f.csv"
    run(["transform", "--in", data_dir, "--transform", "cov", "--out", features])
    pca_model = tmp_path / "pca.json"
    run(["pca", "--in", features, "--pcs", "3", "--out", pca_model])
    bl_dir = tmp_path / "bl"
    run(["generate", "--n-per-class", "1", "--len", "3601", "--seed", "2",
         "--out", bl_dir])
    lines_csv = tmp_path / "lines.csv"
    run(["baseline", "--x", "accx_FJ", "--y", "bmx", "--in",
         bl_dir / "series_0000.csv", "--out", lines_csv])
    cnn_dir = tmp_path / "cnn_for_plots"
    run(["train", "cnn", "--data", data_dir, "--epochs", "1", "--out", cnn_dir])
    out = tmp_path / "bundles"
    code = run(["emit-plots", "--pca-model", pca_model, "--lines", lines_csv,
                "--cnn-model", cnn_dir / "cnn_model", "--data", data_dir, "--out", out])
    assert code == 0
    ratios = (out / "pca_ratios.csv").read_text().splitlines()
    assert ratios[0] == "component,ratio,cumulative"
    assert len(ratios) == 22  # full 21-feature spectrum
    assert (out / "baseline_cloud.csv").exists()
    embedding = (out / "cnn_embedding.csv").read_text().splitlines()
    assert embedding[0] == "x1,x2,label"


def test_exit_codes(tmp_path, data_dir):
    # config error: pcs out of range for the transform
    assert run(["train", "logreg", "--data", data_dir, "--transform", "std",
                "--pcs", "9", "--out", tmp_path / "x"]) == 2
    # data error: missing input directory
    assert run(["train", "logreg", "--data", tmp_path / "missing",
                "--out", tmp_path / "y"]) == 3
    # training failure: SVM cannot converge in one pass
    assert run(["train", "svm", "--data", data_dir, "--kernel", "rbf",
                "--out", tmp_path / "z", "--config",
                _svm_budget_config(tmp_path)]) == 4
    # emit-plots without inputs is a config error
    assert run(["emit-plots", "--out", tmp_path / "plots"]) == 2


def test_emit_plots_cnn_model_needs_data(tmp_path, capsys):
    assert run(["emit-plots", "--cnn-model", tmp_path / "cnn_model",
                "--out", tmp_path / "plots"]) == 2
    assert "--cnn-model needs --data" in capsys.readouterr().err


def _svm_budget_config(tmp_path):
    path = tmp_path / "svm_budget.json"
    path.write_text(json.dumps({"method_params": {"max_passes": 1}}))
    return path


def test_no_writes_outside_out_dir(data_dir, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "sandboxed"
    assert run(["train", "logreg", "--data", data_dir, "--pcs", "2",
                "--out", out]) == 0
    assert list(workdir.iterdir()) == []


def _config_file(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def _written_config(out):
    return json.loads((out / "config.json").read_text())


def test_typed_flags_override_config_file(data_dir, tmp_path):
    config = _config_file(tmp_path, {"noise": 50, "seed": 5, "pcs": 3})
    out = tmp_path / "typed"
    assert run(["train", "logreg", "--data", data_dir, "--noise", "1",
                "--seed", "0", "--config", config, "--out", out]) == 0
    written = _written_config(out)
    # typed flags win, even at their default values; the rest comes from
    # the file
    assert (written["noise"], written["seed"], written["pcs"]) == (1, 0, 3)


def test_pre_prune_grid_follows_config_transform(data_dir, tmp_path, monkeypatch):
    searched = {}

    def spy(X, y, criterion, grid, k_folds, seed=0):
        searched.update(X=X, criterion=criterion,
                        grid={name: list(values) for name, values in grid.items()})
        return grid_search(X, y, criterion, grid, k_folds, seed=seed)

    monkeypatch.setattr(cli, "grid_search", spy)
    config = _config_file(tmp_path, {"transform": "std",
                                     "method_params": {"criterion": "entropy"}})
    out = tmp_path / "o"
    assert run(["train", "dtree", "--data", data_dir, "--prune", "pre",
                "--k-folds", "2", "--config", config, "--out", out]) == 0
    X, y = _train_features(PipelineConfig.from_json((out / "config.json").read_text()),
                           data_dir)
    assert X.shape[1] == 6 and np.array_equal(searched.pop("X"), X)
    assert searched == {"criterion": "entropy", "grid": _derived_grid(X, y, "entropy")}


def test_config_file_with_a_syntax_error_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"seed": 1,')
    assert run(["train", "logreg", "--config", config, "--out", tmp_path / "o"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def _series_dir(path, m):
    """A generated series set of m channels, the classes differing in scale."""
    cov = np.eye(m)
    dataset.save_series_set(dataset.generate(dataset.GeneratorConfig(
        n_series_per_class=2, class_cov=(cov, 2.0 * cov), series_len=1501,
        channel_names=tuple(f"ch{i}" for i in range(m)),
    )), path)
    return path


def test_pcs_is_bounded_by_the_features_of_the_data_channels(tmp_path, capsys):
    # std has m features and cov m(m+1)/2, counted on the channels of the
    # data; a pcs above them is a config error before any fit
    wide, narrow = _series_dir(tmp_path / "wide", 8), _series_dir(tmp_path / "narrow", 2)
    assert run(["train", "logreg", "--data", wide, "--transform", "std", "--pcs", "7",
                "--out", tmp_path / "wide_std"]) == 0
    refused = [
        ["train", "logreg", "--data", narrow, "--pcs", "4"],
        ["train", "logreg", *COMMON, "--transform", "std", "--pcs", "7"],
        ["train", "logreg", *COMMON, "--pcs", "22"],
        ["compare", "--data", narrow, "--transform", "std", "--pcs", "3"],
    ]
    for argv in refused:
        assert run([*argv, "--out", tmp_path / "refused"]) == 2
        assert "pcs must lie in" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def test_keyed_config_params_merge_with_method_flags(data_dir, tmp_path):
    config = _config_file(tmp_path, {"method_params": {
        "cnn": {"epochs": 1, "learning_rate": 1e-3}, "svm": {"C": 5.0}}})
    out = tmp_path / "cnn"
    assert run(["train", "cnn", "--data", data_dir, "--batch-size", "10",
                "--learning-rate", "2e-3", "--config", config, "--out", out]) == 0
    # config.json records the given settings only, flat for the trained method
    assert _written_config(out)["method_params"] == {
        "epochs": 1, "learning_rate": 2e-3, "batch_size": 10}


@pytest.mark.parametrize("argv", [
    ["train", "logreg"], ["train", "cnn", "--epochs", "1"], ["compare"],
])
def test_unknown_method_param_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr(dataset, "generate", no_data)
    config = _config_file(tmp_path, {"method_params": {"foo": 1}})
    assert run([*argv, "--config", config, "--out", tmp_path / "o"]) == 2
    assert "foo" in capsys.readouterr().err
    keyed = _config_file(tmp_path, {"method_params": {"cnn": {"foo": 1}}})
    assert run(["train", "cnn", "--config", keyed, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("flags", [
    ["--kernel", "linear"], ["--epochs", "7"], ["--criterion", "entropy"],
])
def test_flag_of_another_method_exits_2(flags, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["train", "logreg", *flags, "--out", tmp_path / "o"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flag_names_are_exact(tmp_path, capsys):
    # a prefix of a flag is not the flag, so a renamed flag cannot pass
    # test_readme_usage_parses by prefix
    with pytest.raises(SystemExit) as exc:
        run(["train", "dtree", "--ccp", "0.01", "--out", tmp_path / "o"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ccp" in capsys.readouterr().err
    args = cli.build_parser().parse_args(
        ["train", "dtree", "--ccp-alpha", "0.01", "--out", "o"])
    assert args.ccp_alpha == 0.01


def _refuse_data_loading(monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before the config was checked")

    monkeypatch.setattr(dataset, "load_series_set", no_data)


@pytest.mark.parametrize("given, key", [
    (["--max-depth", "9"], "max_depth"),
    ({"method_params": {"min_samples_leaf": 2}}, "min_samples_leaf"),
])
def test_pre_prune_refuses_a_given_grid_setting(given, key, data_dir, tmp_path,
                                                monkeypatch, capsys):
    _refuse_data_loading(monkeypatch)
    if isinstance(given, dict):
        given = ["--config", _config_file(tmp_path, given)]
    out = tmp_path / "o"
    assert run(["train", "dtree", "--data", data_dir, "--prune", "pre",
                "--k-folds", "2", *given, "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("given, key", [
    (["--batch-size", "10"], "batch_size"),
    ({"method_params": {"learning_rate": 1e-3}}, "learning_rate"),
    ({"method_params": {"seed": 3}}, "seed"),
])
def test_trials_refuse_a_given_searched_setting(given, key, data_dir, tmp_path,
                                                monkeypatch, capsys):
    _refuse_data_loading(monkeypatch)
    if isinstance(given, dict):
        given = ["--config", _config_file(tmp_path, given)]
    out = tmp_path / "o"
    assert run(["train", "cnn", "--data", data_dir, "--trials", "1",
                "--epochs", "1", *given, "--out", out]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("prune", ["pre", "post"])
def test_prune_refuses_a_given_ccp_alpha(prune, tmp_path, monkeypatch, capsys):
    # both prunings tune the alpha: --prune pre scores truncations of
    # unpruned trees, and --prune post chooses ccp_alpha itself
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr(dataset, "generate", no_data)
    out = tmp_path / "o"
    assert run(["train", "dtree", *COMMON, "--prune", prune, "--ccp-alpha", "0.01",
                "--out", out]) == 2
    assert "ccp_alpha" in capsys.readouterr().err
    assert not out.exists()


def _record_cnn_fits(monkeypatch):
    """The (in_channels, embedding_dim) of every CnnClassifier fit."""
    fits = []
    fit = CnnClassifier.fit

    def recorded(self, X, y, *args, **kwargs):
        fits.append((self.in_channels, self.embedding_dim))
        return fit(self, X, y, *args, **kwargs)

    monkeypatch.setattr(CnnClassifier, "fit", recorded)
    return fits


def test_trials_train_on_the_channels_of_the_run(data_dir, tmp_path, monkeypatch):
    fits = _record_cnn_fits(monkeypatch)
    out = tmp_path / "bm"
    assert run(["train", "cnn", "--data", data_dir, "--channels", "bmx,bmy",
                "--trials", "2", "--epochs", "1", "--out", out]) == 0
    # two trials, then the final fit
    assert fits == [(2, 2)] * 3
    assert len((out / "trials.jsonl").read_text().splitlines()) == 2


def test_trials_keep_the_settings_they_do_not_search(data_dir, tmp_path, monkeypatch):
    fits = _record_cnn_fits(monkeypatch)
    config = _config_file(tmp_path, {"method_params": {"embedding_dim": 3}})
    assert run(["train", "cnn", "--data", data_dir, "--trials", "2", "--epochs", "1",
                "--config", config, "--out", tmp_path / "o"]) == 0
    assert fits == [(6, 3)] * 3


@pytest.mark.parametrize("argv", [
    ["train", "dtree", "--prune", "pre"],
    ["train", "dtree", "--prune", "post"],
    ["train", "cnn", "--trials", "1", "--epochs", "1"],
])
def test_too_few_folds_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr(dataset, "generate", no_data)
    out = tmp_path / "o"
    assert run([*argv, *COMMON, "--k-folds", "1", "--out", out]) == 2
    assert "--k-folds must be >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--channels", "bmx,nosuch"],
    ["train", "logreg", "--channels", "bmx,nosuch"],
    ["train", "svm", "--C", "-1"],
    ["train", "dtree", "--ccp-alpha", "-1"],
    ["compare", "--config", {"method_params": {"svm": {"C": -1}}}],
])
def test_a_failed_run_leaves_no_out_dir(argv, data_dir, tmp_path, capsys):
    argv = [_config_file(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    out = tmp_path / "o"
    assert run([*argv, "--data", data_dir, "--out", out]) == 3
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tuning", [[], ["--trials", "1"]])
def test_zero_epochs_is_a_data_error(tuning, data_dir, tmp_path, capsys):
    assert run(["train", "cnn", "--data", data_dir, "--epochs", "0", *tuning,
                "--out", tmp_path / "o"]) == 3
    err = capsys.readouterr().err
    assert "epochs must be >= 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, field", [
    (["--n-per-class", "0"], "n_series_per_class"),
    (["--len", "1"], "series_len"),
    (["--window-seconds", "0"], "window_seconds"),
    (["--channels", "bmx,accx_FJ,bmx"], "channels"),
])
def test_bad_data_settings_are_config_errors(flags, field, tmp_path, monkeypatch,
                                             capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr(dataset, "generate", no_data)
    assert run(["compare", *flags, "--out", tmp_path / "o"]) == 2
    assert field in capsys.readouterr().err


def test_method_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit):
        run(["train", "svm", "--help"])
    usage = capsys.readouterr().out
    assert "--kernel" in usage and "--pcs" in usage
    for other in ("--epochs", "--criterion", "--reg-strength", "--trials"):
        assert other not in usage


def test_train_cnn_matches_run_pipeline(tmp_path):
    # `train cnn` and run_pipeline build the CNN from one set of defaults;
    # 48 train windows, so a batch of 30 and one of 50 train differently
    data = tmp_path / "data"
    assert run(["generate", "--n-per-class", "2", "--len", "4501",
                "--out", data]) == 0
    out = tmp_path / "cli"
    assert run(["train", "cnn", "--data", data, "--epochs", "1",
                "--out", out]) == 0
    cfg = PipelineConfig(method="cnn", method_params={"epochs": 1})
    run_pipeline(cfg, tmp_path / "lib", dataset.load_series_set(data))
    for name in ("cnn_model.bin", "cnn_model.json", "cnn_channels.json",
                 "config.json"):
        assert (out / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in commands if line.startswith("wellmon ")]


def test_readme_usage_parses():
    commands = _readme_commands()
    assert len(commands) >= 12
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
