import csv
import json
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from wellmon import cli, dataset
from wellmon.cli import main
from wellmon.cnn import CnnClassifier, random_search
from wellmon.dtree import PRE_PRUNING_GRIDS, grid_search
from wellmon.pipeline import (
    PipelineConfig, build_pipeline, prepare_segments, run_pipeline,
)
from wellmon.transforms import transform_segments
from wellmon.validation import stratified_kfold_indices

COMMON = ["--n-per-class", "2", "--len", "1501", "--seed", "0"]


def run(argv):
    return main([str(a) for a in argv])


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
    projected = tmp_path / "projected.csv"
    code = run(["pca", "--in", features, "--pcs", "4", "--out", model,
                "--apply", projected])
    assert code == 0
    payload = json.loads(model.read_text())
    assert payload["d"] == 4
    assert len(payload["eigenvalues"]) == 21
    assert projected.read_text().splitlines()[0] == "PC1,PC2,PC3,PC4,label"


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
                "--prune", "post", "--ccp-alpha", "0.01", "--out", out])
    assert code == 0
    payload = json.loads((out / "dtree_model.json").read_text())
    assert payload["criterion"] == "entropy"


def test_train_dtree_pre_prune(data_dir, tmp_path):
    out = tmp_path / "dtree_pre"
    code = run(["train", "dtree", "--data", data_dir, "--criterion", "gini",
                "--prune", "pre", "--transform", "std", "--k-folds", "2",
                "--out", out])
    assert code == 0
    assert (out / "dtree_model.json").exists()
    # the recorded parameters are the grid search's pick on the projected
    # train features of the split the final model reports on
    cfg = PipelineConfig.from_json((out / "config.json").read_text())
    train, _, channel_names = prepare_segments(cfg, dataset.load_series_set(data_dir))
    features = build_pipeline(cfg, channel_names=channel_names).fit_project(train)
    best, _ = grid_search(features.values, features.labels, "gini",
                          PRE_PRUNING_GRIDS[("std", "gini")], 2, seed=0)
    assert cfg.method_params == {"criterion": "gini", **best}


def test_train_svm(data_dir, tmp_path):
    out = tmp_path / "svm"
    code = run(["train", "svm", "--data", data_dir, "--kernel", "linear",
                "--C", "1.0", "--pcs", "3", "--out", out])
    assert code == 0
    payload = json.loads((out / "svm_model.json").read_text())
    assert payload["kernel"] == "linear"
    assert "w" in payload


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

    def spy(space, X_fit, y_fit, X_val, y_val, **kwargs):
        searched.update(X_val=X_val, y_val=y_val)
        return random_search(space, X_fit, y_fit, X_val, y_val, **kwargs)

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


@pytest.mark.parametrize("argv", [
    ["dtree", "--prune", "pre", "--k-folds", "2"],
    ["cnn", "--trials", "1", "--epochs", "1"],
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
    code = run(["evaluate", "--model", out / "logreg_model.json",
                "--features", out / "logreg_test_features.csv",
                "--out", tmp_path / "eval.csv"])
    assert code == 0
    rows = (tmp_path / "eval.csv").read_text().splitlines()
    assert len(rows) == 2


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
        searched.update(n_features=X.shape[1], grid=grid, criterion=criterion)
        return grid_search(X, y, criterion, grid, k_folds, seed=seed)

    monkeypatch.setattr(cli, "grid_search", spy)
    config = _config_file(tmp_path, {"transform": "std",
                                     "method_params": {"criterion": "entropy"}})
    assert run(["train", "dtree", "--data", data_dir, "--prune", "pre",
                "--k-folds", "2", "--config", config, "--out", tmp_path / "o"]) == 0
    assert searched == {"n_features": 6, "criterion": "entropy",
                        "grid": PRE_PRUNING_GRIDS[("std", "entropy")]}


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


def test_evaluate_rejects_cnn_model_on_features(data_dir, tmp_path):
    out = tmp_path / "cnn_feat"
    assert run(["train", "cnn", "--data", data_dir, "--epochs", "1",
                "--out", out]) == 0
    features = tmp_path / "f.csv"
    run(["transform", "--in", data_dir, "--out", features])
    assert run(["evaluate", "--model", out / "cnn_model.json",
                "--features", features]) == 3


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
