import json
import warnings

import numpy as np
import pytest
from conftest import make_segment, random_segments

from wellmon.cnn import CnnClassifier
from wellmon.dataset import generate, preset_config, window
from wellmon.logreg import LogisticRegression
from wellmon.pca import PCA
from wellmon.pipeline import (
    ClassicalPipeline,
    CnnPipeline,
    ConfigError,
    PipelineConfig,
    build_pipeline,
    emit_cnn_embedding,
    emit_feature_scatter,
    emit_pca_ratios,
    prepare_segments,
    run_compare,
    run_pipeline,
    subset_channels,
)
from wellmon.transforms import FeatureMatrix, Standardizer, transform_segments


def tiny_config(**kwargs):
    defaults = dict(
        method="logreg",
        transform="cov",
        pcs=4,
        noise=1,
        seed=0,
        n_series_per_class=2,
        series_len=1501,  # 5 windows per series at the default 60 s window
        method_params={},
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    cfg = tiny_config(channels=("accx_FJ", "accx_DAS", "bmx"), pcs=3)
    assert PipelineConfig.from_json(cfg.to_json()) == cfg


def test_config_validation():
    with pytest.raises(ConfigError, match="method"):
        tiny_config(method="forest").validate()
    with pytest.raises(ConfigError, match="transform"):
        tiny_config(transform="fft").validate()
    with pytest.raises(ConfigError, match="noise"):
        tiny_config(noise=2).validate()
    with pytest.raises(ConfigError, match="pcs"):
        tiny_config(pcs=22).validate()  # cov has 21 features
    with pytest.raises(ConfigError, match="pcs"):
        tiny_config(transform="std", pcs=7).validate()
    tiny_config(pcs=21).validate()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config"):
        PipelineConfig.from_json('{"method": "svm", "kernel": "rbf"}')


def test_config_rejects_unknown_method_params():
    # flat params belong to cfg.method; keyed params to the method they name
    with pytest.raises(ConfigError, match=r"unknown logreg parameter\(s\) \['foo'\]"):
        tiny_config(method_params={"foo": 1}).validate()
    with pytest.raises(ConfigError, match=r"unknown logreg parameter\(s\) \['epochs'\]"):
        tiny_config(method_params={"epochs": 1}).validate()
    with pytest.raises(ConfigError, match=r"unknown svm parameter\(s\) \['epochs'\]"):
        tiny_config(method_params={"cnn": {"epochs": 1}, "svm": {"epochs": 1}}).validate()
    with pytest.raises(ConfigError, match=r"unknown svm parameter\(s\) \['seed'\]"):
        tiny_config(method="svm", method_params={"seed": 3}).validate()
    with pytest.raises(ConfigError, match="method_params of cnn"):
        tiny_config(method_params={"cnn": 5}).validate()
    tiny_config(method="cnn", method_params={"epochs": 1, "seed": 3}).validate()
    tiny_config(method_params={"cnn": {"epochs": 1}, "svm": {"C": 2.0}}).validate()


def test_params_for_flat_and_keyed():
    flat = tiny_config(method="svm", method_params={"C": 2.0})
    assert flat.params_for("svm") == {"C": 2.0}
    assert flat.params_for("logreg") == {}
    keyed = tiny_config(method_params={"cnn": {"epochs": 1}})
    assert keyed.params_for("cnn") == {"epochs": 1}
    assert keyed.params_for("logreg") == {}


@pytest.mark.parametrize("run", [run_pipeline, run_compare])
def test_unknown_method_param_fails_before_data(run, tmp_path, monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data generated before the config was checked")

    monkeypatch.setattr("wellmon.dataset.generate", no_data)
    with pytest.raises(ConfigError, match="foo"):
        run(tiny_config(method_params={"foo": 1}), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cnn_defaults_live_in_the_constructor():
    # build_pipeline adds only the config's seed; a seed in method_params wins
    estimator = build_pipeline(tiny_config(method="cnn", seed=4)).estimator
    assert estimator.get_params() == CnnClassifier(seed=4).get_params()
    assert (estimator.epochs, estimator.learning_rate, estimator.batch_size) == (
        30, 5e-3, 50)
    keyed = tiny_config(seed=4, method_params={"cnn": {"seed": 9}})
    assert build_pipeline(keyed, "cnn").estimator.seed == 9


def test_config_hash_stable():
    assert tiny_config().hash() == tiny_config().hash()
    assert tiny_config().hash() != tiny_config(seed=1).hash()


# ---------------------------------------------------------------------------
# segment preparation
# ---------------------------------------------------------------------------

def test_prepare_segments_counts():
    train, test, names = prepare_segments(tiny_config())
    assert len(train) + len(test) == 4 * 5
    assert names == ("accx_FJ", "accy_FJ", "accx_DAS", "accy_DAS", "bmx", "bmy")


def test_subset_channels():
    train, test, names = prepare_segments(
        tiny_config(channels=("accx_FJ", "accx_DAS", "bmx"), pcs=3)
    )
    assert names == ("accx_FJ", "accx_DAS", "bmx")
    assert train[0].samples.shape[1] == 3


def test_subset_channels_unknown():
    segments = window(generate(preset_config("slack", 1, series_len=1501)), 60.0)
    with pytest.raises(Exception, match="unknown channel"):
        subset_channels(segments, ("a", "b"), ("nope",))


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def test_classical_pipeline_fit_predict():
    cfg = tiny_config()
    train, test, names = prepare_segments(cfg)
    pipeline = build_pipeline(cfg, channel_names=names)
    assert isinstance(pipeline, ClassicalPipeline)
    pipeline.fit(train)
    pred = pipeline.predict(test)
    assert pred.shape == (len(test),)
    assert set(np.unique(pred)) <= {0, 1}
    projected = pipeline.project(test)
    assert projected.n_features == 4
    assert projected.feature_names == ("PC1", "PC2", "PC3", "PC4")


@pytest.mark.parametrize("transform", ["std", "cov"])
@pytest.mark.parametrize("method", ["logreg", "dtree", "svm"])
def test_classical_predict_rejects_non_finite_samples(rng, method, transform):
    # a NaN or inf sample in any window of a batch, inside the first chunk
    # or a later one, fails loudly instead of becoming a feature row
    segments = random_segments(rng, 40, separated=True)
    for pcs in (None, 3):
        cfg = PipelineConfig(method=method, transform=transform, pcs=pcs)
        pipeline = build_pipeline(cfg).fit(segments)
        expected = pipeline.estimator.predict(pipeline.project(segments).values)
        assert np.array_equal(pipeline.predict(segments), expected)
        for bad in (np.nan, np.inf, -np.inf):
            for index in (0, 35):
                windows = [make_segment(s.samples.copy()) for s in segments]
                windows[index].samples[7, 2] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    pipeline.predict(windows)
                with pytest.raises(ValueError, match="non-finite"):
                    pipeline.predict([windows[index]])


def test_cnn_pipeline_fit_predict():
    cfg = tiny_config(method="cnn", method_params={"epochs": 2, "learning_rate": 1e-3})
    train, test, _ = prepare_segments(cfg)
    pipeline = build_pipeline(cfg)
    assert isinstance(pipeline, CnnPipeline)
    pipeline.fit(train)
    pred = pipeline.predict(test)
    assert pred.shape == (len(test),)
    embedding = pipeline.embed(test)
    assert embedding.shape == (len(test), 2)


def test_run_pipeline_persists_artifacts(tmp_path):
    cfg = tiny_config()
    reports, pipeline = run_pipeline(cfg, tmp_path / "out")
    out = tmp_path / "out"
    assert (out / "report.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "logreg_model.json").exists()
    assert (out / "logreg_scaler.json").exists()
    assert (out / "logreg_pca.json").exists()
    train_features = FeatureMatrix.from_csv(out / "logreg_train_features.csv")
    assert train_features.n_features == 4
    assert len(reports) == 1
    assert cfg.hash() in reports[0].config


def test_run_pipeline_deterministic_modulo_timing(tmp_path):
    cfg = tiny_config()
    run_pipeline(cfg, tmp_path / "a")
    run_pipeline(cfg, tmp_path / "b")
    for name in (
        "logreg_model.json",
        "logreg_scaler.json",
        "logreg_pca.json",
        "logreg_train_features.csv",
        "logreg_test_features.csv",
        "config.json",
    ):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
    report_a = _report_without_timing(tmp_path / "a" / "report.csv")
    report_b = _report_without_timing(tmp_path / "b" / "report.csv")
    assert report_a == report_b


def _report_without_timing(path):
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if name not in ("train_ms", "test_ms")]
    return [[row[i] for i in keep] for row in rows]


def test_run_compare_all_methods(tmp_path):
    cfg = tiny_config(
        method_params={"cnn": {"epochs": 2, "learning_rate": 1e-3}},
    )
    reports, pipelines = run_compare(cfg, tmp_path / "cmp")
    assert [r.method for r in reports] == ["logreg", "dtree", "svm", "cnn"]
    table = (tmp_path / "cmp" / "report.txt").read_text()
    assert "logreg" in table and "cnn" in table
    assert (tmp_path / "cmp" / "cnn_model.bin").exists()
    assert (tmp_path / "cmp" / "svm_model.json").exists()


# ---------------------------------------------------------------------------
# one standardizer
# ---------------------------------------------------------------------------

def test_pca_pipeline_normalizes_once_through_pca():
    cfg = tiny_config(pcs=4)
    train, test, names = prepare_segments(cfg)
    pipeline = build_pipeline(cfg, channel_names=names)
    pipeline.fit(train)
    pca = PCA(4).fit(transform_segments(train, "cov", names))
    expected = pca.transform(transform_segments(test, "cov", names))
    projected = pipeline.project(test)
    assert projected.feature_names == expected.feature_names
    assert np.array_equal(projected.values, expected.values)
    assert pipeline.scaler_ is pipeline.pca_.scaler_


def test_scaler_file_is_the_fit_on_the_train_features(tmp_path):
    cfg = tiny_config(pcs=4)
    run_pipeline(cfg, tmp_path / "out")
    train, _, names = prepare_segments(cfg)
    Standardizer().fit(transform_segments(train, "cov", names)).save(
        tmp_path / "expected.json"
    )
    scaler_file = tmp_path / "out" / "logreg_scaler.json"
    assert scaler_file.read_bytes() == (tmp_path / "expected.json").read_bytes()
    scaler = json.loads(scaler_file.read_text())
    pca = json.loads((tmp_path / "out" / "logreg_pca.json").read_text())
    assert (scaler["mean"], scaler["std"]) == (pca["mean"], pca["std"])


@pytest.mark.parametrize("pcs", [None, 2])
def test_constant_feature_warns_once_per_fit(pcs, rng):
    segments = random_segments(rng, 20, m=3)
    for segment in segments:
        segment.samples[:, 1] = 2.0
    pipeline = ClassicalPipeline("logreg", "std", pcs, LogisticRegression())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.fit(segments)
    constant = [w for w in caught if "constant column" in str(w.message)]
    assert len(constant) == 1


def test_cnn_channel_statistics_match_the_stacked_windows():
    cfg = tiny_config(method="cnn")
    train, _, _ = prepare_segments(cfg)
    pipeline = build_pipeline(cfg)
    pipeline.fit_project(train)
    X = CnnPipeline._to_array(train)
    assert np.array_equal(pipeline.scaler_.mean_, X.mean(axis=(0, 2)))
    assert np.array_equal(pipeline.scaler_.std_, X.std(axis=(0, 2)))


def test_cnn_channels_file_without_kind_loads(tmp_path):
    cfg = tiny_config(method="cnn", method_params={"epochs": 1, "learning_rate": 1e-3})
    train, test, _ = prepare_segments(cfg)
    pipeline = build_pipeline(cfg).fit(train)
    pipeline.save(tmp_path, "cnn")
    path = tmp_path / "cnn_channels.json"
    payload = json.loads(path.read_text())
    assert payload.pop("kind") == "standardizer"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    loaded = CnnPipeline.load(tmp_path, "cnn")
    assert np.array_equal(loaded.scaler_.mean_, pipeline.scaler_.mean_)
    assert np.array_equal(loaded.scaler_.std_, pipeline.scaler_.std_)
    assert np.array_equal(loaded.predict(test), pipeline.predict(test))


# ---------------------------------------------------------------------------
# plot bundles
# ---------------------------------------------------------------------------

def test_emit_feature_scatter_counts(tmp_path, rng):
    fm = FeatureMatrix(
        rng.standard_normal((10, 6)),
        tuple(f"f{i}" for i in range(6)),
        [0, 1] * 5,
    )
    written = emit_feature_scatter(fm, tmp_path / "plots")
    pair_files = [p for p in written if p.name.startswith("pair_")]
    marginal_files = [p for p in written if p.name.startswith("marginal_")]
    assert len(pair_files) == 15  # C(6, 2)
    assert len(marginal_files) == 6
    first = (tmp_path / "plots" / "pair_00_01.csv").read_text().splitlines()
    assert first[0] == "f0,f1,label"
    assert len(first) == 11


def test_emit_pca_ratios(tmp_path, rng):
    model = PCA(2).fit(rng.standard_normal((30, 5)))
    path = tmp_path / "ratios.csv"
    emit_pca_ratios(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "component,ratio,cumulative"
    assert len(lines) == 6  # full spectrum, one row per component
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)


def test_emit_cnn_embedding(tmp_path):
    cfg = tiny_config(method="cnn", method_params={"epochs": 1, "learning_rate": 1e-3})
    train, test, _ = prepare_segments(cfg)
    pipeline = build_pipeline(cfg).fit(train)
    path = tmp_path / "embedding.csv"
    emit_cnn_embedding(pipeline, test, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,label"
    assert len(lines) == len(test) + 1
    # the float32 embedding is written as %.17g and reads back exactly
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, :2], pipeline.embed(test))
