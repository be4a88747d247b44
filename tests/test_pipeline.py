import json

import numpy as np
import pytest

from wellmon.dataset import generate, preset_config, window
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
from wellmon.transforms import FeatureMatrix


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
