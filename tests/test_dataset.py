import json

import numpy as np
import pytest

from wellmon.dataset import (
    DEFAULT_CHANNELS,
    GeneratorConfig,
    Label,
    LabeledSeriesSet,
    MultivariateSeries,
    generate,
    load_series_set,
    preset_config,
    save_series_set,
    split,
    window,
)


def small_config(**kwargs):
    cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.4], [0.3, 0.4, 1.0]])
    broken = cov.copy()
    broken[2, 2] = 2.0
    defaults = dict(
        n_series_per_class=2,
        class_cov=(cov, broken),
        series_len=400,
        sample_rate_hz=5.0,
        temporal_ar_coeff=0.5,
        noise_level=1,
        base_noise_std=np.full(3, 0.01),
        channel_names=("a", "b", "c"),
        seed=7,
    )
    defaults.update(kwargs)
    return GeneratorConfig(**defaults)


def constant_series(n=18001, m=6, value=0.0, rate=5.0):
    return MultivariateSeries(
        np.full((n, m), value), rate, tuple(f"c{i}" for i in range(m))
    )


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_series_invariants():
    with pytest.raises(ValueError):
        MultivariateSeries(np.zeros((1, 3)), 5.0, ("a", "b", "c"))
    with pytest.raises(ValueError):
        MultivariateSeries(np.full((4, 2), np.nan), 5.0, ("a", "b"))
    with pytest.raises(ValueError):
        MultivariateSeries(np.zeros((4, 2)), -1.0, ("a", "b"))
    with pytest.raises(ValueError):
        MultivariateSeries(np.zeros((4, 2)), 5.0, ("a",))


def test_default_channels():
    assert DEFAULT_CHANNELS == (
        "accx_FJ", "accy_FJ", "accx_DAS", "accy_DAS", "bmx", "bmy",
    )


def test_series_set_requires_consistency():
    a = constant_series(n=10, m=2)
    b = MultivariateSeries(np.zeros((10, 3)), 5.0, ("a", "b", "c"))
    with pytest.raises(ValueError):
        LabeledSeriesSet(((a, Label.INTACT), (b, Label.BROKEN)), 1, 0)


def test_config_rejects_indefinite_cov():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    cfg = GeneratorConfig(
        n_series_per_class=1,
        class_cov=(np.eye(2), bad),
        channel_names=("a", "b"),
        base_noise_std=np.zeros(2),
    )
    with pytest.raises(ValueError, match="eigenvalue"):
        cfg.validate()


def test_config_rejects_asymmetric_cov():
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    cfg = GeneratorConfig(
        n_series_per_class=1,
        class_cov=(bad, np.eye(2)),
        channel_names=("a", "b"),
    )
    with pytest.raises(ValueError, match="symmetric"):
        cfg.validate()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_default_hour_long_series():
    cfg = preset_config("slack", n_series_per_class=10, seed=3)
    out = generate(cfg)
    assert len(out) == 20
    for series, _ in out:
        assert series.samples.shape == (18001, 6)
    labels = out.labels()
    assert labels.sum() == 10


def test_generate_degenerate_all_zero():
    cfg = small_config(
        class_cov=(np.zeros((3, 3)), np.zeros((3, 3))),
        base_noise_std=np.zeros(3),
    )
    out = generate(cfg)
    for series, _ in out:
        assert np.all(series.samples == 0.0)


def test_generate_deterministic_bitwise():
    cfg = small_config()
    a = generate(cfg)
    b = generate(cfg)
    for (sa, la), (sb, lb) in zip(a, b):
        assert la == lb
        assert np.array_equal(sa.samples, sb.samples)


def test_generate_stationary_covariance_matches_target():
    # AR(1) with stationary covariance fixed per class: the pooled sample
    # covariance must reproduce class_cov entrywise within 5% relative error
    cfg = small_config(
        n_series_per_class=50,
        series_len=30000,
        temporal_ar_coeff=0.9,
        base_noise_std=np.zeros(3),
    )
    out = generate(cfg)
    for target_label, target_cov in ((0, cfg.class_cov[0]), (1, cfg.class_cov[1])):
        pooled = np.zeros((3, 3))
        count = 0
        for series, label in out:
            if int(label) == target_label:
                x = series.samples - series.samples.mean(axis=0)
                pooled += x.T @ x
                count += x.shape[0]
        empirical = pooled / count
        rel = np.abs(empirical - target_cov) / np.abs(target_cov)
        assert np.max(rel) < 0.05


def test_generate_white_noise_variance_when_ar_zero():
    cfg = small_config(
        n_series_per_class=1,
        series_len=30000,
        temporal_ar_coeff=0.0,
        base_noise_std=np.zeros(3),
    )
    out = generate(cfg)
    series, _ = out.items[0]
    variances = series.samples.var(axis=0)
    rel = np.abs(variances - np.diag(cfg.class_cov[0])) / np.diag(cfg.class_cov[0])
    assert np.max(rel) < 0.05


# ---------------------------------------------------------------------------
# window
# ---------------------------------------------------------------------------

def test_window_counts_hour_at_5hz():
    sset = LabeledSeriesSet(((constant_series(), Label.INTACT),), 1, 0)
    segments = window(sset, 60.0)
    # floor(18001 / 300) = 60 windows, one trailing sample dropped
    assert len(segments) == 60
    assert all(s.samples.shape == (300, 6) for s in segments)


def test_window_full_series_single_segment():
    sset = LabeledSeriesSet(((constant_series(n=500), Label.BROKEN),), 1, 0)
    segments = window(sset, 100.0)  # 500 samples at 5 Hz
    assert len(segments) == 1
    assert segments[0].label == Label.BROKEN


def test_window_mixed_fleet_count():
    items = tuple(
        (constant_series(), Label.INTACT if i < 54 else Label.BROKEN)
        for i in range(103)
    )
    sset = LabeledSeriesSet(items, 1, 0)
    segments = window(sset, 60.0)
    assert len(segments) == 103 * 60 == 6180


def test_window_too_long_errors():
    sset = LabeledSeriesSet(((constant_series(n=100), Label.INTACT),), 1, 0)
    with pytest.raises(ValueError, match="exceeds"):
        window(sset, 60.0)


def test_window_concatenation_reproduces_prefix(rng):
    samples = rng.standard_normal((250, 2))
    series = MultivariateSeries(samples, 1.0, ("a", "b"))
    sset = LabeledSeriesSet(((series, Label.INTACT),), 1, 0)
    segments = window(sset, 60.0)
    rebuilt = np.concatenate([s.samples for s in segments])
    assert np.array_equal(rebuilt, samples[: len(rebuilt)])
    assert [s.window_index for s in segments] == list(range(len(segments)))


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def _mixed_fleet_segments():
    items = tuple(
        (constant_series(n=301, m=1), Label.INTACT if i < 54 else Label.BROKEN)
        for i in range(103)
    )
    return window(LabeledSeriesSet(items, 1, 0), 60.0)


def test_split_fleet_counts():
    segments = _mixed_fleet_segments()
    assert len(segments) == 103  # one window each
    train, test = split(segments, 0.2, seed=1)
    assert len(train) == 82 and len(test) == 21


def test_split_6180_counts():
    segments = window(
        LabeledSeriesSet(
            tuple(
                (constant_series(n=302, m=1), Label(l))
                for l in ([0] * 54 + [1] * 49)
            ),
            1,
            0,
        ),
        60.0,
    )
    # build up to 6180 by windowing 103 series of 60 windows is heavy; here
    # simulate by repeating the 103 one-window segments 60 times
    segments = segments * 60
    assert len(segments) == 6180
    train, test = split(segments, 0.2, seed=0)
    assert len(train) == 4944 and len(test) == 1236


def test_split_two_segments_half():
    segments = _mixed_fleet_segments()[:1] + _mixed_fleet_segments()[-1:]
    assert {int(s.label) for s in segments} == {0, 1}
    train, test = split(segments, 0.5, seed=0)
    assert len(train) == 1 and len(test) == 1


def test_split_deterministic_and_partition():
    segments = _mixed_fleet_segments()
    train1, test1 = split(segments, 0.2, seed=42)
    train2, test2 = split(segments, 0.2, seed=42)
    assert [id(s) for s in train1] == [id(s) for s in train2]
    assert [id(s) for s in test1] == [id(s) for s in test2]
    ids = {id(s) for s in segments}
    assert {id(s) for s in train1} | {id(s) for s in test1} == ids
    assert {id(s) for s in train1} & {id(s) for s in test1} == set()


def test_split_stratified_proportions():
    segments = _mixed_fleet_segments()
    train, test = split(segments, 0.2, seed=9)
    test_broken = sum(int(s.label) for s in test)
    # 49 broken * 0.2 = 9.8 -> 9 or 10 after remainder assignment
    assert test_broken in (9, 10)


def test_split_rejects_bad_fraction_and_missing_class():
    segments = _mixed_fleet_segments()
    with pytest.raises(ValueError):
        split(segments, 0.0, seed=0)
    only_intact = [s for s in segments if s.label == Label.INTACT]
    with pytest.raises(ValueError, match="class 1"):
        split(only_intact, 0.2, seed=0)


# ---------------------------------------------------------------------------
# presets and disk format
# ---------------------------------------------------------------------------

def test_presets_valid_and_distinct():
    slack = preset_config("slack", n_series_per_class=1).validate()
    tight = preset_config("tight", n_series_per_class=1).validate()
    intact_s, broken_s = slack.class_cov
    # broken scales both bending-moment variances by 2.25
    assert broken_s[4, 4] == pytest.approx(2.25 * intact_s[4, 4])
    assert broken_s[5, 5] == pytest.approx(2.25 * intact_s[5, 5])
    # acc marginals untouched
    assert np.array_equal(broken_s[:4, :4], intact_s[:4, :4])
    assert slack.temporal_ar_coeff != tight.temporal_ar_coeff
    with pytest.raises(ValueError, match="preset"):
        preset_config("loose", n_series_per_class=1)


def test_tight_preset_separates_more_cleanly():
    # tight wellhead housing is the simpler classification problem
    from wellmon.logreg import LogisticRegression
    from wellmon.pca import PCA
    from wellmon.transforms import Standardizer, transform_segments

    accuracies = {}
    for preset in ("slack", "tight"):
        cfg = preset_config(preset, n_series_per_class=8, seed=0, series_len=6001)
        train, test = split(window(generate(cfg), 60.0), 0.2, seed=0)
        train_fm = transform_segments(train, "cov")
        test_fm = transform_segments(test, "cov")
        scaler = Standardizer().fit(train_fm)
        pca = PCA(4).fit(scaler.transform(train_fm))
        model = LogisticRegression().fit(
            pca.transform(scaler.transform(train_fm)).values, train_fm.labels
        )
        pred = model.predict(pca.transform(scaler.transform(test_fm)).values)
        accuracies[preset] = np.mean(pred == test_fm.labels)
    assert accuracies["tight"] >= accuracies["slack"]
    assert accuracies["tight"] > 0.97


def test_series_roundtrip(tmp_path):
    cfg = small_config(series_len=50)
    out = generate(cfg)
    save_series_set(out, tmp_path / "data")
    loaded = load_series_set(tmp_path / "data")
    assert loaded.noise_level == out.noise_level
    assert loaded.channel_names == out.channel_names
    for (sa, la), (sb, lb) in zip(out, loaded):
        assert la == lb
        assert np.allclose(sa.samples, sb.samples, atol=0, rtol=0)


@pytest.mark.parametrize("field, value", [("noise_level", 50), ("seed", 999)])
def test_load_series_set_rejects_mixed_sidecars(tmp_path, field, value):
    # a directory mixing two generated sets must not take the last sidecar's
    # noise level and seed for all of them
    save_series_set(generate(small_config(series_len=50)), tmp_path)
    sidecar = tmp_path / "series_0002.json"
    payload = json.loads(sidecar.read_text())
    payload[field] = value
    sidecar.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="series_0002.json has") as err:
        load_series_set(tmp_path)
    assert f"{field} {value}" in str(err.value)
    assert "series_0000.json" in str(err.value)
