import numpy as np
import pytest

from wellmon.baseline import (
    LineCloudSummary,
    MonitorConfig,
    RegressionLine,
    fit_line,
    line_distribution,
    minute_stds,
    monitor,
    read_lines_csv,
    write_lines_csv,
)
from wellmon.dataset import GeneratorConfig, MultivariateSeries, generate


# ---------------------------------------------------------------------------
# fit_line
# ---------------------------------------------------------------------------

def test_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    line = fit_line(x, 2.0 * x + 1.0)
    assert line.intercept == pytest.approx(1.0, abs=1e-12)
    assert line.incline == pytest.approx(2.0, abs=1e-12)


def test_constant_y():
    line = fit_line(np.array([1.0, 2.0, 3.0]), np.full(3, 7.5))
    assert line.intercept == pytest.approx(7.5, abs=1e-12)
    assert line.incline == pytest.approx(0.0, abs=1e-12)


def test_hand_ols():
    # Cov(x, y) = 1.5, Var(x) = 1, mean_y = 3, mean_x = 2
    line = fit_line(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0]))
    assert line.incline == pytest.approx(1.5, abs=1e-12)
    assert line.intercept == pytest.approx(0.0, abs=1e-12)


def test_zero_variance_x_rejected():
    with pytest.raises(ValueError, match="singular"):
        fit_line(np.full(5, 2.0), np.arange(5.0))


def test_closed_form_equals_moment_form(rng):
    for _ in range(200):
        x = rng.standard_normal(10) * rng.uniform(0.5, 3.0)
        y = rng.standard_normal(10) * rng.uniform(0.5, 3.0)
        line = fit_line(x, y)
        var_x = x.var()
        cov_xy = np.mean((x - x.mean()) * (y - y.mean()))
        b1 = cov_xy / var_x
        b0 = y.mean() - x.mean() * b1
        assert line.incline == pytest.approx(b1, abs=1e-10)
        assert line.intercept == pytest.approx(b0, abs=1e-10)


def test_shift_and_scale_equivariance(rng):
    x = rng.standard_normal(10)
    y = rng.standard_normal(10)
    base = fit_line(x, y)
    shifted = fit_line(x, y + 5.0)
    assert shifted.intercept == pytest.approx(base.intercept + 5.0, abs=1e-9)
    assert shifted.incline == pytest.approx(base.incline, abs=1e-12)
    scaled = fit_line(x, 3.0 * y)
    assert scaled.intercept == pytest.approx(3.0 * base.intercept, abs=1e-9)
    assert scaled.incline == pytest.approx(3.0 * base.incline, abs=1e-9)


def test_line_requires_finite():
    with pytest.raises(ValueError):
        RegressionLine(np.nan, 1.0)


# ---------------------------------------------------------------------------
# monitor
# ---------------------------------------------------------------------------

def _two_channel_series(x, y, rate=5.0):
    return MultivariateSeries(np.column_stack([x, y]), rate, ("accx_FJ", "bmx"))


def test_monitor_line_count_sixty_minutes():
    rng = np.random.default_rng(0)
    n = 60 * 300  # 60 minutes at 5 Hz
    x = rng.standard_normal(n)
    series = _two_channel_series(x, rng.standard_normal(n))
    lines = monitor(series, MonitorConfig("accx_FJ", "bmx"))
    assert len(lines) == 51  # 60 - 10 + 1
    assert [ln.window_start_index for ln in lines] == list(range(51))


def test_monitor_proportional_sinusoid():
    # incommensurate period -> per-minute stds vary, y = 3x exactly
    t = np.arange(60 * 300)
    x = np.sin(2.0 * np.pi * t / (47.0 * 5.0)) * (1.0 + 0.2 * np.sin(t / 1777.0))
    series = _two_channel_series(x, 3.0 * x)
    lines = monitor(series, MonitorConfig("accx_FJ", "bmx"))
    for ln in lines:
        assert ln.incline == pytest.approx(3.0, abs=1e-8)
        assert ln.intercept == pytest.approx(0.0, abs=1e-8)


def test_monitor_stationary_incline_drift_bounded():
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    cfg = GeneratorConfig(
        n_series_per_class=1,
        class_cov=(cov, cov),
        series_len=18001,
        temporal_ar_coeff=0.5,
        base_noise_std=np.zeros(2),
        channel_names=("accx_FJ", "bmx"),
        seed=5,
    )
    series, _ = generate(cfg).items[0]
    lines = monitor(series, MonitorConfig("accx_FJ", "bmx"))
    inclines = np.array([ln.incline for ln in lines])
    median = np.median(inclines)
    q1, q3 = np.percentile(inclines, [25, 75])
    band = 3.0 * (q3 - q1)
    inside = np.mean(np.abs(inclines - median) <= band)
    assert inside >= 0.95


def test_monitor_too_short_series():
    series = _two_channel_series(np.arange(1500.0), np.arange(1500.0) * 2)
    with pytest.raises(ValueError, match="window"):
        monitor(series, MonitorConfig("accx_FJ", "bmx"))


def test_monitor_skips_degenerate_window():
    n = 15 * 300
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    x[: 11 * 300] = 1.0  # first 11 minutes constant -> zero-variance windows
    series = _two_channel_series(x, rng.standard_normal(n))
    with pytest.warns(UserWarning, match="skipped"):
        lines = monitor(series, MonitorConfig("accx_FJ", "bmx"))
    starts = [ln.window_start_index for ln in lines]
    assert 0 not in starts  # gap recorded by the missing start indices
    assert len(lines) < 6


def test_monitor_config_validation():
    with pytest.raises(ValueError):
        MonitorConfig("a", "a")
    with pytest.raises(ValueError):
        MonitorConfig("a", "b", window_minutes=1, step_minutes=1)


def test_minute_stds_uses_sample_divisor():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 2)
    out = minute_stds(values, 5)
    assert out[0] == pytest.approx(np.sqrt(2.5))


# ---------------------------------------------------------------------------
# line distribution and CSV
# ---------------------------------------------------------------------------

def test_distribution_identical_lines():
    lines = [RegressionLine(1.0, 2.0, i) for i in range(5)]
    summary = line_distribution(lines)
    assert summary == LineCloudSummary(1.0, 2.0, 0.0, 0.0)


def test_distribution_arithmetic():
    lines = [RegressionLine(0.0, 1.0), RegressionLine(2.0, 3.0)]
    summary = line_distribution(lines)
    assert summary.mean_intercept == pytest.approx(1.0)
    assert summary.mean_incline == pytest.approx(2.0)


def test_distribution_empty_errors():
    with pytest.raises(ValueError):
        line_distribution([])


def test_intact_and_broken_clouds_differ_but_overlap():
    intact_cov = np.array([[1.0, 0.55], [0.55, 1.0]])
    broken_cov = np.array([[1.0, 0.35], [0.35, 2.25]])
    lines = {}
    for name, cov in (("intact", intact_cov), ("broken", broken_cov)):
        cfg = GeneratorConfig(
            n_series_per_class=1,
            class_cov=(cov, cov),
            series_len=18001,
            temporal_ar_coeff=0.9,
            base_noise_std=np.zeros(2),
            channel_names=("accx_FJ", "bmx"),
            seed=3,
        )
        series, _ = generate(cfg).items[0]
        lines[name] = monitor(series, MonitorConfig("accx_FJ", "bmx"))
    intact_inclines = np.array([ln.incline for ln in lines["intact"]])
    broken_inclines = np.array([ln.incline for ln in lines["broken"]])
    assert abs(intact_inclines.mean() - broken_inclines.mean()) > 0.05
    # no separating threshold classifies both clouds perfectly
    assert broken_inclines.min() < intact_inclines.max()


def test_lines_csv_roundtrip(tmp_path):
    lines = [RegressionLine(0.125, -2.5, 0), RegressionLine(1e-7, 3.25, 1)]
    path = tmp_path / "lines.csv"
    write_lines_csv(lines, path)
    write_lines_csv([RegressionLine(9.0, 9.0, 2)], path, append=True)
    back = read_lines_csv(path)
    assert len(back) == 3
    assert back[0] == lines[0]
    assert back[2].window_start_index == 2


def test_lines_from_empty_csv_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: empty file"):
        read_lines_csv(path)
