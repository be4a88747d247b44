"""The production baseline monitor: sliding-window STD regression lines.

A ten-minute window slides over two chosen channels (typically a flex-joint
acceleration and a bending moment); each window is split into one-minute
intervals whose standard deviations are regressed against each other,
yielding one (intercept, incline) pair per step. Changes in the line cloud
indicate a change in system behaviour; thresholding is left to the user.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .validation import as_float_vector, write_csv

SINGULAR_DET_TOL = 1e-15


@dataclass(frozen=True)
class RegressionLine:
    intercept: float
    incline: float
    window_start_index: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.intercept) and np.isfinite(self.incline)):
            raise ValueError("regression line parameters must be finite")


@dataclass(frozen=True)
class MonitorConfig:
    x_channel: str
    y_channel: str
    window_minutes: int = 10
    step_minutes: int = 1

    def __post_init__(self):
        if self.x_channel == self.y_channel:
            raise ValueError("x_channel and y_channel must be distinct")
        if not self.window_minutes > self.step_minutes >= 1:
            raise ValueError("need window_minutes > step_minutes >= 1")


def fit_line(x, y, window_start_index=0) -> RegressionLine:
    """Ordinary least squares through the 2x2 normal equations.

    The matrix inverse is the explicit adjugate, so singularity is
    detectable through the determinant. Agrees with the moment form
    b1 = Cov(x, y)/Var(x), b0 = mean(y) - mean(x) * b1.
    """
    x = as_float_vector(x, "x")
    y = as_float_vector(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have equal length")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to fit a line")
    xtx = float(x @ x)
    sx = float(x.sum())
    sy = float(y.sum())
    xty = float(x @ y)
    det = n * xtx - sx * sx  # n^2 * Var(x)
    if det <= SINGULAR_DET_TOL * n * n:
        raise ValueError("zero-variance x: singular normal equations")
    incline = (n * xty - sx * sy) / det
    intercept = (xtx * sy - sx * xty) / det
    return RegressionLine(intercept, incline, window_start_index)


def minute_stds(values, samples_per_minute):
    """Sample standard deviation (divisor n-1) of each full minute."""
    values = as_float_vector(values, "values")
    n_minutes = values.shape[0] // samples_per_minute
    if n_minutes == 0:
        raise ValueError("series shorter than one minute")
    trimmed = values[: n_minutes * samples_per_minute]
    blocks = trimmed.reshape(n_minutes, samples_per_minute)
    return np.std(blocks, axis=1, ddof=1)


def monitor(series, cfg: MonitorConfig) -> list:
    """One regression line per step of the sliding window, ordered by time.

    Windows with zero x-variance are skipped with a warning; the gap is
    visible as a jump in window_start_index.
    """
    samples_per_minute = int(round(60.0 * series.sample_rate_hz))
    x_all = minute_stds(series.channel(cfg.x_channel), samples_per_minute)
    y_all = minute_stds(series.channel(cfg.y_channel), samples_per_minute)
    total_minutes = x_all.shape[0]
    if total_minutes < cfg.window_minutes:
        raise ValueError(
            f"series has {total_minutes} full minutes, window needs "
            f"{cfg.window_minutes}"
        )
    lines = []
    for start in range(0, total_minutes - cfg.window_minutes + 1, cfg.step_minutes):
        stop = start + cfg.window_minutes
        try:
            lines.append(fit_line(x_all[start:stop], y_all[start:stop], start))
        except ValueError as exc:
            warnings.warn(f"window at minute {start} skipped: {exc}")
    return lines


@dataclass(frozen=True)
class LineCloudSummary:
    mean_intercept: float
    mean_incline: float
    std_intercept: float
    std_incline: float


def line_distribution(lines) -> LineCloudSummary:
    """Component-wise mean and (population) std of the line cloud."""
    if not lines:
        raise ValueError("no lines to summarize")
    intercepts = np.array([ln.intercept for ln in lines])
    inclines = np.array([ln.incline for ln in lines])
    return LineCloudSummary(
        float(intercepts.mean()),
        float(inclines.mean()),
        float(intercepts.std()),
        float(inclines.std()),
    )


def write_lines_csv(lines, path, append=False):
    """Append-only CSV of (window_start, beta0, beta1)."""
    write_csv(
        path,
        ["window_start", "beta0", "beta1"],
        ((ln.window_start_index, ln.intercept, ln.incline) for ln in lines),
        append=append,
    )


def read_lines_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        return [
            RegressionLine(float(b0), float(b1), int(start))
            for start, b0, b1 in reader
        ]
