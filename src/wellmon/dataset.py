"""Labelled multivariate sensor series: surrogate generation, windowing, splitting.

The generator replaces the finite-element simulation behind the original
intact/broken well data with a statistical surrogate: a zero-mean stationary
AR(1) process whose cross-channel stationary covariance is set per class,
plus i.i.d. sensor noise scaled by the noise level. Class separability comes
from dispersion and cross-correlation differences, which is what the
downstream transforms measure.
"""

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .linalg import jacobi_eigh, sym_sqrt

DEFAULT_CHANNELS = ("accx_FJ", "accy_FJ", "accx_DAS", "accy_DAS", "bmx", "bmy")
DEFAULT_SAMPLE_RATE_HZ = 5.0
DEFAULT_SERIES_LEN = 18001
NOISE_LEVELS = (1, 10, 50)


class Label(IntEnum):
    INTACT = 0
    BROKEN = 1


@dataclass(frozen=True)
class MultivariateSeries:
    """An n x m matrix of channel samples with sample rate and channel names."""

    samples: np.ndarray
    sample_rate_hz: float
    channel_names: tuple

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
        n, m = samples.shape
        if n < 2 or m < 1:
            raise ValueError(f"need n >= 2 and m >= 1, got {n} x {m}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain non-finite entries")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if len(self.channel_names) != m:
            raise ValueError(
                f"{len(self.channel_names)} channel names for {m} channels"
            )

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def n_channels(self):
        return self.samples.shape[1]

    def channel(self, name):
        """Column of the named channel."""
        try:
            idx = self.channel_names.index(name)
        except ValueError:
            raise KeyError(f"unknown channel {name!r}; have {self.channel_names}")
        return self.samples[:, idx]


@dataclass(frozen=True)
class LabeledSeriesSet:
    """A collection of (series, label) pairs from one noise level."""

    items: tuple
    noise_level: int
    seed: int

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if self.noise_level not in NOISE_LEVELS:
            raise ValueError(f"noise_level must be one of {NOISE_LEVELS}")
        if not items:
            raise ValueError("series set is empty")
        first = items[0][0]
        for series, label in items:
            Label(label)
            if (
                series.n_channels != first.n_channels
                or series.sample_rate_hz != first.sample_rate_hz
                or series.channel_names != first.channel_names
            ):
                raise ValueError("all series must share channels and sample rate")

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    @property
    def channel_names(self):
        return self.items[0][0].channel_names

    @property
    def sample_rate_hz(self):
        return self.items[0][0].sample_rate_hz

    def labels(self):
        return np.array([int(label) for _, label in self.items], dtype=np.int64)


@dataclass(frozen=True)
class Segment:
    """A fixed-length window cut from one series, inheriting its label."""

    samples: np.ndarray
    source_index: int
    window_index: int
    label: Label


def labels_of(segments):
    """The segments' labels as one int64 vector."""
    return np.array([int(s.label) for s in segments], dtype=np.int64)


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the two-class AR(1) surrogate generator.

    class_cov holds the target stationary covariance of the intact and
    broken class, in that order. The innovation covariance is derived as
    (1 - a^2) * class_cov so the stationary covariance matches exactly.
    Sensor noise with per-channel std noise_level * base_noise_std is added
    on top.
    """

    n_series_per_class: int
    class_cov: tuple
    series_len: int = DEFAULT_SERIES_LEN
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    temporal_ar_coeff: float = 0.9
    noise_level: int = 1
    base_noise_std: np.ndarray = None
    channel_names: tuple = DEFAULT_CHANNELS
    seed: int = 0

    def __post_init__(self):
        intact, broken = self.class_cov
        intact = np.asarray(intact, dtype=np.float64)
        broken = np.asarray(broken, dtype=np.float64)
        object.__setattr__(self, "class_cov", (intact, broken))
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        m = intact.shape[0]
        if self.base_noise_std is None:
            object.__setattr__(self, "base_noise_std", np.zeros(m))
        else:
            object.__setattr__(
                self, "base_noise_std", np.asarray(self.base_noise_std, dtype=np.float64)
            )

    def validate(self):
        if self.n_series_per_class < 1:
            raise ValueError("n_series_per_class must be >= 1")
        if self.series_len < 2:
            raise ValueError("series_len must be >= 2")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if not 0.0 <= self.temporal_ar_coeff < 1.0:
            raise ValueError("temporal_ar_coeff must lie in [0, 1)")
        if self.noise_level not in NOISE_LEVELS:
            raise ValueError(f"noise_level must be one of {NOISE_LEVELS}")
        m = len(self.channel_names)
        for which, cov in zip(("intact", "broken"), self.class_cov):
            if cov.shape != (m, m):
                raise ValueError(f"{which} covariance must be {m} x {m}")
            if np.max(np.abs(cov - cov.T)) > 1e-12:
                raise ValueError(f"{which} covariance is not symmetric within 1e-12")
            w, _ = jacobi_eigh(cov)
            if np.min(w) < -1e-10:
                raise ValueError(
                    f"{which} covariance is not positive semi-definite: "
                    f"eigenvalue {np.min(w):.6e}"
                )
        if self.base_noise_std.shape != (m,):
            raise ValueError(f"base_noise_std must have {m} entries")
        if np.any(self.base_noise_std < 0):
            raise ValueError("base_noise_std must be non-negative")
        return self


def _generate_one(config, series_index, label):
    """One stationary AR(1) series. The RNG stream is derived from
    (seed, series_index) alone, so a series does not depend on the others.

    Draw order per series: initial state, innovations, sensor noise.
    """
    # imported here, as generation alone needs it: scipy.signal takes about
    # a second to import, which every other command would pay at start
    from scipy.signal import lfilter

    rng = np.random.default_rng((config.seed, series_index))
    n = config.series_len
    m = len(config.channel_names)
    a = config.temporal_ar_coeff
    cov = config.class_cov[int(label)]
    root = sym_sqrt(cov)
    x0 = root @ rng.standard_normal(m)
    innov = rng.standard_normal((n - 1, m)) @ (np.sqrt(1.0 - a * a) * root)
    out = np.empty((n, m))
    out[0] = x0
    for ch in range(m):
        filtered, _ = lfilter([1.0], [1.0, -a], innov[:, ch], zi=np.array([a * x0[ch]]))
        out[1:, ch] = filtered
    noise_std = config.noise_level * config.base_noise_std
    out += rng.standard_normal((n, m)) * noise_std
    return MultivariateSeries(out, config.sample_rate_hz, config.channel_names)


def generate(config: GeneratorConfig) -> LabeledSeriesSet:
    """Generate 2 * n_series_per_class labelled series, deterministic in seed."""
    config.validate()
    items = []
    for label in (Label.INTACT, Label.BROKEN):
        for j in range(config.n_series_per_class):
            series_index = int(label) * config.n_series_per_class + j
            items.append((_generate_one(config, series_index, label), label))
    return LabeledSeriesSet(tuple(items), config.noise_level, config.seed)


def window(series_set: LabeledSeriesSet, window_seconds: float) -> list:
    """Cut every series into non-overlapping windows of window_seconds.

    A trailing remainder shorter than the window is dropped so all segments
    share one length (the CNN input shape is fixed).
    """
    n_w = int(round(window_seconds * series_set.sample_rate_hz))
    if n_w < 2:
        raise ValueError(f"window of {n_w} samples is too short (need >= 2)")
    segments = []
    for source_index, (series, label) in enumerate(series_set):
        n = series.n_samples
        if n_w > n:
            raise ValueError(
                f"window of {n_w} samples exceeds series length {n}"
            )
        for k in range(n // n_w):
            segments.append(
                Segment(
                    samples=series.samples[k * n_w : (k + 1) * n_w],
                    source_index=source_index,
                    window_index=k,
                    label=Label(label),
                )
            )
    return segments


def split(segments, test_fraction, seed):
    """Stratified, seeded, disjoint and exhaustive train/test split.

    Per-class test counts are floor(n_c * test_fraction); the remainder up
    to round(N * test_fraction) is assigned by largest fractional part, so
    class proportions match up to a single segment.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    labels = labels_of(segments)
    by_class = {c: np.flatnonzero(labels == c) for c in (0, 1)}
    for c, idx in by_class.items():
        if len(idx) == 0:
            raise ValueError(f"class {c} has no segments; cannot stratify")
    n_total = len(segments)
    target_test = int(round(n_total * test_fraction))
    if target_test == 0 or target_test == n_total:
        raise ValueError("split would leave train or test empty")
    quota = {c: len(idx) * test_fraction for c, idx in by_class.items()}
    n_test = {c: int(np.floor(q)) for c, q in quota.items()}
    leftover = target_test - sum(n_test.values())
    for c in sorted(by_class, key=lambda c: (-(quota[c] - n_test[c]), c)):
        if leftover <= 0:
            break
        if n_test[c] < len(by_class[c]):
            n_test[c] += 1
            leftover -= 1
    rng = np.random.default_rng(seed)
    test_idx = []
    for c in (0, 1):
        perm = by_class[c][rng.permutation(len(by_class[c]))]
        test_idx.extend(perm[: n_test[c]])
    test_mask = np.zeros(n_total, dtype=bool)
    test_mask[test_idx] = True
    train = [s for i, s in enumerate(segments) if not test_mask[i]]
    test = [s for i, s in enumerate(segments) if test_mask[i]]
    return train, test


# ---------------------------------------------------------------------------
# covariance presets
# ---------------------------------------------------------------------------

def _intact_covariance():
    """Shared intact-class covariance over the 6 default channels.

    Built from a factor model (guaranteeing positive definiteness): one
    strong common wave-energy factor, a bending-moment-specific factor, and
    one factor per physical direction. Loading columns: [common, bm, x, y].
    The strong common factor makes realized window energies co-fluctuate,
    which is what lets the dispersion point clouds overlap while the
    covariance structure stays class-separable.
    """
    loadings = np.array(
        [
            [0.955, 0.00, 0.24, 0.00],  # accx_FJ
            [0.955, 0.00, 0.00, 0.24],  # accy_FJ
            [0.955, 0.00, 0.22, 0.00],  # accx_DAS
            [0.955, 0.00, 0.00, 0.22],  # accy_DAS
            [0.680, 0.63, 0.20, 0.07],  # bmx
            [0.680, 0.63, 0.07, 0.20],  # bmy
        ]
    )
    corr = loadings @ loadings.T
    corr = corr + np.diag(1.0 - np.diag(corr))
    stds = np.array([1.0, 0.8, 0.9, 0.7, 1.0, 0.8])
    return corr * np.outer(stds, stds)


def _broken_covariance(intact, bm_var_scale, rotation_deg):
    """Broken class = intact with bending-moment variances scaled and the
    acc <-> bm cross-covariance rotated in the (bmx, bmy) plane."""
    broken = intact.copy()
    theta = np.deg2rad(rotation_deg)
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    cross = intact[0:4, 4:6] @ rot.T
    broken[0:4, 4:6] = cross
    broken[4:6, 0:4] = cross.T
    broken[4, 4] *= bm_var_scale
    broken[5, 5] *= bm_var_scale
    broken[4, 5] *= bm_var_scale
    broken[5, 4] *= bm_var_scale
    return broken


def preset_config(
    name,
    n_series_per_class,
    noise_level=1,
    seed=0,
    series_len=DEFAULT_SERIES_LEN,
):
    """Named generator presets.

    slack: long temporal memory, so the dispersion point clouds overlap but
    separate (the default regime); tight: shorter memory and a larger
    cross-covariance rotation, giving visibly cleaner separation.
    """
    intact = _intact_covariance()
    if name == "slack":
        broken = _broken_covariance(intact, bm_var_scale=2.25, rotation_deg=15.0)
        ar = 0.97
    elif name == "tight":
        broken = _broken_covariance(intact, bm_var_scale=2.25, rotation_deg=25.0)
        ar = 0.9
    else:
        raise ValueError(f"unknown preset {name!r}; expected 'slack' or 'tight'")
    return GeneratorConfig(
        n_series_per_class=n_series_per_class,
        class_cov=(intact, broken),
        series_len=series_len,
        temporal_ar_coeff=ar,
        noise_level=noise_level,
        base_noise_std=np.full(6, 0.02),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# on-disk format: CSV samples + JSON sidecar per series
# ---------------------------------------------------------------------------

def save_series(series, label, noise_level, seed, stem):
    """Write <stem>.csv (header = channel names) and <stem>.json sidecar."""
    stem = Path(stem)
    header = ",".join(series.channel_names)
    np.savetxt(
        stem.parent / f"{stem.name}.csv",
        series.samples,
        delimiter=",",
        header=header,
        comments="",
        fmt="%.17g",
    )
    sidecar = {
        "label": int(label),
        "noise_level": int(noise_level),
        "sample_rate_hz": float(series.sample_rate_hz),
        "seed": int(seed),
    }
    (stem.parent / f"{stem.name}.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_series(stem):
    """Read one series written by save_series. Returns (series, label, noise, seed)."""
    stem = Path(stem)
    csv_path = stem.parent / f"{stem.name}.csv"
    with open(csv_path) as fh:
        channel_names = tuple(fh.readline().strip().split(","))
    samples = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    sidecar = json.loads((stem.parent / f"{stem.name}.json").read_text())
    series = MultivariateSeries(
        samples, sidecar["sample_rate_hz"], channel_names
    )
    return series, Label(sidecar["label"]), sidecar["noise_level"], sidecar["seed"]


def save_series_set(series_set, out_dir):
    """Write every series of the set under out_dir as series_NNNN.{csv,json}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (series, label) in enumerate(series_set):
        save_series(
            series, label, series_set.noise_level, series_set.seed,
            out_dir / f"series_{i:04d}",
        )
    return out_dir


def load_series_set(in_dir):
    """Read back a directory written by save_series_set.

    Every sidecar must carry the same noise_level and seed; a directory
    mixing sets raises ValueError naming two files that disagree.
    """
    in_dir = Path(in_dir)
    stems = sorted(p.with_suffix("") for p in in_dir.glob("series_*.csv"))
    if not stems:
        raise FileNotFoundError(f"no series_*.csv files under {in_dir}")
    loaded = [load_series(stem) for stem in stems]
    for stem, (_, _, noise_level, seed) in zip(stems, loaded):
        if (noise_level, seed) != loaded[0][2:]:
            raise ValueError(
                f"{stem}.json has noise_level {noise_level}, seed {seed}, but "
                f"{stems[0]}.json has noise_level {loaded[0][2]}, seed {loaded[0][3]}"
            )
    return LabeledSeriesSet(tuple(item[:2] for item in loaded), *loaded[0][2:])
