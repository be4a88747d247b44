import numpy as np
import pytest

from wellmon import transforms
from wellmon.dataset import Label, Segment


@pytest.fixture(autouse=True)
def no_remembered_rows():
    """Each test starts without the rows of another test's last transform,
    so tests that count sym_sqrt_batch calls see every call they make."""
    transforms._last_rows = None


@pytest.fixture
def root_calls(monkeypatch):
    """The stack size of each transforms.sym_sqrt_batch call, in order."""
    calls = []
    batch = transforms.sym_sqrt_batch

    def counting(mats, *args, **kwargs):
        calls.append(len(mats))
        return batch(mats, *args, **kwargs)

    monkeypatch.setattr(transforms, "sym_sqrt_batch", counting)
    return calls


def make_segment(samples, label=Label.INTACT, source_index=0, window_index=0):
    return Segment(
        samples=np.asarray(samples, dtype=np.float64),
        source_index=source_index,
        window_index=window_index,
        label=Label(label),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_psd(rng, n, rows=None):
    """Sample covariance of a random matrix: symmetric PSD."""
    rows = rows if rows is not None else 4 * n
    X = rng.standard_normal((rows, n))
    return X.T @ X / rows


def random_segments(rng, count, n_w=40, m=6, separated=False):
    """Quick labelled segments: class 1 gets larger scale when separated."""
    segments = []
    for i in range(count):
        label = i % 2
        scale = 1.0 + (0.8 * label if separated else 0.0)
        segments.append(
            make_segment(
                scale * rng.standard_normal((n_w, m)),
                label=label,
                source_index=i,
            )
        )
    return segments
