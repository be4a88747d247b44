import numpy as np
import pytest

from wellmon import transforms
from wellmon.transforms import (
    CovMatrix,
    FeatureMatrix,
    Standardizer,
    correlation,
    cov_feature_names,
    cov_features,
    cov_matrix,
    cov_sqrt,
    standardize,
    std_features,
    transform_segments,
    upper_triangle_indices,
)

from conftest import make_segment, random_segments


# ---------------------------------------------------------------------------
# std transform
# ---------------------------------------------------------------------------

def test_std_constant_channel_is_zero():
    seg = make_segment(np.column_stack([np.full(10, 3.0), np.arange(10.0)]))
    out = std_features(seg)
    assert out[0] == 0.0
    assert out[1] > 0


def test_std_hand_value():
    seg = make_segment(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    assert std_features(seg)[0] == pytest.approx(1.5811, abs=1e-4)
    assert std_features(seg)[0] == pytest.approx(np.sqrt(2.5))


def test_std_six_channels_six_features(rng):
    seg = make_segment(rng.standard_normal((50, 6)))
    assert std_features(seg).shape == (6,)


def test_std_rejects_single_sample():
    with pytest.raises(ValueError):
        std_features(make_segment(np.zeros((1, 3))))


# ---------------------------------------------------------------------------
# covariance matrix
# ---------------------------------------------------------------------------

def test_cov_identical_channels():
    x = np.arange(8.0)
    sigma = cov_matrix(make_segment(np.column_stack([x, x]))).sigma
    assert np.allclose(sigma, sigma[0, 0])


def test_cov_hand_values():
    seg = make_segment(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    sigma = cov_matrix(seg).sigma
    assert sigma[0, 0] == pytest.approx(1.0)
    assert sigma[1, 1] == pytest.approx(4.0)
    assert sigma[0, 1] == pytest.approx(2.0)


def test_cov_anticorrelated():
    x = np.array([0.5, -1.0, 2.0, 0.25])
    sigma = cov_matrix(make_segment(np.column_stack([x, -x]))).sigma
    assert sigma[0, 1] == pytest.approx(-sigma[0, 0])


def test_cov_diagonal_matches_std(rng):
    for _ in range(20):
        seg = make_segment(rng.standard_normal((30, 5)))
        sigma = cov_matrix(seg).sigma
        assert np.max(np.abs(np.sqrt(np.diag(sigma)) - std_features(seg))) < 1e-10


def test_covmatrix_requires_symmetry():
    with pytest.raises(ValueError):
        CovMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))


# ---------------------------------------------------------------------------
# covariance square root
# ---------------------------------------------------------------------------

def test_cov_sqrt_identity():
    assert np.allclose(cov_sqrt(np.eye(3)), np.eye(3))


def test_cov_sqrt_diagonal():
    assert np.allclose(cov_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_cov_sqrt_hand_case():
    sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = cov_sqrt(sigma)
    assert np.max(np.abs(root @ root - sigma)) < 1e-10
    # eigendecomposition oracle: eigenvalues 1 and 3 on (1,-1)/(1,1)
    expected = np.array(
        [
            [(np.sqrt(3) + 1) / 2, (np.sqrt(3) - 1) / 2],
            [(np.sqrt(3) - 1) / 2, (np.sqrt(3) + 1) / 2],
        ]
    )
    assert np.allclose(root, expected)


def test_cov_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="positive semi-definite"):
        cov_sqrt(np.array([[1.0, 0.0], [0.0, -1e-3]]))


def test_cov_sqrt_idempotent_on_roots(rng):
    from conftest import random_psd

    for _ in range(10):
        root = cov_sqrt(random_psd(rng, 4))
        again = cov_sqrt(root @ root)
        assert np.max(np.abs(again - root)) < 1e-8


# ---------------------------------------------------------------------------
# cov transform (upper triangle of the root)
# ---------------------------------------------------------------------------

def test_cov_features_counts(rng):
    assert cov_features(make_segment(rng.standard_normal((40, 6)))).shape == (21,)
    assert cov_features(make_segment(rng.standard_normal((40, 3)))).shape == (6,)


def test_cov_feature_names_row_major():
    names = cov_feature_names(("a", "b", "c"))
    assert names == (
        "sqrtcov(a,a)", "sqrtcov(a,b)", "sqrtcov(a,c)",
        "sqrtcov(b,b)", "sqrtcov(b,c)", "sqrtcov(c,c)",
    )
    assert upper_triangle_indices(3) == [
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    ]


def test_cov_features_diagonal_sigma_reduces_to_std(rng):
    # independent channels: off-diagonals ~0, diagonal = per-channel std
    samples = np.column_stack(
        [np.tile([1.0, -1.0], 30), np.tile([2.0, 2.0, -2.0, -2.0], 15)]
    )
    seg = make_segment(samples)
    sigma = cov_matrix(seg).sigma
    assert abs(sigma[0, 1]) < 1e-12  # exactly orthogonal patterns
    feats = cov_features(seg)
    stds = std_features(seg)
    assert feats[0] == pytest.approx(stds[0], abs=1e-10)
    assert feats[2] == pytest.approx(stds[1], abs=1e-10)
    assert abs(feats[1]) < 1e-10


def test_permuting_channels_permutes_features(rng):
    samples = rng.standard_normal((30, 3))
    seg = make_segment(samples)
    perm = [2, 0, 1]
    seg_p = make_segment(samples[:, perm])
    names = cov_feature_names(("a", "b", "c"))
    names_p = cov_feature_names(tuple("abc"[i] for i in perm))
    feats = dict(zip(names, cov_features(seg)))
    feats_p = dict(zip(names_p, cov_features(seg_p)))
    for key, value in feats_p.items():
        # sqrtcov(x,y) may be listed as sqrtcov(y,x) after permutation
        a, b = key[len("sqrtcov("):-1].split(",")
        alt = f"sqrtcov({b},{a})"
        assert feats.get(key, feats.get(alt)) == pytest.approx(value, abs=1e-9)


def test_scaling_channel_scales_features(rng):
    samples = rng.standard_normal((40, 3))
    seg = make_segment(samples)
    scaled = samples.copy()
    scaled[:, 1] *= 3.0
    seg_s = make_segment(scaled)
    assert std_features(seg_s)[1] == pytest.approx(3.0 * std_features(seg)[1])
    sigma = cov_matrix(seg).sigma
    sigma_s = cov_matrix(seg_s).sigma
    assert np.allclose(sigma_s[1, :] / sigma[1, :], [3.0, 9.0, 3.0])
    assert np.allclose(sigma_s[:, 1] / sigma[:, 1], [3.0, 9.0, 3.0])


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_correlation_unit_diagonal(rng):
    from conftest import random_psd

    for _ in range(10):
        corr = correlation(random_psd(rng, 4))
        assert np.allclose(np.diag(corr), 1.0)
        assert np.max(np.abs(corr)) <= 1.0 + 1e-10


def test_correlation_hand_value():
    corr = correlation(np.array([[4.0, 2.0], [2.0, 4.0]]))
    assert corr[0, 1] == pytest.approx(0.5)


def test_correlation_of_diagonal_is_identity():
    assert np.allclose(correlation(np.diag([3.0, 7.0])), np.eye(2))


def test_correlation_rejects_zero_variance():
    with pytest.raises(ValueError, match="zero variance"):
        correlation(np.diag([1.0, 0.0]))


# ---------------------------------------------------------------------------
# batch transform
# ---------------------------------------------------------------------------

def test_transform_segments_std_and_cov(rng):
    segments = random_segments(rng, 8, n_w=30, m=3)
    std_fm = transform_segments(segments, "std", ("a", "b", "c"))
    assert std_fm.values.shape == (8, 3)
    assert std_fm.feature_names == ("a", "b", "c")
    cov_fm = transform_segments(segments, "cov", ("a", "b", "c"))
    assert cov_fm.values.shape == (8, 6)
    # batch path agrees with the per-segment op
    for i, seg in enumerate(segments):
        assert np.allclose(cov_fm.values[i], cov_features(seg), atol=1e-9)
        assert np.allclose(std_fm.values[i], std_features(seg))
    with pytest.raises(ValueError, match="kind"):
        transform_segments(segments, "fft")


def test_cov_path_is_one_batch_of_one_shape(rng, root_calls):
    # one sym_sqrt_batch call per transform, rows kept in order, and each
    # row equal to the one-segment call; std rows likewise. Segments of
    # mixed shape are refused, as one run cuts windows of one length
    calls = root_calls
    segments = random_segments(rng, 5, n_w=30, m=3)
    values = transform_segments(segments, "cov").values
    assert calls == [5]
    assert values.flags["C_CONTIGUOUS"]
    for i, seg in enumerate(segments):
        assert values[i].tobytes() == cov_features(seg).tobytes()
    calls.clear()
    std_values = transform_segments(segments, "std").values
    assert calls == []
    for i, seg in enumerate(segments):
        assert std_values[i].tobytes() == std_features(seg).tobytes()
    cov_sqrt(np.eye(3))
    assert calls == [1]
    short = random_segments(rng, 1, n_w=12, m=3)[0]
    for kind in ("cov", "std"):
        for other in (short, make_segment(np.ones((30, 2)))):
            with pytest.raises(ValueError, match="segment 1 has shape"):
                transform_segments([segments[0], other], kind)


@pytest.mark.parametrize("count", [1, 288])
def test_batched_covariances_match_np_cov(rng, count):
    # the batched product is the per-window np.cov, and each row has the
    # bits of its one-window call, so batched and streamed features agree
    stack = rng.standard_normal((count, 300, 6)) * rng.uniform(0.1, 10.0, 6)
    sigmas = transforms._covariances(np.ascontiguousarray(stack.transpose(1, 0, 2)))
    for i, window in enumerate(stack):
        assert np.max(np.abs(sigmas[i] - np.cov(window, rowvar=False))) < 1e-12
        one = transforms._covariances(window[:, None, :])[0]
        assert sigmas[i].tobytes() == one.tobytes()


@pytest.mark.parametrize("count", [1, 288])
def test_batched_std_rows_match_one_window_std(rng, count):
    # each batched STD row has the bits of np.std over its one window
    stack = rng.standard_normal((count, 300, 6)) * rng.uniform(0.1, 10.0, 6)
    values = transform_segments([make_segment(w) for w in stack], "std").values
    for i, window in enumerate(stack):
        assert values[i].tobytes() == np.std(window, axis=0, ddof=1).tobytes()


def _window_major_row(window, kind):
    """One window's row by the window-major formula: a (1, n, m) stack
    reduced over its sample axis."""
    stack = window[None]
    if kind == "std":
        return np.std(stack, axis=1, ddof=1)[0]
    centered = stack - stack.mean(axis=1, keepdims=True)
    sigmas = (centered.transpose(0, 2, 1) @ centered) / (stack.shape[1] - 1)
    sigmas = 0.5 * (sigmas + sigmas.transpose(0, 2, 1))
    rows, cols = np.array(upper_triangle_indices(window.shape[1])).T
    return transforms.sym_sqrt_batch(sigmas)[0][rows, cols]


_LAYOUTS = {
    "row-major": np.ascontiguousarray,
    # the layout pipeline.subset_channels cuts a channel subset in
    "channel-major": np.asfortranarray,
    "one-channel": lambda w: np.ascontiguousarray(w[:, :1]),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
def test_chunked_rows_match_one_window_rows(rng, count, layout, root_calls):
    # batches that end inside, at and past a chunk edge: every row has the
    # bits of its one-window call and of the window-major formula, and the
    # covariances of all chunks share one sym_sqrt_batch call
    assert transforms.CHUNK == 32
    draws = rng.standard_normal((count, 300, 6)) * rng.uniform(0.1, 10.0, 6)
    windows = [_LAYOUTS[layout](w) for w in draws]
    segments = [make_segment(w) for w in windows]
    calls = root_calls
    for kind, one_window in (("std", std_features), ("cov", cov_features)):
        calls.clear()
        values = transform_segments(segments, kind).values
        assert calls == ([count] if kind == "cov" else [])
        for i, window in enumerate(windows):
            assert values[i].tobytes() == one_window(segments[i]).tobytes()
            assert values[i].tobytes() == _window_major_row(window, kind).tobytes()


@pytest.mark.parametrize("kind", ["std", "cov"])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("count", [1, 32, 33])
def test_remembered_rows_are_the_computed_rows(rng, count, layout, kind):
    # a second call on the same windows is answered from the last call's
    # entry, with the bits a fresh computation gives
    draws = rng.standard_normal((count, 300, 6)) * rng.uniform(0.1, 10.0, 6)
    segments = [make_segment(_LAYOUTS[layout](w)) for w in draws]
    first = transforms._feature_rows(segments, kind)
    entry = transforms._last_rows
    again = transforms._feature_rows(segments, kind)
    assert entry is not None and transforms._last_rows is entry
    transforms._last_rows = None
    fresh = transforms._feature_rows(segments, kind)
    assert again.tobytes() == first.tobytes() == fresh.tobytes()
    assert again.flags.c_contiguous and fresh.flags.c_contiguous


def test_window_changed_in_place_is_recomputed(rng, root_calls):
    calls = root_calls
    windows = [rng.standard_normal((300, 6)) for _ in range(33)]
    windows[32][5, 1] = 0.0
    segments = [make_segment(w) for w in windows]
    first = transforms._feature_rows(segments, "cov")
    segments[32].samples[7, 4] += 1.0
    changed = transforms._feature_rows(segments, "cov")
    assert calls == [33, 33]
    assert changed[:32].tobytes() == first[:32].tobytes()
    assert changed[32].tobytes() != first[32].tobytes()
    # a zero's sign is a different byte, so flipping it misses too
    segments[32].samples[5, 1] = -0.0
    flipped = transforms._feature_rows(segments, "cov")
    assert calls == [33, 33, 33]
    transforms._last_rows = None
    assert flipped.tobytes() == transforms._feature_rows(segments, "cov").tobytes()


def test_writes_into_returned_rows_do_not_reach_the_next_hit(rng):
    segments = random_segments(rng, 5)
    for kind in ("std", "cov"):
        rows = transforms._feature_rows(segments, kind)
        kept = rows.copy()
        for _ in range(2):  # rows of the computing call, then of a hit
            rows[:] = 7.0
            rows = transforms._feature_rows(segments, kind)
            assert rows.tobytes() == kept.tobytes()


def test_same_bytes_in_another_layout_miss(rng, root_calls):
    # the layout decides how the window's samples are summed, so a
    # channel-major copy of the same values is its own key
    calls = root_calls
    window = rng.standard_normal((300, 6))
    row_major = [make_segment(window)]
    channel_major = [make_segment(np.asfortranarray(window))]
    assert window.tobytes() == channel_major[0].samples.tobytes()
    transforms._feature_rows(row_major, "cov")
    rows = transforms._feature_rows(channel_major, "cov")
    assert calls == [1, 1]
    transforms._last_rows = None
    assert rows.tobytes() == transforms._feature_rows(channel_major, "cov").tobytes()


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------

def _fm(values, labels=None):
    values = np.asarray(values, dtype=np.float64)
    labels = labels if labels is not None else np.zeros(len(values), dtype=int)
    names = tuple(f"f{i}" for i in range(values.shape[1]))
    return FeatureMatrix(values, names, labels)


def test_standardize_hand_column():
    train = _fm([[1.0], [2.0], [3.0]], [0, 1, 0])
    test = _fm([[2.0]], [1])
    train_s, test_s, mean, std = standardize(train, test)
    assert np.allclose(train_s.values[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
    assert mean[0] == pytest.approx(2.0)
    assert std[0] == pytest.approx(np.sqrt(2.0 / 3.0))  # population divisor
    assert test_s.values[0, 0] == 0.0  # test value equal to the train mean


def test_standardize_idempotent(rng):
    values = rng.standard_normal((50, 4))
    values = (values - values.mean(axis=0)) / values.std(axis=0)
    train = _fm(values)
    out, _, _, _ = standardize(train, train)
    assert np.max(np.abs(out.values - values)) < 1e-12


def test_standardize_train_statistics(rng):
    train = _fm(rng.standard_normal((40, 3)) * 5 + 2)
    out, _, _, _ = standardize(train, train)
    assert np.max(np.abs(out.values.mean(axis=0))) < 1e-9
    assert np.max(np.abs(out.values.std(axis=0) - 1.0)) < 1e-9


def test_standardize_constant_column_warns():
    train = _fm([[1.0, 5.0], [2.0, 5.0]])
    with pytest.warns(UserWarning, match="constant"):
        out, _, _, std = standardize(train, train)
    assert std[1] == 1.0
    assert np.all(out.values[:, 1] == 0.0)


def test_standardizer_is_estimator(rng):
    scaler = Standardizer()
    params = scaler.get_params()
    assert params == {}
    values = rng.standard_normal((20, 2))
    scaler.fit(values)
    assert scaler.transform(values).shape == (20, 2)


def test_standardizer_save_load(tmp_path, rng):
    scaler = Standardizer().fit(rng.standard_normal((20, 3)))
    scaler.save(tmp_path / "scaler.json")
    loaded = Standardizer.load(tmp_path / "scaler.json")
    assert np.array_equal(loaded.mean_, scaler.mean_)
    assert np.array_equal(loaded.std_, scaler.std_)


# ---------------------------------------------------------------------------
# FeatureMatrix CSV format
# ---------------------------------------------------------------------------

def test_feature_matrix_csv_roundtrip(tmp_path, rng):
    fm = _fm(rng.standard_normal((10, 3)), labels=[0, 1] * 5)
    path = tmp_path / "features.csv"
    fm.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "f0,f1,f2,label"
    back = FeatureMatrix.from_csv(path)
    assert back.feature_names == fm.feature_names
    assert np.array_equal(back.labels, fm.labels)
    assert np.array_equal(back.values, fm.values)  # %.17g round-trips float64


def test_feature_matrix_from_empty_csv_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: empty file"):
        FeatureMatrix.from_csv(path)


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((2, 2)), ("a",), [0, 1])
    with pytest.raises(ValueError):
        FeatureMatrix(np.full((2, 2), np.inf), ("a", "b"), [0, 1])
    with pytest.raises(ValueError):
        FeatureMatrix(np.zeros((2, 2)), ("a", "b"), [0, 2])
    # bad labels are named, each value once
    named = r"found values \[np.int64\(-1\), np.int64\(2\)\]"
    with pytest.raises(ValueError, match=named):
        FeatureMatrix(np.zeros((4, 1)), ("a",), [2, 0, -1, 2])
