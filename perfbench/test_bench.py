"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import opcount  # noqa: E402
import stats  # noqa: E402
from spans import Span, Tracer, covered_length, self_times  # noqa: E402


def span(span_id, parent, start, end, name="x.y"):
    return Span(span_id, parent, 0, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),  # grandchild counts against its parent only
        span(3, 0, 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 2.0, 6.0), span(2, 0, 4.0, 8.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_covered_length_clips_to_the_parent_interval():
    assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_tracer_records_parents_and_restores_names():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    original = Module.outer
    tracer = Tracer()
    tracer.rebind(Module, "inner", "m.inner", lambda result, x: {"calls": 1})
    tracer.rebind(Module, "outer", "m.outer")
    assert Module.outer(1) == 4
    tracer.restore()
    assert Module.outer is original
    outer, inner = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert outer.parent_id is None and inner.parent_id == outer.span_id
    assert inner.counts == {"calls": 1}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(10) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9


def test_nearest_rank_percentile_leaves_the_stated_tail():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.percentile(values, 50) == 500
    assert stats.percentile([7.0], 99) == 7.0


def test_quartile_spread_matches_statistics_quantiles():
    q1, med, q3, spread = stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, med, q3) == (1.5, 3.0, 4.5)
    assert spread == pytest.approx(1.0)


def test_balanced_mean_weighs_each_dataset_once():
    # dataset 0 ran three times, dataset 1 once: (2 + 10) / 2, not 16 / 4
    assert stats.balanced_mean([(0, 1.0), (0, 2.0), (0, 3.0), (1, 10.0)]) == 6.0


def test_tracing_overhead_pairs_repeats_on_the_same_dataset():
    # dataset 1 costs ten times dataset 0; unpaired medians would mix them
    untraced = [(0, 1.0), (1, 10.0), (0, 1.2)]
    traced = [(1, 11.0), (0, 1.21), (2, 50.0)]
    assert stats.paired_overhead(untraced, traced) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.paired_overhead(untraced, [(2, 1.0)])


class _Cnn:
    in_channels, conv_layers, pool_kernel, pool_stride = 6, ((12, 30), (24, 30)), 15, 5
    embedding_dim, epochs, batch_size = 2, 8, 50


def test_cnn_op_count_from_the_default_shapes():
    ops = opcount.cnn_flops_per_sample(_Cnn(), 300)
    # conv1: 271 outputs x 12 filters x (6 x 30) taps; pool1 271 -> 52
    assert ops["conv1.forward"] == 2 * 271 * 12 * 6 * 30
    assert ops["pool1.forward"] == 2 * 12 * 271 * 52
    # conv2: 23 outputs x 24 filters x (12 x 30) taps; input gradient back to 52
    assert ops["conv2.forward"] == 2 * 23 * 24 * 12 * 30
    assert ops["conv2.backward_input"] == 2 * 52 * 12 * 24 * 30
    assert "conv1.backward_input" not in ops
    # pool2 23 -> 2, so fc1 sees 24 x 2 features
    assert ops["fc1.forward"] == 2 * 48 * 2
    assert ops["fc2.backward"] == 4 * 2 * 1
    assert opcount.cnn_steps(_Cnn(), 1920) == 8 * 39
