"""Confusion-matrix metrics and the cross-method comparison table.

The broken state (label 1) is the positive class throughout. Metrics with a
zero denominator return 0 and set a degenerate flag rather than raising, so
sweeps over bad configurations do not abort.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import labels_of
from .validation import as_label_vector, write_csv


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self):
        return (self.tp + self.tn) / self.total


def confusion(pred, truth) -> ConfusionMatrix:
    """Counts with broken (1) as the positive class."""
    pred = as_label_vector(pred, "pred")
    truth = as_label_vector(truth, "truth")
    if pred.shape[0] != truth.shape[0]:
        raise ValueError("pred and truth must have equal length")
    if pred.shape[0] == 0:
        raise ValueError("nothing to evaluate")
    return ConfusionMatrix(
        tp=int(np.sum((pred == 1) & (truth == 1))),
        fp=int(np.sum((pred == 1) & (truth == 0))),
        fn=int(np.sum((pred == 0) & (truth == 1))),
        tn=int(np.sum((pred == 0) & (truth == 0))),
    )


class PrfScores(NamedTuple):
    precision: float
    recall: float
    f1: float
    degenerate: bool


def precision_recall_f1(cm: ConfusionMatrix) -> PrfScores:
    """precision = TP/(TP+FP), recall = TP/(TP+FN), F1 = harmonic mean."""
    degenerate = False
    if cm.tp + cm.fp > 0:
        precision = cm.tp / (cm.tp + cm.fp)
    else:
        precision, degenerate = 0.0, True
    if cm.tp + cm.fn > 0:
        recall = cm.tp / (cm.tp + cm.fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return PrfScores(precision, recall, f1, degenerate)


def accuracy(pred, truth) -> float:
    """Ratio of correctly predicted samples to the total number of samples."""
    return confusion(pred, truth).accuracy


@dataclass(frozen=True)
class MethodReport:
    method: str
    precision: float
    recall: float
    f1: float
    accuracy: float
    train_time_ms: float
    test_time_ms: float
    config: str
    degenerate: bool = False


def score_predictions(method, pred, truth, train_time_ms=0.0, test_time_ms=0.0,
                      config="") -> MethodReport:
    cm = confusion(pred, truth)
    prf = precision_recall_f1(cm)
    return MethodReport(
        method=method,
        precision=prf.precision,
        recall=prf.recall,
        f1=prf.f1,
        accuracy=cm.accuracy,
        train_time_ms=train_time_ms,
        test_time_ms=test_time_ms,
        config=config,
        degenerate=prf.degenerate,
    )


def compare(pipelines, train_segments, test_segments):
    """Fit every pipeline on the same split, then predict with each: all fits
    come first, so the classical pipelines share one feature transform of
    each window set. Train and test time are each one wall-clock
    measurement, around fit and around the one predict call on the test
    windows; pipelines run in turn, so timings are uncontended.
    """
    train_ms = []
    for pipeline in pipelines:
        start = time.perf_counter()
        pipeline.fit(train_segments)
        train_ms.append((time.perf_counter() - start) * 1e3)
    truth = labels_of(test_segments)
    reports = []
    for pipeline, fit_ms in zip(pipelines, train_ms):
        start = time.perf_counter()
        pred = pipeline.predict(test_segments)
        test_ms = (time.perf_counter() - start) * 1e3
        reports.append(
            score_predictions(
                pipeline.name, pred, truth, fit_ms, test_ms,
                config=pipeline.describe(),
            )
        )
    return reports


REPORT_COLUMNS = (
    "method", "precision", "recall", "f1", "accuracy",
    "train_ms", "test_ms", "config",
)


def _report_cells(r, places):
    """One report's REPORT_COLUMNS as text; the four metrics to `places`
    decimals, the times to 3."""
    return (
        r.method,
        *(f"{v:.{places}f}" for v in (r.precision, r.recall, r.f1, r.accuracy)),
        f"{r.train_time_ms:.3f}",
        f"{r.test_time_ms:.3f}",
        r.config,
    )


def reports_to_csv(reports, path):
    write_csv(path, REPORT_COLUMNS, (_report_cells(r, 6) for r in reports))


def format_table(reports):
    """Aligned text table of the method comparison."""
    rows = [REPORT_COLUMNS] + [_report_cells(r, 3) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(REPORT_COLUMNS))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
