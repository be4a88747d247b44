"""Order statistics used by the benchmark's reports."""

import math
import statistics
from fractions import Fraction

# candidate tail percentiles, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n, p):
    # exact in p, so 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest percentile in TAIL_PERCENTILES with at least MIN_BEYOND
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def balanced_mean(pairs):
    """Mean over datasets of each dataset's mean value, from (dataset,
    value) pairs, so a dataset that ran more often weighs no more."""
    per = {}
    for dataset, value in pairs:
        per.setdefault(dataset, []).append(value)
    return statistics.fmean(statistics.fmean(v) for v in per.values())


def paired_overhead(untraced, traced):
    """Median over traced repeats of wall / (median untraced wall on the
    same dataset) - 1. Both are lists of (dataset, wall); a traced repeat
    whose dataset has no untraced repeat is left out, as its cost differs."""
    base = {}
    for dataset, wall in untraced:
        base.setdefault(dataset, []).append(wall)
    ratios = [
        wall / statistics.median(base[dataset]) for dataset, wall in traced if dataset in base
    ]
    if not ratios:
        raise ValueError("no traced repeat has an untraced repeat on its dataset")
    return statistics.median(ratios) - 1.0
