"""In-memory spans around the benchmark's calls into wellmon.

A traced repeat rebinds public names -- module functions in the module
that looks them up, and methods on the public classes -- to wrappers that
record one span per call, and restores them afterwards. Nothing under
src/ changes. Spans are plain records kept in memory and written out when
the run ends.
"""

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: object  # span_id of the enclosing span, or None
    op_id: int  # the workload operation that caused the call
    name: str  # "<layer>.<what>"
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans; rebind() installs wrappers, restore() removes them."""

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._open = []
        self._bound = []

    def call(self, name, fn, args, kwargs, count=None):
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), parent, self.op_id, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if count is not None:
            span.counts = count(result, *args, **kwargs)
        return result

    def rebind(self, owner, attr, name, count=None):
        """Wrap owner.attr. name is a span name, or a function of
        (args, kwargs) returning one; count maps (result, *args, **kwargs)
        to a dict of counts stored on the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return self.call(span_name, original, args, kwargs, count)

        setattr(owner, attr, traced)
        self._bound.append((owner, attr, original))

    def restore(self):
        while self._bound:
            owner, attr, original = self._bound.pop()
            setattr(owner, attr, original)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """span_id -> span duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children[span.span_id], span.start, span.end)
        for span in spans
    }
