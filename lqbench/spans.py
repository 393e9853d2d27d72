"""In-memory spans around calls into lqframes, and the arithmetic on them.

A span records the name of the layer call it wraps, its start and end
(``time.perf_counter`` seconds), the span that was open when it started,
and per-call counts taken from the call's arguments and result.  Spans are
kept in memory and read when the traced run ends.

The program itself carries no tracing code: ``Tracer.install`` replaces a
function at the name its caller looks it up by (for example
``lqframes.experiments.irls_analysis``) with a wrapper that records a span
and calls the original, so the real call path and its nesting are kept.
``Tracer.uninstall`` puts every original object back.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)
    # (args, kwargs, result) of the wrapped call, kept only when asked for.
    call: tuple | None = None


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` is replaced for the traced run.

    ``owner`` is a module or a class.  ``count(args, kwargs, result)``
    returns a dict of numbers added to the span; ``keep`` stores the call's
    arguments and result on the span for the correctness checks.
    """

    owner: object
    attr: str
    name: str
    count: object = None
    keep: bool = False


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._installed = []

    def wrap(self, fn, name, count=None, keep=False):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            if keep:
                span.call = (args, kwargs, result)
            return result

        return traced

    def install(self, targets):
        for t in targets:
            raw = vars(t.owner)[t.attr]
            # getattr resolves a classmethod to its bound method; the wrapper
            # is stored as a plain function, which the class hands back as is.
            self._installed.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, self.wrap(getattr(t.owner, t.attr), t.name, t.count, t.keep))

    def uninstall(self):
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans):
    """Seconds of each span that none of its direct children covers.

    Children are clipped to their parent's interval and their union is
    subtracted, so overlapping children are not counted twice.  Deeper
    descendants lie inside a child and need no separate treatment.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(span.end - span.start - covered)
    return out


# Tail percentiles in tenths of a percent, highest first.
_TAILS = (999, 990, 900)


def tail_percentile(n):
    """Highest tail percentile (per mille) with at least ten of n samples above it.

    Returns None when even the 90th percentile has fewer than ten samples
    beyond it (n < 100); then only the median is reported.
    """
    for per_mille in _TAILS:
        if n * (1000 - per_mille) >= 10 * 1000:
            return per_mille
    return None


def summarize(values):
    """Median, sample count and the highest percentile the count supports."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    out = {"n": n, "median": median}
    per_mille = tail_percentile(n)
    if per_mille is not None:
        rank = -(-n * per_mille // 1000)  # nearest rank, ceil(n * p)
        out[f"p{per_mille / 10:g}"] = ordered[rank - 1]
    return out
