"""In-memory span tracing of pfmatch, installed from outside the package.

A span records a name, a start and end time (``time.perf_counter``), the
index of its parent span and the id of the match (operation) it belongs to.
Spans stay in memory until the run ends.

Layer spans come from wrappers that replace pfmatch functions where they are
looked up (``pfmatch.solver.data_term``, not only ``pfmatch.energy.data_term``)
and are removed again by ``Tracer.uninstall``.  No file of the package is
changed.  The benchmark's own stage boundaries (``stage.*``) are recorded in
every run; the layer wrappers only in traced runs.
"""

import contextlib
import functools
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def duration(self):
        return self.end - self.start

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.op,
                self.attrs]


class Tracer:
    """Collects spans; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def open(self, name):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def stage(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def take(self):
        """Hand over the spans recorded so far and start a new list.

        Parent indices are positions in the returned list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans

    # -- wrapping -------------------------------------------------------------

    def instrument(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``note(args, kwargs, result)`` may return a dict kept on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                span.attrs = note(args, kwargs, out)
            return out

        self._patch(owner, attr, original, wrapper)

    def instrument_cg(self, owner, attr, name):
        """Wrap a ``nonlinear_cg(fun_grad, x0, opts)`` lookup.

        Counts objective evaluations through a counting ``fun_grad`` and keeps
        the fields of the returned ``CGResult`` on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(fun_grad, x0, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return fun_grad(x)

            span = tracer.open(name)
            try:
                res = original(counted, x0, *args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs = {
                "evals": evals, "iters": res.iterations,
                "converged": bool(res.converged),
                "ls_failed": bool(res.line_search_failed),
                # The loop ran out of iterations without either outcome.
                "capped": not res.converged and not res.line_search_failed,
            }
            return res

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- span arithmetic ------------------------------------------------------------


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
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
    """Per span: its duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def inclusive_by_name(spans):
    """Total duration per name, not counting a span again inside an
    ancestor of the same name."""
    totals = {}
    for i, s in enumerate(spans):
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return totals


def inclusive_within(spans, ancestor):
    """Like ``inclusive_by_name``, counting only spans that run inside a
    span named ``ancestor``."""
    inside = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != ancestor:
            p = spans[p].parent
        inside.append(p >= 0)
    totals = {}
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        p = s.parent
        while spans[p].name not in (s.name, ancestor):
            p = spans[p].parent
        if spans[p].name == ancestor:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration
    return totals


def self_by_name(spans):
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals
