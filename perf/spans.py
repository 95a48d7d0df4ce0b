"""Outside-in span tracing for gcbench.

The program under test is not edited: :meth:`Tracer.wrap` replaces one
public attribute (a method on an instance, a function in a module, a
method on a class) with a recording wrapper and puts the original back
on :meth:`Tracer.restore`.  Spans stay in memory as
``[name, start, end, parent, request, count]`` lists and are written out
once, after the traced pass.  Everything here is single-threaded, as the
benchmark's one-caller workloads are.
"""

from __future__ import annotations

import time
from pathlib import Path

_MISSING = object()


class Tracer:
    """Records a span for every call that goes through a wrapped name."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1, request id, count]``
        self.spans: list[list] = []
        #: Stream position the caller is working on; shared by its spans.
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` as layer span ``name``.

        ``count`` maps the call's return value to a number stored with
        the span (candidates returned, test passed), so that ratios are
        measured at the boundary where the work happens.
        """
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        raw = vars(owner).get(attr, _MISSING)
        self._patched.append((owner, attr, raw))
        # ``getattr`` already bound a class/static method to its class;
        # keep it from being re-bound to an instance.
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, staticmethod(traced))
        else:
            setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def totals(self, scale: dict[int, float] | None = None,
               ) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed duration, summed self time (the
        duration minus the part its child spans cover) and summed count.
        ``scale`` multiplies the times of each request's spans (wall →
        reference speed); without it the times are raw wall seconds."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(spans):
            row = out.setdefault(span[0], {"calls": 0, "total": 0.0,
                                           "self": 0.0, "count": 0})
            factor = scale[span[4]] if scale is not None else 1.0
            duration = span[2] - span[1]
            row["calls"] += 1
            row["total"] += duration * factor
            row["self"] += (duration - covered[index]) * factor
            row["count"] += span[5]
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span; ``id`` is what ``parent`` refers to."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request, count) in \
                    enumerate(self.spans):
                out.write(
                    f'{{"id":{index},"name":"{name}","start":{start!r},'
                    f'"end":{end!r},"parent":{parent},"request":{request},'
                    f'"count":{int(count)}}}\n')
