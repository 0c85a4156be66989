"""Outside-in span tracer for the benchmark's traced pass.

The tracer replaces public entry points (module functions, class methods or
one instance's methods) with wrappers that record one span per call: name,
start, end, the span open when the call began (its parent) and the current
request id. Spans stay in memory until ``write`` is called. ``restore`` puts
every original back, so the program runs untouched outside the traced pass.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

Hook = Callable[[tuple, dict, Any], None]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        # each span is [name, start, end, parent index or -1, request id]
        self.spans: list[list] = []
        self.request = ""
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self._t0 = time.perf_counter()

    def timed(
        self,
        name: str,
        fn: Callable,
        before: Callable[[tuple, dict], None] | None = None,
        after: Hook | None = None,
    ) -> Callable:
        """``fn`` wrapped to record a span per call. ``before`` runs ahead of
        the span; ``after`` sees the arguments and result once it closed."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(
                [name, clock(), 0.0, open_[-1] if open_ else -1, self.request]
            )
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Callable[[tuple, dict], None] | None = None,
        after: Hook | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a module, class or instance attribute)
        by a timed wrapper until ``restore``."""
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else None
        self._patches.append((owner, attr, had_own, original))
        setattr(owner, attr, self.timed(name, getattr(owner, attr), before, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, total and self time per span name. Self time is a span's
        duration minus the durations of its direct children."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for i, span in enumerate(self.spans):
            s = out[span[0]]
            s.calls += 1
            s.total_s += dur[i]
            s.self_s += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """One JSON object per span, times in seconds since the tracer was
        made; ``parent`` is the line index of the parent span or -1."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - self._t0,
                    "end": end - self._t0,
                    "parent": parent,
                    "request": request,
                }) + "\n")
