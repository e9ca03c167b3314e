"""Span tracing from outside the program, by wrapping module attributes.

A Tracer replaces each target attribute (a module-level function or a
method on a class) with a wrapper that records one span per call.  Spans
nest through a stack, so every span knows how much of its time its direct
child spans covered; its self time is the rest.  Spans are aggregated in
memory per name (calls, total, self) and written out by the caller.
Leaving the ``with`` block puts every original attribute back.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter
from typing import Callable, NamedTuple


class Target(NamedTuple):
    owner: object                      # module or class that holds the attribute
    attr: str
    span: str                          # "<layer>.<what>", e.g. "lstm.forward"
    count: Callable | None = None      # (args, result) -> {counter: amount}, after each call
    track_rss: bool = False            # add peak-RSS growth across the call to "<span>.rss_growth_kb"


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.stats: dict[str, list] = {}   # span -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[float] = []       # child seconds accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._saved)

    def summary(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in self.stats.items()},
            "counts": dict(self.counts),
        }

    def _wrap(self, fn, target: Target):
        stats = self.stats.setdefault(target.span, [0, 0.0, 0.0])
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.track_rss:
                rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if target.track_rss:
                growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
                counts[f"{target.span}.rss_growth_kb"] += growth
            if target.count is not None:
                counts.update(target.count(args, result))
            return result

        return wrapper
