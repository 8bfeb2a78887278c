"""Spans and counters recorded from outside the program.

The benchmark never edits the code it measures. It replaces public
functions with wrappers for the duration of one traced pass and restores
them afterwards, so untraced passes run the program's own functions. A
wrapper is installed where the function is *looked up*: a module that did
``from x import f`` holds its own reference, which must be patched there.

Three kinds of wrapper keep overhead in proportion to call frequency:

* ``span``  - records (id, name, start, end, parent) and a call count;
* ``timed`` - a call count and total busy time, no span record;
* ``count`` - a call count only (the hottest lookups).

An ``observe(args, result)`` callback may record extra facts (hits, sizes)
after each call.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

# (span id, name, start, end, parent id or -1)
Span = tuple[int, str, float, float, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.peaks: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, 0.0, 0.0, parent))
        self._stack.append(sid)
        self.calls[name] += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, t0, t1, parent)

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    # ----------------------------------------------------------- patches
    def patch(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple], str],
        *,
        kind: str = "span",
        observe: Callable[[tuple, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper until ``restore``.

        A span's ``name`` may be a function of the call's arguments."""
        orig = getattr(owner, attr)
        if kind == "span":
            wrapper = self._span_wrapper(orig, name, observe)
        elif kind == "timed":
            wrapper = self._timed_wrapper(orig, name, observe)
        elif kind == "count":
            wrapper = self._count_wrapper(orig, name, observe)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(wrapper))

    def restore(self) -> None:
        """Put back every patched function, most recent first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _span_wrapper(self, orig, name, observe):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                label = name(args) if callable(name) else name
                spans[sid] = (sid, label, t0, t1, parent)
                calls[label] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _timed_wrapper(self, orig, name, observe):
        busy, calls = self.busy, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = orig(*args, **kwargs)
            busy[name] += clock() - t0
            calls[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _count_wrapper(self, orig, name, observe):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = orig(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # ----------------------------------------------------------- results
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of its
    interval covered by its direct children (overlapping children counted
    once, children clipped to the parent)."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: defaultdict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return ordered[int(rank) - 1]
