"""Shared pieces of the benchmark: statistics, spans and process memory.

Everything here is stdlib-only and independent of the ``repro`` package,
so the benchmark measures the program with code the program cannot
change.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers of the program the benchmark records spans for, named after
#: its modules.  Span names start with one of these, followed by the
#: function, e.g. ``vector.run_apsp`` or ``serve.cache.store_rows``.
#: ``congest`` runs inside ``core`` calls and is measured per message;
#: ``obs`` stays disabled; ``cli`` is measured by its import time.
LAYERS = (
    "graphs", "core", "vector", "protocols", "harness",
    "serve.server", "serve.service", "serve.cache", "serve.batch",
    "serve.supervisor",
)


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """The median; raises on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


#: Percentiles a tail may be reported at, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail_fraction(count: int) -> Optional[float]:
    """The highest candidate percentile with ``TAIL_BEYOND`` samples above it.

    With ``count`` samples, the nearest-rank p-th percentile has
    ``count - ceil(p * count)`` samples strictly beyond its rank.  A
    tail is only meaningful when enough samples lie past it; ``None``
    when even the median does not qualify.
    """
    for fraction in TAIL_CANDIDATES:
        if count - math.ceil(fraction * count) >= TAIL_BEYOND:
            return fraction
    return None


# -- spans --------------------------------------------------------------------


class Span:
    """One timed call: name, start, end and the span that caused it."""

    __slots__ = ("sid", "name", "start", "end", "parent")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


class Tracer:
    """In-memory span recorder for one thread of benchmark code.

    Spans nest by call order: a span opened while another is open is
    its child.  Nothing is written until :meth:`dump`.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].sid if self._open else None
        span = Span(len(self.spans), name, self.clock(), parent)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self._open and self._open[-1] is span:
            self._open.pop()
        else:
            self._open.remove(span)

    def record(self, name: str, start: float, end: float) -> Span:
        """Add a span timed by the caller, under the open span if any."""
        parent = self._open[-1].sid if self._open else None
        span = Span(len(self.spans), name, start, parent)
        span.end = end
        self.spans.append(span)
        return span

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, name: str, func):
        """``func`` timed as span ``name`` on every call."""
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.end(span)
        traced.__wrapped__ = func
        return traced

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.span)


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.sid: span.duration - covered(
            children.get(span.sid, ()), span.start, span.end
        )
        for span in spans
    }


def layer_of(name: str) -> Optional[str]:
    """The longest layer that prefixes span ``name``."""
    best = None
    for layer in LAYERS:
        if name.startswith(layer + ".") and (
            best is None or len(layer) > len(best)
        ):
            best = layer
    return best


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Layer → summed self time of its spans (0 for untouched layers)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for sid, seconds in self_times(spans).items():
        layer = layer_of(spans[sid].name)
        if layer is not None:
            totals[layer] += seconds
    return totals


# -- process-tree memory ------------------------------------------------------


def _hwm_kb(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", "rb") as handle:
                kids.extend(int(k) for k in handle.read().split())
        except OSError:
            continue
    return kids


def tree_pids(root: int) -> List[int]:
    """``root`` and all of its live descendants."""
    found, stack = [], [root]
    while stack:
        pid = stack.pop()
        if os.path.isdir(f"/proc/{pid}"):
            found.append(pid)
            stack.extend(_children(pid))
    return found


class TreeRss:
    """Peak RSS of a process tree, sampled from ``/proc``.

    Every sample sums the high-water marks (``VmHWM``) of the processes
    alive in the tree; the peak is the largest such sum.  A process's
    own peak is never missed between samples, and a pool that exits and
    is replaced by another does not count twice.
    """

    #: Seconds between samples.
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.root: Optional[int] = None
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self, root: int) -> "TreeRss":
        self.root = root
        self._thread.start()
        return self

    def sample(self) -> None:
        root = self.root
        if root is None:
            return
        total = sum(_hwm_kb(pid) or 0 for pid in tree_pids(root))
        self._peak_kb = max(self._peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; the peak in MB."""
        self._stop.set()
        self._thread.join(timeout=5)
        return self._peak_kb / 1024.0
