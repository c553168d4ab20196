"""Wall-clock spans around calls into the program's layers (traced runs only).

The benchmark never edits program code: a :class:`SpanRecorder` replaces a
few public functions with timing wrappers for the duration of a traced
phase and puts the originals back afterwards.  Each span records its name,
start, end, parent span and request id; spans stay in memory and are written
once, at the end of the run, as a Chrome ``trace_event`` file that Perfetto
and ``chrome://tracing`` open.

A span's *self time* is its duration minus the time its direct children
cover, so the per-layer table adds up to the traced wall time without
double counting.  The request id of a span is the index of the outermost
span it runs under (one ``ServiceEngine.run`` chunk, or one
materialization), so all spans of one request share it.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

_clock = time.perf_counter


class SpanRecorder:
    """In-memory span log plus the patch table of wrapped functions."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, request]`` row per span; parent
        #: and request are span indexes (-1 for none).
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.spans)
        if stack:
            parent = stack[-1]
            request = self.spans[parent][4]
        else:
            parent = -1
            request = index
        stack.append(index)
        self.spans.append([name, _clock(), 0.0, parent, request])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` block."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- patching -------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as span ``name`` until :meth:`unwrap_all`."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            index = recorder._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(index)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def unwrap_all(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def wrapped(self, targets) -> Iterator[None]:
        """Wrap ``(owner, attr, name)`` targets for the ``with`` block."""
        for owner, attr, name in targets:
            self.wrap(owner, attr, name)
        try:
            yield
        finally:
            self.unwrap_all()

    # -- summaries ------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return table

    def write_chrome(self, path) -> None:
        """Write the spans as Chrome ``trace_event`` JSON (complete events)."""
        spans = self.spans
        origin = min((row[1] for row in spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"request": request, "parent": parent},
            }
            for name, start, end, parent, request in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
