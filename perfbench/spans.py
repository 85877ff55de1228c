"""Span recorder for the traced benchmark run.

The recorder wraps public functions of each layer from outside the program:
it replaces a module or class attribute with a timing wrapper and restores
the original on :meth:`Tracer.unpatch`.  No file of the program changes.

Every call through a wrapper is one span: name, start, end, and the span
that caused it on the same thread.  Spans are kept in compact in-memory
columns and written out once, by :meth:`Tracer.dump`, when the run ends.
Per-name call counts, total time and self time (duration minus the time of
child spans) are kept as running sums, so a phase's figures are the
difference of two :meth:`Tracer.totals` snapshots.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable

# Recording stops past this many spans (the sums go on); the count of
# dropped spans is written with the dump.
MAX_SPANS = 4_000_000


class Tracer:
    """In-memory spans plus per-name running sums."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._calls: list[int] = []
        self._total: list[float] = []
        self._self: list[float] = []
        self.durations: dict[str, list[float]] = {}
        self._span_id = array("i")
        self._span_parent = array("i")
        self._span_name = array("H")
        self._span_start = array("d")
        self._span_end = array("d")
        self.dropped = 0
        self._patches: dict[str, list[tuple[object, str, object]]] = {}

    # -- Spans --------------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            found = self._name_ids.get(name)
            if found is None:
                found = len(self.names)
                self._name_ids[name] = found
                self.names.append(name)
                self._calls.append(0)
                self._total.append(0.0)
                self._self.append(0.0)
            return found

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name_id: int) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), name_id, parent, 0.0, time.perf_counter()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame``; returns its duration in seconds."""
        end = time.perf_counter()
        span_id, name_id, parent, child_s, start = frame
        duration = end - start
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        if stack:
            stack[-1][3] += duration
        with self._lock:
            self._calls[name_id] += 1
            self._total[name_id] += duration
            self._self[name_id] += duration - child_s
            if len(self._span_id) < MAX_SPANS:
                self._span_id.append(span_id)
                self._span_parent.append(parent)
                self._span_name.append(name_id)
                self._span_start.append(start - self.t0)
                self._span_end.append(end - self.t0)
            else:
                self.dropped += 1
        return duration

    @contextmanager
    def span(self, name: str):
        frame = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(frame)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total_s, self_s)`` so far."""
        with self._lock:
            return {
                name: (self._calls[i], self._total[i], self._self[i])
                for i, name in enumerate(self.names)
            }

    # -- Wrapping -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        before: Callable | None = None,
        keep_durations: bool = False,
    ) -> Callable:
        """A timing wrapper around ``fn``; ``before(args)`` runs first."""
        name_id = self.name_id(name)
        durations = self.durations.setdefault(name, []) if keep_durations else None
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = exit_(frame)
                if durations is not None:
                    durations.append(duration)

        return wrapper

    def patch(self, group: str, owner: object, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by a timing wrapper (undone by
        :meth:`unpatch`).  Static and class methods keep their kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, **options))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, **options))
        else:
            replacement = self.wrap(raw, name, **options)
        setattr(owner, attr, replacement)
        self._patches.setdefault(group, []).append((owner, attr, raw))

    def unpatch(self, group: str) -> None:
        for owner, attr, raw in reversed(self._patches.pop(group, [])):
            setattr(owner, attr, raw)

    def unpatch_all(self) -> None:
        for group in list(self._patches):
            self.unpatch(group)

    def installed(self, group: str) -> bool:
        return group in self._patches

    # -- Output -------------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write every recorded span to ``path`` (JSON header line, then the
        five columns as raw arrays in native byte order); returns the span
        count."""
        with self._lock:
            columns = (
                self._span_id, self._span_parent, self._span_name,
                self._span_start, self._span_end,
            )
            header = {
                "names": self.names,
                "spans": len(self._span_id),
                "dropped": self.dropped,
                "columns": [
                    ["id", "i"], ["parent", "i"], ["name", "H"],
                    ["start_s", "d"], ["end_s", "d"],
                ],
            }
            with open(path, "wb") as handle:
                handle.write(json.dumps(header).encode() + b"\n")
                for column in columns:
                    column.tofile(handle)
            return len(self._span_id)
