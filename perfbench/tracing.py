"""In-memory spans around the public calls the benchmark makes into pmq.

A span is (name, start, end, parent span index, item id).  Spans are kept
in a list and written out once, after the measured pass.  ``Untraced``
has the same interface and records nothing, so one pass function serves
both runs.  Both measure an interval with ``elapsed``, which is wall time,
or wall time corrected for the host's speed when a ``speed.SpeedProbe``
is attached.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter


class Untraced:
    item = None
    probe = None

    def elapsed(self, a: float, b: float) -> float:
        return b - a if self.probe is None else self.probe.corrected(a, b)

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(Untraced):
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, item]
        self.stack: list[int] = []
        self.item = None
        self.results: dict[int, object] = {}   # span index -> return value, for counts

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.item])
        self.stack.append(idx)
        self.spans[idx][1] = clock()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name, fn, *, keep=None):
        """``fn`` with a span around every call; ``keep(args, result)``
        stores a small value per span for counting."""

        def wrapped(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep is not None:
                self.results[idx] = keep(args, result)
            return result

        return wrapped

    # -- summaries -----------------------------------------------------------

    def totals(self, elapsed=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and maximum duration, and self time
        (duration minus the time covered by child spans), each duration
        measured by ``elapsed`` (default ``self.elapsed``)."""
        elapsed = elapsed or self.elapsed
        durations = [elapsed(start, end) for _, start, end, _, _ in self.spans]
        child_time = defaultdict(float)
        for (_, _, _, parent, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += dur
        out: dict[str, dict[str, float]] = {}
        for idx, ((name, _, _, _, _), dur) in enumerate(zip(self.spans, durations)):
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "max_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += dur
            t["max_s"] = max(t["max_s"], dur)
            t["self_s"] += dur - child_time[idx]
        return out

    def select(self, name: str, parent_name: str | None = None) -> list[int]:
        """Indices of the spans called ``name``, optionally only those
        directly inside a ``parent_name`` span."""
        return [
            idx
            for idx, (name_, _, _, parent, _) in enumerate(self.spans)
            if name_ == name
            and (parent_name is None or (parent >= 0 and self.spans[parent][0] == parent_name))
        ]

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item"],
                    "names": names,
                    "spans": [[code[n], s, e, p, i] for n, s, e, p, i in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
