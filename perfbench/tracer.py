"""Spans recorded from outside the program.

The traced run replaces module attributes that the program's callers look up
(``artdesc.numcore.mlp_attention``, ``artdesc.pipeline.generate``, ...) with
wrappers that time each call. A span holds its name, start, end, parent span
and request id (painting, query or epoch); spans stay in memory and are
written out once the run ends. A span's self time is its duration minus the
time its child spans cover.

Very hot leaf functions (``stem`` runs once per token) are counted in
aggregate instead: calls and total time per name, with the time charged to
the enclosing span as child time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# span record layout
_ID, _PARENT, _NAME, _REQUEST, _START, _END, _CHILD = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}
        self.request = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter_ns()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][_ID] if self._stack else None
        rec = [len(self.spans) + len(self._stack), parent, name, self.request, 0, 0, 0]
        self._stack.append(rec)
        rec[_START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[_END] = time.perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1][_CHILD] += rec[_END] - rec[_START]
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, request=None):
        """A span opened by the benchmark itself, usually one request."""
        if request is not None:
            self.request = request
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _span_wrapper(self, name, fn, after):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn, after):
        totals = self.leaves.setdefault(name, [0, 0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
            totals[0] += 1
            totals[1] += dt
            if stack:
                stack[-1][_CHILD] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, *, leaf: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper; classmethods stay
        classmethods. ``after(args, kwargs, result)`` runs outside the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        make = self._leaf_wrapper if leaf else self._span_wrapper
        if isinstance(original, classmethod):
            wrapped = classmethod(make(name, original.__func__, after))
        else:
            wrapped = make(name, original, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """calls, total ms, self ms and per-call durations for each name."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0,
                                                     "self_ms": 0.0, "durations_ms": []})
        for rec in self.spans:
            dur = (rec[_END] - rec[_START]) / 1e6
            row = out[rec[_NAME]]
            row["calls"] += 1
            row["total_ms"] += dur
            row["self_ms"] += dur - rec[_CHILD] / 1e6
            row["durations_ms"].append(dur)
        for name, (calls, ns) in self.leaves.items():
            row = out[name]
            row["calls"] += calls
            row["total_ms"] += ns / 1e6
            row["self_ms"] += ns / 1e6
        return out

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations (ms) of spans called ``name``; with ``under``, only those
        with an ancestor span of that name."""
        index = {rec[_ID]: rec for rec in self.spans}

        def has_ancestor(rec) -> bool:
            parent = rec[_PARENT]
            while parent is not None:
                anc = index[parent]
                if anc[_NAME] == under:
                    return True
                parent = anc[_PARENT]
            return False

        return [(rec[_END] - rec[_START]) / 1e6 for rec in self.spans
                if rec[_NAME] == name and (under is None or has_ancestor(rec))]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rec in sorted(self.spans, key=lambda r: r[_START]):
                f.write(json.dumps({
                    "id": rec[_ID],
                    "parent": rec[_PARENT],
                    "name": rec[_NAME],
                    "request": rec[_REQUEST],
                    "start_ms": (rec[_START] - self._origin) / 1e6,
                    "end_ms": (rec[_END] - self._origin) / 1e6,
                    "self_ms": (rec[_END] - rec[_START] - rec[_CHILD]) / 1e6,
                }) + "\n")
            for name, (calls, ns) in sorted(self.leaves.items()):
                f.write(json.dumps({"name": name, "aggregate": True, "calls": calls,
                                    "total_ms": ns / 1e6}) + "\n")
