"""In-memory span recorder that wraps the program's public callables from outside.

A span is one call: name, start, end, parent span and run id. Spans stay
in a list while the benchmark runs and are written out once at the end.
Self time is a span's duration minus the durations of its direct
children, so a call nested inside another (``rng.words`` inside
``models.select``) is never counted twice.

Wrapping is single-threaded: every wrapped call must happen on the thread
that drives the benchmark (true for the engine step loop and for the
service tick, which the benchmark runs on its own thread).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Dict, List

__all__ = ["SpanLog"]


class SpanLog:
    """Flat span list plus the open-span stack that assigns parents."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, run_id]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.run_id = 0

    def wrapped(self, fn, name: str):
        """``fn`` wrapped so every call records one span named ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def wrap(self, obj, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (an instance's bound method) with a traced one."""
        setattr(obj, attr, self.wrapped(getattr(obj, attr), name))

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str):
        """Trace a module-level function for the duration of the block.

        Used where an engine imports a function into its own module
        namespace (``repro.engine.vectorized.shift``): the engine looks
        the name up there on every call, so the patch is seen.
        """
        original = getattr(module, attr)
        setattr(module, attr, self.wrapped(original, name))
        try:
            yield
        finally:
            setattr(module, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``total_s`` and ``self_s`` over every span."""
        child_s = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[i]
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": None if parent < 0 else parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )
