"""In-memory spans and counts for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions; the program itself is not instrumented. A span
is ``(id, name, start, end, parent, op)``; ``op`` groups the spans of one
operation. While tracing is on, the execution summary of every dataset the
program executes (the text ``Dataset.stats()`` returns), including the
datasets it creates internally, is captured by wrapping Ray Data's
``StreamingExecutor.shutdown`` (its ``_final_stats`` and ``_topology`` are
Ray 2.49 internals). Everything stays in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import json
import re
import time

__all__ = ["Tracer", "all_to_all_ops"]

# operators that exchange data between all blocks (joins and shuffles)
_ALL_TO_ALL = re.compile(
    r"^(Join|Repartition|Sort|Aggregate|RandomShuffle|HashShuffle|HashAggregate)\b")


def all_to_all_ops(operators: list[str]) -> int:
    """Join / shuffle operators among one execution's operator names."""
    return sum(1 for name in operators if _ALL_TO_ALL.match(name))


class Tracer:
    """Collects spans and dataset stats when ``enabled``; every
    method is a cheap no-op otherwise, so untraced runs time the same
    code path."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.datasets: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._orig_shutdown = None

    # -- Ray Data stats capture ----------------------------------------------

    def capture_dataset_stats(self, on: bool) -> None:
        """Record each finished dataset execution's summary, operators of
        the whole executed DAG included, while ``on``."""
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        if on and self.enabled and self._orig_shutdown is None:
            orig = self._orig_shutdown = StreamingExecutor.shutdown
            tracer, seen = self, set()

            def shutdown(executor, *args, **kwargs):
                out = orig(executor, *args, **kwargs)
                stats = getattr(executor, "_final_stats", None)
                if stats is not None and id(executor) not in seen:
                    seen.add(id(executor))
                    started = getattr(executor, "_start_time", None)  # perf_counter
                    now = time.time()
                    tracer.datasets.append({
                        "start": now - (time.perf_counter() - started) if started else now,
                        "t": now, "op": tracer.op,
                        "dataset": getattr(executor, "_dataset_id", None),
                        # this execution's own operators; the summary also
                        # lists the upstream ones that earlier executions ran
                        "operators": [o.name for o in getattr(executor, "_topology", ())],
                        "stats": stats.to_summary().to_string()})
                return out

            StreamingExecutor.shutdown = shutdown
        elif not on and self._orig_shutdown is not None:
            StreamingExecutor.shutdown = self._orig_shutdown
            self._orig_shutdown = None

    def datasets_between(self, t0: float, t1: float) -> list[dict]:
        """Executions that started and finished within ``[t0, t1]``."""
        return [d for d in self.datasets if t0 <= d["start"] and d["t"] <= t1]

    # -- spans -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": time.time(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": self.op}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.time()

    def add_span(self, name: str, start: float, end: float,
                 parent: int | None = None) -> None:
        """A span measured elsewhere (by the program's own timings)."""
        if self.enabled:
            self.spans.append({"id": len(self.spans), "name": name, "start": start,
                               "end": end, "parent": parent, "op": self.op})

    def last_span_id(self, name: str) -> int | None:
        for rec in reversed(self.spans):
            if rec["name"] == name:
                return rec["id"]
        return None

    # -- output ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time: dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None and rec["end"] is not None:
                child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                             + rec["end"] - rec["start"])
        out: dict[str, float] = {}
        for rec in self.spans:
            if rec["end"] is None:
                continue
            own = rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
            out[rec["name"]] = out.get(rec["name"], 0.0) + own
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = {"spans": self.spans, "self_time_s": self.self_times(), "datasets": self.datasets,
               **extra}
        with open(path, "w", encoding="utf8") as fh:
            json.dump(doc, fh, indent=1, default=str)
