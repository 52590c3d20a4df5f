"""Spans around the benchmark's calls into dlperiod's public functions.

Every call a query makes into the package goes through ``api.call(name, fn,
*args)``.  With tracing off (:class:`Direct`) that is a plain call.  With
tracing on (:class:`Tracer`) it records one span per call, named
``<module>.<function>``, whose parent is the span of the query that issued
it; spans of one query share the query's id.  Spans stay in memory and are
written out by run.py when the run ends.

A span is the list ``[span_id, query_id, parent_id, name, start, end,
attrs]`` with perf_counter times in seconds; a query span has parent 0.
"""
from __future__ import annotations

import time


class Direct:
    """Tracing off: calls go straight through and tags are dropped."""

    def __init__(self):
        self.spans = []
        self._seen = set()

    def first(self, key) -> bool:
        """True the first time this session meets `key` (a cold cache)."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def begin_query(self, kind: str) -> None:
        pass

    def end_query(self) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def tag(self, **attrs) -> None:
        pass


class Tracer(Direct):
    """Tracing on: one span per call, nested under the current query span."""

    def begin_query(self, kind: str) -> None:
        qid = len(self.spans) + 1
        self._query = [qid, qid, 0, f"query.{kind}", time.perf_counter(), None, {}]
        self.spans.append(self._query)

    def end_query(self) -> None:
        self._query[5] = time.perf_counter()

    def call(self, name, fn, *args):
        q = self._query
        span = [len(self.spans) + 1, q[1], q[0], name, time.perf_counter(), None, {}]
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[5] = time.perf_counter()

    def tag(self, **attrs) -> None:
        """Attach counts to the most recent span."""
        self.spans[-1][6].update(attrs)
