"""In-memory spans around the benchmark's calls into the program's layers.

A span records its name, start, end, parent span and pair key.  Each pair of
a traced pass gets one ``pair`` span; every layer call inside it is a child
span.  Calls are never nested inside each other, so a pair's self time (its
duration minus its children's) is the time spent between layer calls.
Spans stay in memory and are handed to the caller at the end of the pass.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._pair: tuple[int, str] | None = None

    @contextmanager
    def pair(self, key: str):
        sid = len(self.spans)
        self.spans.append({})  # reserve the id so children can name their parent
        self._pair = (sid, key)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = _span(sid, "pair", start, perf_counter(), None, key, False)
            self._pair = None

    def call(self, name: str, fn, args: tuple):
        parent, key = self._pair if self._pair else (None, None)
        start = perf_counter()
        error = True
        try:
            result = fn(*args)
            error = False
            return result
        finally:
            end = perf_counter()
            self.spans.append(_span(len(self.spans), name, start, end, parent, key, error))


def _span(sid, name, start, end, parent, key, error) -> dict:
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "pair": key, "error": error}


def summarize(spans: list[dict]) -> tuple[dict[str, float], dict[str, int], float]:
    """Busy seconds per span name, errors per module, and unattributed seconds.

    Unattributed time is the sum over pair spans of the pair's duration minus
    the durations of its child spans.
    """
    busy: dict[str, float] = defaultdict(float)
    errors: dict[str, int] = defaultdict(int)
    unattributed = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "pair":
            unattributed += duration
            continue
        busy[span["name"]] += duration
        errors[span["name"].split(".")[0]] += span["error"]
        if span["parent"] is not None:
            unattributed -= duration
    return dict(busy), dict(errors), unattributed
