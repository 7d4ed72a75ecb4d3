"""In-memory span recorder and Ray Data stats capture for the traced run.

Spans are recorded by the benchmark around its own calls into each layer
(name, start, end, parent span, run id), kept in memory and written out with
the run record when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Iterator


class Tracer:
    """Span recorder for one timed run; a disabled tracer records nothing."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


# Dataset methods that execute a plan: the library's run_extraction consumes
# its internal dataset with one of these, so wrapping them is how the traced
# run reads Dataset.stats() of executions it cannot reach otherwise
_CONSUMERS = ("to_pandas", "take_all", "materialize", "write_parquet", "count")


@contextlib.contextmanager
def capture_stats(sink: list[str]) -> Iterator[None]:
    """Append ``Dataset.stats()`` of every plan executed inside the block
    (through the consumers above) to ``sink``."""
    from ray.data import Dataset

    originals = {name: getattr(Dataset, name) for name in _CONSUMERS}
    depth = [0]  # consumers call each other; record the outermost call only

    def wrap(name: str):
        original = originals[name]

        def consume(self, *args, **kwargs):
            depth[0] += 1
            try:
                result = original(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                sink.append(self.stats())
            return result

        return consume

    for name in _CONSUMERS:
        setattr(Dataset, name, wrap(name))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(Dataset, name, original)
