"""Time the engine's extraction kernel, ``stages.assemble_docs``, on one core.

Usage::

    python scripts/kernel_profile.py <corpus_dir>

Reads the parquet corpus (doc_id, spans) under ``corpus_dir``, sorts it by
doc_id and runs the kernel over ``FUSED_BATCH_DOCS``-doc batches in this
process, pinned to one CPU, with ``ray.data`` imported so the heap is the
size of a Ray worker's. It runs the kernel's steps one at a time:

- ``read``: ``stages.render_stage.read_span_columns``, once per slice;
- ``render``: the rest of ``render_slices``, the page rows;
- ``assemble``: ``stages.assemble_doc_rows`` per doc;
- ``build``: the DOC_RESULT table of each slice (``Table.from_pylist``),

and checks that their result equals ``assemble_docs``'s. It prints the
process CPU time of each step in ms per doc, and the garbage collections
that ran during the timed passes and their time, by generation (median of
REPEATS passes after one warm-up pass). The last line is the same record
as JSON.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray.data  # noqa: E402,F401  (a worker's heap holds ray.data)

from pdf_parser_ray.pipelines.extract import FUSED_BATCH_DOCS  # noqa: E402
from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA  # noqa: E402
from pdf_parser_ray.stages import assemble_stage, render_stage  # noqa: E402

REPEATS = 3
STEPS = ("read", "render", "assemble", "build")


class GcClock:
    """Counts the collections that run while it is installed, and their
    time, by generation (a ``gc.callbacks`` entry)."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            generation = info["generation"]
            self.count[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._start

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)


def profile_pass(batches: list[pa.Table], n_buckets: int) -> tuple[dict, list[pa.Table]]:
    """One pass of the kernel's steps over ``batches``: CPU seconds per
    step, and each batch's DOC_RESULT table."""
    spent = dict.fromkeys(STEPS, 0.0)
    clock = time.process_time
    read = render_stage.read_span_columns

    def timed_read(spans):
        t0 = clock()
        out = read(spans)
        spent["read"] += clock() - t0
        return out

    outputs = []
    render_stage.read_span_columns = timed_read
    try:
        for batch in batches:
            parts = []
            slices = render_stage.render_slices(batch, n_buckets)
            while True:
                t0 = clock()
                docs = next(slices, None)
                t1 = clock()
                spent["render"] += t1 - t0
                if docs is None:
                    break
                rows = [assemble_stage.assemble_doc_rows(d, r) for d, r in docs]
                t2 = clock()
                parts.append(pa.Table.from_pylist(rows, schema=DOC_RESULT_SCHEMA))
                t3 = clock()
                spent["assemble"] += t2 - t1
                spent["build"] += t3 - t2
            outputs.append(pa.concat_tables(parts))
    finally:
        render_stage.read_span_columns = read
    spent["render"] -= spent["read"]
    return spent, outputs


def main(corpus_dir: str) -> dict:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    table = pq.read_table(corpus_dir).sort_by("doc_id")
    n_docs = table.num_rows
    n_buckets = render_stage.DEFAULT_N_BUCKETS
    batches = [table.slice(i, FUSED_BATCH_DOCS) for i in range(0, n_docs, FUSED_BATCH_DOCS)]

    want = [assemble_stage.assemble_docs(b, n_buckets) for b in batches]  # warm-up
    runs = []
    for _ in range(REPEATS):
        with GcClock() as gc_clock:
            spent, got = profile_pass(batches, n_buckets)
        if not all(g.equals(w) for g, w in zip(got, want)):
            raise SystemExit("the profiled steps differ from assemble_docs")
        runs.append((spent, gc_clock))

    pages = sum(t.num_rows for b in batches for t in render_stage.render_pages(b, n_buckets))
    record = {
        "corpus": corpus_dir,
        "docs": n_docs,
        "spans": pc.sum(pc.list_value_length(table["spans"])).as_py() or 0,
        "pages": pages,
        "cpu": cpu,
        "load_avg": os.getloadavg()[0],
        "repeats": REPEATS,
        "ms_per_doc": {
            step: statistics.median(s[step] for s, _ in runs) * 1e3 / n_docs for step in STEPS
        },
        "gc_collections": [statistics.median(g.count[i] for _, g in runs) for i in range(3)],
        "gc_s": [statistics.median(g.seconds[i] for _, g in runs) for i in range(3)],
    }
    record["ms_per_doc"]["total"] = sum(record["ms_per_doc"].values())
    return record


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    rec = main(sys.argv[1])
    print(f"{rec['docs']} docs, {rec['spans']} spans, {rec['pages']} pages; "
          f"CPU {rec['cpu']}, load average {rec['load_avg']:.2f}; "
          f"median of {rec['repeats']} passes")
    for step, ms in rec["ms_per_doc"].items():
        print(f"  {step:<9}{ms:8.4f} ms/doc")
    for i in range(3):
        print(f"  gc gen{i}  {rec['gc_collections'][i]:6g} collections {rec['gc_s'][i]:8.4f} s")
    print(json.dumps(rec))
