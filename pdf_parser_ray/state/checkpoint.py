"""Resumable, per-partition-checkpointed extraction runs.

Layout under ``output_dir``::

    bucket=<i>/data.parquet      # DOC_RESULT rows of partition i (atomic rename)
    _manifest/bucket_<i>.json    # lineage + counters, written AFTER the data

A bucket is complete iff its manifest exists; a resumed run drops completed
buckets with a pushed-down filter on the corpus (documents are hashed to
buckets deterministically by doc_id, so the filter needs no state from the
failed run). This is the north rule's "resumable from checkpoint with
per-partition lineage and metrics": the manifest rows double as the metrics
table (docs parsed, spans emitted, parse failures, pages processed).

The reference's closest analogue is its JSONL stage files acting as coarse
whole-run checkpoints (section_parser.py:89-107); here granularity is the
hash partition so a 100 TB run loses at most one bucket of work.
"""

from __future__ import annotations

import json
import os
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from pdf_parser_ray.schemas import PARTITION_METRICS_SCHEMA
from pdf_parser_ray.pipelines.extract import _per_bucket
from pdf_parser_ray.stages.assemble_stage import assemble_bucket
from pdf_parser_ray.stages.render_stage import DEFAULT_N_BUCKETS, bucket_of
from pdf_parser_ray.state.fragments import write_json_atomic

MANIFEST_DIR = "_manifest"
# per-partition counters, summed into every run summary
COUNTERS = ("docs_parsed", "spans_emitted", "parse_failures", "pages_processed")


def _manifest_path(output_dir: str, bucket: int) -> str:
    return os.path.join(output_dir, MANIFEST_DIR, f"bucket_{bucket}.json")


def completed_buckets(output_dir: str) -> set[int]:
    """Bucket ids whose manifest exists (complete partitions)."""
    mdir = os.path.join(output_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.startswith("bucket_") and name.endswith(".json"):
            try:
                out.add(int(name[len("bucket_") : -len(".json")]))
            except ValueError:
                continue
    return out


def write_bucket(
    group: pa.Table, output_dir: str, strip_boilerplate: bool = True
) -> pa.Table:
    """``run_extraction``'s per-bucket step: assemble, write the data
    atomically, then the manifest; returns the PARTITION_METRICS row."""
    result = assemble_bucket(group, strip_boilerplate)
    if result.num_rows == 0:
        # never guess a bucket id for an empty group — writing a default
        # would clobber a real bucket's data with an empty file
        return pa.Table.from_pylist([], schema=PARTITION_METRICS_SCHEMA)
    bucket = int(result["bucket"][0].as_py())
    bucket_dir = os.path.join(output_dir, f"bucket={bucket}")
    os.makedirs(bucket_dir, exist_ok=True)
    tmp = os.path.join(bucket_dir, ".data.parquet.tmp")
    pq.write_table(result, tmp)
    os.replace(tmp, os.path.join(bucket_dir, "data.parquet"))
    metrics = {
        "bucket": bucket,
        "docs_parsed": result.num_rows,
        "spans_emitted": int(pa.compute.sum(result["n_spans"]).as_py() or 0),
        "parse_failures": int(
            pa.compute.sum(pa.compute.cast(result["parse_failure"], pa.int64())).as_py() or 0
        ),
        "pages_processed": int(pa.compute.sum(result["total_pages"]).as_py() or 0),
    }
    write_json_atomic(_manifest_path(output_dir, bucket), metrics)
    return pa.Table.from_pylist([metrics], schema=PARTITION_METRICS_SCHEMA)


def run_extraction(
    corpus_ds: ray.data.Dataset,
    output_dir: str,
    n_buckets: int = DEFAULT_N_BUCKETS,
    strip_boilerplate: bool = True,
    resume: bool = True,
) -> dict[str, Any]:
    """Run (or resume) the flagship extraction, writing per-bucket parquet +
    manifests. Returns a summary dict with aggregate counters."""
    os.makedirs(os.path.join(output_dir, MANIFEST_DIR), exist_ok=True)
    run_manifest = os.path.join(output_dir, MANIFEST_DIR, "run.json")
    if resume and os.path.exists(run_manifest):
        with open(run_manifest) as f:
            prior = json.load(f)
        if prior.get("n_buckets") != n_buckets:
            # resuming with a different bucket count would drop every doc
            # whose OLD bucket is marked done but whose NEW bucket differs
            raise ValueError(
                f"resume n_buckets={n_buckets} does not match the original "
                f"run's n_buckets={prior.get('n_buckets')} for {output_dir}; "
                "use the original value or a fresh output dir"
            )
    write_json_atomic(run_manifest, {"n_buckets": n_buckets})
    done = completed_buckets(output_dir) if resume else set()
    if not resume:
        # a fresh run invalidates any previous partial state
        for b in completed_buckets(output_dir):
            os.remove(_manifest_path(output_dir, b))

    ds = corpus_ds
    if done:
        done_snapshot = frozenset(done)
        nb = n_buckets

        def drop_done(batch: pa.Table) -> pa.Table:
            keep = [
                bucket_of(str(d), nb) not in done_snapshot
                for d in batch["doc_id"].to_pylist()
            ]
            return batch.filter(pa.array(keep))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")

    metrics = _per_bucket(  # tiny: one row per bucket
        ds, n_buckets, write_bucket, output_dir=output_dir, strip_boilerplate=strip_boilerplate
    ).to_pandas()

    return {
        "output_dir": output_dir,
        "buckets_completed_now": len(metrics),
        "buckets_skipped_resume": len(done),
        **{k: int(metrics[k].sum()) if len(metrics) else 0 for k in COUNTERS},
    }


def read_extraction(output_dir: str) -> ray.data.Dataset:
    """Stream back a written extraction (all completed buckets)."""
    paths = [
        os.path.join(output_dir, f"bucket={b}", "data.parquet")
        for b in sorted(completed_buckets(output_dir))
    ]
    return ray.data.read_parquet(paths)


def read_metrics(output_dir: str) -> list[dict[str, Any]]:
    """The per-partition lineage/metrics rows."""
    out = []
    for b in sorted(completed_buckets(output_dir)):
        with open(_manifest_path(output_dir, b)) as f:
            out.append(json.load(f))
    return out

