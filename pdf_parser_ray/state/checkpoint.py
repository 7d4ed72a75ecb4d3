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
import shutil
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from pdf_parser_ray.schemas import PARTITION_METRICS_SCHEMA
from pdf_parser_ray.pipelines.extract import _per_bucket
from pdf_parser_ray.stages.assemble_stage import assemble_bucket
from pdf_parser_ray.stages.render_stage import bucket_of
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
    n_buckets: int = 64,
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


# ---- shard-level checkpointing for the map-only (no-shuffle) path ---------


def _shard_groups(files: list[str], files_per_shard: int) -> list[list[str]]:
    return [
        files[i : i + files_per_shard]
        for i in range(0, len(files), files_per_shard)
    ]


def run_extraction_sharded(
    input_files: list[str],
    output_dir: str,
    files_per_shard: int = 8,
    giant_span_threshold: int = 512,
    n_buckets: int = 64,
    strip_boilerplate: bool = True,
    resume: bool = True,
) -> dict[str, Any]:
    """Skew-aware, resumable extraction over an input file list.

    Whole-doc rows (<= ``giant_span_threshold`` spans) process map-only per
    input SHARD (a group of files): each shard writes ``shard=<i>/`` plus a
    manifest, so resume granularity is the shard and nothing shuffles. The
    giant-doc tail from ALL files goes through the bucketed groupby path
    (``run_extraction``) into ``giant/`` with its own per-bucket manifests.
    This is the checkpointed form of ``pipelines.extract_hybrid``: at corpus
    scale the shuffle moves only the skew tail while the bulk path commits
    per input shard ("one output directory per input shard", resumable).

    REQUIRES whole-document rows (like extract_hybrid): fragments of one
    document in different rows would assemble independently on the map-only
    path — fragmented corpora go through ``run_extraction``.

    Shards execute SEQUENTIALLY on purpose: a shard is the commit unit and
    at corpus scale each one is minutes of work, so per-execution driver
    overhead is noise — unlike the band store's many small fragments,
    which state/fragments.py batches into chunked unions. Size
    ``files_per_shard`` so a shard stays minutes-big; don't shrink it to
    seconds-big and reintroduce the sequential-driver bottleneck.
    """
    from pdf_parser_ray.pipelines.extract import extract_fused, split_by_span_count

    os.makedirs(os.path.join(output_dir, MANIFEST_DIR), exist_ok=True)
    shards = _shard_groups(sorted(input_files), files_per_shard)

    def shard_manifest(i: int) -> str:
        return os.path.join(output_dir, MANIFEST_DIR, f"shard_{i}.json")

    totals = dict.fromkeys(COUNTERS, 0)
    totals.update(shards_completed_now=0, shards_skipped_resume=0)
    for i, shard_files in enumerate(shards):
        if resume and os.path.exists(shard_manifest(i)):
            with open(shard_manifest(i)) as f:
                recorded = json.load(f).get("input_files")
            if recorded != shard_files:
                # shard indices are positional: a changed file list or
                # files_per_shard shifts them, so skipping by index alone
                # would silently drop/duplicate documents
                raise ValueError(
                    f"shard {i} manifest was written for input files "
                    f"{recorded} but this run assigns {shard_files}; the "
                    "input list/sharding changed — use a fresh output dir"
                )
            totals["shards_skipped_resume"] += 1
            continue
        ds = split_by_span_count(
            ray.data.read_parquet(shard_files), giant_span_threshold, giant=False
        )
        from ray.data.aggregate import Count, Sum

        results = extract_fused(ds, n_buckets, strip_boilerplate)
        shard_dir = os.path.join(output_dir, f"shard={i}")
        shutil.rmtree(shard_dir, ignore_errors=True)
        results.write_parquet(shard_dir)
        if os.path.isdir(shard_dir):
            stats = ray.data.read_parquet(shard_dir).aggregate(
                Count(alias_name="n_rows"),
                Sum("n_spans", alias_name="n_spans"),
                Sum("parse_failure", alias_name="parse_failures"),
                Sum("total_pages", alias_name="total_pages"),
            )
        else:
            # a shard whose docs are all above the giant threshold writes
            # nothing (they flow through the giant branch below) — still a
            # completed shard with zero counters
            stats = {}
        n_rows = int(stats.get("n_rows") or 0)
        manifest = {
            "shard": i,
            "input_files": shard_files,
            "docs_parsed": n_rows,
            "spans_emitted": int(stats.get("n_spans") or 0),
            "parse_failures": int(stats.get("parse_failures") or 0),
            "pages_processed": int(stats.get("total_pages") or 0),
        }
        write_json_atomic(shard_manifest(i), manifest)
        totals["shards_completed_now"] += 1
        for k in COUNTERS:
            totals[k] += manifest[k]

    giant_ds = split_by_span_count(
        ray.data.read_parquet(sorted(input_files)), giant_span_threshold, giant=True
    )
    giant_summary = run_extraction(
        giant_ds,
        os.path.join(output_dir, "giant"),
        n_buckets=n_buckets,
        strip_boilerplate=strip_boilerplate,
        resume=resume,
    )
    totals["giant"] = giant_summary
    totals["output_dir"] = output_dir
    return totals


def read_sharded_extraction(output_dir: str) -> ray.data.Dataset:
    """Stream back a sharded extraction (all completed shards + giants)."""
    paths = []
    mdir = os.path.join(output_dir, MANIFEST_DIR)
    for name in sorted(os.listdir(mdir)):
        if name.startswith("shard_"):
            with open(os.path.join(mdir, name)) as f:
                shard = json.load(f)["shard"]
            p = os.path.join(output_dir, f"shard={shard}")
            if os.path.isdir(p):  # all-giant shards write no map-only data
                paths.append(p)
    giant_dir = os.path.join(output_dir, "giant")
    datasets = [ray.data.read_parquet(p) for p in paths]
    if os.path.isdir(giant_dir) and completed_buckets(giant_dir):
        datasets.append(read_extraction(giant_dir))
    if not datasets:
        from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA

        return ray.data.from_arrow(pa.Table.from_pylist([], schema=DOC_RESULT_SCHEMA))
    ds = datasets[0]
    for other in datasets[1:]:
        ds = ds.union(other)
    return ds
