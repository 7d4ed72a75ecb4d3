"""The flagship main-content extraction pipeline.

Every plan runs one loop, ``stages.assemble_docs`` over the span-capped
slices of ``stages.render_stage.render_slices`` (which ``page_range``
shares), and differs only in what feeds it. :func:`extract_hybrid`, the
planner for whole-document corpora, measures the corpus once and runs one
plan over all of it: ``map_batches(fused)``, ``assemble_docs`` per batch
with no shuffle, or, when one read block would be the map's critical path,
:func:`extract`:

    corpus (doc_id, spans)
      -> map_batches(_tag_buckets)                   # + bucket column
      -> groupby(bucket).map_groups(assemble_bucket) # assemble_docs per bucket
      -> Dataset[DOC_RESULT]                         # all outputs, one row/doc

``extract`` is also the plan for a corpus that may be fragmented (a doc
split over several corpus rows, found by :func:`fragmented_doc_ids`): its
groupby merges the fragments. The shuffle moves corpus rows (one per doc,
or per fragment of a doc), never rendered page rows: render and assembly
each run once per doc in one task, so a page-row fan-out would split no
work and move a row per page.

Projections (:func:`toc_table` etc.) turn the combined result into the
reference's four logical output tables (SURVEY.md §1.2) as streaming
transforms in Arrow (:func:`flat_spans`, :func:`toc_table` and
:func:`sections_table` explode a list column through one ``_explode``,
:func:`metadata_table` flattens the metadata struct); consuming several
of them re-executes the upstream unless the caller materializes or
(preferred) reads back a written extraction.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Collection, Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_parser_ray.schemas import (
    METADATA_SCHEMA,
    SECTIONS_SCHEMA,
    SPAN_FLAT_SCHEMA,
    TOC_SCHEMA,
)
from pdf_parser_ray.stages.assemble_stage import assemble_bucket, assemble_docs
from pdf_parser_ray.stages.render_stage import (
    DEFAULT_N_BUCKETS,
    _span_counts,
    bucket_of,
    render_pages,
)

# whole docs per batch of extract_hybrid's map and of page_rows. SLICE_SPANS
# bounds the spans a task decodes, but Ray buffers the page rows a render_pages
# task emits into one output block (up to 128 MiB), so page_rows keeps small
# batches
FUSED_BATCH_DOCS = 256
RENDER_BATCH_DOCS = 32

logger = logging.getLogger("pdf_parser_ray")


def page_rows(
    corpus_ds: ray.data.Dataset, n_buckets: int = DEFAULT_N_BUCKETS
) -> ray.data.Dataset:
    """Rendered per-page rows (``page_range``'s source) as elastic tasks
    (stateless — regex banks warm at module import)."""
    return corpus_ds.map_batches(
        render_pages,
        fn_kwargs={"n_buckets": n_buckets},
        batch_format="pyarrow",
        batch_size=RENDER_BATCH_DOCS,
    )


def _tag_buckets(
    batch: pa.Table, n_buckets: int, skip: frozenset[int]
) -> pa.Table:
    """corpus batch -> (doc_id: string, spans, bucket: int32) rows, without
    the rows of the ``skip`` buckets. The spans column passes through
    as-is; doc_ids take their ``str`` form, the key every route buckets
    and assembles by."""
    ids = [str(d) for d in batch["doc_id"].to_pylist()]
    bucket = pa.array([bucket_of(d, n_buckets) for d in ids], pa.int32())
    out = pa.table(
        {"doc_id": pa.array(ids, pa.string()), "spans": batch["spans"], "bucket": bucket}
    )
    if skip:
        done = pa.array(sorted(skip), pa.int32())
        out = out.filter(pa.compute.invert(pa.compute.is_in(bucket, value_set=done)))
    return out


def _per_bucket(
    corpus_ds: ray.data.Dataset,
    n_buckets: int,
    fn: Callable[..., pa.Table],
    skip_buckets: Collection[int] = (),
    **fn_kwargs: Any,
) -> ray.data.Dataset:
    """The shuffled plan behind ``extract`` and ``state.run_extraction``:
    corpus rows tagged with their bucket (rows of ``skip_buckets`` dropped)
    -> groupby(bucket) -> ``fn(group, n_buckets=n_buckets, **fn_kwargs)``
    per bucket, which renders and assembles the bucket's docs in-process."""
    return (
        corpus_ds.map_batches(
            _tag_buckets,
            fn_kwargs={"n_buckets": n_buckets, "skip": frozenset(skip_buckets)},
            batch_format="pyarrow",
            batch_size=None,
        )
        .groupby("bucket")
        .map_groups(fn, fn_kwargs=dict(fn_kwargs, n_buckets=n_buckets), batch_format="pyarrow")
    )


def extract(
    corpus_ds: ray.data.Dataset,
    n_buckets: int = DEFAULT_N_BUCKETS,
    strip_boilerplate: bool = True,
) -> ray.data.Dataset:
    """Standard two-stage extraction with the groupby reassembly shuffle.

    Accepts fragmented documents: a doc may arrive as MULTIPLE corpus rows
    (page-aligned span ranges carrying global page numbers) — the groupby
    merges all fragments of a doc_id before assembly, so a document larger
    than a storage block splits cleanly upstream
    (tests/test_pipeline_ray.py::test_doc_split_across_corpus_rows).
    Precondition on fragments: page-aligned splits carrying global page
    numbers, with no page number repeated ACROSS fragments (within one
    fragment duplicates are ordered by page_order). ``extract_hybrid``
    requires whole-doc rows."""
    return _per_bucket(
        corpus_ds, n_buckets, assemble_bucket, strip_boilerplate=strip_boilerplate
    )


def fragmented_doc_ids(
    ds: ray.data.Dataset, id_col: str = "doc_id"
) -> ray.data.Dataset:
    """(doc_id: string, n) rows for every doc_id spanning multiple corpus
    rows — the exact distributed fragmentation census behind
    :func:`assert_whole_doc_rows`. A corpus for which it is non-empty runs
    through :func:`extract`, whose groupby merges fragments.

    Cost shape: per-batch partial id-counts, then one coarse-bucket groupby
    over (id, n) rows — ids and small ints shuffle, never span payloads."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = pa.compute.cast(batch[id_col], pa.string())
        counts = pa.compute.value_counts(ids)
        vals = counts.field("values")
        from pdf_parser_ray.functions.hashing import md5_bucket

        hashes = [md5_bucket(str(v), 64) for v in vals.to_pylist()]
        return pa.table(
            {
                "doc_id": vals,
                "n": pa.compute.cast(counts.field("counts"), pa.int64()),
                "_b": pa.array(hashes, pa.int64()),
            }
        )

    def dups(group: pa.Table) -> pa.Table:
        agg = group.group_by("doc_id").aggregate([("n", "sum")])
        agg = agg.filter(pa.compute.greater(agg["n_sum"], 1))
        return pa.table({"doc_id": agg["doc_id"], "n": agg["n_sum"]})

    return (
        ds.select_columns([id_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(dups, batch_format="pyarrow")
    )


def assert_whole_doc_rows(ds: ray.data.Dataset, id_col: str = "doc_id") -> None:
    """Raise if any doc_id spans multiple corpus rows: the exact,
    corpus-wide check before :func:`extract_hybrid`, whose map raises only
    on fragments that share a batch."""
    offenders = fragmented_doc_ids(ds, id_col).limit(5).take_all()
    if offenders:
        sample = ", ".join(f"{r['doc_id']}×{r['n']}" for r in offenders)
        raise ValueError(
            "fragmented corpus: doc_ids appear in multiple rows "
            f"(e.g. {sample}); extract_hybrid requires whole-document rows "
            "— use extract() for fragmented corpora"
        )


def _size_census(ds: ray.data.Dataset, threshold: int) -> tuple[int, int]:
    """(the most spans one read block holds in rows above ``threshold``
    spans, the corpus's total spans), from one pass over the span lengths."""

    def count(block: pa.Table) -> pa.Table:
        n = _span_counts(block)
        giant = pa.compute.if_else(pa.compute.greater(n, threshold), n, 0)
        sums = [pa.compute.sum(c, min_count=0).as_py() for c in (giant, n)]
        return pa.table({"giant": sums[:1], "spans": sums[1:]})

    parts = (
        ds.select_columns(["spans"])
        .map_batches(count, batch_format="pyarrow", batch_size=None)
        .take_all()  # one row per read block
    )
    return max((r["giant"] for r in parts), default=0), sum(r["spans"] for r in parts)


def extract_hybrid(
    corpus_factory,
    n_buckets: int = DEFAULT_N_BUCKETS,
    strip_boilerplate: bool = True,
    giant_span_threshold: int = 512,
) -> ray.data.Dataset:
    """Skew-aware flagship for whole-document corpora: one plan for the
    whole corpus.

    The plan is a map with no data movement, ``assemble_docs`` over each
    batch of ``FUSED_BATCH_DOCS`` docs, unless one read block would be the
    map's critical path: when the heaviest block's spans in rows above
    ``giant_span_threshold``, times the session's CPUs, exceed the corpus's
    total spans (one census pass, run eagerly when this is called), the
    corpus runs through ``extract()``, whose groupby(bucket) shuffle
    scatters those giants over tasks by hash. Either way a doc is rendered
    and assembled inside one task, as the reference's PageManager dict
    (page_manager.py:20-27) never leaves one process for a document. The
    choice and the numbers behind it go to the ``pdf_parser_ray`` logger at
    INFO.

    ``corpus_factory``: a zero-arg callable returning the corpus Dataset,
    or a Dataset. It is called once: the census and the plan both branch
    lazily from that one Dataset, so a ``read_parquet`` plans its read (file
    listing, metadata, sampling) once. Each pass still executes the
    upstream, i.e. scans the source.

    The map REQUIRES whole-document rows (a fragmented doc's fragments would
    be assembled independently into duplicate doc_id rows). It raises on a
    duplicate doc_id within a batch, which catches adjacent fragments, the
    common writer pattern. For a corpus that may be fragmented, check it
    with :func:`assert_whole_doc_rows`, or run :func:`extract` when
    :func:`fragmented_doc_ids` is non-empty.
    """
    corpus = corpus_factory() if callable(corpus_factory) else corpus_factory
    heaviest, total = _size_census(corpus, giant_span_threshold)
    cpus = ray.cluster_resources()["CPU"]
    plan = "extract" if heaviest * cpus > total else "fused"
    logger.info(
        "extract_hybrid plan=%s: heaviest block's giant spans %d, total spans "
        "%d, %g CPUs, giant_span_threshold %d",
        plan, heaviest, total, cpus, giant_span_threshold,
    )
    if plan == "extract":
        return extract(corpus, n_buckets, strip_boilerplate)

    def fused(batch: pa.Table) -> pa.Table:
        ids = [str(d) for d in batch["doc_id"].to_pylist()]
        if len(set(ids)) != len(ids):
            seen: set = set()
            dup = next(d for d in ids if d in seen or seen.add(d))
            raise ValueError(
                f"extract_hybrid requires whole-document rows; doc_id {dup!r} "
                "appears in multiple corpus rows (fragmented corpus) — use "
                "extract(), whose groupby merges fragments. This batch-level "
                "check catches adjacent fragments; use "
                "assert_whole_doc_rows() for a corpus-wide guarantee."
            )
        return assemble_docs(batch, n_buckets, strip_boilerplate)

    return corpus.map_batches(fused, batch_format="pyarrow", batch_size=FUSED_BATCH_DOCS)


# ---- projections to the reference's logical output tables -----------------


def spans_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, spans) — the north-invariant output table."""
    return doc_results.select_columns(["doc_id", "spans"])


def _struct_rows(doc_ids: Any, structs: Any, schema: pa.Schema) -> pa.Table:
    """``schema``'s rows: each doc_id, then the fields of its struct that
    ``schema`` names after doc_id, cast to ``schema``; a null struct gives
    nulls."""
    names = schema.names[1:]
    fields = [pc.struct_field(structs, name) for name in names]
    return pa.table([doc_ids, *fields], names=["doc_id", *names]).cast(schema)


def _explode(
    doc_results: ray.data.Dataset, column: str, schema: pa.Schema
) -> ray.data.Dataset:
    """One ``schema`` row per entry of the list column ``column``, through
    Arrow list kernels (no Python per-entry loop); a null list gives no
    rows."""

    def explode(batch: pa.Table) -> pa.Table:
        # list_flatten skips a null list's child values, list_parent_indices
        # counts them: drop null lists first
        batch = batch.filter(pc.is_valid(batch[column]))
        lists = batch[column]
        doc_ids = batch["doc_id"].take(pc.list_parent_indices(lists))
        return _struct_rows(doc_ids, pc.list_flatten(lists), schema)

    return doc_results.map_batches(explode, batch_format="pyarrow")


def flat_spans(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Exploded span rows (doc_id, offset, kind, text, media_ref)."""
    return _explode(doc_results, "spans", SPAN_FLAT_SCHEMA)


def page_range(
    corpus_ds: ray.data.Dataset,
    start_page: int = 1,
    end_page: Optional[int] = None,
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> ray.data.Dataset:
    """Page-range reader (reference extractor.py:116-148, S2): rendered page
    rows restricted to the inclusive range with an Arrow predicate after the
    page fan-out. Pages are 1-indexed by default; ``start_page=0`` keeps a
    genuine page 0. An empty or failed doc's ``page=-1`` marker row is never
    in range, so any ``start_page >= 0`` returns real pages only."""
    rows = page_rows(corpus_ds, n_buckets)

    def cut(batch: pa.Table) -> pa.Table:
        mask = pa.compute.greater_equal(batch["page"], start_page)
        if end_page is not None:
            mask = pa.compute.and_(
                mask, pa.compute.less_equal(batch["page"], end_page)
            )
        return batch.filter(mask)

    return rows.map_batches(cut, batch_format="pyarrow")


def toc_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Per-entry TOC rows (reference usb_pd_toc.jsonl shape + doc_id)."""
    return _explode(doc_results, "toc", TOC_SCHEMA)


def sections_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Per-section rows (reference usb_pd_spec.jsonl shape + doc_id)."""
    return _explode(doc_results, "sections", SECTIONS_SCHEMA)


def metadata_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """One metadata row per document (reference usb_pd_metadata.jsonl)."""

    def project(batch: pa.Table) -> pa.Table:
        return _struct_rows(batch["doc_id"], batch["metadata"], METADATA_SCHEMA)

    return doc_results.map_batches(project, batch_format="pyarrow")


def stats_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Per-document coverage/count metrics (validation-report equivalent)."""
    return doc_results.select_columns(
        [
            "doc_id",
            "total_pages",
            "pages_with_text",
            "pages_with_tables",
            "pages_with_images",
            "pages_with_annotations",
            "pages_with_layout",
            "n_toc_entries",
            "n_sections",
            "n_spans",
            "toc_covered_pages",
            "page_coverage_pct",
            "toc_coverage_pct",
            "parse_failure",
        ]
    )
