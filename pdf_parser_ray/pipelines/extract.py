"""The flagship main-content extraction pipeline.

Every route runs the same two per-document functions —
``render_doc`` (spans -> page rows) and ``assemble_doc_rows`` (page rows ->
one DOC_RESULT row) — and differs only in what sits between them:

    corpus (doc_id, spans)
      -> map_batches(_tag_buckets)                   # + bucket column
      -> groupby(bucket).map_groups(assemble_bucket) # render + assemble per doc
      -> Dataset[DOC_RESULT]                         # all outputs, one row/doc

The shuffle moves corpus rows (one per doc, or per fragment of a doc),
never rendered page rows: render and assembly each run once per doc in one
task, so a page-row fan-out would split no work and move a row per page.

``extract_fused`` is the no-shuffle fast path for when corpus rows are whole
documents (the common read_lance layout): render + assemble inside one
``map_batches`` — identical rows, verified equal in tests.

Projections (:func:`toc_table` etc.) turn the combined result into the
reference's four logical output tables (SURVEY.md §1.2) as streaming
transforms; consuming several of them re-executes the upstream unless the
caller materializes or (preferred) reads back a written extraction.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Optional

import pyarrow as pa
import ray.data

from pdf_parser_ray.schemas import (
    DOC_RESULT_SCHEMA,
    METADATA_SCHEMA,
    SECTIONS_SCHEMA,
    SPAN_FLAT_SCHEMA,
    TOC_SCHEMA,
)
from pdf_parser_ray.stages.assemble_stage import assemble_bucket, assemble_doc_rows
from pdf_parser_ray.stages.render_stage import (
    DEFAULT_N_BUCKETS,
    bucket_of,
    decode_spans,
    render_doc,
    render_pages,
)

# whole documents per extract_fused batch: enough that Ray's per-batch
# cost is small next to the doclogic work. The hybrid flagship sends only
# docs of at most giant_span_threshold spans here, which bounds a batch's heap.
FUSED_BATCH_DOCS = 256
# documents per render_pages batch: bounds the page rows one task holds, so
# a run of multi-hundred-page docs can't blow a task's heap
RENDER_BATCH_DOCS = 32


def _span_counts(batch: pa.Table) -> pa.Array:
    """Spans per corpus row — the size-class measure. fill_null: a null
    ``spans`` cell counts 0 and lands in the small class (producing an
    empty/failure row downstream) rather than vanishing from both —
    Table.filter drops null-mask rows."""
    return pa.compute.list_value_length(batch["spans"]).fill_null(0)


def _split_by_span_count(
    ds: ray.data.Dataset, threshold: int, giant: bool
) -> ray.data.Dataset:
    """extract_hybrid's size-class filter: keep docs whose span count is
    above (``giant=True``) / at-or-below the threshold."""

    def keep(batch: pa.Table) -> pa.Table:
        n = _span_counts(batch)
        mask = (
            pa.compute.greater(n, threshold)
            if giant
            else pa.compute.less_equal(n, threshold)
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


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
    -> groupby(bucket) -> ``fn(group, **fn_kwargs)`` per bucket, which
    renders and assembles the bucket's docs in-process."""
    return (
        corpus_ds.map_batches(
            _tag_buckets,
            fn_kwargs={"n_buckets": n_buckets, "skip": frozenset(skip_buckets)},
            batch_format="pyarrow",
            batch_size=None,
        )
        .groupby("bucket")
        .map_groups(fn, fn_kwargs=fn_kwargs, batch_format="pyarrow")
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
    fragment duplicates are ordered by page_order). ``extract_fused`` /
    the small branch of ``extract_hybrid`` require whole-doc rows."""
    return _per_bucket(
        corpus_ds, n_buckets, assemble_bucket, strip_boilerplate=strip_boilerplate
    )


def extract_fused(
    corpus_ds: ray.data.Dataset,
    n_buckets: int = DEFAULT_N_BUCKETS,
    strip_boilerplate: bool = True,
) -> ray.data.Dataset:
    """No-shuffle fast path: whole-document rows rendered and assembled
    in-process, one stage."""

    def fused(batch: pa.Table) -> pa.Table:
        ids = [str(d) for d in batch["doc_id"].to_pylist()]
        if len(set(ids)) != len(ids):
            seen: set = set()
            dup = next(d for d in ids if d in seen or seen.add(d))
            raise ValueError(
                f"extract_fused requires whole-document rows; doc_id {dup!r} "
                "appears in multiple corpus rows (fragmented corpus) — use "
                "extract(), whose groupby merges fragments. This block-level "
                "check catches adjacent fragments; use "
                "assert_whole_doc_rows() for a corpus-wide guarantee."
            )
        out = [
            assemble_doc_rows(
                doc_id,
                render_doc(doc_id, spans, bucket_of(doc_id, n_buckets)),
                strip_boilerplate,
            )
            for doc_id, spans in zip(ids, decode_spans(batch["spans"]))
        ]
        return pa.Table.from_pylist(out, schema=DOC_RESULT_SCHEMA)

    return corpus_ds.map_batches(
        fused, batch_format="pyarrow", batch_size=FUSED_BATCH_DOCS
    )


def fragmented_doc_ids(
    ds: ray.data.Dataset, id_col: str = "doc_id"
) -> ray.data.Dataset:
    """(doc_id: string, n) rows for every doc_id spanning multiple corpus
    rows — the exact distributed fragmentation census behind both
    :func:`assert_whole_doc_rows` and extract_hybrid's ``route`` policy.

    Cost shape: per-batch partial id-counts, then one coarse-bucket groupby
    over (id, n) rows — ids and small ints shuffle, never span payloads."""
    import pandas as pd

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

    def dups(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby("doc_id", as_index=False)["n"].sum()
        return agg[agg["n"] > 1][["doc_id", "n"]]

    from pdf_parser_ray.functions.tables import schema_pin

    return (
        ds.select_columns([id_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(dups, batch_format="pandas")
        .map_batches(
            schema_pin(pa.schema([("doc_id", pa.string()), ("n", pa.int64())])),
            batch_format="pyarrow",
        )
    )


def assert_whole_doc_rows(ds: ray.data.Dataset, id_col: str = "doc_id") -> None:
    """Corpus-wide fragmentation guard for the fused/hybrid paths: raise if
    any doc_id spans multiple corpus rows.

    The free block-level check inside extract_fused catches adjacent
    fragments; this pass is the opt-in exact guarantee
    (``extract_hybrid(..., strict_fragment_check=True)``)."""
    offenders = fragmented_doc_ids(ds, id_col).limit(5).take_all()
    if offenders:
        sample = ", ".join(f"{r['doc_id']}×{r['n']}" for r in offenders)
        raise ValueError(
            "fragmented corpus: doc_ids appear in multiple rows "
            f"(e.g. {sample}); extract_fused/extract_hybrid require "
            "whole-document rows — use extract() for fragmented corpora"
        )


def _size_census(ds: ray.data.Dataset, threshold: int) -> tuple[int, int]:
    """(rows above ``threshold`` spans, rows at or below it) in one pass —
    the _split_by_span_count law, counted instead of filtered."""

    def count(batch: pa.Table) -> pa.Table:
        giant = pa.compute.sum(pa.compute.greater(_span_counts(batch), threshold))
        return pa.table(
            {"giant": [giant.as_py() or 0], "rows": [batch.num_rows]}
        )

    parts = (
        ds.select_columns(["spans"])
        .map_batches(count, batch_format="pyarrow")
        .take_all()  # one row per batch
    )
    giant = sum(r["giant"] for r in parts)
    return giant, sum(r["rows"] for r in parts) - giant


def extract_hybrid(
    corpus_factory,
    n_buckets: int = DEFAULT_N_BUCKETS,
    strip_boilerplate: bool = True,
    giant_span_threshold: int = 512,
    strict_fragment_check: bool = False,
    on_fragments: str = "raise",
) -> ray.data.Dataset:
    """Skew-aware flagship: shuffle ONLY what must move.

    Documents at or below ``giant_span_threshold`` spans are whole rows and
    process in place (``extract_fused`` — map-only, no data movement);
    larger documents go through ``extract``'s groupby(bucket) shuffle as
    their corpus rows and render inside their bucket task. At corpus
    scale this shuffles the heavy tail (a few percent of bytes) instead of
    the whole corpus — the same reason the reference's PageManager dict
    (page_manager.py:20-27) never leaves one process for a single document.

    The plan holds only the size classes the corpus holds. One census pass
    over the span counts (run eagerly, when this is called) counts the rows
    on each side of the threshold, and only non-empty branches are built:
    a corpus without giants is ``extract_fused`` alone — no Sort, no union
    — and one of only giants is ``extract`` alone. Only when both classes
    hold rows is each branch a size-filtered read of the source, and the
    two are unioned. The census is one more scan of the source: on a
    4-CPU VM it cost a 600-doc corpus with 6% giants about 11% of its
    wall time, and saved a 7,200-doc corpus without giants about a third.

    ``corpus_factory``: a zero-arg callable returning the corpus Dataset,
    or a Dataset. It is called once: the strict/route id-count pass, the
    census and every branch all branch lazily from that one Dataset, so a
    ``read_parquet`` plans its read (file listing, metadata, sampling)
    once. Each pass still executes the upstream, i.e. scans the source.

    REQUIRES whole-document rows: the size filter classifies per ROW, so a
    document fragmented across corpus rows would have its fragments
    assembled independently (duplicate doc_id results). Enforcement:
    extract_fused always raises on a duplicate doc_id within a batch (free,
    catches adjacent fragments, the common writer pattern), and
    ``on_fragments`` picks the corpus-wide policy:

    - ``"raise"`` (default): with ``strict_fragment_check=True``, run the
      exact distributed id-count pass (:func:`fragmented_doc_ids`) and
      fail loudly before any wrong row is produced.
    - ``"route"``: self-heal — ALWAYS runs the census (a routing request
      without it would silently emit duplicate doc_id rows): the
      fragmented doc_ids (at 100 TB, writers WILL split giant documents
      across storage blocks) detour through :func:`extract`, whose
      groupby merges fragments; whole-doc rows keep the map-only fast
      path. Output is identical to running the whole corpus through
      ``extract()``. The fragmented id set broadcasts via ray.put — it is
      the giant-doc tail (bounded fraction of docs), never corpus-sized;
      a corpus fragmented wholesale belongs on ``extract()``.
    """

    if on_fragments not in ("raise", "route"):
        raise ValueError(
            f"on_fragments must be 'raise' or 'route', got {on_fragments!r}"
        )
    corpus = corpus_factory() if callable(corpus_factory) else corpus_factory

    frag_ref = None
    if on_fragments == "route":
        # routing implies the census — a routing request without the exact
        # id-count pass would silently produce duplicate doc_id rows
        frag_ids = sorted(
            r["doc_id"]
            for r in fragmented_doc_ids(corpus).select_columns(["doc_id"]).take_all()
        )
        if frag_ids:
            frag_ref = ray.put(pa.array(frag_ids, pa.string()))
    elif strict_fragment_check:
        assert_whole_doc_rows(corpus)

    # fragment rows count too: a class holding only fragments builds a
    # branch that yields no rows, never drops one that holds whole docs
    n_giant, n_small = _size_census(corpus, giant_span_threshold)

    def only(ds: ray.data.Dataset, fragmented: bool) -> ray.data.Dataset:
        if frag_ref is None:
            return ds

        def f(batch: pa.Table, *, _ref=frag_ref) -> pa.Table:
            members = ray.get(_ref)  # plasma: one copy per node
            ids = pa.compute.cast(batch["doc_id"], pa.string())
            mask = pa.compute.is_in(ids, value_set=members)
            if not fragmented:
                mask = pa.compute.invert(mask)
            return batch.filter(mask)

        return ds.map_batches(f, batch_format="pyarrow")

    def whole_rows(giant: bool) -> ray.data.Dataset:
        ds = corpus
        if n_giant and n_small:
            ds = _split_by_span_count(ds, giant_span_threshold, giant)
        return only(ds, False)

    branches = []
    if n_small:
        branches.append(extract_fused(whole_rows(False), n_buckets, strip_boilerplate))
    if n_giant:
        branches.append(extract(whole_rows(True), n_buckets, strip_boilerplate))
    if frag_ref is not None:
        branches.append(extract(only(corpus, True), n_buckets, strip_boilerplate))
    if not branches:  # an empty corpus
        branches.append(extract_fused(corpus, n_buckets, strip_boilerplate))
    return branches[0].union(*branches[1:]) if len(branches) > 1 else branches[0]


# ---- projections to the reference's logical output tables -----------------


def spans_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, spans) — the north-invariant output table."""
    return doc_results.select_columns(["doc_id", "spans"])


def flat_spans(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Exploded span rows (doc_id, offset, kind, text, media_ref) — fully
    vectorized: Arrow list-flatten kernels, no Python per-row loop."""

    def explode(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths = pa.compute.list_value_length(spans).fill_null(0)
        doc_ids = batch["doc_id"]
        if isinstance(doc_ids, pa.ChunkedArray):
            doc_ids = doc_ids.combine_chunks()
        import numpy as np

        counts = lengths.to_numpy(zero_copy_only=False)
        repeated_ids = doc_ids.take(
            pa.array(np.repeat(np.arange(len(counts)), counts), pa.int64())
        )
        flat = pa.compute.list_flatten(spans)
        return pa.table(
            {
                "doc_id": repeated_ids,
                "offset": flat.field("offset"),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
            }
        ).cast(SPAN_FLAT_SCHEMA)

    return doc_results.map_batches(explode, batch_format="pyarrow")


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


def _explode_list_column(
    doc_results: ray.data.Dataset, column: str, schema: pa.Schema
) -> ray.data.Dataset:
    def explode(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, entries in zip(
            batch["doc_id"].to_pylist(), batch[column].to_pylist()
        ):
            for entry in entries or []:
                row = dict(entry)
                row["doc_id"] = doc_id
                rows.append(row)
        return pa.Table.from_pylist(rows, schema=schema)

    return doc_results.map_batches(explode, batch_format="pyarrow")


def toc_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Per-entry TOC rows (reference usb_pd_toc.jsonl shape + doc_id)."""
    return _explode_list_column(doc_results, "toc", TOC_SCHEMA)


def sections_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """Per-section rows (reference usb_pd_spec.jsonl shape + doc_id)."""
    return _explode_list_column(doc_results, "sections", SECTIONS_SCHEMA)


def metadata_table(doc_results: ray.data.Dataset) -> ray.data.Dataset:
    """One metadata row per document (reference usb_pd_metadata.jsonl)."""

    def project(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, meta in zip(
            batch["doc_id"].to_pylist(), batch["metadata"].to_pylist()
        ):
            row = dict(meta or {})
            row["doc_id"] = doc_id
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=METADATA_SCHEMA)

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
