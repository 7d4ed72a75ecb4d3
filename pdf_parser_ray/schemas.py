"""Explicit Arrow schemas for every table that crosses a stage boundary.

The reference's schema is implicit dict shape (SURVEY.md §1.1); here each
stage declares its output schema up front so blocks are typed end-to-end and
``map_batches(batch_format="pyarrow")`` stays zero-copy.
"""

from __future__ import annotations

import pyarrow as pa

# ---- corpus input (BASELINE.json input_hint / FIXTURES.md F1) -------------
SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
CORPUS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN_STRUCT))])

# ---- inter-stage page row (chunk renderer -> doc assembler) ---------------
NONTEXT_SPAN_STRUCT = pa.struct(
    [("kind", pa.string()), ("text", pa.string()), ("media_ref", pa.string())]
)
PAGE_ROW_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("bucket", pa.int32()),
        ("page", pa.int32()),
        # position of the page within its source row's span order: the sort
        # tiebreak that keeps duplicate page numbers deterministic across
        # the shuffle (the oracle's stable sort preserves offset order)
        ("page_order", pa.int32()),
        ("text", pa.string()),
        ("rendered", pa.string()),
        ("nontext_spans", pa.list_(NONTEXT_SPAN_STRUCT)),
        ("n_tables", pa.int32()),
        ("n_images", pa.int32()),
        ("n_annotations", pa.int32()),
        ("n_layout_lines", pa.int32()),
        ("coverage_score", pa.float64()),
        ("parse_failure", pa.bool_()),
    ]
)

# ---- outputs --------------------------------------------------------------
# flat (exploded) span rows — useful for SQL-oracle comparisons
SPAN_FLAT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("offset", pa.int32()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
    ]
)

TOC_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("doc_title", pa.string()),
        ("section_id", pa.string()),
        ("title", pa.string()),
        ("page", pa.int32()),
        ("level", pa.int32()),
        ("parent_id", pa.string()),
        ("full_path", pa.string()),
        ("tags", pa.list_(pa.string())),
    ]
)

SECTIONS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("doc_title", pa.string()),
        ("section_id", pa.string()),
        ("title", pa.string()),
        ("full_path", pa.string()),
        ("page", pa.int32()),
        ("level", pa.int32()),
        ("parent_id", pa.string()),
        ("content", pa.string()),
        ("tags", pa.list_(pa.string())),
    ]
)

METADATA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("doc_title", pa.string()),
        ("revision", pa.string()),
        ("version", pa.string()),
        ("release_date", pa.string()),
    ]
)

# ---- combined per-document result (one shuffle, all outputs) --------------
TOC_ENTRY_STRUCT = pa.struct(
    [
        ("doc_title", pa.string()),
        ("section_id", pa.string()),
        ("title", pa.string()),
        ("page", pa.int32()),
        ("level", pa.int32()),
        ("parent_id", pa.string()),
        ("full_path", pa.string()),
        ("tags", pa.list_(pa.string())),
    ]
)
SECTION_STRUCT = pa.struct(
    [
        ("doc_title", pa.string()),
        ("section_id", pa.string()),
        ("title", pa.string()),
        ("full_path", pa.string()),
        ("page", pa.int32()),
        ("level", pa.int32()),
        ("parent_id", pa.string()),
        ("content", pa.string()),
        ("tags", pa.list_(pa.string())),
    ]
)
METADATA_STRUCT = pa.struct(
    [
        ("doc_title", pa.string()),
        ("revision", pa.string()),
        ("version", pa.string()),
        ("release_date", pa.string()),
    ]
)
DOC_RESULT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("bucket", pa.int32()),
        ("metadata", METADATA_STRUCT),
        ("toc", pa.list_(TOC_ENTRY_STRUCT)),
        ("sections", pa.list_(SECTION_STRUCT)),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("total_pages", pa.int32()),
        ("pages_with_text", pa.int32()),
        ("pages_with_tables", pa.int32()),
        ("pages_with_images", pa.int32()),
        ("pages_with_annotations", pa.int32()),
        ("pages_with_layout", pa.int32()),
        ("n_toc_entries", pa.int32()),
        ("n_sections", pa.int32()),
        ("n_spans", pa.int32()),
        ("toc_covered_pages", pa.int32()),
        ("page_coverage_pct", pa.float64()),
        ("toc_coverage_pct", pa.float64()),
        ("parse_failure", pa.bool_()),
    ]
)

# per-partition lineage/metrics rows (north rule: counters per partition)
PARTITION_METRICS_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("docs_parsed", pa.int64()),
        ("spans_emitted", pa.int64()),
        ("parse_failures", pa.int64()),
        ("pages_processed", pa.int64()),
    ]
)
