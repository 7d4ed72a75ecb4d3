"""Stage 2: per-doc assembly, in a bucket task or a map task.

:func:`assemble_doc_rows` is the ONE per-document assembly step and
:func:`assemble_docs` the one loop applying it to each ``render_slices``
slice: on whole-doc batches in ``extract_hybrid``'s map and on one bucket in
:func:`assemble_bucket`.

The shuffled routes group CORPUS rows (doc_id, spans, bucket) by
``bucket`` (= fnv1a_32(doc_id) % n_buckets) — the coarsened form of the
north rule's groupby(doc_id) aggregate-sort shuffle: every fragment of a
document lands in exactly one group, and the key cardinality stays bounded
so the sort-based shuffle moves fewer, larger partitions. A bucket task
sorts its group by doc_id, so a doc's fragments sit together, and runs
the order-dependent doc-level pipeline (metadata -> TOC -> sections ->
output spans) of :func:`pdf_parser_ray.doclogic.pipeline.assemble_document`.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from pdf_parser_ray.doclogic.pipeline import assemble_document
from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA
from pdf_parser_ray.stages.render_stage import render_slices


def doc_result_to_row(result: dict[str, Any], bucket: int, parse_failure: bool) -> dict[str, Any]:
    """Flatten a doclogic document result into a DOC_RESULT_SCHEMA row.

    The TOC entries and sections pass through as they are: each holds
    exactly its schema struct's fields (the doc_id lives on the row).
    """
    stats = result["stats"]
    return {
        "doc_id": result["doc_id"],
        "bucket": bucket,
        "metadata": result["metadata"],
        "toc": result["toc"],
        "sections": result["sections"],
        "spans": result["spans"],
        "total_pages": stats["total_pages"],
        "pages_with_text": stats["pages_with_text"],
        "pages_with_tables": stats["pages_with_tables"],
        "pages_with_images": stats["pages_with_images"],
        "pages_with_annotations": stats["pages_with_annotations"],
        "pages_with_layout": stats["pages_with_layout"],
        "n_toc_entries": stats["toc_entries"],
        "n_sections": stats["sections"],
        "n_spans": stats["spans_out"],
        "toc_covered_pages": stats["toc_covered_pages"],
        "page_coverage_pct": stats["page_coverage_pct"],
        "toc_coverage_pct": stats["toc_coverage_pct"],
        "parse_failure": parse_failure,
    }


def _empty_result(doc_id: str) -> dict[str, Any]:
    return {
        "doc_id": doc_id,
        "metadata": {
            "doc_title": "Unknown",
            "revision": "Unknown",
            "version": "Unknown",
            "release_date": "Unknown",
        },
        "toc": [],
        "sections": [],
        "spans": [],
        "stats": {
            "doc_id": doc_id,
            "total_pages": 0,
            "pages_with_text": 0,
            "pages_with_tables": 0,
            "pages_with_images": 0,
            "pages_with_annotations": 0,
            "pages_with_layout": 0,
            "toc_entries": 0,
            "sections": 0,
            "spans_out": 0,
            "toc_covered_pages": 0,
            "page_coverage_pct": 0.0,
            "toc_coverage_pct": 0.0,
        },
    }


def assemble_doc_rows(
    doc_id: str,
    rows: list[dict[str, Any]],
    strip_boilerplate: bool = True,
) -> dict[str, Any]:
    """Assemble one document from its page rows -> one DOC_RESULT row.

    Marker rows (page == -1, emitted for empty/failed docs by the renderer)
    carry the failure flag; real page rows (page >= 0, including genuine
    page-0 content) are assembled in page order. Assembly exceptions degrade
    to a parse_failure row, never a task crash.
    """
    bucket = rows[0].get("bucket", 0) if rows else 0
    failure = any(r.get("parse_failure") for r in rows)
    page_rows = [r for r in rows if r.get("page", -1) >= 0]
    if not page_rows:
        return doc_result_to_row(_empty_result(doc_id), bucket, failure)
    try:
        result = assemble_document(doc_id, page_rows, strip_boilerplate)
        return doc_result_to_row(result, bucket, failure)
    except Exception:
        return doc_result_to_row(_empty_result(doc_id), bucket, True)


def assemble_docs(
    batch: pa.Table, n_buckets: int, strip_boilerplate: bool = True
) -> pa.Table:
    """Corpus rows, each doc's rows next to each other -> one DOC_RESULT
    row per doc, one :func:`render_slices` slice at a time: the Python heap
    holds one slice's spans, pages and rows, never the whole batch."""
    parts = [
        pa.Table.from_pylist(
            [assemble_doc_rows(doc_id, rows, strip_boilerplate) for doc_id, rows in docs],
            schema=DOC_RESULT_SCHEMA,
        )
        for docs in render_slices(batch, n_buckets)
    ]
    return pa.concat_tables(parts) if parts else DOC_RESULT_SCHEMA.empty_table()


def assemble_bucket(
    group: pa.Table, n_buckets: int, strip_boilerplate: bool = True
) -> pa.Table:
    """map_groups function over one bucket group of corpus rows
    (doc_id, spans, bucket) -> one DOC_RESULT row per doc_id, in doc_id
    order (a stable sort, then :func:`assemble_docs`)."""
    return assemble_docs(group.sort_by("doc_id"), n_buckets, strip_boilerplate)
