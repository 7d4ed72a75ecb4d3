"""Stage 2: per-doc assembly, in a bucket task or in-process.

:func:`assemble_doc_rows` is the ONE per-document assembly step of every
extraction route: :func:`assemble_bucket` applies it per doc inside a
``map_groups`` bucket, and ``extract_fused`` calls it directly on the rows
``render_doc`` just produced.

The shuffled routes group CORPUS rows (doc_id, spans, bucket) by
``bucket`` (= fnv1a_32(doc_id) % n_buckets) — the coarsened form of the
north rule's groupby(doc_id) aggregate-sort shuffle: every fragment of a
document lands in exactly one group, and the key cardinality stays bounded
so the sort-based shuffle moves fewer, larger partitions. Inside a group
the assembler takes the docs in doc_id order, renders each fragment of a
doc, orders the doc's page rows by (page, page_order), and runs the
order-dependent doc-level pipeline (metadata -> TOC -> sections -> output
spans) from :func:`pdf_parser_ray.doclogic.pipeline.assemble_document`.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from pdf_parser_ray.doclogic.pipeline import assemble_document
from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA
from pdf_parser_ray.stages.render_stage import decode_spans, render_doc


def doc_result_to_row(result: dict[str, Any], bucket: int, parse_failure: bool) -> dict[str, Any]:
    """Flatten a doclogic document result into a DOC_RESULT_SCHEMA row.

    Per-entry doc_id fields are dropped from nested lists (they live on the
    row); section/toc field order follows the schema structs.
    """
    stats = result["stats"]
    return {
        "doc_id": result["doc_id"],
        "bucket": bucket,
        "metadata": result["metadata"],
        "toc": [
            {k: v for k, v in entry.items() if k != "doc_id"}
            for entry in result["toc"]
        ],
        "sections": [
            {k: v for k, v in s.items() if k != "doc_id"} for s in result["sections"]
        ],
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


def assemble_bucket(group: pa.Table, strip_boilerplate: bool = True) -> pa.Table:
    """map_groups function over one bucket group of corpus rows
    (doc_id, spans, bucket) -> one DOC_RESULT row per doc_id.

    Memory shape: the group stays an Arrow table (compact, possibly
    memory-mapped); spans are decoded one DOCUMENT at a time from the
    doc's row slice, so peak Python-heap usage is one doc's spans and pages
    plus one result row — not the whole bucket (which at corpus scale is
    corpus_size / n_buckets). Each corpus row of a fragmented doc renders
    on its own; the doc's page rows are then ordered by (page, page_order)
    whichever fragment the group holds first."""
    if group.num_rows == 0:
        return pa.Table.from_pylist([], schema=DOC_RESULT_SCHEMA)
    bucket = group["bucket"][0].as_py()  # a group holds one bucket
    group = group.take(pa.compute.sort_indices(group["doc_id"]))  # stable
    ids = group["doc_id"].to_pylist()
    out = []
    start = 0
    for i in range(1, len(ids) + 1):
        if i == len(ids) or ids[i] != ids[start]:
            doc_id = ids[start]
            rows = [
                row
                for fragment in decode_spans(group["spans"].slice(start, i - start))
                for row in render_doc(doc_id, fragment, bucket)
            ]
            # page_order breaks ties between duplicate page numbers the
            # same way the oracle's stable sort over offset-ordered pages does
            rows.sort(key=lambda r: (r["page"], r["page_order"]))
            out.append(assemble_doc_rows(doc_id, rows, strip_boilerplate))
            start = i
    return pa.Table.from_pylist(out, schema=DOC_RESULT_SCHEMA)
