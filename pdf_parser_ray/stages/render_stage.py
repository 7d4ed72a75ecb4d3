"""Stage 1: corpus rows -> rendered per-page rows.

:func:`render_doc` is the ONE per-document render step of every extraction
route: ``extract`` and ``run_extraction`` run it through
:func:`render_pages` (``map_batches``) ahead of the bucket shuffle, and
``extract_fused`` calls it in-process. The warm state is the compiled regex
banks, which Python caches at module import per worker process (SURVEY.md
§2.3 ST1). Per-page output rows are the unit the groupby(bucket) shuffle
moves, so giant documents (one corpus row) fan out into many small rows
here — the skew tamer for multi-hundred page docs.

All rendered strings are finalized HERE, before the Arrow block boundary
(see doclogic.render module docstring).
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from pdf_parser_ray.doclogic import render
from pdf_parser_ray.doclogic.pipeline import page_row_from_record
from pdf_parser_ray.functions.hashing import fnv1a_32
from pdf_parser_ray.schemas import PAGE_ROW_SCHEMA


# the hash-bucket count every extraction route, the checkpoint runner and
# the CLI default to; it fixes a checkpoint's layout, and a resume must use
# the count its run was started with
DEFAULT_N_BUCKETS = 64


def bucket_of(doc_id: str, n_buckets: int) -> int:
    """Deterministic, process-independent partition assignment."""
    return fnv1a_32(doc_id) % n_buckets


def _empty_doc_row(doc_id: str, bucket: int, failure: bool) -> dict[str, Any]:
    # marker page is -1: a real page number can never be negative (page_break
    # texts parse via isdecimal), so empty/failed-doc markers can't collide
    # with genuine page-0 content
    return {
        "doc_id": doc_id,
        "bucket": bucket,
        "page": -1,
        "page_order": 0,
        "text": "",
        "rendered": "",
        "nontext_spans": [],
        "n_tables": 0,
        "n_images": 0,
        "n_annotations": 0,
        "n_layout_lines": 0,
        "coverage_score": 0.0,
        "parse_failure": failure,
    }


def render_doc(doc_id: str, spans: Any, bucket: int) -> list[dict[str, Any]]:
    """One document's spans -> its PAGE_ROW_SCHEMA rows.

    A document without pages yields one marker row. Semantic parse failures
    (malformed span payloads) yield one ``parse_failure`` marker row and no
    page rows — counted in partition metrics, never a task crash (the
    reference degrades per page the same way, extractor.py:141-148).
    """
    try:
        rows = []
        for order, page in enumerate(render.spans_to_pages(spans or [])):
            row = page_row_from_record(page)
            row["doc_id"] = doc_id
            row["bucket"] = bucket
            row["page_order"] = order
            row["parse_failure"] = False
            rows.append(row)
    except Exception:
        return [_empty_doc_row(doc_id, bucket, failure=True)]
    return rows or [_empty_doc_row(doc_id, bucket, failure=False)]


def render_pages(batch: pa.Table, n_buckets: int) -> pa.Table:
    """corpus (doc_id, spans) batch -> page rows batch.

    Stateless, so it runs as elastic tasks — no actor-pool ramp-up,
    parallelism follows the block count."""
    out_rows: list[dict[str, Any]] = []
    for doc_id, spans in zip(batch["doc_id"].to_pylist(), batch["spans"].to_pylist()):
        doc_id = str(doc_id)
        out_rows.extend(render_doc(doc_id, spans, bucket_of(doc_id, n_buckets)))
    return pa.Table.from_pylist(out_rows, schema=PAGE_ROW_SCHEMA)
