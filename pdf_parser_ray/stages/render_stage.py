"""Stage 1: corpus rows -> rendered per-page rows.

:func:`render_doc` is the ONE per-document render step of every extraction
route: ``extract`` and ``run_extraction`` call it inside each bucket task
(``assemble_bucket``) after the bucket shuffle has moved the corpus rows,
``extract_fused`` calls it in-process, and :func:`render_pages` maps it
over a batch for ``page_range``. The warm state is the compiled regex
banks, which Python caches at module import per worker process (SURVEY.md
§2.3 ST1).

:func:`decode_spans` is the one Arrow -> Python span decoder of those
routes: it reads a ``spans`` list column child column by child column
instead of calling ``to_pylist()``, which builds every span dict through
a per-value scalar.

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


def _pylist(column: pa.Array) -> list[Any]:
    """``column.to_pylist()``, through NumPy where that gives the same
    Python values without a per-value Arrow scalar: strings (a null stays
    None) and integers without nulls (NumPy would turn a null into NaN)."""
    kind = column.type
    if (
        pa.types.is_string(kind)
        or pa.types.is_large_string(kind)
        or (pa.types.is_integer(kind) and not column.null_count)
    ):
        return column.to_numpy(zero_copy_only=False).tolist()
    return column.to_pylist()


def _decode_items(values: pa.Array) -> list[Any]:
    """A list column's child array -> its Python values. A struct child is
    read one field column at a time and zipped into dicts (a null struct
    stays None); any other child type falls back to ``to_pylist()``."""
    if not pa.types.is_struct(values.type) or values.type.num_fields == 0:
        return values.to_pylist()
    names = [field.name for field in values.type]
    columns = [_pylist(values.field(i)) for i in range(len(names))]
    items: list[Any]
    if len(names) == 4:  # the span struct: a dict display builds ~2.5x faster
        a, b, c, d = names
        items = [{a: w, b: x, c: y, d: z} for w, x, y, z in zip(*columns)]
    else:
        items = [dict(zip(names, row)) for row in zip(*columns)]
    if values.null_count:
        for i, valid in enumerate(values.is_valid().to_pylist()):
            if not valid:
                items[i] = None
    return items


def decode_spans(spans: pa.Array | pa.ChunkedArray) -> list[Any]:
    """A ``spans`` list column -> one Python list of span dicts per row,
    equal to ``spans.to_pylist()`` (null lists, null structs and null
    fields included) for sliced and chunked input alike.

    The child values are read once per chunk from the list offsets (never
    through per-span scalars); a non-list column falls back to
    ``to_pylist()``."""
    if isinstance(spans, pa.ChunkedArray):
        out: list[Any] = []
        for chunk in spans.chunks:
            out.extend(decode_spans(chunk))
        return out
    if not (pa.types.is_list(spans.type) or pa.types.is_large_list(spans.type)):
        return spans.to_pylist()
    offsets = spans.offsets.to_pylist()  # already shifted by a slice's offset
    lo = offsets[0]
    items = _decode_items(spans.values.slice(lo, offsets[-1] - lo))
    valid = spans.is_valid().to_pylist() if spans.null_count else None
    return [
        items[a - lo : b - lo] if valid is None or valid[i] else None
        for i, (a, b) in enumerate(zip(offsets, offsets[1:]))
    ]


def render_pages(batch: pa.Table, n_buckets: int) -> pa.Table:
    """corpus (doc_id, spans) batch -> page rows batch (``page_range``'s
    map; the extraction routes render inside their bucket or batch task)."""
    out_rows: list[dict[str, Any]] = []
    for doc_id, spans in zip(batch["doc_id"].to_pylist(), decode_spans(batch["spans"])):
        doc_id = str(doc_id)
        out_rows.extend(render_doc(doc_id, spans, bucket_of(doc_id, n_buckets)))
    return pa.Table.from_pylist(out_rows, schema=PAGE_ROW_SCHEMA)
