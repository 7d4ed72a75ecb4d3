"""Stage 1: corpus rows -> rendered per-page rows.

:func:`render_slices` is the ONE decode -> render loop, shared by every
extraction route (through ``stages.assemble_stage.assemble_docs``) and by
``page_range`` (:func:`render_pages`): slices of whole docs of at most
``SLICE_SPANS`` spans, each decoded in one :func:`decode_spans` call, so
the cap bounds the spans a task decodes at once. Regex banks warm at
module import per worker process (SURVEY.md §2.3 ST1).

:func:`decode_spans` reads a ``spans`` list column child column by child
column instead of calling ``to_pylist()``, which builds every span dict
through a per-value scalar.

All rendered strings are finalized HERE, before the Arrow block boundary
(see doclogic.render module docstring).
"""

from __future__ import annotations

from typing import Any, Iterator

import pyarrow as pa
import pyarrow.compute as pc

from pdf_parser_ray.doclogic import render
from pdf_parser_ray.doclogic.pipeline import page_row_from_record
from pdf_parser_ray.functions.hashing import fnv1a_32
from pdf_parser_ray.schemas import PAGE_ROW_SCHEMA


# the hash-bucket count every extraction route, the checkpoint runner and
# the CLI default to; it fixes a checkpoint's layout, and a resume must use
# the count its run was started with
DEFAULT_N_BUCKETS = 64
# spans one render_slices slice decodes and renders at a time: bounds a
# map or bucket task's heap; a doc above it is a slice of its own
SLICE_SPANS = 65_536


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


def _span_counts(batch: pa.Table) -> pa.Array:
    """Spans per corpus row; a null ``spans`` cell counts 0."""
    return pc.list_value_length(batch["spans"]).fill_null(0)


def _span_slices(counts: list[int], cap: int) -> list[tuple[int, int]]:
    """Consecutive ``[start, stop)`` ranges of ``counts`` summing to at
    most ``cap`` each; an entry above ``cap`` is a range of its own."""
    out, start, total = [], 0, 0
    for i, n in enumerate(counts):
        if i > start and total + n > cap:
            out.append((start, i))
            start, total = i, 0
        total += n
    if counts:
        out.append((start, len(counts)))
    return out


def render_slices(
    batch: pa.Table, n_buckets: int
) -> Iterator[list[tuple[str, list[dict[str, Any]]]]]:
    """Corpus rows, each doc's rows next to each other -> per slice of
    whole docs (at most ``SLICE_SPANS`` spans, or one larger doc), each
    doc's (doc_id, page rows): every row renders on its own, then a doc's
    rows sort by (page, page_order), the oracle's stable-sort tie-break."""
    ids = [str(d) for d in batch["doc_id"].to_pylist()]
    starts = [i for i, d in enumerate(ids) if not i or d != ids[i - 1]] + [len(ids)]
    counts = _span_counts(batch).to_pylist()
    doc_counts = [sum(counts[a:b]) for a, b in zip(starts, starts[1:])]
    for first, last in _span_slices(doc_counts, SLICE_SPANS):
        lo = starts[first]
        spans = decode_spans(batch["spans"].slice(lo, starts[last] - lo))
        docs = []
        for a, b in zip(starts[first:last], starts[first + 1 : last + 1]):
            doc_id, bucket = ids[a], bucket_of(ids[a], n_buckets)
            rows = [row for s in spans[a - lo : b - lo] for row in render_doc(doc_id, s, bucket)]
            rows.sort(key=lambda r: (r["page"], r["page_order"]))
            docs.append((doc_id, rows))
        yield docs


def render_pages(batch: pa.Table, n_buckets: int) -> Iterator[pa.Table]:
    """corpus (doc_id, spans) batch -> its page rows, one table per
    :func:`render_slices` slice (``page_range``'s map)."""
    for docs in render_slices(batch, n_buckets):
        rows = [row for _, doc_rows in docs for row in doc_rows]
        yield pa.Table.from_pylist(rows, schema=PAGE_ROW_SCHEMA)
