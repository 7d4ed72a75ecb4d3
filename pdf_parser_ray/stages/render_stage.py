"""Stage 1: corpus rows -> rendered per-page rows.

:func:`render_slices` is the ONE read -> render loop, shared by every
extraction route (through ``stages.assemble_stage.assemble_docs``) and by
``page_range`` (:func:`render_pages`): slices of whole docs of at most
``SLICE_SPANS`` spans, each read into Python in one call, so the cap
bounds the spans a task holds at once. Regex banks warm at module import
per worker process (SURVEY.md §2.3 ST1).

The kernel renders from the span columns: :func:`read_span_columns` reads
a slice's ``kind``, ``text``, ``media_ref`` and ``offset`` child columns
once as Python lists, and :func:`render_span_row` builds each row's page
rows straight from them, with no dict per span and no nested page record.
The reference-shaped page records (``doclogic.render.spans_to_pages`` ->
``doclogic.pipeline.page_row_from_record``) exist only in the
single-process oracle, ``doclogic.run_document``, and in
:func:`render_doc`, which the kernel runs only for a ``spans`` column of
another type (after :func:`decode_spans`) and which tests compare the
column path against.

:func:`decode_spans` reads a ``spans`` list column child column by child
column into span dicts instead of calling ``to_pylist()``, which builds
every span dict through a per-value scalar.

All rendered strings are finalized HERE, before the Arrow block boundary
(see doclogic.render module docstring).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

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
# spans one render_slices slice reads and renders at a time: bounds a
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


# the span kinds the column path dispatches on, coded by position; a text
# kind codes at _TEXT or above, and any other kind (null too) reads as -1
_KINDS = pa.array(["page_break", "table", "image", "layout_text", "annotation", *render.TEXT_KINDS])
_PAGE_BREAK, _TABLE, _IMAGE, _LAYOUT, _ANNOTATION, _TEXT = range(6)
_SPAN_STRINGS = ("kind", "text", "media_ref")
# the largest page number the int32 page column holds
_MAX_PAGE = 2**31 - 1


def _is_span_list(kind: pa.DataType) -> bool:
    """Whether a ``spans`` column is a list of the span struct the column
    path reads: the fields ``kind``, ``text`` and ``media_ref`` (string or
    large_string) and an integer ``offset``, in any order."""
    if not (pa.types.is_list(kind) or pa.types.is_large_list(kind)):
        return False
    item = kind.value_type
    if not pa.types.is_struct(item):
        return False
    fields = {field.name: field.type for field in item}
    return (
        sorted(fields) == sorted((*_SPAN_STRINGS, "offset"))
        and all(pa.types.is_string(fields[n]) or pa.types.is_large_string(fields[n])
                for n in _SPAN_STRINGS)
        and pa.types.is_integer(fields["offset"])
    )


class SpanColumns(NamedTuple):
    """One slice's spans as Python lists, one per struct field: row ``i``'s
    spans are ``[a, b)`` of each list for ``rows[i] == (a, b)`` (a null
    list is empty), and ``rows[i]`` is None for a row that cannot render:
    one holding a null span, or a null offset among two or more spans."""

    rows: list[tuple[int, int] | None]
    kind: list[int]  # position in _KINDS, -1 for any other kind
    text: list[str]  # a null text reads as ""
    media_ref: list[str]  # a null media_ref reads as ""
    offset: list[int | None]


def _strings(column: pa.Array) -> list[str]:
    return pc.fill_null(column, "").to_numpy(zero_copy_only=False).tolist()


def read_span_columns(spans: pa.ChunkedArray) -> SpanColumns:
    """A slice of a ``spans`` column of :func:`_is_span_list` type -> its
    :class:`SpanColumns`, each field read once per chunk from the list
    offsets (no per-span dict or scalar)."""
    cols = SpanColumns([], [], [], [], [])
    for chunk in spans.chunks:
        bounds = chunk.offsets.to_pylist()  # already shifted by a slice's offset
        lo = bounds[0]
        values = chunk.values.slice(lo, bounds[-1] - lo)
        offsets = values.field("offset")
        base = len(cols.kind)
        codes = pc.index_in(values.field("kind"), value_set=_KINDS).fill_null(-1)
        cols.kind.extend(codes.to_numpy().tolist())
        cols.text.extend(_strings(values.field("text")))
        cols.media_ref.extend(_strings(values.field("media_ref")))
        cols.offset.extend(_pylist(offsets))
        valid = chunk.is_valid().to_pylist() if chunk.null_count else None
        null_span = values.is_null().to_pylist() if values.null_count else None
        null_offset = offsets.is_null().to_pylist() if offsets.null_count else None
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            a, b = a - lo, b - lo
            if valid is not None and not valid[i]:
                cols.rows.append((base + a, base + a))
            elif (null_span and any(null_span[a:b])) or (
                null_offset and b - a > 1 and any(null_offset[a:b])
            ):
                cols.rows.append(None)  # the oracle's offset sort raises
            else:
                cols.rows.append((base + a, base + b))
    return cols


def _page_row(
    doc_id: str,
    bucket: int,
    page: int,
    order: int,
    parts: list[str],
    tables: list[str],
    images: list[str],
    layout: list[str],
    notes: list[str],
) -> dict[str, Any]:
    """One page's spans, gathered by kind -> its PAGE_ROW_SCHEMA row: the
    reference's comprehensive page render (page_manager.py:69-148) and
    coverage score (extractor.py:365-398), without the nested page record."""
    text = "\n".join(parts)
    has_text = bool(text.strip())
    blocks = [f"=== TEXT CONTENT ===\n{text}"] if has_text else []
    spans = []
    listed = [f"Table {i}:\n{rep}" for i, rep in enumerate(tables, 1) if rep]
    if listed:
        blocks.append("=== TABLES ===\n" + "\n".join(listed))
        spans += [{"kind": "table", "text": rep, "media_ref": ""} for rep in tables if rep]
    if images:
        names = [ref or f"image_{i}" for i, ref in enumerate(images, 1)]
        blocks.append("=== IMAGES ===\n" + "\n".join(
            f"Image {i}: {name} (0x0)" for i, name in enumerate(names, 1)
        ))
        spans += [{"kind": "image", "text": "", "media_ref": name} for name in names]
    if layout:
        lines = "\n".join(layout)
        blocks.append(f"=== LAYOUT TEXT ===\n{lines}")
        spans.append({"kind": "layout_text", "text": lines, "media_ref": ""})
    kept = [note for note in notes if note.strip()]
    if kept:
        blocks.append("=== ANNOTATIONS ===\n" + "\n".join(
            f"Annotation (Text): {note}" for note in kept
        ))
        spans += [{"kind": "annotation", "text": note, "media_ref": ""} for note in kept]
    score = 0.0  # summed in the oracle's order, so the float is the same
    if has_text:
        score += 0.4
    if tables:
        score += 0.2
    if images:
        score += 0.2
    if notes:
        score += 0.1
    return {
        "doc_id": doc_id,
        "bucket": bucket,
        "page": page,
        "page_order": order,
        "text": text,
        "rendered": "\n\n".join(blocks),
        "nontext_spans": spans,
        "n_tables": len(tables),
        "n_images": len(images),
        "n_annotations": len(notes),
        "n_layout_lines": len(layout),
        "coverage_score": score,
        "parse_failure": False,
    }


def render_span_row(cols: SpanColumns, i: int, doc_id: str, bucket: int) -> list[dict[str, Any]]:
    """Row ``i`` of a slice's span columns -> its PAGE_ROW_SCHEMA rows, equal
    to :func:`render_doc` on the row's span dicts: spans in stable
    ``offset`` order, a page opened by each ``page_break`` (numbered by its
    decimal text, else sequentially) or by the first other span (page 1)."""
    span_range = cols.rows[i]
    if span_range is None:
        return [_empty_doc_row(doc_id, bucket, failure=True)]
    a, b = span_range
    kinds, texts, refs = cols.kind[a:b], cols.text[a:b], cols.media_ref[a:b]
    offsets = cols.offset[a:b]
    if sorted(offsets) != offsets:
        order = sorted(range(b - a), key=offsets.__getitem__)
        kinds = [kinds[j] for j in order]
        texts = [texts[j] for j in order]
        refs = [refs[j] for j in order]
    rows: list[dict[str, Any]] = []
    page, opened = 1, False
    parts: list[str] = []
    tables: list[str] = []
    images: list[str] = []
    layout: list[str] = []
    notes: list[str] = []
    for kind, text, ref in zip(kinds, texts, refs):
        if kind == _PAGE_BREAK:
            if opened:
                rows.append(_page_row(doc_id, bucket, page, len(rows), parts, tables, images, layout, notes))
                parts, tables, images, layout, notes = [], [], [], [], []
            try:
                number = int(text) if text.isdecimal() else -1
            except ValueError:  # above int()'s digit limit: the oracle raises too
                return [_empty_doc_row(doc_id, bucket, failure=True)]
            page = number if 0 <= number <= _MAX_PAGE else min(page + 1 if opened else 1, _MAX_PAGE)
        elif kind >= _TEXT:
            parts.append(text)
        elif kind == _TABLE:
            tables.append(text)
        elif kind == _IMAGE:
            images.append(ref)
        elif kind == _LAYOUT:
            layout += [line for line in map(str.strip, text.splitlines()) if line]
        elif kind == _ANNOTATION:
            notes.append(text)
        opened = True
    if opened:
        rows.append(_page_row(doc_id, bucket, page, len(rows), parts, tables, images, layout, notes))
    return rows or [_empty_doc_row(doc_id, bucket, failure=False)]


def _row_renderer(spans: pa.ChunkedArray) -> Callable[[int, str, int], list[dict[str, Any]]]:
    """A slice's spans, read into Python once -> ``render(i, doc_id,
    bucket)``, the page rows of the slice's row ``i``: from the span
    columns, or for a spans column of any other type through
    :func:`decode_spans` and :func:`render_doc`."""
    if _is_span_list(spans.type):
        return partial(render_span_row, read_span_columns(spans))
    decoded = decode_spans(spans)
    return lambda i, doc_id, bucket: render_doc(doc_id, decoded[i], bucket)


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
        render_row = _row_renderer(batch["spans"].slice(lo, starts[last] - lo))
        docs = []
        for a, b in zip(starts[first:last], starts[first + 1 : last + 1]):
            doc_id, bucket = ids[a], bucket_of(ids[a], n_buckets)
            rows = [row for i in range(a - lo, b - lo) for row in render_row(i, doc_id, bucket)]
            rows.sort(key=lambda r: (r["page"], r["page_order"]))
            docs.append((doc_id, rows))
        yield docs


def render_pages(batch: pa.Table, n_buckets: int) -> Iterator[pa.Table]:
    """corpus (doc_id, spans) batch -> its page rows, one table per
    :func:`render_slices` slice (``page_range``'s map)."""
    for docs in render_slices(batch, n_buckets):
        rows = [row for _, doc_rows in docs for row in doc_rows]
        yield pa.Table.from_pylist(rows, schema=PAGE_ROW_SCHEMA)
