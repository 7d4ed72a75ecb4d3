"""Deterministic synthetic span corpora (FIXTURES.md F1).

Two sources:

* :func:`generate_corpus` — seeded from-scratch generator with heavy-tailed
  page counts, TOC pages that exercise all 7 primary + 7 enhanced patterns,
  metadata headers, technical-junk lines and repeated header/footer
  boilerplate. Per-doc RNG is keyed on (seed, doc_index) so generation is
  order-independent and can run inside parallel tasks.
* :func:`doc_text_to_spans` — deterministic lift of a plain-text document
  (the driver's ``documents.parquet`` rows) into the span-corpus shape, used
  by bench/queries so benchmark input scales with the sf directory.

No wall-clock, no global RNG: same arguments -> same bytes.
"""

from __future__ import annotations

import random
from typing import Any

import pyarrow as pa

from pdf_parser_ray.functions.hashing import fnv1a_32
from pdf_parser_ray.schemas import CORPUS_SCHEMA

_METADATA_HEADER = (
    "Universal Serial Bus Power Delivery Specification\n"
    "Revision: {rev}\nVersion: {ver}\nRelease Date: {date}"
)

_BOILER_HEADER = "Example Corp Confidential - Internal Distribution Only"
_BOILER_FOOTER = "Copyright (c) 2024 Example Corp. All Rights Reserved."

_WORDS = (
    "power delivery protocol interface connector cable message communication "
    "voltage current source sink contract negotiation capability state machine "
    "timer policy engine port partner explicit implicit transition request "
    "accept reject wait response control data object header extended packet"
).split()

_TOC_TITLE_WORDS = (
    "Introduction Overview Requirements Protocol Interface Power Delivery "
    "Connector Cable Message Communication Specification Reference Glossary "
    "Example Section Signaling Encoding Collision Avoidance Structure"
).split()


def _sentence(rng: random.Random, n_words: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n_words)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _toc_title(rng: random.Random, n: int = 3) -> str:
    return " ".join(rng.choice(_TOC_TITLE_WORDS) for _ in range(n))


def _toc_lines(rng: random.Random, max_page: int) -> list[str]:
    """TOC body lines covering the primary/enhanced/fallback pattern space,
    interleaved with technical junk that the quality gates must reject.
    Cited pages stay within the document (clamped to ``max_page``)."""
    lines: list[str] = []
    n_sections = rng.randint(8, 30)
    page_cursor = min(rng.randint(3, 10), max_page)
    for _ in range(n_sections):
        depth = rng.randint(1, 3)
        sec_id = ".".join(str(rng.randint(1, 9)) for _ in range(depth))
        title = _toc_title(rng, rng.randint(2, 5))
        page_cursor = min(page_cursor + rng.randint(0, 9), max_page)
        style = rng.random()
        if style < 0.4:
            lines.append(f"{sec_id} {title} {'.' * rng.randint(3, 12)} {page_cursor}")
        elif style < 0.55:
            lines.append(f"{sec_id} {title}    {page_cursor}")
        elif style < 0.65:
            lines.append(f"Table {sec_id} {title} .... {page_cursor}")
        elif style < 0.75:
            lines.append(f"Figure {sec_id} {title} ..... {page_cursor}")
        elif style < 0.82:
            letter = rng.choice("ABCDEF")
            lines.append(f"Appendix {letter} {title} .... {page_cursor}")
        elif style < 0.88:
            lines.append(f"Chapter {rng.randint(1, 9)} {title} .... {page_cursor}")
        elif style < 0.94:
            lines.append(f"{title} {'.' * rng.randint(4, 10)} {page_cursor}")
        else:
            letter = rng.choice("ABC")
            lines.append(f"{letter}.{rng.randint(1, 9)} {title} ... {page_cursor}")
        # sprinkle junk the technical-data detector must reject
        if rng.random() < 0.2:
            junk = rng.choice(
                [
                    f"{rng.randint(0, 9)} {rng.randint(0, 9)} {rng.randint(0, 9)} raw",
                    "0 1 0 1 1 0",
                    f"bit = {rng.randint(0, 7)} assignment 12",
                    f"byte {rng.randint(0, 255)} value 9",
                ]
            )
            lines.append(junk)
        # occasional fallback-style line (no dots, title + page)
        if rng.random() < 0.15:
            lines.append(f"{_toc_title(rng, rng.randint(2, 4))} overview {page_cursor}")
    return lines


def _page_spans(
    rng: random.Random, doc_idx: int, page_num: int, body_lines: list[str]
) -> list[dict[str, Any]]:
    """Spans for one page: boilerplate + text/heading lines + media."""
    spans: list[dict[str, Any]] = []

    def text_span(kind: str, text: str, media_ref: str = "") -> None:
        spans.append({"kind": kind, "text": text, "media_ref": media_ref})

    text_span("text", _BOILER_HEADER)
    for line in body_lines:
        text_span("text", line)
    if rng.random() < 0.35:
        text_span("heading", _toc_title(rng, 3).upper())
    n_para = rng.randint(2, 8)
    for _ in range(n_para):
        text_span("text", _sentence(rng, rng.randint(8, 25)))
    text_span("text", _BOILER_FOOTER)

    for t in range(rng.randint(0, 2)):
        n_rows, n_cols = rng.randint(2, 5), rng.randint(2, 4)
        rows = [
            " | ".join(rng.choice(_WORDS) for _ in range(n_cols))
            for _ in range(n_rows)
        ]
        text_span("table", "\n".join(rows))
    for i in range(rng.randint(0, 2)):
        text_span("image", "", f"img://doc-{doc_idx:06d}/p{page_num}/{i}")
    if rng.random() < 0.3:
        text_span(
            "layout_text",
            "\n".join(_sentence(rng, rng.randint(3, 8)) for _ in range(rng.randint(2, 5))),
        )
    if rng.random() < 0.2:
        text_span("annotation", f"Note: {_sentence(rng, rng.randint(4, 10))}")
    return spans


def generate_document(doc_idx: int, seed: int = 42, max_pages: int = 400) -> dict[str, Any]:
    """One synthetic document as a corpus row (doc_id, spans)."""
    rng = random.Random((seed << 20) ^ doc_idx)
    r = rng.random()
    if r < 0.80:
        n_pages = rng.randint(1, 5)
    elif r < 0.95:
        n_pages = rng.randint(10, 50)
    else:
        giant_lo = min(100, max_pages)
        n_pages = rng.randint(giant_lo, max(giant_lo, min(400, max_pages)))
    n_pages = min(n_pages, max_pages)

    has_metadata = rng.random() < 0.7
    has_toc = rng.random() < 0.6 and n_pages >= 3

    spans: list[dict[str, Any]] = []
    for page_num in range(1, n_pages + 1):
        spans.append({"kind": "page_break", "text": str(page_num), "media_ref": ""})
        body: list[str] = []
        if page_num == 1 and has_metadata:
            body.extend(
                _METADATA_HEADER.format(
                    rev=f"{rng.randint(1, 3)}.{rng.randint(0, 9)}",
                    ver=f"{rng.randint(1, 2)}.{rng.randint(0, 9)}",
                    date=f"202{rng.randint(0, 5)}-{rng.randint(1, 12):02d}",
                ).split("\n")
            )
        if has_toc and page_num == 2:
            body.append("Table of Contents")
            body.extend(_toc_lines(rng, n_pages))
        spans.extend(_page_spans(rng, doc_idx, page_num, body))

    for offset, span in enumerate(spans):
        span["offset"] = offset
    return {"doc_id": f"doc-{doc_idx:06d}", "spans": spans}


def generate_corpus(n_docs: int, seed: int = 42, max_pages: int = 400) -> pa.Table:
    """Deterministic corpus table of ``n_docs`` documents."""
    rows = [generate_document(i, seed, max_pages) for i in range(n_docs)]
    return pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)


# ---- lifting plain-text documents (driver testdata) into span corpora -----

LINES_PER_PAGE = 30
CHARS_PER_LINE = 80


def doc_text_to_spans(doc_id: str, text: str) -> dict[str, Any]:
    """Deterministically wrap a plain-text document into the span-corpus row
    shape: fixed-width lines, ``LINES_PER_PAGE`` lines per page, a repeated
    header line (boilerplate), and a table/image derived from the doc id hash
    so media paths get exercised at benchmark scale."""
    text = text or ""
    lines = [
        text[i : i + CHARS_PER_LINE] for i in range(0, len(text), CHARS_PER_LINE)
    ] or [""]
    h = fnv1a_32(doc_id)
    spans: list[dict[str, Any]] = []
    n_pages = (len(lines) + LINES_PER_PAGE - 1) // LINES_PER_PAGE
    for page_num in range(1, n_pages + 1):
        spans.append({"kind": "page_break", "text": str(page_num), "media_ref": ""})
        spans.append({"kind": "text", "text": _BOILER_HEADER, "media_ref": ""})
        chunk = lines[(page_num - 1) * LINES_PER_PAGE : page_num * LINES_PER_PAGE]
        spans.append({"kind": "text", "text": "\n".join(chunk), "media_ref": ""})
        if (h + page_num) % 3 == 0:
            spans.append(
                {
                    "kind": "table",
                    "text": "alpha | beta\n1 | 2",
                    "media_ref": "",
                }
            )
        if (h + page_num) % 4 == 0:
            spans.append(
                {"kind": "image", "text": "", "media_ref": f"img://{doc_id}/p{page_num}/0"}
            )
    for offset, span in enumerate(spans):
        span["offset"] = offset
    return {"doc_id": str(doc_id), "spans": spans}

