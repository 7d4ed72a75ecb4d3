"""Document-metadata extraction (reference: parsers/metadata_parser.py).

Four regex fields over the concatenated text of the first five pages.
Per-document-local: the Ray pipeline computes it inside the per-doc group
(filter page <= 5 -> join text in page order -> regex), no re-read of the
source as the reference does (metadata_parser.py:100-111).

Anchor rule: every match of each pattern starts with one of a few literals
(``METADATA_ANCHORS``). On ASCII text the window is lowercased once and each
field's first literal hit is found with ``str.find``; no hit returns the
default without running the regex, a hit runs the unchanged compiled regex
from there (``textproc.search_anchored``). Same results, and most windows
never reach the regex engine. Non-ASCII text keeps the full search: the
case-insensitive regex also folds characters such as 'ſ' (long s) to 's'
and the Kelvin sign to 'k', so ``str.find`` in the lowered text could miss
a match.
"""

from __future__ import annotations

from typing import Any

from pdf_parser_ray.doclogic import textproc

# Field -> pattern (metadata_parser.py:82-94). Patterns are applied
# case-insensitively with first-match .group(1).strip() semantics.
METADATA_PATTERNS: dict[str, str] = {
    "doc_title": r"(Universal Serial Bus.*Power Delivery Specification)",
    "revision": r"(?:Revision|Rev\.?)[: ]+\s*([0-9.]+)",
    "version": r"(?:Version|V)\s*[:]?\s*([0-9.]+)",
    "release_date": r"(?:Release Date|Published:?)\s*[:]?\s*([0-9]{4}(?:-[0-9]{1,2})?)",
}

# Field -> the lowercase literals one of which every match starts with
METADATA_ANCHORS: dict[str, tuple[str, ...]] = {
    "doc_title": ("universal serial bus",),
    "revision": ("rev",),
    "version": ("v",),
    "release_date": ("release date", "published"),
}

DEFAULT_VALUE = "Unknown"
METADATA_START_PAGE = 1
METADATA_END_PAGE = 5


def combine_page_text(pages: list[dict[str, Any]]) -> str:
    """Newline-join of page texts in given order (metadata_parser.py:113-115)."""
    return "\n".join(page.get("text", "") for page in pages)


def parse_metadata(pages: list[dict[str, Any]]) -> dict[str, str]:
    """Extract the four metadata fields from the first-5-pages text.

    ``pages`` is the full page-record list in page order; the 1..5 window cut
    happens here (metadata_parser.py:96-111).
    """
    window = [
        p
        for p in pages
        if METADATA_START_PAGE <= p.get("page", 0) <= METADATA_END_PAGE
    ]
    text = combine_page_text(window)
    lowered = text.lower() if text.isascii() else None
    out = {}
    for field, pattern in METADATA_PATTERNS.items():
        match = textproc.search_anchored(
            pattern, text, METADATA_ANCHORS[field], lowered
        )
        # extract_field_with_regex's first-match .group(1).strip() law
        out[field] = match.group(1).strip() if match else DEFAULT_VALUE
    return out
