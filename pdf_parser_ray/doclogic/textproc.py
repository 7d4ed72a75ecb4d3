"""Text-processing scalar helpers (reference: utils/text_utils.py).

All functions are pure and operate on single strings / line lists; they run
inside ``map_batches`` bodies. Regexes are compiled at import time — once per
worker process — replacing the reference's per-instance FIFO pattern cache
(utils/text_utils.py:45-57), which is redundant under Ray's process pools.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence

_NUMBERS_RE = re.compile(r"\d+")

# Small cache for ad-hoc patterns (field extraction, term search). Per-process,
# unbounded in practice: the pattern universe here is a fixed static bank.
_COMPILED: dict[str, re.Pattern] = {}


def _compiled(pattern: str) -> re.Pattern:
    pat = _COMPILED.get(pattern)
    if pat is None:
        pat = re.compile(pattern, re.IGNORECASE)
        _COMPILED[pattern] = pat
    return pat


def extract_field_with_regex(pattern: str, text: str, default: str = "Unknown") -> str:
    """First capture group of ``pattern`` in ``text``, stripped, else default.

    Reference: utils/text_utils.py:14-19 (case-insensitive search, group(1)).
    """
    match = _compiled(pattern).search(text)
    return match.group(1).strip() if match else default


def search_anchored(
    pattern: str, text: str, anchors: Sequence[str], lowered: Optional[str]
) -> Optional[re.Match]:
    """``_compiled(pattern).search(text)`` for a pattern every match of
    which starts with one of ``anchors`` (lowercase ASCII literals).

    ``lowered`` is ``text.lower()`` when ``text`` is ASCII, else None. On
    ASCII text a case-insensitive match of an ASCII literal is exactly a
    ``str.find`` hit in the lowered text, so no match can start before the
    first hit: without one the search is skipped, with one it resumes
    there (``search(text, pos)`` still sees the characters before ``pos``
    for ``\\b``). Non-ASCII text gets the full search — IGNORECASE also
    folds e.g. 'ſ' to 's' and the Kelvin sign to 'k', which ``find``
    cannot see. Empty ``anchors`` name no literal: full search too.
    """
    start = 0
    if lowered is not None and anchors:
        hits = [i for i in map(lowered.find, anchors) if i >= 0]
        if not hits:
            return None
        start = min(hits)
    return _compiled(pattern).search(text, start)


def split_into_lines(text: str) -> list[str]:
    """Split text into lines with trailing whitespace removed.

    Reference: utils/text_utils.py:21-25.
    """
    if not text:
        return []
    return [line.rstrip() for line in text.splitlines()]


def find_content_start(lines: Iterable[tuple[int, str]], search_terms: list[str]) -> int:
    """Index just past the first line containing any term (word-bounded,
    case-insensitive); 0 when no line matches.

    One combined alternation replaces the reference's per-line, per-term
    compile-and-search (utils/text_utils.py:27-33, 59-66) — same result,
    since any matching term returns the line. The scan starts at the first
    term found by ``str.find`` (:func:`search_anchored`).
    """
    pattern = r"\b(?:" + "|".join(re.escape(t) for t in search_terms) + r")\b"
    # one C-level scan over the newline-joined text instead of a Python
    # loop of per-line searches; terms contain no newline so a match can
    # never span lines, and \b behaves identically at \n and line edges
    joined = "\n".join(line for _page, line in lines)
    ascii_only = joined.isascii() and all(t.isascii() for t in search_terms)
    lowered = joined.lower() if ascii_only else None
    match = search_anchored(
        pattern, joined, [t.lower() for t in search_terms], lowered
    )
    if match is None:
        return 0
    return joined.count("\n", 0, match.start()) + 1


def clean_text(text: str) -> str:
    """Strip surrounding whitespace ('' for falsy). Ref: text_utils.py:35-39."""
    return text.strip() if text else ""


def extract_numbers(text: str) -> list[int]:
    """All decimal integer runs in the text. Ref: text_utils.py:41-43."""
    return [int(m) for m in _NUMBERS_RE.findall(text)]
