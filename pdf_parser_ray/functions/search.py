"""Word-boundary term search (reference: utils/text_utils.py:59-66, M11).

Scalar form for in-UDF use plus a corpus-level Ray operator that returns
every matching (doc_id, line_idx, line) — the vectorized path uses one
Arrow ``count_substring_regex`` prefilter per batch before the per-line scan.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # annotations only: importing ray.data costs about 1 s
    import ray.data

_TERM_CACHE: dict[str, re.Pattern] = {}


def _term_pattern(term: str) -> re.Pattern:
    pat = _TERM_CACHE.get(term)
    if pat is None:
        pat = re.compile(rf"\b{re.escape(term)}\b", re.IGNORECASE)
        _TERM_CACHE[term] = pat
    return pat


def search_term_in_line(line: str, term: str) -> bool:
    """True when the word-bounded term occurs in the line (case-insensitive)."""
    return bool(_term_pattern(term).search(line or ""))


_ASCII_TERM_CACHE: dict[str, re.Pattern] = {}


def _ascii_term_pattern(term: str) -> re.Pattern:
    pat = _ASCII_TERM_CACHE.get(term)
    if pat is None:
        pat = re.compile(rf"\b{re.escape(term)}\b", re.IGNORECASE | re.ASCII)
        _ASCII_TERM_CACHE[term] = pat
    return pat


def term_search(
    ds: ray.data.Dataset, term: str, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """All matching lines across a documents table.

    Per batch: a single vectorized substring prefilter drops documents
    without any hit; only surviving docs pay the per-line scan.

    Word boundaries are ASCII (``re.ASCII``) by definition for this
    corpus-level op, so results agree exactly with SQL engines' RE2 ``\\b``
    (the DuckDB oracle). The scalar :func:`search_term_in_line` keeps the
    reference's Unicode ``\\b`` (utils/text_utils.py:59-66) — the two
    dialects differ only for terms with non-ASCII word characters.
    """
    out_schema = pa.schema(
        [("doc_id", pa.string()), ("line_idx", pa.int32()), ("line", pa.string())]
    )

    def scan(batch: pa.Table) -> pa.Table:
        text = pc.cast(batch[text_col], pa.string())
        # conservative plain-substring prefilter (case-insensitive): a
        # superset of word-boundary matches regardless of regex dialect —
        # RE2's ASCII \b disagrees with Python's Unicode \b on non-ASCII
        # terms, so the boundary decision stays with the per-line Python
        # regex that defines the op's semantics
        hits = pc.greater(
            pc.count_substring(text, term, ignore_case=True), 0
        )
        survivors = batch.filter(hits)
        rows = []
        pat = _ascii_term_pattern(term)
        for doc_id, doc_text in zip(
            survivors[id_col].to_pylist(), pc.cast(survivors[text_col], pa.string()).to_pylist()
        ):
            # split on '\n' exactly (NOT splitlines, which also breaks on
            # \r, \x0c,  ...) so line_idx matches the DuckDB oracle's
            # string_split(text, chr(10)) line numbering
            for i, line in enumerate((doc_text or "").split("\n")):
                if pat.search(line):
                    rows.append({"doc_id": str(doc_id), "line_idx": i, "line": line})
        return pa.Table.from_pylist(rows, schema=out_schema)

    return ds.map_batches(scan, batch_format="pyarrow")
