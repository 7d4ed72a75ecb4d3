"""Output checks for every timed run.

A run's output is correct when it holds exactly one row per input document,
no row has ``parse_failure`` set, and every checked document's output spans
are sequence-equal (kind, text, media_ref, order) to the single-process
extractor ``doclogic.run_document``. The checked set is every document
above the giant threshold plus a fixed stable-hash sample of the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Iterable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# one document in SAMPLE_EVERY (by stable hash of its id) is checked
# against the oracle besides the giants
SAMPLE_EVERY = 8

VERIFY_COLUMNS = ["doc_id", "parse_failure", "total_pages", "spans"]


def stable_bucket(doc_id: str, modulus: int) -> int:
    """Process-independent hash bucket of a doc id."""
    return int.from_bytes(hashlib.md5(doc_id.encode()).digest()[:8], "big") % modulus


def span_digest(spans: Iterable[dict[str, Any]] | None) -> str:
    """Digest of a span sequence: (kind, text, media_ref) in list order,
    with each span's offset, so order and numbering both count."""
    seq = [
        [s.get("kind"), s.get("text"), s.get("media_ref"), s.get("offset")]
        for s in spans or []
    ]
    return hashlib.sha256(json.dumps(seq).encode()).hexdigest()


def oracle_ids(corpus: pa.Table, threshold: int) -> list[str]:
    """Docs checked against the oracle: all giants + the stable-hash sample."""
    n_spans = pc.list_value_length(corpus["spans"]).fill_null(0).to_pylist()
    return [
        doc_id
        for doc_id, n in zip(corpus["doc_id"].to_pylist(), n_spans)
        if n > threshold or stable_bucket(doc_id, SAMPLE_EVERY) == 0
    ]


def oracle_digests(corpus: pa.Table, ids: list[str]) -> dict[str, str]:
    """Expected span digests from the single-process extractor."""
    from pdf_parser_ray.doclogic import run_document

    chosen = corpus.filter(pc.is_in(corpus["doc_id"], value_set=pa.array(ids, pa.string())))
    return {
        row["doc_id"]: span_digest(run_document(row["doc_id"], row["spans"] or [])["spans"])
        for row in chosen.to_pylist()
    }


def read_output(paths: list[str]) -> pa.Table:
    """Read the verification columns of a run's output parquet files."""
    if not paths:
        return pa.table({c: pa.array([], pa.null()) for c in VERIFY_COLUMNS})
    return pa.concat_tables(
        [pq.read_table(p, columns=VERIFY_COLUMNS) for p in paths],
        promote_options="permissive",
    )


def parquet_files(out_dir: str) -> list[str]:
    """Every parquet file under a ``write_parquet`` output directory."""
    found = []
    for root, _, files in os.walk(out_dir):
        found += [os.path.join(root, f) for f in files if f.endswith(".parquet")]
    return sorted(found)


def check_output(
    output: pa.Table,
    expected_ids: list[str],
    oracle: dict[str, str],
    also_failed: Iterable[str] = (),
) -> dict[str, Any]:
    """Compare one run's output with the input ids and the oracle digests.

    Returns counts per failure class. ``failed`` counts every input
    document that is missing, duplicated, flagged ``parse_failure``, differs
    from the oracle or is in ``also_failed`` (each once), plus every
    unexpected doc_id; ``committed`` counts input documents written."""
    ids = [str(d) for d in output["doc_id"].to_pylist()]
    seen: dict[str, int] = {}
    for d in ids:
        seen[d] = seen.get(d, 0) + 1
    expected = set(expected_ids)
    missing = expected - seen.keys()
    duplicated = {d for d, n in seen.items() if n > 1}
    unexpected = seen.keys() - expected
    flagged = {
        d for d, f in zip(ids, output["parse_failure"].to_pylist()) if f
    }
    mismatched = set()
    if oracle:
        checked = output.filter(
            pc.is_in(pc.cast(output["doc_id"], pa.string()), value_set=pa.array(list(oracle), pa.string()))
        )
        for d, spans in zip(checked["doc_id"].to_pylist(), checked["spans"].to_pylist()):
            if span_digest(spans) != oracle[str(d)]:
                mismatched.add(str(d))
    failed = (missing | duplicated | flagged | mismatched | set(also_failed)) & expected
    pages = pc.sum(output["total_pages"]).as_py() if output.num_rows else 0
    return {
        "rows": output.num_rows,
        "missing": len(missing),
        "duplicated": len(duplicated),
        "unexpected": len(unexpected),
        "parse_failure": len(flagged),
        "oracle_checked": len(oracle),
        "oracle_mismatch": len(mismatched),
        "failed": len(failed) + len(unexpected),
        "committed": len(expected & seen.keys()),
        "pages": int(pages or 0),
        "failed_ids": sorted(failed)[:20],
    }


def table_digest(table: pa.Table) -> str:
    """Content digest of a table independent of row order and chunking: the
    Arrow IPC bytes of its rows sorted by doc_id, in one chunk."""
    data = table.sort_by("doc_id").combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, data.schema) as writer:
        writer.write_table(data)
    return hashlib.sha256(sink.getvalue()).hexdigest()


def differing_docs(a: pa.Table, b: pa.Table) -> list[str]:
    """doc_ids whose rows differ between two tables (or are in only one)."""
    rows_a = {str(r["doc_id"]): r for r in a.to_pylist()}
    rows_b = {str(r["doc_id"]): r for r in b.to_pylist()}
    return sorted(d for d in rows_a.keys() | rows_b.keys() if rows_a.get(d) != rows_b.get(d))
