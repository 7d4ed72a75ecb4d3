"""Single-process oracle for the ``validation_summary`` query.

The TOC/section doclogic counts have no SQL closed form, so this query
cannot have a DuckDB oracle. Instead, this script recomputes the summary
WITHOUT Ray — a plain Python loop over ``documents.parquet`` running the
per-document kernel (``doclogic.run_document``, itself pinned
byte-for-byte by the golden-922 anchor) and summing the stats with
scalar arithmetic. That independently recomputes everything the Ray
pipeline distributes (the corpus lift, the fused extraction stage, the
failure handling, the one-pass aggregate, the percentage laws), so a
fixture produced here pins the distributed path the same way the SQL
oracles pin the other queries.

Usage::

    python scripts/make_validation_fixture.py /root/testdata/sf0.01

writes ``tests/fixtures/validation_summary_<sfname>.json``, which
``scripts/check_queries.py`` hash-compares against the live query
(fixture-oracle instead of SQL-oracle). Regenerate whenever doclogic
semantics legitimately change; the diff is the review surface.
"""

from __future__ import annotations

import json
import os
import sys

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pdf_parser_ray.doclogic.pipeline import run_document  # noqa: E402
from pdf_parser_ray.synthgen import doc_text_to_spans  # noqa: E402

_SUM_KEYS = (
    "total_pages",
    "pages_with_text",
    "pages_with_tables",
    "pages_with_images",
    "pages_with_annotations",
    "pages_with_layout",
    "toc_entries",
    "sections",
    "spans_out",
    "toc_covered_pages",
)


def _pct(numerator: float, denominator: float) -> float:
    # the reference's safe-percentage law (coverage_calculator.py:216-222),
    # restated here rather than imported so the oracle shares no
    # aggregation code with the pipeline under test
    if not denominator:
        return 0.0
    return round(numerator / denominator * 100, 2)


def summarize(sf_dir: str) -> dict:
    """The flattened validation_summary row (the _q_validation_summary
    column layout) computed single-process."""
    t = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    totals = {k: 0 for k in _SUM_KEYS}
    n_docs = 0
    parse_failures = 0
    for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        n_docs += 1
        doc_id = str(doc_id)
        spans = doc_text_to_spans(doc_id, text if text is not None else "")["spans"]
        try:
            stats = run_document(doc_id, spans or [], True)["stats"]
        except Exception:
            # the extraction's failure law (stages.render_doc and
            # stages.assemble_doc_rows): a doc whose render or assembly
            # raises becomes a zeroed parse_failure=True row that still
            # counts toward n_docs
            parse_failures += 1
            continue
        for k in _SUM_KEYS:
            totals[k] += int(stats[k])

    tp = totals["total_pages"]
    coverage = {
        "text_coverage": _pct(totals["pages_with_text"], tp),
        "table_coverage": _pct(totals["pages_with_tables"], tp),
        "image_coverage": _pct(totals["pages_with_images"], tp),
        "annotation_coverage": _pct(totals["pages_with_annotations"], tp),
        "layout_coverage": _pct(totals["pages_with_layout"], tp),
    }
    coverage["overall_coverage"] = round(
        coverage["text_coverage"] * 0.4
        + coverage["table_coverage"] * 0.2
        + coverage["image_coverage"] * 0.2
        + coverage["annotation_coverage"] * 0.1
        + coverage["layout_coverage"] * 0.1,
        2,
    )
    flat = {
        "n_docs": n_docs,
        "total_pages": tp,
        "pages_with_text": totals["pages_with_text"],
        "toc_entries": totals["toc_entries"],
        "sections": totals["sections"],
        "spans": totals["spans_out"],
        "toc_covered_pages": totals["toc_covered_pages"],
        "parse_failures": parse_failures,
        "page_coverage_pct": _pct(totals["pages_with_text"], tp),
        "toc_coverage_pct": _pct(totals["toc_covered_pages"], tp),
    }
    flat.update({f"coverage_{k}": v for k, v in coverage.items()})
    return flat


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    flat = summarize(sf_dir)
    name = os.path.basename(sf_dir.rstrip("/"))
    out = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests",
        "fixtures",
        f"validation_summary_{name}.json",
    )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(flat, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {out}: {flat}")


if __name__ == "__main__":
    main()
