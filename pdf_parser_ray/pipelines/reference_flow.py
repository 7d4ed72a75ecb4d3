"""The reference's end-to-end flow (main.py:92-102) as one Ray run.

``run_reference_pipeline`` produces everything ``python main.py`` produces —
pages/metadata/toc/spec outputs plus the validation report — from a span
corpus, with ONE extraction execution (written to disk, then projected):

    step 1  pages      -> <out>/pages/       (page rows, parquet)
    step 2  metadata   -> <out>/metadata/    (JSONL)
    step 3  toc        -> <out>/toc/         (JSONL)
    step 4  sections   -> <out>/spec/        (JSONL)
    step 5  validation -> <out>/validation_report.xlsx (json fallback)
    plus    extraction/ (DOC_RESULT parquet: the spans_out north table)

The reference re-reads its JSONL stage files between steps
(section_parser.py:94-107, validation_report.py:90-107); here the combined
extraction is written once and each logical table is a projection of the
read-back — same outputs, one pass over the corpus.
"""

from __future__ import annotations

import os
from typing import Any

import ray.data

from pdf_parser_ray.pipelines.extract import extract, page_range
from pdf_parser_ray.pipelines.validation import (
    validation_summary,
    write_validation_report,
)
from pdf_parser_ray.sources.jsonl_compat import write_reference_outputs
from pdf_parser_ray.stages.render_stage import DEFAULT_N_BUCKETS


def run_reference_pipeline(
    corpus_ds: ray.data.Dataset,
    output_dir: str,
    n_buckets: int = DEFAULT_N_BUCKETS,
    strip_boilerplate: bool = True,
) -> dict[str, Any]:
    """Run the full five-step flow; returns the validation summary dict
    (the reference's report row) plus the output paths.

    Reruns with the same ``output_dir`` overwrite (each step's directory is
    cleared first) — the reference's mode-'w' JSONL semantics; Ray sinks
    otherwise ACCUMULATE part files across runs."""
    import shutil

    os.makedirs(output_dir, exist_ok=True)

    def fresh(name: str) -> str:
        p = os.path.join(output_dir, name)
        shutil.rmtree(p, ignore_errors=True)
        return p

    extraction_dir = fresh("extraction")
    results = extract(corpus_ds, n_buckets, strip_boilerplate)
    results.write_parquet(extraction_dir)

    if not os.path.isdir(extraction_dir):
        # empty corpus: write_parquet creates nothing; degrade like the
        # reference's empty-input steps instead of crashing the read-back
        summary = {"n_docs": 0, "total_pages": 0, "parse_failures": 0}
        report_path = write_validation_report(
            summary, os.path.join(output_dir, "validation_report.xlsx")
        )
        return {"summary": summary, "paths": {"report": report_path}}

    for name in ("toc", "spec", "metadata"):
        fresh(name)
    back = ray.data.read_parquet(extraction_dir)
    paths = write_reference_outputs(back, output_dir)
    paths["extraction"] = extraction_dir

    pages_dir = fresh("pages")
    page_range(corpus_ds, start_page=0, n_buckets=n_buckets).drop_columns(
        ["nontext_spans", "bucket", "parse_failure"]
    ).write_parquet(pages_dir)
    paths["pages"] = pages_dir

    summary = validation_summary(back)
    report_path = write_validation_report(
        summary, os.path.join(output_dir, "validation_report.xlsx")
    )
    paths["report"] = report_path

    return {"summary": summary, "paths": paths}
