"""End-to-end Ray Data pipelines."""

from pdf_parser_ray.pipelines.extract import (  # noqa: F401
    extract,
    extract_hybrid,
    flat_spans,
    metadata_table,
    page_rows,
    sections_table,
    spans_table,
    stats_table,
    toc_table,
)
