"""Checkpoint manifests, lineage and per-partition metrics; per-input-file
resumable state (``state.fragments``)."""

from pdf_parser_ray.state.checkpoint import (  # noqa: F401
    completed_buckets,
    read_extraction,
    read_metrics,
    run_extraction,
)
