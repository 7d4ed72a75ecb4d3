"""Ray Data stages: per-page rendering and per-doc assembly."""

from pdf_parser_ray.stages.render_stage import render_doc  # noqa: F401
from pdf_parser_ray.stages.assemble_stage import (  # noqa: F401
    assemble_doc_rows,
    doc_result_to_row,
)
