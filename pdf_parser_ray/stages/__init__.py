"""Ray Data stages: per-page rendering and per-doc assembly.

The kernel, ``render_stage.render_slices``, renders page rows straight
from each slice's span columns; ``render_doc`` (span dicts -> the
oracle's reference-shaped page records -> page rows) is the reference it
is tested against, and its path for a ``spans`` column of another type.
"""

from pdf_parser_ray.stages.render_stage import render_doc  # noqa: F401
from pdf_parser_ray.stages.assemble_stage import (  # noqa: F401
    assemble_doc_rows,
    doc_result_to_row,
)
