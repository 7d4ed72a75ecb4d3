"""Ray Data stages: per-page rendering and per-doc assembly.

The kernel, ``render_stage.render_slices``, renders page rows straight
from each slice's span columns, read by field name through
``render_stage.read_span_columns``, its only span reader; a ``spans``
column of another type raises ``ValueError``. ``render_doc`` (span dicts
-> the oracle's reference-shaped page records -> page rows) is the
reference it is tested against.
"""

from pdf_parser_ray.stages.render_stage import render_doc  # noqa: F401
from pdf_parser_ray.stages.assemble_stage import (  # noqa: F401
    assemble_doc_rows,
    doc_result_to_row,
)
