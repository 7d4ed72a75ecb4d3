"""pdf_parser_ray — a Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the capabilities of the reference repo
``kavinsagar532/PDF_PARSER`` (read-only at /root/reference), re-expressed
Ray-Data-first: the corpus is a table of interleaved text+media documents
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
processed as a streaming ``ray.data.Dataset`` pipeline —

    read (lance|parquet)
      -> map_batches(_tag_buckets)                   # append bucket = hash(doc_id) % B
      -> groupby(bucket).map_groups(assemble_bucket) # THE shuffle: corpus rows; per
                                                     # SLICE_SPANS slices: read span columns,
                                                     # render, assemble
      -> write partitioned parquet (per-bucket checkpoints + lineage/metrics)

That is ``state.run_extraction``; ``extract`` is the same plan without the
write, and the plan for corpora that may be fragmented (the groupby merges
a doc's fragments). ``extract_hybrid``, the planner for whole-document
corpora, runs ``extract`` only when one read block holds too many giant
docs' spans, and otherwise the same loop with no shuffle:

    read -> map_batches(fused)                       # per batch of whole docs

Every plan, and ``page_range``, runs one span-capped loop,
``stages.render_stage.render_slices`` (read the span columns -> page rows,
with no per-span dict or nested page record); the plans assemble its docs
with ``stages.assemble_doc_rows``. The reference-shaped page records
(``doclogic.render.spans_to_pages``) exist only in the single-process
oracle, ``doclogic.run_document``, which tests compare the kernel against.

Per-document semantics after the page render (metadata regexes, 3-pass
TOC parse, heading strategies, section assembly) live in
:mod:`pdf_parser_ray.doclogic` as pure functions shared by the Ray stages and
the single-process oracle used in tests. The page render itself has two
implementations, the oracle's and the kernel's column path, held equal row
by row by a property test; distributed output is verified span-sequence-equal
to the reference semantics by pytest golden fixtures.
"""

__version__ = "0.1.0"
