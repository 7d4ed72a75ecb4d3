"""pdf_parser_ray — a Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the capabilities of the reference repo
``kavinsagar532/PDF_PARSER`` (read-only at /root/reference), re-expressed
Ray-Data-first: the corpus is a table of interleaved text+media documents
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
processed as a streaming ``ray.data.Dataset`` pipeline —

    read (lance|parquet)
      -> map_batches(_tag_buckets)                   # append bucket = hash(doc_id) % B
      -> groupby(bucket).map_groups(assemble_bucket) # THE shuffle: corpus rows; per
                                                     # SLICE_SPANS slices: decode, render, assemble
      -> write partitioned parquet (per-bucket checkpoints + lineage/metrics)

That is ``state.run_extraction``; ``extract`` is the same plan without the
write, and the plan for corpora that may be fragmented (the groupby merges
a doc's fragments). ``extract_hybrid``, the planner for whole-document
corpora, runs ``extract`` only when one read block holds too many giant
docs' spans, and otherwise the same loop with no shuffle:

    read -> map_batches(fused)                       # per batch of whole docs

Every plan, and ``page_range``, runs one span-capped loop,
``stages.render_stage.render_slices`` (decode -> ``stages.render_doc``);
the plans assemble its docs with ``stages.assemble_doc_rows``.

Per-document semantics (page render, metadata regexes, 3-pass TOC parse,
heading strategies, section assembly) live in :mod:`pdf_parser_ray.doclogic`
as pure functions shared by the Ray stages and the single-process oracle used
in tests, so distributed output is span-sequence-equal to the reference
semantics by construction and verified by pytest golden fixtures.
"""

__version__ = "0.1.0"
