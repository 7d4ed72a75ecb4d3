"""pdf_parser_ray — a Ray-Data-native main-content extraction engine.

A from-scratch rebuild of the capabilities of the reference repo
``kavinsagar532/PDF_PARSER`` (read-only at /root/reference), re-expressed
Ray-Data-first: the corpus is a table of interleaved text+media documents
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``
processed as a streaming ``ray.data.Dataset`` pipeline —

    read (lance|parquet)
      -> map_batches(_tag_buckets)                   # append bucket = hash(doc_id) % B
      -> groupby(bucket).map_groups(assemble_bucket) # THE shuffle: corpus rows; render
                                                     # + assemble each doc in its bucket
      -> write partitioned parquet (per-bucket checkpoints + lineage/metrics)

Every extraction route runs ``stages.render_doc`` then
``stages.assemble_doc_rows`` per document; ``extract_fused`` skips the shuffle.

Per-document semantics (page render, metadata regexes, 3-pass TOC parse,
heading strategies, section assembly) live in :mod:`pdf_parser_ray.doclogic`
as pure functions shared by the Ray stages and the single-process oracle used
in tests, so distributed output is span-sequence-equal to the reference
semantics by construction and verified by pytest golden fixtures.
"""

__version__ = "0.1.0"
