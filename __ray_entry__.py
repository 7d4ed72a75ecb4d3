"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship extraction on sf0.001; ``queries()`` exposes
one callable per implemented operator family (SURVEY.md §2 + the
training-data ops); ``oracle_sql()`` gives the DuckDB-equivalent SQL for
every SQL-expressible query (same column names, floats rounded identically
on both sides). Ray is initialised by the driver BEFORE this module is
imported: nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

def _install_log_hygiene() -> None:
    """Drop the benign "new schema: ." warning Ray 2.49 emits for
    schema-less empty blocks. Must run AFTER ray.data's logging dictConfig
    (it resets child loggers, wiping earlier filters) — so this is called
    lazily from entry() and each query callable, NOT at module import:
    importing this module must stay cheap for consumers that only want the
    oracle_sql() strings and never touch Ray."""
    try:
        import ray.data  # noqa: F401 — runs its logging dictConfig first
        from pdf_parser_ray.pipelines.steps import _silence_empty_block_schema_warning

        _silence_empty_block_schema_warning()
    except Exception:  # pragma: no cover — never block the driver on logging
        pass


def _cache_root() -> str:
    """Per-user scratch root for cross-invocation caches (IVF index, band
    store). Scoped by user name + uid and created 0700 so a predictable
    shared-/tmp path can neither be pre-poisoned by another user nor
    interleaved with their runs; refuses a pre-existing dir we don't own."""
    import getpass
    import os
    import tempfile

    root = os.path.join(
        tempfile.gettempdir(),
        f"pdf_parser_ray_cache_{getpass.getuser()}_{os.getuid()}",
    )
    os.makedirs(root, mode=0o700, exist_ok=True)
    if os.stat(root).st_uid != os.getuid():
        raise RuntimeError(f"cache dir {root} is owned by another user")
    return root


def _round_cols(ds, cols: dict[str, int]):
    """Round float columns so Ray and DuckDB value-hashes agree despite
    different float summation orders. Rounds through decimal formatting
    (``float(f"{x:.Nf}")``) so both sides land on the canonical nearest
    double for the decimal — ``pyarrow.compute.round`` can produce a
    different ULP than DuckDB's ROUND. Only ever applied to small,
    already-aggregated outputs."""

    def rnd(batch: pa.Table) -> pa.Table:
        for col, digits in cols.items():
            if col in batch.column_names:
                vals = pc.cast(batch[col], pa.float64()).to_pylist()
                rounded = [
                    None if v is None else float(f"{v:.{digits}f}") for v in vals
                ]
                batch = batch.set_column(
                    batch.column_names.index(col),
                    col,
                    pa.array(rounded, pa.float64()),
                )
        return batch

    return ds.map_batches(rnd, batch_format="pyarrow")


def _int_doc_id(ds):
    """Extraction pipelines stringify doc_id; cast back to int64 so values
    match the parquet/DuckDB column type."""

    def cast(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("doc_id")
        return batch.set_column(i, "doc_id", pc.cast(batch["doc_id"], pa.int64()))

    return ds.map_batches(cast, batch_format="pyarrow")


def entry() -> Any:
    """Flagship: documents -> span corpus -> skew-aware extraction
    (``extract_hybrid``) -> per-doc result; returns the north-invariant
    (doc_id, spans) table plus count columns."""
    _install_log_hygiene()
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    corpus = corpus_from_documents("/root/testdata/sf0.001")
    results = extract_hybrid(corpus, n_buckets=16)
    return results.select_columns(
        ["doc_id", "spans", "total_pages", "n_sections", "n_spans", "parse_failure"]
    )


# ---- query implementations ------------------------------------------------


def _q_extract_doc_pages(sf_dir: str):
    from pdf_parser_ray.pipelines import extract
    from pdf_parser_ray.sources import corpus_from_documents

    results = extract(corpus_from_documents(sf_dir), n_buckets=32)
    return _int_doc_id(results.select_columns(["doc_id", "total_pages"]))


def _q_extract_stats(sf_dir: str):
    """Per-doc extraction stats, projected to the lift-derivable columns so
    the full pipeline run is hash-verified against closed-form SQL
    (strip_boilerplate=False keeps n_spans closed-form: the boiler-line
    threshold math is pinned by pytest instead — doclogic/render.py:284).
    The TOC/section counts stay on the full stats_table op and its tests."""
    from pdf_parser_ray.pipelines import extract_hybrid, stats_table
    from pdf_parser_ray.sources import corpus_from_documents

    st = stats_table(
        extract_hybrid(corpus_from_documents(sf_dir), strip_boilerplate=False)
    ).select_columns(
        [
            "doc_id",
            "total_pages",
            "pages_with_text",
            "pages_with_tables",
            "pages_with_images",
            "pages_with_annotations",
            "pages_with_layout",
            "n_spans",
            "page_coverage_pct",
            "parse_failure",
        ]
    )
    return _int_doc_id(st)


def _q_extract_span_kinds(sf_dir: str):
    from pdf_parser_ray.pipelines import extract_hybrid, flat_spans
    from pdf_parser_ray.sources import corpus_from_documents
    from ray.data.aggregate import Count

    spans = flat_spans(
        extract_hybrid(corpus_from_documents(sf_dir), strip_boilerplate=False)
    )
    return spans.groupby("kind").aggregate(Count(alias_name="n")).sort("kind")


def _q_doc_stats(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.text_analysis import doc_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return doc_stats(ds)


def _q_quality(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.text_analysis import quality_score

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return quality_score(ds)


def _q_script_mix(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.text_analysis import script_mix

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return script_mix(ds)


def _q_classify_blocks(sf_dir: str):
    """Per-LINE class rows (not just the class histogram) so the oracle
    hash verifies every line's assigned class."""
    import ray.data

    from pdf_parser_ray.ops.blocks import classify_blocks

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _int_doc_id(
        classify_blocks(ds).select_columns(["doc_id", "line_idx", "block_class"])
    )


def _q_main_content(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.blocks import main_content_filter

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _int_doc_id(
        main_content_filter(ds).select_columns(["doc_id", "n_lines_kept", "n_lines_total"])
    )


def _q_lang_id(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.text_analysis import lang_id

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return lang_id(ds)


def _q_fingerprint(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.text_analysis import fingerprint

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return fingerprint(ds)


def _q_exact_dedup(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import exact_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup(ds)


def _q_exact_dedup_ids(sf_dir: str):
    """Hash-only exact dedup (kept-id set; text never shuffles) — the
    100-TB path beside exact_dedup's text-comparing variant."""
    import ray.data

    from pdf_parser_ray.ops.dedup import exact_dedup_ids

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup_ids(ds)


def _q_minhash_pairs(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import minhash_candidate_pairs, verify_pairs_jaccard

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_candidate_pairs(ds)
    return verify_pairs_jaccard(pairs, ds, threshold=0.8)


def _q_ngram_jaccard_pairs(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import ngram_jaccard_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # exact inverted-index all-pairs (superset of the MinHash-verified set:
    # no banding recall loss); threshold 0.6 exercises the partial-sum path
    # on pairs the 0.8 MinHash family never surfaces
    return ngram_jaccard_pairs(ds, threshold=0.6)


def _split_documents(sf_dir: str):
    """Deterministic train/test split of the documents table: doc_id % 10
    == 0 is the held-out side (used by the cross-corpus queries so the op
    and the SQL oracle agree on the exact same partition)."""
    import ray.data

    def side(held_out: bool):
        def f(batch):
            m = (batch["doc_id"].to_numpy(zero_copy_only=False) % 10) == 0
            return batch.filter(pa.array(m if held_out else ~m))

        return f

    def read():
        return ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
        )

    held = read().map_batches(side(True), batch_format="pyarrow")
    rest = read().map_batches(side(False), batch_format="pyarrow")
    return held, rest


def _q_cross_corpus_near_dups(sf_dir: str):
    """Near-dup decontamination BETWEEN corpora: MinHash-LSH cross-side
    candidates over the deterministic train/test split, exact-Jaccard
    verified — catches paraphrased test leakage the exact n-gram
    contamination_check misses. Same seeded permutation bank as the
    single-corpus family, so the SQL oracle reuses the unrolled MinHash
    CTE with side predicates."""
    from pdf_parser_ray.ops.crosscorpus import cross_corpus_near_dups

    held_out, rest = _split_documents(sf_dir)
    return cross_corpus_near_dups(train=rest, test=held_out, threshold=0.8)


def _q_cross_corpus_embedding_near_dups(sf_dir: str):
    """Semantic decontamination BETWEEN corpora: sign-LSH cross-side
    candidates over the deterministic embeddings split (vec_id % 10 == 0
    held out, the _split_documents law on the vector table), exact
    rounded-cosine scored — the embedding-space sibling of
    cross_corpus_near_dups. Same seeded hyperplane bank as
    embedding_near_dup, so the SQL oracle embeds the identical plane
    literals with side predicates."""
    import ray.data

    from pdf_parser_ray.ops.crossembed import cross_corpus_embedding_near_dups

    def side(held_out: bool):
        def f(batch):
            m = (batch["vec_id"].to_numpy(zero_copy_only=False) % 10) == 0
            return batch.filter(pa.array(m if held_out else ~m))

        return f

    def read():
        return ray.data.read_parquet(
            f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
        )

    held = read().map_batches(side(True), batch_format="pyarrow")
    rest = read().map_batches(side(False), batch_format="pyarrow")
    return cross_corpus_embedding_near_dups(
        train=rest, test=held, threshold=0.4
    )


def _q_contamination_check(sf_dir: str):
    from pdf_parser_ray.ops.crosscorpus import contamination_scores

    test, train = _split_documents(sf_dir)
    return contamination_scores(test, train, n=5)


def _q_bloom_novel_docs(sf_dir: str):
    from pdf_parser_ray.ops.crosscorpus import bloom_filter_novel

    cand, ref = _split_documents(sf_dir)
    return bloom_filter_novel(cand, ref, m_bits=1 << 20, k=4)


def _q_split_sentences(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import split_sentences

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return split_sentences(ds)


def _q_chunk_documents(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import chunk_documents

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # window 40 / stride 30: the synthetic docs run 10-99 words, so longer
    # docs fan out to 2-3 overlapping chunks and short ones stay whole
    return chunk_documents(ds, window=40, stride=30)


def _q_normalize_text(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import normalize_text

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return normalize_text(ds)


def _q_lm_surprisal(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import lm_surprisal

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return lm_surprisal(ds)


def _q_assign_splits(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import assign_splits

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return assign_splits(ds)


def _q_curate_corpus(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import curate_corpus

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    # min_stop_hits=1: the synthetic corpus carries only "the" from the
    # gopher stopword bank (same setting as the gopher_rules query)
    return curate_corpus(ds, min_stop_hits=1)


def _q_dedup_lines(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import dedup_lines

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return dedup_lines(ds, min_len=15)


def _q_quantize_embeddings(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.similarity import quantize_embeddings

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return quantize_embeddings(ds)


def _q_dedup_events(sf_dir: str):
    from pdf_parser_ray.ops.streaming import dedup_events

    return dedup_events(sf_dir, window_seconds=60)


def _q_surprisal_filter(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import surprisal_filter

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return surprisal_filter(ds, keep_frac=0.9)


def _q_rebalance_sources(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import rebalance_sources

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )
    # 3% uniform target: the synthetic corpus holds 20 ~5%-sized sources,
    # so every source gets meaningfully downsampled
    return rebalance_sources(ds, default_share=0.03)


def _q_dup_span_stats(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import dup_span_stats

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return dup_span_stats(ds, n=5)


def _q_global_rank(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.relational import global_rank

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    return global_rank(ds, score_col="n_chars", id_col="doc_id", descending=True)


def _q_gopher_rules(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.text_analysis import gopher_rules

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # min_stop_hits=1: the synthetic corpus carries only "the" from the
    # required-stopword bank, so the Gopher default (2) would zero the
    # keep flag for every doc and the gate would never exercise it
    return gopher_rules(ds, min_stop_hits=1)


def _q_simhash(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import simhash_table

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_table(ds)


def _q_simhash_pairs(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import simhash_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3)


def _q_embedding_near_dup(sf_dir: str):
    """Exact all-pairs cosine near-dup (recall-1.0 baseline, SQL-oracled);
    threshold 0.45 sits inside the synthetic embeddings' similarity range
    so the gate verifies real pair values, not an empty set."""
    import ray.data

    from pdf_parser_ray.ops.dedup import embedding_near_dup_exact

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return embedding_near_dup_exact(ds, threshold=0.45)


def _q_embedding_near_dup_lsh(sf_dir: str):
    """Multi-table sign-LSH near-dup — the sub-quadratic scale path.
    Approximate recall (no SQL oracle; tests pin planted-dup recall and
    the subset-of-exact relation); threshold/tables chosen so it surfaces
    a nonzero candidate set on the synthetic embeddings."""
    import ray.data

    from pdf_parser_ray.ops.dedup import embedding_near_dup

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return embedding_near_dup(ds, threshold=0.45, n_planes=6, n_tables=8)


def _query_vector(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    idx = pc.index(t["vec_id"], pa.scalar(0, pa.int64())).as_py()
    return np.asarray(t["embedding"][idx].as_py(), dtype=np.float64)


def _q_heavy_hitter_sources(sf_dir: str):
    """Mergeable heavy-hitter sketch over the source column, run in its
    exact regime (capacity >> distinct sources) so the SQL GROUP-BY
    oracle pins it; the approximate regime's n/capacity undercount bound
    is pinned by a unit test."""
    import ray.data

    from pdf_parser_ray.ops.relational import heavy_hitters

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source"]
    )
    return heavy_hitters(ds, "source", k=10, capacity=4096)


def _q_top_docs_per_source(sf_dir: str):
    """Per-domain cap (RefinedWeb-style "at most N docs per source"):
    keep the 3 longest docs per source, ties by doc_id. Hash-bucketed
    two-level top-k; NULL source is its own partition, NULL lengths
    order last — the SQL ROW_NUMBER window laws."""
    import ray.data

    from pdf_parser_ray.ops.relational import top_k_per_group

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "n_chars", "doc_id"]
    )
    return top_k_per_group(ds, "source", "n_chars", k=3, id_col="doc_id")


def _q_chars_quantiles_by_lang(sf_dir: str):
    """Per-group exact quantiles (quantile_cont per lang over doc
    lengths): one hash-bucketed shuffle of (group, value) pairs, sorted
    interpolation per group."""
    import ray.data

    from pdf_parser_ray.ops.relational import grouped_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    return grouped_quantiles(ds, "lang", "n_chars", [0.25, 0.5, 0.75])


def _q_knn(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.similarity import knn_bruteforce

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return knn_bruteforce(ds, _query_vector(sf_dir), k=10)


def _q_knn_ivf(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.similarity import knn_ivf

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return knn_ivf(ds, _query_vector(sf_dir), k=10, n_centroids=16, n_probe=16)


def _q_knn_ivf_recall(sf_dir: str):
    """Recall@10 of the APPROXIMATE IVF path (n_probe=1 of 16 lists — a
    genuinely lossy setting, unlike the exhaustive knn_ivf gate query)
    against the exact brute-force top-10 on the same query vector. Makes
    the accuracy/speed trade of IVF a gated NUMBER: the SQL oracle
    re-derives the probe set, list assignment (rounded-cosine law with
    index tiebreaks, similarity.py:213) and both top-10s, then computes
    the same overlap fraction."""
    import pandas as pd
    import ray.data

    from pdf_parser_ray.ops.similarity import knn_bruteforce, knn_ivf

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    q = _query_vector(sf_dir)
    brute = {r["vec_id"] for r in knn_bruteforce(ds, q, k=10).take_all()}
    ivf = {
        r["vec_id"]
        for r in knn_ivf(ds, q, k=10, n_centroids=16, n_probe=1).take_all()
    }
    return pd.DataFrame({"recall_at_k": [len(ivf & brute) / 10.0]})


def _q_knn_ivf_indexed(sf_dir: str):
    """Persisted-IVF query path: one-time partitioned index build, then a
    pruned read of the probed lists. n_probe == n_centroids keeps it exact
    (same oracle as knn); the pruned-IO property is pinned in pytest.

    The index dir is CACHED under /tmp keyed by (source path, mtime,
    n_centroids) — repeated driver-gate/bench invocations reuse one build
    instead of leaking a corpus-sized parquet copy per call. The build
    lands in a scratch dir and is renamed into place atomically."""
    import hashlib
    import os
    import shutil

    import ray.data

    from pdf_parser_ray.ops.similarity import build_ivf_index, knn_ivf_index

    src = f"{sf_dir}/embeddings.parquet"
    key = hashlib.md5(
        f"{os.path.abspath(src)}:{os.path.getmtime(src)}:16".encode()
    ).hexdigest()[:12]
    index_dir = os.path.join(_cache_root(), f"ivf_{key}")

    def cache_valid() -> bool:
        # don't trust a bare directory at a predictable /tmp path: a tmp
        # cleaner can prune artifacts inside it; require the build's three
        # outputs (centroids, meta, at least one list partition)
        try:
            import glob as _glob
            import json as _json

            with open(os.path.join(index_dir, "meta.json")) as f:
                meta = _json.load(f)
            return (
                isinstance(meta, dict)
                and meta.get("n_centroids") == 16
                and os.path.exists(os.path.join(index_dir, "centroids.npy"))
                and bool(_glob.glob(os.path.join(index_dir, "lists", "*", "*.parquet")))
            )
        except (OSError, ValueError):
            return False

    if not cache_valid():
        shutil.rmtree(index_dir, ignore_errors=True)
        scratch = f"{index_dir}.build.{os.getpid()}"
        build_ivf_index(ray.data.read_parquet(src), scratch, n_centroids=16)
        try:
            os.rename(scratch, index_dir)
        except OSError:  # a concurrent builder won the rename
            shutil.rmtree(scratch, ignore_errors=True)
    return knn_ivf_index(index_dir, _query_vector(sf_dir), k=10, n_probe=16)


def _q_knn_join(sf_dir: str):
    """Multi-query brute-force kNN: the query MATRIX (first 8 vectors)
    broadcasts once, every corpus batch emits local per-query top-k."""
    import pyarrow.parquet as pq
    import ray.data

    from pdf_parser_ray.ops.similarity import knn_join

    # row-group predicate pushdown: the driver keeps 8 rows, never the table
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 8)],
    )
    # the embedding-family null law on the QUERY side too: a null/empty
    # query vector is not a query (matches the oracle's q-side WHERE)
    qt = qt.filter(
        pc.and_(
            pc.and_(pc.is_valid(qt["vec_id"]), pc.is_valid(qt["embedding"])),
            pc.greater(
                pc.coalesce(
                    pc.list_value_length(qt["embedding"]),
                    pa.scalar(0, pa.int32()),
                ),
                0,
            ),
        )
    )
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_pylist()
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return knn_join(ds, queries, qids, k=5)


def _q_kmeans_clusters(sf_dir: str):
    """Distributed Lloyd's k-means (deterministic init, fixed iterations)
    -> cluster sizes. Iterative ML fitting: no SQL oracle (the driver
    contract's acknowledged category); determinism, blob recovery and the
    map-reduce shuffle shape are pinned in tests/test_ops.py."""
    import ray.data
    from ray.data.aggregate import Count

    from pdf_parser_ray.ops.similarity import kmeans

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    assignments, _ = kmeans(ds, k=8, n_iters=5)
    return (
        assignments.groupby("cluster").aggregate(Count(alias_name="size")).sort("cluster")
    )


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup: kmeans clusters then within-cluster smaller-id cosine
    drop; threshold 0.4 sits inside the blob-overlap band of the
    synthetic embeddings so both keep=true and keep=false rows appear."""
    import ray.data

    from pdf_parser_ray.ops.dedup import semantic_dedup

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return semantic_dedup(ds, k=8, n_iters=5, threshold=0.4)


def _q_minhash_dedup(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.dedup import minhash_dedup

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_dedup(ds, jaccard_threshold=0.8).select_columns(["doc_id"])


def _q_minhash_clusters(sf_dir: str):
    """Near-dup clusters via the distributed min-label path: cluster sizes."""
    import ray.data
    from ray.data.aggregate import Count

    from pdf_parser_ray.ops.dedup import (
        connected_components_distributed,
        minhash_candidate_pairs,
        verify_pairs_jaccard,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = verify_pairs_jaccard(minhash_candidate_pairs(ds), ds, threshold=0.8)
    clusters = connected_components_distributed(
        pairs.select_columns(["doc_a", "doc_b"]), numeric_ids=True
    )
    return (
        clusters.groupby("cluster").aggregate(Count(alias_name="size")).sort("cluster")
    )


def _q_events_hopping(sf_dir: str):
    from pdf_parser_ray.ops.streaming import hopping_window_agg

    return _round_cols(
        hopping_window_agg(sf_dir, window_minutes=60, hop_minutes=30),
        {"sum_value": 2},
    )


def _q_events_asof(sf_dir: str):
    from pdf_parser_ray.ops.streaming import events_prior_purchase

    return events_prior_purchase(sf_dir)


def _q_sessionize(sf_dir: str):
    from pdf_parser_ray.ops.streaming import sessionize

    return sessionize(sf_dir, gap_minutes=30)


def _q_pricing(sf_dir: str):
    from pdf_parser_ray.ops.relational import pricing_summary

    return _round_cols(
        pricing_summary(sf_dir),
        {"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2},
    )


def _q_revenue_by_nation(sf_dir: str):
    from pdf_parser_ray.ops.relational import revenue_by_nation

    return _round_cols(revenue_by_nation(sf_dir), {"revenue": 2})


def _q_filtered_revenue(sf_dir: str):
    from pdf_parser_ray.ops.relational import filtered_revenue

    return _round_cols(filtered_revenue(sf_dir), {"revenue": 2})


def _q_top_parts(sf_dir: str):
    from pdf_parser_ray.ops.relational import top_parts_by_size

    return top_parts_by_size(sf_dir)


def _q_events_window(sf_dir: str):
    from pdf_parser_ray.ops.relational import events_window_agg

    return _round_cols(events_window_agg(sf_dir), {"sum_value": 2})


def _q_customers_without_orders(sf_dir: str):
    from pdf_parser_ray.ops.relational import customers_without_orders

    # an empty Ray result loses its schema through to_pandas; reindex so the
    # driver's column check still sees the declared columns
    df = customers_without_orders(sf_dir).to_pandas()
    return df.reindex(columns=["c_custkey", "c_name"]) if df.empty else df


def _q_parts_in_lineitem(sf_dir: str):
    from pdf_parser_ray.ops.relational import parts_in_lineitem

    return parts_in_lineitem(sf_dir)


def _q_price_quantiles(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.relational import exact_quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return exact_quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.95])


def _q_approx_distinct(sf_dir: str):
    """HyperLogLog sketch over orders.o_custkey — deterministic (md5, no
    seeds), so the SQL oracle reproduces the exact same estimate."""
    import ray.data

    from pdf_parser_ray.ops.relational import approx_distinct

    ds = ray.data.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return approx_distinct(ds, "o_custkey", p=12)


def _q_distinct_counts(sf_dir: str):
    from pdf_parser_ray.ops.relational import distinct_counts

    return distinct_counts(sf_dir)


def _q_top_orders_per_priority(sf_dir: str):
    from pdf_parser_ray.ops.relational import top_orders_per_priority

    return top_orders_per_priority(sf_dir, k=3)


def _q_order_priority_revenue(sf_dir: str):
    from pdf_parser_ray.ops.relational import order_priority_revenue

    return _round_cols(order_priority_revenue(sf_dir), {"revenue": 2})


def _copurchase_pairs_ds(sf_dir: str):
    """Shared edge derivation for the graph queries: distinct part pairs
    co-occurring in an order (the hot-group cap at 256 distinct items can
    never trigger on TPC-H-ish orders, but the law is part of the oracle)."""
    import ray.data

    from pdf_parser_ray.ops.graph import cooccurrence_edges

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    )
    return cooccurrence_edges(li, "l_orderkey", "l_partkey", max_group_items=256)


def _q_copurchase_pairs(sf_dir: str):
    return _copurchase_pairs_ds(sf_dir)


def _q_pagerank_copurchase(sf_dir: str):
    import pyarrow as pa

    from pdf_parser_ray.ops.graph import pagerank

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch["item_a"].combine_chunks()
        b = batch["item_b"].combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
            }
        )

    edges = _copurchase_pairs_ds(sf_dir).map_batches(
        symmetrize, batch_format="pyarrow"
    )
    return pagerank(edges, iterations=8)


def _q_event_rate_anomaly(sf_dir: str):
    from pdf_parser_ray.ops.streaming import event_rate_anomaly

    return event_rate_anomaly(sf_dir, window_seconds=3600, z_threshold=2.0)


def _q_windowed_distinct(sf_dir: str):
    from pdf_parser_ray.ops.streaming import windowed_distinct

    return windowed_distinct(sf_dir, col="user_id", window_seconds=86400, p=10)


def _q_cohort_retention(sf_dir: str):
    from pdf_parser_ray.ops.streaming import cohort_retention

    return cohort_retention(sf_dir, window_seconds=86400)


def _q_trending_terms(sf_dir: str):
    from pdf_parser_ray.ops.streaming import trending_terms

    return trending_terms(sf_dir, window_seconds=3600, k=3)


def _q_funnel_conversion(sf_dir: str):
    from pdf_parser_ray.ops.streaming import funnel_conversion

    return funnel_conversion(
        sf_dir, step_a="view", step_b="purchase", horizon_seconds=86400
    )


def _q_rrf_search(sf_dir: str):
    """Rank-based retrieval fusion: BM25 top-50 + cosine top-50 to the
    vec_id-0 query (the knn family's query convention; vec_id == doc_id
    in this corpus), fused with integer reciprocal-rank scores."""
    import ray.data

    from pdf_parser_ray.ops.retrieval import rrf_search

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return rrf_search(
        docs, emb, _BM25_TERMS, _query_vector(sf_dir), k=10, pool=50
    )


def _q_supplier_stats(sf_dir: str):
    from pdf_parser_ray.ops.relational import supplier_balance_stats

    return _round_cols(
        supplier_balance_stats(sf_dir),
        {"sum_bal": 2, "min_bal": 2, "max_bal": 2, "avg_bal": 2},
    )


def _q_term_search(sf_dir: str):
    import ray.data

    from pdf_parser_ray.functions import term_search

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return _int_doc_id(term_search(ds, "merge"))


def _q_validation_summary(sf_dir: str):
    import pandas as pd

    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.pipelines.validation import validation_summary
    from pdf_parser_ray.sources import corpus_from_documents

    summary = validation_summary(extract_hybrid(corpus_from_documents(sf_dir)))
    flat = {k: v for k, v in summary.items() if not isinstance(v, dict)}
    flat.update(
        {f"coverage_{k}": v for k, v in summary["enhanced_coverage_metrics"].items()}
    )
    return pd.DataFrame([flat])


def _q_deterministic_sample(sf_dir: str):
    from pdf_parser_ray.ops.relational import deterministic_sample

    return deterministic_sample(sf_dir, modulus=10, keep_below=3)


def _q_docs_by_lang(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )
    return (
        ds.groupby(["lang", "source"])
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars"))
        .sort(["lang", "source"])
    )


def _q_events_json(sf_dir: str):
    """JSON scalar extraction from the events props column: one vectorized
    RE2 kernel per batch (``pc.extract_regex``) — no per-row Python. A
    missing/unparsable ``k`` contributes 0 to the sum, same as the SQL
    oracle's NULL-skipping SUM.

    Assumption (holds for the driver-generated events table, every props
    is a flat ``{"k": <int>}``): the regex reads the first top-level
    integer ``"k"`` key. Nested objects / float values / a ``"k"`` inside
    an earlier string value would diverge from the json_extract oracle —
    for arbitrary JSON swap in a per-row json.loads stage."""
    import ray.data
    from ray.data.aggregate import Count, Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "props"]
    )

    def parse(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(
            pc.cast(batch["props"], pa.string()), r'"k"\s*:\s*(?P<k>-?\d+)'
        )
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64()).fill_null(0)
        return pa.table({"event_type": batch["event_type"], "k": k})

    return (
        ds.map_batches(parse, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(alias_name="n"), Sum("k", alias_name="sum_k"))
        .sort("event_type")
    )


def _q_heading_strategies(sf_dir: str):
    """Reference ST3 (per-strategy match counters) as a distributed
    aggregate over the lifted corpus page texts."""
    from pdf_parser_ray.ops.text_analysis import heading_strategy_stats
    from pdf_parser_ray.pipelines.extract import page_rows
    from pdf_parser_ray.sources import corpus_from_documents

    pages = page_rows(corpus_from_documents(sf_dir), n_buckets=32).select_columns(
        ["text"]
    )
    return heading_strategy_stats(pages)


def _q_scrub_pii(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import scrub_pii

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return scrub_pii(ds)


def _q_repetition_score(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import repetition_score

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return repetition_score(ds)


def _q_top_ngrams(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import top_ngrams

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return top_ngrams(ds, n=2, k=20)


def _q_tfidf_top_terms(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import tfidf_top_terms

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return tfidf_top_terms(ds, k=3)


def _q_doc_frequency(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import doc_frequency

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return doc_frequency(ds, k=20)


# the BM25 gate query's terms — shared between the op call and the SQL
# generator so the per-term sum order is identical on both sides.
# "the" appears in BOTH the sf corpora and the null-parity corpus, so the
# null replay of this query ranks real rows instead of comparing empties
_BM25_TERMS = ["the", "vector", "join"]


def _bm25_oracle() -> str:
    from pdf_parser_ray.ops.retrieval import bm25_sql

    return bm25_sql(_BM25_TERMS, k=20)


def _pmi_oracle() -> str:
    from pdf_parser_ray.ops.curation import pmi_sql

    return pmi_sql(k=20, min_count=5)


def _bm25_pool_oracle() -> str:
    from pdf_parser_ray.ops.retrieval import bm25_sql

    return bm25_sql(_BM25_TERMS, k=100)


def _phrase_oracle() -> str:
    from pdf_parser_ray.ops.retrieval import phrase_sql

    return phrase_sql(_PHRASE)


def _rrf_oracle() -> str:
    from pdf_parser_ray.ops.retrieval import rrf_sql

    return rrf_sql(_BM25_TERMS, k=10, pool=50)


def _q_bm25_top_docs(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.retrieval import bm25_top_docs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_top_docs(ds, _BM25_TERMS, k=20)


_PHRASE = ["table", "value"]


def _q_pmi_top_pairs(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import pmi_top_pairs

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return pmi_top_pairs(ds, k=20, min_count=5)


def _q_phrase_search(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.retrieval import phrase_search

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return phrase_search(ds, _PHRASE)


def _q_hybrid_search(sf_dir: str):
    """Lexical+semantic composition: BM25 pool of 100 reranked by cosine
    to the vec_id-0 query embedding (the knn family's query convention;
    vec_id == doc_id in this corpus)."""
    import ray.data

    from pdf_parser_ray.ops.retrieval import hybrid_search

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return hybrid_search(
        docs, emb, _BM25_TERMS, _query_vector(sf_dir), k=10, pool=100
    )


def _q_bm25_index_top_docs(sf_dir: str):
    """Index-served BM25: one-time inverted-index build (term-bucket
    partitioned postings), then a pruned read of only the query terms'
    buckets — bit-identical to the scan path, same oracle. The index is
    CACHED under /tmp keyed by (source path, mtime, n_buckets), built in
    a scratch dir and renamed into place atomically (the IVF convention)."""
    import hashlib
    import os
    import shutil

    import ray.data

    from pdf_parser_ray.ops.retrieval import bm25_index_top_docs, build_text_index

    src = f"{sf_dir}/documents.parquet"
    key = hashlib.md5(
        f"{os.path.abspath(src)}:{os.path.getmtime(src)}:64".encode()
    ).hexdigest()[:12]
    index_dir = os.path.join(_cache_root(), f"tidx_{key}")

    def cache_valid() -> bool:
        # require the build's outputs, not just a dir at a guessable path
        try:
            import glob as _glob
            import json as _json

            with open(os.path.join(index_dir, "meta.json")) as f:
                meta = _json.load(f)
            return (
                isinstance(meta, dict)
                and meta.get("n_buckets") == 64
                and "n_docs" in meta  # rejects pre-stats-in-meta builds
                and bool(_glob.glob(os.path.join(index_dir, "postings", "*", "*.parquet")))
            )
        except (OSError, ValueError):
            return False

    if not cache_valid():
        shutil.rmtree(index_dir, ignore_errors=True)
        scratch = f"{index_dir}.build.{os.getpid()}"
        build_text_index(
            ray.data.read_parquet(src, columns=["doc_id", "text"]),
            scratch,
            n_buckets=64,
        )
        try:
            os.rename(scratch, index_dir)
        except OSError:  # a concurrent builder won the rename
            shutil.rmtree(scratch, ignore_errors=True)
    return bm25_index_top_docs(index_dir, _BM25_TERMS, k=20)


def _q_bm25_incr_index_top_docs(sf_dir: str):
    """Incrementally-maintained index (update_text_index): the corpus is
    split into two fragment files (cached by source mtime), the store is
    updated TWICE — the second call must resume with zero work — and the
    query is served from the per-fragment postings. Same oracle as the
    scan path: fragment-union serving is bit-identical by construction."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from pdf_parser_ray.ops.retrieval import bm25_index_top_docs, update_text_index

    src = f"{sf_dir}/documents.parquet"
    key = hashlib.md5(
        f"incr:{os.path.abspath(src)}:{os.path.getmtime(src)}:64".encode()
    ).hexdigest()[:12]
    frag_dir = os.path.join(_cache_root(), f"tfrag_{key}")
    if not (
        os.path.exists(os.path.join(frag_dir, "part0.parquet"))
        and os.path.exists(os.path.join(frag_dir, "part1.parquet"))
    ):
        os.makedirs(frag_dir, exist_ok=True)
        t = pq.read_table(src, columns=["doc_id", "text"])
        half = t.num_rows // 2
        pq.write_table(t.slice(0, half), os.path.join(frag_dir, "part0.parquet"))
        pq.write_table(t.slice(half), os.path.join(frag_dir, "part1.parquet"))
    files = [
        os.path.join(frag_dir, "part0.parquet"),
        os.path.join(frag_dir, "part1.parquet"),
    ]
    index_dir = os.path.join(_cache_root(), f"tincr_{key}")
    update_text_index(files, index_dir, n_buckets=64)
    again = update_text_index(files, index_dir, n_buckets=64)
    assert again["files_indexed_now"] == 0  # the resume law, every run
    return bm25_index_top_docs(index_dir, _BM25_TERMS, k=20)


def _q_orders_price_bands(sf_dir: str):
    from pdf_parser_ray.ops.relational import orders_price_bands

    return orders_price_bands(sf_dir)


def _q_pack_shards(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import pack_shards

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return pack_shards(ds, token_budget=4096, range_size=100)


def _q_stratified_sample(sf_dir: str):
    import ray.data

    from pdf_parser_ray.ops.curation import stratified_sample

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return stratified_sample(ds, pct=10, pct_by_stratum={"en": 20})


def _q_media_features(sf_dir: str):
    """REAL decode path: deterministic synthesized PPM payloads per image
    ref, decoded by the pure-numpy PNM parser — dimensions and byte counts
    hash-verified against the closed-form SQL oracle."""
    from pdf_parser_ray.ops.multimodal import media_features, media_inventory
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    media = media_inventory(
        extract_hybrid(corpus_from_documents(sf_dir)), synth_payloads=True
    )
    return _int_doc_id(media_features(media, fake=False).drop_columns(["feature"]))


def _q_price_quantiles_routed(sf_dir: str):
    """The exact/approx quantile FRONT DOOR: a HyperLogLog pass estimates
    l_extendedprice's distinct count and routes to the exact path here
    (bounded cardinality), proving the route end-to-end against the same
    quantile_cont oracle as price_quantiles."""
    import ray.data

    from pdf_parser_ray.ops.relational import quantiles

    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    return quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.95])


def _q_minhash_dedup_resumable(sf_dir: str):
    """The incremental-dedup path driven end-to-end: band signatures
    persist per corpus fragment under a /tmp store (cached across
    driver-gate/bench invocations like the IVF index) and the output is
    the SAME dedup answer — verified by the same SQL oracle as
    minhash_dedup."""
    import hashlib
    import os

    from pdf_parser_ray.ops.dedup import minhash_dedup_resumable

    src = f"{sf_dir}/documents.parquet"
    key = hashlib.md5(
        f"{os.path.abspath(src)}:{os.path.getmtime(src)}".encode()
    ).hexdigest()[:12]
    store = os.path.join(_cache_root(), f"bands_{key}")
    return minhash_dedup_resumable(
        [src], store, jaccard_threshold=0.8
    ).select_columns(["doc_id"])


def _q_media_features_jpeg(sf_dir: str):
    """REAL JPEG decode path: deterministic synthesized baseline-JPEG
    payloads (4:2:0, quality 90) per image ref, decoded by the
    pure-stdlib Huffman+IDCT codec — dimensions and decode status
    hash-verified against the closed-form SQL oracle (byte count and
    pixel values are excluded: entropy-coded length has no closed form
    and the transform is lossy)."""
    from pdf_parser_ray.ops.multimodal import media_features, media_inventory
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    media = media_inventory(
        extract_hybrid(corpus_from_documents(sf_dir)),
        synth_payloads=True,
        synth_format="jpeg",
    )
    return _int_doc_id(
        media_features(media, fake=False).select_columns(
            ["doc_id", "media_ref", "width", "height", "decode_ok"]
        )
    )


def _q_media_features_wav(sf_dir: str):
    """REAL audio decode path: deterministic synthesized PCM16 WAV
    payloads per media ref, decoded by the pure-stdlib RIFF chunk walk —
    sample count, channels, rate and duration hash-verified against the
    closed-form SQL oracle (RMS is excluded: digest-tiled sample values
    have no closed form)."""
    from pdf_parser_ray.ops.multimodal import audio_features, media_inventory
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    media = media_inventory(
        extract_hybrid(corpus_from_documents(sf_dir)),
        synth_payloads=True,
        synth_format="wav",
    )
    return _int_doc_id(
        audio_features(media).select_columns(
            [
                "doc_id",
                "media_ref",
                "n_samples",
                "channels",
                "sample_rate",
                "duration_ms",
                "decode_ok",
            ]
        )
    )


def _q_resize_images(sf_dir: str):
    """REAL resize path (decode -> nearest-neighbor resample -> PNG
    re-encode) over synthesized JPEG payloads, max_side=16 so the
    4..35-px synth dims actually downscale. Source and target dims are
    closed-form (the shared _fit_dims law: half-even rounding =
    round_even); the resized PNG bytes are pinned by round-trip tests,
    not the oracle (DEFLATE length has no closed form)."""
    from pdf_parser_ray.ops.multimodal import media_inventory, resize_media
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    media = media_inventory(
        extract_hybrid(corpus_from_documents(sf_dir)),
        synth_payloads=True,
        synth_format="jpeg",
    )
    return _int_doc_id(
        resize_media(media, max_side=16, fake=False).select_columns(
            ["doc_id", "media_ref", "width", "height",
             "out_width", "out_height", "decode_ok"]
        )
    )


def _q_media_probe_mp4(sf_dir: str):
    """REAL video-container metadata path: deterministic ISO-BMFF
    skeletons per media ref, parsed by the pure-stdlib box walk —
    duration, track count and video dimensions hash-verified against the
    closed-form SQL oracle. Frame decode stays honestly codec-gated."""
    from pdf_parser_ray.ops.multimodal import media_inventory, video_probe
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    media = media_inventory(
        extract_hybrid(corpus_from_documents(sf_dir)),
        synth_payloads=True,
        synth_format="mp4",
    )
    return _int_doc_id(video_probe(media))


def _q_media_features_png(sf_dir: str):
    """REAL PNG decode path: deterministic synthesized baseline-PNG
    payloads per image ref, decoded by the pure-stdlib zlib+unfilter
    codec — dimensions and decode status hash-verified against the
    closed-form SQL oracle (byte count is excluded: DEFLATE length has
    no closed form)."""
    from pdf_parser_ray.ops.multimodal import media_features, media_inventory
    from pdf_parser_ray.pipelines import extract_hybrid
    from pdf_parser_ray.sources import corpus_from_documents

    media = media_inventory(
        extract_hybrid(corpus_from_documents(sf_dir)),
        synth_payloads=True,
        synth_format="png",
    )
    return _int_doc_id(
        media_features(media, fake=False).select_columns(
            ["doc_id", "media_ref", "width", "height", "decode_ok"]
        )
    )


def queries() -> dict[str, Callable[[str], Any]]:
    import functools

    def hygienic(fn):
        @functools.wraps(fn)
        def wrapped(sf_dir: str):
            _install_log_hygiene()
            return fn(sf_dir)

        return wrapped

    raw = {
        # flagship extraction family
        "extract_doc_pages": _q_extract_doc_pages,
        "extract_stats": _q_extract_stats,
        "extract_span_kinds": _q_extract_span_kinds,
        # text analysis
        "term_search": _q_term_search,
        "doc_stats": _q_doc_stats,
        "quality_score": _q_quality,
        "script_mix": _q_script_mix,
        "lang_id": _q_lang_id,
        "classify_blocks": _q_classify_blocks,
        "main_content": _q_main_content,
        "fingerprint": _q_fingerprint,
        # dedup
        "exact_dedup": _q_exact_dedup,
        "exact_dedup_ids": _q_exact_dedup_ids,
        "minhash_pairs": _q_minhash_pairs,
        "ngram_jaccard_pairs": _q_ngram_jaccard_pairs,
        "simhash": _q_simhash,
        # cross-corpus
        "contamination_check": _q_contamination_check,
        "cross_corpus_near_dups": _q_cross_corpus_near_dups,
        "cross_corpus_embedding_near_dups": _q_cross_corpus_embedding_near_dups,
        "bloom_novel_docs": _q_bloom_novel_docs,
        "gopher_rules": _q_gopher_rules,
        "split_sentences": _q_split_sentences,
        "chunk_documents": _q_chunk_documents,
        "normalize_text": _q_normalize_text,
        "global_rank": _q_global_rank,
        "lm_surprisal": _q_lm_surprisal,
        "assign_splits": _q_assign_splits,
        "curate_corpus": _q_curate_corpus,
        "rebalance_sources": _q_rebalance_sources,
        "surprisal_filter": _q_surprisal_filter,
        "dedup_lines": _q_dedup_lines,
        "dedup_events": _q_dedup_events,
        "quantize_embeddings": _q_quantize_embeddings,
        "dup_span_stats": _q_dup_span_stats,
        "simhash_pairs": _q_simhash_pairs,
        "embedding_near_dup": _q_embedding_near_dup,
        "embedding_near_dup_lsh": _q_embedding_near_dup_lsh,
        "minhash_dedup": _q_minhash_dedup,
        "minhash_clusters": _q_minhash_clusters,
        # similarity search
        "heavy_hitter_sources": _q_heavy_hitter_sources,
        "top_docs_per_source": _q_top_docs_per_source,
        "chars_quantiles_by_lang": _q_chars_quantiles_by_lang,
        "knn_bruteforce": _q_knn,
        "knn_ivf": _q_knn_ivf,
        "knn_ivf_recall": _q_knn_ivf_recall,
        "knn_ivf_indexed": _q_knn_ivf_indexed,
        "knn_join": _q_knn_join,
        "kmeans_clusters": _q_kmeans_clusters,
        "semantic_dedup": _q_semantic_dedup,
        # relational engine surface
        "pricing_summary": _q_pricing,
        "revenue_by_nation": _q_revenue_by_nation,
        "filtered_revenue": _q_filtered_revenue,
        "top_parts_by_size": _q_top_parts,
        "events_window_agg": _q_events_window,
        "events_hopping_window": _q_events_hopping,
        "events_asof_join": _q_events_asof,
        "sessionize": _q_sessionize,
        "event_rate_anomaly": _q_event_rate_anomaly,
        "trending_terms": _q_trending_terms,
        "funnel_conversion": _q_funnel_conversion,
        "cohort_retention": _q_cohort_retention,
        "windowed_distinct": _q_windowed_distinct,
        "docs_by_lang": _q_docs_by_lang,
        "deterministic_sample": _q_deterministic_sample,
        "events_json": _q_events_json,
        "supplier_balance_stats": _q_supplier_stats,
        "customers_without_orders": _q_customers_without_orders,
        "parts_in_lineitem": _q_parts_in_lineitem,
        "distinct_counts": _q_distinct_counts,
        "approx_distinct": _q_approx_distinct,
        "price_quantiles": _q_price_quantiles,
        "top_orders_per_priority": _q_top_orders_per_priority,
        "order_priority_revenue": _q_order_priority_revenue,
        # graph family: co-occurrence derivation + fixed-point PageRank
        "copurchase_pairs": _q_copurchase_pairs,
        "pagerank_copurchase": _q_pagerank_copurchase,
        # heading-strategy counters (reference ST3) over lifted page texts
        "heading_strategies": _q_heading_strategies,
        # corpus curation
        "scrub_pii": _q_scrub_pii,
        "repetition_score": _q_repetition_score,
        "top_ngrams": _q_top_ngrams,
        "pmi_top_pairs": _q_pmi_top_pairs,
        "doc_frequency": _q_doc_frequency,
        "tfidf_top_terms": _q_tfidf_top_terms,
        "bm25_top_docs": _q_bm25_top_docs,
        "bm25_index_top_docs": _q_bm25_index_top_docs,
        "bm25_incr_index_top_docs": _q_bm25_incr_index_top_docs,
        "phrase_search": _q_phrase_search,
        "hybrid_search": _q_hybrid_search,
        "rrf_search": _q_rrf_search,
        "pack_shards": _q_pack_shards,
        "stratified_sample": _q_stratified_sample,
        "orders_price_bands": _q_orders_price_bands,
        # routed quantile front door (HLL estimate -> exact path here)
        "price_quantiles_routed": _q_price_quantiles_routed,
        # incremental dedup over the persisted band store
        "minhash_dedup_resumable": _q_minhash_dedup_resumable,
        # multimodal (real PPM + PNG decodes over synthesized payloads)
        "media_features": _q_media_features,
        "media_features_png": _q_media_features_png,
        "media_features_jpeg": _q_media_features_jpeg,
        "media_features_wav": _q_media_features_wav,
        "media_probe_mp4": _q_media_probe_mp4,
        "resize_images": _q_resize_images,
        # corpus-level validation report (reference step 5)
        "validation_summary": _q_validation_summary,
    }
    return {k: hygienic(v) for k, v in raw.items()}


# FNV-1a 32-bit over the stringified doc_id — the synthgen page-media hash
# (functions/hashing.py fnv1a_32), computed in pure SQL via list_reduce
_FNV_SQL = (
    "list_reduce(list_prepend(2166136261::BIGINT, "
    "list_transform(string_split(CAST(doc_id AS VARCHAR), ''), c -> ord(c)::BIGINT)), "
    "(h,c) -> (xor(h,c) * 16777619) % 4294967296)"
)

# closed-form lift math shared by the extract_stats / extract_span_kinds
# oracles: pages = ceil(max(ceil(len/80),1)/30); a table on pages where
# (h+p)%3==0, an image where (h+p)%4==0 (synthgen.doc_text_to_spans)
_EXTRACT_BASE_SQL = (
    "WITH d AS ("
    "  SELECT doc_id, CAST(CEIL(GREATEST(CEIL(LENGTH(text)/80.0),1)/30.0) AS INT) AS p, "
    f"  {_FNV_SQL} AS h"
    "  FROM documents"
    "), pages AS ("
    "  SELECT doc_id, p, h, unnest(range(1, p+1)) AS pg FROM d"
    "), m AS ("
    "  SELECT doc_id, "
    "    SUM(CASE WHEN (h+pg)%3=0 THEN 1 ELSE 0 END) AS t, "
    "    SUM(CASE WHEN (h+pg)%4=0 THEN 1 ELSE 0 END) AS i "
    "  FROM pages GROUP BY doc_id"
    ")"
)

def _minhash_base_sql() -> str:
    """The full MinHash-LSH pipeline in SQL — shingle sets, the 64
    universal-hash permutations (constants read from the MinHasher actor so
    both sides share one seed), banded LSH collisions, exact-Jaccard verify,
    and a recursive-CTE connected-components closure. Shared by the
    minhash_pairs / minhash_dedup / minhash_clusters oracles."""
    from pdf_parser_ray.ops.dedup import MinHasher

    mh = MinHasher()  # default num_perm=64, band_size=4, shingle 5, seed 7
    a = ",".join(str(int(x)) for x in mh.a)
    b = ",".join(str(int(x)) for x in mh.b)
    return f"""
WITH RECURSIVE toks AS (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id, regexp_extract_all(lower(text), '\\S+') AS tk FROM documents
), sh AS (
  SELECT doc_id,
    list_distinct(CASE WHEN len(tk) = 0 THEN []
      WHEN len(tk) < 5 THEN [array_to_string(tk, ' ')]
      ELSE list_transform(range(len(tk)-4), i -> array_to_string(list_slice(tk, i+1, i+5), ' ')) END) AS sgl
  FROM toks
), base AS (
  SELECT doc_id, CAST(('0x'||substr(md5(s),1,16))::UBIGINT % 2147483647 AS BIGINT) AS bh
  FROM (SELECT doc_id, unnest(sgl) AS s FROM sh)
), perms AS (
  SELECT unnest(range(64)) AS p, unnest([{a}]) AS a, unnest([{b}]) AS b
), sig AS (
  SELECT doc_id, p, MIN((a*bh + b) % 2147483647) AS s
  FROM base, perms GROUP BY doc_id, p
), bands AS (
  SELECT doc_id, CAST(p//4 AS INT) AS band_id,
    CAST(('0x'||substr(md5(string_agg(CAST(s AS VARCHAR), '|' ORDER BY p)),1,16))::UBIGINT >> 1 AS BIGINT) AS band_hash
  FROM sig GROUP BY doc_id, p//4
), cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM bands x JOIN bands y ON x.band_id = y.band_id AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
), verified AS (
  SELECT doc_a, doc_b,
    len(list_intersect(sa.sgl, sb.sgl))::DOUBLE /
    (len(sa.sgl) + len(sb.sgl) - len(list_intersect(sa.sgl, sb.sgl))) AS j
  FROM cand JOIN sh sa ON sa.doc_id = cand.doc_a JOIN sh sb ON sb.doc_id = cand.doc_b
), edges AS (
  SELECT CAST(doc_a AS BIGINT) AS a, CAST(doc_b AS BIGINT) AS b FROM verified WHERE j >= 0.8
), und AS (
  SELECT a, b FROM edges UNION SELECT b, a FROM edges
), reach AS (
  SELECT a AS s, b AS t FROM und
  UNION
  SELECT r.s, u.b FROM reach r JOIN und u ON r.t = u.a
), comps AS (
  SELECT s, LEAST(s, MIN(t)) AS lab FROM reach GROUP BY s
)
"""


def _embedding_lsh_sql(
    threshold: float = 0.45, n_planes: int = 6, n_tables: int = 8, seed: int = 11, dim: int = 64
) -> str:
    """The multi-table sign-LSH near-dup pipeline reproduced in SQL: the
    seeded hyperplanes are deterministic numpy draws (ops/dedup.py
    embedding_near_dup rebuilds RandomState(seed+t).standard_normal((dim,
    n_planes)) per task), so the exact plane matrices are embedded as SQL
    literals; bucket keys, the same-bucket candidate join and the rounded
    cosine cut then mirror the op 1:1. ``dim`` is pinned by the testdata
    generator (embeddings.parquet list<float>[64])."""
    rows = []
    for t in range(n_tables):
        planes = np.random.RandomState(seed + t).standard_normal((dim, n_planes))
        for p in range(n_planes):
            vals = ",".join(repr(float(x)) for x in planes[:, p])
            rows.append(f"({t}, {p}, [{vals}]::DOUBLE[])")
    values = ", ".join(rows)
    return (
        "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
        "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
        f"pl(t, p, pv) AS (VALUES {values}), "
        "keys AS ("
        f"  SELECT e.vec_id, pl.t * {1 << n_planes} + "
        "    SUM(CASE WHEN list_dot_product(e.v, pl.pv) > 0 "
        "        THEN (1::BIGINT << pl.p) ELSE 0 END) AS bucket_key "
        "  FROM e CROSS JOIN pl GROUP BY e.vec_id, pl.t"
        "), cand AS ("
        "  SELECT DISTINCT a.vec_id AS id_a, b.vec_id AS id_b "
        "  FROM keys a JOIN keys b "
        "  ON a.bucket_key = b.bucket_key AND a.vec_id < b.vec_id"
        ") SELECT c.id_a, c.id_b, "
        "round_even(list_cosine_similarity(ea.v, eb.v), 6) AS cosine "
        "FROM cand c JOIN e ea ON ea.vec_id = c.id_a "
        "JOIN e eb ON eb.vec_id = c.id_b "
        f"WHERE round_even(list_cosine_similarity(ea.v, eb.v), 6) >= {threshold}"
    )


def _cross_embedding_lsh_sql(
    threshold: float = 0.4,
    n_planes: int = 6,
    n_tables: int = 8,
    seed: int = 11,
    dim: int = 64,
) -> str:
    """The cross-corpus sign-LSH pipeline (ops/crossembed.py) in SQL: the
    _embedding_lsh_sql plane-literal trick, with the same-bucket join
    restricted to CROSS-side collisions only (train = vec_id % 10 != 0,
    test = vec_id % 10 == 0 — the deterministic split the query uses) and
    pairs oriented (train_id, test_id), not id-sorted."""
    rows = []
    for t in range(n_tables):
        planes = np.random.RandomState(seed + t).standard_normal((dim, n_planes))
        for p in range(n_planes):
            vals = ",".join(repr(float(x)) for x in planes[:, p])
            rows.append(f"({t}, {p}, [{vals}]::DOUBLE[])")
    values = ", ".join(rows)
    return (
        "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
        "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
        f"pl(t, p, pv) AS (VALUES {values}), "
        "keys AS ("
        f"  SELECT e.vec_id, pl.t * {1 << n_planes} + "
        "    SUM(CASE WHEN list_dot_product(e.v, pl.pv) > 0 "
        "        THEN (1::BIGINT << pl.p) ELSE 0 END) AS bucket_key "
        "  FROM e CROSS JOIN pl GROUP BY e.vec_id, pl.t"
        "), cand AS ("
        "  SELECT DISTINCT a.vec_id AS train_id, b.vec_id AS test_id "
        "  FROM keys a JOIN keys b ON a.bucket_key = b.bucket_key "
        "  WHERE a.vec_id % 10 != 0 AND b.vec_id % 10 = 0"
        ") SELECT c.train_id, c.test_id, "
        "round_even(list_cosine_similarity(ea.v, eb.v), 6) AS cosine "
        "FROM cand c JOIN e ea ON ea.vec_id = c.train_id "
        "JOIN e eb ON eb.vec_id = c.test_id "
        f"WHERE round_even(list_cosine_similarity(ea.v, eb.v), 6) >= {threshold}"
    )


def _kmeans_asg_sql(
    k: int = 8, n_iters: int = 5, dim: int = 64, where: str = ""
) -> str:
    """Lloyd's k-means UNROLLED in SQL (fixed n_iters makes it non-
    iterative): init = vectors of the k smallest vec_ids, each iteration
    assigns by squared-euclidean argmin (same expansion the op uses — the
    per-row v·v term is constant across clusters, so engine summation
    differences there cannot flip an argmin) and recomputes per-dimension
    means rounded through printf('%.9f'), the identical correctly-rounded
    decimal path as the op's float(f"{x:.9f}") centroid rounding. Empty
    clusters keep their previous centroid (the COALESCE).

    Returns the WITH clause ending after the final assignment CTE
    ``a{n_iters+1}`` (vec_id, cluster) — shared by the kmeans_clusters
    and semantic_dedup oracles (``e`` holds the DOUBLE[] vectors)."""
    parts = [
        f"WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings{where}), ",
        (
            "c0 AS (SELECT CAST(ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS INT) "
            f"AS cluster, v AS c FROM (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT {k}))"
        ),
    ]
    for i in range(1, n_iters + 2):  # n_iters updates + the final assignment
        parts.append(
            f", a{i} AS (SELECT vec_id, cluster FROM ("
            "SELECT e.vec_id, c.cluster, ROW_NUMBER() OVER (PARTITION BY e.vec_id "
            "ORDER BY list_dot_product(e.v, e.v) - 2*list_dot_product(e.v, c.c) "
            f"+ list_dot_product(c.c, c.c), c.cluster) AS rn FROM e CROSS JOIN c{i-1} c"
            ") WHERE rn = 1)"
        )
        if i == n_iters + 1:
            break
        parts.append(
            f", u{i} AS (SELECT cluster, j, "
            "CAST(printf('%.9f', SUM(x)/COUNT(*)) AS DOUBLE) AS m FROM ("
            f"SELECT a.cluster, unnest(range({dim})) AS j, unnest(e.v) AS x "
            f"FROM a{i} a JOIN e ON e.vec_id = a.vec_id) GROUP BY cluster, j)"
        )
        parts.append(
            f", c{i} AS (SELECT p.cluster, COALESCE(nn.c, p.c) AS c FROM c{i-1} p "
            f"LEFT JOIN (SELECT cluster, list(m ORDER BY j) AS c FROM u{i} "
            "GROUP BY cluster) nn ON p.cluster = nn.cluster)"
        )
    return "".join(parts)


def _kmeans_sql(k: int = 8, n_iters: int = 5, dim: int = 64) -> str:
    return (
        _kmeans_asg_sql(k, n_iters, dim)
        + f" SELECT CAST(cluster AS INT) AS cluster, COUNT(*)::BIGINT AS size "
        f"FROM a{n_iters + 1} GROUP BY cluster ORDER BY cluster"
    )


def _semantic_dedup_sql(
    k: int = 8, n_iters: int = 5, dim: int = 64, threshold: float = 0.9
) -> str:
    """semantic_dedup oracle: the kmeans assignment CTE, then within each
    cluster a smaller-id neighbor with ROUND(cosine, 6) >= threshold
    marks a vector as dropped (the embedding_near_dup rounding
    convention, so the cut cannot disagree with the op)."""
    a = f"a{n_iters + 1}"
    return (
        # the op drops null ids and null/empty embeddings up front — same
        # filter here so null-parity replays agree (hash-neutral on gate
        # data, which has no null vectors)
        _kmeans_asg_sql(
            k,
            n_iters,
            dim,
            where=(
                " WHERE vec_id IS NOT NULL AND embedding IS NOT NULL"
                " AND len(embedding) > 0"
            ),
        )
        + f", pairs AS (SELECT b.vec_id AS dup FROM {a} a "
        + f"JOIN {a} b ON a.cluster = b.cluster AND a.vec_id < b.vec_id "
        + "JOIN e ea ON ea.vec_id = a.vec_id JOIN e eb ON eb.vec_id = b.vec_id "
        + "WHERE round_even(list_cosine_similarity(ea.v, eb.v), 6) >= "
        + f"{threshold}) "
        + "SELECT a.vec_id, CAST(a.cluster AS INT) AS cluster, "
        + f"a.vec_id NOT IN (SELECT dup FROM pairs) AS keep FROM {a} a"
    )


# the SimHash computation (ops/dedup.py simhash_table) ending in a `shfull`
# CTE — shared by the simhash / simhash_pairs oracles
_SIMHASH_BASE_SQL = (
    r"WITH toks AS (SELECT doc_id, "
    r"unnest(regexp_extract_all(lower(text), '\S+')) AS tok FROM documents "
    r"WHERE doc_id IS NOT NULL), "
    r"th AS (SELECT doc_id, ('0x'||substr(md5(tok),1,16))::UBIGINT AS h FROM toks), "
    r"bits AS (SELECT doc_id, b, "
    r"SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS s "
    r"FROM th, (SELECT unnest(range(63)) AS b) bs GROUP BY doc_id, b), "
    r"sh AS (SELECT doc_id, "
    r"CAST(SUM(CASE WHEN s > 0 THEN (1::UBIGINT << b) ELSE 0::UBIGINT END) AS BIGINT) AS simhash "
    r"FROM bits GROUP BY doc_id), "
    r"shfull AS (SELECT d.doc_id, COALESCE(sh.simhash, 0) AS simhash, "
    r"CAST((COALESCE(sh.simhash,0) >> 0) & 65535 AS INT) AS band_0, "
    r"CAST((COALESCE(sh.simhash,0) >> 16) & 65535 AS INT) AS band_1, "
    r"CAST((COALESCE(sh.simhash,0) >> 32) & 65535 AS INT) AS band_2, "
    r"CAST((COALESCE(sh.simhash,0) >> 48) & 65535 AS INT) AS band_3 "
    r"FROM documents d LEFT JOIN sh ON d.doc_id = sh.doc_id "
    r"WHERE d.doc_id IS NOT NULL) "
)


# the np.select line-classification cascade (ops/blocks.py classify_lines),
# rule-for-rule in SQL; shared by the classify_blocks / main_content oracles
_BLOCK_CLS_SQL = r"""
WITH lines AS (
  SELECT doc_id, CAST(unnest(range(len(ls))) AS INT) AS line_idx, unnest(ls) AS line
  FROM (SELECT doc_id, string_split(text, chr(10)) AS ls FROM documents)
), f AS (
  SELECT doc_id, line_idx, line,
    trim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) AS st,
    LENGTH(line) - LENGTH(ltrim(line, ' ' || chr(9) || chr(13) || chr(11) || chr(12))) AS indent
  FROM lines
), g AS (
  SELECT doc_id, line_idx, line, st, indent,
    LENGTH(st) AS n,
    len(regexp_extract_all(st, '\S+')) AS nw,
    regexp_matches(st, '^(?:[\-\*•▪·]|\d+[.)])\s+') AS bullet,
    len(regexp_extract_all(st, '\s\|\s')) AS pipeish,
    len(regexp_extract_all(st, '\s*[|·/>]\s*')) AS navsep,
    len(regexp_extract_all(st, '(https?://|www\.|\[\d+\])')) AS linkish,
    len(regexp_extract_all(st, '[A-Z]'))::DOUBLE / GREATEST(len(regexp_extract_all(st, '[A-Za-z]')), 1) AS upper_ratio,
    regexp_matches(st, '^.*[.!?:;]$') AS endpunct,
    regexp_matches(st, '^(def |class |import |from |#include|\{|\}|</?\w+[ >])') AS codeish
  FROM f
), cls AS (
  SELECT doc_id, line_idx, line,
    CASE
      WHEN n = 0 THEN 'blank'
      WHEN codeish OR (indent >= 4 AND nw <= 12) THEN 'code'
      WHEN bullet THEN 'list_item'
      WHEN pipeish >= 1 THEN 'table_row'
      WHEN (navsep >= 2 AND nw <= 12) OR linkish >= 2 THEN 'nav'
      WHEN nw <= 6 AND upper_ratio > 0.6 AND n >= 4 THEN 'heading'
      WHEN nw >= 2 AND nw <= 12 AND NOT endpunct AND upper_ratio > 0.1 THEN 'heading'
      WHEN nw >= 5 THEN 'paragraph'
      ELSE 'short'
    END AS block_class
  FROM g
)
"""


_COPURCHASE_CTES = (
    "li AS (SELECT DISTINCT l_orderkey AS ok, l_partkey AS pk FROM lineitem "
    "  WHERE l_orderkey IS NOT NULL AND l_partkey IS NOT NULL), "
    # the op's hot-group guard: only orders with 2..256 distinct parts pair up
    "gsz AS (SELECT ok FROM li GROUP BY ok HAVING COUNT(*) BETWEEN 2 AND 256), "
    "pairs AS (SELECT DISTINCT a.pk AS item_a, b.pk AS item_b FROM li a "
    "  JOIN li b ON a.ok = b.ok AND a.pk < b.pk JOIN gsz g ON g.ok = a.ok)"
)


def _pagerank_sql(edges_ctes: str, iterations: int, unit: int = 10**12,
                  d_num: int = 85, d_den: int = 100) -> str:
    """Unrolled fixed-point PageRank (the kmeans-oracle technique): one
    chained CTE per iteration replaying ops.graph's integer update law —
    base + (d_num * SUM(r // deg)) // d_den over BIGINTs, floor division
    exact on both engines since every quantity is non-negative. ``SUM``
    returns HUGEINT; the CAST back to BIGINT keeps pandas from floating
    the fixed-point column."""
    base = ((d_den - d_num) * unit) // d_den
    ctes = [
        edges_ctes,
        "nodes AS (SELECT src AS node FROM edges UNION SELECT dst FROM edges)",
        "deg AS (SELECT src AS node, COUNT(*) AS deg FROM edges GROUP BY src)",
        f"r0 AS (SELECT node, CAST({unit} AS BIGINT) AS r FROM nodes)",
    ]
    for k in range(1, iterations + 1):
        ctes.append(
            f"r{k} AS (SELECT n.node, "
            f"CAST({base} + ({d_num} * COALESCE(s.m, 0)) // {d_den} AS BIGINT) AS r "
            "FROM nodes n LEFT JOIN ("
            "  SELECT e.dst AS node, CAST(SUM(rr.r // d.deg) AS BIGINT) AS m "
            f"  FROM edges e JOIN r{k - 1} rr ON rr.node = e.src "
            "  JOIN deg d ON d.node = e.src GROUP BY e.dst) s ON n.node = s.node)"
        )
        # per-node message sums stay far inside BIGINT: total mass is
        # ~N * unit and no node can absorb more than all of it
    return (
        "WITH " + ", ".join(ctes) + " "
        f"SELECT node, r AS rank_fp, "
        f"round_even(r / CAST({unit} AS DOUBLE), 6) AS rank FROM r{iterations}"
    )


def oracle_sql() -> dict[str, str]:
    out = {
        # pages = ceil(max(ceil(len/80),1)/30): doc_text_to_spans line/page math
        "extract_doc_pages": (
            "SELECT doc_id, CAST(CEIL(GREATEST(CEIL(LENGTH(text)/80.0),1)/30.0) AS INT) "
            "AS total_pages FROM documents"
        ),
        "doc_stats": (
            "SELECT doc_id, CAST(LENGTH(text) AS BIGINT) AS n_chars, "
            "CAST(LENGTH(text) - LENGTH(REPLACE(text, chr(10), '')) + 1 AS BIGINT) AS n_lines, "
            r"CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens, "
            "CAST(len(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha, "
            "CAST(len(regexp_extract_all(text, "
            r"$$'(?:s|d|m|t|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+$$"
            ")) AS BIGINT) AS n_bpe_tokens "
            "FROM documents"
        ),
        "exact_dedup": (
            "SELECT MIN(doc_id) AS doc_id, text FROM documents GROUP BY text"
        ),
        "exact_dedup_ids": (
            "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "extract_stats": _EXTRACT_BASE_SQL + (
            " SELECT d.doc_id, d.p AS total_pages, d.p AS pages_with_text, "
            "CAST(COALESCE(m.t,0) AS INT) AS pages_with_tables, "
            "CAST(COALESCE(m.i,0) AS INT) AS pages_with_images, "
            "0 AS pages_with_annotations, 0 AS pages_with_layout, "
            "CAST(d.p + COALESCE(m.t,0) + COALESCE(m.i,0) AS INT) AS n_spans, "
            "100.0 AS page_coverage_pct, FALSE AS parse_failure "
            "FROM d LEFT JOIN m ON d.doc_id = m.doc_id"
        ),
        "extract_span_kinds": _EXTRACT_BASE_SQL + (
            ", sums AS ("
            "  SELECT SUM(d.p) AS np_, SUM(COALESCE(m.t,0)) AS nt, "
            "         SUM(COALESCE(m.i,0)) AS ni "
            "  FROM d LEFT JOIN m ON d.doc_id = m.doc_id"
            ") SELECT kind, CAST(n AS BIGINT) AS n FROM ("
            "  SELECT 'image' AS kind, ni AS n FROM sums"
            "  UNION ALL SELECT 'table', nt FROM sums"
            "  UNION ALL SELECT 'text', np_ FROM sums"
            ") WHERE n > 0 ORDER BY kind"
        ),
        # Unicode-script composition: RE2 script classes are char-identical
        # between Arrow and DuckDB (pinned in tests); dominant ties resolve
        # by the CASE chain order = the op's np.select priority order
        "script_mix": (
            r"WITH c AS ("
            r"  SELECT doc_id, len(COALESCE(text, '')) AS n_chars, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '\p{Latin}')) AS n_latin, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '\p{Cyrillic}')) AS n_cyrillic, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '\p{Han}')) AS n_han, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '\p{Hiragana}|\p{Katakana}')) AS n_kana, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '[0-9]')) AS n_digit "
            r"  FROM documents"
            r"), g AS ("
            r"  SELECT *, greatest(n_latin, n_cyrillic, n_han, n_kana, n_digit) AS maxc FROM c"
            r") SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars, "
            r"  CAST(n_latin AS BIGINT) AS n_latin, CAST(n_cyrillic AS BIGINT) AS n_cyrillic, "
            r"  CAST(n_han AS BIGINT) AS n_han, CAST(n_kana AS BIGINT) AS n_kana, "
            r"  CAST(n_digit AS BIGINT) AS n_digit, "
            r"  CASE WHEN maxc = 0 THEN 'none' "
            r"       WHEN n_latin = maxc THEN 'latin' "
            r"       WHEN n_cyrillic = maxc THEN 'cyrillic' "
            r"       WHEN n_han = maxc THEN 'han' "
            r"       WHEN n_kana = maxc THEN 'kana' "
            r"       ELSE 'digit' END AS dominant_script, "
            r"  CASE WHEN n_chars > 0 THEN round_even(CAST(maxc AS DOUBLE) / n_chars, 6) "
            r"       ELSE 0.0 END AS dominant_ratio "
            r"FROM g"
        ),
        "quality_score": (
            r"WITH c AS ("
            r"  SELECT doc_id, LENGTH(COALESCE(text, ''))::DOUBLE AS n_chars, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '\S+'))::DOUBLE AS nt, "
            r"    len(regexp_extract_all(COALESCE(text, ''), '[.,;:!?]'))::DOUBLE AS np_, "
            r"    len(regexp_extract_all(lower(COALESCE(text, '')), "
            r"'\b(?:the|and|of|to|a|in|is|it|that|for)\b'))::DOUBLE AS ns "
            r"  FROM documents"
            r"), r AS ("
            r"  SELECT doc_id, nt, n_chars, "
            r"    np_/GREATEST(nt,1.0) AS punct_ratio, "
            r"    ns/GREATEST(nt,1.0) AS stop_ratio, "
            r"    CASE WHEN nt > 0 THEN (n_chars-(nt-1.0))/GREATEST(nt,1.0) "
            r"    ELSE 0.0 END AS mwl"
            r"  FROM c"
            r") SELECT doc_id, CAST(nt AS BIGINT) AS n_tokens, "
            r"round_even(punct_ratio,6) AS punct_ratio, round_even(stop_ratio,6) AS stop_ratio, "
            r"round_even(LEAST(GREATEST(nt/100.0,0.0),1.0)*0.4 "
            r"+ LEAST(GREATEST(stop_ratio/0.3,0.0),1.0)*0.3 "
            r"+ LEAST(GREATEST(punct_ratio/0.1,0.0),1.0)*0.2 "
            r"+ CASE WHEN mwl >= 3 AND mwl <= 10 THEN 0.1 ELSE 0.0 END, 6) AS quality "
            r"FROM r"
        ),
        "lang_id": (
            "WITH toks AS ("
            "  SELECT doc_id, regexp_extract_all(substr(lower(COALESCE(text, '')),1,4000), "
            "'[a-z'']+') AS ts FROM documents"
            "), hits AS ("
            "  SELECT doc_id, len(ts)::DOUBLE AS n, "
            "    len(list_filter(ts, t -> t IN ('the','and','of','to','a','in','is','it','you','that','was','for','on','are','with','as')))::DOUBLE AS en, "
            "    len(list_filter(ts, t -> t IN ('el','la','de','que','y','a','en','un','ser','se','no','haber','por','con','su')))::DOUBLE AS es, "
            "    len(list_filter(ts, t -> t IN ('le','la','de','et','les','des','en','un','du','une','que','est','pour','qui','dans')))::DOUBLE AS fr, "
            "    len(list_filter(ts, t -> t IN ('der','die','und','in','den','von','zu','das','mit','sich','des','auf','ist','nicht')))::DOUBLE AS de "
            "  FROM toks"
            "), sc AS ("
            "  SELECT doc_id, n, en/GREATEST(n,1.0) AS en_r, es/GREATEST(n,1.0) AS es_r, "
            "    fr/GREATEST(n,1.0) AS fr_r, de/GREATEST(n,1.0) AS de_r, "
            "    GREATEST(en/GREATEST(n,1.0), es/GREATEST(n,1.0), fr/GREATEST(n,1.0), de/GREATEST(n,1.0)) AS best "
            "  FROM hits"
            ") SELECT doc_id, "
            "CASE WHEN n = 0 OR best <= 0.02 THEN 'und' "
            "     WHEN en_r = best THEN 'en' WHEN es_r = best THEN 'es' "
            "     WHEN fr_r = best THEN 'fr' ELSE 'de' END AS lang_pred, "
            "CASE WHEN n = 0 THEN 0.0 ELSE round_even(best, 6) END AS lang_score "
            "FROM sc"
        ),
        "fingerprint": (
            r"WITH t AS (SELECT doc_id, COALESCE(text, '') AS text, "
            r"regexp_extract_all(COALESCE(text, ''), '\S+') AS ts "
            r"FROM documents WHERE doc_id IS NOT NULL), "
            r"base AS (SELECT doc_id, "
            r"CAST(('0x'||substr(md5(text),1,16))::UBIGINT >> 1 AS BIGINT) AS fingerprint, ts "
            r"FROM t), "
            r"grams AS (SELECT doc_id, array_to_string(list_slice(ts, i, i+3), ' ') AS g "
            r"FROM (SELECT doc_id, ts, unnest(range(1, len(ts)-2)) AS i FROM base "
            r"WHERE len(ts) >= 4)), "
            r"roll AS (SELECT doc_id, "
            r"MIN(CAST(('0x'||substr(md5(g),1,16))::UBIGINT >> 1 AS BIGINT)) AS rolling_min "
            r"FROM grams GROUP BY doc_id) "
            r"SELECT b.doc_id, b.fingerprint, "
            r"COALESCE(r.rolling_min, b.fingerprint) AS rolling_min "
            r"FROM base b LEFT JOIN roll r ON b.doc_id = r.doc_id"
        ),
        "simhash": _SIMHASH_BASE_SQL + "SELECT * FROM shfull",
        "simhash_pairs": _SIMHASH_BASE_SQL + (
            "SELECT CAST(a.doc_id AS VARCHAR) AS doc_a, "
            "CAST(b.doc_id AS VARCHAR) AS doc_b, "
            "CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming "
            "FROM shfull a JOIN shfull b "
            "ON CAST(a.doc_id AS VARCHAR) < CAST(b.doc_id AS VARCHAR) "
            "AND (a.band_0=b.band_0 OR a.band_1=b.band_1 "
            "     OR a.band_2=b.band_2 OR a.band_3=b.band_3) "
            "WHERE bit_count(xor(a.simhash, b.simhash)) <= 3"
        ),
        # one image span on pages where (h+p)%4==0; PPM dims/bytes are
        # closed-form from md5(media_ref) (ops/multimodal.py synthesize_ppm)
        "media_features": _EXTRACT_BASE_SQL + (
            ", imgs AS ("
            "  SELECT doc_id, 'img://' || CAST(doc_id AS VARCHAR) || '/p' || pg || '/0' AS media_ref"
            "  FROM pages WHERE (h+pg)%4=0"
            "), dims AS ("
            "  SELECT doc_id, media_ref, "
            "    4 + ('0x'||substr(md5(media_ref),1,2))::INT % 32 AS width, "
            "    4 + ('0x'||substr(md5(media_ref),3,2))::INT % 32 AS height "
            "  FROM imgs"
            ") SELECT doc_id, media_ref, 'image' AS media_type, width, height, "
            "CAST(LENGTH('P6' || chr(10) || width || ' ' || height || chr(10) || '255' || chr(10)) "
            "+ 3*width*height AS BIGINT) AS n_bytes, TRUE AS decode_ok "
            "FROM dims"
        ),
        # the PNG variant shares the dimension rule; byte count excluded
        # (DEFLATE length has no closed form)
        "media_features_png": _EXTRACT_BASE_SQL + (
            ", imgs AS ("
            "  SELECT doc_id, 'img://' || CAST(doc_id AS VARCHAR) || '/p' || pg || '/0' AS media_ref"
            "  FROM pages WHERE (h+pg)%4=0"
            ") SELECT doc_id, media_ref, "
            "4 + ('0x'||substr(md5(media_ref),1,2))::INT % 32 AS width, "
            "4 + ('0x'||substr(md5(media_ref),3,2))::INT % 32 AS height, "
            "TRUE AS decode_ok FROM imgs"
        ),
        "classify_blocks": _BLOCK_CLS_SQL
        + "SELECT doc_id, line_idx, block_class FROM cls",
        "main_content": _BLOCK_CLS_SQL
        + (
            "SELECT doc_id, "
            "CAST(SUM(CASE WHEN block_class IN ('heading','paragraph','list_item') "
            "THEN 1 ELSE 0 END) AS INT) AS n_lines_kept, "
            "CAST(COUNT(*) AS INT) AS n_lines_total "
            "FROM cls GROUP BY doc_id"
        ),
        "term_search": (
            "SELECT doc_id, line_idx, line FROM ("
            "  SELECT doc_id, CAST(unnest(range(len(lines))) AS INT) AS line_idx, "
            "         unnest(lines) AS line "
            "  FROM (SELECT doc_id, string_split(text, chr(10)) AS lines FROM documents)"
            r") WHERE regexp_matches(line, '(?i)\bmerge\b')"
        ),
        # CAST to DOUBLE[] so DuckDB computes cosine in float64 like numpy —
        # float32 accumulation differs by ~1e-7, within reach of the
        # 6-decimal rounding boundary
        # heavy hitters in the exact (capacity >= distinct) regime:
        # plain GROUP BY counts; null values dropped (the op's law)
        "heavy_hitter_sources": (
            "SELECT source AS value, COUNT(*)::BIGINT AS n FROM documents "
            "WHERE source IS NOT NULL GROUP BY source "
            "ORDER BY n DESC, value LIMIT 10"
        ),
        # per-group top-k: the op's (order DESC NULLS LAST, id ASC NULLS
        # LAST) window law verbatim; NULL source is one partition
        "top_docs_per_source": (
            "SELECT source, n_chars, doc_id FROM ("
            "  SELECT source, n_chars, doc_id, ROW_NUMBER() OVER ("
            "    PARTITION BY source "
            "    ORDER BY n_chars DESC NULLS LAST, doc_id ASC NULLS LAST"
            "  ) AS rn FROM documents"
            ") WHERE rn <= 3"
        ),
        # per-group quantile_cont; groups whose values are all NULL emit
        # no rows (the op's empty-run skip); printf = the op's decimal
        # rounding
        # quantile_cont only takes constant q -> one UNION ALL arm per q
        "chars_quantiles_by_lang": " UNION ALL ".join(
            "SELECT lang, {q} AS q, "
            "CAST(printf('%.6f', quantile_cont(n_chars, {q})) AS DOUBLE) AS value "
            "FROM documents WHERE n_chars IS NOT NULL GROUP BY lang".format(q=q)
            for q in (0.25, 0.5, 0.75)
        ),
        "knn_bruteforce": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
            "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
            "q AS (SELECT v FROM e WHERE vec_id = 0) "
            "SELECT e.vec_id, round_even(list_cosine_similarity(e.v, q.v), 6) AS cosine "
            "FROM e, q ORDER BY cosine DESC, e.vec_id LIMIT 10"
        ),
        # n_probe == n_centroids makes IVF exhaustive -> exact same answer
        "knn_ivf": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
            "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
            "q AS (SELECT v FROM e WHERE vec_id = 0) "
            "SELECT e.vec_id, round_even(list_cosine_similarity(e.v, q.v), 6) AS cosine "
            "FROM e, q ORDER BY cosine DESC, e.vec_id LIMIT 10"
        ),
        "knn_ivf_indexed": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
            "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
            "q AS (SELECT v FROM e WHERE vec_id = 0) "
            "SELECT e.vec_id, round_even(list_cosine_similarity(e.v, q.v), 6) AS cosine "
            "FROM e, q ORDER BY cosine DESC, e.vec_id LIMIT 10"
        ),
        # approximate IVF (n_probe=1/16) vs exact top-10: the oracle
        # re-derives centroids (unit vecs of the 16 smallest ids), the
        # probed lists and the rounded-cosine assignment (index tiebreaks
        # = the op's argmax/lexsort laws), then the overlap fraction
        "knn_ivf_recall": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
            "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
            "q AS (SELECT v FROM e WHERE vec_id = 0), "
            "cent AS (SELECT CAST(ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS INT) AS cidx, v AS c "
            "  FROM (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT 16)), "
            "probe AS (SELECT cidx FROM cent, q "
            "  ORDER BY round_even(list_cosine_similarity(c, q.v), 6) DESC, cidx LIMIT 1), "
            "asg AS (SELECT vec_id, cidx FROM ("
            "  SELECT e.vec_id, cent.cidx, ROW_NUMBER() OVER (PARTITION BY e.vec_id "
            "    ORDER BY round_even(list_cosine_similarity(e.v, cent.c), 6) DESC, cent.cidx) AS rn "
            "  FROM e CROSS JOIN cent) WHERE rn = 1), "
            "ivf AS (SELECT e.vec_id FROM e JOIN asg USING (vec_id), q "
            "  WHERE asg.cidx IN (SELECT cidx FROM probe) "
            "  ORDER BY round_even(list_cosine_similarity(e.v, q.v), 6) DESC, e.vec_id LIMIT 10), "
            "brute AS (SELECT vec_id FROM e, q "
            "  ORDER BY round_even(list_cosine_similarity(e.v, q.v), 6) DESC, vec_id LIMIT 10) "
            "SELECT CAST((SELECT COUNT(*) FROM ivf JOIN brute USING (vec_id)) AS DOUBLE) / 10 "
            "AS recall_at_k"
        ),
        # multi-query kNN: cross join + per-query ROW_NUMBER cut
        "knn_join": (
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
            "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
            "q AS (SELECT vec_id, v FROM e WHERE vec_id < 8) "
            "SELECT query_id, vec_id, cosine FROM ("
            "  SELECT q.vec_id AS query_id, e.vec_id, "
            "    round_even(list_cosine_similarity(e.v, q.v), 6) AS cosine, "
            "    ROW_NUMBER() OVER (PARTITION BY q.vec_id ORDER BY "
            "      round_even(list_cosine_similarity(e.v, q.v), 6) DESC, e.vec_id) AS rn "
            "  FROM e CROSS JOIN q"
            ") WHERE rn <= 5"
        ),
        # exact all-pairs near-dup: compare on the ROUNDED cosine so the
        # >= cut can never straddle a 6th-decimal boundary differently
        "embedding_near_dup": (
            # the embedding-family null law: null id / null vec / EMPTY vec
            # rows are dropped (an empty list crashes DuckDB's
            # list_cosine_similarity, so the filter is load-bearing here)
            "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
            "  FROM embeddings WHERE vec_id IS NOT NULL "
            "  AND embedding IS NOT NULL AND len(embedding) > 0) "
            "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
            "round_even(list_cosine_similarity(a.v, b.v), 6) AS cosine "
            "FROM e a JOIN e b ON a.vec_id < b.vec_id "
            "WHERE round_even(list_cosine_similarity(a.v, b.v), 6) >= 0.45"
        ),
        "pricing_summary": (
            "SELECT l_returnflag, l_linestatus, ROUND(SUM(l_quantity), 2) AS sum_qty, "
            "ROUND(SUM(l_extendedprice), 2) AS sum_base_price, "
            "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price, "
            "COUNT(*) AS count_order FROM lineitem "
            "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"
        ),
        "revenue_by_nation": (
            "SELECT n.n_name, ROUND(SUM(o.o_totalprice), 2) AS revenue, "
            "COUNT(*) AS n_orders "
            "FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey "
            "JOIN nation n ON c.c_nationkey = n.n_nationkey "
            "GROUP BY n.n_name ORDER BY n.n_name"
        ),
        "filtered_revenue": (
            "SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue FROM lineitem "
            "WHERE l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"
        ),
        "top_parts_by_size": (
            "SELECT p_partkey, p_name, p_size, p_retailprice FROM part "
            "ORDER BY p_size DESC, p_partkey LIMIT 20"
        ),
        "events_window_agg": (
            "SELECT event_type, date_trunc('hour', ts) AS window_start, "
            "COUNT(*) AS n_events, ROUND(SUM(value), 2) AS sum_value "
            "FROM events GROUP BY event_type, window_start "
            "ORDER BY event_type, window_start"
        ),
        # hopping windows: epoch floored via integer division (epoch_us //
        # 1e6) — a DOUBLE epoch()::BIGINT cast ROUNDS and shifts sub-second
        # events across window boundaries
        "events_hopping_window": (
            "WITH w AS ("
            "  SELECT event_type, value, "
            "    make_timestamp((((epoch_us(ts) // 1000000) // 1800) * 1800 "
            "      - k.k * 1800) * 1000000) AS window_start"
            "  FROM events, (SELECT unnest(range(2)) AS k) k"
            ") SELECT event_type, window_start, COUNT(*) AS n_events, "
            "ROUND(SUM(value), 2) AS sum_value "
            "FROM w GROUP BY event_type, window_start "
            "ORDER BY event_type, window_start"
        ),
        # as-of tie-break mirrors merge_asof's last-sorted-row-wins: among
        # equal prior ts, the max event_id
        "events_asof_join": (
            "SELECT event_id, ts, user_id, prior_purchase_id FROM ("
            "  SELECT l.event_id, l.ts, l.user_id, r.event_id AS prior_purchase_id, "
            "    ROW_NUMBER() OVER (PARTITION BY l.event_id "
            "      ORDER BY r.ts DESC, r.event_id DESC) AS rn "
            "  FROM events l JOIN events r ON r.user_id = l.user_id "
            "   AND r.event_type = 'purchase' AND r.ts < l.ts"
            ") WHERE rn = 1"
        ),
        # integer aggregate layer (window counts, Σc, Σc² — order-proof),
        # per-row float layer with the expression tree written identically
        # to ops/streaming.event_rate_anomaly; flag reads the ROUNDED z
        "event_rate_anomaly": (
            "WITH w AS ("
            "  SELECT user_id, epoch_us(ts) // 3600000000 AS win, COUNT(*) AS c "
            "  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "  GROUP BY 1, 2"
            "), s AS ("
            "  SELECT user_id, COUNT(*) AS nw, CAST(SUM(c) AS BIGINT) AS sc, "
            "    CAST(SUM(c * c) AS BIGINT) AS sc2 FROM w GROUP BY 1"
            "), f AS ("
            "  SELECT w.user_id, w.win, w.c, CAST(s.sc AS DOUBLE) / s.nw AS mean, "
            "    greatest(CAST(s.sc2 AS DOUBLE) / s.nw - "
            "      (CAST(s.sc AS DOUBLE) / s.nw) * (CAST(s.sc AS DOUBLE) / s.nw), "
            "      0.0) AS var FROM w JOIN s ON s.user_id = w.user_id"
            "), g AS ("
            "  SELECT user_id, win, c, round_even(CASE WHEN sqrt(var) > 0 "
            "    THEN (c - mean) / sqrt(var) ELSE 0.0 END, 6) AS z FROM f"
            ") SELECT user_id, CAST(win AS BIGINT) AS win, "
            "  CAST(c AS BIGINT) AS n_events, z, "
            "  CASE WHEN abs(z) > 2.0 THEN 1 ELSE 0 END AS is_anomaly FROM g"
        ),
        # all-integer windowed top-k: counts, truncating window division,
        # ROW_NUMBER ties by key asc — no float law anywhere
        "trending_terms": (
            "WITH c AS ("
            "  SELECT epoch_us(ts) // 3600000000 AS win, event_type, "
            "    COUNT(*)::BIGINT AS n_events FROM events "
            "  WHERE ts IS NOT NULL AND event_type IS NOT NULL GROUP BY 1, 2"
            "), r AS ("
            "  SELECT win, event_type, n_events, ROW_NUMBER() OVER ("
            "    PARTITION BY win ORDER BY n_events DESC, event_type) AS rank "
            "  FROM c"
            ") SELECT CAST(win AS BIGINT) AS win, event_type, n_events, "
            "  CAST(rank AS BIGINT) AS rank FROM r WHERE rank <= 3"
        ),
        # per-window HLL with the EXACT-integer harmonic: Σ 2^-rho sums
        # as SUM(1 << (55 - rho)) (HUGEINT) + zeros << 55, ONE rounding
        # at the DOUBLE cast — float SUM order can round multiples of
        # 2^-55 needing > 53 bits, and SQL sum order is arbitrary
        "windowed_distinct": (
            "WITH h AS ("
            "  SELECT epoch_us(ts) // 86400000000 AS win, "
            "    ('0x'||substr(md5(CAST(user_id AS VARCHAR)),1,16))::UBIGINT AS hv "
            "  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL"
            "), regs AS ("
            "  SELECT win, CAST(hv >> 54 AS INT) AS b, "
            "    MAX(CASE WHEN (hv & 18014398509481983::UBIGINT) = 0 THEN 55 "
            "         ELSE 55 - CAST(length(bin(hv & 18014398509481983::UBIGINT)) AS INT) END) AS rho "
            "  FROM h GROUP BY win, b"
            "), agg AS ("
            "  SELECT win, COUNT(*) AS n_used, "
            "    SUM(1::BIGINT << (55 - rho)) AS s_num "
            "  FROM regs GROUP BY win"
            "), est AS ("
            "  SELECT win, n_used, 1024 - n_used AS zeros, "
            "    CAST(s_num + CAST(1024 - n_used AS HUGEINT) * "
            "      CAST(1::BIGINT << 55 AS HUGEINT) AS DOUBLE) / pow(2.0, 55) AS harmonic "
            "  FROM agg"
            ") SELECT CAST(win AS BIGINT) AS win, "
            "  CAST(printf('%.2f', CASE WHEN "
            "    (0.7213/(1.0 + 1.079/1024)) * 1024.0 * 1024.0 / harmonic <= 2.5*1024 "
            "    AND zeros > 0 THEN 1024.0 * ln(1024.0/zeros) "
            "    ELSE (0.7213/(1.0 + 1.079/1024)) * 1024.0 * 1024.0 / harmonic END) "
            "   AS DOUBLE) AS n_estimate, "
            "  CAST(n_used AS BIGINT) AS n_buckets_used FROM est"
        ),
        # all-integer cohort triangle: distinct (user, window) pairs,
        # min-window cohort, COUNT over the already-distinct pair set
        "cohort_retention": (
            "WITH w AS ("
            "  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS win "
            "  FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL"
            "), f AS ("
            "  SELECT user_id, MIN(win) AS cohort FROM w GROUP BY user_id"
            ") SELECT CAST(f.cohort AS BIGINT) AS cohort, "
            "  CAST(w.win - f.cohort AS BIGINT) AS win_offset, "
            "  COUNT(*)::BIGINT AS n_users "
            "FROM w JOIN f ON w.user_id = f.user_id GROUP BY 1, 2"
        ),
        # the funnel law as the op computes it: first A, first STRICTLY
        # later B, integer-microsecond horizon; -1 sentinel for no B
        "funnel_conversion": (
            "WITH a AS ("
            "  SELECT user_id, MIN(epoch_us(ts)) AS ta_us FROM events "
            "  WHERE user_id IS NOT NULL AND ts IS NOT NULL "
            "    AND event_type = 'view' GROUP BY user_id"
            "), b AS ("
            "  SELECT a.user_id, MIN(epoch_us(e.ts)) AS tb FROM a "
            "  JOIN events e ON e.user_id = a.user_id "
            "  WHERE e.event_type = 'purchase' AND e.ts IS NOT NULL "
            "    AND epoch_us(e.ts) > a.ta_us GROUP BY a.user_id"
            ") SELECT a.user_id, a.ta_us, "
            "  CAST(COALESCE(b.tb, -1) AS BIGINT) AS tb_us, "
            "  CAST(CASE WHEN b.tb IS NOT NULL "
            "    AND b.tb - a.ta_us <= 86400000000 THEN 1 ELSE 0 END "
            "   AS BIGINT) AS converted "
            "FROM a LEFT JOIN b ON a.user_id = b.user_id"
        ),
        "sessionize": (
            "WITH marked AS ("
            "  SELECT user_id, ts, CASE WHEN ts - LAG(ts) OVER "
            "    (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
            "  THEN 1 ELSE 0 END AS new_s FROM events"
            "), s AS ("
            "  SELECT user_id, ts, SUM(new_s) OVER (PARTITION BY user_id "
            "    ORDER BY ts ROWS UNBOUNDED PRECEDING) AS session_id FROM marked"
            ") SELECT user_id, CAST(session_id AS BIGINT) AS session_id, "
            "MIN(ts) AS session_start, MAX(ts) AS session_end, "
            "COUNT(*) AS n_events FROM s GROUP BY user_id, session_id"
        ),
        "supplier_balance_stats": (
            "SELECT s_nationkey, COUNT(*) AS n_suppliers, ROUND(SUM(s_acctbal), 2) AS sum_bal, "
            "ROUND(MIN(s_acctbal), 2) AS min_bal, ROUND(MAX(s_acctbal), 2) AS max_bal, "
            "ROUND(AVG(s_acctbal), 2) AS avg_bal FROM supplier "
            "GROUP BY s_nationkey ORDER BY s_nationkey"
        ),
        "customers_without_orders": (
            "SELECT c_custkey, c_name FROM customer c WHERE NOT EXISTS "
            "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
            " AND o.o_orderdate >= DATE '1998-01-01') "
            "ORDER BY c_custkey"
        ),
        "parts_in_lineitem": (
            "SELECT p_partkey, p_name FROM part p WHERE EXISTS "
            "(SELECT 1 FROM lineitem l WHERE l.l_partkey = p.p_partkey) "
            "ORDER BY p_partkey"
        ),
        "docs_by_lang": (
            "SELECT lang, source, COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars "
            "FROM documents GROUP BY lang, source ORDER BY lang, source"
        ),
        "deterministic_sample": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE doc_id % 10 < 3 ORDER BY doc_id"
        ),
        "events_json": (
            "SELECT event_type, COUNT(*) AS n, "
            "CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "distinct_counts": (
            "SELECT COUNT(DISTINCT o_custkey) AS n_distinct_custkeys, "
            "COUNT(DISTINCT o_orderpriority) AS n_distinct_priorities FROM orders"
        ),
        # printf formatting = the op's float(f"{v:.6f}") path exactly
        # (correctly-rounded decimal), immune to round_even's scaled-double
        # ULP edge near 6th-decimal ties
        "price_quantiles": (
            "SELECT q, CAST(printf('%.6f', v) AS DOUBLE) AS value FROM ("
            "  SELECT unnest([0.25, 0.5, 0.75, 0.95]) AS q, "
            "         unnest(quantile_cont(l_extendedprice, [0.25, 0.5, 0.75, 0.95])) AS v "
            "  FROM lineitem)"
        ),
        # the routed front door lands on the exact path at this cardinality
        "price_quantiles_routed": (
            "SELECT q, CAST(printf('%.6f', v) AS DOUBLE) AS value FROM ("
            "  SELECT unnest([0.25, 0.5, 0.75, 0.95]) AS q, "
            "         unnest(quantile_cont(l_extendedprice, [0.25, 0.5, 0.75, 0.95])) AS v "
            "  FROM lineitem)"
        ),
        # HyperLogLog reproduced in SQL: same md5-64 hash, p=12 registers
        # (bucket = top 12 bits, rho = leading-zero rank of the low 52),
        # same bias-corrected harmonic estimator + linear-counting branch
        "approx_distinct": (
            "WITH h AS ("
            "  SELECT ('0x'||substr(md5(CAST(o_custkey AS VARCHAR)),1,16))::UBIGINT AS hv "
            "  FROM orders WHERE o_custkey IS NOT NULL"
            "), regs AS ("
            # rho via integer bit-length (length of the minimal binary
            # string), not floor(log2): for w within ~2^-48 of a power of
            # two the float log2 rounds up and disagrees with bit_length
            "  SELECT CAST(hv >> 52 AS INT) AS b, "
            "    MAX(CASE WHEN (hv & 4503599627370495::UBIGINT) = 0 THEN 53 "
            "         ELSE 53 - CAST(length(bin(hv & 4503599627370495::UBIGINT)) AS INT) END) AS rho "
            "  FROM h GROUP BY b"
            # EXACT-integer harmonic (the windowed_distinct law): one
            # rounding at the DOUBLE cast, immune to SQL SUM order
            "), agg AS (SELECT COUNT(*) AS n_used, "
            "  SUM(1::BIGINT << (53 - rho)) AS s_num FROM regs), "
            "est AS ("
            "  SELECT n_used, "
            "    (0.7213/(1.0 + 1.079/4096)) * 4096.0 * 4096.0 / "
            "      (CAST(s_num + CAST(4096 - n_used AS HUGEINT) * "
            "        CAST(1::BIGINT << 53 AS HUGEINT) AS DOUBLE) / pow(2.0, 53)) AS raw, "
            "    4096 - n_used AS zeros"
            "  FROM agg"
            # printf = the op's float(f"{x:.2f}") decimal formatting exactly;
            # ROUND's scaled-double path can land one ULP off near a tie
            ") SELECT CAST(printf('%.2f', CASE WHEN raw <= 2.5*4096 AND zeros > 0 "
            "THEN 4096.0 * ln(4096.0/zeros) ELSE raw END) AS DOUBLE) AS n_estimate, "
            "CAST(n_used AS INT) AS n_buckets_used FROM est"
        ),
        "order_priority_revenue": (
            "SELECT o_orderpriority, "
            "ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue, "
            "COUNT(*) AS n_items FROM lineitem "
            "JOIN orders ON l_orderkey = o_orderkey "
            "GROUP BY o_orderpriority ORDER BY o_orderpriority"
        ),
        "top_orders_per_priority": (
            "SELECT o_orderkey, o_orderpriority, o_totalprice FROM ("
            "  SELECT o_orderkey, o_orderpriority, o_totalprice, "
            "  ROW_NUMBER() OVER (PARTITION BY o_orderpriority "
            "    ORDER BY o_totalprice DESC, o_orderkey) AS rn FROM orders"
            ") WHERE rn <= 3"
        ),
        "copurchase_pairs": (
            "WITH " + _COPURCHASE_CTES + " SELECT item_a, item_b FROM pairs"
        ),
        # symmetrized co-purchase graph -> 8 unrolled integer-PageRank steps
        "pagerank_copurchase": _pagerank_sql(
            _COPURCHASE_CTES
            + ", edges AS (SELECT item_a AS src, item_b AS dst FROM pairs "
            "UNION ALL SELECT item_b, item_a FROM pairs)",
            iterations=8,
        ),
        "minhash_pairs": _minhash_base_sql()
        + "SELECT doc_a, doc_b, round_even(j, 6) AS jaccard FROM verified WHERE j >= 0.8",
        # cross-corpus variant: same band/verify CTEs over the whole table
        # (band values are side-independent — one seeded permutation bank),
        # filtered to pairs straddling the %10 train/test split and
        # re-oriented train-first (the base cand's doc_a < doc_b is string
        # order, not side order)
        "cross_corpus_near_dups": _minhash_base_sql()
        + (
            "SELECT CASE WHEN CAST(doc_a AS BIGINT) % 10 != 0 THEN doc_a ELSE doc_b END AS train_id, "
            "CASE WHEN CAST(doc_a AS BIGINT) % 10 = 0 THEN doc_a ELSE doc_b END AS test_id, "
            "round_even(j, 6) AS jaccard FROM verified WHERE j >= 0.8 AND "
            "(CAST(doc_a AS BIGINT) % 10 = 0) != (CAST(doc_b AS BIGINT) % 10 = 0)"
        ),
        # embedding-space decontamination: the seeded-plane-literal LSH
        # oracle restricted to cross-side bucket collisions, oriented
        # train-first
        "cross_corpus_embedding_near_dups": _cross_embedding_lsh_sql(
            threshold=0.4, n_planes=6, n_tables=8, seed=11
        ),
        # exact inverted-index Jaccard: same shingle CTE as the MinHash
        # oracle, but pairs come from sharing >=1 shingle (posting-list
        # self-join) — no banding. The op intersects 64-bit shingle
        # hashes; the oracle intersects the strings (identical absent
        # md5_64 collisions). Filter on the unrounded ratio, round_even
        # in the SELECT — the op's Python round() is half-even too.
        "ngram_jaccard_pairs": (
            "WITH toks AS (SELECT CAST(doc_id AS VARCHAR) AS doc_id, "
            "regexp_extract_all(lower(text), '\\S+') AS tk FROM documents), "
            "sh AS (SELECT doc_id, list_distinct(CASE WHEN len(tk) = 0 THEN [] "
            "WHEN len(tk) < 5 THEN [array_to_string(tk, ' ')] "
            "ELSE list_transform(range(len(tk)-4), i -> "
            "array_to_string(list_slice(tk, i+1, i+5), ' ')) END) AS sgl FROM toks), "
            "posts AS (SELECT doc_id, len(sgl) AS sz, unnest(sgl) AS g FROM sh), "
            "cand AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
            "MIN(a.sz) AS sz_a, MIN(b.sz) AS sz_b, COUNT(*) AS inter "
            "FROM posts a JOIN posts b ON a.g = b.g AND a.doc_id < b.doc_id "
            "GROUP BY a.doc_id, b.doc_id) "
            "SELECT doc_a, doc_b, "
            "round_even(inter::DOUBLE / (sz_a + sz_b - inter), 6) AS jaccard "
            "FROM cand WHERE inter::DOUBLE / (sz_a + sz_b - inter) >= 0.6"
        ),
        # cross-corpus contamination: same shingle CTE; train side is the
        # distinct gram universe, hits counted per test doc. The op hits on
        # 64-bit gram hashes, the oracle on strings (identical absent
        # md5_64 collisions). SUM is HUGEINT in DuckDB -> CAST to BIGINT.
        "contamination_check": (
            "WITH toks AS (SELECT doc_id, "
            "regexp_extract_all(lower(text), '\\S+') AS tk FROM documents), "
            "sh AS (SELECT doc_id, list_distinct(CASE WHEN len(tk) = 0 THEN [] "
            "WHEN len(tk) < 5 THEN [array_to_string(tk, ' ')] "
            "ELSE list_transform(range(len(tk)-4), i -> "
            "array_to_string(list_slice(tk, i+1, i+5), ' ')) END) AS sgl FROM toks), "
            "train AS (SELECT DISTINCT unnest(sgl) AS g FROM sh WHERE doc_id % 10 <> 0), "
            "test AS (SELECT doc_id, len(sgl) AS sz, unnest(sgl) AS g "
            "FROM sh WHERE doc_id % 10 = 0), "
            "hits AS (SELECT doc_id, MIN(sz) AS sz, "
            "SUM(CASE WHEN g IN (SELECT g FROM train) THEN 1 ELSE 0 END) AS h "
            "FROM test GROUP BY doc_id) "
            "SELECT CAST(doc_id AS VARCHAR) AS doc_id, CAST(sz AS BIGINT) AS n_grams, "
            "CAST(h AS BIGINT) AS n_hits, round_even(h::DOUBLE / sz, 6) AS contamination "
            "FROM hits"
        ),
        # Bloom membership replayed exactly: double-hash bases from the
        # domain-separated md5 (chr(1)||text / chr(0) for NULL —
        # crosscorpus._bloom_hashes), k=4 probe positions per doc; novel =
        # some probed position set by NO reference doc. FPs (all 4
        # positions covered by other texts) are deterministic, so the
        # oracle reproduces them too.
        "bloom_novel_docs": (
            "WITH keyed AS (SELECT doc_id, CASE WHEN text IS NULL THEN chr(0) "
            "ELSE chr(1) || text END AS kt FROM documents), "
            "h AS (SELECT doc_id, "
            "CAST(('0x'||substr(md5(kt),1,16))::UBIGINT % 1048576 AS BIGINT) AS h1, "
            "CAST(('0x'||substr(md5(kt),17,16))::UBIGINT % 1048576 AS BIGINT) AS h2 "
            "FROM keyed), "
            "refpos AS (SELECT DISTINCT (h1 + i.range * h2) % 1048576 AS pos "
            "FROM h, range(4) i WHERE doc_id % 10 <> 0), "
            "cand AS (SELECT doc_id, (h1 + i.range * h2) % 1048576 AS pos "
            "FROM h, range(4) i WHERE doc_id % 10 = 0) "
            "SELECT doc_id, BOOL_OR(pos NOT IN (SELECT pos FROM refpos)) AS novel "
            "FROM cand GROUP BY doc_id"
        ),
        # context-window chunking: the chunk rule (i*stride start, tail
        # chunk always emitted, whitespace-normalized rejoin) replayed
        # over regexp_extract_all token lists
        # sentence explode: each sentence keeps its [.!?]+ tail; ordinal
        # via the zip-unnest(range(len)) idiom (DuckDB has no ORDINALITY)
        "split_sentences": (
            "WITH s AS (SELECT doc_id, "
            "regexp_extract_all(COALESCE(text, ''), '[^.!?]+[.!?]*') AS sents "
            "FROM documents), "
            "e AS (SELECT doc_id, unnest(sents) AS sentence, "
            "unnest(range(len(sents))) AS i FROM s) "
            "SELECT doc_id, CAST(i + 1 AS BIGINT) AS sent_idx, sentence FROM e"
        ),
        "chunk_documents": (
            "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS tk "
            "FROM documents), "
            "n AS (SELECT doc_id, tk, len(tk) AS n FROM toks WHERE len(tk) > 0), "
            "c AS (SELECT doc_id, tk, n, CASE WHEN n <= 40 THEN 1 "
            "ELSE 1 + CAST(CEIL((n - 40) / 30.0) AS BIGINT) END AS nc FROM n), "
            "e AS (SELECT doc_id, tk, n, unnest(range(nc)) AS i FROM c) "
            "SELECT doc_id, CAST(i AS BIGINT) AS chunk_id, "
            "CAST(LEAST(i*30 + 40, n) - i*30 AS BIGINT) AS n_tokens, "
            "array_to_string(list_slice(tk, i*30 + 1, LEAST(i*30 + 40, n)), ' ') "
            "AS chunk_text FROM e"
        ),
        # unigram-LM surprisal: integer-quantized log2 inverse frequency —
        # bit_length(N // c) is LENGTH(bin(..)) (bin() has no leading
        # zeros), so every aggregate is exact integer math on both sides;
        # only the per-doc mean is a float, through printf on both sides
        "lm_surprisal": (
            r"WITH toks AS (SELECT doc_id, "
            r"unnest(regexp_extract_all(lower(text), '\S+')) AS tok FROM documents), "
            r"cnt AS (SELECT tok, COUNT(*)::BIGINT AS c FROM toks GROUP BY tok), "
            r"tot AS (SELECT COUNT(*)::BIGINT AS n FROM toks), "
            r"st AS (SELECT t.doc_id, LENGTH(bin((SELECT n FROM tot) // c.c)) AS s "
            r"FROM toks t JOIN cnt c ON t.tok = c.tok) "
            r"SELECT doc_id, COUNT(*)::BIGINT AS n_tokens, "
            r"SUM(s)::BIGINT AS total_surprisal, "
            r"CAST(printf('%.6f', SUM(s) / CAST(COUNT(*) AS DOUBLE)) AS DOUBLE) "
            r"AS mean_surprisal FROM st GROUP BY doc_id"
        ),
        # deterministic split: the op's md5_64 is digest[:8] big-endian >> 1,
        # reproduced by the '0x'||substr(md5(..)) idiom shared with
        # stratified_sample; cutoffs = floor(cum*10000) over insertion order
        "assign_splits": (
            "WITH b AS (SELECT doc_id, "
            "CAST((('0x'||substr(md5('split:'||CAST(doc_id AS VARCHAR)),1,16))::UBIGINT >> 1) "
            "% 10000 AS BIGINT) AS bucket FROM documents) "
            "SELECT doc_id, bucket, CASE WHEN bucket < 8000 THEN 'train' "
            "WHEN bucket < 9000 THEN 'val' ELSE 'test' END AS split FROM b"
        ),
        # end-to-end curation composite: the gopher_rules keep condition
        # (unrounded-double comparisons, proven bit-exact by that oracle)
        # -> min-id-per-distinct-text window dedup -> the assign_splits
        # hash CASE — the COMPOSITION gate-checked in one query
        "curate_corpus": (
            "WITH c AS (SELECT doc_id, lang, COALESCE(text, '') AS t FROM documents), "
            "n AS (SELECT doc_id, lang, t, "
            "len(regexp_extract_all(t, '\\S+'))::DOUBLE AS nw, "
            "len(regexp_extract_all(t, '\\S'))::DOUBLE AS nsc, "
            "(len(regexp_extract_all(t, '#')) + "
            "len(regexp_extract_all(t, '\\.\\.\\.|…')))::DOUBLE AS nsym, "
            "len(regexp_extract_all(t, '\\S*[A-Za-z]\\S*'))::DOUBLE AS naw, "
            "(len(regexp_extract_all(t, chr(10))) + 1)::DOUBLE AS nl, "
            "len(regexp_extract_all(t, '(?:^|' || chr(10) || ')[ \\t]*[-*•]'))::DOUBLE AS nb, "
            "len(regexp_extract_all(t, '(?:\\.\\.\\.|…)[ \\t]*(?:' || chr(10) || '|$)'))::DOUBLE AS ne, "
            + "".join(
                f"(CASE WHEN regexp_matches(lower(t), '\\b{w}\\b') THEN 1 ELSE 0 END) + "
                for w in ("the", "be", "to", "of", "and", "that", "have")
            )
            + "(CASE WHEN regexp_matches(lower(t), '\\bwith\\b') THEN 1 ELSE 0 END) AS nstop "
            "FROM c), "
            "r AS (SELECT doc_id, lang, t, nw, nstop, "
            "CASE WHEN nw > 0 THEN nsc / GREATEST(nw, 1.0) ELSE 0.0 END AS mwl, "
            "CASE WHEN nw > 0 THEN nsym / GREATEST(nw, 1.0) ELSE 0.0 END AS symr, "
            "CASE WHEN nw > 0 THEN naw / GREATEST(nw, 1.0) ELSE 0.0 END AS af, "
            "nb / nl AS bf, ne / nl AS ef FROM n), "
            "k AS (SELECT doc_id, lang, t, CAST(nw AS BIGINT) AS n_words FROM r "
            "WHERE nw >= 50 AND nw <= 100000 AND mwl >= 3.0 AND mwl <= 10.0 "
            "AND symr <= 0.1 AND bf < 0.9 AND ef < 0.3 AND af >= 0.8 AND nstop >= 1), "
            "d AS (SELECT doc_id, lang, n_words, "
            "ROW_NUMBER() OVER (PARTITION BY t ORDER BY doc_id) AS rn FROM k), "
            "s AS (SELECT doc_id, lang, n_words FROM d WHERE rn = 1), "
            "b AS (SELECT doc_id, lang, n_words, "
            "CAST((('0x'||substr(md5('split:'||CAST(doc_id AS VARCHAR)),1,16))::UBIGINT >> 1) "
            "% 10000 AS BIGINT) AS bucket FROM s) "
            "SELECT doc_id, lang, n_words, bucket, "
            "CASE WHEN bucket < 8000 THEN 'train' WHEN bucket < 9000 THEN 'val' "
            "ELSE 'test' END AS split FROM b"
        ),
        # int8 scalar quantization: FLOAT values promote to DOUBLE before
        # the subtraction on both sides; min/max are exact aggregates;
        # codes render to the canonical comma-joined string
        "quantize_embeddings": (
            "WITH x AS (SELECT vec_id, i, embedding[i+1]::DOUBLE AS v "
            "FROM (SELECT vec_id, embedding, unnest(range(len(embedding))) AS i "
            "FROM embeddings)), "
            "mm AS (SELECT i, MIN(v) AS mn, MAX(v) AS mx FROM x GROUP BY i), "
            "c AS (SELECT vec_id, x.i, CASE WHEN mx = mn THEN 0 "
            "ELSE LEAST(255, CAST(FLOOR((v - mn) * 255.0 / (mx - mn)) AS BIGINT)) END AS code "
            "FROM x JOIN mm ON x.i = mm.i) "
            "SELECT vec_id, array_to_string(list(code ORDER BY i), ',') AS codes "
            "FROM c GROUP BY vec_id"
        ),
        # event debounce: LAG against the raw predecessor, ties (ts, id);
        # gaps in integer epoch MICROSECONDS on both sides
        "dedup_events": (
            "WITH o AS (SELECT event_id, ts, user_id, event_type, "
            "LAG(ts) OVER (PARTITION BY user_id, event_type ORDER BY ts, event_id) AS prev "
            "FROM events WHERE user_id IS NOT NULL AND event_type IS NOT NULL) "
            "SELECT event_id, ts, user_id, event_type, "
            "CAST(COALESCE(epoch_us(ts) - epoch_us(prev), -1) AS BIGINT) AS gap_us "
            "FROM o WHERE prev IS NULL OR epoch_us(ts) - epoch_us(prev) > 60000000"
        ),
        # C4-style line dedup: winner = ROW_NUMBER over the SAME md5_64
        # hash identity the op shuffles on (ORDER BY doc_id, idx); short
        # lines never compete; reassembly = ordered string_agg
        "dedup_lines": (
            "WITH l0 AS (SELECT doc_id, string_split(COALESCE(text, ''), chr(10)) AS ls "
            "FROM documents WHERE doc_id IS NOT NULL), "
            "e AS (SELECT doc_id, ls, unnest(range(len(ls))) AS i FROM l0), "
            "ln AS (SELECT doc_id, i, ls[i+1] AS line FROM e), "
            "w AS (SELECT doc_id, i, line, "
            "CASE WHEN length(line) >= 15 THEN "
            "ROW_NUMBER() OVER (PARTITION BY ('0x'||substr(md5(line),1,16))::UBIGINT >> 1 "
            "ORDER BY doc_id, i) ELSE 1 END AS rn FROM ln) "
            "SELECT doc_id, "
            "COALESCE(string_agg(line, chr(10) ORDER BY i) FILTER (WHERE rn = 1), '') AS clean_text, "
            "(COUNT(*) FILTER (WHERE rn = 1))::BIGINT AS n_lines_kept, "
            "(COUNT(*) FILTER (WHERE rn > 1))::BIGINT AS n_lines_removed "
            "FROM w GROUP BY doc_id"
        ),
        # perplexity filter composite: the lm_surprisal oracle's mean feeds
        # ROW_NUMBER (asc, id tie-break) = global_rank's histogram+prefix
        # ranking; the 90% cutoff is exact integer floor on both sides
        "surprisal_filter": (
            r"WITH toks AS (SELECT doc_id, "
            r"unnest(regexp_extract_all(lower(text), '\S+')) AS tok FROM documents), "
            r"cnt AS (SELECT tok, COUNT(*)::BIGINT AS c FROM toks GROUP BY tok), "
            r"tot AS (SELECT COUNT(*)::BIGINT AS n FROM toks), "
            r"st AS (SELECT t.doc_id, LENGTH(bin((SELECT n FROM tot) // c.c)) AS s "
            r"FROM toks t JOIN cnt c ON t.tok = c.tok), "
            r"sc AS (SELECT doc_id, "
            r"CAST(printf('%.6f', SUM(s) / CAST(COUNT(*) AS DOUBLE)) AS DOUBLE) "
            r"AS mean_surprisal FROM st GROUP BY doc_id), "
            r"r AS (SELECT doc_id, mean_surprisal, "
            r"ROW_NUMBER() OVER (ORDER BY mean_surprisal, doc_id) AS rank FROM sc) "
            r"SELECT doc_id, mean_surprisal, CAST(rank AS BIGINT) AS rank FROM r "
            r"WHERE rank <= (SELECT (COUNT(*) * 9) // 10 FROM sc)"
        ),
        # data-mixing rebalance: thresholds are ALL integer arithmetic
        # (ppm * total // source_tokens), so the oracle recomputes them
        # from the table itself — no float, no literals to keep in sync
        "rebalance_sources": (
            r"WITH t AS (SELECT doc_id, source, "
            r"len(regexp_extract_all(COALESCE(text, ''), '\S+'))::BIGINT AS ntok "
            r"FROM documents), "
            r"agg AS (SELECT source, SUM(ntok)::BIGINT AS st FROM t GROUP BY source), "
            r"tot AS (SELECT SUM(ntok)::BIGINT AS tt FROM t), "
            r"th AS (SELECT source, CASE WHEN st = 0 THEN 1000000 "
            r"ELSE LEAST(1000000, (30000 * (SELECT tt FROM tot)) // st) END AS thresh "
            r"FROM agg) "
            r"SELECT t.doc_id, t.source, t.ntok AS n_tokens "
            r"FROM t JOIN th ON t.source IS NOT DISTINCT FROM th.source "
            r"WHERE (('0x'||substr(md5('mix:'||CAST(t.doc_id AS VARCHAR)),1,16))::UBIGINT >> 1) "
            r"% 1000000 < thresh"
        ),
        # duplicated-span stats: positional 5-gram occurrences (the <5-token
        # doc collapses to one whole-doc gram, the chunk_documents window
        # idiom); gram identity is the SAME md5_64 the op uses, so parity is
        # exact even under hash collisions; only the fraction is a float,
        # through printf on both sides
        "dup_span_stats": (
            r"WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS tk "
            r"FROM documents WHERE doc_id IS NOT NULL), "
            r"nz AS (SELECT doc_id, tk, len(tk) AS n FROM toks WHERE len(tk) > 0), "
            r"g AS (SELECT doc_id, CASE WHEN n < 5 THEN array_to_string(tk, ' ') "
            r"ELSE array_to_string(list_slice(tk, i+1, i+5), ' ') END AS gram "
            r"FROM (SELECT doc_id, tk, n, unnest(range(GREATEST(n-4, 1))) AS i FROM nz)), "
            r"gh AS (SELECT doc_id, ('0x'||substr(md5(gram),1,16))::UBIGINT >> 1 AS h FROM g), "
            r"nd AS (SELECT h, COUNT(DISTINCT doc_id) AS ndocs FROM gh GROUP BY h), "
            r"per AS (SELECT doc_id, COUNT(*)::BIGINT AS n_grams, "
            r"SUM(CASE WHEN ndocs >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup_grams "
            r"FROM gh JOIN nd USING(h) GROUP BY doc_id) "
            r"SELECT doc_id, n_grams, n_dup_grams, "
            r"CAST(printf('%.6f', n_dup_grams / CAST(n_grams AS DOUBLE)) AS DOUBLE) "
            r"AS dup_fraction FROM per"
        ),
        # global row-number ranking: rank = histogram-bucket offset +
        # within-bucket sort index == ROW_NUMBER (score DESC, id); the
        # percentile goes through printf decimal rounding on both sides
        "global_rank": (
            "WITH r AS (SELECT doc_id, n_chars, "
            "ROW_NUMBER() OVER (ORDER BY n_chars DESC, doc_id) AS rnk, "
            "COUNT(*) OVER () AS n FROM documents) "
            "SELECT doc_id, n_chars, CAST(rnk AS BIGINT) AS rank, "
            "CAST(printf('%.6f', rnk / CAST(n AS DOUBLE)) AS DOUBLE) AS percentile "
            "FROM r"
        ),
        # normalization: both sides are RE2 regexp_replace; trim is the
        # '^ | $' regex, NOT TRIM() (SQL TRIM strips only ASCII spaces)
        "normalize_text": (
            "SELECT doc_id, "
            "regexp_replace(regexp_replace(lower(text), '\\s+', ' ', 'g'), "
            "'^ | $', '', 'g') AS norm_text, "
            "LENGTH(regexp_replace(regexp_replace(lower(text), '\\s+', ' ', 'g'), "
            "'^ | $', '', 'g')) AS n_chars "
            "FROM documents"
        ),
        # Gopher rules: every counter is one RE2 regexp over the text —
        # the exact patterns the op's Arrow count_substring_regex kernels
        # compile (both are RE2, so counts match by construction). keep
        # compares UNROUNDED double ratios on both sides.
        "gopher_rules": (
            "WITH c AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents), "
            "n AS (SELECT doc_id, "
            "len(regexp_extract_all(t, '\\S+'))::DOUBLE AS nw, "
            "len(regexp_extract_all(t, '\\S'))::DOUBLE AS nsc, "
            "(len(regexp_extract_all(t, '#')) + "
            "len(regexp_extract_all(t, '\\.\\.\\.|…')))::DOUBLE AS nsym, "
            "len(regexp_extract_all(t, '\\S*[A-Za-z]\\S*'))::DOUBLE AS naw, "
            "(len(regexp_extract_all(t, chr(10))) + 1)::DOUBLE AS nl, "
            "len(regexp_extract_all(t, '(?:^|' || chr(10) || ')[ \\t]*[-*•]'))::DOUBLE AS nb, "
            "len(regexp_extract_all(t, '(?:\\.\\.\\.|…)[ \\t]*(?:' || chr(10) || '|$)'))::DOUBLE AS ne, "
            + "".join(
                f"(CASE WHEN regexp_matches(lower(t), '\\b{w}\\b') THEN 1 ELSE 0 END) + "
                for w in ("the", "be", "to", "of", "and", "that", "have")
            )
            + "(CASE WHEN regexp_matches(lower(t), '\\bwith\\b') THEN 1 ELSE 0 END) AS nstop "
            "FROM c), "
            "r AS (SELECT doc_id, nw, nstop, "
            "CASE WHEN nw > 0 THEN nsc / GREATEST(nw, 1.0) ELSE 0.0 END AS mwl, "
            "CASE WHEN nw > 0 THEN nsym / GREATEST(nw, 1.0) ELSE 0.0 END AS symr, "
            "CASE WHEN nw > 0 THEN naw / GREATEST(nw, 1.0) ELSE 0.0 END AS af, "
            "nb / nl AS bf, ne / nl AS ef FROM n) "
            "SELECT doc_id, CAST(nw AS BIGINT) AS n_words, "
            "round_even(mwl, 6) AS mean_word_len, "
            "round_even(symr, 6) AS symbol_ratio, "
            "round_even(af, 6) AS frac_alpha_words, "
            "round_even(bf, 6) AS frac_bullet_lines, "
            "round_even(ef, 6) AS frac_ellipsis_lines, "
            "CAST(nstop AS BIGINT) AS n_stop_hits, "
            "(nw >= 50 AND nw <= 100000 AND mwl >= 3.0 AND mwl <= 10.0 "
            "AND symr <= 0.1 AND bf < 0.9 AND ef < 0.3 AND af >= 0.8 "
            "AND nstop >= 1) AS keep FROM r"
        ),
        "minhash_dedup": _minhash_base_sql()
        + (
            "SELECT doc_id FROM documents "
            "WHERE doc_id NOT IN (SELECT s FROM comps WHERE lab < s)"
        ),
        # the resumable path answers the SAME dedup question — one oracle
        "minhash_dedup_resumable": _minhash_base_sql()
        + (
            "SELECT doc_id FROM documents "
            "WHERE doc_id NOT IN (SELECT s FROM comps WHERE lab < s)"
        ),
        "minhash_clusters": _minhash_base_sql()
        + (
            "SELECT CAST(lab AS VARCHAR) AS cluster, COUNT(*) AS size "
            "FROM comps GROUP BY lab ORDER BY cluster"
        ),
        # heading-strategy counters: the three confidence formulas
        # (doclogic/headings.py) mirrored per line of the lifted page texts;
        # page text = boiler header + the doc's 80-char slices, so lines =
        # header x total_pages + every slice (closed form, no pipeline run)
        "heading_strategies": (
            r"WITH d AS ("
            r"  SELECT doc_id, text, "
            r"  CAST(CEIL(GREATEST(CEIL(LENGTH(text)/80.0),1)/30.0) AS BIGINT) AS p, "
            r"  CAST(GREATEST(CEIL(LENGTH(text)/80.0),1) AS BIGINT) AS nl "
            r"  FROM documents"
            r"), lines AS ("
            r"  SELECT 'Example Corp Confidential - Internal Distribution Only' AS raw, "
            r"         SUM(p) AS mult FROM d"
            r"  UNION ALL"
            r"  SELECT substr(text, CAST(i*80+1 AS BIGINT), 80) AS raw, 1 AS mult"
            r"  FROM (SELECT text, unnest(range(nl)) AS i FROM d)"
            r"), f AS ("
            r"  SELECT trim(raw, ' ' || chr(9) || chr(13) || chr(11) || chr(12)) AS st, mult FROM lines"
            r"), g AS ("
            r"  SELECT st, mult, "
            r"    CASE WHEN regexp_matches(st, '^\d+(\.\d+)*\s+\S+') "
            r"         THEN LEAST(1.0, 0.6 + 0.2*len(regexp_extract_all(st, '\.'))) ELSE 0.0 END AS c_num, "
            r"    CASE WHEN regexp_matches(st, '^[A-Z0-9\s\-\(\/]{4,}$') "
            r"          AND len(regexp_extract_all(st, '[A-Z]')) >= 2 "
            r"          AND len(regexp_extract_all(st, '[A-Za-z]')) > 0 "
            r"         THEN LEAST(1.0, len(regexp_extract_all(st, '[A-Z]'))::DOUBLE / len(regexp_extract_all(st, '[A-Za-z]'))) "
            r"         ELSE 0.0 END AS c_caps, "
            r"    CASE WHEN len(regexp_extract_all(st, '\S+')) >= 2 "
            r"          AND len(list_filter(regexp_extract_all(st, '\S+'), w -> regexp_matches(w, '^[A-Z0-9]'))) "
            r"              >= GREATEST(1, len(regexp_extract_all(st, '\S+'))//2) "
            r"         THEN len(list_filter(regexp_extract_all(st, '\S+'), w -> regexp_matches(w, '^[A-Z0-9]')))::DOUBLE "
            r"              / len(regexp_extract_all(st, '\S+')) "
            r"         ELSE 0.0 END AS c_mix "
            r"  FROM f"
            r"), w AS ("
            r"  SELECT mult, CASE "
            r"    WHEN GREATEST(c_num, c_caps, c_mix) <= 0 THEN NULL "
            r"    WHEN c_num = GREATEST(c_num, c_caps, c_mix) THEN 'numbered_heading_confidence' "
            r"    WHEN c_caps = GREATEST(c_num, c_caps, c_mix) THEN 'allcaps_heading_confidence' "
            r"    ELSE 'mixedcap_heading_confidence' END AS strategy "
            r"  FROM g"
            r") SELECT strategy, CAST(SUM(mult) AS BIGINT) AS n_lines FROM w "
            r"WHERE strategy IS NOT NULL GROUP BY strategy ORDER BY strategy"
        ),
        # curation ops (pyarrow.compute and DuckDB share the RE2 engine, so
        # the scrub regexes match byte-for-byte)
        "scrub_pii": (
            r"WITH s1 AS ("
            r"  SELECT doc_id, "
            r"    len(regexp_extract_all(text, 'https?://[^\s]+'))::BIGINT AS n_urls, "
            r"    regexp_replace(text, 'https?://[^\s]+', '<URL>', 'g') AS t1"
            r"  FROM documents"
            r"), s2 AS ("
            r"  SELECT doc_id, n_urls, "
            r"    len(regexp_extract_all(t1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'))::BIGINT AS n_emails, "
            r"    regexp_replace(t1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t2"
            r"  FROM s1"
            r") SELECT doc_id, "
            r"regexp_replace(t2, '\+?\d[\d\-\s]{7,}\d', '<PHONE>', 'g') AS clean_text, "
            r"n_urls, n_emails, "
            r"len(regexp_extract_all(t2, '\+?\d[\d\-\s]{7,}\d'))::BIGINT AS n_phones "
            r"FROM s2"
        ),
        # COALESCE(text,''): the op scores a null text as one empty line
        # (n_lines=1, ratios 0); string_split(NULL) would unnest to no rows
        "repetition_score": (
            "WITH lines AS (SELECT doc_id, "
            "unnest(string_split(COALESCE(text, ''), chr(10))) AS line "
            "FROM documents WHERE doc_id IS NOT NULL), "
            "cl AS (SELECT doc_id, line, COUNT(*) AS c FROM lines GROUP BY doc_id, line), "
            "per AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS n_lines, "
            "CAST(COUNT(*) AS BIGINT) AS n_distinct, MAX(c) AS top_freq "
            "FROM cl GROUP BY doc_id) "
            "SELECT doc_id, n_lines, n_distinct AS n_distinct_lines, "
            "round_even(1.0 - n_distinct/(n_lines::DOUBLE), 6) AS dup_line_ratio, "
            "round_even(top_freq/(n_lines::DOUBLE), 6) AS top_line_share FROM per"
        ),
        # PMI collocations: generated so the expression tree matches the op
        "pmi_top_pairs": _pmi_oracle(),
        "top_ngrams": (
            r"WITH toks AS (SELECT regexp_extract_all(lower(text),'\S+') AS tk "
            r"FROM documents), "
            r"grams AS (SELECT unnest(list_transform(range(len(tk)-1), "
            r"i -> array_to_string(list_slice(tk,i+1,i+2),' '))) AS ngram "
            r"FROM toks WHERE len(tk) >= 2) "
            r"SELECT ngram, COUNT(*)::BIGINT AS n FROM grams "
            r"GROUP BY ngram ORDER BY n DESC, ngram LIMIT 20"
        ),
        "stratified_sample": (
            "SELECT doc_id, lang, n_chars FROM documents "
            "WHERE (('0x'||substr(md5(CAST(doc_id AS VARCHAR)),1,16))::UBIGINT >> 1) % 100 "
            "< CASE WHEN lang='en' THEN 20 ELSE 10 END ORDER BY doc_id"
        ),
        "tfidf_top_terms": (
            r"WITH toks AS (SELECT doc_id, "
            r"unnest(regexp_extract_all(lower(text),'\S+')) AS tok FROM documents), "
            r"tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM toks GROUP BY doc_id, tok), "
            r"df AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY tok), "
            r"n AS (SELECT COUNT(*) AS n FROM documents), "
            r"scored AS (SELECT tf.doc_id, tf.tok AS token, "
            r"round_even(tf.tf * ln(n.n::DOUBLE / df.df), 6) AS tfidf "
            r"FROM tf JOIN df ON tf.tok = df.tok, n), "
            r"ranked AS (SELECT *, ROW_NUMBER() OVER "
            r"(PARTITION BY doc_id ORDER BY tfidf DESC, token) AS rn FROM scored) "
            r"SELECT doc_id, token, tfidf FROM ranked WHERE rn <= 3"
        ),
        # Okapi BM25: generated so constants/parens/term order match the
        # op exactly (ops/retrieval.py bm25_sql docstring has the law)
        "bm25_top_docs": _bm25_oracle(),
        # the index-served path is bit-identical to the scan path by the
        # 0.0-addition law (ops/retrieval.py bm25_index_top_docs) — same SQL
        "bm25_index_top_docs": _bm25_oracle(),
        # fragment-union serving is bit-identical to the scan path — the
        # incremental store's resume/prune laws are pinned in tests
        "bm25_incr_index_top_docs": _bm25_oracle(),
        # token-position adjacency as a list lambda (no join: null ids
        # survive on both sides, the split_sentences per-row law)
        "phrase_search": _phrase_oracle(),
        # rank-based fusion: generated BM25 pool + knn cosine pool,
        # ROW_NUMBER ranks, EXACT integer // scoring (no float blend)
        "rrf_search": _rrf_oracle(),
        # BM25 pool (same generated SQL, k=pool) inner-joined to valid
        # embeddings, cosine + weighted sum with the op's expression tree
        "hybrid_search": (
            "WITH bm AS (" + _bm25_pool_oracle() + "), "
            "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings "
            "  WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND len(embedding) > 0), "
            "q AS (SELECT v FROM e WHERE vec_id = 0), "
            "c AS (SELECT bm.doc_id, bm.score, "
            "  round_even(list_cosine_similarity(e.v, q.v), 6) AS cosine "
            "  FROM bm JOIN e ON e.vec_id = bm.doc_id, q) "
            "SELECT doc_id, score, cosine, "
            "  round_even(0.5 * score + (1.0 - 0.5) * cosine, 6) AS hybrid "
            "FROM c ORDER BY hybrid DESC, doc_id LIMIT 10"
        ),
        # budget-quantized contiguous packing: shard = prior cumulative
        # tokens within the id range // budget — a windowed SUM
        "pack_shards": (
            r"WITH t AS ("
            r"  SELECT doc_id, "
            r"    CAST(COALESCE(len(regexp_extract_all(text, '\S+')), 0) AS BIGINT) AS n_tokens, "
            r"    doc_id // 100 AS rb"
            r"  FROM documents WHERE doc_id IS NOT NULL"
            r") SELECT doc_id, n_tokens, "
            r"CAST(rb * 4294967296 + COALESCE(SUM(n_tokens) OVER ("
            r"  PARTITION BY rb ORDER BY doc_id "
            r"  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 4096 AS BIGINT) AS shard_id "
            r"FROM t"
        ),
        "doc_frequency": (
            r"WITH t AS (SELECT doc_id, "
            r"unnest(list_distinct(regexp_extract_all(lower(text), '\S+'))) AS tok "
            r"FROM documents) "
            r"SELECT tok AS token, COUNT(*)::BIGINT AS df FROM t "
            r"GROUP BY tok ORDER BY df DESC, token LIMIT 20"
        ),
        "orders_price_bands": (
            "WITH bands(lo, hi, label) AS (VALUES "
            "  (0.0, 50000.0, 'small'), (50000.0, 150000.0, 'medium'), "
            "  (150000.0, 300000.0, 'large'), (300000.0, 1e12, 'jumbo')) "
            "SELECT b.label, COUNT(*)::BIGINT AS n_orders FROM orders o "
            "JOIN bands b ON o.o_totalprice >= b.lo AND o.o_totalprice < b.hi "
            "GROUP BY b.label ORDER BY b.label"
        ),
        # the sign-LSH planes are deterministic seeded draws — embedded as
        # SQL literals, so even the APPROXIMATE pipeline is hash-verified
        "embedding_near_dup_lsh": _embedding_lsh_sql(
            threshold=0.45, n_planes=6, n_tables=8, seed=11
        ),
        # deterministic-init fixed-iteration Lloyd's unrolls into plain SQL
        "kmeans_clusters": _kmeans_sql(k=8, n_iters=5, dim=64),
        "semantic_dedup": _semantic_dedup_sql(k=8, n_iters=5, dim=64, threshold=0.4),
        # rows-only remainder: validation_summary (aggregates the
        # TOC/section doclogic counts, which have no closed form — pinned
        # by the golden-anchor tests).
    }
    # JPEG shares PNG's closed-form dimension rule and projection exactly
    # (entropy-coded length and lossy pixels have no closed form, so both
    # oracles are dims + status only) — alias, don't duplicate the SQL
    out["media_features_jpeg"] = out["media_features_png"]
    # real resize over the JPEG synth payloads: source dims from the md5
    # rule, target dims from the shared _fit_dims law — identical double
    # arithmetic order (w * LEAST(1, 16/GREATEST(w,h))) and half-even
    # rounding on both sides
    out["resize_images"] = _EXTRACT_BASE_SQL + (
        ", imgs AS ("
        "  SELECT doc_id, 'img://' || CAST(doc_id AS VARCHAR) || '/p' || pg || '/0' AS media_ref"
        "  FROM pages WHERE (h+pg)%4=0"
        "), dims AS ("
        "  SELECT doc_id, media_ref, "
        "    4 + ('0x'||substr(md5(media_ref),1,2))::INT % 32 AS w, "
        "    4 + ('0x'||substr(md5(media_ref),3,2))::INT % 32 AS h "
        "  FROM imgs"
        ") SELECT doc_id, media_ref, CAST(w AS INT) AS width, CAST(h AS INT) AS height, "
        "CAST(GREATEST(1, round_even(w * LEAST(1.0, 16.0 / GREATEST(w, h, 1)), 0)) AS INT) AS out_width, "
        "CAST(GREATEST(1, round_even(h * LEAST(1.0, 16.0 / GREATEST(w, h, 1)), 0)) AS INT) AS out_height, "
        "TRUE AS decode_ok FROM dims"
    )
    # WAV: the synthesize_wav closed form (n = 500 + d0*37 + d1,
    # channels = 1 + d2 % 2, rate 8000, duration = n*1000 // 8000 —
    # integer //, a DOUBLE->BIGINT cast would ROUND)
    # MP4: the synthesize_mp4 closed form (duration = 1000 + d0*97 + d1,
    # dims = 16*(1 + d2..3 % 64), one track); duration_ms is exact since
    # the skeleton's timescale is 1000
    out["media_probe_mp4"] = _EXTRACT_BASE_SQL + (
        ", imgs AS ("
        "  SELECT doc_id, 'img://' || CAST(doc_id AS VARCHAR) || '/p' || pg || '/0' AS media_ref"
        "  FROM pages WHERE (h+pg)%4=0"
        ") SELECT doc_id, media_ref, "
        "CAST(1000 + ('0x'||substr(md5(media_ref),1,2))::INT * 97 "
        "     + ('0x'||substr(md5(media_ref),3,2))::INT AS BIGINT) AS duration_ms, "
        "CAST(1 AS INT) AS n_tracks, "
        "CAST(16 * (1 + ('0x'||substr(md5(media_ref),5,2))::INT % 64) AS INT) AS width, "
        "CAST(16 * (1 + ('0x'||substr(md5(media_ref),7,2))::INT % 64) AS INT) AS height, "
        "TRUE AS decode_ok FROM imgs"
    )
    out["media_features_wav"] = _EXTRACT_BASE_SQL + (
        ", imgs AS ("
        "  SELECT doc_id, 'img://' || CAST(doc_id AS VARCHAR) || '/p' || pg || '/0' AS media_ref"
        "  FROM pages WHERE (h+pg)%4=0"
        "), dims AS ("
        "  SELECT doc_id, media_ref, "
        "    CAST(500 + ('0x'||substr(md5(media_ref),1,2))::INT * 37 "
        "         + ('0x'||substr(md5(media_ref),3,2))::INT AS BIGINT) AS n_samples, "
        "    CAST(1 + ('0x'||substr(md5(media_ref),5,2))::INT % 2 AS INT) AS channels "
        "  FROM imgs"
        ") SELECT doc_id, media_ref, n_samples, channels, "
        "CAST(8000 AS INT) AS sample_rate, "
        "(n_samples * 1000) // 8000 AS duration_ms, TRUE AS decode_ok FROM dims"
    )
    return out
