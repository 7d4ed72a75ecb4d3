"""Ranked retrieval over a documents table: Okapi BM25 top-k.

The reference repo's search surface is a per-document term scan
(reference: utils/helpers.py search_terms_in_text — see
functions/search.py for that op); BM25 is the corpus-level ranked
extension a training-data pipeline needs for query-driven curation
(e.g. pulling topical subsets out of 100 TB of web text).

Scale shape (no corpus shuffle):

- pass 1 tokenizes each batch once and emits BOUNDED partials: one row
  per query term with its document-frequency partial, plus the batch's
  doc/token totals carried on the first term's row (a fixed column slot,
  never an in-band sentinel key). One tiny ``groupby(term)`` merges
  them — output rows == len(terms).
- the (idf, avgdl) table broadcasts once via ``ray.put``; pass 2 scores
  every batch locally and pre-trims to its local top-k, so the final
  global sort sees at most k rows per batch.

Float-parity law (the repo's oracle convention): every constant and
every parenthesis in the score formula appears IDENTICALLY in the SQL
oracle (see ``bm25_sql``); the final score is rounded half-even to 6
(Python ``round`` on a Python float == DuckDB ``round_even``) and the
top-k cut sorts on the ROUNDED score with doc_id ascending tiebreak, so
the cut can never straddle a 6th-decimal boundary differently.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _normalize_terms(query_terms: list[str]) -> list[str]:
    """Lowercase + order-preserving dedupe — the op and the SQL generator
    share this so the per-term sum order is identical on both sides."""
    return list(dict.fromkeys(t.lower() for t in query_terms))


def _column_type(ds: ray.data.Dataset, col: str) -> pa.DataType:
    # ds.schema() is Ray's wrapper (names/types lists), not pyarrow's
    schema = ds.schema()
    return schema.types[schema.names.index(col)]


def _sql_str(term: str) -> str:
    """A term as a single-quoted SQL literal — embedded quotes double
    (tokens under the \\S+ law can legally contain an apostrophe)."""
    return "'" + term.replace("'", "''") + "'"


def bm25_top_docs(
    ds: ray.data.Dataset,
    query_terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Top-k documents by Okapi BM25 for a bag of query terms.

    Tokenization is the repo's whitespace law (``lower().split()``, the
    SQL side is ``regexp_extract_all(lower(COALESCE(text,'')), '\\S+')``).
    idf is the Robertson/Sparck-Jones smoothed form
    ``ln((N - df + 0.5) / (df + 0.5) + 1)`` (non-negative, as in Lucene).
    Docs with a null id are dropped up front (they cannot be ranked);
    null text scores 0 and is cut by the ``score > 0`` filter.

    Returns (id_col, score) rows, score rounded half-even to 6,
    ordered (score desc, id asc), at most k rows."""
    import ray as _ray
    from ray.data.aggregate import Sum

    terms = _normalize_terms(query_terms)
    if not terms:
        raise ValueError("bm25_top_docs needs at least one query term")

    # capture the id type BEFORE any transform: a fully-empty dataset's
    # schema() is None after map_batches (Ray 2.49 schema-less blocks)
    id_type = _column_type(ds, id_col)

    ds = ds.select_columns([id_col, text_col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[id_col])), batch_format="pyarrow"
    )

    def stat_partials(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        df = {t: 0 for t in terms}
        n_docs = 0
        dl_total = 0
        for text in texts:
            toks = (text or "").lower().split()
            n_docs += 1
            dl_total += len(toks)
            seen = set(toks)
            for t in terms:
                if t in seen:
                    df[t] += 1
        # corpus totals ride the FIRST term's row (a fixed column slot;
        # an in-band sentinel key could collide with a real query term)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df": pa.array([df[t] for t in terms], pa.int64()),
                "n_docs": pa.array(
                    [n_docs] + [0] * (len(terms) - 1), pa.int64()
                ),
                "dl_total": pa.array(
                    [dl_total] + [0] * (len(terms) - 1), pa.int64()
                ),
            }
        )

    stats = (
        ds.map_batches(stat_partials, batch_format="pyarrow")
        .groupby("term")
        .aggregate(
            Sum("df", alias_name="df"),
            Sum("n_docs", alias_name="n_docs"),
            Sum("dl_total", alias_name="dl_total"),
        )
        .take_all()  # bounded: exactly len(terms) rows
    )
    n = sum(int(r["n_docs"]) for r in stats)
    total_dl = sum(int(r["dl_total"]) for r in stats)
    if n == 0:
        return ray.data.from_arrow(
            pa.table(
                {id_col: pa.array([], id_type), "score": pa.array([], pa.float64())}
            )
        )
    avgdl = total_dl / n  # int/int: the exact same double as the oracle's
    df_by_term = {r["term"]: int(r["df"]) for r in stats}
    # idf in the op's term order — the score sums per-term contributions
    # left-to-right in this order, and the SQL adds them in the same order
    idf = [
        math.log((float(n - df_by_term[t]) + 0.5) / (float(df_by_term[t]) + 0.5) + 1.0)
        for t in terms
    ]
    ref = _ray.put((terms, idf, avgdl, k1, b))

    class Score:
        def __init__(self, ref, k: int):
            self.terms, self.idf, self.avgdl, self.k1, self.b = _ray.get(ref)
            self.k = k

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = batch[id_col]
            texts = pc.cast(batch[text_col], pa.string()).to_pylist()
            scores = np.empty(len(texts), dtype=np.float64)
            for i, text in enumerate(texts):
                toks = (text or "").lower().split()
                dl = len(toks)
                s = 0.0
                # list.count per query term runs at C speed; a Python
                # token loop building a full tf dict costs ~5x more for
                # the few-term queries this op serves (same counts, same
                # floats — only the tf computation changes)
                for t, w in zip(self.terms, self.idf):
                    f = toks.count(t)
                    if f == 0:
                        continue  # a zero contribution adds exactly 0.0
                    s = s + w * (
                        (f * (self.k1 + 1.0))
                        / (
                            f
                            + self.k1
                            * ((1.0 - self.b) + self.b * (dl / self.avgdl))
                        )
                    )
                # Python float round == round_even in the oracle
                scores[i] = round(float(s), 6)
            keep = scores > 0.0
            out = pa.table(
                {
                    id_col: ids.filter(pa.array(keep)),
                    "score": pa.array(scores[keep], pa.float64()),
                }
            )
            if out.num_rows > self.k:
                # local pre-trim: (-score, id) lexsort keeps the global
                # top-k candidates, so the final sort sees <= k rows/batch
                order = pc.sort_indices(
                    out,
                    sort_keys=[("score", "descending"), (id_col, "ascending")],
                )
                out = out.take(order[: self.k])
            return out

    return (
        ds.map_batches(
            Score,
            batch_format="pyarrow",
            fn_constructor_args=(ref, k),
            concurrency=(1, 8),
        )
        .sort(["score", id_col], descending=[True, False])
        .limit(k)
    )


def _make_postings_fn(id_type, text_col: str, id_col: str, n_buckets: int):
    """The ONE postings law, shared by the full build and the incremental
    update: one row per distinct (term, doc) with (tf, dl, term bucket),
    plus a per-batch corpus-stats row in its own partition (bucket ==
    n_buckets — term buckets are [0, n_buckets), so never a collision)."""
    from pdf_parser_ray.functions.hashing import md5_bucket

    post_schema = pa.schema(
        [
            ("term", pa.string()),
            ("doc", id_type),
            ("tf", pa.int64()),
            ("dl", pa.int64()),
            ("bucket", pa.int32()),
        ]
    )

    def postings(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        ids = batch[id_col].to_pylist()
        out_t: list = []
        out_doc: list = []
        out_tf: list = []
        out_dl: list = []
        out_b: list = []
        n_docs = 0
        dl_total = 0
        for doc, text in zip(ids, texts):
            toks = (text or "").lower().split()
            n_docs += 1
            dl_total += len(toks)
            tf: dict[str, int] = {}
            for tok in toks:
                tf[tok] = tf.get(tok, 0) + 1
            for term, f in tf.items():
                out_t.append(term)
                out_doc.append(doc)
                out_tf.append(f)
                out_dl.append(len(toks))
                out_b.append(md5_bucket(term, n_buckets))
        out_t.append(None)
        out_doc.append(None)
        out_tf.append(n_docs)
        out_dl.append(dl_total)
        out_b.append(n_buckets)
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "doc": pa.array(out_doc, id_type),
                "tf": pa.array(out_tf, pa.int64()),
                "dl": pa.array(out_dl, pa.int64()),
                "bucket": pa.array(out_b, pa.int32()),
            }
        ).cast(post_schema)

    return postings


def build_text_index(
    ds: ray.data.Dataset,
    index_dir: str,
    n_buckets: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> dict:
    """One-time inverted-index build: the corpus is scanned ONCE and
    written as term-bucket-partitioned parquet postings; ranked queries
    then read only the buckets their terms hash into
    (:func:`bm25_index_top_docs`) — the text sibling of
    :func:`~pdf_parser_ray.ops.similarity.build_ivf_index`.

    Layout under ``index_dir``:

    * ``postings/bucket=<md5_bucket(term, n_buckets)>/*.parquet`` — one row
      per distinct (term, doc): (term, doc, tf, dl). dl rides every posting
      so scoring never joins back to the corpus.
    * ``postings/bucket=<n_buckets>/`` — the stats partition: one row per
      build batch carrying (tf = docs in batch, dl = batch token total).
      Docs with empty/null text emit no postings but ARE counted here
      (BM25's N and avgdl include zero-length docs, as in the scan path).
    * ``meta.json`` — n_buckets, column names, the id type alias (the
      empty-result path reconstructs a typed schema from it), and the
      corpus totals (n_docs, dl_total) folded in from the stats partition
      at build time so served queries pay zero IO for N / avgdl.

    Null-id docs are dropped (they cannot be ranked — same law as
    :func:`bm25_top_docs`). Returns the meta dict."""
    import os
    import shutil

    from pdf_parser_ray.state.fragments import write_json_atomic

    id_type = _column_type(ds, id_col)
    # size probe on the RAW input: for a parquet read this is metadata;
    # after any transform it would execute the pipeline just to ask
    try:
        in_bytes = ds.size_bytes()
    except Exception:
        in_bytes = None

    ds = ds.select_columns([id_col, text_col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[id_col])), batch_format="pyarrow"
    )

    postings = _make_postings_fn(id_type, text_col, id_col, n_buckets)

    os.makedirs(index_dir, exist_ok=True)
    post_dir = os.path.join(index_dir, "postings")
    # a rebuild must not leave stale partition files: write_parquet adds
    # uniquely-named files and the query path globs *.parquet per bucket
    if os.path.isdir(post_dir):
        shutil.rmtree(post_dir)
    post_ds = ds.map_batches(postings, batch_format="pyarrow")
    # partitioned write fans out to n_buckets files PER BLOCK — size the
    # block count from the data (~64 MB each), not from CPU count, or a
    # small corpus shatters into thousands of KB files whose per-file
    # open cost then dominates every served query
    if in_bytes:
        post_ds = post_ds.repartition(max(1, min(512, in_bytes // (64 << 20) + 1)))
    post_ds.write_parquet(post_dir, partition_cols=["bucket"])
    # fold the corpus totals into meta at BUILD time (one tiny pruned read
    # of the stats partition) so a served query pays zero executions for
    # N / avgdl — build is the once-per-corpus place to spend this
    meta = {
        "n_buckets": int(n_buckets),
        "id_col": id_col,
        "text_col": text_col,
        "id_type": str(id_type),
        **_stats_totals(post_dir, n_buckets),
    }
    write_json_atomic(os.path.join(index_dir, "meta.json"), meta)
    return meta


def _stats_totals(post_dir: str, n_buckets: int) -> dict:
    """(n_docs, dl_total) summed over the stats partition under
    ``post_dir`` (absent: an empty corpus or fragment, both 0)."""
    import glob
    import os

    import pyarrow.parquet as pq

    n_docs = 0
    dl_total = 0
    for f in glob.glob(os.path.join(post_dir, f"bucket={n_buckets}", "*.parquet")):
        t = pq.read_table(f, columns=["tf", "dl"])
        n_docs += int(pc.sum(t["tf"]).as_py() or 0)
        dl_total += int(pc.sum(t["dl"]).as_py() or 0)
    return {"n_docs": n_docs, "dl_total": dl_total}


def _term_bucket_files(index_dir: str, terms: list[str]) -> list[str]:
    """The pruned read set: every parquet file of the buckets the query
    terms hash into (deduped, sorted). The point of the index is that this
    is |query buckets| / n_buckets of the postings, not all of them."""
    import glob
    import json
    import os

    from pdf_parser_ray.functions.hashing import md5_bucket

    with open(os.path.join(index_dir, "meta.json")) as f:
        n_buckets = json.load(f)["n_buckets"]
    buckets = sorted({md5_bucket(t, n_buckets) for t in terms})
    # two layouts share one serving path: flat (full build) and
    # per-fragment (incremental update_text_index)
    return [
        f
        for b in buckets
        for pattern in (
            os.path.join(index_dir, "postings", f"bucket={b}", "*.parquet"),
            os.path.join(index_dir, "postings", "frag=*", f"bucket={b}", "*.parquet"),
        )
        for f in sorted(glob.glob(pattern))
    ]


def bm25_index_top_docs(
    index_dir: str,
    query_terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    driver_max_bytes: int = 64 << 20,
) -> ray.data.Dataset:
    """Okapi BM25 served from a persisted :func:`build_text_index` —
    bit-identical output to :func:`bm25_top_docs` over the indexed corpus
    (same oracle), but the query reads ONLY the term buckets (N / avgdl
    come straight from meta.json): corpus IO is |query buckets| /
    n_buckets of the postings instead of a full text scan per query.

    Routed by measured size (the repo convention, e.g. tfidf's vocab
    route): the pruned files' total byte size is known BEFORE reading —
    at or under ``driver_max_bytes`` the whole query runs driver-side on
    one Arrow table (zero cluster executions — the common case: a few
    query terms against a bucketed index); above it, the distributed
    path (per-batch contributions -> groupby(doc) -> local top-k ->
    global sort) handles stopword-scale postings. A route-equality test
    pins the two paths to identical output.

    Exact-parity law: a posting exists only where tf > 0, and per-doc the
    per-term contributions are summed left-to-right in normalized term
    order with absent terms contributing literal 0.0 — IEEE adding 0.0 is
    exact, so the fold equals the scan path's skip-sum bit-for-bit."""
    import json
    import os

    import ray as _ray
    from ray.data.aggregate import Sum

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    terms = _normalize_terms(query_terms)
    if not terms:
        raise ValueError("bm25_index_top_docs needs at least one query term")
    id_col = meta["id_col"]
    id_type = pa.type_for_alias(meta["id_type"])

    def _empty() -> ray.data.Dataset:
        return ray.data.from_arrow(
            pa.table(
                {id_col: pa.array([], id_type), "score": pa.array([], pa.float64())}
            )
        )

    # corpus stats were folded into meta at build time — zero query IO
    n = int(meta["n_docs"])
    if n == 0:
        return _empty()
    avgdl = int(meta["dl_total"]) / n  # int/int: the oracle's double

    files = _term_bucket_files(index_dir, terms)
    if not files:
        return _empty()

    if sum(os.path.getsize(f) for f in files) <= driver_max_bytes:
        import pyarrow.parquet as pq

        t = pq.read_table(files, columns=["term", "doc", "tf", "dl"]).filter(
            pc.is_in(pc.field("term"), pa.array(terms, pa.string()))
        )
        if t.num_rows == 0:
            return _empty()
        t_to_i = {term: i for i, term in enumerate(terms)}
        tidx = np.array([t_to_i[v] for v in t["term"].to_pylist()], dtype=np.int64)
        df_np = np.bincount(tidx, minlength=len(terms))
        idf = np.array(
            [
                math.log(
                    (float(n - int(df_np[i])) + 0.5) / (float(int(df_np[i])) + 0.5)
                    + 1.0
                )
                for i in range(len(terms))
            ],
            dtype=np.float64,
        )
        f = pc.cast(t["tf"], pa.float64()).to_numpy(zero_copy_only=False)
        dl = pc.cast(t["dl"], pa.float64()).to_numpy(zero_copy_only=False)
        # identical arithmetic order to bm25_top_docs' scalar formula
        c = idf[tidx] * ((f * (k1 + 1.0)) / (f + k1 * ((1.0 - b) + b * (dl / avgdl))))
        # per-doc fold in term-index order: one posting per (doc, term),
        # so summing sorted-by-term-index contributions per doc equals the
        # scan path's skip-sum (absent terms contribute exactly 0.0)
        dockey = pa.table({"d": t["doc"]})
        codes = pc.dictionary_encode(dockey["d"]).combine_chunks().indices
        codes_np = codes.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((tidx, codes_np))
        starts = np.flatnonzero(np.diff(codes_np[order], prepend=-1))
        sums = np.add.reduceat(c[order], starts)
        scores = np.array([round(float(v), 6) for v in sums], dtype=np.float64)
        doc_arr = t["doc"].combine_chunks().take(
            pa.array(order[starts], pa.int64())
        )
        keep = scores > 0.0
        out = pa.table(
            {
                id_col: doc_arr.filter(pa.array(keep)),
                "score": pa.array(scores[keep], pa.float64()),
            }
        )
        top = out.take(
            pc.sort_indices(
                out, sort_keys=[("score", "descending"), (id_col, "ascending")]
            )[:k]
        )
        return ray.data.from_arrow(top)

    postings = (
        ray.data.read_parquet(files, columns=["term", "doc", "tf", "dl"])
        .map_batches(
            lambda t: t.filter(pc.is_in(t["term"], pa.array(terms, pa.string()))),
            batch_format="pyarrow",
        )
        # bounded by the query terms' postings (never the corpus); pinned
        # so the df pass and the scoring pass don't re-read the buckets
        .materialize()
    )
    if postings.count() == 0:  # terms share buckets with other terms only
        return _empty()

    def df_partials(batch: pa.Table) -> pa.Table:
        g = batch.group_by("term").aggregate([("term", "count")])
        return pa.table(
            {
                "term": g["term"],
                "df": pc.cast(g["term_count"], pa.int64()),
            }
        )

    # partials are <= len(terms) rows per batch — merge them driver-side
    # instead of paying an all-to-all groupby for a terms-sized table
    df_by_term: dict[str, int] = {}
    for r in postings.map_batches(df_partials, batch_format="pyarrow").take_all():
        df_by_term[r["term"]] = df_by_term.get(r["term"], 0) + int(r["df"])
    idf = np.array(
        [
            math.log(
                (float(n - df_by_term.get(t, 0)) + 0.5)
                / (float(df_by_term.get(t, 0)) + 0.5)
                + 1.0
            )
            for t in terms
        ],
        dtype=np.float64,
    )
    ref = _ray.put((terms, idf, avgdl, k1, b))

    def contribs(batch: pa.Table, *, _ref=ref) -> pa.Table:
        terms_, idf_, avgdl_, k1_, b_ = _ray.get(_ref)
        t_to_i = {t: i for i, t in enumerate(terms_)}
        idx = np.array([t_to_i[t] for t in batch["term"].to_pylist()], dtype=np.int64)
        f = pc.cast(batch["tf"], pa.float64()).to_numpy(zero_copy_only=False)
        dl = pc.cast(batch["dl"], pa.float64()).to_numpy(zero_copy_only=False)
        # identical arithmetic order to bm25_top_docs' scalar formula —
        # elementwise IEEE double ops match Python float bit-for-bit
        c = idf_[idx] * (
            (f * (k1_ + 1.0)) / (f + k1_ * ((1.0 - b_) + b_ * (dl / avgdl_)))
        )
        cols: dict = {"doc": batch["doc"]}
        for i in range(len(terms_)):
            cols[f"c{i}"] = pa.array(np.where(idx == i, c, 0.0), pa.float64())
        return pa.table(cols)

    grouped = (
        postings.map_batches(contribs, batch_format="pyarrow")
        .groupby("doc")
        .aggregate(
            *[Sum(f"c{i}", alias_name=f"c{i}") for i in range(len(terms))]
        )
    )

    n_terms = len(terms)

    # plain function, not an actor pool: the only state is (n_terms, k) —
    # ints shipped by closure, no per-actor setup to amortize
    def finish(batch: pa.Table) -> pa.Table:
        docs = batch["doc"]
        # left-to-right fold in term order; every doc has at most one
        # posting per term so each Sum'd c_i is exact (0.0s add exactly)
        s = np.zeros(len(batch), dtype=np.float64)
        for i in range(n_terms):
            s = s + batch[f"c{i}"].to_numpy(zero_copy_only=False)
        scores = np.array([round(float(v), 6) for v in s], dtype=np.float64)
        keep = scores > 0.0
        out = pa.table(
            {
                id_col: docs.filter(pa.array(keep)),
                "score": pa.array(scores[keep], pa.float64()),
            }
        )
        if out.num_rows > k:
            # local pre-trim: the global sort sees <= k rows per batch
            order = pc.sort_indices(
                out,
                sort_keys=[("score", "descending"), (id_col, "ascending")],
            )
            out = out.take(order[:k])
        return out

    return (
        grouped.map_batches(finish, batch_format="pyarrow")
        .sort(["score", id_col], descending=[True, False])
        .limit(k)
    )


def bm25_sql(
    query_terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    table: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """The DuckDB oracle for :func:`bm25_top_docs` — same tokenization,
    same constants, same parenthesization, same left-to-right per-term
    sum order, round_even(.,6) on the total, (score desc, id) cut."""
    terms = _normalize_terms(query_terms)
    tf_cols = ", ".join(
        f"len(list_filter(toks, x -> x = {_sql_str(t)})) AS tf{i}"
        for i, t in enumerate(terms)
    )
    df_cols = ", ".join(
        f"SUM(CASE WHEN tf{i} > 0 THEN 1 ELSE 0 END)::BIGINT AS df{i}"
        for i in range(len(terms))
    )
    contribs = " + ".join(
        f"(CASE WHEN tf{i} = 0 THEN 0.0 ELSE "
        f"ln((CAST(s.n - s.df{i} AS DOUBLE) + 0.5) / (CAST(s.df{i} AS DOUBLE) + 0.5) + 1.0)"
        f" * ((tf{i} * ({k1!r} + 1.0)) / (tf{i} + {k1!r} * ((1.0 - {b!r}) + {b!r} * (dl / s.avgdl)))) END)"
        for i in range(len(terms))
    )
    return (
        f"WITH d AS (SELECT {id_col}, "
        f"regexp_extract_all(lower(COALESCE({text_col}, '')), '\\S+') AS toks "
        f"FROM {table} WHERE {id_col} IS NOT NULL), "
        f"tf AS (SELECT {id_col}, len(toks) AS dl, {tf_cols} FROM d), "
        f"s AS (SELECT COUNT(*) AS n, "
        f"CAST(SUM(dl) AS BIGINT)::DOUBLE / COUNT(*) AS avgdl, {df_cols} FROM tf), "
        f"scored AS (SELECT {id_col}, round_even({contribs}, 6) AS score FROM tf, s) "
        f"SELECT {id_col}, score FROM scored WHERE score > 0.0 "
        f"ORDER BY score DESC, {id_col} LIMIT {k}"
    )


def phrase_search(
    ds: ray.data.Dataset,
    phrase: list[str],
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Exact-phrase occurrence counts per document: a match is
    ``len(phrase)`` CONSECUTIVE tokens equal to the (lowercased) phrase
    terms, over the retrieval family's tokenization (``\\S+`` on
    ``lower(text)``). Returns (id, n_matches, first_pos) for documents
    with at least one match; ``first_pos`` is the 1-based token index of
    the first occurrence.

    Null text tokenizes empty (no row); null ids SURVIVE — the per-row
    law shared with split_sentences, and what the list-lambda oracle
    (:func:`phrase_sql`) computes: no join ever touches the id. A pure
    map stage — token-position adjacency is per-document, so phrase
    matching needs no index and no shuffle at any corpus size (the
    vectorized mask is one numpy equality per phrase term).
    """
    import re

    terms = [t.lower() for t in phrase]
    if not terms:
        raise ValueError("phrase must have at least one term")
    tok_re = re.compile(r"\S+")
    k = len(terms)
    id_t = ds.schema().base_schema.field(id_col).type
    out_schema = pa.schema(
        [(id_col, id_t), ("n_matches", pa.int64()), ("first_pos", pa.int64())]
    )

    def find(batch: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(
            pc.fill_null(pc.cast(batch[text_col], pa.string()), "")
        ).to_pylist()
        keep, n_matches, first_pos = [], [], []
        for i, t in enumerate(texts):
            toks = tok_re.findall(t)
            if len(toks) < k:
                continue
            # object dtype: numpy fixed-width unicode truncates trailing NULs
            arr = np.array(toks, dtype=object)
            stop = len(arr) - k + 1
            mask = arr[:stop] == terms[0]
            for j in range(1, k):
                mask &= arr[j : stop + j] == terms[j]
            hits = np.flatnonzero(mask)
            if hits.size:
                keep.append(i)
                n_matches.append(int(hits.size))
                first_pos.append(int(hits[0]) + 1)
        return pa.table(
            {
                id_col: batch[id_col].take(pa.array(keep, pa.int64())),
                "n_matches": pa.array(n_matches, pa.int64()),
                "first_pos": pa.array(first_pos, pa.int64()),
            }
        ).cast(out_schema)

    from pdf_parser_ray.functions.tables import schema_pin

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(find, batch_format="pyarrow")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


def phrase_sql(
    phrase: list[str],
    table: str = "documents",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> str:
    """The DuckDB oracle for :func:`phrase_search` — token-position
    adjacency as a list lambda (1-based list indexing; ``range`` end is
    exclusive, so positions run 1 .. len - k + 1 exactly like the op's
    numpy ``stop``). No join: null ids survive on both sides."""
    terms = [t.lower() for t in phrase]
    k = len(terms)
    conds = " AND ".join(
        f"l[p + {j}] = {_sql_str(t)}" for j, t in enumerate(terms)
    )
    rng_end = f"len(l) - {k - 2}" if k >= 2 else "len(l) + 1"
    return (
        f"WITH t AS (SELECT {id_col}, "
        f"regexp_extract_all(lower(COALESCE({text_col}, '')), '\\S+') AS l "
        f"FROM {table}), "
        f"m AS (SELECT {id_col}, "
        f"list_filter(range(1, {rng_end}), p -> {conds}) AS hits FROM t) "
        f"SELECT {id_col}, CAST(len(hits) AS BIGINT) AS n_matches, "
        f"CAST(hits[1] AS BIGINT) AS first_pos FROM m WHERE len(hits) > 0"
    )


def update_text_index(
    files: list[str],
    index_dir: str,
    n_buckets: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> dict:
    """Incrementally maintain a text index over a FRAGMENTED corpus.

    A client of :mod:`pdf_parser_ray.state.fragments`, which owns the
    resume mechanics (lock, per-file signature and stale set, pruning,
    chunked staging, rename-then-manifest). Each corpus fragment (input
    parquet file) owns a partition ``postings/frag=<key>/bucket=<b>/``;
    the index parameters are part of the signature, so changing one
    re-indexes every fragment. A re-run — after a kill, or with fragments
    appended — indexes only the fragments the store has not seen, and
    fragments no longer in ``files`` are pruned (ghost postings would
    inflate df and N forever).

    What is particular to the index:

    * each manifest carries the fragment's (n_docs, dl_total), so
      ``meta.json``'s corpus totals are rebuilt by pure json sums — a
      100k-fragment refresh re-reads zero parquet.
    * one index serves ONE corpus with ONE schema: a dir previously
      written by :func:`build_text_index` (no "incremental" meta flag),
      or a stale fragment whose id column type differs from the index's,
      raises. Only stale fragments' footers are read, so a zero-work
      resume reads no parquet at all.

    :func:`bm25_index_top_docs` serves both layouts unchanged
    (:func:`_term_bucket_files` globs flat and frag partitions); served
    scores remain bit-identical to the scan path over the fragment union.

    Returns {"files_total", "files_indexed_now", "files_skipped_resume"}.
    """
    import json
    import os

    import pyarrow.parquet as pq

    from pdf_parser_ray.state.fragments import open_store, write_json_atomic

    meta_path = os.path.join(index_dir, "meta.json")
    params = {"n_buckets": n_buckets, "id_col": id_col, "text_col": text_col}
    with open_store(index_dir, "postings/frag={key}", files, params) as store:
        prev_meta = None
        if os.path.exists(meta_path):
            with open(meta_path) as f:
                prev_meta = json.load(f)
            if not prev_meta.get("incremental"):
                raise ValueError(
                    f"{index_dir} holds a full build_text_index build; "
                    "incremental updates need their own index dir"
                )
        # ONE id type per index: the recorded meta type while committed
        # fragments remain (an empty or fully-stale store takes its type
        # from the incoming fragments), checked against every stale one
        id_type = None
        if prev_meta is not None and store.n_resumed > 0:
            id_type = pa.type_for_alias(prev_meta["id_type"])
        for path in store.stale:
            t = pq.read_schema(path).field(id_col).type
            if id_type is None:
                id_type = t
            elif t != id_type:
                raise ValueError(
                    f"fragment {path} id type {t} != index id type {id_type}"
                )
        if id_type is None:  # no fragments at all: an empty corpus index
            id_type = pa.string()
        postings_fn = _make_postings_fn(id_type, text_col, id_col, n_buckets)

        def build(path: str) -> ray.data.Dataset:
            return (
                ray.data.read_parquet(path, columns=[id_col, text_col])
                .map_batches(
                    lambda t: t.filter(pc.is_valid(t[id_col])),
                    batch_format="pyarrow",
                )
                .map_batches(postings_fn, batch_format="pyarrow")
            )

        store.commit(
            build,
            partition_cols=["bucket"],
            extra=lambda frag_dir: _stats_totals(frag_dir, n_buckets),
        )
        manifests = store.manifests()
        write_json_atomic(
            meta_path,
            {
                "n_buckets": int(n_buckets),
                "id_col": id_col,
                "text_col": text_col,
                "id_type": str(id_type),
                "n_docs": sum(int(m.get("n_docs", 0)) for m in manifests),
                "dl_total": sum(int(m.get("dl_total", 0)) for m in manifests),
                "incremental": True,
            },
        )
    return {
        "files_total": len(store.files),
        "files_indexed_now": len(store.stale),
        "files_skipped_resume": store.n_resumed,
    }


def hybrid_search(
    docs_ds: ray.data.Dataset,
    emb_ds: ray.data.Dataset,
    query_terms: list[str],
    query_vec,
    k: int = 10,
    pool: int = 100,
    alpha: float = 0.5,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
    vec_id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Hybrid retrieval: a BM25 recall pool reranked by embedding cosine —
    the lexical+semantic composition every retrieval-augmented curation
    pipeline runs (CCNet-style composition from package primitives, like
    surprisal_filter).

    hybrid = round(alpha * bm25 + (1 - alpha) * cosine, 6), both
    components already rounded to 6 (the bm25 and knn-family laws); the
    k-cut orders (hybrid desc, id). Pool docs without a valid embedding
    row (missing id, null/EMPTY vector) DROP — the SQL inner-join law.

    Scale shape: the pool is bounded (``pool`` rows) so it collects to
    the driver; the embeddings table is scanned ONCE with an is_in
    filter on the pool ids (at cluster scale push the same predicate
    into the parquet read), each batch computing cosines against the
    broadcast unit query; the final merge is pool-sized driver work.
    """
    from pdf_parser_ray.ops.similarity import _drop_invalid_vectors, _unit

    pool_rows = bm25_top_docs(
        docs_ds, query_terms, k=pool, k1=k1, b=b,
        text_col=text_col, id_col=id_col,
    ).take_all()
    id_py_type = int if all(
        isinstance(r[id_col], (int, np.integer)) for r in pool_rows
    ) else str
    out_id_t = pa.int64() if id_py_type is int else pa.string()
    out_schema = pa.schema(
        [
            (id_col, out_id_t),
            ("score", pa.float64()),
            ("cosine", pa.float64()),
            ("hybrid", pa.float64()),
        ]
    )
    if not pool_rows:
        return ray.data.from_arrow(pa.Table.from_pylist([], schema=out_schema))
    bm = {id_py_type(r[id_col]): float(r["score"]) for r in pool_rows}
    pool_ids = pa.array(sorted(bm), out_id_t)

    q = _unit(np.asarray(query_vec, dtype=np.float64))
    emb = _drop_invalid_vectors(emb_ds, vec_id_col, vec_col)

    def cosines(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.is_in(pc.cast(batch[vec_id_col], out_id_t), value_set=pool_ids)
        )
        if batch.num_rows == 0:
            return pa.table(
                {
                    vec_id_col: pa.array([], out_id_t),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        sims = np.round(_unit(vecs) @ q, 6)  # the knn-family rounded law
        return pa.table(
            {
                vec_id_col: pc.cast(batch[vec_id_col], out_id_t),
                "cosine": pa.array(sims, pa.float64()),
            }
        )

    cands = emb.map_batches(cosines, batch_format="pyarrow").take_all()
    merged = []
    for r in cands:  # <= pool rows
        did = id_py_type(r[vec_id_col])
        bs = bm[did]
        cs = float(r["cosine"])
        # np.round, NOT Python round: averaging two 6-decimal components
        # lands exactly on 7th-decimal halves, where only the scaled-
        # double half-even (np.round == DuckDB round_even) agrees
        merged.append(
            (did, bs, cs, float(np.round(alpha * bs + (1.0 - alpha) * cs, 6)))
        )
    merged.sort(key=lambda t: (-t[3], t[0]))
    top = merged[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array([t[0] for t in top], out_id_t),
                "score": pa.array([t[1] for t in top], pa.float64()),
                "cosine": pa.array([t[2] for t in top], pa.float64()),
                "hybrid": pa.array([t[3] for t in top], pa.float64()),
            }
        )
    )


def rrf_search(
    docs_ds: ray.data.Dataset,
    emb_ds: ray.data.Dataset,
    query_terms: list[str],
    query_vec,
    k: int = 10,
    pool: int = 50,
    rrf_k: int = 60,
    scale: int = 1_000_000_000,
    text_col: str = "text",
    id_col: str = "doc_id",
    vec_id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Reciprocal-rank fusion: the RANK-based sibling of
    :func:`hybrid_search` (Cormack et al.'s RRF — the standard way to
    fuse retrieval systems whose scores aren't commensurable). Each
    system contributes ``scale // (rrf_k + rank)`` for the docs in its
    top-``pool``; absent docs contribute 0. Because ranks are integers,
    the fused score is EXACT int64 arithmetic — no float-rounding law
    needed anywhere (contrast hybrid_search's np.round blend).

    Ranks are deterministic on both sides: BM25 orders by (rounded
    score desc, id asc) — the bm25_top_docs law — and cosine by
    (rounded cosine desc, id asc) — the knn-family law — so
    ROW_NUMBER in the oracle reproduces them bit-for-bit.

    Output columns: (id, bm25_rank, cos_rank, rrf_score), top-k by
    (rrf_score desc, id). Absent ranks render as 0, not NULL — kept
    ranks are strictly positive, and an int64 column stays int64 on
    every engine where a nullable BIGINT reaches pandas as float (the
    dedup_events -1-sentinel rationale).

    Id type: int64 when both id columns are integers, else string (a
    mixed int/str pair joins on the ids' str form). Each pool ranks on
    its own column's native order; the final cut's id tie-break is in
    the output type.

    Scale shape: both pools are bounded (``pool`` rows) driver merges;
    the lexical side runs the no-corpus-shuffle BM25 two-pass, the
    vector side the broadcast-query per-batch top-k — nothing here
    materializes or reshuffles the corpus.
    """
    from concurrent.futures import ThreadPoolExecutor

    from pdf_parser_ray.ops.similarity import knn_bruteforce

    # the output id type comes from the input schemas, never from the
    # pool rows (empty pools would make a string corpus's ids int64)
    id_types = (_column_type(docs_ds, id_col), _column_type(emb_ds, vec_id_col))
    integer_ids = all(pa.types.is_integer(t) for t in id_types)
    out_id_t = pa.int64() if integer_ids else pa.string()
    id_py_type = int if integer_ids else str

    # the two pools share no data dependency (contrast hybrid_search,
    # whose embedding scan filters on the pool ids) — drive both corpus
    # scans concurrently so the query pays max(scan_lex, scan_vec), not
    # their sum; each take_all owns its own streaming executor
    with ThreadPoolExecutor(max_workers=2) as ex:
        lex_f = ex.submit(
            lambda: bm25_top_docs(
                docs_ds, query_terms, k=pool, text_col=text_col,
                id_col=id_col,
            ).take_all()
        )
        vec_f = ex.submit(
            lambda: knn_bruteforce(
                emb_ds, query_vec, k=pool, id_col=vec_id_col,
                vec_col=vec_col,
            ).take_all()
        )
        lex_rows, vec_rows = lex_f.result(), vec_f.result()

    # ranks from the already-deterministic orders, re-derived explicitly
    # so a future upstream reordering can't silently shift them — on each
    # side's NATIVE id values (ints tie-break 2 < 10, as bm25_top_docs,
    # knn_bruteforce and ROW_NUMBER do), before any cast to the output
    # type. Kept as ROWS, never an id->rank dict: a corpus with duplicate
    # ids puts the same id in a pool at two ranks, and the oracle's
    # ROW_NUMBER + FULL OUTER JOIN fans those out to one fused row per
    # rank PAIR — a pandas outer merge has exactly that per-id cartesian
    # semantics
    lex_rows.sort(key=lambda r: (-r["score"], r[id_col]))
    vec_rows.sort(key=lambda r: (-r["cosine"], r[vec_id_col]))
    bmr = pd.DataFrame(
        {
            "_id": [id_py_type(r[id_col]) for r in lex_rows],
            "bm25_rank": np.arange(1, len(lex_rows) + 1, dtype=np.int64),
        }
    )
    csr = pd.DataFrame(
        {
            "_id": [id_py_type(r[vec_id_col]) for r in vec_rows],
            "cos_rank": np.arange(1, len(vec_rows) + 1, dtype=np.int64),
        }
    )
    f = bmr.merge(csr, on="_id", how="outer")
    br = f["bm25_rank"].fillna(0).astype("int64").to_numpy()
    cr = f["cos_rank"].fillna(0).astype("int64").to_numpy()
    s = np.where(br > 0, scale // (rrf_k + br), 0) + np.where(
        cr > 0, scale // (rrf_k + cr), 0
    )
    fused = sorted(
        zip(f["_id"].tolist(), br.tolist(), cr.tolist(), s.tolist()),
        key=lambda t: (-t[3], t[0]),
    )
    top = fused[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                id_col: pa.array([t[0] for t in top], out_id_t),
                "bm25_rank": pa.array([t[1] for t in top], pa.int64()),
                "cos_rank": pa.array([t[2] for t in top], pa.int64()),
                "rrf_score": pa.array([t[3] for t in top], pa.int64()),
            }
        )
    )


def rrf_sql(
    query_terms: list[str],
    k: int = 10,
    pool: int = 50,
    rrf_k: int = 60,
    scale: int = 1_000_000_000,
    query_vec_id: int = 0,
) -> str:
    """The DuckDB oracle for :func:`rrf_search`: the generated BM25 pool
    CTE (same terms/constants), the knn_bruteforce cosine pool (same
    rounded law), ROW_NUMBER ranks with the same tiebreaks, integer
    ``//`` fusion, 0-sentinel absent ranks, (rrf desc, id) cut."""
    bm = bm25_sql(query_terms, k=pool)
    return (
        f"WITH bm AS ({bm}), "
        "bmr AS (SELECT doc_id, ROW_NUMBER() OVER "
        "  (ORDER BY score DESC, doc_id) AS r FROM bm), "
        "e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v "
        "  FROM embeddings WHERE vec_id IS NOT NULL "
        "  AND embedding IS NOT NULL AND len(embedding) > 0), "
        f"q AS (SELECT v FROM e WHERE vec_id = {query_vec_id}), "
        "cs AS (SELECT e.vec_id AS doc_id, "
        "  round_even(list_cosine_similarity(e.v, q.v), 6) AS cosine "
        f"  FROM e, q ORDER BY cosine DESC, e.vec_id LIMIT {pool}), "
        "csr AS (SELECT doc_id, ROW_NUMBER() OVER "
        "  (ORDER BY cosine DESC, doc_id) AS r FROM cs), "
        "f AS (SELECT COALESCE(b.doc_id, c.doc_id) AS doc_id, "
        "  CAST(COALESCE(b.r, 0) AS BIGINT) AS bm25_rank, "
        "  CAST(COALESCE(c.r, 0) AS BIGINT) AS cos_rank, "
        f"  CAST(CASE WHEN b.r IS NULL THEN 0 ELSE {scale} // ({rrf_k} + b.r) END "
        f"   + CASE WHEN c.r IS NULL THEN 0 ELSE {scale} // ({rrf_k} + c.r) END "
        "   AS BIGINT) AS rrf_score "
        "  FROM bmr b FULL OUTER JOIN csr c ON b.doc_id = c.doc_id) "
        "SELECT doc_id, bm25_rank, cos_rank, rrf_score FROM f "
        f"ORDER BY rrf_score DESC, doc_id LIMIT {k}"
    )
