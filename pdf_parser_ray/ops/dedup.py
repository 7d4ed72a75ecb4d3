"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (ray_guide.md "Aggregation at scale"):

* exact     — content hash in a vectorized map_batches, then ONE
              groupby(hash) shuffle keeping the min doc_id per group.
* minhash   — per-batch numpy minhash -> explode to (band, band_hash,
              doc_id) rows -> groupby the band key -> candidate pairs ->
              verified Jaccard. The only shuffle moves 16-ish small rows
              per doc, not the text.
* simhash   — 64-bit simhash; banding on 4x16-bit chunks co-locates
              candidates, Hamming check verifies.
* embedding — sign-LSH bucket key over random hyperplanes (seeded), then
              exact cosine within buckets.

All hashes are process-independent (FNV / md5), never builtin ``hash``.
"""

from __future__ import annotations

import glob
import hashlib
import os
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_parser_ray.functions.hashing import md5_64, md5_bucket, md5_u64
from pdf_parser_ray.functions.tables import schema_pin

_MERSENNE = (1 << 61) - 1

# coarse shuffle-key cardinality: group work lands in ~this many map_groups
# calls regardless of distinct-key count (tiny-group overhead dominates
# otherwise); at cluster scale raise it so a bucket stays << worker memory
_DEDUP_BUCKETS = 256


def _md5_64(texts: list[str]) -> list[int]:
    return [md5_64(t or "") for t in texts]


def exact_dedup(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Keep the minimum id per distinct text. Hash-partitioned: the shuffle
    key is the 64-bit md5 of the content; within a group rows are compared
    on the actual text so hash collisions cannot merge distinct docs.

    Null semantics = SQL GROUP BY: a null text is its OWN group (the hash
    is domain-separated from the empty string, the exact_dedup_ids
    convention), two null texts dedup together, and null ids order last
    (a group holding only null ids keeps a NULL-id row — SQL MIN over
    nothing)."""
    try:
        id_type = ds.schema().base_schema.field(id_col).type
    except Exception:
        id_type = pa.int64()
    out_schema = pa.schema([(id_col, id_type), (text_col, pa.string())])

    def add_bucket(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        hashes = [
            md5_64("\x01" + t) if t is not None else md5_64("\x00")
            for t in texts
        ]
        return batch.append_column(
            "_b", pa.array([h % _DEDUP_BUCKETS for h in hashes], pa.int64())
        )

    def first_per_text(group: pa.Table) -> pa.Table:
        # one vectorized Arrow pass per COARSE bucket (not per distinct
        # text): sort by id (nulls last = SQL MIN over nothing keeps NULL)
        # then keep the first row of each text. Stays in Arrow the whole
        # way — a pandas round-trip would float int64 ids when the group
        # holds a null id, silently corrupting ids above 2^53.
        idx = pc.sort_indices(
            group,
            sort_keys=[(id_col, "ascending")],
            null_placement="at_end",
        )
        g = group.take(idx)
        # None texts compare equal in duplicated() — the one-NULL-group law
        texts = pd.Series(g[text_col].to_pylist(), dtype=object)
        keep = ~texts.duplicated(keep="first")
        return g.select([id_col, text_col]).filter(
            pa.array(keep.to_numpy(), pa.bool_())
        )

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(first_per_text, batch_format="pyarrow")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


def exact_dedup_ids(
    ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Scale path of :func:`exact_dedup`: the kept (min-id-per-distinct-
    text) id SET, shuffling only (digest, id) rows — document text never
    leaves its block.

    Equality key = the full 128-bit md5 (hex), domain-separated so a null
    text can never merge with the empty string (SQL GROUP BY keeps NULL
    its own group). Collision math: P(any collision) ≈ n²/2¹²⁹ — under
    1e-18 even at 10¹² documents, vs exact_dedup which additionally
    compares the real text inside each group (and therefore ships it
    through the shuffle). Per-batch pre-aggregation (min id per digest)
    bounds shuffle rows at distinct-texts-per-batch."""

    def partial(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        ids = batch[id_col].to_pylist()
        best: dict = {}
        for i, t in zip(ids, texts):
            d = (
                hashlib.md5(b"\x01" + t.encode()).hexdigest()
                if t is not None
                else hashlib.md5(b"\x00").hexdigest()
            )
            # SQL MIN semantics: a null id never wins over a non-null one;
            # a digest seen only with null ids keeps None (-> NULL row)
            if d not in best:
                best[d] = i
            else:
                prev = best[d]
                if i is not None and (prev is None or i < prev):
                    best[d] = i
        digests = list(best)
        return pa.table(
            {
                "h": pa.array(digests, pa.string()),
                id_col: pa.array([best[d] for d in digests], type=batch[id_col].type),
                "_b": pa.array(
                    [int(d[:4], 16) % _DEDUP_BUCKETS for d in digests], pa.int64()
                ),
            }
        )

    def min_per_digest(group: pd.DataFrame) -> pd.DataFrame:
        if not group[id_col].isna().any():
            return group.groupby("h", as_index=False)[id_col].min()[[id_col]]

        # null-id route (rare): SQL MIN skips NULLs; an all-null digest
        # emits a NULL row. Kept off the hot path — groupby.min on an
        # all-null object/float group would raise or NaN-poison the
        # downstream int cast.
        def safe_min(s: pd.Series):
            nn = s.dropna()
            return nn.min() if len(nn) else None

        agg = group.groupby("h", as_index=False)[id_col].agg(safe_min)
        return agg[[id_col]].astype(object).where(agg[[id_col]].notna(), None)

    try:
        id_type = ds.schema().base_schema.field(id_col).type
    except Exception:
        id_type = pa.int64()
    return (
        ds.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(min_per_digest, batch_format="pandas")
        .map_batches(schema_pin(pa.schema([(id_col, id_type)])), batch_format="pyarrow")
    )


# ---- MinHash + LSH --------------------------------------------------------


class MinHasher:
    """Actor-pool stage: seeded permutation parameters built once per actor.

    Shingles = word ``shingle_size``-grams; signature = ``num_perm`` min
    values under universal hashing; bands of ``band_size`` rows each become
    one (band_id, band_hash) LSH key.
    """

    # universal-hash modulus: 2^31-1 keeps a*x+b strictly inside int64
    # (a,x < 2^31 -> product < 2^62; +b < 2^62+2^31) so the modular
    # arithmetic is exact — with a 61-bit prime the np.outer products would
    # silently wrap mod 2^64 and void the min-wise-independence the LSH
    # banding math assumes
    _P = (1 << 31) - 1

    def __init__(self, num_perm: int = 64, band_size: int = 4, shingle_size: int = 5, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, self._P, size=num_perm, dtype=np.int64)
        self.b = rng.randint(0, self._P, size=num_perm, dtype=np.int64)
        self.num_perm = num_perm
        self.band_size = band_size
        self.n_bands = num_perm // band_size
        self.shingle_size = shingle_size

    def signature(self, text: str) -> Optional[np.ndarray]:
        # one shingle convention for the whole dedup family (_word_ngrams);
        # the ngram_jaccard_pairs superset test relies on the sharing
        shingles = _word_ngrams(text, self.shingle_size)
        if not shingles:
            return None
        base = np.array(
            [md5_u64(s) % self._P for s in shingles],
            dtype=np.int64,
        )
        # (num_perm, n_shingles) universal hash, min over shingles
        vals = (np.outer(self.a, base) + self.b[:, None]) % self._P
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        texts = pc.cast(batch["text"], pa.string()).to_pylist()
        out_doc, out_band, out_hash = [], [], []
        for doc_id, text in zip(doc_ids, texts):
            sig = self.signature(text)
            if sig is None:
                continue
            bands = sig.reshape(self.n_bands, self.band_size)
            for band_id in range(self.n_bands):
                # hash the decimal-joined band (not raw bytes): identical
                # LSH collision structure, and reproducible in the SQL
                # oracle (DuckDB md5 takes VARCHAR only)
                band_key = "|".join(str(int(v)) for v in bands[band_id])
                out_doc.append(doc_id)
                out_band.append(band_id)
                out_hash.append(md5_64(band_key))
        return pa.table(
            {
                "doc_id": pa.array([str(d) for d in out_doc], pa.string()),
                "band_id": pa.array(out_band, pa.int32()),
                "band_hash": pa.array(out_hash, pa.int64()),
            }
        )


def _global_pair_dedupe(
    pairs: ray.data.Dataset, out_schema: pa.Schema
) -> ray.data.Dataset:
    """Cross-bucket pair dedupe shared by every LSH pipeline: the same pair
    can surface from bands/tables landing in different coarse buckets, so
    re-bucket on a hash of (first two columns = the pair) and keep one row
    per pair. Ends with an Arrow schema pin — pandas map_groups emits
    schema-less empty blocks that break downstream union/join (Ray 2.49)."""
    col_a, col_b = out_schema.names[0], out_schema.names[1]

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        keys = [
            h % _DEDUP_BUCKETS
            for h in _md5_64(
                [
                    f"{a}|{b}"
                    for a, b in zip(
                        batch[col_a].to_pylist(), batch[col_b].to_pylist()
                    )
                ]
            )
        ]
        return batch.append_column("_pb", pa.array(keys, pa.int64()))

    def dedup_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(subset=[col_a, col_b])[list(out_schema.names)]

    return (
        pairs.map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(dedup_pairs, batch_format="pandas")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


def minhash_band_rows(
    ds: ray.data.Dataset,
    num_perm: int = 64,
    band_size: int = 4,
    shingle_size: int = 5,
    concurrency=(1, 8),
) -> ray.data.Dataset:
    """(doc_id, band_id, band_hash) LSH band rows for a corpus — the
    signature stage of the MinHash pipeline, exposed separately so the
    band store can persist it per input fragment."""
    return ds.select_columns(["doc_id", "text"]).map_batches(
        MinHasher,
        fn_constructor_kwargs={
            "num_perm": num_perm,
            "band_size": band_size,
            "shingle_size": shingle_size,
        },
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=concurrency,
    )


def minhash_candidate_pairs(
    ds: ray.data.Dataset,
    num_perm: int = 64,
    band_size: int = 4,
    shingle_size: int = 5,
    concurrency=(1, 8),
) -> ray.data.Dataset:
    """Candidate near-dup pairs from LSH band collisions (doc_a < doc_b),
    deduplicated across bands."""
    bands = minhash_band_rows(ds, num_perm, band_size, shingle_size, concurrency)
    return pairs_from_band_rows(bands)


def pairs_from_band_rows(bands: ray.data.Dataset) -> ray.data.Dataset:
    """Candidate pairs from an existing (doc_id, band_id, band_hash) table
    (fresh or read back from a persisted band store)."""

    # coarse-bucket the band keys: one map_groups call per bucket, with a
    # vectorized self-merge inside (quadratic only within true collisions)
    def add_bucket(batch: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.bit_wise_and(batch["band_hash"], pa.scalar(_DEDUP_BUCKETS - 1, pa.int64())),
            pa.int64(),
        )
        return batch.append_column("_b", b)

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["band_id", "band_hash", "doc_id"]]
        # drop singleton band keys before the self-merge
        counts = g.groupby(["band_id", "band_hash"])["doc_id"].transform("size")
        g = g[counts > 1]
        if g.empty:
            return pd.DataFrame({"doc_a": pd.Series([], dtype=str), "doc_b": pd.Series([], dtype=str)})
        m = g.merge(g, on=["band_id", "band_hash"])
        m = m[m.doc_id_x < m.doc_id_y]
        out = m.rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b"})[["doc_a", "doc_b"]]
        return out.drop_duplicates()

    candidate = (
        bands.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(pairs, batch_format="pandas")
    )

    return _global_pair_dedupe(
        candidate, pa.schema([("doc_a", pa.string()), ("doc_b", pa.string())])
    )


def _word_ngrams(t: str, n: int) -> set[str]:
    """Distinct word n-gram set — the one shingle convention shared by
    MinHasher, the Jaccard verify, and the inverted-index pipeline
    (< n tokens collapse to a single joined shingle, empty -> empty set)."""
    tokens = (t or "").lower().split()
    if len(tokens) < n:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


def shingle_hash_sets(texts: list, n: int) -> "list[set[int]]":
    """Per-text distinct 64-bit shingle-hash sets (md5_64 over
    :func:`_word_ngrams`) — the postings builder shared by
    :func:`ngram_jaccard_pairs` and the cross-corpus contamination op
    (one place to change the posting convention for both families)."""
    return [{md5_64(g) for g in _word_ngrams(t, n)} for t in texts]


def ngram_jaccard(text_a: str, text_b: str, n: int = 5) -> float:
    """Exact word n-gram Jaccard similarity (the verify step after LSH)."""
    ga, gb = _word_ngrams(text_a, n), _word_ngrams(text_b, n)
    if not ga or not gb:
        return 0.0
    return len(ga & gb) / len(ga | gb)


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    n: int = 5,
    threshold: float = 0.8,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_df: Optional[int] = None,
) -> ray.data.Dataset:
    """EXACT all-pairs n-gram Jaccard via a distributed inverted index —
    the non-probabilistic sibling of the MinHash pipeline (no banding
    recall loss; every pair with true Jaccard >= ``threshold`` is found).

    Stages (text never leaves stage 1; both shuffles move hashes + ids):

    1. map_batches: per doc the DISTINCT shingle set (`_word_ngrams`,
       same convention as MinHasher), exploded to postings rows
       (gram_hash, doc_id, set_size).
    2. groupby coarse gram-hash buckets: inside a bucket every posting of
       a gram is present, so df==1 grams drop losslessly and a vectorized
       self-merge yields per-pair intersection PARTIALS, pre-aggregated
       (one row per pair per bucket) before the next shuffle.
    3. re-bucket on the pair, sum partials -> exact |A∩B|; jaccard =
       inter / (|A| + |B| - inter); keep pairs >= threshold.

    ``max_df`` drops grams whose posting list exceeds it — the standard
    hot-shingle guard at web scale (a boilerplate gram in d docs emits
    d²/2 pair partials); None (default) = exact. With a cap the result
    may miss pairs whose overlap is ONLY boilerplate — document-level
    recall for genuinely near-duplicate pages is unaffected in practice.

    Jaccard is computed over 64-bit gram hashes (|sets| and intersections
    both), so a cross-doc hash collision is self-consistent; collision
    odds per corpus are ~n_grams²/2⁶⁵.
    """

    def postings(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        out_g, out_doc, out_sz = [], [], []
        for doc, hashes in zip(ids, shingle_hash_sets(texts, n)):
            for gh in hashes:
                out_g.append(gh)
                out_doc.append(str(doc))
                out_sz.append(len(hashes))
        return pa.table(
            {
                "gh": pa.array(out_g, pa.int64()),
                "doc": pa.array(out_doc, pa.string()),
                "sz": pa.array(out_sz, pa.int64()),
                "_b": pa.array([g % _DEDUP_BUCKETS for g in out_g], pa.int64()),
            }
        )

    _PARTIAL_COLS = ["doc_a", "doc_b", "sz_a", "sz_b", "inter"]

    def pair_partials(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["gh", "doc", "sz"]]
        counts = g.groupby("gh")["doc"].transform("size")
        keep = counts > 1
        if max_df is not None:
            keep &= counts <= max_df
        g = g[keep]
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=str),
                    "doc_b": pd.Series([], dtype=str),
                    "sz_a": pd.Series([], dtype="int64"),
                    "sz_b": pd.Series([], dtype="int64"),
                    "inter": pd.Series([], dtype="int64"),
                }
            )
        m = g.merge(g, on="gh")
        m = m[m.doc_x < m.doc_y]
        part = (
            m.groupby(["doc_x", "doc_y", "sz_x", "sz_y"], as_index=False)
            .size()
            .rename(
                columns={
                    "doc_x": "doc_a",
                    "doc_y": "doc_b",
                    "sz_x": "sz_a",
                    "sz_y": "sz_b",
                    "size": "inter",
                }
            )
        )
        return part[_PARTIAL_COLS]

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        keys = [
            h % _DEDUP_BUCKETS
            for h in _md5_64(
                [
                    f"{a}|{b}"
                    for a, b in zip(batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist())
                ]
            )
        ]
        return batch.append_column("_pb", pa.array(keys, pa.int64()))

    def finalize(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby(["doc_a", "doc_b", "sz_a", "sz_b"], as_index=False)[
            "inter"
        ].sum()
        union = agg["sz_a"] + agg["sz_b"] - agg["inter"]
        j = agg["inter"] / union
        # filter on the UNROUNDED value (SQL-oracle parity: WHERE j >= t
        # wraps round_even(j, 6) in the SELECT), round via Python float —
        # round(np.float64, 6) disagrees with round(float, 6) at ties
        keep = j >= threshold
        agg = agg.loc[keep].copy()
        agg["jaccard"] = [round(float(v), 6) for v in j[keep]]
        return agg[["doc_a", "doc_b", "jaccard"]]

    partial_schema = pa.schema(
        [
            ("doc_a", pa.string()),
            ("doc_b", pa.string()),
            ("sz_a", pa.int64()),
            ("sz_b", pa.int64()),
            ("inter", pa.int64()),
        ]
    )
    return (
        ds.select_columns([id_col, text_col])
        .map_batches(postings, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(pair_partials, batch_format="pandas")
        .map_batches(schema_pin(partial_schema), batch_format="pyarrow")
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(finalize, batch_format="pandas")
        .map_batches(schema_pin(_VERIFIED_SCHEMA), batch_format="pyarrow")
    )


_VERIFIED_SCHEMA = pa.schema(
    [("doc_a", pa.string()), ("doc_b", pa.string()), ("jaccard", pa.float64())]
)


def _verify_pairs_join(
    pairs_ds: ray.data.Dataset,
    docs_ds: ray.data.Dataset,
    threshold: float,
    n: int,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Scale path of :func:`verify_pairs_jaccard`: a bucketed hash join of
    pair rows with the docs table, no driver-side candidate dict.

    Shape: each pair emits two message rows (one per side) keyed by the
    referenced doc id; corpus rows carry their text under the same key.
    One coarse groupby on hash(doc id) attaches text to each side, a second
    on hash(pair) reunites the two sides and scores the Jaccard. Text moves
    through the shuffle once per referencing pair side — never the whole
    corpus dict to the driver.

    Assumes candidate pairs are distinct (minhash_candidate_pairs dedups)
    and corpus doc ids unique: a duplicated pair row collapses to one
    output row here (the broadcast path would emit it twice)."""

    side_schema = pa.schema(
        [
            ("doc", pa.string()),
            ("side", pa.int8()),  # 0 = pair's doc_a, 1 = doc_b, 2 = corpus text
            ("doc_a", pa.string()),
            ("doc_b", pa.string()),
            ("text", pa.string()),
            ("_b", pa.int64()),
        ]
    )

    def pair_msgs(batch: pa.Table) -> pa.Table:
        a = pc.cast(batch["doc_a"], pa.string()).to_pylist()
        b = pc.cast(batch["doc_b"], pa.string()).to_pylist()
        doc = a + b
        return pa.table(
            {
                "doc": pa.array(doc, pa.string()),
                "side": pa.array([0] * len(a) + [1] * len(b), pa.int8()),
                "doc_a": pa.array(a + a, pa.string()),
                "doc_b": pa.array(b + b, pa.string()),
                "text": pa.array([None] * len(doc), pa.string()),
                "_b": pa.array(
                    [h % _DEDUP_BUCKETS for h in _md5_64(doc)], pa.int64()
                ),
            }
        ).cast(side_schema)

    def corpus_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.string()).to_pylist()
        return pa.table(
            {
                "doc": pa.array(ids, pa.string()),
                "side": pa.array([2] * len(ids), pa.int8()),
                "doc_a": pa.array([None] * len(ids), pa.string()),
                "doc_b": pa.array([None] * len(ids), pa.string()),
                "text": pc.cast(batch[text_col], pa.string()),
                "_b": pa.array(
                    [h % _DEDUP_BUCKETS for h in _md5_64(ids)], pa.int64()
                ),
            }
        ).cast(side_schema)

    msgs = pairs_ds.map_batches(pair_msgs, batch_format="pyarrow")
    corpus = docs_ds.select_columns([id_col, text_col]).map_batches(
        corpus_rows, batch_format="pyarrow"
    )

    def attach_text(group: pd.DataFrame) -> pd.DataFrame:
        texts = group[group["side"] == 2][["doc", "text"]].drop_duplicates("doc")
        sides = group[group["side"] != 2][["doc", "side", "doc_a", "doc_b"]]
        m = sides.merge(texts, on="doc", how="left")
        m["text"] = m["text"].fillna("")
        m["_pb"] = [
            h % _DEDUP_BUCKETS
            for h in _md5_64(
                [f"{a}|{b}" for a, b in zip(m["doc_a"], m["doc_b"])]
            )
        ]
        return m[["doc_a", "doc_b", "side", "text", "_pb"]]

    def score(group: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_j = [], [], []
        for (a, b), g in group.groupby(["doc_a", "doc_b"], sort=False):
            ta = g.loc[g["side"] == 0, "text"]
            tb = g.loc[g["side"] == 1, "text"]
            j = ngram_jaccard(
                ta.iloc[0] if len(ta) else "", tb.iloc[0] if len(tb) else "", n
            )
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                out_j.append(round(j, 6))
        return pd.DataFrame({"doc_a": out_a, "doc_b": out_b, "jaccard": out_j})

    def fix_schema(batch: pa.Table) -> pa.Table:
        return batch.cast(_VERIFIED_SCHEMA)

    return (
        msgs.union(corpus)
        .groupby("_b")
        .map_groups(attach_text, batch_format="pandas")
        .groupby("_pb")
        .map_groups(score, batch_format="pandas")
        .map_batches(fix_schema, batch_format="pyarrow")
    )


def verify_pairs_jaccard(
    pairs_ds: ray.data.Dataset,
    docs_ds: ray.data.Dataset,
    threshold: float = 0.8,
    n: int = 5,
    broadcast_max_ids: int = 2_000_000,
    use_join: Optional[bool] = None,
) -> ray.data.Dataset:
    """Filter candidate pairs by true Jaccard.

    Fast path (candidate universe fits a broadcast): only documents
    REFERENCED BY A CANDIDATE PAIR are pulled for the text lookup — the
    candidate id set is collected first, then one filtered pass over the
    corpus builds a ray.put broadcast dict. Scale path (more than
    ``broadcast_max_ids`` candidate ids, or ``use_join=True``): a bucketed
    hash join of pairs with the docs table (:func:`_verify_pairs_join`) —
    no driver-side text dict at any size. ``use_join=False`` forces the
    broadcast path."""
    import ray

    # pin the candidate pairs: the id-collection pass below and the returned
    # verify stage would otherwise each re-execute the full LSH pipeline
    pairs_ds = pairs_ds.materialize()

    if use_join is None:
        # each pair references 2 ids — a cheap upper bound on the id set
        use_join = 2 * pairs_ds.count() > broadcast_max_ids
    if use_join:
        return _verify_pairs_join(pairs_ds, docs_ds, threshold, n)

    candidate_ids: set[str] = set()
    for batch in pairs_ds.select_columns(["doc_a", "doc_b"]).iter_batches(
        batch_format="pyarrow"
    ):
        candidate_ids.update(str(d) for d in batch["doc_a"].to_pylist())
        candidate_ids.update(str(d) for d in batch["doc_b"].to_pylist())

    if candidate_ids:
        wanted = pa.array(sorted(candidate_ids), pa.string())

        def keep_candidates(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch["doc_id"], pa.string())
            return batch.filter(pc.is_in(ids, value_set=wanted))

        filtered = docs_ds.select_columns(["doc_id", "text"]).map_batches(
            keep_candidates, batch_format="pyarrow"
        )
    else:
        filtered = docs_ds.select_columns(["doc_id", "text"]).limit(0)

    texts = {}
    for batch in filtered.iter_batches(batch_format="pyarrow"):
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            texts[str(d)] = t or ""
    ref = ray.put(texts)

    class Verify:
        def __init__(self, ref, threshold: float, n: int):
            self.texts = ray.get(ref)
            self.threshold = threshold
            self.n = n

        def __call__(self, batch: pa.Table) -> pa.Table:
            rows = batch.to_pylist()
            out = []
            for r in rows:
                j = ngram_jaccard(
                    self.texts.get(str(r["doc_a"]), ""),
                    self.texts.get(str(r["doc_b"]), ""),
                    self.n,
                )
                if j >= self.threshold:
                    out.append({"doc_a": r["doc_a"], "doc_b": r["doc_b"], "jaccard": round(j, 6)})
            return pa.Table.from_pylist(
                out,
                schema=pa.schema(
                    [("doc_a", pa.string()), ("doc_b", pa.string()), ("jaccard", pa.float64())]
                ),
            )

    return pairs_ds.map_batches(
        Verify,
        fn_constructor_kwargs={"ref": ref, "threshold": threshold, "n": n},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


# ---- SimHash --------------------------------------------------------------


def simhash_table(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """64-bit SimHash per doc + the 4x16-bit band keys used to co-locate
    near-duplicates (Hamming distance <= 3 guarantees one equal band).
    Rows with a null id drop (a signature with no id can never pair; the
    oracle's per-doc GROUP BY would merge all null-id docs)."""

    def sh(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["doc_id"]))
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        hashes = []
        for text in texts:
            tokens = (text or "").lower().split()
            if not tokens:
                hashes.append(0)
                continue
            acc = np.zeros(64, dtype=np.int64)
            for tok in tokens:
                digest = hashlib.md5(tok.encode()).digest()[:8]
                bits = np.unpackbits(np.frombuffer(digest, dtype=np.uint8))
                acc += np.where(bits == 1, 1, -1)
            bits_out = acc > 0
            value = 0
            for bit in bits_out:
                value = (value << 1) | int(bit)
            hashes.append(value & 0x7FFFFFFFFFFFFFFF)
        h_arr = np.array(hashes, dtype=np.int64)
        tbl = {"doc_id": batch["doc_id"], "simhash": pa.array(h_arr)}
        for band in range(4):
            tbl[f"band_{band}"] = pa.array((h_arr >> (band * 16)) & 0xFFFF, pa.int32())
        return pa.table(tbl)

    return ds.map_batches(sh, batch_format="pyarrow")


def simhash_pairs(
    ds: ray.data.Dataset, max_hamming: int = 3, text_col: str = "text"
) -> ray.data.Dataset:
    """End-to-end SimHash near-dup pairs: banded candidate generation
    (Hamming <= 3 guarantees one equal 16-bit band) + exact Hamming verify.

    Scale shape mirrors minhash_candidate_pairs: the shuffle moves only
    (band_id, band_value, doc_id, simhash) rows; the self-merge is quadratic
    only within true band collisions; pairs dedupe across bands in a second
    coarse groupby. Output (doc_a, doc_b, hamming), doc_a < doc_b."""
    table = simhash_table(ds, text_col)

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.string())
        parts = []
        for band in range(4):
            parts.append(
                pa.table(
                    {
                        "doc_id": ids,
                        "simhash": batch["simhash"],
                        "band_id": pa.array(
                            np.full(len(ids), band, dtype=np.int32)
                        ),
                        "band_val": pc.cast(batch[f"band_{band}"], pa.int64()),
                    }
                )
            )
        out = pa.concat_tables(parts)
        return out.append_column(
            "_b",
            pc.cast(
                pc.bit_wise_and(
                    pc.add(
                        pc.multiply(out["band_val"], pa.scalar(4, pa.int64())),
                        pc.cast(out["band_id"], pa.int64()),
                    ),
                    pa.scalar(_DEDUP_BUCKETS - 1, pa.int64()),
                ),
                pa.int64(),
            ),
        )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["band_id", "band_val", "doc_id", "simhash"]]
        counts = g.groupby(["band_id", "band_val"])["doc_id"].transform("size")
        g = g[counts > 1]
        if g.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=str),
                    "doc_b": pd.Series([], dtype=str),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        m = g.merge(g, on=["band_id", "band_val"])
        m = m[m.doc_id_x < m.doc_id_y]
        ham = np.bitwise_xor(
            m["simhash_x"].to_numpy(np.int64), m["simhash_y"].to_numpy(np.int64)
        )
        # vectorized popcount: 8 bytes per value unpacked to bits, summed
        # per row (a per-element Python bin().count() dominated boilerplate-
        # heavy buckets where many docs share one simhash)
        bits = np.unpackbits(
            np.ascontiguousarray(ham).view(np.uint8).reshape(len(ham), 8), axis=1
        ).sum(axis=1) if len(m) else np.array([], dtype=np.int64)
        m = m.assign(hamming=bits.astype(np.int64))
        m = m[m.hamming <= max_hamming]
        out = m.rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b"})
        return out[["doc_a", "doc_b", "hamming"]].drop_duplicates(["doc_a", "doc_b"])

    candidate = (
        table.map_batches(band_rows, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(pairs, batch_format="pandas")
    )

    return _global_pair_dedupe(
        candidate,
        pa.schema(
            [("doc_a", pa.string()), ("doc_b", pa.string()), ("hamming", pa.int64())]
        ),
    )


# ---- embedding near-dup ---------------------------------------------------


def _valid_vector_rows(batch: pa.Table, id_col: str, vec_col: str) -> pa.Table:
    """Drop rows with a null id, null vector or EMPTY vector — the
    embedding-family null law (shared with semantic_dedup and the
    cross-corpus variants): an empty list is not a point in the space, and
    it would make the per-batch matrix ragged. The matching SQL filter is
    ``WHERE vec_id IS NOT NULL AND embedding IS NOT NULL AND
    len(embedding) > 0`` (an empty list additionally CRASHES DuckDB's
    list_cosine_similarity, so oracles must pre-filter it anyway)."""
    return batch.filter(
        pc.and_(
            pc.and_(
                pc.is_valid(batch[id_col]), pc.is_valid(batch[vec_col])
            ),
            pc.greater(
                pc.coalesce(
                    pc.list_value_length(batch[vec_col]),
                    pa.scalar(0, pa.int32()),
                ),
                0,
            ),
        )
    )


def embedding_near_dup(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_tables: int = 1,
) -> ray.data.Dataset:
    """Near-duplicate vector pairs: sign-LSH bucketing (seeded random
    hyperplanes) then exact pairwise cosine inside each bucket. The plane
    matrix is rebuilt deterministically per task from the seed (tiny; a
    closure-cached copy would not survive task serialization anyway).

    ``n_tables`` > 1 runs that many INDEPENDENT hash tables (seeds seed,
    seed+1, ...) and unions their candidates — the standard recall knob: a
    pair at angle θ survives one table with p = (1-θ/π)^n_planes, and L
    tables with 1-(1-p)^L. Pairs found by several tables dedupe in one
    coarse groupby. Recall < 1 always; :func:`embedding_near_dup_exact`
    is the recall-1.0 reference (subset relation pinned in tests).

    Rows with a null id, null vector or empty vector are dropped up front
    (the embedding-family null law — see :func:`_valid_vector_rows`)."""

    # a SEPARATE filter stage, not a filter inside bucketize: Ray never
    # invokes a map UDF on a zero-row block, so bucketize always sees >= 1
    # row and its vecs.shape[1] access is safe
    ds = ds.map_batches(
        lambda b: _valid_vector_rows(b, id_col, vec_col),
        batch_format="pyarrow",
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        ids_rep, keys_out, vecs_rep = [], [], []
        for t in range(n_tables):
            planes = np.random.RandomState(seed + t).standard_normal(
                (vecs.shape[1], n_planes)
            )
            signs = (vecs @ planes) > 0
            keys = (
                signs.astype(np.int64) << np.arange(n_planes, dtype=np.int64)
            ).sum(axis=1)
            ids_rep.append(batch[id_col])
            keys_out.append(pa.array(keys + (t << n_planes)))  # disjoint key space
            vecs_rep.append(batch[vec_col])
        return pa.table(
            {
                id_col: pa.concat_arrays(
                    [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in ids_rep]
                ),
                "bucket_key": pa.concat_arrays(keys_out),
                vec_col: pa.concat_arrays(
                    [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in vecs_rep]
                ),
            }
        )

    def pairs(group: pd.DataFrame) -> pd.DataFrame:
        if len(group) < 2:
            return pd.DataFrame({"id_a": [], "id_b": [], "cosine": []})
        vecs = np.asarray(list(group[vec_col]), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        # compare on the 6-decimal-rounded similarity (like
        # embedding_near_dup_exact) so a SQL ROUND(cos,6) >= t oracle can
        # never disagree at the cut; one vectorized upper-triangle pass
        sims = np.round(unit @ unit.T, 6)
        ids = np.asarray(list(group[id_col]))
        iu, ju = np.triu_indices(len(ids), k=1)
        keep = sims[iu, ju] >= threshold
        iu, ju = iu[keep], ju[keep]
        # order each pair via np.where on the comparison (comparison ufuncs
        # support string arrays; np.minimum/np.maximum do NOT on numpy 1.26,
        # and generic id_col means ids may be strings)
        lo = ids[iu] < ids[ju]
        return pd.DataFrame(
            {
                "id_a": np.where(lo, ids[iu], ids[ju]),
                "id_b": np.where(lo, ids[ju], ids[iu]),
                "cosine": sims[iu, ju],
            }
        )

    candidates = (
        ds.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket_key")
        .map_groups(pairs, batch_format="pandas")
    )
    try:
        id_type = ds.schema().base_schema.field(id_col).type
    except Exception:
        id_type = pa.int64()
    out_schema = pa.schema(
        [("id_a", id_type), ("id_b", id_type), ("cosine", pa.float64())]
    )
    if n_tables == 1:
        # still pin the schema: pandas map_groups emits schema-less empty
        # blocks that break downstream union/join
        return candidates.map_batches(schema_pin(out_schema), batch_format="pyarrow")

    # the same pair can surface from several tables: coarse-bucket dedupe
    return _global_pair_dedupe(candidates, out_schema)


def embedding_near_dup_exact(
    ds: ray.data.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """EXACT near-duplicate vector pairs: all pairs with cosine >= threshold
    (compared on the 6-decimal-rounded similarity, so the cut matches a SQL
    ``ROUND(cos, 6) >= t`` oracle bit-for-bit).

    Brute-force baseline: the full (id, unit-vector) matrix is broadcast
    once via ray.put and every batch does one numpy matmul against it —
    O(n^2) similarity math distributed over batches, no shuffle. This is
    the recall-1.0 reference for :func:`embedding_near_dup` (the sign-LSH
    scale path, whose buckets bound the quadratic work but can miss pairs
    straddling a hyperplane).

    Rows with a null id, null vector or empty vector are dropped up front
    (the embedding-family null law — see :func:`_valid_vector_rows`)."""
    import ray as _ray

    ds = ds.select_columns([id_col, vec_col]).map_batches(
        lambda b: _valid_vector_rows(b, id_col, vec_col),
        batch_format="pyarrow",
    )
    ids: list = []
    vecs: list = []
    # embeddings are the small side (corpus of vectors, not documents);
    # collected once — the per-batch work stays distributed
    for batch in ds.iter_batches(batch_format="pyarrow"):
        ids.extend(batch[id_col].to_pylist())
        vecs.extend(batch[vec_col].to_pylist())
    # a fully-filtered corpus leaves a 1-D empty array whose axis-1 norm
    # would raise; keep the (0, d) shape explicit
    mat = (
        np.asarray(vecs, dtype=np.float64)
        if vecs
        else np.zeros((0, 1), dtype=np.float64)
    )
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    ref = _ray.put((np.asarray(ids), mat / norms))

    class AllPairs:
        def __init__(self, ref, threshold: float):
            self.all_ids, self.unit = _ray.get(ref)
            self.threshold = threshold

        def __call__(self, batch: pa.Table) -> pa.Table:
            bvecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
            bids = np.asarray(batch[id_col].to_pylist())
            bn = np.linalg.norm(bvecs, axis=1, keepdims=True)
            bn[bn == 0] = 1.0
            sims = np.round((bvecs / bn) @ self.unit.T, 6)
            # keep strictly-ordered pairs once: batch id < corpus id
            keep = (sims >= self.threshold) & (
                bids[:, None] < self.all_ids[None, :]
            )
            bi, ci = np.nonzero(keep)
            return pa.table(
                {
                    "id_a": pa.array(bids[bi]),
                    "id_b": pa.array(self.all_ids[ci]),
                    "cosine": pa.array(sims[bi, ci], pa.float64()),
                }
            )

    return ds.map_batches(
        AllPairs,
        fn_constructor_kwargs={"ref": ref, "threshold": threshold},
        batch_format="pyarrow",
        batch_size=2048,
        concurrency=(1, 8),
    )


# ---- near-dup clustering + representative keep ----------------------------


def _id_order_key(numeric: bool):
    """Representative ordering: numeric min when the source id column is
    integral (consistent with exact_dedup's MIN(doc_id)), else lexicographic
    over the stringified ids."""
    return (lambda x: int(x)) if numeric else (lambda x: x)


def _ids_are_integer(ds: ray.data.Dataset, id_col: str) -> bool:
    try:
        return pa.types.is_integer(ds.schema().base_schema.field(id_col).type)
    except Exception:
        return False


def connected_components(
    pairs: list[tuple[str, str]], numeric: bool = False
) -> dict[str, str]:
    """Union-find over candidate-duplicate pairs -> node -> cluster
    representative (the minimum id in the component; numeric minimum when
    ``numeric`` — pass it when the source id column is integral, otherwise
    '10' < '9' lexicographically and the kept doc diverges from
    exact_dedup's MIN(doc_id) semantics).

    Driver-side by design: the LSH candidate-pair set is orders of magnitude
    smaller than the corpus (only colliding bands survive). Guarded — for a
    pathological pair explosion ``minhash_dedup`` routes through
    :func:`connected_components_distributed` instead of raising the limit.
    """
    if len(pairs) > 5_000_000:
        raise ValueError(
            "candidate pair set too large for driver-side union-find; "
            "use connected_components_distributed"
        )
    key = _id_order_key(numeric)
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=key)
            parent[hi] = lo
    return {node: find(node) for node in parent}


def filter_out_ids(
    ds: ray.data.Dataset, drop_ds: ray.data.Dataset, id_col: str = "doc_id"
) -> ray.data.Dataset:
    """Distributed anti-join: drop ``ds`` rows whose ``id_col`` appears in
    ``drop_ds`` (a (doc_id) dataset) — the scale path when the drop-id set
    outgrows a broadcast. Both sides bucket on hash(id); one coarse groupby
    filters per bucket. Moves the data rows through one shuffle (at scale
    you are writing the filtered corpus back out anyway)."""
    data_schema = ds.schema().base_schema
    cols = list(data_schema.names)
    union_schema = pa.schema(
        [("_key", pa.string()), ("_is_drop", pa.bool_()), ("_b", pa.int64())]
        + [(f.name, f.type) for f in data_schema]
    )

    def data_rows(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch[id_col], pa.string()).to_pylist()
        t = pa.table(
            {
                "_key": pa.array(keys, pa.string()),
                "_is_drop": pa.array([False] * len(keys), pa.bool_()),
                "_b": pa.array([h % _DEDUP_BUCKETS for h in _md5_64(keys)], pa.int64()),
            }
        )
        for name in cols:
            t = t.append_column(name, batch[name])
        return t.cast(union_schema)

    def drop_rows(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch[id_col], pa.string()).to_pylist()
        t = pa.table(
            {
                "_key": pa.array(keys, pa.string()),
                "_is_drop": pa.array([True] * len(keys), pa.bool_()),
                "_b": pa.array([h % _DEDUP_BUCKETS for h in _md5_64(keys)], pa.int64()),
            }
        )
        for f in data_schema:
            t = t.append_column(f.name, pa.nulls(len(keys), f.type))
        return t.cast(union_schema)

    tagged = ds.map_batches(data_rows, batch_format="pyarrow").union(
        drop_ds.select_columns([id_col]).map_batches(drop_rows, batch_format="pyarrow")
    )

    def anti(group: pa.Table) -> pa.Table:
        dropped = group.filter(group["_is_drop"])
        kept = group.filter(pc.invert(group["_is_drop"]))
        if dropped.num_rows:
            mask = pc.invert(
                pc.is_in(kept["_key"], value_set=pc.unique(dropped["_key"]))
            )
            kept = kept.filter(mask)
        return kept.select(cols)

    return tagged.groupby("_b").map_groups(anti, batch_format="pyarrow")


def minhash_dedup(
    ds: ray.data.Dataset,
    jaccard_threshold: float = 0.8,
    num_perm: int = 64,
    band_size: int = 4,
    shingle_size: int = 5,
    driver_cc_max_pairs: int = 1_000_000,
    broadcast_max_drop_ids: int = 5_000_000,
) -> ray.data.Dataset:
    """End-to-end near-dedup: LSH candidates -> verified Jaccard -> connected
    components -> keep each component's minimum doc_id (numeric minimum for
    integral id columns). Returns the deduplicated documents dataset.

    Scale routing — no unguarded driver materialization at any size:

    * <= ``driver_cc_max_pairs`` verified pairs: driver union-find (pairs
      are already materialized and bounded), drop set broadcast via ray.put.
    * above it: :func:`connected_components_distributed` (co-partitioned
      min-label propagation); the resulting drop-ID table is broadcast when
      it fits ``broadcast_max_drop_ids``, else the corpus is filtered with
      the :func:`filter_out_ids` bucketed anti-join."""
    candidates = minhash_candidate_pairs(ds, num_perm, band_size, shingle_size)
    return _dedup_with_candidates(
        ds,
        candidates,
        jaccard_threshold,
        shingle_size,
        driver_cc_max_pairs,
        broadcast_max_drop_ids,
    )


def _dedup_with_candidates(
    ds: ray.data.Dataset,
    candidates: ray.data.Dataset,
    jaccard_threshold: float,
    shingle_size: int,
    driver_cc_max_pairs: int,
    broadcast_max_drop_ids: int,
) -> ray.data.Dataset:
    """Shared verify -> connected-components -> keep-representative tail of
    minhash_dedup / minhash_dedup_resumable (size-routed, see caller)."""
    import ray as _ray

    numeric = _ids_are_integer(ds, "doc_id")
    verified = (
        verify_pairs_jaccard(candidates, ds, jaccard_threshold, shingle_size)
        .select_columns(["doc_a", "doc_b"])
        .materialize()  # pair rows only — never text
    )
    n_pairs = verified.count()

    if n_pairs <= driver_cc_max_pairs:
        pair_rows = verified.take_all()
        clusters = connected_components(
            [(str(r["doc_a"]), str(r["doc_b"])) for r in pair_rows], numeric=numeric
        )
        drop_ids = [node for node, rep in clusters.items() if node != rep]
    else:
        cc = connected_components_distributed(
            verified,
            numeric_ids=numeric,
            num_buckets=_cc_num_buckets(n_pairs),  # already counted
        )

        def nonrep(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.not_equal(batch["doc_id"], batch["cluster"])
            ).select(["doc_id"])

        drop_ds = cc.map_batches(nonrep, batch_format="pyarrow").materialize()
        if drop_ds.count() > broadcast_max_drop_ids:
            return filter_out_ids(ds, drop_ds, id_col="doc_id")
        drop_ids = [
            str(v)
            for batch in drop_ds.iter_batches(batch_format="pyarrow")
            for v in batch["doc_id"].to_pylist()
        ]

    drop_ref = _ray.put(pa.array(sorted(set(drop_ids)), pa.string()))

    class KeepRepresentatives:
        def __init__(self, ref):
            self.drop = _ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch["doc_id"], pa.string())
            return batch.filter(
                pc.invert(pc.is_in(ids, value_set=self.drop))
            )

    return ds.map_batches(
        KeepRepresentatives,
        fn_constructor_kwargs={"ref": drop_ref},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


# ---- resumable (incremental) MinHash dedup ---------------------------------


def update_band_store(
    files: list[str],
    store_dir: str,
    num_perm: int = 64,
    band_size: int = 4,
    shingle_size: int = 5,
) -> dict:
    """Incrementally persist per-input-file MinHash band tables.

    A client of :mod:`pdf_parser_ray.state.fragments`, which owns the
    resume mechanics (lock, per-file signature and stale set, pruning,
    chunked staging, rename-then-manifest). Each fragment's band rows
    live under ``store_dir/bands/<key>/``; the MinHash parameters are part
    of the signature, so changing any of them re-hashes every fragment.
    A re-run — after a kill, or with fragments appended — hashes only the
    fragments the store has not seen; the rest are read back.

    One store serves ONE corpus: fragments not in ``files`` are pruned
    (ghost band rows would generate dead candidate pairs on every run and
    grow the store without bound).

    Returns {"files_total", "files_hashed_now", "files_skipped_resume"}.
    """
    from pdf_parser_ray.state.fragments import open_store

    params = {"num_perm": num_perm, "band_size": band_size, "shingle_size": shingle_size}
    with open_store(store_dir, "bands/{key}", files, params) as store:
        store.commit(
            lambda path: minhash_band_rows(
                ray.data.read_parquet(path, columns=["doc_id", "text"]),
                num_perm,
                band_size,
                shingle_size,
            )
        )
    return {
        "files_total": len(store.files),
        "files_hashed_now": len(store.stale),
        "files_skipped_resume": store.n_resumed,
    }


def read_band_store(store_dir: str) -> ray.data.Dataset:
    """All persisted band rows. write_parquet of an empty fragment creates
    no directory, so glob files rather than listing dirs."""
    paths = sorted(glob.glob(os.path.join(store_dir, "bands", "*", "*.parquet")))
    if not paths:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.string()),
                    "band_id": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                }
            )
        )
    return ray.data.read_parquet(paths)


def minhash_dedup_resumable(
    files: list[str],
    store_dir: str,
    jaccard_threshold: float = 0.8,
    num_perm: int = 64,
    band_size: int = 4,
    shingle_size: int = 5,
    driver_cc_max_pairs: int = 1_000_000,
    broadcast_max_drop_ids: int = 5_000_000,
) -> ray.data.Dataset:
    """:func:`minhash_dedup` over a file-fragmented corpus with persisted
    signatures: the expensive stage (shingling + 64 permutations per doc)
    runs once per fragment ever — a killed or re-run job re-hashes only
    fragments the band store hasn't seen (see :func:`update_band_store`).
    The LSH collision join, verify and connected components always run
    over the full band table (a new fragment can collide with any old
    one), but those stages move (band, hash, id) rows — never text.

    Output is identical to ``minhash_dedup(read_parquet(files), ...)``
    (pinned by the kill-and-resume test)."""
    update_band_store(files, store_dir, num_perm, band_size, shingle_size)
    candidates = pairs_from_band_rows(read_band_store(store_dir))
    ds = ray.data.read_parquet(files)
    return _dedup_with_candidates(
        ds,
        candidates,
        jaccard_threshold,
        shingle_size,
        driver_cc_max_pairs,
        broadcast_max_drop_ids,
    )


def _cc_num_buckets(n_pairs: int) -> int:
    """Shuffle width for the distributed-CC rounds: ~64k directed edge rows
    per bucket (2 rows per pair), floor 8, cap _DEDUP_BUCKETS."""
    return min(_DEDUP_BUCKETS, max(8, (2 * n_pairs) // 65_536 + 8))


def connected_components_distributed(
    pairs_ds: ray.data.Dataset,
    max_rounds: int = 50,
    numeric_ids: bool = False,
    num_buckets: "int | None" = None,
) -> ray.data.Dataset:
    """Distributed connected components over candidate pairs via iterative
    min-label propagation — the scale path when the pair set outgrows the
    driver-side union-find.

    Implemented as co-partitioned message passing (edges and labels bucketed
    on the same key hash, merged per bucket with vectorized pandas) rather
    than Dataset.join — two coarse groupbys per round. Iterates to a
    FIXPOINT (a cheap label-checksum aggregate per round detects
    convergence), with ``max_rounds`` only as a runaway cap; convergence
    takes O(component diameter) rounds. Returns (doc_id, cluster) with
    cluster = component-minimum id.

    ``numeric_ids=True`` (for integral, non-negative source id columns)
    makes "minimum" the NUMERIC minimum, matching exact_dedup's
    MIN(doc_id): ids are zero-padded to 20 digits internally so the
    lexicographic min-label propagation orders them numerically, and
    decoded at finalize.

    ``num_buckets`` sizes the per-round shuffles. Every round runs TWO
    all-to-all exchanges whose driver-side coordination cost is paid PER
    BLOCK (~0.1-0.3 s each on this Ray build), so bucket count must track
    the EDGE count, not a fixed constant: the first sf0.1 bench of this
    route spent 276 s on a few-hundred-pair graph at 256 buckets —
    per-round block overhead, zero data. Default: one bucket per ~64k
    directed edge rows, floor 8, cap _DEDUP_BUCKETS (callers that already
    counted the pairs pass it in; otherwise the pair set is materialized
    here FIRST so the count and the edge build don't each re-execute an
    unmaterialized upstream verify pipeline).
    """
    if num_buckets is None:
        pairs_ds = pairs_ds.materialize()
        num_buckets = _cc_num_buckets(pairs_ds.count())

    def enc(x: str) -> str:
        return f"{int(x):020d}" if numeric_ids else str(x)

    def dec(x: str) -> str:
        return str(int(x)) if numeric_ids else x

    def to_directed(batch: pa.Table) -> pa.Table:
        a = [enc(x) for x in batch["doc_a"].to_pylist()]
        b = [enc(x) for x in batch["doc_b"].to_pylist()]
        keys = a + b
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "dst": pa.array(b + a, pa.string()),
                "label": pa.array([None] * len(keys), pa.string()),
                "_b": pa.array(
                    [_md5_64([k])[0] % num_buckets for k in keys], pa.int64()
                ),
            }
        )

    directed = pairs_ds.map_batches(to_directed, batch_format="pyarrow").materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        keys = batch["key"]
        return pa.table(
            {
                "key": keys,
                "dst": pa.array([None] * len(keys), pa.string()),
                "label": keys,
                "_b": batch["_b"],
            }
        )

    def min_label_per_key(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("key", as_index=False)["label"].min()
        out["dst"] = None
        out["_b"] = [_md5_64([k])[0] % num_buckets for k in out["key"]]
        return out[["key", "dst", "label", "_b"]]

    def as_arrow(batch: pa.Table) -> pa.Table:
        # map_groups(pandas) emits pandas blocks; union with the Arrow
        # edge dataset requires uniform Arrow blocks
        return batch

    labels = (
        directed.map_batches(init_labels, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(min_label_per_key, batch_format="pandas")
        .map_batches(as_arrow, batch_format="pyarrow")
    )

    def propagate(group: pd.DataFrame) -> pd.DataFrame:
        labs = group[group["label"].notna()][["key", "label"]]
        edges = group[group["dst"].notna()][["key", "dst"]]
        sent = edges.merge(labs, on="key")[["dst", "label"]].rename(
            columns={"dst": "key"}
        )
        out = pd.concat([labs, sent], ignore_index=True)
        out = out.groupby("key", as_index=False)["label"].min()
        out["dst"] = None
        out["_b"] = [_md5_64([k])[0] % num_buckets for k in out["key"]]
        return out[["key", "dst", "label", "_b"]]

    def checksum(labels_ds: ray.data.Dataset) -> int:
        """Deterministic order-insensitive digest of the label assignment."""
        from ray.data.aggregate import Sum

        def digest(batch: pa.Table) -> pa.Table:
            vals = _md5_64(
                [f"{k}|{v}" for k, v in zip(batch["key"].to_pylist(), batch["label"].to_pylist())]
            )
            # 40-bit per-batch digest: the cross-batch Sum stays inside
            # int64 for < 2^23 batches (unmasked sums overflowed Arrow's
            # int64 and fell back to pickled-object blocks)
            return pa.table({"d": pa.array([sum(vals) & 0xFFFFFFFFFF], pa.int64())})

        agg = labels_ds.map_batches(digest, batch_format="pyarrow").aggregate(
            Sum("d", alias_name="d")
        )
        return int(agg.get("d") or 0)

    prev = checksum(labels)
    for _ in range(max_rounds):
        combined = directed.union(labels)
        # bucket = hash(key): a key's label row and all its outgoing edges
        # co-locate, so the per-bucket merge is exact; messages re-bucket by
        # their destination key and the second groupby takes the global min
        labels = (
            combined.groupby("_b")
            .map_groups(propagate, batch_format="pandas")
            .groupby("_b")
            .map_groups(min_label_per_key, batch_format="pandas")
            .map_batches(as_arrow, batch_format="pyarrow")
            .materialize()
        )
        cur = checksum(labels)
        if cur == prev:  # fixpoint: no label changed anywhere
            break
        prev = cur

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(
                    [dec(k) for k in batch["key"].to_pylist()], pa.string()
                ),
                "cluster": pa.array(
                    [dec(v) for v in batch["label"].to_pylist()], pa.string()
                ),
            }
        )

    return labels.map_batches(finalize, batch_format="pyarrow")


# ---- semantic dedup (SemDeDup) ---------------------------------------------


def semantic_dedup(
    ds: ray.data.Dataset,
    k: "int | None" = None,
    n_iters: int = 5,
    threshold: float = 0.9,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    target_cluster_size: int = 1024,
    max_cluster_rows: int = 16384,
) -> ray.data.Dataset:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, public):
    k-means-cluster the embeddings, then WITHIN each cluster drop every
    vector that has a smaller-id neighbor with cosine >= threshold.
    Returns one row per input vector: (id, cluster, keep).

    Scale shape: the quadratic cosine pass is confined to one cluster at
    a time. ``k=None`` (the default) auto-scales it from a corpus count —
    ``max(8, n // target_cluster_size)`` — so clusters stay ~constant-
    sized as the corpus grows (SemDeDup uses k in the tens of thousands
    at web scale). A skewed clustering can still concentrate rows, so any
    cluster above ``max_cluster_rows`` is hard-split into
    ``ceil(size / max_cluster_rows)`` deterministic md5-of-id sub-buckets
    before the shuffle, bounding the dense c×c matrix a single task ever
    builds; pairs straddling sub-buckets of one giant cluster are missed
    — a documented recall trade, same family as the LSH table count (a
    random split of a near-dup clique still keeps most of the clique
    together, unlike a vector-LSH split which would put ALL near-dups in
    one sub-bucket and bound nothing). Rows with a null id or a
    null/empty embedding are dropped up front (the quantize_embeddings
    convention — the SQL oracle's WHERE does the same).

    Cluster assignment reuses the *final* centroid matrix from
    :func:`~pdf_parser_ray.ops.similarity.kmeans` (deterministic init,
    fixed iterations, 9-decimal centroid rounding) broadcast via
    ray.put, so no join is needed to attach vectors to clusters — one
    extra map pass recomputes the argmin the same way kmeans' own
    assignment pass does. Cosine compares on the 6-decimal-rounded
    similarity (the embedding_near_dup convention) so a SQL
    ``ROUND(list_cosine_similarity(..), 6) >= t`` oracle can never
    disagree at the cut.
    """
    from pdf_parser_ray.ops.similarity import kmeans

    def _valid(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.and_(
                pc.is_valid(batch[id_col]),
                pc.and_(
                    pc.is_valid(batch[vec_col]),
                    pc.greater(pc.list_value_length(batch[vec_col]), 0),
                ),
            )
        )

    ds = ds.select_columns([id_col, vec_col]).map_batches(
        _valid, batch_format="pyarrow"
    )
    if k is None:
        # one cheap count pass sizes k to the corpus so the per-cluster
        # quadratic pass stays ~target_cluster_size² regardless of n
        k = max(8, ds.count() // target_cluster_size)
    _, centroids = kmeans(ds, k=k, n_iters=n_iters, id_col=id_col, vec_col=vec_col)
    c_ref = ray.put(centroids)

    class AssignWithVec:
        def __init__(self, ref):
            self.c = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        id_col: pa.array([], batch[id_col].type),
                        vec_col: pa.array([], batch[vec_col].type),
                        "cluster": pa.array([], pa.int32()),
                    }
                )
            vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
            d2 = (
                (vecs**2).sum(axis=1, keepdims=True)
                - 2.0 * vecs @ self.c.T
                + (self.c**2).sum(axis=1)[None, :]
            )
            return batch.append_column(
                "cluster", pa.array(np.argmin(d2, axis=1).astype(np.int32))
            )

    # materialized on purpose: the cluster-size census below executes the
    # assignment pass, and the groupby right after is a full barrier anyway
    # — materializing here just avoids recomputing the argmin matmul
    clustered = ds.map_batches(
        AssignWithVec,
        fn_constructor_kwargs={"ref": c_ref},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=(1, 8),
    ).materialize()

    # census: k-row size table -> sub-bucket counts for oversized clusters
    oversized: dict[int, int] = {}
    for row in (
        clustered.select_columns(["cluster"]).groupby("cluster").count().take_all()
    ):
        if row["count()"] > max_cluster_rows:
            oversized[int(row["cluster"])] = -(-int(row["count()"]) // max_cluster_rows)

    def add_gkey(batch: pa.Table) -> pa.Table:
        clusters = batch["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
        gkey = clusters << 20
        if oversized:
            ids = batch[id_col].to_pylist()
            for pos, (c, i) in enumerate(zip(clusters, ids)):
                n_subs = oversized.get(int(c))
                if n_subs:
                    gkey[pos] |= md5_bucket(f"sem:{c}:{i}", n_subs)
        return batch.append_column("_gkey", pa.array(gkey, pa.int64()))

    id_type = ds.schema().base_schema.field(id_col).type
    out_schema = pa.schema(
        [(id_col, id_type), ("cluster", pa.int32()), ("keep", pa.bool_())]
    )

    def dedupe(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_pylist())
        vecs = np.asarray(group[vec_col].to_pylist(), dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        sims = np.round(unit @ unit.T, 6)
        # drop i when some j in the same cluster has a smaller id and
        # rounded cosine over the threshold
        dup = ((sims >= threshold) & (ids[None, :] < ids[:, None])).any(axis=1)
        return pa.table(
            {
                id_col: group[id_col],
                "cluster": group["cluster"],
                "keep": pa.array(~dup),
            }
        )

    return (
        clustered.map_batches(add_gkey, batch_format="pyarrow")
        .groupby("_gkey")
        .map_groups(dedupe, batch_format="pyarrow")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


# ---- exact duplicated-span statistics (suffix-array-lite) -------------------


def _word_ngrams_positional(t: str, n: int) -> list[str]:
    """POSITIONAL word n-grams (one per start offset, repeats kept) — the
    occurrence-counting sibling of :func:`_word_ngrams` (same lowercase-
    whitespace tokens, same <n-token collapse to one joined gram)."""
    tokens = (t or "").lower().split()
    if not tokens:
        return []
    if len(tokens) < n:
        return [" ".join(tokens)]
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


_DUP_SPAN_SCHEMA = pa.schema(
    [
        ("doc", pa.string()),
        ("n_grams", pa.int64()),
        ("n_dup_grams", pa.int64()),
    ]
)


def dup_span_stats(
    ds: ray.data.Dataset,
    n: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-document duplicated-span statistics — the exact-substring dedup
    signal of Lee et al., "Deduplicating Training Data Makes Language
    Models Better" (suffix-array-lite: fixed-width word n-grams instead of
    arbitrary-length suffixes, which keeps it one inverted-index shuffle).

    A POSITIONAL n-gram occurrence is *duplicated* when the same gram
    appears in at least two DISTINCT documents (within-doc repeats alone
    don't count). Output per doc with >=1 token:
    (doc_id, n_grams, n_dup_grams, dup_fraction) — dup_fraction is the
    share of the doc's gram occurrences covered by cross-doc duplicates,
    the score one thresholds to drop boilerplate-heavy pages. Rows with a
    null id are dropped (unattributable; the SQL oracle filters the same).

    Stages (text never leaves stage 1; the shuffle moves gram hashes):

    1. map_batches: positional grams -> DISTINCT (gram_hash, doc, occ)
       postings (occ = within-doc occurrence count), bucketed on gram hash.
    2. groupby bucket: every posting of a gram co-locates, so per-gram
       distinct-doc counts are exact; per-doc partials (sum occ, sum occ
       where ndocs>=2) pre-aggregate inside the bucket — the second
       shuffle moves at most one row per (doc, bucket).
    3. groupby doc: integer sums, then the fraction (printf-rounded for
       oracle parity).

    Gram identity is the 64-bit md5 (`md5_64`) — the SQL oracle hashes
    identically, so parity is exact even under (negligible) collisions.
    """
    from ray.data.aggregate import Sum

    try:
        id_type = ds.schema().base_schema.field(id_col).type
    except Exception:
        id_type = pa.int64()
    out_schema = pa.schema(
        [
            (id_col, id_type),
            ("n_grams", pa.int64()),
            ("n_dup_grams", pa.int64()),
            ("dup_fraction", pa.float64()),
        ]
    )

    def postings(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.string()).to_pylist()
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        out_g, out_doc, out_occ = [], [], []
        for doc, text in zip(ids, texts):
            # null ids drop: their spans can't be attributed to a document,
            # and pandas-groupby/SQL COUNT(DISTINCT) disagree on how a NULL
            # doc should count — the oracle filters identically
            if doc is None:
                continue
            occ: dict[int, int] = {}
            for g in _word_ngrams_positional(text, n):
                gh = md5_64(g)
                occ[gh] = occ.get(gh, 0) + 1
            out_g.extend(occ)
            out_doc.extend([doc] * len(occ))
            out_occ.extend(occ.values())
        return pa.table(
            {
                "gh": pa.array(out_g, pa.int64()),
                "doc": pa.array(out_doc, pa.string()),
                "occ": pa.array(out_occ, pa.int64()),
                "_b": pa.array([g % _DEDUP_BUCKETS for g in out_g], pa.int64()),
            }
        )

    def bucket_partials(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["gh", "doc", "occ"]]
        if g.empty:
            return pd.DataFrame(
                {
                    "doc": pd.Series([], dtype=str),
                    "n_grams": pd.Series([], dtype="int64"),
                    "n_dup_grams": pd.Series([], dtype="int64"),
                }
            )
        # postings are distinct per (gh, doc): group size == distinct docs
        ndocs = g.groupby("gh")["doc"].transform("size")
        occ = g["occ"].astype("int64")
        dup_occ = occ.where(ndocs > 1, 0)
        agg = pd.DataFrame({"doc": g["doc"], "n_grams": occ, "n_dup_grams": dup_occ})
        return agg.groupby("doc", as_index=False).sum()

    def finalize(batch: pa.Table) -> pa.Table:
        if "doc" not in batch.column_names or batch.num_rows == 0:
            return pa.Table.from_pylist([], schema=out_schema)
        tot = batch["n_grams"].to_pylist()
        dup = batch["n_dup_grams"].to_pylist()
        return pa.table(
            {
                id_col: pc.cast(batch["doc"], id_type),
                "n_grams": pa.array([int(t) for t in tot], pa.int64()),
                "n_dup_grams": pa.array([int(d) for d in dup], pa.int64()),
                "dup_fraction": pa.array(
                    [float(f"{int(d) / int(t):.6f}") for d, t in zip(dup, tot)],
                    pa.float64(),
                ),
            }
        )

    return (
        ds.select_columns([id_col, text_col])
        .map_batches(postings, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(bucket_partials, batch_format="pandas")
        .map_batches(schema_pin(_DUP_SPAN_SCHEMA), batch_format="pyarrow")
        .groupby("doc")
        .aggregate(Sum("n_grams", alias_name="n_grams"), Sum("n_dup_grams", alias_name="n_dup_grams"))
        .map_batches(finalize, batch_format="pyarrow")
    )


# ---- corpus-wide duplicated-line removal (C4-style) --------------------------


def dedup_lines(
    ds: ray.data.Dataset,
    min_len: int = 15,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_max_removals: int = 2_000_000,
) -> ray.data.Dataset:
    """Corpus-wide duplicated-LINE removal — the C4/CCNet boilerplate
    transform: every line of ``min_len``+ characters keeps only its FIRST
    occurrence corpus-wide (ordered by (doc id, line index)); later
    occurrences are deleted from their documents and the text reassembled.
    Lines shorter than ``min_len`` (blank separators, bullets) are never
    dedup candidates and always survive.

    Stages:

    1. map: explode candidate lines to (line_hash, doc, idx) rows — the
       TEXT never enters the decision shuffle, only 64-bit md5 identities
       (self-consistent; the SQL oracle hashes identically).
    2. groupby hash bucket: every occurrence of a line co-locates; per
       hash the (doc, idx)-min wins, all OTHER occurrences emit a removal
       row (doc, idx). Removals-only output: a corpus dominated by unique
       lines produces few rows here.
    3. apply, routed by measured removal count: at or below
       ``broadcast_max_removals`` the removal set broadcasts via ray.put
       and a map pass rebuilds each doc in place (no corpus shuffle).
       Above it, removal rows and corpus rows co-partition on hash(doc)
       (:func:`_dedup_lines_join_path`) — text crosses the shuffle once.
       Identical output by construction (route-equality test).

    Output: (id, clean_text, n_lines_kept, n_lines_removed) — one row per
    input doc (null text behaves as ''). Docs losing every candidate line
    still emit their short-line residue. Rows with a null id are dropped
    entirely — their lines are unattributable, so they neither dedup
    against the corpus nor appear in the output (the SQL oracle filters
    identically).
    """
    numeric_ids = _ids_are_integer(ds, id_col)
    try:
        id_type = ds.schema().base_schema.field(id_col).type
    except Exception:
        id_type = pa.int64()
    out_schema = pa.schema(
        [
            (id_col, id_type),
            ("clean_text", pa.string()),
            ("n_lines_kept", pa.int64()),
            ("n_lines_removed", pa.int64()),
        ]
    )

    def candidates(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.string()).to_pylist()
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        out_h, out_doc, out_idx = [], [], []
        for doc, text in zip(ids, texts):
            if doc is None:
                continue
            for idx, line in enumerate((text or "").split("\n")):
                if len(line) >= min_len:
                    out_h.append(md5_64(line))
                    out_doc.append(doc)
                    out_idx.append(idx)
        return pa.table(
            {
                "lh": pa.array(out_h, pa.int64()),
                "doc": pa.array(out_doc, pa.string()),
                "idx": pa.array(out_idx, pa.int64()),
                "_b": pa.array([h % _DEDUP_BUCKETS for h in out_h], pa.int64()),
            }
        )

    removal_schema = pa.schema([("doc", pa.string()), ("idx", pa.int64())])

    def losers(group: pd.DataFrame) -> pa.Table:
        # an Arrow table, never a zero-row pandas frame: Ray fails to size
        # that frame's empty object column and logs an error per block
        g = group[["lh", "doc", "idx"]]
        # "first occurrence" must be ONE total order corpus-wide: decided
        # once from the source schema (the connected_components numeric-id
        # convention), never re-inferred per bucket — a per-group reparse
        # would let numeric and lexicographic orders coexist across hashes
        order_key = g["doc"].astype("int64") if numeric_ids else g["doc"]
        g = g.assign(_ord=order_key).sort_values(["lh", "_ord", "idx"])
        g = g[g.duplicated(subset="lh", keep="first")]
        return pa.table(
            [pa.array(g["doc"], pa.string()), pa.array(g["idx"], pa.int64())],
            schema=removal_schema,
        )

    removals = (
        ds.select_columns([id_col, text_col])
        .map_batches(candidates, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(losers, batch_format="pandas")
        .materialize()  # removal-sized; run once for count + either route
    )

    if removals.count() > broadcast_max_removals:
        return _dedup_lines_join_path(
            ds, removals, min_len, text_col, id_col, out_schema
        )

    import ray as _ray

    rem_set: set = set()
    for b in removals.iter_batches(batch_format="pyarrow"):
        rem_set.update(zip(b["doc"].to_pylist(), b["idx"].to_pylist()))
    ref = _ray.put(rem_set)

    class Rebuild:
        def __init__(self, ref):
            self.rem = _ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.filter(pc.is_valid(batch[id_col]))  # null ids drop
            skeys = pc.cast(batch[id_col], pa.string()).to_pylist()
            texts = pc.cast(batch[text_col], pa.string()).to_pylist()
            out_t, out_k, out_r = [], [], []
            for sk, text in zip(skeys, texts):
                lines = (text or "").split("\n")
                kept = [
                    ln
                    for i, ln in enumerate(lines)
                    if (sk, i) not in self.rem
                ]
                out_t.append("\n".join(kept))
                out_k.append(len(kept))
                out_r.append(len(lines) - len(kept))
            return pa.table(
                {
                    id_col: batch[id_col],
                    "clean_text": pa.array(out_t, pa.string()),
                    "n_lines_kept": pa.array(out_k, pa.int64()),
                    "n_lines_removed": pa.array(out_r, pa.int64()),
                }
            )

    return ds.select_columns([id_col, text_col]).map_batches(
        Rebuild,
        fn_constructor_kwargs={"ref": ref},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )


def _dedup_lines_join_path(
    ds: ray.data.Dataset,
    removals: ray.data.Dataset,
    min_len: int,
    text_col: str,
    id_col: str,
    out_schema: pa.Schema,
) -> ray.data.Dataset:
    """Scale path of :func:`dedup_lines`: removal rows and corpus rows
    co-partition on hash(doc) — the corpus text crosses the shuffle ONCE
    (the assemble-stage cost class), never a driver-sized removal set."""
    id_type = out_schema.field(id_col).type
    msg_schema = pa.schema(
        [
            ("doc", pa.string()),
            ("side", pa.int8()),  # 0 = corpus row, 1 = removal row
            ("text", pa.string()),
            ("idx", pa.int64()),
            ("_db", pa.int64()),
        ]
    )

    def corpus_msgs(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[id_col]))  # null ids drop
        docs = pc.cast(batch[id_col], pa.string()).to_pylist()
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        return pa.table(
            {
                "doc": pa.array(docs, pa.string()),
                "side": pa.array([0] * len(docs), pa.int8()),
                "text": pa.array(texts, pa.string()),
                "idx": pa.array([None] * len(docs), pa.int64()),
                "_db": pa.array(
                    [md5_bucket(d, _DEDUP_BUCKETS) for d in docs], pa.int64()
                ),
            }
        ).cast(msg_schema)

    def removal_msgs(batch: pa.Table) -> pa.Table:
        docs = batch["doc"].to_pylist()
        return pa.table(
            {
                "doc": pa.array(docs, pa.string()),
                "side": pa.array([1] * len(docs), pa.int8()),
                "text": pa.array([None] * len(docs), pa.string()),
                "idx": pc.cast(batch["idx"], pa.int64()),
                "_db": pa.array(
                    [md5_bucket(d, _DEDUP_BUCKETS) for d in docs], pa.int64()
                ),
            }
        ).cast(msg_schema)

    def rebuild(group: pd.DataFrame) -> pd.DataFrame:
        rem: dict[str, set[int]] = {}
        for doc, idx in group.loc[group["side"] == 1, ["doc", "idx"]].itertuples(
            index=False
        ):
            rem.setdefault(doc, set()).add(int(idx))
        rows = group[group["side"] == 0]
        out_doc, out_t, out_k, out_r = [], [], [], []
        for doc, text in rows[["doc", "text"]].itertuples(index=False):
            drop = rem.get(doc, ())
            lines = (text if isinstance(text, str) else "").split("\n")
            kept = [ln for i, ln in enumerate(lines) if i not in drop]
            out_doc.append(doc)
            out_t.append("\n".join(kept))
            out_k.append(len(kept))
            out_r.append(len(lines) - len(kept))
        return pd.DataFrame(
            {
                "doc": out_doc,
                "clean_text": out_t,
                "n_lines_kept": pd.Series(out_k, dtype="int64"),
                "n_lines_removed": pd.Series(out_r, dtype="int64"),
            }
        )

    rebuilt_schema = pa.schema(
        [
            ("doc", pa.string()),
            ("clean_text", pa.string()),
            ("n_lines_kept", pa.int64()),
            ("n_lines_removed", pa.int64()),
        ]
    )

    def finalize(batch: pa.Table) -> pa.Table:
        if "doc" not in batch.column_names or batch.num_rows == 0:
            return pa.Table.from_pylist([], schema=out_schema)
        return pa.table(
            {
                id_col: pc.cast(batch["doc"], id_type),
                "clean_text": batch["clean_text"],
                "n_lines_kept": batch["n_lines_kept"],
                "n_lines_removed": batch["n_lines_removed"],
            }
        )

    corpus = ds.select_columns([id_col, text_col]).map_batches(
        corpus_msgs, batch_format="pyarrow"
    )
    rm = removals.map_batches(removal_msgs, batch_format="pyarrow")
    return (
        corpus.union(rm)
        .groupby("_db")
        .map_groups(rebuild, batch_format="pandas")
        .map_batches(schema_pin(rebuilt_schema), batch_format="pyarrow")
        .map_batches(finalize, batch_format="pyarrow")
    )
