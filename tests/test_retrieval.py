"""BM25 ranked retrieval: hand-checked scores, edge paths, and a
differential fuzz run against the generated DuckDB oracle."""

from __future__ import annotations

import math
import random

import duckdb
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pdf_parser_ray.ops.retrieval import (
    _term_bucket_files,
    bm25_index_top_docs,
    bm25_sql,
    bm25_top_docs,
    build_text_index,
    phrase_search,
    phrase_sql,
)


def _hand_bm25(texts, terms, k1=1.2, b=0.75):
    toks = [(t or "").lower().split() for t in texts]
    n = len(toks)
    avgdl = sum(len(t) for t in toks) / n
    scores = []
    for tk in toks:
        dl = len(tk)
        s = 0.0
        for term in terms:
            f = tk.count(term)
            if f == 0:
                continue
            df = sum(1 for other in toks if term in other)
            idf = math.log((float(n - df) + 0.5) / (float(df) + 0.5) + 1.0)
            s = s + idf * (
                (f * (1.2 + 1.0))
                / (f + k1 * ((1.0 - b) + b * (dl / avgdl)))
            )
        scores.append(round(float(s), 6))
    return scores


def test_bm25_hand_checked_scores(ray_session):
    texts = [
        "the cat sat on the mat",
        "a dog and a cat",
        "nothing relevant here",
        "cat cat cat dog",
    ]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": texts})
    )
    out = bm25_top_docs(ds, ["cat", "dog"], k=10).to_pandas()
    expected = _hand_bm25(texts, ["cat", "dog"])
    exp = sorted(
        [(i + 1, s) for i, s in enumerate(expected) if s > 0],
        key=lambda r: (-r[1], r[0]),
    )
    assert list(zip(out["doc_id"], out["score"])) == exp
    # doc 3 has no query term: filtered by score > 0
    assert 3 not in set(out["doc_id"])


def test_bm25_null_text_and_null_id(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, None, 3], pa.int64()),
                "text": pa.array(["cat", "cat", None], pa.string()),
            }
        )
    )
    out = bm25_top_docs(ds, ["cat"], k=10).to_pandas()
    # null id dropped up front; null text contributes dl=0 but scores 0
    assert list(out["doc_id"]) == [1]


def test_bm25_empty_and_no_match(ray_session):
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    )
    out_ds = bm25_top_docs(empty, ["cat"], k=5)
    # Ray 2.49's to_pandas drops columns on an empty dataset; the
    # Dataset-level schema is the contract we pin
    assert out_ds.schema().names == ["doc_id", "score"]
    assert len(out_ds.to_pandas()) == 0
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()), "text": ["dog"]})
    )
    assert len(bm25_top_docs(ds, ["cat"], k=5).to_pandas()) == 0
    with pytest.raises(ValueError):
        bm25_top_docs(ds, [], k=5)


def test_bm25_k_cut_ties_break_on_id(ray_session):
    # identical docs -> identical scores; the cut must take lowest ids
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": pa.array(["cat mat"] * 10),
            }
        )
    )
    out = bm25_top_docs(ds, ["cat"], k=3).to_pandas()
    assert list(out["doc_id"]) == [0, 1, 2]


def test_bm25_differential_fuzz_vs_duckdb(ray_session, tmp_path):
    rng = random.Random(7)
    vocab = ["cat", "dog", "fish", "the", "a", "mat", "tree", "sky"]
    rows = []
    for i in range(300):
        nwords = rng.randint(0, 12)
        text = " ".join(rng.choice(vocab) for _ in range(nwords))
        rows.append((i, text if rng.random() > 0.05 else None))
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    terms = ["cat", "FISH", "mat", "mat"]  # mixed case + dupe: normalized
    out = (
        bm25_top_docs(ray.data.from_arrow(tbl), terms, k=25)
        .to_pandas()
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    oracle = con.execute(bm25_sql(terms, k=25)).df()
    pd.testing.assert_frame_equal(
        out.astype({"doc_id": "int64"}), oracle.astype({"doc_id": "int64"})
    )


def _fuzz_table(n=300, null_p=0.05, seed=7):
    rng = random.Random(seed)
    vocab = ["cat", "dog", "fish", "the", "a", "mat", "tree", "sky"]
    rows = []
    for i in range(n):
        nwords = rng.randint(0, 12)
        text = " ".join(rng.choice(vocab) for _ in range(nwords))
        rows.append((i, text if rng.random() > null_p else None))
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )


def test_bm25_index_matches_scan_path(ray_session, tmp_path):
    tbl = _fuzz_table()
    idx = str(tmp_path / "tidx")
    build_text_index(ray.data.from_arrow(tbl), idx, n_buckets=16)
    terms = ["cat", "FISH", "mat", "mat"]
    scan = bm25_top_docs(ray.data.from_arrow(tbl), terms, k=25).to_pandas()
    served = bm25_index_top_docs(idx, terms, k=25).to_pandas()
    pd.testing.assert_frame_equal(
        served.reset_index(drop=True), scan.reset_index(drop=True)
    )


def test_bm25_index_pruned_read(ray_session, tmp_path):
    import glob
    import os

    tbl = _fuzz_table()
    idx = str(tmp_path / "tidx")
    build_text_index(ray.data.from_arrow(tbl), idx, n_buckets=16)
    all_files = glob.glob(os.path.join(idx, "postings", "bucket=*", "*.parquet"))
    pruned = _term_bucket_files(idx, ["cat"])
    # the point of the index: one term touches ONE bucket's files
    assert pruned and set(pruned) < set(all_files)
    dirs = {os.path.basename(os.path.dirname(f)) for f in pruned}
    assert len(dirs) == 1


def test_bm25_index_rebuild_drops_stale_partitions(ray_session, tmp_path):
    import glob
    import os

    idx = str(tmp_path / "tidx")
    t1 = pa.table({"doc_id": pa.array([1], pa.int64()), "text": ["cat dog"]})
    build_text_index(ray.data.from_arrow(t1), idx, n_buckets=4)
    n1 = len(glob.glob(os.path.join(idx, "postings", "bucket=*", "*.parquet")))
    t2 = pa.table({"doc_id": pa.array([1], pa.int64()), "text": ["cat"]})
    build_text_index(ray.data.from_arrow(t2), idx, n_buckets=4)
    out = bm25_index_top_docs(idx, ["dog"], k=5).to_pandas()
    assert len(out) == 0  # "dog" postings from build 1 must be gone
    assert n1 >= 1


def test_bm25_index_null_and_absent_term(ray_session, tmp_path):
    idx = str(tmp_path / "tidx")
    tbl = pa.table(
        {
            "doc_id": pa.array([1, None, 3], pa.int64()),
            "text": pa.array(["cat", "cat", None], pa.string()),
        }
    )
    build_text_index(ray.data.from_arrow(tbl), idx, n_buckets=4)
    out = bm25_index_top_docs(idx, ["cat"], k=10).to_pandas()
    # null id dropped at build; null-text doc counts toward N (idf parity
    # with the scan path is pinned by test_bm25_index_matches_scan_path)
    assert list(out["doc_id"]) == [1]
    assert len(bm25_index_top_docs(idx, ["zebra"], k=10).to_pandas()) == 0
    with pytest.raises(ValueError):
        bm25_index_top_docs(idx, [], k=10)


def test_bm25_index_route_equality(ray_session, tmp_path):
    # driver route (default) vs forced distributed route: identical frames
    tbl = _fuzz_table(n=400, seed=11)
    idx = str(tmp_path / "tidx")
    build_text_index(ray.data.from_arrow(tbl), idx, n_buckets=8)
    terms = ["the", "cat", "sky"]
    drv = bm25_index_top_docs(idx, terms, k=30).to_pandas()
    dist = bm25_index_top_docs(idx, terms, k=30, driver_max_bytes=0).to_pandas()
    pd.testing.assert_frame_equal(
        drv.reset_index(drop=True), dist.reset_index(drop=True)
    )
    # and both equal the scan path
    scan = bm25_top_docs(ray.data.from_arrow(tbl), terms, k=30).to_pandas()
    pd.testing.assert_frame_equal(
        drv.reset_index(drop=True), scan.reset_index(drop=True)
    )


def _phrase_tbl():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, None, 4, 5, 6], pa.int64()),
            "text": pa.array(
                [
                    "big table value here and TABLE VALUE again",  # 2 matches
                    "a a a",                   # overlap probe for ('a','a')
                    "table value",             # null id still matches
                    None,                      # null text: no row
                    "table x value",           # non-adjacent: no row
                    "value table",             # wrong order: no row
                ],
                pa.string(),
            ),
        }
    )


def _phrase_oracle_frame(tbl, phrase):
    con = duckdb.connect()
    con.register("documents", tbl)
    return con.execute(phrase_sql(phrase)).df()


def _phrase_compare(ray_session, tbl, phrase):
    got = phrase_search(ray.data.from_arrow(tbl), phrase).to_pandas()
    want = (
        _phrase_oracle_frame(tbl, phrase)
        .sort_values("doc_id", na_position="last")
        .reset_index(drop=True)
    )
    if len(got) == 0:
        # zero-row to_pandas drops columns on this Ray build
        assert len(want) == 0
        return got
    got = got.sort_values("doc_id", na_position="last").reset_index(drop=True)
    # doc_id floats through pandas when a null id survives — compare as str
    for df in (got, want):
        for c in df.columns:
            df[c] = df[c].astype("Int64") if c != "doc_id" else df[c]
    pd.testing.assert_frame_equal(
        got.astype(str).reset_index(drop=True),
        want.astype(str).reset_index(drop=True),
    )
    return got


def test_phrase_search_matches_lambda_oracle(ray_session):
    got = _phrase_compare(ray_session, _phrase_tbl(), ["table", "value"])
    # case-folded, adjacency-only, null id kept, null text dropped
    assert len(got) == 2


def test_phrase_search_overlapping_and_single_term(ray_session):
    # overlapping occurrences each count: 'a a a' has ('a','a') at 1 and 2
    got = _phrase_compare(ray_session, _phrase_tbl(), ["a", "a"])
    assert int(got.loc[0, "n_matches"]) == 2 and int(got.loc[0, "first_pos"]) == 1
    # k=1 degenerates to token counting with the range-end law
    got1 = _phrase_compare(ray_session, _phrase_tbl(), ["value"])
    assert len(got1) == 4


def test_phrase_search_longer_than_doc_and_empty_phrase(ray_session):
    got = _phrase_compare(
        ray_session, _phrase_tbl(), ["table", "value", "here", "and", "zzz"]
    )
    assert len(got) == 0
    with pytest.raises(ValueError):
        phrase_search(ray.data.from_arrow(_phrase_tbl()), [])


def _write_frags(tmp_path, tables):
    import pyarrow.parquet as pq

    paths = []
    for i, t in enumerate(tables):
        p = str(tmp_path / f"frag{i}.parquet")
        pq.write_table(t, p)
        paths.append(p)
    return paths


def _frag_tbl(ids, texts):
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())}
    )


def test_update_text_index_serves_union_and_resumes(ray_session, tmp_path):
    from pdf_parser_ray.ops.retrieval import update_text_index

    t1 = _frag_tbl([1, 2, None], ["cat dog", "cat", "cat"])  # null id dropped
    t2 = _frag_tbl([3, 4], ["dog dog sky", None])
    paths = _write_frags(tmp_path, [t1, t2])
    idx = str(tmp_path / "incr_idx")
    s1 = update_text_index(paths, idx, n_buckets=8)
    assert s1 == {"files_total": 2, "files_indexed_now": 2,
                  "files_skipped_resume": 0}
    # resume: nothing stale
    s2 = update_text_index(paths, idx, n_buckets=8)
    assert s2["files_skipped_resume"] == 2 and s2["files_indexed_now"] == 0
    # served == scan over the fragment union (N counts the null-text doc)
    union = pa.concat_tables([t1, t2])
    for terms in (["cat"], ["dog", "sky"], ["zebra"]):
        served = bm25_index_top_docs(idx, terms, k=10).to_pandas()
        scan = bm25_top_docs(ray.data.from_arrow(union), terms, k=10).to_pandas()
        if len(scan) == 0:
            assert len(served) == 0
        else:
            pd.testing.assert_frame_equal(
                served.reset_index(drop=True), scan.reset_index(drop=True)
            )


def test_update_text_index_append_and_prune(ray_session, tmp_path):
    from pdf_parser_ray.ops.retrieval import update_text_index

    t1 = _frag_tbl([1], ["cat"])
    t2 = _frag_tbl([2], ["dog"])
    paths = _write_frags(tmp_path, [t1, t2])
    idx = str(tmp_path / "incr_idx")
    update_text_index(paths[:1], idx, n_buckets=8)
    # append: only the new fragment is indexed
    s = update_text_index(paths, idx, n_buckets=8)
    assert s["files_indexed_now"] == 1 and s["files_skipped_resume"] == 1
    assert list(bm25_index_top_docs(idx, ["dog"], k=5).to_pandas()["doc_id"]) == [2]
    # prune: dropping a fragment removes its postings AND its mass in meta
    s = update_text_index(paths[1:], idx, n_buckets=8)
    assert s["files_total"] == 1
    assert len(bm25_index_top_docs(idx, ["cat"], k=5).to_pandas()) == 0
    import json
    import os

    with open(os.path.join(idx, "meta.json")) as f:
        meta = json.load(f)
    assert meta["n_docs"] == 1 and meta["incremental"] is True


def test_update_text_index_rewrite_reindexes(ray_session, tmp_path):
    import os

    from pdf_parser_ray.ops.retrieval import update_text_index

    paths = _write_frags(tmp_path, [_frag_tbl([1], ["cat"])])
    idx = str(tmp_path / "incr_idx")
    update_text_index(paths, idx, n_buckets=8)
    # rewrite the fragment with new content (mtime_ns changes)
    import pyarrow.parquet as pq

    pq.write_table(_frag_tbl([1], ["sky"]), paths[0])
    s = update_text_index(paths, idx, n_buckets=8)
    assert s["files_indexed_now"] == 1
    assert len(bm25_index_top_docs(idx, ["cat"], k=5).to_pandas()) == 0
    assert list(bm25_index_top_docs(idx, ["sky"], k=5).to_pandas()["doc_id"]) == [1]


def test_update_text_index_guards(ray_session, tmp_path):
    from pdf_parser_ray.ops.retrieval import update_text_index

    # a full-build dir refuses incremental updates
    full = str(tmp_path / "full_idx")
    build_text_index(
        ray.data.from_arrow(_frag_tbl([1], ["cat"])), full, n_buckets=4
    )
    paths = _write_frags(tmp_path, [_frag_tbl([2], ["dog"])])
    with pytest.raises(ValueError, match="full build"):
        update_text_index(paths, full, n_buckets=4)
    # mixed id types across fragments refuse
    idx = str(tmp_path / "incr_idx")
    str_frag = pa.table(
        {"doc_id": pa.array(["a"], pa.string()), "text": pa.array(["x"], pa.string())}
    )
    import pyarrow.parquet as pq

    str_path = str(tmp_path / "frag_str.parquet")
    pq.write_table(str_frag, str_path)
    mixed = paths + [str_path]
    with pytest.raises(ValueError, match="id type"):
        update_text_index(mixed, idx, n_buckets=4)


def test_update_text_index_param_change_rebuilds(ray_session, tmp_path):
    from pdf_parser_ray.ops.retrieval import update_text_index

    paths = _write_frags(tmp_path, [_frag_tbl([1], ["cat"])])
    idx = str(tmp_path / "incr_idx")
    update_text_index(paths, idx, n_buckets=4)
    # n_buckets change relays postings into a new layout, no ghosts
    s = update_text_index(paths, idx, n_buckets=8)
    assert s["files_indexed_now"] == 1
    assert list(bm25_index_top_docs(idx, ["cat"], k=5).to_pandas()["doc_id"]) == [1]


def test_update_text_index_duplicate_paths_collapse(ray_session, tmp_path):
    """The same file listed twice must index once — not delete its own
    postings on the second pass (the rename/rmtree interleave hazard)."""
    from pdf_parser_ray.ops.retrieval import update_text_index

    paths = _write_frags(tmp_path, [_frag_tbl([1], ["cat"])])
    idx = str(tmp_path / "incr_idx")
    s = update_text_index(paths + paths, idx, n_buckets=4)
    assert s["files_total"] == 1 and s["files_indexed_now"] == 1
    assert list(bm25_index_top_docs(idx, ["cat"], k=5).to_pandas()["doc_id"]) == [1]


def test_update_text_index_resume_reads_no_footers(ray_session, tmp_path, monkeypatch):
    """Zero-work resume must read zero parquet — footers included."""
    import pyarrow.parquet as pq

    from pdf_parser_ray.ops.retrieval import update_text_index

    paths = _write_frags(tmp_path, [_frag_tbl([1], ["cat"])])
    idx = str(tmp_path / "incr_idx")
    update_text_index(paths, idx, n_buckets=4)

    def boom(*a, **kw):
        raise AssertionError("read_schema called on a zero-work resume")

    monkeypatch.setattr(pq, "read_schema", boom)
    s = update_text_index(paths, idx, n_buckets=4)
    assert s["files_skipped_resume"] == 1


def test_sql_generators_escape_quotes(ray_session):
    from pdf_parser_ray.ops.retrieval import bm25_sql, phrase_sql

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["o'brien said hi", "nothing"], pa.string()),
        }
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    hits = con.execute(phrase_sql(["o'brien", "said"])).df()
    assert list(hits["doc_id"]) == [1]
    scored = con.execute(bm25_sql(["o'brien"], k=5)).df()
    assert list(scored["doc_id"]) == [1]


def test_hybrid_search_composition_and_drop_law(ray_session):
    from pdf_parser_ray.ops.retrieval import hybrid_search

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["cat cat", "cat", "dog"], pa.string()),
        }
    )
    # doc 2 has no embedding row; doc 3 never enters the pool (no term)
    emb = pa.table(
        {
            "vec_id": pa.array([1, 3], pa.int64()),
            "embedding": pa.array(
                [[1.0, 0.0], [0.0, 1.0]], pa.list_(pa.float32())
            ),
        }
    )
    out = hybrid_search(
        ray.data.from_arrow(docs),
        ray.data.from_arrow(emb),
        ["cat"],
        [1.0, 0.0],
        k=5,
        pool=10,
    ).to_pandas()
    # only doc 1 survives: in the BM25 pool AND has a valid embedding
    assert out["doc_id"].tolist() == [1]
    assert out["cosine"].tolist() == [1.0]
    import numpy as np

    assert out["hybrid"].tolist() == [
        float(np.round(0.5 * out["score"][0] + 0.5 * 1.0, 6))
    ]


def test_hybrid_search_empty_pool(ray_session):
    from pdf_parser_ray.ops.retrieval import hybrid_search

    docs = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": pa.array(["dog"], pa.string())}
    )
    emb = pa.table(
        {
            "vec_id": pa.array([1], pa.int64()),
            "embedding": pa.array([[1.0, 0.0]], pa.list_(pa.float32())),
        }
    )
    out = hybrid_search(
        ray.data.from_arrow(docs), ray.data.from_arrow(emb), ["cat"], [1.0, 0.0]
    )
    assert out.schema().names == ["doc_id", "score", "cosine", "hybrid"]
    assert out.count() == 0


def test_rrf_search_integer_fusion_law(ray_session):
    from pdf_parser_ray.ops.retrieval import rrf_search

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "text": ["apple apple", "apple", "banana"],
            }
        )
    )
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                "embedding": pa.array(
                    [[0.0, 1.0], [1.0, 0.0], [1.0, 0.1]],
                    pa.list_(pa.float32()),
                ),
            }
        )
    )
    out = (
        rrf_search(docs, emb, ["apple"], [1.0, 0.0], k=10, pool=2)
        .to_pandas()
    )
    # BM25 pool: doc1 (rank 1, higher tf), doc2 (rank 2); doc3 scores 0
    # and is excluded. Cosine pool: vec2 (rank 1), vec3 (rank 2).
    S = 1_000_000_000
    expect = {
        2: (2, 1, S // 62 + S // 61),
        1: (1, 0, S // 61),
        3: (0, 2, S // 62),
    }
    assert len(out) == 3
    for _, r in out.iterrows():
        br, cr, s = expect[r["doc_id"]]
        assert (r["bm25_rank"], r["cos_rank"], r["rrf_score"]) == (br, cr, s)
    # cut orders by (rrf desc, id): doc2's two contributions win
    assert out["doc_id"].tolist() == [2, 1, 3]
    assert out["rrf_score"].is_monotonic_decreasing


def test_rrf_search_k_cut_and_empty_lexical_pool(ray_session):
    from pdf_parser_ray.ops.retrieval import rrf_search

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "text": ["banana"],
            }
        )
    )
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([5, 6], pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.9, 0.1]], pa.list_(pa.float32())
                ),
            }
        )
    )
    # no doc matches the terms -> fusion degrades to the cosine ranking
    out = (
        rrf_search(docs, emb, ["apple"], [1.0, 0.0], k=1, pool=2)
        .to_pandas()
    )
    assert out["doc_id"].tolist() == [5]
    assert out["bm25_rank"].tolist() == [0]
    assert out["cos_rank"].tolist() == [1]


def test_rrf_search_duplicate_ids_fan_out(ray_session):
    """A duplicated doc_id holds TWO pool ranks; the oracle's ROW_NUMBER +
    FULL OUTER JOIN emits one fused row per rank pair — the op must too."""
    from pdf_parser_ray.ops.retrieval import rrf_search

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([7, 7], pa.int64()),
                "text": ["apple apple", "apple"],
            }
        )
    )
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([7], pa.int64()),
                "embedding": pa.array([[1.0, 0.0]], pa.list_(pa.float32())),
            }
        )
    )
    out = (
        rrf_search(docs, emb, ["apple"], [1.0, 0.0], k=10, pool=5)
        .to_pandas()
        .sort_values("bm25_rank")
        .reset_index(drop=True)
    )
    S = 1_000_000_000
    # both lexical ranks join the single cosine rank-1 row
    assert out["doc_id"].tolist() == [7, 7]
    assert out["bm25_rank"].tolist() == [1, 2]
    assert out["cos_rank"].tolist() == [1, 1]
    assert out["rrf_score"].tolist() == [S // 61 + S // 61, S // 62 + S // 61]


def test_rrf_search_empty_pools_keep_string_ids(ray_session):
    """No lexical match and no embeddings: the id column keeps the
    corpus's string type instead of defaulting to int64."""
    from pdf_parser_ray.ops.retrieval import rrf_search

    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(["a", "b"]), "text": ["banana", "cherry"]})
    )
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array([], pa.string()),
                "embedding": pa.array([], pa.list_(pa.float32())),
            }
        )
    )
    out = rrf_search(docs, emb, ["apple"], [1.0, 0.0])
    assert out.count() == 0
    assert out.schema().base_schema.field("doc_id").type == pa.string()


def test_rrf_search_mixed_id_types_tie_break(ray_session):
    """int doc_ids and string vec_ids: each pool ranks on its native id
    order (int 2 before 10, string "20" before "3"); fused ties cut on
    the string output id."""
    from pdf_parser_ray.ops.retrieval import rrf_search

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([10, 2], pa.int64()),
                "text": ["apple", "apple"],  # tied BM25 scores
            }
        )
    )
    emb = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(["3", "20"]),
                "embedding": pa.array(  # tied cosines
                    [[1.0, 0.0], [1.0, 0.0]], pa.list_(pa.float32())
                ),
            }
        )
    )
    out = rrf_search(docs, emb, ["apple"], [1.0, 0.0], k=10, pool=5)
    S = 1_000_000_000
    assert out.schema().base_schema.field("doc_id").type == pa.string()
    assert [tuple(r.values()) for r in out.take_all()] == [
        ("2", 1, 0, S // 61),
        ("20", 0, 1, S // 61),
        ("10", 2, 0, S // 62),
        ("3", 0, 2, S // 62),
    ]
