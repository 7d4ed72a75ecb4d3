"""Distributed pipeline tests: the north-rule invariant.

- span-sequence equality (kind, text, media_ref, order) per doc_id between
  the Ray pipeline and the single-process oracle
- scale invariance: parallelism 1 vs 4 produce identical sorted output
- extract_hybrid's map (no shuffle) equals the standard shuffle path
- every extraction route gives identical DOC_RESULT rows, also under the
  engine's own DataContext, and a corpus without giants plans no shuffle
- checkpointed run resumes by skipping completed buckets
"""

import contextlib
import os
import shutil

import pyarrow as pa
import pytest
import ray.data

from pdf_parser_ray.doclogic import run_document
from pdf_parser_ray.pipelines import (
    extract,
    extract_hybrid,
    metadata_table,
    sections_table,
    toc_table,
)
from pdf_parser_ray.state import completed_buckets, read_extraction, run_extraction
from pdf_parser_ray.synthgen import generate_corpus

N_DOCS = 30


def spans_key(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


@pytest.fixture(scope="module")
def corpus_table(ray_session):
    return generate_corpus(N_DOCS, seed=42, max_pages=120)


@pytest.fixture(scope="module")
def oracle(corpus_table):
    return {
        r["doc_id"]: run_document(r["doc_id"], r["spans"])
        for r in corpus_table.to_pylist()
    }


def test_bucket_of_pinned():
    """Bucket ids of fixed doc_ids never change, so checkpoint directories
    written by earlier runs stay resumable."""
    from pdf_parser_ray.functions.hashing import fnv1a_32
    from pdf_parser_ray.stages.render_stage import bucket_of

    assert fnv1a_32("doc-0") == 1494172424
    assert fnv1a_32("") == 2166136261
    pinned = {"doc-0": (8, 0), "doc-00017": (36, 4), "usb_pd_spec": (52, 4),
              "bench-giant-doc": (26, 2), "42": (3, 3), "é文": (57, 1)}
    for doc_id, buckets in pinned.items():
        assert (bucket_of(doc_id, 64), bucket_of(doc_id, 8)) == buckets, doc_id


def _route_corpus():
    """generate_corpus(N_DOCS) plus a null-spans doc, an empty-spans doc and
    one malformed doc, as a CORPUS_SCHEMA table, and its span counts."""
    from pdf_parser_ray.schemas import CORPUS_SCHEMA

    rows = generate_corpus(N_DOCS).to_pylist() + [
        {"doc_id": "null-spans", "spans": None},
        {"doc_id": "empty-spans", "spans": []},
        # a null offset next to an int one cannot be sorted: render raises
        {"doc_id": "bad-offsets", "spans": [
            {"kind": "text", "text": "a", "media_ref": "", "offset": None},
            {"kind": "text", "text": "b", "media_ref": "", "offset": 1},
        ]},
    ]
    table = pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)
    n_spans = [len(r["spans"] or []) for r in rows]
    assert min(n_spans) <= 60 < max(n_spans)  # giants and small docs at 60
    return table, n_spans


def _above_max(table):
    """A giant_span_threshold above every doc's span count: extract_hybrid
    then runs its map whatever the session's CPUs."""
    return pa.compute.max(pa.compute.list_value_length(table["spans"])).as_py() + 1


def _by_doc(ds):
    return sorted(ds.take_all(), key=lambda r: r["doc_id"])


def _assert_rows_equal(routes, want):
    from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA

    for name, ds in routes.items():
        got = _by_doc(ds)
        for col in DOC_RESULT_SCHEMA.names:
            assert [r[col] for r in got] == [r[col] for r in want], (name, col)


def test_all_routes_equal(ray_session, tmp_path):
    """Every route gives the same DOC_RESULT rows — all columns, one
    n_buckets — including null, empty and malformed span payloads."""
    table, n_spans = _route_corpus()

    def make():
        return ray.data.from_arrow(table).repartition(4)

    out = str(tmp_path / "ckpt")
    run_extraction(make(), out, n_buckets=8)
    want = _by_doc(extract(make(), n_buckets=8))
    assert len(want) == table.num_rows
    failed = {r["doc_id"] for r in want if r["parse_failure"]}
    assert failed == {"bad-offsets"}
    routes = {
        # on 4 CPUs one block's giants outweigh a quarter of the spans at
        # threshold 60, so this runs extract()
        "hybrid_split": extract_hybrid(make, n_buckets=8, giant_span_threshold=60),
        # above the corpus maximum: no giants, so the fused map
        "hybrid_no_giant": extract_hybrid(
            make, n_buckets=8, giant_span_threshold=max(n_spans) + 1
        ),
        # every non-empty doc is a giant (null and empty spans count 0):
        # extract()
        "hybrid_giant_t0": extract_hybrid(
            make, n_buckets=8, giant_span_threshold=0
        ),
        # every row is a giant, null and empty spans too: extract()
        "hybrid_all_giant": extract_hybrid(
            make, n_buckets=8, giant_span_threshold=-1
        ),
        "run_extraction": read_extraction(out),
    }
    _assert_rows_equal(routes, want)


def test_hybrid_plans_only_nonempty_branches(ray_session):
    """A corpus without giants runs extract_hybrid's map alone: the
    executed plan has no Sort (the reassembly shuffle) and no Union."""
    table, n_spans = _route_corpus()
    ds = extract_hybrid(
        lambda: ray.data.from_arrow(table),
        n_buckets=8,
        giant_span_threshold=max(n_spans) + 1,
    ).materialize()
    assert ds.count() == table.num_rows
    stats = ds.stats()
    assert "Sort" not in stats and "Union" not in stats, stats


@pytest.fixture
def engine_context(ray_session):
    """The DataContext that configure_context() sets, restored afterwards
    so the rest of the suite keeps the test session's own context."""
    from ray.data import DataContext

    from pdf_parser_ray.pipelines.steps import configure_context

    ctx = DataContext.get_current()
    saved = (
        ctx.enable_progress_bars,
        ctx.op_resource_reservation_enabled,
        ctx.shuffle_strategy,
    )
    yield configure_context()
    (
        ctx.enable_progress_bars,
        ctx.op_resource_reservation_enabled,
        ctx.shuffle_strategy,
    ) = saved


def _within(seconds, fn):
    """fn() on a daemon thread; fail instead of hanging the suite."""
    import threading

    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"no result within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_routes_equal_under_engine_context(engine_context, tmp_path):
    """The engine's own context (reservation off, push shuffle) neither
    hangs nor changes rows: the hybrid at threshold 60 and the
    checkpointed groupby plan both equal extract()."""
    from pdf_parser_ray.pipelines import extract_hybrid

    assert engine_context.op_resource_reservation_enabled is False
    table, _ = _route_corpus()

    def make():
        return ray.data.from_arrow(table).repartition(4)

    def run():
        out = str(tmp_path / "ckpt")
        run_extraction(make(), out, n_buckets=8)
        want = _by_doc(extract(make(), n_buckets=8))
        _assert_rows_equal(
            {
                "hybrid_split": extract_hybrid(
                    make, n_buckets=8, giant_span_threshold=60
                ),
                "run_extraction": read_extraction(out),
            },
            want,
        )

    _within(300, run)


def test_span_sequence_equality_vs_oracle(ray_session, corpus_table, oracle):
    corpus = ray.data.from_arrow(corpus_table).repartition(6)
    rows = extract(corpus, n_buckets=8).to_pandas()
    assert len(rows) == N_DOCS
    for _, row in rows.iterrows():
        o = oracle[row["doc_id"]]
        assert spans_key(row["spans"]) == spans_key(o["spans"]), row["doc_id"]
        assert row["n_toc_entries"] == len(o["toc"])
        assert row["n_sections"] == len(o["sections"])
        assert dict(row["metadata"]) == o["metadata"]


def test_scale_invariance(ray_session, corpus_table):
    one = extract(ray.data.from_arrow(corpus_table).repartition(1), n_buckets=4)
    many = extract(ray.data.from_arrow(corpus_table).repartition(6), n_buckets=16)
    a = one.to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = many.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(a["doc_id"]) == list(b["doc_id"])
    for x, y in zip(a["spans"], b["spans"]):
        assert spans_key(x) == spans_key(y)
    for col in ["n_toc_entries", "n_sections", "n_spans", "total_pages"]:
        assert list(a[col]) == list(b[col])


def test_fused_equals_standard(ray_session, corpus_table, oracle):
    fused = extract_hybrid(
        ray.data.from_arrow(corpus_table).repartition(6),
        giant_span_threshold=_above_max(corpus_table),
    )
    rows = fused.to_pandas()
    for _, row in rows.iterrows():
        assert spans_key(row["spans"]) == spans_key(oracle[row["doc_id"]]["spans"])


def test_projections(ray_session, corpus_table, oracle):
    results = extract_hybrid(
        ray.data.from_arrow(corpus_table), giant_span_threshold=_above_max(corpus_table)
    )
    toc_rows = toc_table(results).to_pandas()
    sec_rows = sections_table(results).to_pandas()
    md_rows = metadata_table(results).to_pandas()
    assert len(md_rows) == N_DOCS
    assert len(toc_rows) == sum(len(o["toc"]) for o in oracle.values())
    assert len(sec_rows) == sum(len(o["sections"]) for o in oracle.values())
    some_doc = next(d for d, o in oracle.items() if o["toc"])
    got = toc_rows[toc_rows.doc_id == some_doc].sort_values(["page", "title"])
    want = sorted(oracle[some_doc]["toc"], key=lambda e: (e["page"], e["title"]))
    assert list(got["section_id"].fillna("~")) == [
        e["section_id"] if e["section_id"] is not None else "~" for e in want
    ]


def test_checkpoint_resume(ray_session, corpus_table, tmp_path):
    out = str(tmp_path / "ckpt")
    corpus = ray.data.from_arrow(corpus_table).repartition(4)
    s1 = run_extraction(corpus, out, n_buckets=8)
    assert s1["docs_parsed"] == N_DOCS and s1["parse_failures"] == 0

    # wipe 3 buckets and resume: only those are recomputed
    victims = sorted(completed_buckets(out))[:3]
    for b in victims:
        os.remove(os.path.join(out, "_manifest", f"bucket_{b}.json"))
        shutil.rmtree(os.path.join(out, f"bucket={b}"))
    s2 = run_extraction(corpus, out, n_buckets=8)
    assert s2["buckets_completed_now"] == 3
    assert s2["buckets_skipped_resume"] == len(completed_buckets(out)) - 3
    assert read_extraction(out).count() == N_DOCS


def test_parse_failure_isolated(ray_session):
    # one malformed doc (spans not a list of structs) must not sink the run
    good = generate_corpus(3).to_pylist()
    bad = {"doc_id": "bad-doc", "spans": None}
    ds = ray.data.from_items(good + [bad])
    rows = extract(ds, n_buckets=4).to_pandas()
    assert len(rows) == 4
    bad_row = rows[rows.doc_id == "bad-doc"].iloc[0]
    assert bad_row["total_pages"] == 0 and len(bad_row["spans"]) == 0


def test_hybrid_equals_fused(ray_session, corpus_table, oracle):
    from pdf_parser_ray.pipelines import extract_hybrid

    # threshold chosen so the synthetic corpus has docs on BOTH sides
    hybrid = extract_hybrid(
        ray.data.from_arrow(corpus_table), giant_span_threshold=60
    ).to_pandas()
    assert len(hybrid) == N_DOCS
    for _, row in hybrid.iterrows():
        assert spans_key(row["spans"]) == spans_key(oracle[row["doc_id"]]["spans"])


def test_page_range(ray_session):
    """page_range returns exactly the rendered page rows in range: no
    page=-1 marker rows for null-spans or empty-spans docs, and a genuine
    page 0 is kept from start_page=0."""
    from pdf_parser_ray.pipelines import page_rows
    from pdf_parser_ray.pipelines.extract import page_range
    from pdf_parser_ray.schemas import CORPUS_SCHEMA

    rows = generate_corpus(4, seed=3, max_pages=6).to_pylist() + [
        {"doc_id": "null-spans", "spans": None},
        {"doc_id": "empty-spans", "spans": []},
        {"doc_id": "page-zero", "spans": [
            {"kind": "page_break", "text": "0", "media_ref": "", "offset": 0},
            {"kind": "text", "text": "page zero", "media_ref": "", "offset": 1},
        ]},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA))

    def key(r):
        return (r["doc_id"], r["page"], r["page_order"])

    every = sorted(page_rows(ds, n_buckets=4).take_all(), key=key)
    pages = {(r["doc_id"], r["page"]) for r in every}
    assert {("null-spans", -1), ("empty-spans", -1), ("page-zero", 0)} <= pages
    for lo, hi in ((0, None), (2, 3)):
        want = [r for r in every if r["page"] >= lo and (hi is None or r["page"] <= hi)]
        got = sorted(page_range(ds, lo, hi, n_buckets=4).take_all(), key=key)
        assert want and got == want, (lo, hi)
        assert all(r["page"] >= 0 for r in got)


def test_doc_split_across_corpus_rows(ray_session):
    """A document fragmented into multiple corpus rows (page-aligned span
    ranges, global page numbers) reassembles identically through the
    standard groupby path — what makes docs-bigger-than-a-block safe."""
    from pdf_parser_ray.synthgen import generate_document

    doc = generate_document(1, max_pages=120)
    spans = doc["spans"]
    breaks = [i for i, s in enumerate(spans) if s["kind"] == "page_break"]
    cut = breaks[len(breaks) // 2]
    ds = ray.data.from_items(
        [
            {"doc_id": doc["doc_id"], "spans": spans[:cut]},
            {"doc_id": doc["doc_id"], "spans": spans[cut:]},
        ]
    ).repartition(2)
    got = extract(ds, n_buckets=4).to_pandas()
    want = run_document(doc["doc_id"], spans)
    assert len(got) == 1
    assert spans_key(got.iloc[0]["spans"]) == spans_key(want["spans"])
    assert got.iloc[0]["n_sections"] == len(want["sections"])
    assert got.iloc[0]["n_toc_entries"] == len(want["toc"])


def _fragmented_corpus():
    """A mixed corpus: whole-doc rows plus one doc split into two
    page-aligned fragments (the 100-TB writer pattern for giant docs)."""
    from pdf_parser_ray.synthgen import generate_document

    whole = generate_corpus(5).to_pylist()
    doc = generate_document(999, max_pages=120)
    spans = doc["spans"]
    breaks = [i for i, s in enumerate(spans) if s["kind"] == "page_break"]
    cut = breaks[len(breaks) // 2]
    rows = whole + [
        {"doc_id": doc["doc_id"], "spans": spans[:cut]},
        {"doc_id": doc["doc_id"], "spans": spans[cut:]},
    ]
    return rows


@pytest.mark.parametrize("plan", ["default", "map"])
def test_hybrid_reads_corpus_once(ray_session, plan):
    """extract_hybrid calls its corpus factory once: the census and the plan
    it picks (extract() at the default threshold on 4 CPUs, the map above
    the largest doc) branch from that one Dataset."""
    table, n_spans = _route_corpus()
    rows = table.to_pylist()
    kwargs = {} if plan == "default" else {"giant_span_threshold": max(n_spans) + 1}
    calls = []

    def make():
        calls.append(1)
        return ray.data.from_items(rows).repartition(3)

    ds = extract_hybrid(make, n_buckets=8, **kwargs)
    got = sorted(r["doc_id"] for r in ds.select_columns(["doc_id"]).take_all())
    assert got == sorted(r["doc_id"] for r in rows)
    assert len(calls) == 1


def test_hybrid_logs_its_plan(ray_session, caplog):
    """extract_hybrid emits one INFO record on the pdf_parser_ray logger
    (which has no handler of its own) naming its plan and the census behind
    it: the map above the largest doc, extract() when every row is a giant."""
    import logging

    table, n_spans = _route_corpus()
    cpus = ray.cluster_resources()["CPU"]
    caplog.set_level(logging.INFO, logger="pdf_parser_ray")
    for threshold, plan in ((max(n_spans) + 1, "fused"), (-1, "extract")):
        caplog.clear()
        extract_hybrid(
            lambda: ray.data.from_arrow(table).repartition(4),
            n_buckets=8,
            giant_span_threshold=threshold,
        )
        (rec,) = [r for r in caplog.records if r.name == "pdf_parser_ray"]
        assert rec.levelno == logging.INFO
        assert f"plan={plan}" in rec.getMessage()
        got_plan, heaviest, total, got_cpus, got_threshold = rec.args
        assert (got_plan, total, got_cpus, got_threshold) == (
            plan, sum(n_spans), cpus, threshold
        )
        assert (heaviest * cpus > total) == (plan == "extract")
        assert heaviest == 0 if plan == "fused" else 0 < heaviest <= total
    assert logging.getLogger("pdf_parser_ray").handlers == []


def test_page_zero_not_confused_with_marker(ray_session):
    """Genuine page-0 content must survive the shuffle path (the empty-doc
    marker uses page=-1, not 0)."""
    spans = [
        {"kind": "page_break", "text": "0", "media_ref": "", "offset": 0},
        {"kind": "text", "text": "hello page zero content", "media_ref": "", "offset": 1},
    ]
    ds = ray.data.from_items([{"doc_id": "z", "spans": spans}])
    got = extract(ds, n_buckets=4).to_pandas().iloc[0]
    want = run_document("z", spans)
    assert spans_key(got["spans"]) == spans_key(want["spans"])
    assert got["total_pages"] == 1 and len(got["spans"]) == 1


def test_unicode_digit_robustness(ray_session):
    """Superscript digits pass isdigit() but crash int(): the TOC degrades
    to empty (reference parity, toc_parser.py:78-80) and page_break falls
    back to sequential numbering — oracle and distributed agree."""
    spans = [
        {"kind": "page_break", "text": "²", "media_ref": "", "offset": 0},
        {"kind": "text", "text": "Power Overview Details ²", "media_ref": "", "offset": 1},
        {"kind": "text", "text": "normal body text here", "media_ref": "", "offset": 2},
    ]
    want = run_document("u", spans)  # must not raise
    ds = ray.data.from_items([{"doc_id": "u", "spans": spans}])
    got = extract(ds, n_buckets=4).to_pandas().iloc[0]
    assert spans_key(got["spans"]) == spans_key(want["spans"])
    assert not got["parse_failure"]


def test_full_record_equality_vs_oracle(ray_session, corpus_table, oracle):
    """Beyond span sequences and counts: every TOC entry field and every
    section record must match the oracle byte-for-byte across the shuffle."""
    def norm(record):
        # pandas renders Arrow list columns as numpy arrays; compare as lists
        return {
            k: (list(v) if hasattr(v, "__len__") and not isinstance(v, str) else v)
            for k, v in dict(record).items()
        }

    results = extract(ray.data.from_arrow(corpus_table).repartition(6), n_buckets=8)
    rows = results.to_pandas().set_index("doc_id")
    for doc_id, o in oracle.items():
        row = rows.loc[doc_id]
        got_toc = [norm(e) for e in row["toc"]]
        want_toc = [norm({k: v for k, v in e.items() if k != "doc_id"}) for e in o["toc"]]
        assert got_toc == want_toc, f"toc mismatch for {doc_id}"
        got_sec = [norm(s) for s in row["sections"]]
        want_sec = [norm(s) for s in o["sections"]]
        assert got_sec == want_sec, f"sections mismatch for {doc_id}"


def test_duplicate_page_numbers_deterministic(ray_session):
    """Two pages sharing a page number keep their span-offset order through
    the shuffle (page_order tiebreak) — matching the oracle's stable sort."""
    spans = [
        {"kind": "page_break", "text": "5", "media_ref": "", "offset": 0},
        {"kind": "text", "text": "first five alpha", "media_ref": "", "offset": 1},
        {"kind": "page_break", "text": "5", "media_ref": "", "offset": 2},
        {"kind": "text", "text": "second five beta", "media_ref": "", "offset": 3},
    ]
    want = run_document("dup", spans)
    for trial in range(3):
        ds = ray.data.from_items([{"doc_id": "dup", "spans": spans}]).repartition(2)
        got = extract(ds, n_buckets=4).to_pandas().iloc[0]
        assert spans_key(got["spans"]) == spans_key(want["spans"])
        assert [dict(s) for s in got["sections"]] == want["sections"]


def test_extract_hybrid_rejects_fragmented_corpus(ray_session):
    """A doc split across corpus rows must raise cleanly: the exact check
    before extract_hybrid, and extract_hybrid's map itself (never silent
    duplicate rows); extract() handles it correctly."""
    import pytest as _pytest
    import ray.data

    from pdf_parser_ray.pipelines.extract import assert_whole_doc_rows
    from pdf_parser_ray.synthgen import doc_text_to_spans

    whole = doc_text_to_spans("frag", "x" * 2400 * 3)  # 3 pages
    spans = whole["spans"]
    # page-aligned split into two fragments of the same doc
    cut = next(
        i for i, s in enumerate(spans) if s["kind"] == "page_break" and s["text"] == "3"
    )
    rows = [
        {"doc_id": "frag", "spans": spans[:cut]},
        {"doc_id": "frag", "spans": spans[cut:]},
    ]
    frag_ds = ray.data.from_items(rows)

    # the exact corpus-wide check raises on the driver before extraction
    with _pytest.raises(ValueError, match="fragmented corpus"):
        assert_whole_doc_rows(frag_ds)

    # batch-level check raises during execution (fragments land in one batch)
    with _pytest.raises(Exception, match=r"whole-document rows.*use extract\(\)"):
        extract_hybrid(lambda: frag_ds, n_buckets=4).to_pandas()

    # clean corpus passes the strict check
    ok = ray.data.from_items([{"doc_id": "a", "spans": spans}])
    assert_whole_doc_rows(ok)


# ---- the span decoder and the corpus-row shuffle ----------------------------


def _assert_decodes_like_pylist(spans):
    from pdf_parser_ray.stages.render_stage import decode_spans

    got, want = decode_spans(spans), spans.to_pylist()
    assert got == want
    assert repr(got) == repr(want)  # key order and int/None types too


def test_decode_spans_edge_cases():
    """decode_spans equals to_pylist() on null and empty lists, null
    structs, null fields, non-ASCII text, a slice with a non-zero offset
    and a multi-chunk column."""
    from pdf_parser_ray.schemas import CORPUS_SCHEMA

    def span(kind="text", text="t", media_ref="", offset=0):
        return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}

    rows = [
        [span(offset=0), span("page_break", "2", offset=1)],
        None,
        [],
        [None],
        [span(kind=None), span(text=None), span(media_ref=None), span(offset=None)],
        [span(text="é文 — ßⅤ", offset=3), None, span("image", None, "img/ä.png", 4)],
        [],
        None,
        [span(offset=7)],
    ]
    table = pa.Table.from_pylist(
        [{"doc_id": str(i), "spans": s} for i, s in enumerate(rows)], schema=CORPUS_SCHEMA
    )
    spans = table["spans"].combine_chunks()
    _assert_decodes_like_pylist(spans)
    for start in range(len(rows)):
        for length in range(len(rows) - start + 1):
            _assert_decodes_like_pylist(spans.slice(start, length))
    _assert_decodes_like_pylist(
        pa.chunked_array([spans.slice(0, 3), spans.slice(3, 0), spans.slice(3)])
    )
    _assert_decodes_like_pylist(pa.chunked_array([], spans.type))
    # a null list whose offsets still cover child values: they are skipped
    masked = pa.ListArray.from_arrays(
        pa.array([0, 1, 2, 2], pa.int32()),
        spans.values.slice(0, 2),
        mask=pa.array([False, True, False]),
    )
    assert masked.to_pylist()[1] is None
    _assert_decodes_like_pylist(masked)
    # a spans column that is not a list falls back to to_pylist()
    _assert_decodes_like_pylist(pa.array([None, None], pa.null()))
    # other struct shapes: four fields reordered with int64 offsets (what
    # ray.data.from_items may infer), and three fields one of them a float
    for fields in (
        [("offset", pa.int64()), ("text", pa.string()), ("kind", pa.string()),
         ("media_ref", pa.string())],
        [("kind", pa.string()), ("text", pa.large_string()), ("score", pa.float64())],
    ):
        other = pa.array(
            [
                None if r is None else [
                    None if sp is None else {f: sp.get(f, 0.5) for f, _ in fields}
                    for sp in r
                ]
                for r in rows
            ],
            pa.list_(pa.struct(fields)),
        )
        _assert_decodes_like_pylist(other)
        _assert_decodes_like_pylist(other.slice(3, 4))


def test_decode_spans_fuzz():
    """Seeded fuzz: random slices and chunkings of _route_corpus() batches
    decode exactly as to_pylist() does."""
    import random

    table, _ = _route_corpus()
    spans = table["spans"].combine_chunks()
    rng = random.Random(20261019)
    n = len(spans)
    for _ in range(200):
        start = rng.randrange(n + 1)
        piece = spans.slice(start, rng.randrange(n - start + 1))
        cuts = sorted(rng.randrange(len(piece) + 1) for _ in range(rng.randrange(4)))
        bounds = [0, *cuts, len(piece)]
        chunks = [piece.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
        _assert_decodes_like_pylist(piece)
        _assert_decodes_like_pylist(pa.chunked_array(chunks, spans.type))


def _fragments(doc, parts):
    """``doc``'s spans cut at page breaks into ``parts`` page-aligned
    fragment rows, in document order."""
    spans = doc["spans"]
    breaks = [i for i, s in enumerate(spans) if s["kind"] == "page_break"]
    assert len(breaks) > parts
    cuts = [breaks[len(breaks) * k // parts] for k in range(1, parts)]
    bounds = [0, *cuts, len(spans)]
    return [
        {"doc_id": doc["doc_id"], "spans": spans[a:b]}
        for a, b in zip(bounds, bounds[1:])
    ]


def test_fragments_through_checkpoint_runner(ray_session, tmp_path):
    """run_extraction merges a doc's fragments like extract() does when the
    fragments sit in different read blocks in reverse row order, when one
    fragment is empty, and when one fragment fails to render; it still
    does after a resume. The clean two-fragment doc equals run_document
    on its concatenated spans, the doc with a failed fragment equals
    run_document on its other fragment, flagged as a parse failure."""
    from pdf_parser_ray.schemas import CORPUS_SCHEMA
    from pdf_parser_ray.stages import doc_result_to_row
    from pdf_parser_ray.stages.render_stage import bucket_of
    from pdf_parser_ray.synthgen import generate_document

    rows = _fragmented_corpus()
    whole, (clean_a, clean_b) = rows[:-2], rows[-2:]
    docs = (generate_document(i, max_pages=40) for i in range(1000, 1100))
    multi = [d for d in docs if sum(s["kind"] == "page_break" for s in d["spans"]) >= 4]
    empty_a, empty_b = _fragments(multi[0], 2)
    empty_c = {"doc_id": multi[0]["doc_id"], "spans": []}
    bad_a, _ = _fragments(multi[1], 2)
    # a null offset next to an int one cannot be sorted: render raises
    bad_b = {"doc_id": multi[1]["doc_id"], "spans": [
        {"kind": "text", "text": "a", "media_ref": "", "offset": None},
        {"kind": "text", "text": "b", "media_ref": "", "offset": 1},
    ]}
    blocks = [
        [clean_b, empty_c, *whole[:2]],
        [*whole[2:], bad_b, empty_a],
        [clean_a, empty_b, bad_a],
    ]

    def make():
        return ray.data.from_arrow(
            [pa.Table.from_pylist(b, schema=CORPUS_SCHEMA) for b in blocks]
        )

    out = str(tmp_path / "ckpt")
    s1 = run_extraction(make(), out, n_buckets=4)
    want = _by_doc(extract(make(), n_buckets=4))
    assert len(want) == len(whole) + 3 == s1["docs_parsed"]
    _assert_rows_equal({"run_extraction": read_extraction(out)}, want)
    assert {r["doc_id"] for r in want if r["parse_failure"]} == {bad_b["doc_id"]}

    # the failed fragment flags its doc; the doc's other fragment still
    # assembles, as it did when each fragment rendered in a render task
    for fragments, failed in (
        ((clean_a, clean_b), False),
        ((empty_a, empty_b, empty_c), False),
        ((bad_a,), True),
    ):
        doc_id = fragments[0]["doc_id"]
        spans = [s for f in fragments for s in f["spans"]]
        oracle_row = doc_result_to_row(
            run_document(doc_id, spans), bucket_of(doc_id, 4), failed
        )
        got = next(r for r in want if r["doc_id"] == doc_id)
        for col, value in oracle_row.items():
            assert got[col] == value, (doc_id, col)

    for b in sorted(completed_buckets(out))[:2]:
        os.remove(os.path.join(out, "_manifest", f"bucket_{b}.json"))
    s2 = run_extraction(make(), out, n_buckets=4)
    assert s2["buckets_completed_now"] == 2
    _assert_rows_equal({"resumed": read_extraction(out)}, want)


def test_fragment_pages_ordered_by_page_then_page_order(ray_session):
    """A page number repeated across fragments (outside the precondition)
    still assembles deterministically: the doc's page rows are ordered by
    (page, page_order) whichever fragment row the bucket sees first."""

    def pb(n, offset):
        return {"kind": "page_break", "text": str(n), "media_ref": "", "offset": offset}

    def text(t, offset):
        return {"kind": "text", "text": t, "media_ref": "", "offset": offset}

    a = {"doc_id": "dup", "spans": [pb(4, 0), text("four", 1), pb(5, 2), text("five a", 3)]}
    b = {"doc_id": "dup", "spans": [pb(5, 10), text("five b", 11)]}
    got = [
        extract(ray.data.from_items(order).repartition(2), n_buckets=4).take_all()
        for order in ([a, b], [b, a])
    ]
    assert got[0] == got[1]
    texts = [s["text"] for s in got[0][0]["spans"]]
    assert texts.index("five b") < texts.index("five a"), texts


def test_extract_shuffles_corpus_rows(ray_session):
    """extract()'s bucket shuffle moves corpus rows, not rendered page
    rows: the executed plan has no render_pages operator and its Sort
    outputs exactly the corpus's rows (a fragmented doc counts twice)."""
    import re

    rows = _fragmented_corpus()
    ds = extract(ray.data.from_items(rows).repartition(3), n_buckets=8).materialize()
    assert ds.count() == len(rows) - 1
    stats = ds.stats()
    assert "render_pages" not in stats, stats
    sort = re.search(r"^Operator \d+ Sort:.*?(?=^Operator |\Z)", stats, re.S | re.M)[0]
    totals = re.findall(r"Output num rows per block: .*?(\d+) total", sort)
    assert totals and {int(t) for t in totals} == {len(rows)}, sort


def test_cli_import_skips_ray_data():
    """The bucket hash and the CLI's argument parsing import no ray.data
    (about a second of import on each process that only needs them)."""
    import subprocess
    import sys

    code = (
        "import sys, pdf_parser_ray.stages.render_stage, pdf_parser_ray.__main__; "
        "assert 'ray.data' not in sys.modules"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# ---- one plan per corpus, the fused slices, the resume guard ----------------


def _giant_blocks(clustered):
    """Five read blocks of one corpus: 19 small docs, the null-, empty- and
    bad-spans docs of _route_corpus, and five giants (403-458 spans, above
    a threshold of 200), one giant per block or all five in the first."""
    from pdf_parser_ray.schemas import CORPUS_SCHEMA

    rows = generate_corpus(24, seed=5, max_pages=40).to_pylist()
    giants = [r for r in rows if len(r["spans"]) > 200]
    small = [r for r in rows if len(r["spans"]) <= 200]
    small += _route_corpus()[0].to_pylist()[N_DOCS:]
    assert len(giants) == 5
    if clustered:
        blocks = [giants] + [small[i::4] for i in range(4)]
    else:
        blocks = [[g] + small[i::5] for i, g in enumerate(giants)]
    return [pa.Table.from_pylist(b, schema=CORPUS_SCHEMA) for b in blocks]


@pytest.mark.parametrize("clustered", [False, True], ids=["spread", "clustered"])
def test_hybrid_plan_follows_giant_placement(ray_session, clustered):
    """Giants spread over the read blocks run the fused map alone; the same
    docs with every giant in one block (whose giant spans times the CPUs
    exceed the corpus's spans) run extract() alone. Neither plan is a
    union, and both give extract()'s rows."""
    from pdf_parser_ray.pipelines import extract_hybrid

    blocks = _giant_blocks(clustered)

    def make():
        return ray.data.from_arrow(blocks)

    counts = [[len(s or []) for s in b["spans"].to_pylist()] for b in blocks]
    heaviest = max(sum(n for n in c if n > 200) for c in counts)
    total = sum(map(sum, counts))
    assert (heaviest * ray.cluster_resources()["CPU"] > total) == clustered

    ds = extract_hybrid(make, n_buckets=8, giant_span_threshold=200).materialize()
    stats = ds.stats()
    assert ("Sort" in stats) == clustered, stats
    assert ("MapBatches(fused)" in stats) != clustered, stats
    assert "Union" not in stats, stats
    _assert_rows_equal({"hybrid": ds}, _by_doc(extract(make(), n_buckets=8)))


def test_fused_span_slices():
    """The kernel's slice law: a doc above the cap stands alone, rows
    summing exactly to the cap share a slice, and null or empty spans count
    0 spans."""
    from pdf_parser_ray.stages.render_stage import _span_counts, _span_slices
    from pdf_parser_ray.schemas import CORPUS_SCHEMA

    assert _span_slices([], 10) == []
    assert _span_slices([4, 6, 1], 10) == [(0, 2), (2, 3)]
    assert _span_slices([3, 11, 2], 10) == [(0, 1), (1, 2), (2, 3)]
    assert _span_slices([11], 10) == [(0, 1)]
    assert _span_slices([10, 0, 0, 1], 10) == [(0, 3), (3, 4)]
    span = {"kind": "text", "text": "a", "media_ref": "", "offset": 0}
    table = pa.Table.from_pylist(
        [{"doc_id": "n", "spans": None}, {"doc_id": "e", "spans": []},
         {"doc_id": "s", "spans": [span] * 3}],
        schema=CORPUS_SCHEMA,
    )
    counts = _span_counts(table).to_pylist()
    assert counts == [0, 0, 3]
    assert _span_slices(counts, 2) == [(0, 2), (2, 3)]
    assert _span_slices(counts, 3) == [(0, 3)]


def test_fused_slices_equal_extract(ray_session, monkeypatch):
    """With a cap far below the docs' sizes the kernel runs a batch in many
    slices (most docs alone in theirs), and assemble_docs' rows still equal
    extract()'s — also for a fragmented doc whose fragments a per-row cut
    would put in different slices, and across the table's chunks."""
    from pdf_parser_ray.schemas import CORPUS_SCHEMA, DOC_RESULT_SCHEMA
    from pdf_parser_ray.stages import render_stage
    from pdf_parser_ray.stages.assemble_stage import assemble_docs

    monkeypatch.setattr(render_stage, "SLICE_SPANS", 60)
    rows = _route_corpus()[0].to_pylist()
    big = max(rows, key=lambda r: len(r["spans"] or []))  # split at a middle page
    breaks = [i for i, s in enumerate(big["spans"]) if s["kind"] == "page_break"]
    cut = breaks[len(breaks) // 2]
    rows += [{"doc_id": big["doc_id"], "spans": big["spans"][cut:]}]
    big["spans"] = big["spans"][:cut]
    table = pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA).sort_by("doc_id")
    table = pa.concat_tables([table.slice(0, 9), table.slice(9)])  # two chunks
    ids = table["doc_id"].to_pylist()
    cuts = [a for a, _ in render_stage._span_slices(
        render_stage._span_counts(table).to_pylist(), 60)]
    assert any(ids[i - 1] == ids[i] for i in cuts[1:])  # fragments straddle a cut

    got = sorted(assemble_docs(table, 8).to_pylist(), key=lambda r: r["doc_id"])
    want = _by_doc(extract(ray.data.from_arrow(table).repartition(2), n_buckets=8))
    assert len(got) == len(set(ids))
    for col in DOC_RESULT_SCHEMA.names:
        assert [r[col] for r in got] == [r[col] for r in want], col


def test_kernel_decodes_once_per_slice(monkeypatch):
    """Spans cross into Python once per slice: a bucket of small docs in
    one read_span_columns call, and render_pages over a batch above the cap
    in calls of at most the cap or of a single doc."""
    from pdf_parser_ray.pipelines.extract import _tag_buckets
    from pdf_parser_ray.schemas import CORPUS_SCHEMA
    from pdf_parser_ray.stages import render_stage
    from pdf_parser_ray.stages.assemble_stage import assemble_bucket

    calls = []  # (rows, spans) per call
    read = render_stage.read_span_columns

    def spy(spans):
        out = read(spans)
        calls.append((len(out.rows), len(out.kind)))
        return out

    monkeypatch.setattr(render_stage, "read_span_columns", spy)
    fragments = pa.Table.from_pylist(_fragmented_corpus()[-2:], schema=CORPUS_SCHEMA)
    table = pa.concat_tables([_route_corpus()[0], fragments])
    tagged = _tag_buckets(table, 8, frozenset())
    bucket = max(range(8), key=lambda b: tagged["bucket"].to_pylist().count(b))
    group = tagged.filter(pa.compute.equal(tagged["bucket"], bucket))
    assert group.num_rows > 1
    assemble_bucket(group, 8)
    n_spans = pa.compute.sum(pa.compute.list_value_length(group["spans"])).as_py()
    assert calls == [(group.num_rows, n_spans)]

    calls.clear()
    monkeypatch.setattr(render_stage, "SLICE_SPANS", 60)
    whole = _route_corpus()[0]
    pages = list(render_stage.render_pages(whole, 8))
    assert len(pages) == len(calls) > 1
    assert sum(rows for rows, _ in calls) == whole.num_rows
    assert all(spans <= 60 or rows == 1 for rows, spans in calls), calls
    assert any(rows > 1 for rows, _ in calls)  # small docs share a call


def test_kernel_profile_script(tmp_path):
    """scripts/kernel_profile.py runs the kernel's steps on a small corpus,
    checks them against assemble_docs and reports every step and GC
    generation in its JSON last line."""
    import json
    import subprocess
    import sys

    import pyarrow.parquet as pq

    pq.write_table(generate_corpus(4, seed=5), str(tmp_path / "part-0.parquet"))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "kernel_profile.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["docs"] == 4 and record["pages"] >= 4
    assert set(record["ms_per_doc"]) == {"read", "render", "assemble", "build", "total"}
    assert all(ms >= 0 for ms in record["ms_per_doc"].values())
    assert len(record["gc_collections"]) == len(record["gc_s"]) == 3


def _write_corpus_files(directory, n_files):
    """generate_corpus(12) written as ``n_files`` parquet files."""
    import pyarrow.parquet as pq

    table = generate_corpus(12, seed=3, max_pages=8)
    os.makedirs(directory, exist_ok=True)
    step = table.num_rows // n_files
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), os.path.join(directory, f"part-{i}.parquet"))


def test_resume_refuses_appended_input_file(ray_session, tmp_path):
    """A resume after a file joined the corpus would drop that file's docs
    (every bucket is already done), so it is refused."""
    from pdf_parser_ray.sources import read_corpus

    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "ckpt")
    _write_corpus_files(corpus, 3)
    late, aside = os.path.join(corpus, "part-2.parquet"), str(tmp_path / "late")
    os.replace(late, aside)
    run_extraction(read_corpus(corpus), out, n_buckets=4)
    assert run_extraction(read_corpus(corpus), out, n_buckets=4)["docs_parsed"] == 0
    os.replace(aside, late)
    with pytest.raises(ValueError, match="input files added, removed or modified"):
        run_extraction(read_corpus(corpus), out, n_buckets=4)
    fresh = run_extraction(read_corpus(corpus), out, n_buckets=4, resume=False)
    assert fresh["docs_parsed"] == 12


def test_resume_refuses_flipped_parameter(ray_session, tmp_path):
    """A resume with strip_boilerplate flipped would keep the rows of the
    first setting, so it is refused; so is a run.json written without the
    recorded inputs and parameters."""
    import json

    from pdf_parser_ray.sources import read_corpus

    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "ckpt")
    _write_corpus_files(corpus, 2)
    run_extraction(read_corpus(corpus), out, n_buckets=4)
    with pytest.raises(ValueError, match="strip_boilerplate=False, originally True"):
        run_extraction(read_corpus(corpus), out, n_buckets=4, strip_boilerplate=False)

    with open(os.path.join(out, "_manifest", "run.json"), "w") as f:
        json.dump({"n_buckets": 4}, f)
    with pytest.raises(ValueError, match="older version"):
        run_extraction(read_corpus(corpus), out, n_buckets=4)


def test_run_extraction_waits_for_lock(ray_session, tmp_path, monkeypatch):
    """While another holder has the output dir's lock, run_extraction
    blocks on it before its resume guard, and runs once it is released."""
    import fcntl
    import threading

    from pdf_parser_ray.sources import read_corpus
    from pdf_parser_ray.state import checkpoint

    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "ckpt")
    _write_corpus_files(corpus, 2)
    os.makedirs(out)
    corpus_ds = read_corpus(corpus)
    asked, held = threading.Event(), threading.Event()
    real_lock = checkpoint.dir_lock

    @contextlib.contextmanager
    def spy_lock(directory):
        asked.set()
        with real_lock(directory):
            held.set()
            yield

    monkeypatch.setattr(checkpoint, "dir_lock", spy_lock)
    summary = {}

    def run():
        summary.update(run_extraction(corpus_ds, out, n_buckets=4))

    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        second = threading.Thread(target=run, daemon=True)
        second.start()
        assert asked.wait(timeout=60), "run_extraction never asked for the lock"
        held.wait(timeout=1)
        blocked = not held.is_set() and not os.path.exists(
            os.path.join(out, "_manifest", "run.json")
        )
        fcntl.flock(lock, fcntl.LOCK_UN)
    second.join(timeout=120)
    assert blocked and held.is_set() and not second.is_alive()
    assert summary["docs_parsed"] == 12


def test_read_extraction_of_empty_corpus(ray_session, tmp_path):
    """A run over an empty corpus completes no bucket and reads back as an
    empty DOC_RESULT Dataset."""
    from pdf_parser_ray.schemas import CORPUS_SCHEMA, DOC_RESULT_SCHEMA

    out = str(tmp_path / "ckpt")
    summary = run_extraction(ray.data.from_arrow(CORPUS_SCHEMA.empty_table()), out)
    assert summary["buckets_completed_now"] == 0
    ds = read_extraction(out)
    assert ds.count() == 0
    assert ds.schema().base_schema == DOC_RESULT_SCHEMA
