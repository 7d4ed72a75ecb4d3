"""Distributed pipeline tests: the north-rule invariant.

- span-sequence equality (kind, text, media_ref, order) per doc_id between
  the Ray pipeline and the single-process oracle
- scale invariance: parallelism 1 vs 4 produce identical sorted output
- fused (no-shuffle) path equals the standard shuffle path
- every extraction route gives identical DOC_RESULT rows, also under the
  engine's own DataContext, and a corpus without giants plans no shuffle
- checkpointed run resumes by skipping completed buckets
"""

import os
import shutil

import pyarrow as pa
import pytest
import ray.data

from pdf_parser_ray.doclogic import run_document
from pdf_parser_ray.pipelines import (
    extract,
    extract_fused,
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
    assert min(n_spans) <= 60 < max(n_spans)  # both hybrid branches run
    return table, n_spans


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
    from pdf_parser_ray.pipelines import extract_hybrid

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
        "extract_fused": extract_fused(make(), n_buckets=8),
        "hybrid_split": extract_hybrid(make, n_buckets=8, giant_span_threshold=60),
        "hybrid_route": extract_hybrid(make, n_buckets=8, on_fragments="route"),
        # above the corpus maximum: the census plans the fused branch alone
        "hybrid_no_giant": extract_hybrid(
            make, n_buckets=8, giant_span_threshold=max(n_spans) + 1
        ),
        # every non-empty doc is a giant; null and empty spans stay small
        "hybrid_giant_t0": extract_hybrid(
            make, n_buckets=8, giant_span_threshold=0
        ),
        # every row is a giant, null and empty spans too: extract() alone
        "hybrid_all_giant": extract_hybrid(
            make, n_buckets=8, giant_span_threshold=-1
        ),
        "run_extraction": read_extraction(out),
    }
    _assert_rows_equal(routes, want)


def test_hybrid_plans_only_nonempty_branches(ray_session):
    """A corpus without giants runs extract_fused alone: the executed plan
    has no Sort (the reassembly shuffle) and no Union."""
    from pdf_parser_ray.pipelines import extract_hybrid

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
    hangs nor changes rows: the two-branch hybrid union and the
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
    fused = extract_fused(ray.data.from_arrow(corpus_table).repartition(6))
    rows = fused.to_pandas()
    for _, row in rows.iterrows():
        assert spans_key(row["spans"]) == spans_key(oracle[row["doc_id"]]["spans"])


def test_projections(ray_session, corpus_table, oracle):
    results = extract_fused(ray.data.from_arrow(corpus_table))
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


def test_hybrid_routes_fragmented_docs(ray_session):
    """on_fragments='route': fragmented doc_ids detour through extract()'s
    merging groupby instead of raising — rows identical to extract()."""
    from pdf_parser_ray.pipelines import extract_hybrid

    rows = _fragmented_corpus()

    def make():
        return ray.data.from_items(rows).repartition(3)

    got = (
        extract_hybrid(
            make,
            giant_span_threshold=60,
            strict_fragment_check=True,
            on_fragments="route",
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = extract(make(), n_buckets=8).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got.doc_id) == list(want.doc_id)
    assert len(got) == len(rows) - 1  # the two fragments merged to one row
    for i in range(len(got)):
        assert spans_key(got.iloc[i]["spans"]) == spans_key(want.iloc[i]["spans"])
        assert got.iloc[i]["n_sections"] == want.iloc[i]["n_sections"]


@pytest.mark.parametrize(
    "kwargs", [{}, {"strict_fragment_check": True}, {"on_fragments": "route"}],
    ids=["default", "strict", "route"],
)
def test_hybrid_reads_corpus_once(ray_session, kwargs):
    """extract_hybrid calls its corpus factory once: the id-count pass, the
    census and every branch (small, giant and, on the route path, the
    fragmented one) branch from that one Dataset."""
    from pdf_parser_ray.pipelines import extract_hybrid

    route = kwargs.get("on_fragments") == "route"
    rows = _fragmented_corpus() if route else _route_corpus()[0].to_pylist()
    calls = []

    def make():
        calls.append(1)
        return ray.data.from_items(rows).repartition(3)

    ds = extract_hybrid(make, n_buckets=8, giant_span_threshold=60, **kwargs)
    got = sorted(r["doc_id"] for r in ds.select_columns(["doc_id"]).take_all())
    assert got == sorted({r["doc_id"] for r in rows})
    assert len(calls) == 1


def test_hybrid_raise_policy_still_raises(ray_session):
    import pytest as _pytest

    from pdf_parser_ray.pipelines import extract_hybrid

    rows = _fragmented_corpus()

    def make():
        return ray.data.from_items(rows).repartition(3)

    with _pytest.raises(ValueError, match="fragmented corpus"):
        extract_hybrid(make, giant_span_threshold=60, strict_fragment_check=True)


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
    """A doc split across corpus rows must raise cleanly in the hybrid/fused
    path (never silent duplicate rows); extract() handles it correctly."""
    import pytest as _pytest
    import ray.data

    from pdf_parser_ray.pipelines.extract import (
        assert_whole_doc_rows,
        extract_hybrid,
    )
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

    # strict pre-check raises on the driver before execution
    with _pytest.raises(ValueError, match="fragmented corpus"):
        extract_hybrid(lambda: frag_ds, n_buckets=4, strict_fragment_check=True)

    # block-level check raises during execution (fragments land in one batch)
    with _pytest.raises(Exception, match="whole-document rows"):
        extract_hybrid(lambda: frag_ds, n_buckets=4).to_pandas()

    # clean corpus passes the strict check
    ok = ray.data.from_items([{"doc_id": "a", "spans": spans}])
    assert_whole_doc_rows(ok)
