"""The benchmark's own checks: seeded inputs, the stats parser, verification.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pytest

from perfbench import layers, verify, workloads

DATA = os.path.join(os.path.dirname(__file__), "data")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---- seeded inputs -------------------------------------------------------------


@pytest.fixture(scope="module")
def ray_session():
    import ray

    # Ray workers must import the engine and this package from the checkout
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, saved) if p)
    ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR", log_to_driver=False)
    try:
        yield
    finally:
        ray.shutdown()
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


@pytest.mark.parametrize("source", ["lifted", "synthetic"])
def test_same_seed_same_corpus_digest(ray_session, tmp_path, monkeypatch, source):
    monkeypatch.setattr(workloads, "LIFT_BASE_DOCS", 40)
    small = workloads.Workload("t", source, 30, "hybrid")

    def digest(seed: int, name: str) -> str:
        corpus_dir = workloads.make_corpus(small, seed, str(tmp_path / name))
        return verify.table_digest(workloads.read_corpus_table(corpus_dir))

    first = digest(5, "a")
    assert digest(5, "b") == first
    assert digest(6, "c") != first


def test_lifted_sample_holds_page_mix(ray_session, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "LIFT_BASE_DOCS", 60)
    n_docs = 60 * workloads.LIFT_MULT
    lifted = workloads.Workload("t", "lifted", n_docs, "hybrid")
    tables = [
        workloads.read_corpus_table(workloads.make_corpus(lifted, seed, str(tmp_path / str(seed))))
        for seed in (1, 2)
    ]
    assert [t.num_rows for t in tables] == [n_docs, n_docs]
    # the seed picks other rows of the documents table, with the same pages
    assert set(tables[0]["doc_id"].to_pylist()) != set(tables[1]["doc_id"].to_pylist())
    assert sorted(workloads.page_counts(tables[0])) == sorted(workloads.page_counts(tables[1]))


def test_profile_fixes_page_counts():
    from pdf_parser_ray.synthgen import generate_corpus

    targets = workloads.profile_targets(100)
    assert len(targets) == 100
    corpus = workloads.fit_profile(generate_corpus(300, seed=3), targets)
    assert corpus.num_rows == 100
    # nearest-available matching keeps total work within a few pages
    assert abs(sum(workloads.page_counts(corpus)) - sum(targets)) <= 0.02 * sum(targets)


# ---- Ray Data stats parser -------------------------------------------------------


def test_stats_parser_reads_captured_text():
    with open(os.path.join(DATA, "ray_stats_extract_hybrid.txt")) as f:
        text = f.read()
    ops = layers.parse_stats(text)
    names = [op["name"] for op in ops]
    assert names[1] == "MapBatches(keep)->MapBatches(fused)"
    fused = ops[1]
    assert fused["wall_s"] == pytest.approx(2.0)
    assert fused["cpu_s"] == pytest.approx(0.36681)
    assert fused["udf_s"] == pytest.approx(0.3635)
    assert fused["rows"] == 187
    sort = next(op for op in ops if op["name"] == "Sort")
    assert sort["wall_s"] == pytest.approx(2.61)
    assert len(sort["subops"]) == 3
    assert sort["rows"] == 2850
    assert ops[2]["cached"]

    roles = layers.pipeline_roles([text])
    assert set(roles) == {"read", "map", "render", "shuffle", "assemble", "union", "write"}
    assert roles["write"]["wall_s"] == pytest.approx(0.17)
    assert roles["assemble"]["cpu_s"] == pytest.approx(0.26586)


def test_stats_parser_fails_loudly_on_format_change():
    with open(os.path.join(DATA, "ray_stats_extract_hybrid.txt")) as f:
        text = f.read()
    with pytest.raises(layers.StatsFormatError):
        layers.parse_stats(text.replace("Remote cpu time", "Remote CPU seconds"))
    with pytest.raises(layers.StatsFormatError):
        layers.parse_stats(text.replace(" total", " sum"))
    with pytest.raises(layers.StatsFormatError):
        layers.parse_stats("Dataset throughput:\n")


# ---- output verification -----------------------------------------------------------


def _extraction(corpus: pa.Table) -> list[dict]:
    from pdf_parser_ray.doclogic import run_document
    from pdf_parser_ray.stages.assemble_stage import doc_result_to_row

    return [
        doc_result_to_row(run_document(r["doc_id"], r["spans"]), 0, False)
        for r in corpus.to_pylist()
    ]


def _output(rows: list[dict]) -> pa.Table:
    from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA

    return pa.Table.from_pylist(rows, schema=DOC_RESULT_SCHEMA).select(verify.VERIFY_COLUMNS)


@pytest.fixture(scope="module")
def checked():
    from pdf_parser_ray.synthgen import generate_corpus

    corpus = generate_corpus(8, seed=9)
    ids = corpus["doc_id"].to_pylist()
    # oracle over every doc, so any planted change is in the checked set
    return corpus, ids, verify.oracle_digests(corpus, ids)


def test_verification_accepts_correct_output(checked):
    corpus, ids, oracle = checked
    result = verify.check_output(_output(_extraction(corpus)), ids, oracle)
    assert result["failed"] == 0
    assert result["oracle_checked"] == len(ids)


def test_verification_catches_planted_wrong_span(checked):
    corpus, ids, oracle = checked
    rows = _extraction(corpus)
    rows[3]["spans"][1]["text"] += " planted"
    result = verify.check_output(_output(rows), ids, oracle)
    assert result["oracle_mismatch"] == 1
    assert result["failed"] == 1
    assert result["failed_ids"] == [ids[3]]


def test_verification_catches_reordered_spans(checked):
    corpus, ids, oracle = checked
    rows = _extraction(corpus)
    spans = rows[0]["spans"]
    spans[0]["text"], spans[1]["text"] = spans[1]["text"], spans[0]["text"]
    assert verify.check_output(_output(rows), ids, oracle)["failed"] == 1


def test_verification_counts_missing_duplicated_and_flagged(checked):
    corpus, ids, oracle = checked
    rows = _extraction(corpus)
    rows[5]["parse_failure"] = True
    rows = rows[1:] + [rows[2]]  # doc 0 missing, doc 2 twice
    result = verify.check_output(_output(rows), ids, oracle)
    assert (result["missing"], result["duplicated"], result["parse_failure"]) == (1, 1, 1)
    assert result["failed"] == 3


# ---- BENCHMARK.json -------------------------------------------------------------------


def test_run_figures_leave_out_the_stolen_share():
    from perfbench import metrics

    outcome = {
        "result": {"wall_s": 10.0, "busy_s": 20.0, "steal_s": 4.0, "peak_rss_mb": 1.0},
        "check": {"committed": 80, "pages": 160},
    }
    figures = metrics.run_figures(outcome)
    assert figures["docs_per_s"] == pytest.approx(10.0)
    assert figures["pages_per_s"] == pytest.approx(20.0)


def test_benchmark_json_matches_metric_tables():
    import json

    from perfbench import metrics

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert set(metrics.MOVES) == set(metrics.PER_LAYER)


def _write_buckets(out_dir, rows_by_bucket, schema=None) -> None:
    import json

    import pyarrow.parquet as pq

    from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA

    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    for b, rows in rows_by_bucket.items():
        os.makedirs(os.path.join(out_dir, f"bucket={b}"))
        table = pa.Table.from_pylist(rows, schema=schema or DOC_RESULT_SCHEMA)
        pq.write_table(table, os.path.join(out_dir, f"bucket={b}", "data.parquet"))
        with open(os.path.join(out_dir, "_manifest", f"bucket_{b}.json"), "w") as f:
            json.dump({"bucket": b}, f)


def test_resume_check_catches_a_resumed_row_that_differs(checked, tmp_path):
    import copy

    from perfbench import run

    corpus, ids, oracle = checked
    rows = _extraction(corpus)
    cold = {0: rows[:4], 1: rows[4:]}
    resumed = copy.deepcopy(cold)
    resumed[1][0]["total_pages"] += 1  # a field the oracle does not check
    out_dir = str(tmp_path / "out")
    _write_buckets(out_dir + run.COLD_SUFFIX, cold)
    _write_buckets(out_dir, resumed)
    resume = workloads.WORKLOADS["checkpoint_resume"]
    check = run.verify_run({"result": {}}, resume, out_dir, ids, oracle)
    assert check["failed"] == 1
    assert check["failed_ids"] == [rows[4]["doc_id"]]

    resumed[1][0]["total_pages"] -= 1
    out_dir = str(tmp_path / "same")
    _write_buckets(out_dir + run.COLD_SUFFIX, cold)
    _write_buckets(out_dir, resumed)
    assert run.verify_run({"result": {}}, resume, out_dir, ids, oracle)["failed"] == 0

    # equal values, another column type: every doc counts as failed
    from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA

    i = DOC_RESULT_SCHEMA.get_field_index("total_pages")
    wider = DOC_RESULT_SCHEMA.set(i, pa.field("total_pages", pa.int64()))
    out_dir = str(tmp_path / "retyped")
    _write_buckets(out_dir + run.COLD_SUFFIX, cold)
    _write_buckets(out_dir, resumed, wider)
    assert run.verify_run({"result": {}}, resume, out_dir, ids, oracle)["failed"] == len(ids)


def test_verification_counts_resume_mismatches_once(checked):
    corpus, ids, oracle = checked
    rows = _extraction(corpus)
    rows[4]["spans"][0]["text"] += " planted"
    result = verify.check_output(_output(rows), ids, oracle, also_failed=[ids[4], ids[6]])
    assert result["failed"] == 2
    assert result["committed"] == len(ids)
