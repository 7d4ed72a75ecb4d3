"""Validation-report aggregate + JSONL compat tests."""

import json

import ray.data

from pdf_parser_ray.pipelines import extract_fused
from pdf_parser_ray.pipelines.validation import (
    validation_summary,
    write_validation_report,
)
from pdf_parser_ray.sources.jsonl_compat import (
    iter_reference_records,
    read_jsonl_tolerant,
    write_reference_outputs,
)
from pdf_parser_ray.synthgen import generate_corpus


def test_validation_summary(ray_session):
    corpus = ray.data.from_arrow(generate_corpus(20))
    results = extract_fused(corpus)
    summary = validation_summary(results)
    assert summary["n_docs"] == 20
    assert summary["total_pages"] > 0
    assert 0 <= summary["enhanced_coverage_metrics"]["overall_coverage"] <= 100
    assert summary["parse_failures"] == 0
    # reference invariant: pages always have text in this corpus
    assert summary["page_coverage_pct"] == 100.0


def test_validation_summary_matches_single_process_oracle(ray_session):
    """Route equality: the distributed summary (corpus lift -> fused
    extraction -> one-pass aggregate) must equal the single-process
    oracle (scripts/make_validation_fixture.py) that produces the
    committed gate fixture — run here at sf0.001 so the fixture
    mechanism itself stays honest in CI."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "make_validation_fixture",
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "scripts",
            "make_validation_fixture.py",
        ),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    sf_dir = "/root/testdata/sf0.001"
    want = mod.summarize(sf_dir)

    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    got = entrymod.queries()["validation_summary"](sf_dir).iloc[0].to_dict()
    assert got == want


def test_write_validation_report(ray_session, tmp_path):
    corpus = ray.data.from_arrow(generate_corpus(5))
    summary = validation_summary(extract_fused(corpus))
    out = write_validation_report(summary, str(tmp_path / "report.xlsx"))
    assert out is not None
    # openpyxl absent -> json fallback; either way the file exists
    assert out.endswith((".xlsx", ".json"))
    import os

    assert os.path.exists(out)


def test_reference_jsonl_outputs(ray_session, tmp_path):
    corpus = ray.data.from_arrow(generate_corpus(8))
    results = extract_fused(corpus).materialize()
    paths = write_reference_outputs(results, str(tmp_path))
    toc_ds = read_jsonl_tolerant(paths["toc"])
    assert toc_ds.count() == int(results.to_pandas()["n_toc_entries"].sum())


def test_tolerant_reader_skips_junk(ray_session, tmp_path):
    p = tmp_path / "junk.jsonl"
    p.write_text('{"a": 1}\n\nnot json\n{"b": 2}\n' + "x" * 2_000_000 + "\n")
    rows = list(iter_reference_records(str(p)))
    assert rows == [{"a": 1}, {"b": 2}]
    assert read_jsonl_tolerant(str(p)).count() == 2

    # gzip variant: same per-line tolerance through the Arrow decompressor
    import gzip

    gz = tmp_path / "junk.jsonl.gz"
    with gzip.open(gz, "wt") as f:
        f.write(p.read_text())
    assert read_jsonl_tolerant(str(gz)).count() == 2


def test_stage_pipeline(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.pipelines.steps import StagePipeline

    pipe = StagePipeline()
    pipe.add_step("double", lambda ds: ds.map_batches(
        lambda b: b.set_column(0, "x", pa.compute.multiply(b["x"], 2)),
        batch_format="pyarrow"))
    pipe.add_step("boom", lambda ds: (_ for _ in ()).throw(RuntimeError("nope")))
    pipe.add_step("add1", lambda ds: ds.map_batches(
        lambda b: b.set_column(0, "x", pa.compute.add(b["x"], 1)),
        batch_format="pyarrow"))
    ds = ray.data.from_items([{"x": 3}])
    out = pipe.run(ds).to_pandas()
    # failing step recorded, pipeline continued: 3*2 + 1
    assert out.x.iloc[0] == 7
    assert "boom" in pipe.errors and "RuntimeError" in pipe.errors["boom"]
    import pytest as _pytest

    with _pytest.raises(RuntimeError):
        pipe.run(ds, fail_fast=True)


def test_run_reference_pipeline(ray_session, tmp_path):
    import os

    from pdf_parser_ray.pipelines.reference_flow import run_reference_pipeline
    from pdf_parser_ray.synthgen import generate_corpus

    corpus = ray.data.from_arrow(generate_corpus(10))
    result = run_reference_pipeline(corpus, str(tmp_path / "out"), n_buckets=8)
    s = result["summary"]
    assert s["n_docs"] == 10 and s["parse_failures"] == 0
    for name in ("toc", "spec", "metadata", "extraction", "pages"):
        assert os.path.exists(result["paths"][name]), name
    assert os.path.exists(result["paths"]["report"])
    # toc JSONL rows match the extraction's count column
    back = ray.data.read_parquet(result["paths"]["extraction"])
    from pdf_parser_ray.sources.jsonl_compat import read_jsonl_tolerant

    assert read_jsonl_tolerant(result["paths"]["toc"]).count() == int(
        back.to_pandas()["n_toc_entries"].sum()
    )


def test_stage_pipeline_lazy_step_error(ray_session):
    """checkpoint_steps=True surfaces lazy UDF failures at the failing step
    and falls back to the previous dataset."""
    from pdf_parser_ray.pipelines.steps import StagePipeline

    def bad_udf(batch):
        raise RuntimeError("lazy boom")

    pipe = StagePipeline()
    pipe.add_step("lazy_bad", lambda ds: ds.map_batches(bad_udf))
    ds = ray.data.from_items([{"x": 1}])
    out = pipe.run(ds, checkpoint_steps=True)
    assert "lazy_bad" in pipe.errors
    assert out.to_pandas().x.iloc[0] == 1  # fell back to the input


def test_rerun_reference_pipeline_overwrites(ray_session, tmp_path):
    from pdf_parser_ray.pipelines.reference_flow import run_reference_pipeline
    from pdf_parser_ray.synthgen import generate_corpus

    corpus = ray.data.from_arrow(generate_corpus(6))
    out = str(tmp_path / "out")
    r1 = run_reference_pipeline(corpus, out, n_buckets=4)
    r2 = run_reference_pipeline(corpus, out, n_buckets=4)
    # second run must not double-count (Ray sinks otherwise accumulate files)
    assert r2["summary"]["n_docs"] == r1["summary"]["n_docs"] == 6


def test_schema_declarations_plan_time_mismatch(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.pipelines.steps import SchemaMismatchError, StagePipeline

    s_ab = pa.schema([("a", pa.int64()), ("b", pa.string())])
    s_ac = pa.schema([("a", pa.int64()), ("c", pa.string())])
    pipe = StagePipeline()
    pipe.add_step("one", lambda ds: ds, schema_out=s_ab)
    # adjacent declared schemas disagree -> raises at ADD time (plan level)
    import pytest as _pytest

    with _pytest.raises(SchemaMismatchError):
        pipe.add_step("two", lambda ds: ds, schema_in=s_ac)
    # compatible declaration is accepted
    pipe.add_step("two", lambda ds: ds, schema_in=s_ab)


def test_schema_declarations_runtime_check(ray_session):
    import pyarrow as pa
    import pytest as _pytest
    import ray.data

    from pdf_parser_ray.pipelines.steps import SchemaMismatchError, StagePipeline

    ds = ray.data.from_arrow(pa.table({"a": [1, 2], "b": ["x", "y"]}))
    good = pa.schema([("a", pa.int64()), ("b", pa.string())])
    bad = pa.schema([("a", pa.int64()), ("b", pa.int64())])  # wrong type

    pipe = StagePipeline()
    pipe.add_step("ok", lambda d: d, schema_in=good)
    pipe.run(ds)  # known input schema validates cleanly

    pipe2 = StagePipeline()
    pipe2.add_step("typed", lambda d: d, schema_in=bad)
    with _pytest.raises(SchemaMismatchError, match="type_changed=\\['b'\\]"):
        pipe2.run(ds)
    # schema violations raise even without fail_fast: wiring bugs never
    # degrade-and-continue
    pipe3 = StagePipeline()
    pipe3.add_step("out_decl", lambda d: d, schema_out=bad)
    with _pytest.raises(SchemaMismatchError):
        pipe3.run(ds)


def test_schema_check_respects_degrade_contract(ray_session):
    """After an upstream step degrades, a declared schema_in mismatch on the
    next step is the CONSEQUENCE of that failure — it must be recorded and
    skipped, not raised as a wiring bug."""
    import pyarrow as pa
    import ray.data

    from pdf_parser_ray.pipelines.steps import StagePipeline

    ds = ray.data.from_arrow(pa.table({"a": [1, 2]}))
    with_c = pa.schema([("a", pa.int64()), ("c", pa.string())])

    def add_c_but_fail(d):
        raise RuntimeError("transient")

    pipe = StagePipeline()
    pipe.add_step("enrich", add_c_but_fail, schema_out=with_c)
    pipe.add_step("consume", lambda d: d, schema_in=with_c)
    out = pipe.run(ds, fail_fast=False)
    assert "enrich" in pipe.errors
    assert "consume" in pipe.errors and "skipped" in pipe.errors["consume"]
    assert out.to_pandas().a.tolist() == [1, 2]  # input passed through
