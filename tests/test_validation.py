"""Validation-report aggregate + JSONL compat tests."""

import json

import pyarrow as pa
import ray.data

from pdf_parser_ray.pipelines import extract_hybrid
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


def _mapped(table):
    """extract_hybrid over ``table`` with a giant_span_threshold above its
    largest doc, so the plan is the map whatever the session's CPUs."""
    top = pa.compute.max(pa.compute.list_value_length(table["spans"])).as_py()
    return extract_hybrid(ray.data.from_arrow(table), giant_span_threshold=top + 1)


def test_validation_summary(ray_session):
    results = _mapped(generate_corpus(20))
    summary = validation_summary(results)
    assert summary["n_docs"] == 20
    assert summary["total_pages"] > 0
    assert 0 <= summary["enhanced_coverage_metrics"]["overall_coverage"] <= 100
    assert summary["parse_failures"] == 0
    # reference invariant: pages always have text in this corpus
    assert summary["page_coverage_pct"] == 100.0


def test_validation_summary_matches_single_process_oracle(ray_session):
    """Route equality: the distributed summary (corpus lift ->
    extract_hybrid -> one-pass aggregate) must equal the single-process
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
    summary = validation_summary(_mapped(generate_corpus(5)))
    out = write_validation_report(summary, str(tmp_path / "report.xlsx"))
    assert out is not None
    # openpyxl absent -> json fallback; either way the file exists
    assert out.endswith((".xlsx", ".json"))
    import os

    assert os.path.exists(out)


def test_reference_jsonl_outputs(ray_session, tmp_path):
    results = _mapped(generate_corpus(8)).materialize()
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


def test_rerun_reference_pipeline_overwrites(ray_session, tmp_path):
    from pdf_parser_ray.pipelines.reference_flow import run_reference_pipeline
    from pdf_parser_ray.synthgen import generate_corpus

    corpus = ray.data.from_arrow(generate_corpus(6))
    out = str(tmp_path / "out")
    r1 = run_reference_pipeline(corpus, out, n_buckets=4)
    r2 = run_reference_pipeline(corpus, out, n_buckets=4)
    # second run must not double-count (Ray sinks otherwise accumulate files)
    assert r2["summary"]["n_docs"] == r1["summary"]["n_docs"] == 6
