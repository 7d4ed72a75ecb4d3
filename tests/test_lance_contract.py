"""Contract pins for the Lance IO branch (sources/corpus.py).

``pylance`` is absent in this sandbox, so the production path of the
north rule ("read_lance into zero-copy Arrow batches") cannot execute
for real; these mock-level tests pin the CONTRACT instead — that a
``.lance`` path routes to ``ray.data.read_lance`` / ``Dataset.
write_lance`` with the caller's kwargs passed through verbatim and the
corpus schema intact — so a future environment with pylance installed
exercises exactly this wiring."""

import pyarrow as pa
import ray.data

from pdf_parser_ray.schemas import CORPUS_SCHEMA


def _empty_corpus() -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(["d1"], pa.string()),
                "spans": pa.array(
                    [[{"kind": "text", "text": "x", "media_ref": None, "page": 1}]],
                    CORPUS_SCHEMA.field("spans").type,
                ),
            }
        )
    )


def test_read_corpus_routes_lance_with_kwargs(monkeypatch, ray_session):
    from pdf_parser_ray.sources import corpus as c

    calls = {}

    def fake_read_lance(path, **kwargs):
        calls["path"] = path
        calls["kwargs"] = kwargs
        return _empty_corpus()

    monkeypatch.setattr(c, "_lance_available", lambda: True)
    monkeypatch.setattr(ray.data, "read_lance", fake_read_lance, raising=False)

    ds = c.read_corpus("/tmp/contract.lance", columns=["doc_id", "spans"])
    assert calls["path"] == "/tmp/contract.lance"
    # column pruning must reach the Lance reader untouched — at 100 TB the
    # read is where pruning pays
    assert calls["kwargs"] == {"columns": ["doc_id", "spans"]}
    assert [f.name for f in ds.schema().base_schema] == ["doc_id", "spans"]


def test_read_corpus_parquet_fallback_without_lance(monkeypatch, tmp_path, ray_session):
    from pdf_parser_ray.sources import corpus as c

    monkeypatch.setattr(c, "_lance_available", lambda: False)
    _empty_corpus().write_parquet(str(tmp_path / "corpus"))
    ds = c.read_corpus(str(tmp_path / "corpus"))
    assert ds.count() == 1


def test_read_corpus_reads_parquet_footers_in_process(monkeypatch, tmp_path, ray_session):
    """Above 24 files Ray fetches parquet footers in remote tasks, which
    start surplus workers; a local corpus must not take that path."""
    import pyarrow.parquet as pq
    import pytest
    import ray.data.datasource.parquet_meta_provider as meta

    from pdf_parser_ray.sources import corpus as c

    monkeypatch.setattr(c, "_lance_available", lambda: False)
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    rows = _empty_corpus().take_all()[0]
    ids = [f"d{i:02d}" for i in range(meta.PARALLELIZE_META_FETCH_THRESHOLD + 6)]
    for doc_id in ids:
        pq.write_table(
            pa.Table.from_pylist([{**rows, "doc_id": doc_id}], schema=CORPUS_SCHEMA),
            str(corpus_dir / f"{doc_id}.parquet"),
        )

    def remote_fetch(*args, **kwargs):
        raise AssertionError("footers fetched in remote tasks")

    monkeypatch.setattr(meta, "_fetch_metadata_parallel", remote_fetch)
    with pytest.raises(AssertionError, match="remote tasks"):
        ray.data.read_parquet(str(corpus_dir))  # the path this corpus would take
    ds = c.read_corpus(str(corpus_dir), override_num_blocks=4)
    assert sorted(r["doc_id"] for r in ds.select_columns(["doc_id"]).take_all()) == ids


def test_write_corpus_routes_lance_with_corpus_schema(monkeypatch, ray_session):
    from pdf_parser_ray.sources import corpus as c

    seen = {}

    def fake_write_lance(self, path, **kwargs):
        seen["path"] = path
        seen["schema"] = self.schema().base_schema
        seen["kwargs"] = kwargs

    monkeypatch.setattr(c, "_lance_available", lambda: True)
    monkeypatch.setattr(
        ray.data.Dataset, "write_lance", fake_write_lance, raising=False
    )

    c.write_corpus(_empty_corpus(), "/tmp/contract_out.lance", max_rows_per_file=1024)
    assert seen["path"] == "/tmp/contract_out.lance"
    assert seen["kwargs"] == {"max_rows_per_file": 1024}
    # the production write carries exactly the span-corpus schema
    assert seen["schema"].equals(CORPUS_SCHEMA)
