"""Reading and writing span corpora as Ray Datasets.

The production format is Lance (north rule: ``ray.data.read_lance`` into
zero-copy Arrow batches); ``pylance`` is not installed in this sandbox, so
the IO layer is pluggable and falls back to parquet with the identical
schema. Replaces the reference's JSONL stage files (utils/helpers.py:46-101).
"""

from __future__ import annotations

import warnings

import pyarrow as pa
import ray.data
from ray.data.datasource.parquet_meta_provider import (
    ParquetMetadataProvider,
    _fetch_metadata,
)

from pdf_parser_ray.schemas import CORPUS_SCHEMA
from pdf_parser_ray.synthgen import doc_text_to_spans, generate_document


def _lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


class _InProcessFooters(ParquetMetadataProvider):
    """Reads every parquet footer in the calling process.

    Above 24 files Ray's default provider fetches the footers in remote
    tasks of 0.5 CPU each. More of those fit on the CPUs than there are
    idle workers, so the raylet starts extra worker processes; once the
    fetch is done they sit idle without ``ray.data`` imported, and a read
    or map task that lands on one first pays that import (about 0.8 s).
    Whether that happens depends on which idle workers the raylet has
    killed since, so the same pipeline ran 1.1 s or 2.0 s from one call to
    the next. A local footer is a few kB read from disk: reading them here
    costs milliseconds and starts no process."""

    def prefetch_file_metadata(self, fragments, **ray_remote_args):
        return _fetch_metadata(fragments)


def read_corpus(path: str, **kwargs) -> ray.data.Dataset:
    """Read a span corpus: ``.lance`` via read_lance when available, else a
    parquet directory/file with the same (doc_id, spans) schema. A local
    parquet corpus has its footers read on the caller (``_InProcessFooters``)."""
    if path.endswith(".lance") and _lance_available():
        return ray.data.read_lance(path, **kwargs)
    if "://" in path:  # remote storage: Ray fetches footers in parallel
        return ray.data.read_parquet(path, **kwargs)
    with warnings.catch_warnings():
        # the argument is deprecated upstream, but still the only way to
        # keep the footer fetch out of remote tasks
        warnings.simplefilter("ignore", DeprecationWarning)
        return ray.data.read_parquet(path, meta_provider=_InProcessFooters(), **kwargs)


def write_corpus(ds: ray.data.Dataset, path: str, **kwargs) -> None:
    """Write a span corpus (parquet fallback when Lance is unavailable)."""
    if path.endswith(".lance") and _lance_available():
        ds.write_lance(path, **kwargs)
    else:
        ds.write_parquet(path, **kwargs)


def corpus_from_documents(
    sf_dir: str,
    heavy_tail: bool = False,
    mult: int = 1,
) -> ray.data.Dataset:
    """Lift the driver's ``documents.parquet`` (doc_id, text) into the span
    corpus shape as a streaming Ray stage — benchmark input scales with the
    sf directory without materializing anything on the driver.

    ``heavy_tail=True`` deterministically amplifies each doc's text by a
    hash-derived factor (1-8x, with 2% of docs at 64x) so the benchmark
    corpus has the multi-hundred-page skew the pipeline must tame —
    FIXTURES.md F1's page-count distribution at sf scale. ``mult`` emits
    that many distinct copies of every document (doc_id suffixed) to scale
    total work for throughput/scaling measurement without new data."""
    from pdf_parser_ray.functions.hashing import fnv1a_32

    def lift(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            text = text if text is not None else ""
            if heavy_tail and text:
                h = fnv1a_32(str(doc_id))
                repeat = 64 if h % 50 == 0 else 1 + h % 8
                text = "\n".join([text] * repeat)
            if mult == 1:
                rows.append(doc_text_to_spans(str(doc_id), text))
            else:
                for rep in range(mult):
                    rows.append(doc_text_to_spans(f"{doc_id}#{rep}", text))
        return pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)

    # block count scales with the session's CPUs so downstream parallelism
    # is never capped by a single input file's default split
    try:
        ncpu = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        ncpu = 8
    n_rows = None
    try:
        import pyarrow.parquet as pq

        n_rows = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    except Exception:
        pass
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=max(32, ncpu * 2),
    )
    # ~32-task granularity: full parallelism up to 32 CPUs while the
    # AllToAll's per-block coordination cost stays constant across session
    # sizes (tasks queue at lower CPU counts). Capped so per-task heap
    # (each doc's span dicts) stays bounded as the corpus grows.
    if n_rows:
        batch = min(max(16, n_rows // 32), 4096)
    else:
        batch = 128
    return ds.map_batches(lift, batch_format="pyarrow", batch_size=batch)


def synthetic_corpus(
    n_docs: int, seed: int = 42, max_pages: int = 400, parallelism: int = 32
) -> ray.data.Dataset:
    """Distributed deterministic synthetic corpus: generation happens inside
    map_batches tasks keyed on the doc index, not on the driver."""

    def gen(batch: pa.Table) -> pa.Table:
        rows = [
            generate_document(int(i), seed, max_pages) for i in batch["id"].to_pylist()
        ]
        return pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)

    return (
        ray.data.range(n_docs, override_num_blocks=parallelism)
        .map_batches(gen, batch_format="pyarrow", batch_size=64)
    )
