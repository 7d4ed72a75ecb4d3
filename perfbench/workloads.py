"""Seeded workload inputs.

Each workload's corpus is generated once per benchmark invocation from the
seed, written as parquet, and read back by the timed runs through
``sources.read_corpus``. Generation goes through the library's own
``sources`` layer (``corpus_from_documents`` / ``synthetic_corpus``), so it
needs a live Ray session; everything else here is plain pyarrow.
"""

from __future__ import annotations

import bisect
import inspect
import os
import random
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "lifted" (documents table lifted to spans) | "synthetic"
    n_docs: int  # documents in the corpus
    mode: str  # "hybrid" (extract_hybrid -> parquet) | "resume" (run_extraction)


# The documents table the lifted workload samples: the sf0.1 test data's
# documents.parquet (5,000 rows), rewritten with zstd, rows unchanged.
DOCUMENTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# documents-table rows kept before lifting, and the lift multiplier: the
# lifted corpus holds LIFT_BASE_DOCS * LIFT_MULT whole documents
LIFT_BASE_DOCS = 1800
LIFT_MULT = 4

# Corpus sizes are set so that one timed run lasts 3-7 s on 4 CPUs: long
# enough to average out most of a shared host's jitter, short enough that a
# 30 s measurement holds 4-5 runs for the median.
SYNTH_DOCS = 600

# Read tasks per Ray CPU. Left to itself Ray Data plans max(2 x CPUs,
# estimated in-memory MiB) read tasks, so a corpus whose estimate sits near
# a multiple of the CPU count gets one task more or less depending on the
# seed, and on 4 CPUs a ninth task adds a whole wave (+30% wall). Every
# timed read passes this count, so the seed never changes the plan.
READ_TASKS_PER_CPU = 2

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lifted_wholedoc", "lifted", LIFT_BASE_DOCS * LIFT_MULT, "hybrid"),
        Workload("checkpoint_resume", "synthetic", SYNTH_DOCS, "resume"),
    )
}


def read_tasks(ray_cpus: int) -> int:
    """Read tasks of every timed corpus read on a ``ray_cpus`` session."""
    return READ_TASKS_PER_CPU * ray_cpus


def giant_span_threshold() -> int:
    """The library's default size-class threshold of ``extract_hybrid``."""
    from pdf_parser_ray.pipelines import extract_hybrid

    return inspect.signature(extract_hybrid).parameters["giant_span_threshold"].default


# page-count profile of the synthetic workloads: (share of docs, first and
# last page count), each share spread evenly over its range. It matches the
# generator's own mix (80% 1-5, 15% 10-50, 5% 100-400 pages) but holds it
# fixed, so every seed does the same amount of work; the seed varies content.
SYNTH_PROFILE = ((0.80, 1, 5), (0.15, 10, 50), (0.05, 100, 400))
# documents generated per document kept when fitting the profile
POOL_FACTOR = 2
CORPUS_FILES = 8


def profile_targets(n_docs: int) -> list[int]:
    """Page count of every document of an ``n_docs`` synthetic corpus."""
    targets: list[int] = []
    for share, lo, hi in SYNTH_PROFILE[1:]:
        k = round(share * n_docs)
        targets += [round(lo + (hi - lo) * (i + 0.5) / k) for i in range(k)]
    lo, hi = SYNTH_PROFILE[0][1:]
    k = n_docs - len(targets)
    targets += [lo + i * (hi - lo + 1) // k for i in range(k)]
    return targets


def page_counts(table: pa.Table) -> list[int]:
    """``page_break`` spans per document."""
    spans = table["spans"].combine_chunks()
    is_break = pc.equal(pc.list_flatten(spans).field("kind"), "page_break")
    parents = pc.list_parent_indices(spans).to_numpy()
    counts = np.bincount(
        parents, weights=is_break.to_numpy(zero_copy_only=False), minlength=len(spans)
    )
    return [int(c) for c in counts]


def quantile_targets(pages: list[int], n_docs: int) -> list[int]:
    """Page counts at ``n_docs`` evenly spaced quantiles of ``pages``."""
    ranked = sorted(pages)
    return [ranked[(2 * i + 1) * len(ranked) // (2 * n_docs)] for i in range(n_docs)]


def fit_profile(pool: pa.Table, targets: list[int]) -> pa.Table:
    """Pick one document of ``pool`` per target page count, the nearest
    (largest targets first, ties to the earlier row); rows keep their pool
    order."""
    free = sorted((n, i) for i, n in enumerate(page_counts(pool)))
    chosen = []
    for target in sorted(targets, reverse=True):
        at = bisect.bisect_left(free, (target, -1))
        near = [j for j in (at - 1, at) if 0 <= j < len(free)]
        j = min(near, key=lambda j: (abs(free[j][0] - target), free[j][1]))
        chosen.append(free.pop(j)[1])
    return pool.take(sorted(chosen))


def make_corpus(workload: Workload, seed: int, work_dir: str) -> str:
    """Generate the workload's span corpus under ``work_dir``; returns the
    corpus directory. Needs an initialised Ray session."""
    from pdf_parser_ray.sources.corpus import synthetic_corpus

    corpus_dir = os.path.join(work_dir, "corpus")
    pool_dir = os.path.join(work_dir, "pool")
    if workload.source == "lifted":
        return lift_sample(seed, work_dir, pool_dir, corpus_dir)
    synthetic_corpus(workload.n_docs * POOL_FACTOR, seed).write_parquet(pool_dir)
    pool = pq.read_table(pool_dir).sort_by("doc_id")
    corpus = fit_profile(pool, profile_targets(workload.n_docs))
    # deal documents to files largest first, so every file (and so every read
    # block) holds the same size mix whatever the seed
    by_size = np.argsort(-np.array(page_counts(corpus)), kind="stable")
    os.makedirs(corpus_dir)
    for k in range(CORPUS_FILES):
        pq.write_table(
            corpus.take(np.sort(by_size[k::CORPUS_FILES])),
            os.path.join(corpus_dir, f"part-{k}.parquet"),
        )
    return corpus_dir


def lift_sample(seed: int, work_dir: str, pool_dir: str, corpus_dir: str) -> str:
    """Lift a seeded sample of LIFT_BASE_DOCS rows of the documents table.

    Every row is lifted once (``heavy_tail=True``) to learn its page count;
    the sample takes one row per evenly spaced page-count quantile of the
    whole table, so every seed lifts the same page mix, and the seed decides
    which of the rows with that page count is taken. The chosen rows are
    then lifted with ``mult=LIFT_MULT`` into the corpus."""
    from pdf_parser_ray.sources import corpus_from_documents

    corpus_from_documents(DOCUMENTS_DIR, heavy_tail=True).write_parquet(pool_dir)
    pool = pq.read_table(pool_dir).sort_by("doc_id")
    order = list(range(pool.num_rows))
    random.Random(seed).shuffle(order)
    pool = pool.take(order)
    sample = fit_profile(pool, quantile_targets(page_counts(pool), LIFT_BASE_DOCS))
    chosen = pa.array([int(d) for d in sample["doc_id"].to_pylist()], pa.int64())
    documents = pq.read_table(os.path.join(DOCUMENTS_DIR, "documents.parquet"))
    sf_dir = os.path.join(work_dir, "sf")
    os.makedirs(sf_dir)
    pq.write_table(
        documents.filter(pc.is_in(documents["doc_id"], value_set=chosen)),
        os.path.join(sf_dir, "documents.parquet"),
    )
    corpus_from_documents(sf_dir, heavy_tail=True, mult=LIFT_MULT).write_parquet(corpus_dir)
    return corpus_dir


def read_corpus_table(corpus_dir: str) -> pa.Table:
    """The whole corpus as one table sorted by doc_id (driver-side, no Ray)."""
    return pq.read_table(corpus_dir).sort_by("doc_id")


def dir_bytes(path: str) -> int:
    """Bytes of the regular files under ``path``."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
