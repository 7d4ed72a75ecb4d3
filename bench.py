"""Benchmark harness.

Default: runs the headline flagship extraction plus the secondary operator
pipelines over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) in a fresh
``ray.init(address="local", num_cpus=$RAY_GRAFT_CPUS)`` session, writes the
per-query timings to ``bench_queries.json`` next to this file and prints
the compact headline as its LAST stdout line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "docs_per_sec": ..., "sf": ..., "mult": M, "num_cpus": N,
     "cpu_count": ..., "loadavg": [1m, 5m, 15m],
     "queries_file": ".../bench_queries.json", ...}

``--scaling``: runs the headline twice in fresh subprocesses at num_cpus=8
and num_cpus=32 on the same input and reports both plus the scaling
efficiency (t8/t32)/4 — the sandbox proxy for the N vs 4N cluster criterion.

``--headline-only``: headline pipeline only (used by --scaling children).

Measurement robustness (round-4):

- the headline is the MEDIAN of 3 timed repetitions (all samples recorded
  in the JSON) so one shared-box load spike cannot write a phantom
  regression into the round record;
- the secondary sweep runs each query FAMILY in its own subprocess with a
  fresh Ray session — leftover actor pools from one query otherwise
  inflate the next query's wall time, and a 39-query shared-session sweep
  is not comparable to a 20-query one;
- ``minhash_dedup_resumable`` is benched cold vs warm over an
  8-fragment corpus split so the band-store amortization is a measured
  number, not a design claim.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# corpus multiplier: scales headline work without new data. Default 8 so the
# measured region reflects sustained throughput rather than fixed pipeline
# latency; --scaling raises it further (64) so compute dominates the
# shuffle's per-block coordination cost
MULT = int(os.environ.get("GRAFT_BENCH_MULT", "8"))
OUT_DIR = "/tmp/bench_out"
# the per-query timings of the secondary sweep, {query: seconds}
QUERIES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_queries.json")


def _sf_label(sf_dir: str) -> str:
    base = os.path.basename(sf_dir.rstrip("/"))
    return base[2:] if base.startswith("sf") else base


def _prepare_corpus() -> tuple[list[str], int]:
    """Materialize the lifted span corpus to /tmp parquet — input prep,
    untimed, cached across runs keyed on sf+mult. Returns its files and
    document count."""
    import glob as _glob

    import pyarrow.parquet as pq

    from pdf_parser_ray.sources import corpus_from_documents

    # cache key includes the source file's identity so regenerated test
    # data at the same path invalidates the prepared corpus
    st = os.stat(f"{SF_DIR}/documents.parquet")
    key = f"{_sf_label(SF_DIR)}_m{MULT}_{st.st_size}_{int(st.st_mtime)}"
    path = f"/tmp/bench_corpus_whole_{key}"
    marker = os.path.join(path, "_READY")
    if not os.path.exists(marker):
        shutil.rmtree(path, ignore_errors=True)
        corpus_from_documents(SF_DIR, heavy_tail=True, mult=MULT).write_parquet(path)
        open(marker, "w").close()
    files = sorted(_glob.glob(f"{path}/*.parquet"))
    return files, sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def _prepare_planted_giant(n_pages: int = 28_000) -> str:
    """One pathological ~100k-span document (28k pages) as its own parquet
    file (untimed, cached) — the skew-stress payload. Its single-task
    doclogic cost is ~2 s, so the hybrid path's claim is that the giant-doc
    tail hides under the parallel small-doc work rather than serializing
    the run."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parser_ray.schemas import CORPUS_SCHEMA
    from pdf_parser_ray.synthgen import (
        CHARS_PER_LINE,
        LINES_PER_PAGE,
        doc_text_to_spans,
    )

    path = f"/tmp/bench_giant_doc_{n_pages}.parquet"
    if not os.path.exists(path):
        row = doc_text_to_spans(
            "bench-giant-doc", "a" * (CHARS_PER_LINE * LINES_PER_PAGE * n_pages)
        )
        pq.write_table(pa.Table.from_pylist([row], schema=CORPUS_SCHEMA), path)
    return path


def run_headline(plant_giant: bool = False) -> dict:
    """Flagship: read span corpus -> ``extract_hybrid`` with its defaults
    (one plan for the whole corpus: the fused map, or the groupby(bucket)
    reassembly shuffle when one read block holds too many giant docs'
    spans) -> parquet results.

    ``plant_giant`` additionally adds the ~100k-span pathological document
    to the corpus file list (the --skewed stress)."""
    import ray.data

    from pdf_parser_ray.pipelines import extract_hybrid

    shutil.rmtree(OUT_DIR, ignore_errors=True)
    files, n_docs = _prepare_corpus()
    if plant_giant:
        files.append(_prepare_planted_giant())
        n_docs += 1
    if not files:
        raise SystemExit("no corpus files prepared")

    def run(read) -> ray.data.Dataset:
        return extract_hybrid(read, n_buckets=max(NUM_CPUS * 4, 32))

    # untimed warm-up: page cache, worker imports
    run(lambda: ray.data.read_parquet(files[0]).limit(64)).count()

    samples = []
    for _ in range(3):  # median-of-3: one load spike can't set the record
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        t0 = time.time()
        run(lambda: ray.data.read_parquet(files)).write_parquet(
            os.path.join(OUT_DIR, "extraction")
        )
        samples.append(time.time() - t0)
    dt = sorted(samples)[1]

    # untimed: volume metrics from the written output (cheap column scan)
    from ray.data.aggregate import Sum

    agg = ray.data.read_parquet(
        os.path.join(OUT_DIR, "extraction"), columns=["total_pages", "n_spans"]
    ).aggregate(Sum("total_pages", alias_name="p"), Sum("n_spans", alias_name="s"))
    return {
        "sec": dt,
        "samples": [round(s, 3) for s in samples],
        "n_docs": n_docs,
        "docs_per_sec": n_docs / dt if dt else 0.0,
        "pages_per_sec": (agg["p"] or 0) / dt if dt else 0.0,
        "spans_per_sec": (agg["s"] or 0) / dt if dt else 0.0,
    }


# secondary sweep, grouped so each FAMILY gets a fresh Ray session in its
# own subprocess: actor pools left by one query inflate the next query's
# wall time in a shared session (documented in BASELINE.md), so per-query
# numbers from one big session are upper bounds, not measurements
FAMILIES: dict[str, list[str]] = {
    "text": ["doc_stats", "quality_score", "lang_id", "scrub_pii",
             "top_ngrams", "gopher_rules", "script_mix", "split_sentences"],
    "dedup": ["exact_dedup", "dedup_lines", "dedup_events", "simhash",
              "simhash_pairs"],
    "minhash": ["minhash_pairs", "minhash_dedup_resumable",
                "ngram_jaccard_pairs", "dup_span_stats"],
    "ann": ["knn_bruteforce", "knn_ivf", "knn_ivf_recall", "knn_join",
            "semantic_dedup", "quantize_embeddings"],
    "relational": ["pricing_summary", "revenue_by_nation",
                   "order_priority_revenue", "filtered_revenue",
                   "approx_distinct", "price_quantiles",
                   "price_quantiles_routed", "global_rank",
                   "top_docs_per_source", "chars_quantiles_by_lang",
                   "heavy_hitter_sources"],
    "streaming": ["events_window_agg", "sessionize", "events_asof_join",
                  "event_rate_anomaly", "trending_terms",
                  "funnel_conversion", "cohort_retention",
                  "windowed_distinct"],
    "graph": ["copurchase_pairs", "pagerank_copurchase"],
    "curation": ["tfidf_top_terms", "lm_surprisal", "assign_splits",
                 "curate_corpus", "rebalance_sources", "surprisal_filter",
                 "pmi_top_pairs"],
    "retrieval": ["term_search", "bm25_top_docs", "phrase_search",
                  "hybrid_search", "rrf_search"],
    "crosscorpus": ["contamination_check", "cross_corpus_near_dups",
                    "cross_corpus_embedding_near_dups",
                    "bloom_novel_docs",
                    "media_features_png", "media_features_jpeg",
                    "media_features_wav", "media_probe_mp4",
                    "resize_images"],
}


def _prepare_fragments(n_frags: int = 8) -> list[str]:
    """Split documents.parquet into n_frags files under /tmp (untimed,
    cached on source identity) — the multi-fragment corpus the resumable
    dedup's band store amortizes over."""
    import glob as _glob

    import ray.data

    st = os.stat(f"{SF_DIR}/documents.parquet")
    path = f"/tmp/bench_frags_{_sf_label(SF_DIR)}_{n_frags}_{st.st_size}_{int(st.st_mtime)}"
    marker = os.path.join(path, "_READY")
    if not os.path.exists(marker):
        shutil.rmtree(path, ignore_errors=True)
        ray.data.read_parquet(f"{SF_DIR}/documents.parquet").repartition(
            n_frags
        ).write_parquet(path)
        open(marker, "w").close()
    return sorted(_glob.glob(os.path.join(path, "*.parquet")))


def _bench_resumable_cold_warm() -> dict[str, float]:
    """Cold vs warm resumable MinHash dedup over an 8-fragment corpus:
    the warm run reads every fragment's band table back from the store
    instead of re-shingling/re-hashing — the measured amortization."""
    import tempfile

    from pdf_parser_ray.ops.dedup import minhash_dedup_resumable

    frags = _prepare_fragments()
    store = tempfile.mkdtemp(prefix="bench_bands_")
    out: dict[str, float] = {}
    try:
        for label in ("cold", "warm"):
            t0 = time.time()
            minhash_dedup_resumable(
                frags, store, jaccard_threshold=0.8
            ).select_columns(["doc_id"]).to_pandas()
            out[f"minhash_dedup_resumable_{label}"] = round(time.time() - t0, 3)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return out


def _bench_bm25_index_cold_warm() -> dict[str, float]:
    """One-time inverted-index build vs the pruned-read query it buys:
    the measured point of build_text_index is that a served query never
    re-scans the corpus text (bm25_top_docs does, every time)."""
    import tempfile

    import ray.data

    import __ray_entry__ as em
    from pdf_parser_ray.ops.retrieval import bm25_index_top_docs, build_text_index

    idx = tempfile.mkdtemp(prefix="bench_tidx_")
    out: dict[str, float] = {}
    try:
        t0 = time.time()
        build_text_index(
            ray.data.read_parquet(
                f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
            ),
            idx,
            n_buckets=64,
        )
        out["bm25_index_build"] = round(time.time() - t0, 3)
        t0 = time.time()
        bm25_index_top_docs(idx, em._BM25_TERMS, k=20).to_pandas()
        out["bm25_index_query"] = round(time.time() - t0, 3)
    finally:
        shutil.rmtree(idx, ignore_errors=True)
    return out


def _bench_cc_routes() -> dict[str, float]:
    """Driver union-find vs forced distributed label-propagation CC for
    the same sf0.1 MinHash dedup — the fallback route above
    ``driver_cc_max_pairs`` had never been benched. Equality of the two
    routes is pinned by tests; this records the distributed route's cost
    next to the driver route's."""
    import ray.data

    from pdf_parser_ray.ops.dedup import minhash_dedup

    out: dict[str, float] = {}
    for label, cap in (("drivercc", 1_000_000), ("distcc", 0)):
        ds = ray.data.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
        )
        t0 = time.time()
        minhash_dedup(
            ds, jaccard_threshold=0.8, driver_cc_max_pairs=cap
        ).select_columns(["doc_id"]).to_pandas()
        out[f"minhash_dedup_{label}"] = round(time.time() - t0, 3)
    return out


def run_family(fam: str) -> dict[str, float]:
    """One family's per-query timings, inside this process's fresh
    session (called via the --family child)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray.data

    import __ray_entry__ as em

    # untimed warm-up: worker startup, library imports and the page cache
    # for the family's ACTUAL input tables — otherwise the family's FIRST
    # query is billed several seconds of session cold-start the others
    # don't pay
    warm_tables = {
        "ann": ["embeddings"],
        "relational": ["lineitem", "documents"],
        "streaming": ["events"],
        "graph": ["lineitem"],
        "crosscorpus": ["documents", "embeddings"],
        "retrieval": ["documents", "embeddings"],
    }.get(fam, ["documents"])
    for table in warm_tables:
        ray.data.read_parquet(f"{SF_DIR}/{table}.parquet").limit(256).map_batches(
            lambda b: b, batch_format="pyarrow"
        ).count()

    qs = em.queries()
    out: dict[str, float] = {}
    for name in FAMILIES[fam]:
        t0 = time.time()
        res = qs[name](SF_DIR)
        # consume: all of these end in small aggregated outputs
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        out[name] = round(time.time() - t0, 3)
    if fam == "minhash":
        out.update(_bench_resumable_cold_warm())
        out.update(_bench_cc_routes())
    if fam == "retrieval":
        out.update(_bench_bm25_index_cold_warm())
    return out


def run_secondary() -> dict[str, float]:
    """Per-operator timings: one subprocess (fresh Ray session) per
    family. The parent's session is shut down before this runs so the
    children own the machine."""
    out: dict[str, float] = {}
    for fam in FAMILIES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--family", fam],
            env=dict(os.environ),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(
                f"[bench] family {fam} failed:\n{proc.stderr[-2000:]}\n"
            )
            continue
        out.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def main() -> None:
    headline_only = "--headline-only" in sys.argv
    family = None
    if "--family" in sys.argv:
        family = sys.argv[sys.argv.index("--family") + 1]

    if "--scaling" in sys.argv:
        run_scaling()
        return

    if "--skewed" in sys.argv:
        run_skew_stress()
        return

    # silence per-block schema-hash warnings in driver AND workers: the env
    # var must be set BEFORE any `import ray.data` (the driver configures
    # its logging at import) and before ray.init (workers inherit it). Path
    # built directly — importing steps would import ray.data first.
    env = {
        "RAY_DATA_LOGGING_CONFIG": os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "pdf_parser_ray", "conf", "ray_data_logging.yaml",
        )
    }
    os.environ.update(env)

    import ray

    from pdf_parser_ray.pipelines.steps import configure_context

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        runtime_env={"env_vars": env},
    )

    configure_context()

    if family:
        print(json.dumps(run_family(family)))
        ray.shutdown()
        return

    head = run_headline(plant_giant="--plant-giant" in sys.argv)
    line = {
        "metric": "flagship extraction end-to-end (span corpus -> skew-aware "
        "extract_hybrid, one plan per corpus -> parquet)",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "docs_per_sec": round(head["docs_per_sec"], 2),
        "pages_per_sec": round(head["pages_per_sec"], 2),
        "spans_per_sec": round(head["spans_per_sec"], 2),
        "headline_samples": head["samples"],
        "n_docs": head["n_docs"],
        "sf": _sf_label(SF_DIR),
        "mult": MULT,
        "num_cpus": NUM_CPUS,
        "cpu_count": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
    if not headline_only:
        # free the machine before the family children each bring up their
        # own fresh session — two live object stores would skew timings
        ray.shutdown()
        with open(QUERIES_PATH, "w") as f:
            json.dump(run_secondary(), f, indent=1, sort_keys=True)
        line["queries_file"] = QUERIES_PATH
    # the compact headline is the LAST stdout line: a harness that keeps
    # only the tail of the output still parses it
    print(json.dumps(line))
    if ray.is_initialized():
        ray.shutdown()


def run_skew_stress() -> None:
    """The skew claim, measured: the same mult-64 headline with and without
    one planted ~100k-span document, fresh process each (sequential, so the
    box is never shared). The planted giant joins the file list as one
    more read block, so ``extract_hybrid`` keeps the fused map unless that
    block's spans times the CPUs exceed the corpus's; in the map the giant
    renders alone in its slice of one task while the other blocks
    proceed — PASS is a ratio within 1.5x (the variance band;
    single-sample swings on this box reach 2-3x, which is why both runs
    are median-of-3)."""

    def child(plant: bool) -> dict:
        env = dict(
            os.environ,
            GRAFT_BENCH_MULT=os.environ.get("GRAFT_BENCH_MULT", "64"),
        )
        args = [sys.executable, os.path.abspath(__file__), "--headline-only"]
        if plant:
            args.append("--plant-giant")
        out = subprocess.run(
            args, env=env, capture_output=True, text=True, check=True
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    base = child(False)
    skew = child(True)
    ratio = skew["value"] / base["value"] if base["value"] else 0.0
    print(
        json.dumps(
            {
                "metric": "skew stress: mult-64 headline with one planted "
                "~100k-span document vs without",
                "headline_mult64": base["value"],
                "headline_skewed": skew["value"],
                "headline_samples": base["headline_samples"],
                "skewed_samples": skew["headline_samples"],
                "ratio": round(ratio, 3),
                "within_band": ratio <= 1.5,
                "sf": skew["sf"],
                "n_docs": skew["n_docs"],
            }
        )
    )


def run_scaling() -> None:
    """Same input, fresh processes at 8 and 32 CPUs; efficiency =
    (t8/t32) / (32/8); >= 0.8 is the north-rule criterion."""

    def child(ncpu: int) -> dict:
        # mult=64 makes measured compute dominate the shuffle's fixed
        # per-block coordination cost, which is identical at both CPU
        # counts (constant task granularity) — the sandbox analogue of a
        # cluster job large enough to amortize scheduling
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_MULT=os.environ.get("GRAFT_BENCH_MULT", "64"),
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--headline-only"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    r_lo = child(lo)
    r_hi = child(hi)
    eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": "scaling efficiency, num_cpus 8 -> 32 (N -> 4N proxy)",
                "sec_8": r_lo["value"],
                "sec_32": r_hi["value"],
                "docs_per_sec_8": r_lo["docs_per_sec"],
                "docs_per_sec_32": r_hi["docs_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "sf": r_hi["sf"],
                "n_docs": r_hi["n_docs"],
            }
        )
    )


if __name__ == "__main__":
    main()
