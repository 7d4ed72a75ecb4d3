"""The benchmark's Ray driver process, started by ``perfbench/run.py``.

Usage: ``python -m perfbench.driver <config.json>``. The process connects to
the benchmark's Ray session, warms the session's workers up (untimed), then
runs one timed run per JSON command read from stdin, timing each from the
first read to the last write. It reports on stdout with lines prefixed
``@@perfbench``:

* ``ready``: connected and warmed up; the orchestrator times set-up by it;
* ``result``: one run's timings, counters and (when traced) layer figures.

It is single-threaded and drives the engine only through public functions.
With ``"prepare": true`` the process instead generates the workload's
corpus, reports ``prepared`` and exits, so the orchestrator itself never
runs Ray tasks and no timed driver carries the generation's memory.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import sys
import time
from typing import Any

from perfbench.layers import cpu_times
from perfbench.workloads import dir_bytes, read_tasks

PREFIX = "@@perfbench "

# the fixed half of the bucket manifests deleted to simulate a crash
LOST_BUCKET_PARITY = 0
# one document in REPLAY_EVERY (by stable hash) is replayed on one core
REPLAY_EVERY = 2


def emit(kind: str, payload: dict[str, Any]) -> None:
    sys.stdout.write(PREFIX + json.dumps({"kind": kind, **payload}) + "\n")
    sys.stdout.flush()


def read(cfg: dict[str, Any]):
    """The workload's corpus as a Dataset, with a seed-independent plan."""
    from pdf_parser_ray.sources import read_corpus

    return read_corpus(cfg["corpus_dir"], override_num_blocks=read_tasks(cfg["ray_cpus"]))


def warm_up(cfg: dict[str, Any]) -> dict[str, float]:
    """Start one worker per CPU with the library imported, then run the
    workload's pipeline shape once on a few documents, untimed."""
    import ray

    from pdf_parser_ray.pipelines import extract_hybrid

    @ray.remote(num_cpus=1)
    def load_library(hold_s: float) -> int:
        import pdf_parser_ray.pipelines  # noqa: F401
        import pdf_parser_ray.state  # noqa: F401

        time.sleep(hold_s)  # held so each task lands on its own worker
        return os.getpid()

    t0 = time.perf_counter()
    ray.get([load_library.remote(0.3) for _ in range(cfg["ray_cpus"])])
    t1 = time.perf_counter()
    warm_dir = os.path.join(cfg["work_dir"], "warm")
    extract_hybrid(lambda: read(cfg).limit(32)).write_parquet(warm_dir)
    shutil.rmtree(warm_dir, ignore_errors=True)
    return {"workers_s": t1 - t0, "pipeline_s": time.perf_counter() - t1}


def run_hybrid(cfg, tracer) -> dict[str, Any]:
    from pdf_parser_ray.pipelines import extract_hybrid

    def corpus():
        with tracer.span("sources.read_corpus"):
            return read(cfg)

    busy0, _, _, steal0 = cpu_times()
    t0 = time.perf_counter()
    with tracer.span("pipelines.extract_hybrid"):
        ds = extract_hybrid(corpus)
    with tracer.span("pipelines.write_parquet"):
        ds.write_parquet(cfg["out_dir"])
    wall = time.perf_counter() - t0
    busy1, _, _, steal1 = cpu_times()
    busy, steal = busy1 - busy0, steal1 - steal0
    return {
        "wall_s": wall,
        "busy_s": busy,
        "steal_s": steal,
        "bytes_out": dir_bytes(cfg["out_dir"]),
    }


def run_resume(cfg, tracer) -> dict[str, Any]:
    """Cold checkpointed run, simulated crash (a fixed half of the bucket
    manifests deleted), then resume; both through ``state.run_extraction``.
    The cold run's bucket files are copied to ``cold_dir`` (untimed) for the
    orchestrator to compare with the resumed ones."""
    from pdf_parser_ray.state import completed_buckets, read_metrics, run_extraction

    out = cfg["out_dir"]
    busy0, _, _, steal0 = cpu_times()
    t0 = time.perf_counter()
    with tracer.span("state.run_extraction.cold"):
        cold = run_extraction(read(cfg), out)
    wall = time.perf_counter() - t0
    busy1, _, _, steal1 = cpu_times()
    busy, steal = busy1 - busy0, steal1 - steal0

    bytes_written = dir_bytes(out)
    for b in completed_buckets(out):
        part = f"bucket={b}"
        shutil.copytree(os.path.join(out, part), os.path.join(cfg["cold_dir"], part))
    lost = [m for m in read_metrics(out) if m["bucket"] % 2 == LOST_BUCKET_PARITY]
    for m in lost:
        os.remove(os.path.join(out, "_manifest", f"bucket_{m['bucket']}.json"))
    lost_docs = sum(m["docs_parsed"] for m in lost)

    t1 = time.perf_counter()
    with tracer.span("state.run_extraction.resume"):
        resumed = run_extraction(read(cfg), out)
    resume_s = time.perf_counter() - t1

    total_docs = cold["docs_parsed"]
    return {
        "wall_s": wall,
        "busy_s": busy,
        "steal_s": steal,
        "resume_s": resume_s,
        "state": {
            "buckets_written": cold["buckets_completed_now"],
            "bytes_written": bytes_written,
            "resume_skip_frac": (total_docs - lost_docs) / total_docs if total_docs else 0.0,
            "resume_redo_frac": resumed["docs_parsed"] / lost_docs if lost_docs else 0.0,
            "resume_s": resume_s,
        },
    }


def layer_replays(cfg) -> dict[str, Any]:
    """Untimed single-core replays plus a standalone corpus read."""
    import pyarrow as pa

    from perfbench.layers import replay_doclogic, replay_stages
    from perfbench.verify import stable_bucket
    from perfbench.workloads import read_corpus_table

    t0 = time.perf_counter()
    read(cfg).materialize()
    read_s = time.perf_counter() - t0

    corpus = read_corpus_table(cfg["corpus_dir"])
    keep = [stable_bucket(d, REPLAY_EVERY) == 0 for d in corpus["doc_id"].to_pylist()]
    sample = corpus.filter(pa.array(keep))
    doclogic, results = replay_doclogic(sample.to_pylist())
    return {
        "read_s": read_s,
        "bytes_in": dir_bytes(cfg["corpus_dir"]),
        "doclogic": doclogic,
        "stages": replay_stages(sample, results),
    }


def timed_run(cfg: dict[str, Any]) -> dict[str, Any]:
    """One timed run of the workload, plus (when traced) the layer figures."""
    from perfbench.layers import peak_rss, reset_peak_rss
    from perfbench.tracing import Tracer, capture_stats

    # the peak is per run: input generation, earlier runs and their replays
    # do not count
    reset_peak_rss(cfg["ray_session_dir"], os.getpid())
    # garbage from earlier runs is collected now, not during this one
    gc.collect()
    traced = cfg["traced"]
    tracer = Tracer(cfg["run_id"], enabled=traced)
    stats_texts: list[str] = []
    capture = capture_stats(stats_texts) if traced else contextlib.nullcontext()
    run = run_resume if cfg["mode"] == "resume" else run_hybrid
    with capture:
        result = run(cfg, tracer)
    result["host_cpus"] = cpu_times()[2]
    result.update(peak_rss(cfg["ray_session_dir"], os.getpid()))
    if traced:
        result["stats_texts"] = stats_texts
        result["spans"] = tracer.spans
        result.update(layer_replays(cfg))
    return result


def main(config_path: str) -> int:
    with open(config_path) as f:
        cfg = json.load(f)
    import ray

    from pdf_parser_ray.pipelines.steps import configure_context

    t0 = time.perf_counter()
    ray.init(address=cfg["gcs_address"], logging_level="ERROR", log_to_driver=False)
    configure_context()
    if cfg.get("prepare"):
        from perfbench.workloads import WORKLOADS, make_corpus

        make_corpus(WORKLOADS[cfg["workload"]], cfg["seed"], cfg["work_dir"])
        emit("prepared", {})
        ray.shutdown()
        return 0
    phases = {"connect_s": time.perf_counter() - t0, **warm_up(cfg)}
    # wall clock, so the orchestrator can time set-up from process spawn
    emit("ready", {"ready_at": time.time(), **phases})
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("quit"):
            break
        emit("result", timed_run({**cfg, **command}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
