"""Metric definitions and the per-invocation summary.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; ``MOVES`` says,
for each per-layer metric, which end-to-end metric on which workload it is
expected to move (written down before any optimisation is measured).
"""

from __future__ import annotations

import statistics
from typing import Any

from perfbench.layers import DOCLOGIC_STAGES, pipeline_roles

END_TO_END = {
    "docs_per_s": "1/s",
    "pages_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER: dict[str, str] = {
    **{f"doclogic.{s}_ms": "ms" for s in DOCLOGIC_STAGES},
    "doclogic.docs_per_s_1core": "1/s",
    "stages.arrow_to_py_ms": "ms",
    "stages.py_to_arrow_ms": "ms",
    "pipelines.map.wall_s": "s",
    "pipelines.map.cpu_s": "s",
    "pipelines.map.udf_s": "s",
    "pipelines.cpu_busy_frac": "ratio",
    "pipelines.parallel_eff": "ratio",
    "pipelines.render.cpu_s": "s",
    "pipelines.shuffle.wall_s": "s",
    "pipelines.shuffle.rows": "count",
    "pipelines.shuffle.bytes": "bytes",
    "pipelines.assemble.cpu_s": "s",
    "pipelines.write.wall_s": "s",
    "pipelines.write.bytes": "bytes",
    "sources.read_s": "s",
    "sources.bytes_in": "bytes",
    "state.buckets_written": "count",
    "state.bytes_written": "bytes",
    "state.resume_skip_frac": "ratio",
    "state.resume_redo_frac": "ratio",
    "state.resume_s": "s",
    "trace.overhead_frac": "ratio",
}

_DOCLOGIC = "docs_per_s on lifted_wholedoc, pages_per_s on checkpoint_resume; state.resume_s only in proportion"
_PLAN = "docs_per_s on lifted_wholedoc (union-plan starvation); no change on checkpoint_resume"
_SHUFFLE = "pages_per_s, docs_per_s and state.resume_s on checkpoint_resume; not lifted_wholedoc"
MOVES: dict[str, str] = {
    **{f"doclogic.{s}_ms": _DOCLOGIC for s in DOCLOGIC_STAGES},
    "doclogic.docs_per_s_1core": _DOCLOGIC,
    "stages.arrow_to_py_ms": "docs_per_s on lifted_wholedoc; little on checkpoint_resume",
    "stages.py_to_arrow_ms": "docs_per_s on lifted_wholedoc; little on checkpoint_resume",
    "pipelines.map.wall_s": _PLAN,
    "pipelines.map.cpu_s": _PLAN,
    "pipelines.map.udf_s": _PLAN,
    "pipelines.cpu_busy_frac": _PLAN,
    "pipelines.parallel_eff": _PLAN,
    "pipelines.render.cpu_s": _SHUFFLE,
    "pipelines.shuffle.wall_s": _SHUFFLE,
    "pipelines.shuffle.rows": _SHUFFLE,
    "pipelines.shuffle.bytes": _SHUFFLE,
    "pipelines.assemble.cpu_s": _SHUFFLE,
    "pipelines.write.wall_s": (
        "docs_per_s on lifted_wholedoc (its output write); 0 on checkpoint_resume, "
        "whose bucket writes run inside map_groups(write_bucket), timed as assemble"
    ),
    "pipelines.write.bytes": _SHUFFLE,
    "sources.read_s": "docs_per_s on both workloads",
    "sources.bytes_in": "docs_per_s on both workloads",
    "state.buckets_written": "state.resume_s on checkpoint_resume; 0 elsewhere",
    "state.bytes_written": "state.resume_s on checkpoint_resume; 0 elsewhere",
    "state.resume_skip_frac": "state.resume_s on checkpoint_resume; 0 elsewhere",
    "state.resume_redo_frac": "state.resume_s on checkpoint_resume; 0 elsewhere",
    "state.resume_s": "checkpoint_resume only (0 elsewhere): the resume after the simulated crash",
    "trace.overhead_frac": "none: 1 - traced/untraced docs_per_s of the same invocation",
}


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_time_s(result: dict[str, Any]) -> float:
    """A run's wall-clock seconds less the share the hypervisor held back.

    ``busy_s`` is the machine's non-idle CPU time during the run, steal
    included: the time its CPUs had work. ``steal_s / busy_s`` is the share
    of that time the hypervisor ran other tenants instead, and every thread
    that had work was stretched by it. On a shared host that share changes
    from minute to minute (up to a quarter in the README's ten-seed sets);
    no change to the program can win it back, and on a machine of its own
    the program would not lose it."""
    if result["busy_s"] <= 0:
        return result["wall_s"]
    return result["wall_s"] * (1.0 - result["steal_s"] / result["busy_s"])


def run_figures(outcome: dict[str, Any]) -> dict[str, float] | None:
    """End-to-end figures of one finished run (None if it did not finish)."""
    result = outcome.get("result")
    if result is None or not result["wall_s"]:
        return None
    check = outcome["check"]
    seconds = run_time_s(result)
    return {
        "docs_per_s": check["committed"] / seconds,
        "pages_per_s": check["pages"] / seconds,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_figures(outcome: dict[str, Any]) -> dict[str, float]:
    """Per-layer figures of one traced run."""
    result = outcome["result"]
    if not result["stats_texts"]:
        raise ValueError(f"traced run {outcome['run_id']} captured no Dataset.stats()")
    roles = pipeline_roles(result["stats_texts"])

    def role(name: str, key: str) -> float:
        return roles.get(name, {}).get(key, 0.0)

    doclogic = result["doclogic"]
    out = {f"doclogic.{s}_ms": doclogic["ms_per_doc"][s] for s in DOCLOGIC_STAGES}
    out["doclogic.docs_per_s_1core"] = doclogic["docs_per_s_1core"]
    out["stages.arrow_to_py_ms"] = result["stages"]["arrow_to_py_ms"]
    out["stages.py_to_arrow_ms"] = result["stages"]["py_to_arrow_ms"]
    for key in ("wall_s", "cpu_s", "udf_s"):
        out[f"pipelines.map.{key}"] = role("map", key)
    out["pipelines.cpu_busy_frac"] = result["busy_s"] / (
        result["wall_s"] * result["host_cpus"]
    )
    out["pipelines.render.cpu_s"] = role("render", "cpu_s")
    out["pipelines.shuffle.wall_s"] = role("shuffle", "wall_s")
    out["pipelines.shuffle.rows"] = role("shuffle", "rows")
    out["pipelines.shuffle.bytes"] = role("shuffle", "bytes")
    out["pipelines.assemble.cpu_s"] = role("assemble", "cpu_s")
    out["pipelines.write.wall_s"] = role("write", "wall_s")
    state = result.get("state", {})
    out["pipelines.write.bytes"] = float(
        state.get("bytes_written", result.get("bytes_out", 0))
    )
    out["sources.read_s"] = result["read_s"]
    out["sources.bytes_in"] = float(result["bytes_in"])
    for key in ("buckets_written", "bytes_written", "resume_skip_frac", "resume_redo_frac", "resume_s"):
        out[f"state.{key}"] = float(state.get(key, 0.0))
    return out


def summarize(
    workload,
    runs: list[dict[str, Any]],
    setups: list[dict[str, Any]],
    config: dict[str, Any],
    trace: bool,
) -> dict[str, Any]:
    """Medians over runs, failure accounting, and the compact result line.
    ``setup_s`` is the session start plus the median driver set-up."""
    n_docs = config.get("corpus_docs", workload.n_docs)
    attempted = n_docs * len(runs)
    failed = sum(r["check"]["failed"] for r in runs)
    untraced = [f for r in runs if not r["traced"] and (f := run_figures(r))]
    traced = [r for r in runs if r["traced"] and run_figures(r)]

    end_to_end = {k: _median([f[k] for f in untraced]) for k in END_TO_END if k != "setup_s"}
    end_to_end["setup_s"] = config.get("session_start_s", 0.0) + _median(
        [s["ready_s"] for s in setups]
    )

    per_layer: dict[str, float] = {}
    if trace and traced:
        layers = [layer_figures(r) for r in traced]
        per_layer = {k: _median([f[k] for f in layers]) for k in layers[0]}
        traced_dps = _median([run_figures(r)["docs_per_s"] for r in traced])
        one_core = per_layer["doclogic.docs_per_s_1core"]
        per_layer["pipelines.parallel_eff"] = (
            end_to_end["docs_per_s"] / (config["ray_cpus"] * one_core) if one_core else 0.0
        )
        per_layer["trace.overhead_frac"] = (
            1.0 - traced_dps / end_to_end["docs_per_s"] if end_to_end["docs_per_s"] else 0.0
        )

    shown = per_layer if trace else end_to_end
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": failed == 0 and bool(untraced) and (not trace or bool(traced)),
        "attempted": max(attempted, 1),
        "failed": failed if runs else 1,
        "metrics": {k: {"value": shown.get(k, 0.0), "unit": units[k]} for k in units},
    }
    samples = {k: [f[k] for f in untraced] for k in END_TO_END if k != "setup_s"}
    samples["setup_s"] = [config.get("session_start_s", 0.0) + s["ready_s"] for s in setups]
    return {
        "line": line,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "samples": samples,
        "sample_counts": {
            "untraced_runs": len(untraced),
            "traced_runs": len(traced),
            "setups": len(setups),
        },
        "failed_frac": failed / attempted if attempted else 1.0,
        # which process set peak_rss_mb in each untraced run: driver or worker
        "peak_rss_process": [
            r["result"]["peak_rss_process"] for r in runs if not r["traced"] and run_figures(r)
        ],
        "units": {**END_TO_END, **PER_LAYER},
        "moves": MOVES,
        "workload": workload.name,
    }
