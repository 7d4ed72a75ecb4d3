"""Per-layer measurements: Ray Data stats parsing, single-core doclogic and
Arrow<->Python boundary replays, and host counters from ``/proc``.

The replays call the repo's public doclogic/stages functions one stage at a
time in the same order ``doclogic.pipeline.assemble_document`` does, and
check that the result equals ``run_document`` so a drifting replay shows in
the record instead of timing the wrong work.
"""

from __future__ import annotations

import os
import re
import time
from typing import Any

import pyarrow as pa

# ---- Ray Data stats text ----------------------------------------------------

_OP_RE = re.compile(r"^Operator (\d+) (.+?): (.*)$")
_SUBOP_RE = re.compile(r"^\s+Suboperator (\d+) (.+?): (.*)$")
_PRODUCED_RE = re.compile(r"produced in ([\d.]+)s")
_EXECUTED_RE = re.compile(r"executed in ([\d.]+)s")
_TASKS_RE = re.compile(r"(\d+) tasks executed")
_TOTAL_RE = re.compile(r"([\d.]+)(us|ms|s)? total")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}
_FIELDS = {
    "Remote wall time": "remote_wall_s",
    "Remote cpu time": "cpu_s",
    "UDF time": "udf_s",
    "Output num rows per block": "rows",
    "Output size bytes per block": "bytes",
}


class StatsFormatError(ValueError):
    """The stats text no longer has the shape this parser knows."""


def _total(line: str) -> float:
    m = _TOTAL_RE.search(line)
    if not m:
        raise StatsFormatError(f"no 'total' figure in stats line: {line!r}")
    return float(m.group(1)) * _UNIT_S[m.group(2)]


def parse_stats(text: str) -> list[dict[str, Any]]:
    """Parse one ``Dataset.stats()`` text into per-operator records.

    Each record has ``name``, ``wall_s`` (operator wall), ``tasks`` and the
    totals ``remote_wall_s``, ``cpu_s``, ``udf_s``, ``rows`` and ``bytes``.
    An all-to-all operator's totals are taken over its sub-operators
    (times summed, rows/bytes as the largest sub-stage). Raises
    :class:`StatsFormatError` when the text holds no operator, or an
    executed operator lacks the figures above, so a format change in Ray
    fails loudly instead of zeroing the layer metrics."""
    ops: list[dict[str, Any]] = []
    current: dict[str, Any] | None = None
    target: dict[str, Any] | None = None
    for line in text.splitlines():
        m = _OP_RE.match(line)
        if m:
            head = m.group(3)
            wall = _PRODUCED_RE.search(head) or _EXECUTED_RE.search(head)
            tasks = _TASKS_RE.search(head)
            current = {
                "name": m.group(2),
                "cached": "[execution cached]" in head,
                "wall_s": float(wall.group(1)) if wall else 0.0,
                "tasks": int(tasks.group(1)) if tasks else 0,
                "subops": [],
            }
            ops.append(current)
            target = current
            continue
        m = _SUBOP_RE.match(line)
        if m and current is not None:
            target = {"name": m.group(2)}
            current["subops"].append(target)
            continue
        stripped = line.strip().lstrip("* ").strip()
        for label, key in _FIELDS.items():
            if stripped.startswith(label + ":") and target is not None:
                target[key] = _total(stripped)
    if not ops:
        raise StatsFormatError("no 'Operator N name:' lines in stats text")
    for op in ops:
        if op["subops"]:
            for key in ("remote_wall_s", "cpu_s", "udf_s"):
                op[key] = sum(s.get(key, 0.0) for s in op["subops"])
            for key in ("rows", "bytes"):
                op[key] = max(s.get(key, 0.0) for s in op["subops"])
        executed = op["tasks"] > 0 or op["subops"]
        if executed and not op["cached"]:
            missing = [k for k in _FIELDS.values() if k not in op]
            if missing:
                raise StatsFormatError(f"operator {op['name']!r} lacks {missing}")
    return ops


def operator_role(name: str) -> str:
    """Map a (possibly fused) operator name to the pipeline role it plays:
    the role of its last stage, not counting Ray's block splitting."""
    stages = [s for s in name.split("->") if not s.startswith("SplitBlocks")]
    last = stages[-1] if stages else name
    if last.startswith("Union"):
        return "union"
    if "MapBatches(fused)" in last:
        return "map"
    if "render_pages" in last or "PageRenderer" in last:
        return "render"
    if last.startswith(("Sort", "Aggregate", "Repartition", "HashShuffle")):
        return "shuffle"
    if "assemble_bucket" in last or "write_bucket" in last or "BucketAssembler" in last:
        return "assemble"
    if last.startswith("Write"):
        return "write"
    if last.startswith("Read"):
        return "read"
    return "other"


def pipeline_roles(stats_texts: list[str]) -> dict[str, dict[str, float]]:
    """Sum parsed operator figures by role over all captured executions."""
    roles: dict[str, dict[str, float]] = {}
    for text in stats_texts:
        for op in parse_stats(text):
            if op["cached"]:
                continue
            agg = roles.setdefault(
                operator_role(op["name"]),
                {"wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0, "rows": 0.0, "bytes": 0.0},
            )
            for key in agg:
                agg[key] += op.get(key, 0.0)
    return roles


# ---- single-core replays ------------------------------------------------------

DOCLOGIC_STAGES = (
    "spans_to_pages",
    "page_render",
    "metadata",
    "toc",
    "sections",
    "output_spans",
    "stats",
)


def replay_doclogic(rows: list[dict[str, Any]]) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Time each doclogic stage over ``rows`` (doc_id, spans) in this
    process, one document at a time. Returns per-stage ms/doc, docs/s on
    one core and how many replayed results differ from ``run_document``,
    plus the ``run_document`` results."""
    from pdf_parser_ray.doclogic import metadata, render, sections, toc
    from pdf_parser_ray.doclogic.pipeline import (
        TOC_MAX_PAGE,
        document_stats,
        page_row_from_record,
        run_document,
    )

    spent = dict.fromkeys(DOCLOGIC_STAGES, 0.0)
    mismatches = 0
    results = []
    clock = time.perf_counter
    for row in rows:
        doc_id, spans = row["doc_id"], row["spans"] or []
        t0 = clock()
        pages = render.spans_to_pages(spans)
        t1 = clock()
        page_rows = sorted(
            (page_row_from_record(p) for p in pages), key=lambda r: r["page"]
        )
        t2 = clock()
        meta = metadata.parse_metadata(page_rows)
        t3 = clock()
        title = meta.get("doc_title", toc.FALLBACK_DOC_TITLE)
        entries = toc.parse_toc(
            [r for r in page_rows if r.get("page", 0) <= TOC_MAX_PAGE], title
        )
        t4 = clock()
        secs = sections.parse_sections(
            page_rows, entries, sections.DEFAULT_SECTION_DOC_TITLE
        )
        t5 = clock()
        out_spans = render.assemble_output_spans(page_rows, True)
        t6 = clock()
        stats = document_stats(doc_id, page_rows, entries, secs, out_spans)
        t7 = clock()
        for stage, dt in zip(
            DOCLOGIC_STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6)
        ):
            spent[stage] += dt
        expected = run_document(doc_id, spans)
        results.append(expected)
        got = {"metadata": meta, "toc": entries, "sections": secs, "spans": out_spans, "stats": stats}
        if any(expected[k] != got[k] for k in got):
            mismatches += 1
    n = max(len(rows), 1)
    total = sum(spent.values())
    return {
        "docs": len(rows),
        "ms_per_doc": {k: v * 1000.0 / n for k, v in spent.items()},
        "docs_per_s_1core": len(rows) / total if total > 0 else 0.0,
        "mismatches": mismatches,
    }, results


def replay_stages(sample: pa.Table, results: list[dict[str, Any]]) -> dict[str, float]:
    """Time the Arrow<->Python boundary the stage UDFs cross, in ms/doc:
    ``to_pylist`` of the sample's doc_id and span columns in,
    ``doc_result_to_row`` + ``Table.from_pylist`` of its doclogic
    ``results`` out."""
    from pdf_parser_ray.schemas import DOC_RESULT_SCHEMA
    from pdf_parser_ray.stages.assemble_stage import doc_result_to_row

    clock = time.perf_counter
    t0 = clock()
    sample["doc_id"].to_pylist()
    sample["spans"].to_pylist()
    t1 = clock()
    rows = [doc_result_to_row(r, 0, False) for r in results]
    pa.Table.from_pylist(rows, schema=DOC_RESULT_SCHEMA)
    t2 = clock()
    n = max(sample.num_rows, 1)
    return {
        "arrow_to_py_ms": (t1 - t0) * 1000.0 / n,
        "py_to_arrow_ms": (t2 - t1) * 1000.0 / n,
    }


# ---- host counters -------------------------------------------------------------


def cpu_times() -> tuple[float, float, int, float]:
    """(busy seconds, total seconds, CPU count, steal seconds) of the host
    from /proc/stat; busy includes steal, the time the hypervisor ran other
    tenants while this machine's CPUs had work."""
    with open("/proc/stat") as f:
        lines = f.read().splitlines()
    n_cpus = sum(1 for line in lines if re.match(r"cpu\d+ ", line))
    fields = [int(x) for x in lines[0].split()[1:]]
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    hz = os.sysconf("SC_CLK_TCK")
    return (sum(fields) - idle) / hz, sum(fields) / hz, n_cpus, steal / hz


def _proc_field(pid: int | str, name: str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(name + ":"):
                return int(line.split()[1])
    return 0


def _stat_fields(pid: int | str) -> list[str]:
    """The fields of /proc/<pid>/stat after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as f:
        # the comm field may hold spaces; fields after it are fixed
        return f.read().rsplit(")", 1)[1].split()


_PPID, _START_TICKS = 1, 19


def session_workers(session_dir: str, since_pid: int) -> list[int]:
    """PIDs of the Ray worker processes of the session in ``session_dir``
    that started no earlier than process ``since_pid`` (so workers of
    earlier drivers do not count). A worker is a child of the session's
    raylet whose command line is ``default_worker.py ...`` or, once Ray has
    retitled it, ``ray::<task or IDLE>``."""
    procs = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().decode(errors="replace")
            stat = _stat_fields(pid)
        except OSError:
            continue  # the process ended while we looked
        procs[int(pid)] = (cmd, int(stat[_PPID]), int(stat[_START_TICKS]))
    raylets = {
        pid
        for pid, (cmd, _, _) in procs.items()
        if os.path.basename(cmd.split("\0", 1)[0]) == "raylet" and session_dir in cmd
    }
    floor = int(_stat_fields(since_pid)[_START_TICKS])
    return [
        pid
        for pid, (cmd, ppid, start) in procs.items()
        if ppid in raylets
        and start >= floor
        and (cmd.startswith("ray::") or "default_worker.py" in cmd)
    ]


def reset_peak_rss(session_dir: str, since_pid: int) -> None:
    """Reset VmHWM to the current RSS in this process and its session's
    workers (``clear_refs`` 5), so the next reading is a peak since now."""
    for pid in ["self", *session_workers(session_dir, since_pid)]:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            continue  # the process ended while we looked


def peak_rss(session_dir: str, since_pid: int) -> dict[str, Any]:
    """Largest VmHWM (MiB) among this process (the driver) and its
    session's workers, and which process holds it."""
    peak = (_proc_field("self", "VmHWM"), "driver", os.getpid())
    for pid in session_workers(session_dir, since_pid):
        try:
            peak = max(peak, (_proc_field(pid, "VmHWM"), "worker", pid))
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
    return {"peak_rss_mb": peak[0] / 1024.0, "peak_rss_process": peak[1], "peak_rss_pid": peak[2]}
