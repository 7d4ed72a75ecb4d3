"""Extraction benchmark: one workload, timed end to end and checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The orchestrator (this process) starts a Ray
session sized to the process's CPU affinity. A ``perfbench.driver`` process
in prepare mode generates the workload's corpus from the seed (untimed) and
exits; then one timed ``perfbench.driver`` process connects and warms up.
Once it is ready, the orchestrator computes the single-process oracle, then
has the driver execute timed runs until ``--seconds`` have passed and at
least ``MIN_RUNS`` are done, verifying each run's output between runs.
Every wait on a driver has a hard timeout: a run that misses it, or whose
driver dies, counts every one of its documents as failed, the driver's
process group is killed, and the next run gets a fresh driver. With
``--trace 1`` untraced and traced runs alternate and the per-layer metrics
are reported.

The last stdout line is one compact JSON object (correct, attempted,
failed, metrics); the line before it names the full record written under
``.perfbench_out/`` (per-run samples, layer figures, spans, config).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import metrics as M  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# a run (or a driver's set-up) that has not reported by then is treated as hung
RUN_TIMEOUT_S = 45.0
# timed runs per invocation, at the least (medians need three)
MIN_RUNS = 3
# no new run starts once the invocation is this old, and no wait outlasts
# INVOCATION_BUDGET_S, so a run of hangs still ends well inside 180 s
START_BUDGET_S = 90.0
INVOCATION_BUDGET_S = 150.0
RAY_OBJECT_STORE_BYTES = 768 * 1024**2
# checkpoint_resume: where the driver copies a run's cold bucket files
COLD_SUFFIX = "-cold"


def session_processes(marker: str) -> list[int]:
    """PIDs whose command line mentions ``marker`` (this session's dir)."""
    pids = []
    for pid in os.listdir("/proc"):
        if pid.isdigit() and int(pid) != os.getpid():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if marker.encode() in f.read():
                        pids.append(int(pid))
            except OSError:
                continue
    return pids


def stop_stragglers(marker: str, wait_s: float = 20.0) -> None:
    """Kill any process left from this session and wait until all are gone."""
    deadline = time.monotonic() + wait_s
    while True:
        pids = session_processes(marker)
        if not pids or time.monotonic() > deadline:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.2)


def remove_empty(path: str) -> None:
    if os.path.isdir(path) and not os.listdir(path):
        os.rmdir(path)


def git_head() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None  # not a git checkout
    return out.stdout.strip()


class Driver:
    """A ``perfbench.driver`` process and its line protocol: it reports
    ``ready`` once warmed up, then runs one timed run per command read from
    stdin and reports each ``result``. Every wait has a deadline; a driver
    that misses one is killed with its process group."""

    def __init__(self, cfg: dict[str, Any], log_path: str):
        cfg_path = log_path + ".config.json"
        with open(cfg_path, "w") as f:
            json.dump(cfg, f)
        self._log = open(log_path, "wb")
        self.spawned_at = time.time()
        self.is_ready = False
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.driver", cfg_path],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self._buf = b""
        self.error: str | None = None

    def wait_for(self, kind: str, timeout_s: float) -> dict[str, Any] | None:
        """The next message of ``kind``; None (and ``error`` set) when the
        driver exits or the deadline passes first."""
        from perfbench.driver import PREFIX

        deadline = time.perf_counter() + timeout_s
        while True:
            while b"\n" in self._buf:
                line, self._buf = self._buf.split(b"\n", 1)
                text = line.decode(errors="replace")
                if text.startswith(PREFIX):
                    msg = json.loads(text[len(PREFIX):])
                    if msg.pop("kind") == kind:
                        return msg
            left = deadline - time.perf_counter()
            if left <= 0 or not self._sel.select(timeout=left):
                self.error = f"no {kind} within {timeout_s:.0f}s"
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                self.error = f"driver exited with code {self.proc.wait()}"
                return None
            self._buf += chunk

    def send(self, command: dict[str, Any]) -> None:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()

    def close(self, timeout_s: float = 30.0) -> None:
        """Ask the driver to quit; kill its process group if it does not."""
        if self.proc.poll() is None and self.error is None:
            try:
                self.send({"quit": True})
                self.proc.wait(timeout=timeout_s)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self._sel.close()
        for stream in (self.proc.stdin, self.proc.stdout, self._log):
            try:
                stream.close()
            except OSError:
                pass


def verify_run(outcome, workload, out_dir, expected_ids, oracle) -> dict[str, Any]:
    from perfbench.verify import check_output, parquet_files, read_output

    if "result" not in outcome:
        return {"failed": len(expected_ids), "committed": 0, "pages": 0}
    if workload.mode != "resume":
        return check_output(read_output(parquet_files(out_dir)), expected_ids, oracle)
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parser_ray.state import completed_buckets
    from perfbench.verify import differing_docs, table_digest

    # the files state.read_extraction reads after the resume
    files = [
        os.path.join(out_dir, f"bucket={b}", "data.parquet")
        for b in sorted(completed_buckets(out_dir))
    ]
    tables = [
        pa.concat_tables([pq.read_table(p) for p in paths], promote_options="permissive")
        for paths in (parquet_files(out_dir + COLD_SUFFIX), files)
    ]
    # docs whose resumed row differs from the cold row are failures too;
    # every doc is when only the column types differ
    differ = []
    if table_digest(tables[0]) != table_digest(tables[1]):
        differ = differing_docs(*tables) or expected_ids
    return check_output(read_output(files), expected_ids, oracle, differ)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    try:
        import ray

        import pdf_parser_ray.pipelines  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    from pdf_parser_ray.pipelines.steps import configure_context
    from perfbench.verify import oracle_digests, oracle_ids, table_digest
    from perfbench.workloads import giant_span_threshold, read_corpus_table

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    out_root = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_root, exist_ok=True)
    affinity = len(os.sched_getaffinity(0))
    config = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n_docs": workload.n_docs,
        "os_cpu_count": os.cpu_count(),
        "affinity_cpus": affinity,
        "loadavg_before": os.getloadavg(),
        "git_head": git_head(),
        "run_timeout_s": RUN_TIMEOUT_S,
    }
    # Ray's session dir (its Unix socket paths must stay short)
    temp_dir = tempfile.mkdtemp(prefix="pbray-")
    # workers inherit the raylet's environment: they must import the engine
    # and this package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    runs: list[dict[str, Any]] = []
    setups: list[dict[str, Any]] = []
    driver = None
    try:
        t0 = time.perf_counter()
        ctx = ray.init(
            num_cpus=affinity,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=RAY_OBJECT_STORE_BYTES,
            _temp_dir=temp_dir,
        )
        config["session_start_s"] = time.perf_counter() - t0
        config["ray_session_dir"] = ctx.address_info["session_dir"]
        config["ray_cpus"] = int(ray.cluster_resources().get("CPU", 0))
        configure_context()

        t0 = time.perf_counter()
        base = {
            "workload": workload.name,
            "seed": args.seed,
            "mode": workload.mode,
            "gcs_address": ctx.address_info["gcs_address"],
            "ray_session_dir": config["ray_session_dir"],
            "ray_cpus": config["ray_cpus"],
            "corpus_dir": os.path.join(work, "corpus"),
            "work_dir": work,
        }

        def time_left() -> float:
            elapsed = time.perf_counter() - t_start
            return min(RUN_TIMEOUT_S, INVOCATION_BUDGET_S - elapsed)

        def await_ready(driver: Driver) -> None:
            ready = driver.wait_for("ready", time_left())
            if ready is not None:
                driver.is_ready = True
                # set-up counts from process spawn
                ready["ready_s"] = ready.pop("ready_at") - driver.spawned_at
                setups.append(ready)

        # the inputs are generated by a process of their own, which exits
        prepare = Driver({**base, "prepare": True}, os.path.join(work, "prepare.log"))
        try:
            prepared = prepare.wait_for("prepared", time_left())
        finally:
            prepare.close()
        if prepared is None:
            raise RuntimeError(f"input generation failed: {prepare.error}")
        config["input_s"] = time.perf_counter() - t0
        driver = Driver(base, os.path.join(work, "driver0.log"))
        await_ready(driver)
        # the oracle is computed only once the first driver is ready, so
        # that it takes no CPU from the warm-up that set-up times
        corpus = read_corpus_table(base["corpus_dir"])
        expected_ids = corpus["doc_id"].to_pylist()
        threshold = giant_span_threshold()
        oracle = oracle_digests(corpus, oracle_ids(corpus, threshold))
        config.update(
            corpus_docs=len(expected_ids),
            giant_span_threshold=threshold,
            oracle_docs=len(oracle),
            corpus_digest=table_digest(corpus),
        )
        del corpus

        t_loop = time.perf_counter()
        while True:
            i = len(runs)
            outcome: dict[str, Any] = {"run_id": f"{tag}-run{i}", "traced": bool(args.trace) and i % 2 == 1}
            out_dir = os.path.join(work, f"out{i}")
            if driver is None:
                driver = Driver(base, os.path.join(work, f"driver{i}.log"))
            if not driver.is_ready and driver.error is None:
                await_ready(driver)
            if driver.error is None:
                driver.send(
                    {
                        "run_id": outcome["run_id"],
                        "traced": outcome["traced"],
                        "out_dir": out_dir,
                        "cold_dir": out_dir + COLD_SUFFIX,
                    }
                )
                result = driver.wait_for("result", time_left())
                if result is not None:
                    outcome["result"] = result
            if "result" not in outcome:
                outcome["error"] = driver.error
                driver.close()
                driver = None
            outcome["check"] = verify_run(outcome, workload, out_dir, expected_ids, oracle)
            runs.append(outcome)
            shutil.rmtree(out_dir, ignore_errors=True)
            shutil.rmtree(out_dir + COLD_SUFFIX, ignore_errors=True)
            done = (
                time.perf_counter() - t_loop >= args.seconds
                and len(runs) >= MIN_RUNS
                and (not args.trace or {r["traced"] for r in runs} == {False, True})
            )
            if done or time.perf_counter() - t_start > START_BUDGET_S:
                break
        config["loop_s"] = time.perf_counter() - t_loop
    finally:
        if driver is not None:
            driver.close()
        ray.shutdown()
        stop_stragglers(temp_dir)
        shutil.rmtree(work, ignore_errors=True)
        remove_empty(os.path.dirname(work))
        shutil.rmtree(temp_dir, ignore_errors=True)
    config["loadavg_after"] = os.getloadavg()
    config["total_s"] = time.perf_counter() - t_start

    summary = M.summarize(workload, runs, setups, config, bool(args.trace))
    record = {"config": config, "summary": summary, "setups": setups, "runs": runs}
    path = os.path.join(out_root, f"{tag}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(f"perfbench: full record in {os.path.relpath(path, ROOT)}")
    print(json.dumps(summary["line"], separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
