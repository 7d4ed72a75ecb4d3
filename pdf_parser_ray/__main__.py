"""CLI entry point: ``python -m pdf_parser_ray`` (the reference's
``python main.py``, Ray-native).

Subcommands:

  run        full reference flow: corpus -> pages/metadata/toc/spec +
             validation report + extraction parquet
  extract    checkpointed, resumable extraction only (per-bucket manifests)
  bench-gen  write a deterministic synthetic corpus (testing/benchmarks)

Owns its Ray session (guarded init; the driver-facing ``__ray_entry__``
never calls this path).
"""

from __future__ import annotations

import argparse
import json
import sys

# imports no ray.data (tests/test_pipeline_ray.py::test_cli_import_skips_ray_data)
from pdf_parser_ray.stages.render_stage import DEFAULT_N_BUCKETS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pdf_parser_ray")
    parser.add_argument("--num-cpus", type=int, default=None)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="full reference flow over a corpus")
    p_run.add_argument("--input", required=True, help="corpus path (.lance or parquet)")
    p_run.add_argument("--output", required=True)
    p_run.add_argument("--n-buckets", type=int, default=DEFAULT_N_BUCKETS)
    p_run.add_argument("--no-boilerplate-strip", action="store_true")

    p_ext = sub.add_parser("extract", help="checkpointed resumable extraction")
    p_ext.add_argument("--input", required=True)
    p_ext.add_argument("--output", required=True)
    p_ext.add_argument("--n-buckets", type=int, default=DEFAULT_N_BUCKETS)
    p_ext.add_argument("--no-resume", action="store_true")

    p_gen = sub.add_parser("bench-gen", help="write a synthetic span corpus")
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--n-docs", type=int, default=500)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--max-pages", type=int, default=400)

    p_cur = sub.add_parser(
        "curate",
        help="training-data curation: quality gate -> exact dedup -> splits",
    )
    p_cur.add_argument(
        "--input", required=True, help="documents parquet (doc_id, text, lang)"
    )
    p_cur.add_argument("--output", required=True)
    p_cur.add_argument("--min-stop-hits", type=int, default=1)
    p_cur.add_argument(
        "--fractions",
        default="train=0.8,val=0.1,test=0.1",
        help="comma-separated name=share split fractions (must sum to 1)",
    )

    args = parser.parse_args(argv)

    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)
    from pdf_parser_ray.pipelines.steps import configure_context

    configure_context()

    try:
        if args.cmd == "run":
            from pdf_parser_ray.pipelines.reference_flow import run_reference_pipeline
            from pdf_parser_ray.sources import read_corpus

            result = run_reference_pipeline(
                read_corpus(args.input),
                args.output,
                n_buckets=args.n_buckets,
                strip_boilerplate=not args.no_boilerplate_strip,
            )
            print(json.dumps(result, default=str))
        elif args.cmd == "extract":
            from pdf_parser_ray.sources import read_corpus
            from pdf_parser_ray.state import run_extraction

            summary = run_extraction(
                read_corpus(args.input),
                args.output,
                n_buckets=args.n_buckets,
                resume=not args.no_resume,
            )
            print(json.dumps(summary))
        elif args.cmd == "bench-gen":
            from pdf_parser_ray.sources.corpus import synthetic_corpus, write_corpus

            ds = synthetic_corpus(args.n_docs, args.seed, args.max_pages)
            write_corpus(ds, args.output)
            print(json.dumps({"output": args.output, "n_docs": args.n_docs}))
        elif args.cmd == "curate":
            import ray.data

            from pdf_parser_ray.ops.curation import curate_corpus

            fractions = {
                k: float(v)
                for k, v in (p.split("=") for p in args.fractions.split(","))
            }
            ds = ray.data.read_parquet(
                args.input, columns=["doc_id", "text", "lang"]
            )
            out = curate_corpus(
                ds, min_stop_hits=args.min_stop_hits, fractions=fractions
            )
            # one directory per split: a training job reads only its split,
            # and a failed run resumes per-partition
            out.write_parquet(args.output, partition_cols=["split"])
            import pyarrow.dataset as pads

            counts = (
                pads.dataset(args.output, partitioning="hive")
                .to_table(columns=["split"])
                .column("split")
            )
            summary = {
                str(k): int(v)
                for k, v in zip(*[c.to_pylist() for c in counts.value_counts().flatten()])
            }
            print(json.dumps({"output": args.output, "kept_by_split": summary}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
