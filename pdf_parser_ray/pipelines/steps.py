"""The engine's Ray Data session settings.

:func:`configure_context` applies the DataContext knobs every entry point
(CLI, bench, perfbench) runs the engine under, and installs a log filter
for the one schema warning Ray Data raises on empty shuffle partitions.
The library itself never mutates global Ray state; the code that owns the
Ray session calls this once after ``ray.init``.

The reference's pluggable step list (main.py:92-116, SURVEY §2.9) has no
class here: steps are plain functions composed over Datasets, and
``pipelines.reference_flow.run_reference_pipeline`` is the fixed five-step
flow.
"""

from __future__ import annotations

from typing import Any


class _EmptyBlockSchemaDivergenceFilter:
    """Drop the streaming executor's "RefBundle with a different schema …
    new schema: ." warning — and ONLY that variant.

    Ray 2.49's map tasks never invoke the UDF on a zero-row input block;
    they emit a schema-LESS empty block directly (map_transformer builds it
    from an empty builder), so empty shuffle partitions always surface as
    a "new schema: ." divergence no matter how carefully the UDFs pin
    their output schemas (verified empirically — the UDF is not called).
    That divergence is benign by construction; every consumer in this repo
    re-pins typed schemas after pandas stages. REAL divergences (two
    non-empty schemas disagreeing — an actual wiring bug) still warn."""

    _EMPTY_NEW_SCHEMAS = (
        "new schema: .",  # schema-less Arrow empty block
        "new schema: PandasBlockSchema(names=[], types=[]).",  # empty pandas
    )

    def filter(self, record: Any) -> bool:
        msg = record.getMessage()
        if "different schema" not in msg:
            return True
        return not any(s in msg for s in self._EMPTY_NEW_SCHEMAS)


def _silence_empty_block_schema_warning() -> None:
    import logging

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyBlockSchemaDivergenceFilter())


def configure_context() -> Any:
    """Apply the engine's recommended DataContext knobs in one place —
    entry points own the Ray session, the library never mutates global
    state implicitly.

    The shuffle is the push-based sort shuffle: the lowest driver
    coordination cost measured on this Ray build for the reassembly
    groupby. (Ray 2.49's hash shuffle is known to hang groupby in local
    mode.)

    Per-operator resource reservation is always off. Ray Data reserves a
    share of the box (ratio 0.5) for each operator of a multi-operator plan,
    so the CPU-bound map of every multi-operator plan this engine builds —
    a map unioned with a materialized dataset, run_extraction's groupby —
    ran about one task at a time next to an idle or empty
    all-to-all. On a 4-CPU VM turning it off took the checkpointed
    run_extraction (600 skewed docs, cold run + resume) from a median of
    148 to 295 docs/s over eight seeds, with equal outputs, and raised the
    busy share of the CPUs from 0.47 to 0.84."""
    import logging

    from ray.data.context import DataContext, ShuffleStrategy

    # Ray's block-schema dedup hashing warns per block on nested-struct
    # schemas ("Failed to hash the schemas") — harmless and very loud
    logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow").setLevel(
        logging.ERROR
    )
    _silence_empty_block_schema_warning()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_enabled = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    return ctx
