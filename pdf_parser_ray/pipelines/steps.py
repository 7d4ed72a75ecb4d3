"""Pluggable pipeline-step API (reference main.py:92-116, SURVEY §2.9).

The reference runs an ordered list of (name, callable) steps, each wrapped
so a failure degrades to None and the pipeline continues. Here a step is
``(name, Dataset -> Dataset)``; failures record the error and pass the input
through unchanged — the Ray-native analogue of the reference's
degrade-and-continue contract (main.py:118-126).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import pyarrow as pa
import ray.data

StepFn = Callable[[ray.data.Dataset], ray.data.Dataset]


class SchemaMismatchError(ValueError):
    """A step's declared schema_in/schema_out contract is violated."""


def _schema_fields(schema: pa.Schema) -> dict[str, pa.DataType]:
    return {f.name: f.type for f in schema}


def _check_compatible(
    declared: pa.Schema, actual: pa.Schema, step: str, boundary: str
) -> None:
    """Order-insensitive name+type equality between a declared and an
    actual/adjacent schema."""
    want, got = _schema_fields(declared), _schema_fields(actual)
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        changed = sorted(
            n for n in set(want) & set(got) if want[n] != got[n]
        )
        raise SchemaMismatchError(
            f"step '{step}' {boundary} schema mismatch: "
            f"missing={missing} extra={extra} type_changed={changed}"
        )


@dataclass
class _Step:
    name: str
    fn: StepFn
    schema_in: Optional[pa.Schema] = None
    schema_out: Optional[pa.Schema] = None


@dataclass
class StagePipeline:
    """Ordered, pluggable Dataset-stage pipeline.

    Steps may declare ``schema_in``/``schema_out`` (SURVEY §2.9's stage
    contracts — the reference's ABC layer, core/interfaces.py:13-177,
    declares the same boundary implicitly via method signatures). Adjacent
    declarations are checked at ADD time (plan-level composition), and at
    run time each declared boundary is validated against the Dataset's
    known schema where laziness permits. A schema violation always raises
    (it is a wiring bug), unlike step execution errors which follow the
    degrade-and-continue contract.

    >>> pipe = StagePipeline()
    >>> pipe.add_step("render", lambda ds: page_rows(ds))
    >>> pipe.add_step("assemble", my_assemble)
    >>> result = pipe.run(corpus_ds)
    """

    steps: list[_Step] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)

    def add_step(
        self,
        name: str,
        fn: StepFn,
        schema_in: Optional[pa.Schema] = None,
        schema_out: Optional[pa.Schema] = None,
    ) -> "StagePipeline":
        if not callable(fn):
            raise TypeError("step must be callable (Dataset -> Dataset)")
        step = _Step(name, fn, schema_in, schema_out)
        if (
            self.steps
            and self.steps[-1].schema_out is not None
            and schema_in is not None
        ):
            _check_compatible(
                schema_in, self.steps[-1].schema_out, name, "declared input"
            )
        self.steps.append(step)
        return self

    def insert_step(
        self,
        index: int,
        name: str,
        fn: StepFn,
        schema_in: Optional[pa.Schema] = None,
        schema_out: Optional[pa.Schema] = None,
    ) -> "StagePipeline":
        self.steps.insert(index, _Step(name, fn, schema_in, schema_out))
        return self

    def run(
        self,
        ds: ray.data.Dataset,
        fail_fast: bool = False,
        checkpoint_steps: bool = False,
    ) -> ray.data.Dataset:
        """Apply steps in order. On a step error: raise when ``fail_fast``,
        else record it in ``errors`` and continue with the previous dataset
        (the reference's per-step try/except, main.py:104-126).

        Dataset steps are LAZY: a UDF that raises during execution surfaces
        when the result is consumed, not here — by default only
        plan-construction errors are caught. ``checkpoint_steps=True``
        materializes after every step so execution errors are attributed to
        their step and the degrade-and-continue contract covers them too
        (at the cost of pinning each step's output in the object store)."""
        self.errors = {}
        for step in self.steps:
            prev = ds
            if step.schema_in is not None:
                actual = ds.schema(fetch_if_missing=False)
                if actual is not None:
                    try:
                        _check_compatible(
                            step.schema_in,
                            pa.schema(list(zip(actual.names, actual.types))),
                            step.name, "input",
                        )
                    except SchemaMismatchError:
                        if not self.errors or fail_fast:
                            raise  # genuine wiring bug
                        # an upstream step already degraded (ds reverted to
                        # its input), so this mismatch is the CONSEQUENCE of
                        # that recorded failure, not a new wiring bug —
                        # skip the step under the degrade-and-continue
                        # contract instead of hard-failing the pipeline
                        self.errors[step.name] = (
                            "skipped: input schema unavailable after upstream "
                            f"step failure ({', '.join(self.errors)})"
                        )
                        continue
            try:
                ds = step.fn(ds)
                if checkpoint_steps:
                    ds = ds.materialize()
            except SchemaMismatchError:
                raise  # wiring bug, never degrade-and-continue
            except Exception as exc:
                if fail_fast:
                    raise
                self.errors[step.name] = f"{type(exc).__name__}: {exc}"
                ds = prev
                continue
            if step.schema_out is not None:
                actual = ds.schema(fetch_if_missing=False)
                if actual is not None:
                    _check_compatible(
                        step.schema_out, pa.schema(list(zip(actual.names, actual.types))),
                        step.name, "output",
                    )
        return ds


def quiet_data_logging_env() -> dict[str, str]:
    """Env vars that silence the worker-side per-block schema-hash warning.

    A ``worker_process_setup_hook`` calling ``logger.setLevel`` does NOT
    work: Ray Data re-runs ``logging.config.dictConfig`` on every worker,
    and dictConfig resets existing child loggers of a configured logger to
    NOTSET. The durable mechanism is RAY_DATA_LOGGING_CONFIG pointing at a
    config that names the logger (conf/ray_data_logging.yaml). Call BEFORE
    ray.init (local workers inherit the driver's env) and/or pass as
    ``runtime_env={"env_vars": ...}``."""
    import os

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "conf",
        "ray_data_logging.yaml",
    )
    return {"RAY_DATA_LOGGING_CONFIG": path}


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


def configure_context(shuffle: str = "push") -> Any:
    """Apply the engine's recommended DataContext knobs in one place —
    entry points own the Ray session, the library never mutates global
    state implicitly. ``shuffle``: 'push' (recommended — lowest driver
    coordination cost measured on this Ray build), 'pull', or 'hash'
    (known to hang for groupby in Ray 2.49 local mode; kept for forward
    compat).

    Per-operator resource reservation is always off. Ray Data reserves a
    share of the box (ratio 0.5) for each operator of a multi-operator plan,
    so the CPU-bound map of every plan this engine builds — the hybrid
    union, a map unioned with a materialized dataset, run_extraction's
    groupby — ran about one task at a time next to an idle or empty
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
    if shuffle == "push":
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    elif shuffle == "hash":
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    else:
        ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PULL_BASED
    return ctx
