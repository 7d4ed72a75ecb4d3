"""Stream-shaped operators over the ordered events log.

Ray Data has no event-time windows (ray_guide.md "Streaming-shaped
workloads"); windows are expressed as groupby(key) + per-group pandas over
the ts-sorted group. Keys are coarse-bucketed so tiny per-key groups don't
pay per-group scheduling (same pattern as ops.dedup).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_parser_ray.functions.hashing import md5_bucket

_KEY_BUCKETS = 64


def hash_bucket_column(batch: pa.Table, col: str, n_buckets: int = _KEY_BUCKETS) -> pa.Array:
    """The ONE hash-bucket convention for every co-partitioned streaming op
    (sessionize / asof_join / dedup_events): integer keys take a single
    vectorized kernel (n_buckets is a power of two); any other type falls
    back to the md5 loop. Null keys must be dropped by the caller BEFORE
    bucketing (each op documents its null policy)."""
    if pa.types.is_integer(batch.schema.field(col).type):
        return pc.bit_wise_and(
            pc.cast(batch[col], pa.int64()), pa.scalar(n_buckets - 1, pa.int64())
        )
    return pa.array(
        [md5_bucket(str(v), n_buckets) for v in batch[col].to_pylist()],
        pa.int64(),
    )


def sessionize(
    sf_dir: str, gap_minutes: int = 30
) -> ray.data.Dataset:
    """Session windows per user: a new session starts when the gap since the
    previous event exceeds ``gap_minutes``. Equal timestamps can never split
    a session, so the result is deterministic under any sort tiebreak.

    Returns (user_id, session_id, session_start, session_end, n_events).
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )

    def bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("_b", hash_bucket_column(batch, "user_id"))

    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values(["user_id", "ts"])
        new_session = (
            group.groupby("user_id")["ts"].diff().gt(gap).fillna(False).astype(int)
        )
        group["session_id"] = new_session.groupby(group["user_id"]).cumsum()
        out = group.groupby(["user_id", "session_id"], as_index=False).agg(
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("ts", "size"),
        )
        return out

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(per_bucket, batch_format="pandas")
    )


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    by: str,
    right_cols: dict[str, str],
    strict: bool = True,
    n_buckets: int = _KEY_BUCKETS,
) -> ray.data.Dataset:
    """Distributed as-of join — each left row matched to the most recent
    right row of the same ``by`` key with ``right.on < left.on`` (``<=``
    when ``strict=False``). Ray Data has no native as-of join; this is the
    groupby-co-partition expression of it: both sides bucket on hash(by),
    one shuffle, then a per-bucket ``pd.merge_asof`` over the ts-sorted
    frames. Right-side ties on ``on`` break by the LAST row in
    (on, *values) sort order (documented: max of the projected columns).

    ``right_cols``: {right_column: output_name} projection. Unmatched left
    rows are DROPPED (inner as-of; matching is tracked with an explicit
    indicator, so a matched right row whose projected value is legitimately
    null survives). Rows with a null ``on``/``by`` key on either side are
    dropped up front (merge keys must be non-null). Partitioning
    assumption: one ``by`` key's rows fit a bucket's worker memory (same
    contract as every windowed op here). Precision: int64 columns survive
    exactly — sides are split from the Arrow group BEFORE any pandas
    conversion, and nullable right int columns ride through merge_asof as
    pandas Int64 (never float64)."""
    left_schema = left.schema().base_schema
    left_names = list(left_schema.names)
    out_schema = pa.schema(
        [(f.name, f.type) for f in left_schema]
        + [
            (out_name, right.schema().base_schema.field(src).type)
            for src, out_name in right_cols.items()
        ]
    )

    union_fields = (
        [("_side", pa.int8()), ("_b", pa.int64())]
        + [(f.name, f.type) for f in left_schema]
        + [
            (f"_r_{src}", right.schema().base_schema.field(src).type)
            for src in right_cols
        ]
    )
    union_schema = pa.schema(union_fields)

    def bucket_of(batch: pa.Table) -> pa.Array:
        return hash_bucket_column(batch, by, n_buckets)

    def drop_null_keys(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.is_valid(batch[on]), pc.is_valid(batch[by])
        )
        return batch.filter(mask)

    def tag_left(batch: pa.Table) -> pa.Table:
        batch = drop_null_keys(batch)
        n = batch.num_rows
        t = pa.table(
            {
                "_side": pa.array([0] * n, pa.int8()),
                "_b": bucket_of(batch),
            }
        )
        for name in left_names:
            t = t.append_column(name, batch[name])
        for src in right_cols:
            t = t.append_column(f"_r_{src}", pa.nulls(n, union_schema.field(f"_r_{src}").type))
        return t.cast(union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        batch = drop_null_keys(batch)
        n = batch.num_rows
        t = pa.table(
            {
                "_side": pa.array([1] * n, pa.int8()),
                "_b": bucket_of(batch),
            }
        )
        for name in left_names:
            if name in (on, by):
                t = t.append_column(name, batch[name])
            else:
                t = t.append_column(name, pa.nulls(n, union_schema.field(name).type))
        for src in right_cols:
            t = t.append_column(f"_r_{src}", batch[src])
        return t.cast(union_schema)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.select_columns(
            sorted({on, by} | set(right_cols))
        ).map_batches(tag_right, batch_format="pyarrow")
    )

    r_names = [f"_r_{src}" for src in right_cols]

    def join_bucket(group: pa.Table) -> pa.Table:
        # split sides while still Arrow: the left frame then converts to
        # pandas WITHOUT nulls in its own columns, so int64 stays int64
        # (mixed-side conversion promoted int columns to float64 and
        # silently rounded ids above 2^53)
        lt = group.filter(pc.equal(group["_side"], 0)).select(left_names)
        rt = group.filter(pc.equal(group["_side"], 1)).select([by, on] + r_names)
        if lt.num_rows == 0 or rt.num_rows == 0:
            return pa.Table.from_pylist([], schema=out_schema)
        def frame_exact(t: pa.Table, force_nullable: set) -> pd.DataFrame:
            # int columns become pandas Int64 straight from Arrow when they
            # can ever meet a null — a plain to_pandas() promotes to float64
            # (rounding ids above 2^53) and a later astype('Int64') only
            # freezes the corruption. The projected RIGHT columns must be
            # Int64 UNCONDITIONALLY: merge_asof itself injects NaN into
            # them for unmatched left rows, promoting even null-free int
            # columns mid-merge. The on/by KEY columns stay native (they
            # are null-free post-filter, and merge_asof requires matching
            # key dtypes on both sides).
            f = pd.DataFrame()
            for name in t.column_names:
                col = t[name]
                if pa.types.is_integer(col.type) and (
                    name in force_nullable or col.null_count > 0
                ) and name not in (on, by):
                    f[name] = pd.array(col.to_pylist(), dtype="Int64")
                else:
                    f[name] = col.to_pandas()
            return f

        lf = frame_exact(lt, set()).sort_values(on, kind="mergesort")
        rf = frame_exact(rt, set(r_names))
        # explicit match indicator: a matched right row whose projected
        # value is legitimately null must NOT look like "no match"
        rf["_matched"] = True
        # deterministic tie-break: among equal `on`, merge_asof takes the
        # LAST sorted row, so sort right by (on, values) -> max values win.
        # na_position='first' keeps null projected values BEFORE real ones
        # so a non-null max wins ties, matching SQL's NULLS-LAST DESC order
        rf = rf.sort_values([on] + r_names, kind="mergesort", na_position="first")
        m = pd.merge_asof(
            lf,
            rf,
            on=on,
            by=by,
            allow_exact_matches=not strict,
            direction="backward",
        )
        m = m[m["_matched"].notna()]
        out = pa.Table.from_pandas(m[left_names + r_names], preserve_index=False)
        return out.rename_columns(
            left_names + [right_cols[s] for s in right_cols]
        ).cast(out_schema)

    def finalize(batch: pa.Table) -> pa.Table:
        if set(out_schema.names) <= set(batch.column_names):
            return batch.select(out_schema.names).cast(out_schema)
        return pa.Table.from_pylist([], schema=out_schema)

    return (
        tagged.groupby("_b")
        .map_groups(join_bucket, batch_format="pyarrow")
        .map_batches(finalize, batch_format="pyarrow")
    )


def events_prior_purchase(sf_dir: str) -> ray.data.Dataset:
    """As-of self-join on the events log: each event matched to the same
    user's most recent STRICTLY-EARLIER 'purchase' event (events without a
    prior purchase drop out). The standard feature-engineering shape
    'state of X as of this event'."""
    events = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    left = events.select_columns(["event_id", "ts", "user_id"])

    def purchases(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.cast(batch["event_type"], pa.string()), "purchase")
        ).select(["user_id", "ts", "event_id"])

    right = events.map_batches(purchases, batch_format="pyarrow")
    return asof_join(
        left,
        right,
        on="ts",
        by="user_id",
        right_cols={"event_id": "prior_purchase_id"},
        strict=True,
    )


def hopping_window_agg(
    sf_dir: str, window_minutes: int = 60, hop_minutes: int = 30
) -> ray.data.Dataset:
    """Hopping (sliding) windows per event_type: each event contributes to
    ``window/hop`` overlapping windows. The fan-out happens per batch
    (vectorized epoch arithmetic, one frame per hop offset) followed by
    per-batch partial aggregation, so the shuffle moves (type, window)
    partial rows — event duplication never crosses the wire. ``window``
    must be a multiple of ``hop``.

    Epoch flooring is integer (ns // 1e9): mirror with epoch_us // 1e6 in
    SQL — DuckDB's DOUBLE->BIGINT cast ROUNDS, which shifts sub-second
    events into the wrong window."""
    from ray.data.aggregate import Sum

    window_s, hop_s = window_minutes * 60, hop_minutes * 60
    if window_s % hop_s:
        raise ValueError("window_minutes must be a multiple of hop_minutes")
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        epoch = df["ts"].astype("datetime64[ns]").astype("int64") // 10**9
        frames = []
        for k in range(window_s // hop_s):
            start = (epoch // hop_s) * hop_s - k * hop_s
            f = df[["event_type", "value"]].copy()
            f["window_start"] = pd.to_datetime(start, unit="s")
            frames.append(f)
        allf = pd.concat(frames, ignore_index=True)
        g = allf.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value", alias_name="sum_value"),
        )
        .sort(["event_type", "window_start"])
    )


def dedup_events(
    sf_dir_or_ds,
    window_seconds: int = 60,
    ts_col: str = "ts",
    key_cols: tuple = ("user_id", "event_type"),
    id_col: str = "event_id",
) -> ray.data.Dataset:
    """Debounce-dedup over an event stream: drop an event when the SAME
    key (default (user, event_type)) fired within ``window_seconds``
    BEFORE it — the double-click / retry / bounce cleaner in every event
    pipeline. Comparison is against the immediate RAW predecessor (SQL
    LAG semantics, ties ordered by (ts, id)); an event suppressed by a
    dropped predecessor is still dropped — the debounce convention, and
    the one with an exact one-window SQL form. Events with a null key
    column are dropped up front (the asof_join policy: no stream to
    debounce against; the oracle filters identically).

    Gaps compare in integer MICROSECONDS (timestamp[us] epoch view) —
    never float epoch seconds, which round (the DuckDB DOUBLE->BIGINT
    cast gotcha).

    Same co-partition shape as :func:`sessionize`: hash(user) buckets,
    one pandas sort + groupby-shift per bucket; only the key/ts/id
    columns shuffle.

    Output: kept events (id, ts, key cols, gap_us). ``gap_us`` is -1 for
    a key's first event — a sentinel, not NULL, because kept gaps are
    strictly positive (a zero/negative gap is by definition inside the
    window) and an int64 column stays int64 on every engine, where a
    nullable BIGINT reaches pandas as float and breaks value parity.
    """
    if isinstance(sf_dir_or_ds, str):
        ds = ray.data.read_parquet(
            f"{sf_dir_or_ds}/events.parquet",
            columns=[id_col, ts_col, *key_cols],
        )
    else:
        ds = sf_dir_or_ds
    keys = list(key_cols)

    def bucket(batch: pa.Table) -> pa.Table:
        # null-key events drop (the asof_join policy): a NULL key has no
        # stream to debounce against, and pandas-groupby vs SQL-window
        # NULL grouping disagree — the oracle filters identically
        mask = pc.is_valid(batch[keys[0]])
        for k in keys[1:]:
            mask = pc.and_(mask, pc.is_valid(batch[k]))
        batch = batch.filter(mask)
        return batch.append_column("_b", hash_bucket_column(batch, keys[0]))

    window_us = int(window_seconds) * 1_000_000

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        group = group.sort_values([*keys, ts_col, id_col])
        # normalize the storage unit BEFORE the integer view: a [s] or
        # [ns] column viewed raw would scale every gap by 1e6
        ts_us = group[ts_col].astype("datetime64[us]").astype("int64")
        prev = ts_us.groupby([group[k] for k in keys]).shift()
        gap = ts_us - prev
        keep = prev.isna() | (gap > window_us)
        out = group.loc[keep, [id_col, ts_col, *keys]].copy()
        out["gap_us"] = gap[keep].fillna(-1).astype("int64")
        return out

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(per_bucket, batch_format="pandas")
    )


def _valid_window_rows(
    batch: pa.Table, ts_col: str, key_col: str, window_us: int
) -> "tuple[pa.Table, pa.Array]":
    """The ONE windowed-op prologue (shared by every per-window partial
    here): drop null key/ts, Arrow SAFE cast to microseconds
    (sub-microsecond input raises rather than silently truncating — the
    precision policy), truncating integer window division (pc.divide ==
    DuckDB ``//``). Returns (filtered batch, window column)."""
    mask = pc.and_(pc.is_valid(batch[key_col]), pc.is_valid(batch[ts_col]))
    batch = batch.filter(mask)
    ts_us = pc.cast(pc.cast(batch[ts_col], pa.timestamp("us")), pa.int64())
    win = pc.divide(ts_us, pa.scalar(window_us, pa.int64()))
    return batch, win


def _windowed_count_partials(
    batch: pa.Table,
    ts_col: str,
    key_col: str,
    window_us: int,
    lead_col: str,
) -> pa.Table:
    """The ONE per-batch windowed-count partial recipe, shared by
    :func:`event_rate_anomaly` (groups (key, win), buckets on key) and
    :func:`trending_terms` (groups (win, key), buckets on win):
    the :func:`_valid_window_rows` prologue, then an Arrow group_by
    count. ``lead_col`` picks the leading group column, which is also
    the downstream shuffle-bucket column."""
    batch, win = _valid_window_rows(batch, ts_col, key_col, window_us)
    cols = {key_col: batch[key_col], "win": win}
    order = [lead_col, "win" if lead_col == key_col else key_col]
    t = pa.table({c: cols[c] for c in order})
    # aggregate() output column order is not relied upon: columns are
    # read back by name below
    agg = t.group_by(order).aggregate([([], "count_all")])
    out = pa.table(
        {
            order[0]: agg[order[0]],
            order[1]: agg[order[1]],
            "c": pc.cast(agg["count_all"], pa.int64()),
        }
    )
    return out.append_column("_b", hash_bucket_column(out, lead_col))


def event_rate_anomaly(
    sf_dir_or_ds,
    window_seconds: int = 3600,
    z_threshold: float = 2.0,
    ts_col: str = "ts",
    key_col: str = "user_id",
) -> ray.data.Dataset:
    """Per-key event-rate anomaly flags: bucket each key's events into
    fixed windows, then z-score every window against that key's own
    count distribution over its ACTIVE windows — the burst / bot / outage
    detector over an event log.

    Exactness layering (the oracle-parity recipe): the aggregate layer is
    ALL-INTEGER — window counts, Σc and Σc² per key sum exactly in int64
    regardless of reduction order — and the float layer is strictly
    per-row from those integers, with the expression tree written
    IDENTICALLY here and in the SQL (mean = sc/nw; var = sc2/nw - mean*
    mean, clamped at 0; z = (c - mean)/std, 0.0 when std = 0). np.round
    (half-even) pairs with round_even; ``is_anomaly`` compares the
    ROUNDED z against the threshold (the rendering rule: decisions read
    the value you output).

    Null key or null ts drops (the dedup_events policy; the oracle
    filters identically). Windows are integer epoch-microsecond
    divisions — pc.divide TRUNCATES toward zero exactly like DuckDB
    ``//`` (numpy ``//`` floors and would diverge on pre-1970 epochs),
    and never float epoch seconds. Scale shape: per-batch Arrow
    group_by pre-aggregates to distinct (key, window) partials, so the
    one hash(key) shuffle moves bounded partial rows, not events.

    Output: (key, win, n_events, z, is_anomaly) — one row per active
    window, is_anomaly = 1 when |z| > z_threshold.
    """
    if isinstance(sf_dir_or_ds, str):
        ds = ray.data.read_parquet(
            f"{sf_dir_or_ds}/events.parquet", columns=[key_col, ts_col]
        )
    else:
        ds = sf_dir_or_ds
    window_us = int(window_seconds) * 1_000_000

    def partials(batch: pa.Table) -> pa.Table:
        return _windowed_count_partials(
            batch, ts_col, key_col, window_us, lead_col=key_col
        )

    def score(group: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        merged = group.groupby([key_col, "win"], as_index=False)["c"].sum()
        stats = merged.groupby(key_col, as_index=False).agg(
            nw=("c", "size"), sc=("c", "sum"), sc2=("c", lambda s: (s * s).sum())
        )
        df = merged.merge(stats, on=key_col)
        c = df["c"].to_numpy(np.int64).astype(np.float64)
        nw = df["nw"].to_numpy(np.int64).astype(np.float64)
        sc = df["sc"].to_numpy(np.int64).astype(np.float64)
        sc2 = df["sc2"].to_numpy(np.int64).astype(np.float64)
        mean = sc / nw
        var = np.maximum(sc2 / nw - mean * mean, 0.0)
        std = np.sqrt(var)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(std > 0, (c - mean) / std, 0.0)
        z = np.round(z, 6)
        out = df[[key_col, "win"]].copy()
        out["n_events"] = df["c"].to_numpy(np.int64)
        out["z"] = z
        out["is_anomaly"] = (np.abs(z) > z_threshold).astype(np.int64)
        return out

    key_t = ds.schema().base_schema.field(key_col).type
    out_schema = pa.schema(
        [
            (key_col, key_t),
            ("win", pa.int64()),
            ("n_events", pa.int64()),
            ("z", pa.float64()),
            ("is_anomaly", pa.int64()),
        ]
    )
    from pdf_parser_ray.functions.tables import schema_pin

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(score, batch_format="pandas")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


def trending_terms(
    sf_dir_or_ds,
    window_seconds: int = 3600,
    k: int = 3,
    ts_col: str = "ts",
    key_col: str = "event_type",
) -> ray.data.Dataset:
    """Per-window top-k keys by count — the "trending now" query every
    event pipeline runs (heavy hitters per fixed window, exact because
    the per-window key universe is bounded after pre-aggregation).

    Scale shape: per-batch Arrow group_by pre-aggregates to distinct
    (window, key) partials — the event_rate_anomaly recipe — so the one
    hash(window) shuffle moves bounded partial rows, not events; the
    per-window rank cut happens inside the window's bucket. Everything
    is integer (counts, epoch-microsecond window division via pc.divide,
    which TRUNCATES exactly like DuckDB ``//``), so no float law at all.

    Null key or null ts drops (the dedup_events policy; the oracle
    filters identically). Ranks break count ties by key ascending —
    ROW_NUMBER semantics, dense ranks would hide the cut law.

    Output: (win, key, n_events, rank), rank 1..k per active window.
    """
    if isinstance(sf_dir_or_ds, str):
        ds = ray.data.read_parquet(
            f"{sf_dir_or_ds}/events.parquet", columns=[ts_col, key_col]
        )
    else:
        ds = sf_dir_or_ds
    window_us = int(window_seconds) * 1_000_000

    def partials(batch: pa.Table) -> pa.Table:
        return _windowed_count_partials(
            batch, ts_col, key_col, window_us, lead_col="win"
        )

    def rank_cut(group: pd.DataFrame) -> pd.DataFrame:
        merged = group.groupby(["win", key_col], as_index=False)["c"].sum()
        merged = merged.sort_values(
            ["win", "c", key_col], ascending=[True, False, True]
        )
        merged["rank"] = merged.groupby("win").cumcount() + 1
        out = merged[merged["rank"] <= k].copy()
        out = out.rename(columns={"c": "n_events"})
        return out[["win", key_col, "n_events", "rank"]]

    key_t = ds.schema().base_schema.field(key_col).type
    out_schema = pa.schema(
        [
            ("win", pa.int64()),
            (key_col, key_t),
            ("n_events", pa.int64()),
            ("rank", pa.int64()),
        ]
    )
    from pdf_parser_ray.functions.tables import schema_pin

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(rank_cut, batch_format="pandas")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


def funnel_conversion(
    sf_dir_or_ds,
    step_a: str = "view",
    step_b: str = "purchase",
    horizon_seconds: int = 86400,
    ts_col: str = "ts",
    key_col: str = "user_id",
    type_col: str = "event_type",
) -> ray.data.Dataset:
    """Two-step funnel: for every user who performed ``step_a``, did
    their first ``step_b`` STRICTLY AFTER that first A land within the
    horizon? The conversion query behind every product-analytics
    dashboard, and a sequential-pattern op the relational family lacks.

    The law (written as the oracle computes it): ta = the user's MIN A
    timestamp; tb = the user's MIN B timestamp with tb > ta (strict —
    a same-microsecond B is not "after"); converted = 1 iff tb exists
    and tb - ta <= horizon. One output row per user WITH an A event;
    users with B-only activity don't enter the funnel. tb renders -1
    when no qualifying B exists (the dedup_events sentinel rationale:
    real tb is non-negative epoch-us on any post-1970 log, and int64
    stays int64; ``converted`` reads B's existence, never the sentinel,
    so a genuinely pre-1970 tb still flags correctly — only its RENDERED
    value can collide at exactly -1 us, the same collision the oracle's
    COALESCE(tb, -1) has).

    Null user/ts rows drop (the dedup_events policy; oracle filters
    identically). Timestamps compare in integer MICROSECONDS.

    Scale shape: the type filter prunes to A/B rows per batch BEFORE
    the one hash(user) shuffle; per-bucket work is two vectorized
    groupby-mins and one merge — no per-user Python.
    """
    if isinstance(sf_dir_or_ds, str):
        ds = ray.data.read_parquet(
            f"{sf_dir_or_ds}/events.parquet",
            columns=[key_col, ts_col, type_col],
        )
    else:
        ds = sf_dir_or_ds
    horizon_us = int(horizon_seconds) * 1_000_000

    def bucket(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(pc.is_valid(batch[key_col]), pc.is_valid(batch[ts_col])),
            pc.is_in(
                batch[type_col],
                value_set=pa.array([step_a, step_b], pa.string()),
            ),
        )
        batch = batch.filter(mask)
        # normalize to microseconds at the ARROW layer: the safe cast
        # raises on sub-microsecond input instead of silently truncating
        # (the _windowed_count_partials precision policy)
        batch = batch.set_column(
            batch.schema.get_field_index(ts_col),
            ts_col,
            pc.cast(batch[ts_col], pa.timestamp("us")),
        )
        return batch.append_column("_b", hash_bucket_column(batch, key_col))

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        ts_us = group[ts_col].astype("datetime64[us]").astype("int64")
        is_a = group[type_col] == step_a
        # B selects by its OWN label, never as A's complement: a same-type
        # funnel (step_a == step_b, "second view within the horizon") must
        # classify every row as both an A and a B candidate
        is_b = group[type_col] == step_b
        ta = (
            ts_us[is_a]
            .groupby(group.loc[is_a, key_col])
            .min()
            .rename("ta_us")
            .reset_index()
        )
        b = pd.DataFrame(
            {key_col: group.loc[is_b, key_col], "tb": ts_us[is_b]}
        ).merge(ta, on=key_col)
        b = b[b["tb"] > b["ta_us"]]
        tb = b.groupby(key_col, as_index=False)["tb"].min()
        # nullable Int64 BEFORE the left merge: unmatched rows would
        # otherwise float64 the whole column and corrupt tb past 2^53
        # (the asof_join / pagerank NaN-promotion class)
        tb["tb"] = tb["tb"].astype("Int64")
        out = ta.merge(tb, on=key_col, how="left")
        # the flag reads B's EXISTENCE (the oracle's IS NOT NULL), not the
        # rendered sentinel — a pre-1970 tb is negative yet perfectly real
        has_b = out["tb"].notna()
        out["tb_us"] = out["tb"].fillna(-1).astype("int64")
        out["converted"] = (
            has_b & (out["tb_us"] - out["ta_us"] <= horizon_us)
        ).astype("int64")
        return out[[key_col, "ta_us", "tb_us", "converted"]]

    key_t = ds.schema().base_schema.field(key_col).type
    out_schema = pa.schema(
        [
            (key_col, key_t),
            ("ta_us", pa.int64()),
            ("tb_us", pa.int64()),
            ("converted", pa.int64()),
        ]
    )
    from pdf_parser_ray.functions.tables import schema_pin

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(per_bucket, batch_format="pandas")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )


def cohort_retention(
    sf_dir_or_ds,
    window_seconds: int = 86400,
    ts_col: str = "ts",
    key_col: str = "user_id",
) -> ray.data.Dataset:
    """Cohort retention matrix: group users by the window of their FIRST
    event (the cohort), then count how many of each cohort are active
    again ``offset`` windows later — the standard growth-analytics
    triangle, and the repo's sequential-aggregation sibling to
    :func:`funnel_conversion`.

    All-integer law (no float anywhere): win = truncating integer
    epoch-us division (:func:`_windowed_count_partials` policy), cohort
    = the user's min win, one row per (cohort, win_offset) with
    n_users = distinct users from that cohort active at that offset.
    Null user/ts drop (the dedup_events policy; oracle filters
    identically). Offset 0 is the cohort's size by construction.

    Scale shape: per-batch Arrow group_by collapses events to distinct
    (user, window) partials BEFORE the hash(user) shuffle; because
    buckets partition USERS, each bucket's (cohort, offset) counts are
    over disjoint user sets, so the final merge is a tiny Sum groupby
    over at most buckets x cohorts x offsets partial rows — events
    cross the wire never, user-window pairs once.

    Output: (cohort, win_offset, n_users).
    """
    from ray.data.aggregate import Sum

    if isinstance(sf_dir_or_ds, str):
        ds = ray.data.read_parquet(
            f"{sf_dir_or_ds}/events.parquet", columns=[key_col, ts_col]
        )
    else:
        ds = sf_dir_or_ds
    window_us = int(window_seconds) * 1_000_000

    def partials(batch: pa.Table) -> pa.Table:
        # the shared recipe's count column is unused here — the partial
        # IS the distinct (user, window) pair set
        return _windowed_count_partials(
            batch, ts_col, key_col, window_us, lead_col=key_col
        )

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        pairs = group[[key_col, "win"]].drop_duplicates().copy()
        pairs["cohort"] = pairs.groupby(key_col)["win"].transform("min")
        pairs["win_offset"] = pairs["win"] - pairs["cohort"]
        return pairs.groupby(["cohort", "win_offset"], as_index=False).agg(
            n=(key_col, "size")
        )

    from pdf_parser_ray.functions.tables import schema_pin

    out_schema = pa.schema(
        [
            ("cohort", pa.int64()),
            ("win_offset", pa.int64()),
            ("n_users", pa.int64()),
        ]
    )
    merged = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(per_bucket, batch_format="pandas")
        .groupby(["cohort", "win_offset"])
        .aggregate(Sum("n", alias_name="n_users"))
    )
    return merged.map_batches(schema_pin(out_schema), batch_format="pyarrow")


def windowed_distinct(
    sf_dir_or_ds,
    col: str = "user_id",
    window_seconds: int = 86400,
    p: int = 10,
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """Per-window approximate distinct count (daily-active-users): one
    HyperLogLog sketch per fixed event-time window — the windowed
    sibling of ops/relational.approx_distinct, with the same md5-64
    register law (Flajolet et al. 2007) so the SQL oracle reproduces
    the EXACT estimate.

    Exactness hardening over the global op: the harmonic term sums as
    an INTEGER — each 2^-rho is 2^(R-rho)/2^R, so Σ is one exact int
    (DuckDB: SUM(1::BIGINT << (R - rho)), HUGEINT) divided by 2^R with
    ONE rounding at the cast — float summation order can round multiples
    of 2^-R that need more than 53 significant bits, and SQL SUM order
    is arbitrary. Python mirrors with float(S) / 2.0**R (float() first:
    int/int true division rounds the exact rational, which can differ
    from cast-then-divide by one ulp).

    Null key or null ts drops (the dedup_events policy). Scale shape:
    per-batch register partials — at most windows_in_batch x 2^p rows
    regardless of batch size — one (win, b) Max merge, then a per-window
    estimator over ≤ 2^p register rows via groupby(win).

    Output: (win, n_estimate rounded-2, n_buckets_used).
    """
    import math

    from ray.data.aggregate import Max

    from pdf_parser_ray.functions.hashing import hll_register

    if isinstance(sf_dir_or_ds, str):
        ds = ray.data.read_parquet(
            f"{sf_dir_or_ds}/events.parquet", columns=[col, ts_col]
        )
    else:
        # project before the per-row register loop: a wide events table
        # would otherwise copy every payload column through the filter
        ds = sf_dir_or_ds.select_columns([col, ts_col])
    window_us = int(window_seconds) * 1_000_000
    m = 1 << p
    w_bits = 64 - p
    rho0 = w_bits + 1

    def partial(batch: pa.Table) -> pa.Table:
        batch, win_col = _valid_window_rows(batch, ts_col, col, window_us)
        regs: dict[tuple[int, int], int] = {}
        for win, v in zip(win_col.to_pylist(), batch[col].to_pylist()):
            b, rho = hll_register(v, w_bits)
            if rho > regs.get((win, b), 0):
                regs[(win, b)] = rho
        return pa.table(
            {
                "win": pa.array([k[0] for k in regs], pa.int64()),
                "b": pa.array([k[1] for k in regs], pa.int32()),
                "rho": pa.array(list(regs.values()), pa.int32()),
            }
        )

    m_f = float(m)
    alpha_mm = (0.7213 / (1.0 + 1.079 / m)) * m_f * m_f

    def estimate(group: pd.DataFrame) -> pd.DataFrame:
        out = []
        for win, g in group.groupby("win"):
            rhos = g["rho"].to_numpy()
            n_used = len(rhos)
            zeros = m - n_used
            s_num = sum(1 << (rho0 - int(r)) for r in rhos) + (
                zeros << rho0
            )
            harmonic = float(s_num) / 2.0**rho0
            raw = alpha_mm / harmonic
            if raw <= 2.5 * m and zeros > 0:
                raw = m_f * math.log(m_f / zeros)
            out.append(
                {
                    "win": int(win),
                    "n_estimate": float(f"{raw:.2f}"),
                    "n_buckets_used": n_used,
                }
            )
        return pd.DataFrame(
            out, columns=["win", "n_estimate", "n_buckets_used"]
        )

    from pdf_parser_ray.functions.tables import schema_pin

    out_schema = pa.schema(
        [
            ("win", pa.int64()),
            ("n_estimate", pa.float64()),
            ("n_buckets_used", pa.int64()),
        ]
    )
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["win", "b"])
        .aggregate(Max("rho", alias_name="rho"))
        .groupby("win")
        .map_groups(estimate, batch_format="pandas")
        .map_batches(schema_pin(out_schema), batch_format="pyarrow")
    )
