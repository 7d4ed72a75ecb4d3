"""Local simulation of the driver's correctness gate: run each
__ray_entry__ query at a given sf and compare to its DuckDB oracle
(row count, column names, order-insensitive value hash).

Queries whose semantics have no SQL closed form compare against a
committed golden fixture instead (tests/fixtures/<name>_<sf>.json,
produced by the matching scripts/make_*_fixture.py single-process
oracle) — same row/column/hash gate, different oracle source."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import duckdb
import pandas as pd

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
ONLY = sys.argv[2:] or None

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_ORACLES = {"validation_summary": "validation_summary_{sf}.json"}


def fixture_frame(name: str) -> "pd.DataFrame | None":
    tmpl = FIXTURE_ORACLES.get(name)
    if tmpl is None:
        return None
    path = os.path.join(
        _REPO,
        "tests",
        "fixtures",
        tmpl.format(sf=os.path.basename(SF_DIR.rstrip("/"))),
    )
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return pd.DataFrame([json.load(f)])

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.apply("|".join, axis=1).tolist()) if len(df) else []
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, _REPO)
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if ONLY and name not in ONLY:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(SF_DIR))
        except Exception as e:
            print(f"ERROR  {name}: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        want_fx = fixture_frame(name)
        if name in oracles or want_fx is not None:
            want = con.execute(oracles[name]).df() if name in oracles else want_fx
            ok_rows = len(got) == len(want)
            ok_cols = sorted(got.columns) == sorted(want.columns)
            ok_vals = ok_rows and ok_cols and value_hash(got) == value_hash(want)
            status = "PASS" if ok_vals else "FAIL"
            if status == "FAIL":
                print(
                    f"{status}   {name}: rows {len(got)} vs {len(want)}, "
                    f"cols {sorted(got.columns)} vs {sorted(want.columns)} ({dt:.1f}s)"
                )
                if ok_rows and ok_cols:
                    merged = got[sorted(got.columns)].round(6)
                    print("  got :", merged.head(3).to_dict("records"))
                    print("  want:", want[sorted(want.columns)].round(6).head(3).to_dict("records"))
                n_fail += 1
            else:
                print(f"{status}   {name}: {len(got)} rows ({dt:.1f}s)")
                n_pass += 1
        else:
            print(f"ROWS   {name}: {len(got)} rows ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
