"""Per-input-file resumable state: the one engine behind the MinHash band
store (``ops.dedup.update_band_store``) and the incremental text index
(``ops.retrieval.update_text_index``).

Layout under ``store_dir``::

    <data_dir with key>/...      # a fragment's committed data (client layout)
    _manifest/<key>.json         # signature + client fields, written LAST
    _staging/                    # one chunk's output before the renames
    .lock                        # flock held for the whole update

A fragment is one input file. Its key is the md5 of its absolute path
(first 16 hex characters); its signature is (path, size, mtime_ns) plus the
client's parameter dict. A fragment is committed iff its manifest carries
its current signature; every other listed file is stale and rebuilt, so a
re-run after a kill, or with files appended, builds only what is missing,
and a changed parameter rebuilds everything.

One store serves ONE file list: manifests of files no longer listed
(ghosts) are removed with their data, and so is any data dir without a
manifest (an orphan: a crash between rename and manifest, or a stale
fragment about to be rebuilt). A client therefore never reads data whose
manifest does not describe it.
"""

from __future__ import annotations

import contextlib
import fcntl
import glob
import hashlib
import json
import os
import shutil
from typing import Any, Callable, Iterator, Optional, Sequence

import pyarrow as pa
import ray.data

MANIFEST_DIR = "_manifest"
STAGING_DIR = "_staging"
# stale fragments built per execution: the streaming executor runs the
# branches of a union concurrently, so a 10k-fragment cold start is ~10k/16
# executions instead of 10k sequential ones; the chunk bounds how many
# actor pools one execution holds
CHUNK_SIZE = 16
_FRAG_COL = "fragment"


def write_json_atomic(path: str, payload: dict[str, Any]) -> None:
    """tmp + os.replace: a manifest's existence marks its partition or
    fragment complete, so a crash mid-write must not leave a truncated
    JSON that poisons resume."""
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


def fragment_key(path: str) -> str:
    return hashlib.md5(os.path.abspath(path).encode()).hexdigest()[:16]


@contextlib.contextmanager
def dir_lock(directory: str) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``<directory>/.lock`` for the ``with``
    block; a second holder, in any process, waits until the first leaves."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, ".lock"), "w") as lock_f:
        fcntl.flock(lock_f, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_f, fcntl.LOCK_UN)


@contextlib.contextmanager
def open_store(
    store_dir: str, data_dir: str, files: Sequence[str], params: dict[str, Any]
) -> Iterator["FragmentStore"]:
    """Hold the store's :func:`dir_lock` for the whole ``with`` block and
    yield the scanned :class:`FragmentStore`. Every mutation — the
    client's own guards and files included — belongs inside the block:
    two runs against one store would otherwise interleave a prune or
    write with the other's manifest check. (A reader racing a later
    update is the caller's concern.)"""
    with dir_lock(store_dir):
        yield FragmentStore(store_dir, data_dir, files, params)


class FragmentStore:
    """One scan of a store against a file list; :meth:`commit` brings the
    store in line with it.

    ``data_dir`` is the path, relative to ``store_dir``, of one fragment's
    data, with ``{key}`` in its last component (``"bands/{key}"``).
    Scanning reads manifests only — no input file is opened — so a
    client can inspect :attr:`stale` before anything is built."""

    def __init__(
        self,
        store_dir: str,
        data_dir: str,
        files: Sequence[str],
        params: dict[str, Any],
    ):
        self.store_dir = store_dir
        self._data_dir = data_dir
        # one entry per absolute path: the same file listed twice would be
        # two stale entries sharing a key, and the second commit would
        # delete the data the first had just renamed in
        self.files = list(dict.fromkeys(os.path.abspath(p) for p in files))
        self._sigs: dict[str, dict[str, Any]] = {}
        self.stale: list[str] = []
        for path in self.files:
            st = os.stat(path)
            sig = {
                "path": path,
                "size": st.st_size,
                # nanosecond mtime: a same-size rewrite within one second
                # must not pass for the committed fragment
                "mtime_ns": st.st_mtime_ns,
                **params,
            }
            self._sigs[path] = sig
            have = self._read_manifest(fragment_key(path))
            if have is None or {k: have.get(k) for k in sig} != sig:
                self.stale.append(path)
        self.n_resumed = len(self.files) - len(self.stale)

    def _manifest_path(self, key: str) -> str:
        return os.path.join(self.store_dir, MANIFEST_DIR, f"{key}.json")

    def _data_path(self, key: str) -> str:
        return os.path.normpath(
            os.path.join(self.store_dir, self._data_dir.format(key=key))
        )

    def _read_manifest(self, key: str) -> Optional[dict[str, Any]]:
        try:
            with open(self._manifest_path(key)) as f:
                return json.load(f)
        except FileNotFoundError:
            return None

    def _manifest_keys(self) -> list[str]:
        pattern = os.path.join(self.store_dir, MANIFEST_DIR, "*.json")
        return sorted(
            os.path.splitext(os.path.basename(m))[0] for m in glob.glob(pattern)
        )

    def manifests(self) -> list[dict[str, Any]]:
        """Every committed fragment's manifest."""
        return [self._read_manifest(k) for k in self._manifest_keys()]

    def commit(
        self,
        build: Callable[[str], ray.data.Dataset],
        partition_cols: Sequence[str] = (),
        extra: Optional[Callable[[str], dict[str, Any]]] = None,
    ) -> None:
        """Prune, then build and commit every stale fragment.

        ``build(path)`` returns the fragment's rows; ``partition_cols``
        lays them out under its data dir (hive style). Stale fragments
        are built CHUNK_SIZE at a time as one union written to a staging
        dir partitioned by fragment; each fragment's partition is then
        renamed into place and its manifest written last, so a crash
        loses at most the fragments whose manifest is missing.
        ``extra(data_dir)`` adds fields computed from the committed data
        to the manifest. An empty fragment writes no data: its manifest
        alone records it."""
        os.makedirs(os.path.join(self.store_dir, MANIFEST_DIR), exist_ok=True)
        keep = {fragment_key(p) for p in self.files} - {
            fragment_key(p) for p in self.stale
        }
        for key in self._manifest_keys():
            if key not in keep:
                os.remove(self._manifest_path(key))
        committed = {self._data_path(k) for k in self._manifest_keys()}
        for d in glob.glob(self._data_path("*")):
            if d not in committed:
                shutil.rmtree(d)
        staging = os.path.join(self.store_dir, STAGING_DIR)
        # also on a zero-work resume: a crash after the last manifest but
        # before the trailing cleanup leaves a staging dir behind
        shutil.rmtree(staging, ignore_errors=True)
        for i in range(0, len(self.stale), CHUNK_SIZE):
            chunk = self.stale[i : i + CHUNK_SIZE]
            branches = [_tagged(build(p), fragment_key(p)) for p in chunk]
            ds = branches[0]
            if len(branches) > 1:  # a one-input union is still a Union op
                ds = ds.union(*branches[1:])
            ds.write_parquet(staging, partition_cols=[_FRAG_COL, *partition_cols])
            for path in chunk:
                key = fragment_key(path)
                out = self._data_path(key)
                staged = os.path.join(staging, f"{_FRAG_COL}={key}")
                if os.path.isdir(staged):
                    os.makedirs(os.path.dirname(out), exist_ok=True)
                    os.rename(staged, out)  # same filesystem: atomic move
                manifest = dict(self._sigs[path])
                if extra is not None:
                    manifest.update(extra(out))
                write_json_atomic(self._manifest_path(key), manifest)
            shutil.rmtree(staging, ignore_errors=True)


def _tagged(ds: ray.data.Dataset, key: str) -> ray.data.Dataset:
    return ds.map_batches(
        lambda t: t.append_column(
            _FRAG_COL, pa.array([key] * t.num_rows, pa.string())
        ),
        batch_format="pyarrow",
    )
