"""The per-input-file resumable store (state/fragments.py): crash windows
driven through the simplest client (a fragment's data is its own rows),
and stores laid out by the band store / text index before the engine
existed, which must resume with zero work."""

import fcntl
import glob
import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from pdf_parser_ray.state.fragments import open_store


def _write(tmp_path, name, ids):
    p = str(tmp_path / name)
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), p)
    return p


def _update(files, store, build=None):
    with open_store(store, "data/{key}", files, {}) as s:
        s.commit(build or (lambda path: ray.data.read_parquet(path)))
    return s


def _key(path):
    return hashlib.md5(os.path.abspath(path).encode()).hexdigest()[:16]


def _stored_ids(store):
    files = glob.glob(os.path.join(store, "data", "*", "*.parquet"))
    return sorted(i for f in files for i in pq.read_table(f)["doc_id"].to_pylist())


def test_orphan_data_dir_is_removed_and_rebuilt(ray_session, tmp_path):
    f0 = _write(tmp_path, "f0.parquet", [1, 2])
    f1 = _write(tmp_path, "f1.parquet", [3])
    store = str(tmp_path / "store")
    _update([f0, f1], store)
    # crash between rename and manifest: f1's data is there, its manifest
    # is not; junk in that dir shows whether it was removed or reused
    os.remove(os.path.join(store, "_manifest", f"{_key(f1)}.json"))
    pq.write_table(
        pa.table({"doc_id": pa.array([99], pa.int64())}),
        os.path.join(store, "data", _key(f1), "junk.parquet"),
    )
    s = _update([f0, f1], store)
    assert s.stale == [os.path.abspath(f1)] and s.n_resumed == 1
    assert _stored_ids(store) == [1, 2, 3]
    assert os.path.exists(os.path.join(store, "_manifest", f"{_key(f1)}.json"))


def test_leftover_staging_removed_on_zero_work_resume(ray_session, tmp_path):
    f0 = _write(tmp_path, "f0.parquet", [1])
    store = str(tmp_path / "store")
    _update([f0], store)
    staged = os.path.join(store, "_staging", f"fragment={_key(f0)}")
    os.makedirs(staged)
    open(os.path.join(staged, "part.parquet"), "w").close()
    s = _update([f0], store)
    assert s.stale == [] and s.n_resumed == 1
    assert not os.path.exists(os.path.join(store, "_staging"))
    assert _stored_ids(store) == [1]


def test_dropped_file_loses_manifest_and_data(ray_session, tmp_path):
    f0 = _write(tmp_path, "f0.parquet", [1])
    f1 = _write(tmp_path, "f1.parquet", [2])
    store = str(tmp_path / "store")
    _update([f0, f1], store)
    s = _update([f0], store)
    assert s.stale == [] and s.files == [os.path.abspath(f0)]
    assert not os.path.exists(os.path.join(store, "_manifest", f"{_key(f1)}.json"))
    assert not os.path.exists(os.path.join(store, "data", _key(f1)))
    assert _stored_ids(store) == [1]


def test_empty_fragment_commits_manifest_only(ray_session, tmp_path):
    f0 = _write(tmp_path, "f0.parquet", [1])
    empty = _write(tmp_path, "empty.parquet", [])
    store = str(tmp_path / "store")
    s = _update([f0, empty], store)
    assert len(s.stale) == 2
    assert os.path.exists(os.path.join(store, "_manifest", f"{_key(empty)}.json"))
    assert not os.path.exists(os.path.join(store, "data", _key(empty)))
    s = _update([f0, empty], store)
    assert s.stale == [] and s.n_resumed == 2
    assert _stored_ids(store) == [1]


def test_lock_held_for_whole_update(ray_session, tmp_path):
    f0 = _write(tmp_path, "f0.parquet", [1])
    store = str(tmp_path / "store")
    lock = os.path.join(store, ".lock")

    def lock_is_taken():
        # flock locks belong to an open file description: a second open()
        # in this process conflicts with the store's own
        with open(lock) as f:
            try:
                fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                return True
            fcntl.flock(f, fcntl.LOCK_UN)
            return False

    seen = []

    def build(path):
        seen.append(lock_is_taken())
        return ray.data.read_parquet(path)

    with open_store(store, "data/{key}", [f0], {}) as s:
        seen.append(lock_is_taken())  # the client's own pre-build work
        s.commit(build)
        seen.append(lock_is_taken())  # and its post-commit writes
    assert seen == [True, True, True]
    assert not lock_is_taken()


def _parent_manifest(path, **params):
    st = os.stat(path)
    return {
        "path": os.path.abspath(path),
        "size": st.st_size,
        "mtime_ns": st.st_mtime_ns,
        **params,
    }


def test_parent_band_store_resumes_with_zero_work(ray_session, tmp_path):
    from pdf_parser_ray.ops.dedup import read_band_store, update_band_store

    f0 = str(tmp_path / "f0.parquet")
    pq.write_table(
        pa.table({"doc_id": ["a"], "text": ["one two three four five six"]}), f0
    )
    store = str(tmp_path / "bands_store")
    # bands/<key>/ + _manifest/<key>.json, manifest keys exactly as the
    # pre-engine band store wrote them; sentinel rows prove no rebuild
    sentinel = pa.table(
        {
            "doc_id": pa.array(["a"], pa.string()),
            "band_id": pa.array([7], pa.int32()),
            "band_hash": pa.array([12345], pa.int64()),
        }
    )
    os.makedirs(os.path.join(store, "bands", _key(f0)))
    os.makedirs(os.path.join(store, "_manifest"))
    pq.write_table(sentinel, os.path.join(store, "bands", _key(f0), "p.parquet"))
    with open(os.path.join(store, "_manifest", f"{_key(f0)}.json"), "w") as f:
        json.dump(
            _parent_manifest(f0, num_perm=64, band_size=4, shingle_size=5), f
        )
    s = update_band_store([f0], store)
    assert s == {"files_total": 1, "files_hashed_now": 0, "files_skipped_resume": 1}
    got = read_band_store(store).select_columns(sentinel.column_names).take_all()
    assert got == sentinel.to_pylist()


def test_parent_text_index_resumes_with_zero_work(ray_session, tmp_path):
    from pdf_parser_ray.functions.hashing import md5_bucket
    from pdf_parser_ray.ops.retrieval import (
        bm25_index_top_docs,
        bm25_top_docs,
        update_text_index,
    )

    n_buckets = 4
    corpus = pa.table(
        {"doc_id": pa.array([1], pa.int64()), "text": ["cat dog cat"]}
    )
    f0 = str(tmp_path / "f0.parquet")
    pq.write_table(corpus, f0)
    idx = str(tmp_path / "tincr_idx")
    frag = os.path.join(idx, "postings", f"frag={_key(f0)}")
    # postings/frag=<key>/bucket=<b>/: one row per (term, doc) plus the
    # stats row (1 doc, 3 tokens) in bucket n_buckets
    rows = [("cat", 1, 2, 3, md5_bucket("cat", n_buckets)),
            ("dog", 1, 1, 3, md5_bucket("dog", n_buckets)),
            (None, None, 1, 3, n_buckets)]
    for term, doc, tf, dl, b in rows:
        d = os.path.join(frag, f"bucket={b}")
        os.makedirs(d, exist_ok=True)
        pq.write_table(
            pa.table(
                {
                    "term": pa.array([term], pa.string()),
                    "doc": pa.array([doc], pa.int64()),
                    "tf": pa.array([tf], pa.int64()),
                    "dl": pa.array([dl], pa.int64()),
                }
            ),
            os.path.join(d, f"hand-{term}.parquet"),
        )
    os.makedirs(os.path.join(idx, "_manifest"))
    params = {"n_buckets": n_buckets, "id_col": "doc_id", "text_col": "text"}
    with open(os.path.join(idx, "_manifest", f"{_key(f0)}.json"), "w") as f:
        json.dump({**_parent_manifest(f0, **params), "n_docs": 1, "dl_total": 3}, f)
    with open(os.path.join(idx, "meta.json"), "w") as f:
        json.dump(
            {**params, "id_type": "int64", "n_docs": 1, "dl_total": 3,
             "incremental": True},
            f,
        )
    hand = sorted(glob.glob(os.path.join(frag, "*", "*.parquet")))
    s = update_text_index([f0], idx, n_buckets=n_buckets)
    assert s == {"files_total": 1, "files_indexed_now": 0, "files_skipped_resume": 1}
    assert sorted(glob.glob(os.path.join(frag, "*", "*.parquet"))) == hand
    for terms in (["cat"], ["dog", "cat"]):
        served = bm25_index_top_docs(idx, terms, k=5).to_pandas()
        scan = bm25_top_docs(ray.data.from_arrow(corpus), terms, k=5).to_pandas()
        assert served.equals(scan)


def test_two_spellings_of_one_path_are_one_fragment(ray_session, tmp_path):
    f0 = _write(tmp_path, "f0.parquet", [1])
    store = str(tmp_path / "store")
    s = _update([f0, os.path.join(str(tmp_path), ".", "f0.parquet")], store)
    assert s.files == [os.path.abspath(f0)] and len(s.stale) == 1
    assert _stored_ids(store) == [1]
