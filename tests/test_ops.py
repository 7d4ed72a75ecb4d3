"""Ops tests: dedup (planted duplicates), similarity, text analysis,
multimodal stub plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pdf_parser_ray.ops import dedup, multimodal, similarity, text_analysis


@pytest.fixture(scope="module")
def docs_with_dups(ray_session):
    base = (
        "the quick brown fox jumps over the lazy dog again and again "
        "while the observer counts tokens for the training corpus pipeline"
    )
    rows = [
        {"doc_id": "a1", "text": base},
        {"doc_id": "a2", "text": base},  # exact dup of a1
        {"doc_id": "b1", "text": base + " with one extra tail sentence added"},  # near dup
        {"doc_id": "c1", "text": "completely different content about databases and storage engines layered"},
        {"doc_id": "d1", "text": "short text"},
    ]
    return ray.data.from_items(rows)


def test_exact_dedup(docs_with_dups):
    out = dedup.exact_dedup(docs_with_dups).to_pandas()
    assert len(out) == 4
    assert "a1" in set(out.doc_id) and "a2" not in set(out.doc_id)


def test_exact_dedup_ids_matches_text_route(ray_session, docs_with_dups):
    """The hash-only id route keeps exactly the ids the text-comparing
    route keeps — including the null-vs-empty-text distinction (SQL
    GROUP BY keeps NULL its own group)."""
    want = sorted(dedup.exact_dedup(docs_with_dups).to_pandas().doc_id)
    got = sorted(dedup.exact_dedup_ids(docs_with_dups).to_pandas().doc_id)
    assert got == want

    rows = [
        {"doc_id": 1, "text": None},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": None},  # dup of 1, NOT of 2
        {"doc_id": 4, "text": ""},  # dup of 2
    ]
    ds = ray.data.from_items(rows)
    got2 = sorted(dedup.exact_dedup_ids(ds).to_pandas().doc_id)
    assert got2 == [1, 2]


def test_minhash_finds_planted_near_dup(docs_with_dups):
    pairs = dedup.minhash_candidate_pairs(docs_with_dups, num_perm=64, band_size=4)
    verified = dedup.verify_pairs_jaccard(pairs, docs_with_dups, threshold=0.5).to_pandas()
    got = {tuple(sorted((r.doc_a, r.doc_b))) for r in verified.itertuples()}
    assert ("a1", "a2") in got
    assert ("a1", "b1") in got or ("a2", "b1") in got
    assert all("c1" not in p and "d1" not in p for p in got)


def test_one_md5_hashing_module():
    """md5's 64-bit integer is spelled out in functions/hashing.py only:
    md5_u64 is the 8 leading digest bytes big-endian, md5_64 that >> 1, and
    no other module of the package converts a digest itself."""
    import hashlib
    import pathlib

    from pdf_parser_ray.functions import hashing

    for s in ("", "doc-0", "é文"):
        want = int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
        assert (hashing.md5_u64(s), hashing.md5_64(s)) == (want, want >> 1)
    home = pathlib.Path(hashing.__file__)
    package = home.parent.parent
    spelled = [
        str(p.relative_to(package))
        for p in sorted(package.rglob("*.py"))
        if p != home and "int.from_bytes(hashlib.md5(" in p.read_text(encoding="utf-8")
    ]
    assert spelled == []


def test_ngram_jaccard_scalar():
    assert dedup.ngram_jaccard("a b c d e f", "a b c d e f") == 1.0
    assert dedup.ngram_jaccard("a b c d e f", "x y z w v u") == 0.0
    assert dedup.ngram_jaccard("", "") == 0.0


def test_ngram_jaccard_pairs_exact_all_pairs(docs_with_dups):
    """The inverted-index pipeline equals brute-force scalar Jaccard on
    every pair above threshold — it is EXACT, so it is also a superset of
    the MinHash-verified pair set at the same threshold."""
    out = dedup.ngram_jaccard_pairs(docs_with_dups, threshold=0.3).to_pandas()
    got = {(r.doc_a, r.doc_b): r.jaccard for r in out.itertuples()}

    rows = docs_with_dups.to_pandas()
    want = {}
    for i in range(len(rows)):
        for k in range(i + 1, len(rows)):
            a, b = rows.iloc[i], rows.iloc[k]
            pair = tuple(sorted((a.doc_id, b.doc_id)))
            j = dedup.ngram_jaccard(a.text, b.text)
            if j >= 0.3:
                want[pair] = round(float(j), 6)
    assert got == want
    assert ("a1", "a2") in got and got[("a1", "a2")] == 1.0

    mh = dedup.verify_pairs_jaccard(
        dedup.minhash_candidate_pairs(docs_with_dups), docs_with_dups, threshold=0.3
    ).to_pandas()
    assert {(r.doc_a, r.doc_b) for r in mh.itertuples()} <= set(got)


def test_ngram_jaccard_pairs_max_df_guard(ray_session):
    """max_df drops hot grams: two docs overlapping ONLY via a gram shared
    by every doc lose that pair; genuinely near-dup pairs survive."""
    boiler = "copyright footer boilerplate navigation menu"
    rows = [
        {"doc_id": f"p{i}", "text": f"unique body {i} " * 3 + boiler}
        for i in range(6)
    ]
    rows.append({"doc_id": "q1", "text": "real duplicate content sentence here body"})
    rows.append({"doc_id": "q2", "text": "real duplicate content sentence here body"})
    ds = ray.data.from_items(rows)
    capped = dedup.ngram_jaccard_pairs(ds, threshold=0.05, max_df=3).to_pandas()
    pairs = {(r.doc_a, r.doc_b) for r in capped.itertuples()}
    assert ("q1", "q2") in pairs
    assert not any(a.startswith("p") for a, _ in pairs)


def test_simhash_near_for_similar(docs_with_dups):
    out = dedup.simhash_table(docs_with_dups).to_pandas().set_index("doc_id")
    assert out.loc["a1", "simhash"] == out.loc["a2", "simhash"]
    ham = bin(int(out.loc["a1", "simhash"]) ^ int(out.loc["b1", "simhash"])).count("1")
    assert ham <= 8  # near-dup -> small hamming distance
    # banding co-locates a1/b1 in at least one band when hamming small
    bands_equal = sum(
        out.loc["a1", f"band_{i}"] == out.loc["b1", f"band_{i}"] for i in range(4)
    )
    assert bands_equal >= 1 or ham > 3


def test_embedding_near_dup_planted(ray_session):
    rng = np.random.RandomState(0)
    vecs = rng.standard_normal((20, 16))
    vecs[7] = vecs[3] + rng.standard_normal(16) * 0.01  # planted near-dup
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(20)]
    )
    out = dedup.embedding_near_dup(ds, threshold=0.95, n_planes=6).to_pandas()
    assert {(r.id_a, r.id_b) for r in out.itertuples()} == {(3, 7)}


def test_knn_bruteforce_exact(ray_session):
    rng = np.random.RandomState(1)
    vecs = rng.standard_normal((50, 8))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(50)]
    )
    q = vecs[5]
    got = similarity.knn_bruteforce(ds, q, k=5).to_pandas()
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = unit @ (q / np.linalg.norm(q))
    want = np.lexsort((np.arange(50), -sims))[:5]
    assert list(got.vec_id) == list(want)
    assert got.cosine.iloc[0] == pytest.approx(1.0, abs=1e-6)


def test_knn_ivf_full_probe_equals_bruteforce(ray_session):
    rng = np.random.RandomState(2)
    vecs = rng.standard_normal((60, 8))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(60)]
    )
    q = vecs[0]
    bf = similarity.knn_bruteforce(ds, q, k=7).to_pandas()
    ivf = similarity.knn_ivf(ds, q, k=7, n_centroids=8, n_probe=8).to_pandas()
    assert list(bf.vec_id) == list(ivf.vec_id)


def test_doc_stats_and_quality(ray_session):
    ds = ray.data.from_items(
        [{"doc_id": 1, "text": "Hello world.\nThe cat sat."}, {"doc_id": 2, "text": ""}]
    )
    stats = text_analysis.doc_stats(ds).to_pandas().set_index("doc_id")
    assert stats.loc[1, "n_tokens"] == 5
    assert stats.loc[1, "n_lines"] == 2
    assert stats.loc[2, "n_tokens"] == 0
    q = text_analysis.quality_score(ds).to_pandas().set_index("doc_id")
    assert 0 <= q.loc[1, "quality"] <= 1


def test_lang_id(ray_session):
    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "the cat and the dog are in the house of a friend"},
            {"doc_id": 2, "text": "el perro y el gato en la casa de un ser que no"},
            {"doc_id": 3, "text": "zzz qqq xxx"},
        ]
    )
    out = text_analysis.lang_id(ds, concurrency=2).to_pandas().set_index("doc_id")
    assert out.loc[1, "lang_pred"] == "en"
    assert out.loc[2, "lang_pred"] == "es"
    assert out.loc[3, "lang_pred"] == "und"


def test_script_mix_multilingual_vs_duckdb(ray_session):
    """The sf corpora are ASCII-heavy, so the oracle gate never exercises
    non-Latin branches — pin the multilingual rows against DuckDB here
    (script classes + dominant CASE chain + ratio round law)."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    texts = [
        "Hello Мир 你好 123",  # latin wins the tie chain
        "Кириллица только",
        "日本語のテキストです",  # kana vs han
        "漢字漢字",
        None,
        "",
        "12345",
        "ΑΒΓ ελληνικά",  # Greek: counted by NO class -> 'none'
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(list(range(1, len(texts) + 1)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = (
        text_analysis.script_mix(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.loc[out.doc_id == 2, "dominant_script"].iloc[0] == "cyrillic"
    assert out.loc[out.doc_id == 4, "dominant_script"].iloc[0] == "han"
    assert out.loc[out.doc_id == 5, "dominant_script"].iloc[0] == "none"
    assert out.loc[out.doc_id == 7, "dominant_script"].iloc[0] == "digit"
    assert out.loc[out.doc_id == 8, "dominant_script"].iloc[0] == "none"
    con = duckdb.connect()
    con.register("documents", tbl)
    import __ray_entry__ as em

    oracle = (
        con.execute(em.oracle_sql()["script_mix"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out[oracle.columns.tolist()], oracle)


def test_split_sentences_vs_duckdb(ray_session):
    """The sf corpus has no terminators (1 sentence/doc at the gate) —
    pin the multi-sentence, terminator-run, and edge rows here."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    from pdf_parser_ray.ops import curation

    texts = [
        "Hello world. How are you? Fine!!! Ok",
        "...",  # only terminators: zero sentences
        "no terminator at all",
        None,
        "",
        "a.b.c",  # no spaces: terminators still split
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, None, 4, 5, 6], pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = (
        curation.split_sentences(ray.data.from_arrow(tbl))
        .to_pandas()
        .sort_values(["doc_id", "sent_idx"])
        .reset_index(drop=True)
    )
    d1 = out[out.doc_id == 1]
    assert list(d1.sentence) == ["Hello world.", " How are you?", " Fine!!!", " Ok"]
    assert list(d1.sent_idx) == [1, 2, 3, 4]
    assert 2 not in set(out.doc_id.dropna())
    assert 5 not in set(out.doc_id.dropna())
    con = duckdb.connect()
    con.register("documents", tbl)
    import __ray_entry__ as em

    oracle = (
        con.execute(em.oracle_sql()["split_sentences"])
        .df()
        .sort_values(["doc_id", "sent_idx"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out.astype({"doc_id": "Int64"}), oracle.astype({"doc_id": "Int64"})
    )


def test_fingerprint_deterministic(ray_session):
    ds = ray.data.from_items([{"doc_id": 1, "text": "a b c d e f g h"}])
    a = text_analysis.fingerprint(ds).to_pandas()
    b = text_analysis.fingerprint(ds).to_pandas()
    assert a.fingerprint.iloc[0] == b.fingerprint.iloc[0]
    assert a.rolling_min.iloc[0] == b.rolling_min.iloc[0]


def test_media_decoder_stub(ray_session):
    media = ray.data.from_arrow(
        pa.Table.from_pylist(
            [
                {"doc_id": "d", "media_ref": "img://d/p1/0", "media_type": "image", "payload": b"xx"},
            ],
            schema=multimodal.MEDIA_SCHEMA,
        )
    )
    out = multimodal.media_features(media, fake=True, concurrency=1).to_pandas()
    assert len(out) == 1
    assert out.decode_ok.iloc[0]
    assert out.n_bytes.iloc[0] == 2
    assert len(out.feature.iloc[0]) == 8
    # truncated JPEG/PNG and unrecognized payloads all degrade, not crash
    dec = multimodal.MediaDecoder(fake=False)
    trunc_jpeg = dec._decode("x", b"\xff\xd8\xff\xe0")
    assert not trunc_jpeg["decode_ok"]
    trunc_png = dec._decode("x", b"\x89PNG\r\n\x1a\n")
    assert not trunc_png["decode_ok"]
    bad = dec._decode("x", b"")
    assert not bad["decode_ok"] and bad["width"] == 0


def test_png_roundtrip_all_color_types():
    from pdf_parser_ray.functions.png import decode_png, encode_png

    rng = np.random.RandomState(9)
    for ctype, ch in ((0, 1), (2, 3), (4, 2), (6, 4)):
        w, h = int(rng.randint(1, 40)), int(rng.randint(1, 40))
        pixels = rng.randint(0, 256, size=w * h * ch, dtype=np.uint8)
        got_w, got_h, got = decode_png(encode_png(w, h, pixels, ctype))
        assert (got_w, got_h) == (w, h)
        assert np.array_equal(got, pixels), ctype


def test_png_all_filters_invert():
    """Hand-filter scanlines with each of the 5 PNG filter types (spec §6
    forward direction) and check the decoder's unfilter inverts exactly."""
    import struct
    import zlib

    from pdf_parser_ray.functions.png import PNG_SIGNATURE, decode_png

    rng = np.random.RandomState(4)
    w, h, ch = 17, 9, 3
    img = rng.randint(0, 256, size=(h, w * ch), dtype=np.uint8)

    def paeth(a, b, c):
        p = a + b - c
        pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
        return a if (pa_ <= pb and pa_ <= pc_) else (b if pb <= pc_ else c)

    raw = b""
    prev = np.zeros(w * ch, dtype=np.uint8)
    for y in range(h):
        f = y % 5  # exercise every filter type
        line = img[y]
        enc = np.empty(w * ch, dtype=np.uint8)
        for x in range(w * ch):
            left = int(line[x - ch]) if x >= ch else 0
            up = int(prev[x])
            upleft = int(prev[x - ch]) if x >= ch else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = left
            elif f == 2:
                pred = up
            elif f == 3:
                pred = (left + up) >> 1
            else:
                pred = paeth(left, up, upleft)
            enc[x] = (int(line[x]) - pred) & 0xFF
        raw += bytes([f]) + enc.tobytes()
        prev = line

    def chunk(t, d):
        return struct.pack(">I", len(d)) + t + d + struct.pack(">I", zlib.crc32(t + d))

    payload = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    got_w, got_h, got = decode_png(payload)
    assert (got_w, got_h) == (w, h)
    assert np.array_equal(got, img.reshape(-1))


def test_png_palette_and_unsupported_variants():
    import struct
    import zlib

    import pytest as _pytest

    from pdf_parser_ray.functions.png import PNG_SIGNATURE, decode_png, encode_png

    def chunk(t, d):
        return struct.pack(">I", len(d)) + t + d + struct.pack(">I", zlib.crc32(t + d))

    # 2x2 palette image: indices 0..3 into a 4-color palette
    pal = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 7, 7, 7])
    raw = b"\x00" + bytes([0, 1]) + b"\x00" + bytes([2, 3])
    payload = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0))
        + chunk(b"PLTE", pal)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )
    w, h, px = decode_png(payload)
    assert (w, h) == (2, 2)
    assert px.tolist() == [255, 0, 0, 0, 255, 0, 0, 0, 255, 7, 7, 7]

    # 16-bit and interlaced variants refuse cleanly
    for ihdr in (
        struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0),
        struct.pack(">IIBBBBB", 2, 2, 8, 2, 0, 0, 1),
    ):
        bad = (
            PNG_SIGNATURE
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(b"\x00" * 13))
            + chunk(b"IEND", b"")
        )
        with _pytest.raises(ValueError):
            decode_png(bad)

    # the decoder stage decodes a real PNG payload end-to-end
    from pdf_parser_ray.ops import multimodal as mm

    rng = np.random.RandomState(2)
    pixels = rng.randint(0, 256, size=12 * 5 * 3, dtype=np.uint8)
    out = mm.MediaDecoder(fake=False)._decode("r", encode_png(12, 5, pixels))
    assert out["decode_ok"] and (out["width"], out["height"]) == (12, 5)
    assert abs(sum(out["feature"]) - 1.0) < 1e-5


def test_media_real_ppm_decode(ray_session):
    # synthesized PPM payload -> real decode recovers the synthesized dims
    ref = "img://42/p3/0"
    payload = multimodal.synthesize_ppm(ref)
    import hashlib as _h

    digest = _h.md5(ref.encode()).digest()
    w, h = 4 + digest[0] % 32, 4 + digest[1] % 32
    dec = multimodal.MediaDecoder(fake=False)
    out = dec._decode(ref, payload)
    assert (out["width"], out["height"], out["decode_ok"]) == (w, h, True)
    assert abs(sum(out["feature"]) - 1.0) < 1e-5  # normalized histogram
    # PNM comment lines and PGM (single-channel) parse too
    pgm = b"P5\n# comment\n3 2\n255\n" + bytes(6)
    out = dec._decode("y", pgm)
    assert (out["width"], out["height"]) == (3, 2)
    assert out["feature"][0] == 1.0  # all-zero pixels -> first bin
    # uncompressed BMP header parse: BITMAPCOREHEADER (uint16 dims) and
    # BITMAPINFOHEADER (int32 dims); compressed streams degrade
    import struct

    core = (
        b"BM" + bytes(8) + struct.pack("<I", 26) + struct.pack("<I", 12)
        + struct.pack("<HH", 7, 5) + bytes(4) + bytes(105)
    )
    out = dec._decode("z", core)
    assert (out["width"], out["height"], out["decode_ok"]) == (7, 5, True)
    info = (
        b"BM" + bytes(8) + struct.pack("<I", 54) + struct.pack("<I", 40)
        + struct.pack("<ii", 7, -5) + struct.pack("<HH", 1, 24)
        + struct.pack("<I", 0) + bytes(20) + bytes(105)
    )
    out = dec._decode("z", info)
    assert (out["width"], out["height"], out["decode_ok"]) == (7, 5, True)
    rle = (
        b"BM" + bytes(8) + struct.pack("<I", 54) + struct.pack("<I", 40)
        + struct.pack("<ii", 7, 5) + struct.pack("<HH", 1, 8)
        + struct.pack("<I", 1) + bytes(20) + bytes(40)  # BI_RLE8
    )
    assert dec._decode("z", rle)["decode_ok"] is False
    # end-to-end through the actor-pool stage
    media = ray.data.from_arrow(
        pa.Table.from_pylist(
            [{"doc_id": "42", "media_ref": ref, "media_type": "image", "payload": payload}],
            schema=multimodal.MEDIA_SCHEMA,
        )
    )
    df = multimodal.media_features(media, fake=False, concurrency=1).to_pandas()
    assert df.width.iloc[0] == w and df.height.iloc[0] == h and df.decode_ok.iloc[0]


def test_connected_components():
    comp = dedup.connected_components([("b", "c"), ("a", "b"), ("x", "y")])
    assert comp["c"] == "a" and comp["b"] == "a"
    assert comp["y"] == "x"
    assert dedup.connected_components([]) == {}


def test_minhash_dedup_removes_planted(docs_with_dups):
    out = dedup.minhash_dedup(docs_with_dups, jaccard_threshold=0.5).to_pandas()
    kept = set(out.doc_id)
    # a1/a2/b1 cluster -> only a1 survives; unrelated docs kept
    assert "a1" in kept and "a2" not in kept and "b1" not in kept
    assert {"c1", "d1"} <= kept


def test_sessionize_gap_splits(ray_session, tmp_path, monkeypatch):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    ts = pd.to_datetime(
        ["2024-01-01 00:00", "2024-01-01 00:10", "2024-01-01 02:00",
         "2024-01-01 00:05"]
    )
    t = pa.table({"user_id": [7, 7, 7, 8], "ts": pa.array(ts, pa.timestamp("us")),
                  "event_type": ["a"] * 4, "value": [1.0] * 4,
                  "event_id": [1, 2, 3, 4], "props": [""] * 4})
    pq.write_table(t, str(tmp_path / "events.parquet"))
    from pdf_parser_ray.ops.streaming import sessionize

    out = sessionize(str(tmp_path), gap_minutes=30).to_pandas()
    u7 = out[out.user_id == 7].sort_values("session_id")
    assert list(u7.n_events) == [2, 1]  # 2h gap splits the session
    assert len(out[out.user_id == 8]) == 1


def test_media_resize_and_frames(ray_session):
    media = ray.data.from_arrow(
        pa.Table.from_pylist(
            [{"doc_id": "d", "media_ref": "vid://d/0", "media_type": "video", "payload": b""}],
            schema=multimodal.MEDIA_SCHEMA,
        )
    )
    feats = multimodal.media_features(media, fake=True, concurrency=1)
    resized = multimodal.resize_media(feats, max_side=64, fake=True).to_pandas()
    assert resized.width.iloc[0] <= 64 and resized.height.iloc[0] <= 64
    frames = multimodal.sample_frames(media, every_n=5, max_frames=3).to_pandas()
    assert list(frames.frame_index) == [0, 5, 10]
    assert frames.frame_ref.iloc[1] == "vid://d/0#f5"


def test_classify_blocks(ray_session):
    from pdf_parser_ray.ops import blocks

    text = "\n".join([
        "INTRODUCTION OVERVIEW",                       # heading (caps)
        "This is a normal paragraph sentence with enough words to count.",
        "- first bullet item",                          # list_item
        "a | b | c",                                    # table_row
        "Home | About | Contact",                       # table_row/nav family
        "def main():",                                  # code
        "",                                             # blank
        "ok",                                           # short
    ])
    ds = ray.data.from_items([{"doc_id": "d", "text": text}])
    out = blocks.classify_blocks(ds).to_pandas().sort_values("line_idx")
    got = list(out.block_class)
    assert got[0] == "heading"
    assert got[1] == "paragraph"
    assert got[2] == "list_item"
    assert got[3] == "table_row"
    assert got[5] == "code"
    assert got[6] == "blank"
    assert got[7] == "short"

    main = blocks.main_content_filter(ds).to_pandas().iloc[0]
    assert "normal paragraph" in main.main_text
    assert "def main" not in main.main_text
    assert main.n_lines_kept < main.n_lines_total


def test_classify_blocks_empty_doc(ray_session):
    from pdf_parser_ray.ops import blocks

    ds = ray.data.from_items([{"doc_id": "e", "text": ""}])
    out = blocks.classify_blocks(ds).to_pandas()
    assert len(out) == 1 and out.block_class.iloc[0] == "blank"
    m = blocks.main_content_filter(ds).to_pandas().iloc[0]
    assert m.main_text == "" and m.n_lines_kept == 0


def test_connected_components_distributed_matches_unionfind(ray_session):
    # chain a-b-c-d plus separate pair x-y plus singleton edge-free nodes absent
    pairs = [("b", "c"), ("a", "b"), ("c", "d"), ("x", "y"), ("p", "q"), ("q", "r")]
    ds = ray.data.from_items([{"doc_a": a, "doc_b": b} for a, b in pairs])
    got = dedup.connected_components_distributed(ds, max_rounds=5).to_pandas()
    got_map = dict(zip(got.doc_id, got.cluster))
    want = dedup.connected_components(pairs)
    # union-find maps only non-root nodes; roots map to themselves
    for node in got_map:
        assert got_map[node] == want.get(node, node), (node, got_map[node])
    assert got_map["d"] == "a" and got_map["y"] == "x" and got_map["r"] == "p"


def test_verify_pairs_join_path_matches_broadcast(docs_with_dups):
    pairs = dedup.minhash_candidate_pairs(docs_with_dups, num_perm=64, band_size=4)
    vb = (
        dedup.verify_pairs_jaccard(pairs, docs_with_dups, threshold=0.5, use_join=False)
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )
    vj = (
        dedup.verify_pairs_jaccard(pairs, docs_with_dups, threshold=0.5, use_join=True)
        .to_pandas().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    )
    assert len(vb) > 0
    pd.testing.assert_frame_equal(vb, vj)


def test_minhash_dedup_distributed_route_matches_driver(docs_with_dups):
    d_driver = sorted(dedup.minhash_dedup(docs_with_dups, jaccard_threshold=0.5).to_pandas().doc_id)
    # driver_cc_max_pairs=0 forces connected_components_distributed
    d_dist = sorted(
        dedup.minhash_dedup(
            docs_with_dups, jaccard_threshold=0.5, driver_cc_max_pairs=0
        ).to_pandas().doc_id
    )
    # broadcast_max_drop_ids=0 additionally forces the bucketed anti-join
    d_anti = sorted(
        dedup.minhash_dedup(
            docs_with_dups, jaccard_threshold=0.5, driver_cc_max_pairs=0,
            broadcast_max_drop_ids=0,
        ).to_pandas().doc_id
    )
    assert d_driver == d_dist == d_anti


def test_minhash_dedup_cc_route_equality_sf01(ray_session):
    """Route equality at real-data scale (sf0.1, 5k docs): the forced
    distributed label-propagation CC must keep exactly the same survivor
    set as the driver union-find — the small-fixture equality test above,
    promoted per the round-4 verdict so the fallback route is exercised
    against the same corpus the bench times (bench.py _bench_cc_routes)."""
    ds = ray.data.read_parquet(
        "/root/testdata/sf0.1/documents.parquet", columns=["doc_id", "text"]
    )
    kept_driver = sorted(
        dedup.minhash_dedup(ds, jaccard_threshold=0.8)
        .select_columns(["doc_id"])
        .to_pandas()
        .doc_id
    )
    kept_dist = sorted(
        dedup.minhash_dedup(ds, jaccard_threshold=0.8, driver_cc_max_pairs=0)
        .select_columns(["doc_id"])
        .to_pandas()
        .doc_id
    )
    assert len(kept_driver) > 0
    assert kept_driver == kept_dist


def test_filter_out_ids_anti_join(ray_session):
    data = ray.data.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in range(20)]
    )
    drop = ray.data.from_items([{"doc_id": i} for i in (3, 7, 11, 99)])
    out = dedup.filter_out_ids(data, drop).to_pandas().sort_values("doc_id")
    assert list(out.doc_id) == [i for i in range(20) if i not in (3, 7, 11)]
    assert list(out.columns) == ["doc_id", "text"]


def test_numeric_representative_selection(ray_session):
    # '10' < '9' lexicographically: numeric ordering must keep 9, not 10
    comp = dedup.connected_components([("10", "9"), ("10", "100")], numeric=True)
    assert comp["10"] == "9" and comp["100"] == "9"
    ds = ray.data.from_items([{"doc_a": "10", "doc_b": "9"}, {"doc_a": "10", "doc_b": "100"}])
    got = dedup.connected_components_distributed(ds, numeric_ids=True).to_pandas()
    assert dict(zip(got.doc_id, got.cluster)) == {"9": "9", "10": "9", "100": "9"}


def test_embedding_exact_superset_of_lsh(ray_session):
    rng = np.random.RandomState(0)
    vecs = rng.standard_normal((20, 16))
    vecs[7] = vecs[3] + rng.standard_normal(16) * 0.01
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(20)]
    )
    exact = dedup.embedding_near_dup_exact(ds, threshold=0.95).to_pandas()
    lsh = dedup.embedding_near_dup(ds, threshold=0.95, n_planes=6).to_pandas()
    exact_pairs = {(r.id_a, r.id_b) for r in exact.itertuples()}
    lsh_pairs = {(r.id_a, r.id_b) for r in lsh.itertuples()}
    assert (3, 7) in exact_pairs
    assert lsh_pairs <= exact_pairs  # LSH is approximate: never MORE than exact


def test_ivf_index_pruned_read(ray_session, tmp_path):
    rng = np.random.RandomState(3)
    vecs = rng.standard_normal((200, 8))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)]
    )
    index_dir = str(tmp_path / "ivf")
    similarity.build_ivf_index(ds, index_dir, n_centroids=8)
    q = vecs[0]
    # full probe == bruteforce (exact)
    bf = similarity.knn_bruteforce(ds, q, k=5).to_pandas()
    full = similarity.knn_ivf_index(index_dir, q, k=5, n_probe=8).to_pandas()
    assert list(bf.vec_id) == list(full.vec_id)
    # pruned probe reads strictly fewer rows than the corpus — the index
    # prunes IO, not just similarity math
    import glob
    import os

    import pyarrow.parquet as pq

    probed = similarity.knn_ivf_index(index_dir, q, k=5, n_probe=2)
    assert probed.count() < 200  # result limited to k anyway; count the read:
    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    unitq = q / np.linalg.norm(q)
    probe = np.argsort(-(centroids @ unitq))[:2].tolist()
    rows_read = sum(
        pq.read_metadata(f).num_rows
        for p in probe
        for f in glob.glob(os.path.join(index_dir, "lists", f"list_id={p}", "*.parquet"))
    )
    assert 0 < rows_read < 200
    # pruned result is drawn from the probed lists only
    got = probed.to_pandas()
    assert len(got) == 5


def test_media_decoder_malformed_payloads_degrade(ray_session):
    dec = multimodal.MediaDecoder(fake=False)
    for bad in (b"P6\n", b"P6\nxx yy\n", b"P6\n5 5\n", b"P5 3", b"BM" + bytes(10)):
        assert dec._decode("m", bad)["decode_ok"] is False, bad
    assert dec._decode("m", b"P6\nxx yy\n255\n")["decode_ok"] is False


def test_pnm_offset_exact(ray_session):
    # the parsed pixel offset must point AT the first pixel byte: the
    # synthesized payload carries exactly 3*w*h pixel bytes after the header
    ref = "img://7/p1/0"
    payload = multimodal.synthesize_ppm(ref)
    w, h, maxval, off = multimodal._parse_pnm_header(payload)
    assert maxval == 255
    assert len(payload) - off == 3 * w * h
    # known pixels -> exact histogram: 6 zero bytes, 8-bin histogram
    out = multimodal.MediaDecoder(fake=False)._decode("y", b"P5\n3 2\n255\n" + bytes(6))
    assert out["feature"] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_minhash_dedup_resumable_reuses_signatures(ray_session, tmp_path):
    """Kill-and-resume dedup: fragments already in the band store are NOT
    re-hashed on the next run (manifest counters prove it), appended
    fragments are, cross-fragment duplicates are still found, and the
    final output matches a from-scratch minhash_dedup."""
    import pyarrow.parquet as pq

    from pdf_parser_ray.ops.dedup import (
        minhash_dedup,
        minhash_dedup_resumable,
        update_band_store,
    )

    base = (
        "the quick brown fox jumps over the lazy dog again and again "
        "while the observer counts tokens for the training corpus pipeline"
    )
    frags = [
        [{"doc_id": "a1", "text": base}, {"doc_id": "c1", "text": "databases and storage engines layered deep"}],
        [{"doc_id": "a2", "text": base}],  # duplicate lives in ANOTHER fragment
        [{"doc_id": "d1", "text": "entirely unrelated prose about gardening and weather patterns"}],
    ]
    files = []
    for i, rows in enumerate(frags):
        f = str(tmp_path / f"frag{i}.parquet")
        pq.write_table(pa.Table.from_pylist(rows), f)
        files.append(f)
    store = str(tmp_path / "band_store")

    # first (partial) run hashes the first two fragments, then "dies"
    s1 = update_band_store(files[:2], store)
    assert s1["files_hashed_now"] == 2 and s1["files_skipped_resume"] == 0

    # resume over the full corpus: only the new fragment is hashed
    s2 = update_band_store(files, store)
    assert s2["files_hashed_now"] == 1 and s2["files_skipped_resume"] == 2

    got = sorted(
        minhash_dedup_resumable(files, store, jaccard_threshold=0.8)
        .to_pandas()
        .doc_id
    )
    want = sorted(
        minhash_dedup(ray.data.read_parquet(files), jaccard_threshold=0.8)
        .to_pandas()
        .doc_id
    )
    assert got == want
    assert "a2" not in got and "a1" in got  # cross-fragment dup dropped

    # a changed MinHash parameter invalidates every manifest
    s3 = update_band_store(files, store, shingle_size=4)
    assert s3["files_hashed_now"] == 3


def test_band_store_collapses_repeated_paths(ray_session, tmp_path):
    """A file listed twice is hashed once: the second entry must not
    delete the bands the first committed, which left a manifest that
    marked the fragment hashed while its bands were gone for good."""
    import pyarrow.parquet as pq

    from pdf_parser_ray.ops.dedup import (
        minhash_dedup_resumable,
        read_band_store,
        update_band_store,
    )

    base = (
        "the quick brown fox jumps over the lazy dog again and again "
        "while the observer counts tokens for the training corpus pipeline"
    )
    frags = [
        [{"doc_id": "a1", "text": base}, {"doc_id": "c1", "text": "databases and storage engines layered deep"}],
        [{"doc_id": "a2", "text": base}],
    ]
    files = []
    for i, rows in enumerate(frags):
        f = str(tmp_path / f"frag{i}.parquet")
        pq.write_table(pa.Table.from_pylist(rows), f)
        files.append(f)

    clean = str(tmp_path / "clean_store")
    update_band_store(files, clean)
    store = str(tmp_path / "store")
    s = update_band_store(files + files[:1], store)
    assert s["files_total"] == len(files) and s["files_hashed_now"] == len(files)
    assert read_band_store(store).count() == read_band_store(clean).count() > 0

    got = sorted(minhash_dedup_resumable(files, store).to_pandas().doc_id)
    assert got == ["a1", "c1"]  # the cross-fragment duplicate a2 dropped


def test_scrub_pii_planted(ray_session):
    from pdf_parser_ray.ops import curation

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "mail me at bob@example.com or visit https://x.io/a?b=1 now"},
            {"doc_id": 2, "text": "call +1 555-123-4567 twice: 555-123-4567"},
            {"doc_id": 3, "text": "clean text, nothing to scrub"},
        ]
    )
    out = curation.scrub_pii(ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "n_emails"] == 1 and out.loc[1, "n_urls"] == 1
    assert "<EMAIL>" in out.loc[1, "clean_text"] and "<URL>" in out.loc[1, "clean_text"]
    assert "bob@example.com" not in out.loc[1, "clean_text"]
    assert out.loc[2, "n_phones"] == 2
    assert out.loc[2, "clean_text"].count("<PHONE>") == 2
    assert out.loc[3, "clean_text"] == "clean text, nothing to scrub"
    assert out.loc[3, ["n_urls", "n_emails", "n_phones"]].sum() == 0


def test_repetition_score_planted(ray_session):
    from pdf_parser_ray.ops import curation

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "a\nb\na\na"},  # 4 lines, 2 distinct, 'a' x3
            {"doc_id": 2, "text": "x\ny\nz"},
        ]
    )
    out = curation.repetition_score(ds).to_pandas().set_index("doc_id")
    assert out.loc[1, "n_lines"] == 4 and out.loc[1, "n_distinct_lines"] == 2
    assert out.loc[1, "dup_line_ratio"] == 0.5
    assert out.loc[1, "top_line_share"] == 0.75
    assert out.loc[2, "dup_line_ratio"] == 0.0


def test_repetition_score_null_text_oracle_parity(ray_session, tmp_path):
    """A null text scores as one empty line (n_lines=1, ratios 0) on BOTH
    sides: the op coalesces to '' and the SQL oracle COALESCEs before the
    split — a bare string_split(NULL) would unnest to zero rows and
    silently drop the doc from the oracle."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from pdf_parser_ray.ops import curation

    path = str(tmp_path / "documents.parquet")
    pq.write_table(
        pa.table({"doc_id": [1, 2, 3], "text": ["a\na", None, "x\ny"]}), path
    )
    got = (
        curation.repetition_score(ray.data.read_parquet(path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.loc[got.doc_id == 2, "n_lines"].item() == 1
    assert got.loc[got.doc_id == 2, "dup_line_ratio"].item() == 0.0

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{path}')")
    want = (
        con.execute(entrymod.oracle_sql()["repetition_score"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_top_ngrams_planted(ray_session):
    from pdf_parser_ray.ops import curation

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "the cat sat on the cat"},
            {"doc_id": 2, "text": "the cat ran"},
        ]
    )
    out = curation.top_ngrams(ds, n=2, k=3).to_pandas()
    assert list(out.ngram)[0] == "the cat" and list(out.n)[0] == 3
    assert len(out) == 3


def test_stratified_sample_deterministic(ray_session):
    from pdf_parser_ray.ops import curation

    rows = [{"doc_id": i, "lang": "en" if i % 2 else "de"} for i in range(200)]
    ds = ray.data.from_items(rows)
    a = curation.stratified_sample(ds, pct=10, pct_by_stratum={"en": 50}).to_pandas()
    b = curation.stratified_sample(ds, pct=10, pct_by_stratum={"en": 50}).to_pandas()
    assert a.equals(b)  # same split every run
    en_rate = (a.lang == "en").sum() / 100
    de_rate = (a.lang == "de").sum() / 100
    assert en_rate > de_rate  # per-stratum rates honored (50% vs 10%)
    assert 0.3 < en_rate < 0.7 and de_rate < 0.25


def test_ivf_index_rebuild_clears_stale_partitions(ray_session, tmp_path):
    rng = np.random.RandomState(5)
    a = ray.data.from_items(
        [{"vec_id": i, "embedding": rng.standard_normal(8).tolist()} for i in range(60)]
    )
    b = ray.data.from_items(
        [{"vec_id": i + 1000, "embedding": rng.standard_normal(8).tolist()} for i in range(60)]
    )
    index_dir = str(tmp_path / "ivf")
    similarity.build_ivf_index(a, index_dir, n_centroids=4)
    similarity.build_ivf_index(b, index_dir, n_centroids=4)
    got = similarity.knn_ivf_index(index_dir, rng.standard_normal(8), k=60, n_probe=4).to_pandas()
    # only corpus B survives the rebuild — no stale corpus-A rows
    assert got.vec_id.min() >= 1000


def test_simhash_pairs_end_to_end(docs_with_dups):
    out = dedup.simhash_pairs(docs_with_dups, max_hamming=3).to_pandas()
    got = {(r.doc_a, r.doc_b) for r in out.itertuples()}
    assert ("a1", "a2") in got  # exact dup: hamming 0
    row = out[(out.doc_a == "a1") & (out.doc_b == "a2")].iloc[0]
    assert row.hamming == 0
    assert all("c1" not in p and "d1" not in p for p in got)


def test_embedding_multi_table_improves_recall(ray_session):
    rng = np.random.RandomState(9)
    vecs = rng.standard_normal((100, 16))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(100)]
    )
    thr = 0.5
    exact = dedup.embedding_near_dup_exact(ds, threshold=thr).to_pandas()
    exact_pairs = {(r.id_a, r.id_b) for r in exact.itertuples()}
    one = dedup.embedding_near_dup(ds, threshold=thr, n_planes=6, n_tables=1).to_pandas()
    many = dedup.embedding_near_dup(ds, threshold=thr, n_planes=6, n_tables=8).to_pandas()
    one_pairs = {(r.id_a, r.id_b) for r in one.itertuples()}
    many_pairs = {(r.id_a, r.id_b) for r in many.itertuples()}
    assert one_pairs <= exact_pairs and many_pairs <= exact_pairs
    assert len(many_pairs) >= len(one_pairs)  # more tables never lose pairs... 
    assert len(many_pairs) > 0
    # no duplicate pair rows after the cross-table dedupe
    assert not many.duplicated(subset=["id_a", "id_b"]).any()


def test_asof_join_semantics(ray_session):
    from pdf_parser_ray.ops.streaming import asof_join

    left = ray.data.from_items(
        [
            {"eid": 1, "t": 10, "u": 1},
            {"eid": 2, "t": 20, "u": 1},
            {"eid": 3, "t": 5, "u": 2},   # no prior right row -> dropped
            {"eid": 4, "t": 10, "u": 1},  # t == right row: strict -> earlier one
        ]
    )
    right = ray.data.from_items(
        [
            {"u": 1, "t": 10, "rid": 100},
            {"u": 1, "t": 10, "rid": 101},  # tie on t -> max rid wins
            {"u": 1, "t": 4, "rid": 99},
            {"u": 2, "t": 50, "rid": 200},  # after left's t=5
        ]
    )
    out = (
        asof_join(left, right, on="t", by="u", right_cols={"rid": "prior_rid"})
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    # eid=1 (t=10, strict): only t=4 qualifies -> 99
    # eid=2 (t=20): t=10 tie -> max rid 101
    # eid=3: no prior -> dropped; eid=4 same as eid=1
    assert list(out.eid) == [1, 2, 4]
    assert list(out.prior_rid) == [99, 101, 99]
    # non-strict: t=10 rows match the t=10 right rows
    out2 = (
        asof_join(left, right, on="t", by="u", right_cols={"rid": "prior_rid"}, strict=False)
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    assert list(out2.eid) == [1, 2, 4]
    assert list(out2.prior_rid) == [101, 101, 101]


def test_interval_join(ray_session):
    from pdf_parser_ray.ops.relational import interval_join

    ds = ray.data.from_items(
        [{"k": i, "v": float(v)} for i, v in enumerate([5, 50, 99, 100, 250, -1])]
    )
    bands = [
        {"lo": 0.0, "hi": 100.0, "label": "low"},
        {"lo": 100.0, "hi": 200.0, "label": "high"},
    ]
    out = interval_join(ds, bands, value_col="v").to_pandas().sort_values("k")
    # -1 (below all) and 250 (above all) drop; 100 is half-open [100,200)
    assert list(out.k) == [0, 1, 2, 3]
    assert list(out.label) == ["low", "low", "low", "high"]


def test_doc_frequency_planted(ray_session):
    from pdf_parser_ray.ops.curation import doc_frequency

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "apple apple banana"},
            {"doc_id": 2, "text": "apple cherry"},
            {"doc_id": 3, "text": "banana"},
        ]
    )
    out = doc_frequency(ds, k=2).to_pandas()
    # df counts DOCS, not occurrences: apple in 2 docs, banana in 2 — tie
    # breaks alphabetically
    assert list(out.token) == ["apple", "banana"]
    assert list(out.df) == [2, 2]


def test_approx_distinct_error_bounds(ray_session):
    from pdf_parser_ray.ops.relational import approx_distinct

    for n in (100, 1000, 20000):
        ds = ray.data.from_items([{"v": f"val-{i}"} for i in range(n)])
        est = approx_distinct(ds, "v", p=12).to_pandas().n_estimate.iloc[0]
        # HLL at p=12: ~1.6% std error; allow 5% (deterministic, not flaky)
        assert abs(est - n) / n < 0.05, (n, est)
    # duplicates do not inflate the estimate
    ds = ray.data.from_items([{"v": f"val-{i % 50}"} for i in range(5000)])
    est = approx_distinct(ds, "v", p=12).to_pandas()
    assert abs(est.n_estimate.iloc[0] - 50) <= 2
    assert est.n_buckets_used.iloc[0] <= 50


def test_hopping_window_fanout(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from pdf_parser_ray.ops.streaming import hopping_window_agg

    # one event at 10:15 -> windows starting 09:30 and 10:00 (60min/30min)
    t = pa.table(
        {
            "ts": pa.array([pd.Timestamp("2024-01-01 10:15:00")]),
            "event_type": pa.array(["click"]),
            "value": pa.array([2.0]),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = hopping_window_agg(str(tmp_path), 60, 30).to_pandas()
    assert list(out.window_start.astype(str)) == [
        "2024-01-01 09:30:00",
        "2024-01-01 10:00:00",
    ]
    assert list(out.n_events) == [1, 1] and list(out.sum_value) == [2.0, 2.0]
    import pytest as _pytest

    with _pytest.raises(ValueError):
        hopping_window_agg(str(tmp_path), 50, 30)


def test_tfidf_top_terms_planted(ray_session):
    import math

    from pdf_parser_ray.ops.curation import tfidf_top_terms

    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": "rare common common"},
            {"doc_id": 2, "text": "common common"},
            {"doc_id": 3, "text": "common other"},
        ]
    )
    out = tfidf_top_terms(ds, k=1).to_pandas().set_index("doc_id")
    # 'rare' appears once in doc 1 only: tfidf = 1 * ln(3/1); 'common' is in
    # every doc -> ln(3/3)=0, so the distinctive term wins
    assert out.loc[1, "token"] == "rare"
    assert out.loc[1, "tfidf"] == round(math.log(3.0), 6)
    assert out.loc[3, "token"] == "other"


def test_tfidf_join_path_equals_broadcast(ray_session):
    """The unbounded-vocabulary route (co-partitioned token join, forced
    via broadcast_max_vocab=0) must reproduce the broadcast route row for
    row — same scores, same tie-breaks, same id dtype."""
    import ray.data as rd

    from pdf_parser_ray.ops.curation import tfidf_top_terms

    ds = rd.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    )
    want = (
        tfidf_top_terms(ds, k=3)
        .to_pandas()
        .sort_values(["doc_id", "token"])
        .reset_index(drop=True)
    )
    got = (
        tfidf_top_terms(ds, k=3, broadcast_max_vocab=0)
        .to_pandas()
        .sort_values(["doc_id", "token"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert got.doc_id.dtype == want.doc_id.dtype


def test_tfidf_join_path_adversarial_route_equality(ray_session):
    """Route equality under adversarial inputs: unicode tokens, repeated
    whitespace, planted score TIES (tie-break by token must agree across
    routes), shared tokens across many docs, multi-block partitioning."""
    rng = np.random.RandomState(13)
    vocab = (
        ["café", "naïve", "中文", "x" * 80, "a", "b.c", "0"]
        + [f"tok{i}" for i in range(40)]
    )
    rows = []
    for i in range(60):
        n = rng.randint(1, 30)
        toks = [vocab[j] for j in rng.randint(0, len(vocab), size=n)]
        # planted tie: two distinct tokens with identical tf in the same doc
        if i % 7 == 0:
            toks += ["tie_a", "tie_b"]
        sep = "  " if i % 3 else "\t\n "
        rows.append({"doc_id": i, "text": sep.join(toks)})
    ds = ray.data.from_items(rows).repartition(5)
    key = ["doc_id", "token"]
    from pdf_parser_ray.ops.curation import tfidf_top_terms

    want = tfidf_top_terms(ds, k=4).to_pandas().sort_values(key).reset_index(drop=True)
    got = (
        tfidf_top_terms(ds, k=4, broadcast_max_vocab=0)
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_tfidf_join_path_string_ids_and_empty_text(ray_session):
    from pdf_parser_ray.ops.curation import tfidf_top_terms

    rows = [
        {"doc_id": "a", "text": "x y y"},
        {"doc_id": "b", "text": ""},
        {"doc_id": "c", "text": None},
        {"doc_id": "d", "text": "x z"},
    ]
    ds = ray.data.from_items(rows)
    want = tfidf_top_terms(ds, k=2).to_pandas()
    got = tfidf_top_terms(ds, k=2, broadcast_max_vocab=0).to_pandas()
    key = ["doc_id", "token"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True),
    )
    # empty/null-text docs emit no rows on either route
    assert set(got.doc_id) == {"a", "d"}


def test_asof_join_precision_and_nulls(ray_session):
    from pdf_parser_ray.ops.streaming import asof_join

    big = (1 << 53) + 1  # not representable in float64
    left = ray.data.from_items(
        [{"eid": big, "t": 10, "u": 1}, {"eid": 2, "t": None, "u": 1}]
    )
    right = ray.data.from_items([{"u": 1, "t": 4, "rid": big + 2}])
    out = asof_join(left, right, on="t", by="u", right_cols={"rid": "prior_rid"}).to_pandas()
    # null-`on` left row dropped cleanly; int64 above 2^53 survive exactly
    assert list(out.eid) == [big]
    assert list(out.prior_rid) == [big + 2]


def test_asof_join_matched_null_value_survives(ray_session):
    from pdf_parser_ray.ops.streaming import asof_join

    left = ray.data.from_items([{"eid": 1, "t": 10, "u": 1}])
    right = ray.data.from_items([{"u": 1, "t": 4, "note": None}])
    out = asof_join(left, right, on="t", by="u", right_cols={"note": "prior_note"}).to_pandas()
    # the match EXISTS even though the projected value is null
    assert list(out.eid) == [1]
    assert out.prior_note.isna().iloc[0]


def test_interval_join_rejects_overlaps(ray_session):
    import pytest as _pytest

    from pdf_parser_ray.ops.relational import interval_join

    ds = ray.data.from_items([{"v": 1.0}])
    with _pytest.raises(ValueError, match="overlapping"):
        interval_join(ds, [{"lo": 0.0, "hi": 100.0, "label": "a"}, {"lo": 50.0, "hi": 60.0, "label": "b"}], value_col="v")
    with _pytest.raises(ValueError, match="lo < hi"):
        interval_join(ds, [{"lo": 5.0, "hi": 5.0, "label": "x"}], value_col="v")


def test_approx_distinct_skips_nulls(ray_session):
    from pdf_parser_ray.ops.relational import approx_distinct

    ds = ray.data.from_items(
        [{"v": f"x{i}"} for i in range(200)] + [{"v": None}] * 50
    )
    est = approx_distinct(ds, "v", p=12).to_pandas().n_estimate.iloc[0]
    assert abs(est - 200) / 200 < 0.05


def test_approx_quantiles_rank_error_bound(ray_session):
    """The mergeable sketch's reported value must sit within the documented
    rank error (< 4/delta over two merge levels) of the target quantile on
    a skewed all-distinct continuous column."""
    from pdf_parser_ray.ops.relational import approx_quantiles

    rng = np.random.RandomState(3)
    vals = np.exp(rng.standard_normal(20_000) * 2.0)  # heavy-tailed, distinct
    ds = ray.data.from_items([{"v": float(x)} for x in vals]).repartition(16)
    qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
    out = approx_quantiles(ds, "v", qs, delta=512).to_pandas().set_index("q")
    svals = np.sort(vals)
    for q in qs:
        got = out.loc[q, "value"]
        rank = np.searchsorted(svals, got) / len(svals)
        assert abs(rank - q) < 4.0 / 512, (q, got, rank)


def test_approx_quantiles_skips_nulls_and_empty(ray_session):
    from pdf_parser_ray.ops.relational import approx_quantiles

    ds = ray.data.from_items(
        [{"v": float(i)} for i in range(100)] + [{"v": None}] * 50
    )
    out = approx_quantiles(ds, "v", [0.5]).to_pandas()
    assert abs(out.value.iloc[0] - 49.5) < 5.0
    empty = ray.data.from_items([{"v": None}] * 3)
    assert len(approx_quantiles(empty, "v", [0.5]).to_pandas()) == 0


def test_quantiles_auto_route(ray_session):
    """Low estimated cardinality -> the exact path (quantile_cont value);
    a forced-low max_distinct -> the sketch path, still within bound."""
    from pdf_parser_ray.ops.relational import exact_quantiles, quantiles

    vals = [float(i % 50) for i in range(5000)]  # 50 distinct values
    ds = ray.data.from_items([{"v": x} for x in vals])
    exact = exact_quantiles(ds, "v", [0.25, 0.75]).to_pandas()
    routed = quantiles(ds, "v", [0.25, 0.75], max_distinct=1000).to_pandas()
    pd.testing.assert_frame_equal(routed, exact)
    approx = quantiles(ds, "v", [0.25, 0.75], max_distinct=1).to_pandas()
    for q, want in zip(exact.q, exact.value):
        got = approx.set_index("q").loc[q, "value"]
        assert abs(got - want) <= 2.0, (q, got, want)


def test_cross_corpus_near_dups_planted(ray_session):
    """Planted near-dup ACROSS corpora is found; the near-dup pair WITHIN
    one corpus is not reported (that's the single-corpus ops' job);
    unrelated docs never pair."""
    from pdf_parser_ray.ops.crosscorpus import cross_corpus_near_dups

    base = (
        "the quick brown fox jumps over the lazy dog while the training "
        "pipeline counts tokens and the observer logs every span emitted"
    )
    train = ray.data.from_items(
        [
            {"doc_id": "t1", "text": base},
            {"doc_id": "t2", "text": base + " with one extra tail"},  # within-side dup
            {"doc_id": "t3", "text": "entirely different prose about gardens"},
        ]
    )
    test = ray.data.from_items(
        [
            {"doc_id": "h1", "text": base},  # cross-side dup of t1/t2
            {"doc_id": "h2", "text": "unrelated held-out content on weather"},
        ]
    )
    out = cross_corpus_near_dups(train=train, test=test, threshold=0.8).to_pandas()
    pairs = {(r.train_id, r.test_id) for r in out.itertuples()}
    assert ("t1", "h1") in pairs
    assert all(t == "h1" for _, t in pairs)  # h2 never pairs
    assert all(a.startswith("t") and b.startswith("h") for a, b in pairs)
    assert (out.jaccard >= 0.8).all()


def test_cross_corpus_hot_band_guard(ray_session):
    """The opt-in max_band_postings guard: a boilerplate cluster whose
    band keys are hot on both sides is dropped from the candidate merge,
    while a distinct (non-hot) cross pair survives. Default (None) keeps
    every pair — oracle parity."""
    from pdf_parser_ray.ops.crosscorpus import cross_corpus_near_dups

    boiler = "common boilerplate text repeated verbatim across many documents"
    rare = (
        "a genuinely distinctive paragraph about histogram-cut order "
        "statistics that appears exactly once per side of the corpus"
    )
    train = ray.data.from_items(
        [{"doc_id": f"t{i}", "text": boiler} for i in range(6)]
        + [{"doc_id": "tr", "text": rare}]
    )
    test = ray.data.from_items(
        [{"doc_id": f"h{i}", "text": boiler} for i in range(6)]
        + [{"doc_id": "hr", "text": rare}]
    )

    capped = cross_corpus_near_dups(
        train=train, test=test, threshold=0.8, max_band_postings=2
    ).to_pandas()
    pairs = {(r.train_id, r.test_id) for r in capped.itertuples()}
    # boilerplate bands have 6 postings per side (> 2): all 36 cross
    # pairs dropped; the rare pair's bands are 1-per-side: it survives
    assert pairs == {("tr", "hr")}

    uncapped = cross_corpus_near_dups(
        train=train, test=test, threshold=0.8
    ).to_pandas()
    assert len(uncapped) == 37  # 36 boilerplate cross pairs + the rare one


def test_heavy_hitters_exact_regime_and_undercount_bound(ray_session):
    from pdf_parser_ray.ops.relational import heavy_hitters

    # skewed column: value v appears (v+1)*10 times, v in 0..49 + nulls
    rows = (
        [{"v": f"k{v:02d}"} for v in range(50) for _ in range((v + 1) * 10)]
        + [{"v": None}] * 7
    )
    n = sum((v + 1) * 10 for v in range(50))
    ds = ray.data.from_items(rows)
    # exact regime: capacity >= distinct -> exact counts, exact order
    exact = heavy_hitters(ds, "v", k=5, capacity=64).take_all()
    assert [(r["value"], r["n"]) for r in exact] == [
        (f"k{v:02d}", (v + 1) * 10) for v in range(49, 44, -1)
    ]
    # approximate regime: counts never OVER-count and undercount by at
    # most n/capacity per merged partial set (MG merge bound)
    approx = {
        r["value"]: r["n"]
        for r in heavy_hitters(ds, "v", k=5, capacity=8).take_all()
    }
    for v, c in approx.items():
        true = (int(v[1:]) + 1) * 10
        assert c <= true
        assert true - c <= n / 8 + 1


def test_top_k_per_group_window_law(ray_session):
    """ROW_NUMBER PARTITION BY law: top-2 by value desc, id asc ties;
    null group is its own partition; null values order last."""
    from pdf_parser_ray.ops.relational import top_k_per_group

    rows = [
        {"source": "a", "n_chars": 10, "doc_id": 1},
        {"source": "a", "n_chars": 30, "doc_id": 2},
        {"source": "a", "n_chars": 30, "doc_id": 3},
        {"source": "a", "n_chars": 20, "doc_id": 4},
        {"source": None, "n_chars": 5, "doc_id": 5},
        {"source": None, "n_chars": None, "doc_id": 6},
        {"source": "b", "n_chars": 7, "doc_id": 7},
    ]
    t = pa.table(
        {
            "source": pa.array([r["source"] for r in rows], pa.string()),
            "n_chars": pa.array([r["n_chars"] for r in rows], pa.int64()),
            "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
        }
    )
    out = top_k_per_group(
        ray.data.from_arrow(t), "source", "n_chars", k=2, id_col="doc_id"
    ).take_all()
    kept = sorted(r["doc_id"] for r in out)
    # a: 30/id2, 30/id3 (tie -> lower id first, both fit k=2)
    # null group: 5 then NULL-length (both fit); b: 7
    assert kept == [2, 3, 5, 6, 7]


def test_top_k_per_group_nul_suffix_groups_stay_distinct(ray_session):
    """numpy fixed-width unicode arrays truncate trailing NULs — "a" and
    "a\\x00" must remain two partitions (object-dtype run encoding)."""
    from pdf_parser_ray.ops.relational import top_k_per_group

    rows = [
        {"source": "a", "n_chars": 1, "doc_id": 1},
        {"source": "a", "n_chars": 2, "doc_id": 2},
        {"source": "a\x00", "n_chars": 3, "doc_id": 3},
        {"source": "a\x00", "n_chars": 4, "doc_id": 4},
    ]
    t = pa.table(
        {
            "source": pa.array([r["source"] for r in rows], pa.string()),
            "n_chars": pa.array([r["n_chars"] for r in rows], pa.int64()),
            "doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
        }
    )
    out = top_k_per_group(
        ray.data.from_arrow(t), "source", "n_chars", k=1, id_col="doc_id"
    ).take_all()
    # one winner per group: max n_chars in "a" is doc 2, in "a\x00" doc 4
    assert sorted(r["doc_id"] for r in out) == [2, 4]


def test_grouped_quantiles_matches_numpy(ray_session):
    from pdf_parser_ray.ops.relational import grouped_quantiles

    vals = {"x": [1.0, 2.0, 3.0, 4.0], "y": [10.0, 20.0]}
    rows = [
        {"lang": g, "n_chars": v} for g, vs in vals.items() for v in vs
    ]
    rows.append({"lang": "z", "n_chars": None})  # all-null group: no rows
    out = grouped_quantiles(
        ray.data.from_items(rows), "lang", "n_chars", [0.5]
    ).to_pandas()
    got = {r.lang: r.value for r in out.itertuples()}
    assert got == {"x": 2.5, "y": 15.0}


def test_exact_quantiles_pin_routed_on_input_kind(ray_session, tmp_path, monkeypatch):
    """A bare (or column-projected) parquet read must NOT be pinned in the
    object store — each pass re-scans the pruned column instead; a
    transformed input keeps the one-shot materialize. Same answer on
    both routes."""
    import pyarrow.parquet as pq

    from pdf_parser_ray.ops.relational import _is_scan_only, exact_quantiles

    path = str(tmp_path / "t.parquet")
    rng = np.random.RandomState(3)
    pq.write_table(
        pa.table({"v": rng.randint(0, 1000, 400), "w": np.ones(400)}), path
    )

    read = ray.data.read_parquet(path)
    assert _is_scan_only(read)
    assert _is_scan_only(read.select_columns(["v"]))
    xform = read.map_batches(lambda b: b, batch_format="pyarrow")
    assert not _is_scan_only(xform)

    calls = []
    orig = ray.data.Dataset.materialize

    def spy(self, **kw):
        calls.append(1)
        return orig(self, **kw)

    monkeypatch.setattr(ray.data.Dataset, "materialize", spy)
    got_scan = exact_quantiles(read, "v", [0.25, 0.75]).take_all()
    assert calls == []  # read path: no pin
    got_xform = exact_quantiles(xform, "v", [0.25, 0.75]).take_all()
    assert len(calls) == 1  # transformed path: exactly the one pin
    assert got_scan == got_xform


def test_grouped_quantiles_giant_group_guard(ray_session):
    """Planted one-giant-group corpus: the guard must (a) route the giant
    group through the histogram-cut path — pinned by the census marking
    it — and (b) produce EXACTLY the unguarded result (route equality:
    both share the interpolation law). A null group rides along to pin
    the null-group detour too."""
    from pdf_parser_ray.ops.relational import (
        _grouped_quantiles_census,
        grouped_quantiles,
    )

    rng = np.random.RandomState(11)
    rows = [{"lang": "en", "n_chars": int(v)} for v in rng.randint(1, 10_000, 500)]
    rows += [{"lang": "fr", "n_chars": int(v)} for v in rng.randint(1, 500, 40)]
    rows += [{"lang": None, "n_chars": int(v)} for v in rng.randint(1, 500, 90)]
    rows += [{"lang": "de", "n_chars": None}]  # all-null group: no rows
    ds = ray.data.from_items(rows)

    census = dict(_grouped_quantiles_census(ds, "lang", "n_chars"))
    assert census == {"en": 500, "fr": 40, None: 90}

    qs = [0.25, 0.5, 0.75]
    # cap 60: giant = {en (500), null (90)}; fr stays on the bucketed sort
    guarded = (
        grouped_quantiles(ds, "lang", "n_chars", qs, max_group_rows=60)
        .to_pandas()
        .sort_values(["lang", "q"], na_position="first")
        .reset_index(drop=True)
    )
    unguarded = (
        grouped_quantiles(ds, "lang", "n_chars", qs, max_group_rows=None)
        .to_pandas()
        .sort_values(["lang", "q"], na_position="first")
        .reset_index(drop=True)
    )
    assert len(guarded) == 9  # 3 groups x 3 qs, de emits nothing
    pd.testing.assert_frame_equal(guarded, unguarded)


def test_knn_ivf_recall_exhaustive_probe_is_one(ray_session):
    """n_probe == n_centroids makes IVF exhaustive: recall@k vs brute
    force must be exactly 1.0; a 1-of-8 probe on clustered data drops
    below it (the approximate regime the knn_ivf_recall query gates)."""
    from pdf_parser_ray.ops.similarity import knn_bruteforce, knn_ivf

    rng = np.random.RandomState(21)

    # 8 clusters of 5 on ORTHOGONAL axes (cosine-separated — scalar
    # offsets would make clusters parallel in cosine space): a top-10
    # must span at least two clusters, so a 1-list probe is GUARANTEED
    # to miss brute-force neighbors
    def center(j):
        c = np.zeros(16)
        c[j * 2] = 3.0
        return c

    rows = [
        {"vec_id": i, "embedding": (center(i % 8) + rng.randn(16) * 0.05).tolist()}
        for i in range(40)
    ]
    ds = ray.data.from_items(rows)
    q = np.asarray(rows[3]["embedding"], dtype=np.float64)
    brute = {r["vec_id"] for r in knn_bruteforce(ds, q, k=10).take_all()}
    full = {
        r["vec_id"]
        for r in knn_ivf(ds, q, k=10, n_centroids=8, n_probe=8).take_all()
    }
    assert full == brute
    partial = {
        r["vec_id"]
        for r in knn_ivf(ds, q, k=10, n_centroids=8, n_probe=1).take_all()
    }
    # one probed list holds at most 5 of the 10 true neighbors
    assert len(partial & brute) < 10
    assert partial != brute


def test_quantiles_sample_census_extrapolates_to_sketch(ray_session):
    """A near-unique bounded sample must extrapolate to high cardinality
    and take the sketch path (routing bias documented in quantiles())."""
    from pdf_parser_ray.ops.relational import exact_quantiles, quantiles

    vals = [float(i) for i in range(5000)]  # fully unique column
    ds = ray.data.from_items([{"v": x} for x in vals])
    exact = exact_quantiles(ds, "v", [0.5]).to_pandas()
    routed = quantiles(
        ds, "v", [0.5], max_distinct=1000, sample_rows=100
    ).to_pandas()
    # est = 100/100 * 5000 = 5000 > 1000 -> sketch path, rank-error bounded
    assert abs(routed.value.iloc[0] - exact.value.iloc[0]) <= 100.0


def test_tfidf_handles_sentinel_lookalike_token(ray_session):
    from pdf_parser_ray.ops.curation import tfidf_top_terms

    ds = ray.data.from_items(
        [{"doc_id": 1, "text": "hello \x00__n_docs__ world"}, {"doc_id": 2, "text": "hello there"}]
    )
    out = tfidf_top_terms(ds, k=3).to_pandas()  # must not crash or skew N
    assert set(out[out.doc_id == 1].token) >= {"\x00__n_docs__"}


def test_knn_join_matches_per_query_bruteforce(ray_session):
    """Batch kNN must equal running single-query knn_bruteforce per query
    (same ids, same rounded cosines, same tie-breaks)."""
    rng = np.random.RandomState(5)
    vecs = rng.standard_normal((60, 8))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(60)]
    ).repartition(4)
    qids = [3, 11, 40]
    out = (
        similarity.knn_join(ds, vecs[qids], qids, k=4)
        .to_pandas()
        .sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    assert len(out) == len(qids) * 4
    for q in qids:
        single = similarity.knn_bruteforce(ds, vecs[q], k=4).to_pandas()
        got = out[out.query_id == q].reset_index(drop=True)
        assert list(got.vec_id) == list(single.vec_id)
        assert list(got.cosine) == list(single.cosine)
        assert got.vec_id.iloc[0] == q  # self is its own nearest neighbor


def test_kmeans_recovers_blobs(ray_session):
    rng = np.random.RandomState(11)
    a = rng.standard_normal((60, 8)) + 10.0
    b = rng.standard_normal((60, 8)) - 10.0
    vecs = np.vstack([a, b])
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(120)]
    )
    assign, centroids = similarity.kmeans(ds, k=2, n_iters=5)
    df = assign.to_pandas().sort_values("vec_id")
    first, second = df.cluster[:60], df.cluster[60:]
    # each blob lands wholly in one cluster, and they differ
    assert first.nunique() == 1 and second.nunique() == 1
    assert first.iloc[0] != second.iloc[0]
    # centroids sit at the blob means (+-)
    assert sorted(np.sign(centroids[:, 0]).tolist()) == [-1.0, 1.0]
    # deterministic: same clusters on a second run
    assign2, _ = similarity.kmeans(ds, k=2, n_iters=5)
    assert df.cluster.tolist() == assign2.to_pandas().sort_values("vec_id").cluster.tolist()


def test_ivf_with_kmeans_centroids(ray_session, tmp_path):
    """kmeans centroids drop into the IVF index unchanged; full probe stays
    exact vs bruteforce."""
    rng = np.random.RandomState(13)
    vecs = rng.standard_normal((120, 8))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(120)]
    )
    _, centroids = similarity.kmeans(ds, k=4, n_iters=3)
    unit_c = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    index_dir = str(tmp_path / "ivf_km")
    similarity.build_ivf_index(ds, index_dir, centroids=unit_c)
    q = vecs[7]
    bf = similarity.knn_bruteforce(ds, q, k=5).to_pandas()
    full = similarity.knn_ivf_index(index_dir, q, k=5, n_probe=4).to_pandas()
    assert list(bf.vec_id) == list(full.vec_id)


def test_pack_shards_budget_semantics(ray_session):
    from pdf_parser_ray.ops.curation import pack_shards

    # 4 docs of 3 tokens in one range with budget 5:
    # priors 0,3,6,9 -> local shards 0,0,1,1
    ds = ray.data.from_items(
        [{"doc_id": i, "text": "a b c"} for i in range(4)]
    )
    out = pack_shards(ds, token_budget=5, range_size=100).to_pandas().sort_values("doc_id")
    local = (out.shard_id % (1 << 32)).tolist()
    assert local == [0, 0, 1, 1]
    # docs in different id ranges pack independently (distinct shard spaces)
    ds2 = ray.data.from_items(
        [{"doc_id": 1, "text": "a b c"}, {"doc_id": 101, "text": "a b c"}]
    )
    out2 = pack_shards(ds2, token_budget=5, range_size=100).to_pandas()
    assert out2.shard_id.nunique() == 2


def test_asof_join_null_int_values_exact(ray_session):
    """Nullable right int columns: values above 2^53 survive exactly even
    when the same bucket contains nulls, and a null projected value loses
    ties to a real value (matching the SQL NULLS-LAST DESC tie-break)."""
    from pdf_parser_ray.ops.streaming import asof_join

    big = (1 << 53) + 1
    left = ray.data.from_items([{"eid": 1, "t": 20, "u": 1}])
    right = ray.data.from_items(
        [{"u": 1, "t": 4, "rid": big}, {"u": 1, "t": 6, "rid": None}]
    )
    out = asof_join(left, right, on="t", by="u", right_cols={"rid": "prior_rid"}).to_pandas()
    # most recent is the t=6 null row -> match exists, value is null, and
    # the big int in the same bucket was never float-rounded
    assert len(out) == 1 and out.prior_rid.isna().iloc[0]
    out2 = asof_join(
        left,
        ray.data.from_items([{"u": 1, "t": 4, "rid": big}]),
        on="t", by="u", right_cols={"rid": "prior_rid"},
    ).to_pandas()
    assert int(out2.prior_rid.iloc[0]) == big
    # null loses the tie to a real value at the same timestamp
    right3 = ray.data.from_items(
        [{"u": 1, "t": 4, "rid": 7}, {"u": 1, "t": 4, "rid": None}]
    )
    out3 = asof_join(left, right3, on="t", by="u", right_cols={"rid": "prior_rid"}).to_pandas()
    assert int(out3.prior_rid.iloc[0]) == 7


def test_pack_shards_null_text(ray_session):
    from pdf_parser_ray.ops.curation import pack_shards

    ds = ray.data.from_items(
        [{"doc_id": 0, "text": "a b"}, {"doc_id": 1, "text": None}, {"doc_id": 2, "text": "c d"}]
    )
    out = pack_shards(ds, token_budget=3, range_size=100).to_pandas().sort_values("doc_id")
    assert list(out.n_tokens) == [2, 0, 2]  # null text counts 0 tokens
    assert out.shard_id.notna().all()


def test_exact_quantiles_semantics(ray_session):
    from pdf_parser_ray.ops.relational import exact_quantiles

    # values 0..9 with duplicates and a null; quantile_cont interpolation
    ds = ray.data.from_items(
        [{"v": float(i)} for i in range(10)] + [{"v": 5.0}, {"v": None}]
    )
    out = exact_quantiles(ds, "v", [0.0, 0.5, 1.0]).to_pandas().set_index("q")
    # 11 non-null values sorted: 0..5,5,6..9 -> median (h=5) = 5.0
    assert out.loc[0.0, "value"] == 0.0
    assert out.loc[0.5, "value"] == 5.0
    assert out.loc[1.0, "value"] == 9.0
    # interpolated case: 2 values, q=0.25 -> 0 + 0.25*(10-0)
    ds2 = ray.data.from_items([{"v": 0.0}, {"v": 10.0}])
    out2 = exact_quantiles(ds2, "v", [0.25]).to_pandas()
    assert out2.value.iloc[0] == 2.5


def test_asof_join_bigint_with_unmatched_left_rows(ray_session):
    """A null-free right int column must survive exactly even when the
    bucket has UNMATCHED left rows: merge_asof injects NaN into right
    columns for those rows, which promoted the whole column to float64
    and rounded ids above 2^53."""
    from pdf_parser_ray.ops.streaming import asof_join

    big = (1 << 53) + 1
    left = ray.data.from_items(
        [{"eid": 1, "t": 2, "u": 1}, {"eid": 2, "t": 20, "u": 1}]  # t=2 unmatched
    )
    right = ray.data.from_items([{"u": 1, "t": 4, "rid": big}])
    out = asof_join(left, right, on="t", by="u", right_cols={"rid": "prior_rid"}).to_pandas()
    assert list(out.eid) == [2]
    assert int(out.prior_rid.iloc[0]) == big


def test_kmeans_empty_edge_cases(ray_session):
    import pytest as _pytest

    empty = ray.data.from_items([{"vec_id": 1, "embedding": [1.0, 2.0]}]).filter(
        lambda r: False
    )
    with _pytest.raises(ValueError, match="non-empty"):
        similarity.kmeans(empty, k=2, n_iters=1)
    # a dataset where some blocks filter to zero rows must not crash
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": [float(i), 0.0]} for i in range(40)]
    ).filter(lambda r: r["vec_id"] % 2 == 0)
    assign, _ = similarity.kmeans(ds, k=2, n_iters=2)
    assert assign.count() == 20


def test_pack_shards_null_doc_id(ray_session):
    from pdf_parser_ray.ops.curation import pack_shards

    ds = ray.data.from_items(
        [{"doc_id": 0, "text": "a"}, {"doc_id": None, "text": "b"}, {"doc_id": 2, "text": "c"}]
    )
    out = pack_shards(ds, token_budget=10, range_size=100).to_pandas()
    assert sorted(out.doc_id) == [0, 2]  # null-id row dropped, no crash


# ---- cross-corpus ---------------------------------------------------------


def test_contamination_scores_planted(ray_session):
    from pdf_parser_ray.ops import crosscorpus

    train = ray.data.from_items(
        [
            {"doc_id": 100, "text": "alpha beta gamma delta epsilon zeta eta theta"},
            {"doc_id": 101, "text": "one two three four five six seven eight nine"},
        ]
    )
    test = ray.data.from_items(
        [
            # exact copy of a train doc -> every gram contaminated
            {"doc_id": 1, "text": "alpha beta gamma delta epsilon zeta eta theta"},
            # no 5-gram shared with train (different word order kills all)
            {"doc_id": 2, "text": "theta eta zeta epsilon delta gamma beta alpha"},
            # empty shingle set -> omitted from output entirely
            {"doc_id": 3, "text": ""},
            {"doc_id": 4, "text": None},
        ]
    )
    out = (
        crosscorpus.contamination_scores(test, train, n=5)
        .to_pandas()
        .set_index("doc_id")
    )
    assert set(out.index) == {"1", "2"}
    assert out.loc["1", "contamination"] == 1.0
    assert out.loc["1", "n_grams"] == out.loc["1", "n_hits"] == 4
    assert out.loc["2", "contamination"] == 0.0 and out.loc["2", "n_hits"] == 0


def test_contamination_scores_partial_overlap(ray_session):
    from pdf_parser_ray.ops import crosscorpus
    from pdf_parser_ray.ops.dedup import _word_ngrams

    train_text = "the quick brown fox jumps over the lazy dog tonight"
    test_text = "the quick brown fox jumps straight into the cold river water"
    train = ray.data.from_items([{"doc_id": 0, "text": train_text}])
    test = ray.data.from_items([{"doc_id": 1, "text": test_text}])
    out = crosscorpus.contamination_scores(test, train, n=5).to_pandas()
    grams_test = _word_ngrams(test_text, 5)
    hits = len(grams_test & _word_ngrams(train_text, 5))
    assert out.loc[0, "n_grams"] == len(grams_test)
    assert out.loc[0, "n_hits"] == hits == 1  # only "the quick brown fox jumps"
    assert out.loc[0, "contamination"] == round(hits / len(grams_test), 6)


def test_bloom_filter_novel_membership(ray_session):
    from pdf_parser_ray.ops import crosscorpus

    ref = ray.data.from_items(
        [{"doc_id": i, "text": f"reference document number {i}"} for i in range(20)]
    )
    cand = ray.data.from_items(
        [
            {"doc_id": 100, "text": "reference document number 7"},  # exact member
            {"doc_id": 101, "text": "a wholly novel candidate text"},
            {"doc_id": 102, "text": "reference document number 21"},  # near miss
        ]
    )
    out = (
        crosscorpus.bloom_filter_novel(cand, ref, m_bits=1 << 16, k=4)
        .to_pandas()
        .set_index("doc_id")
    )
    # no false negatives ever: the exact member MUST be flagged not-novel
    assert not out.loc[100, "novel"]
    assert bool(out.loc[101, "novel"]) and bool(out.loc[102, "novel"])


def test_bloom_filter_null_vs_empty_text(ray_session):
    """Domain separation: a null reference text must not claim the empty
    string (and vice versa) — distinct md5 keys chr(0) vs chr(1)."""
    from pdf_parser_ray.ops import crosscorpus

    ref = ray.data.from_items([{"doc_id": 0, "text": None}])
    cand = ray.data.from_items(
        [{"doc_id": 1, "text": ""}, {"doc_id": 2, "text": None}]
    )
    out = (
        crosscorpus.bloom_filter_novel(cand, ref, m_bits=1 << 12, k=4)
        .to_pandas()
        .set_index("doc_id")
    )
    assert bool(out.loc[1, "novel"])  # '' is NOT the null text
    assert not out.loc[2, "novel"]  # null matches null


def test_bloom_filter_false_positives_deterministic(ray_session):
    """With a deliberately tiny filter, false positives appear — and match
    a brute-force replay of the probe positions exactly (the determinism
    that makes the op hash-oracle-able)."""
    import numpy as np

    from pdf_parser_ray.ops import crosscorpus

    m, k = 512, 4
    ref_rows = [{"doc_id": i, "text": f"ref text {i}"} for i in range(300)]
    cand_rows = [{"doc_id": 1000 + i, "text": f"cand text {i}"} for i in range(40)]
    out = (
        crosscorpus.bloom_filter_novel(
            ray.data.from_items(cand_rows),
            ray.data.from_items(ref_rows),
            m_bits=m,
            k=k,
        )
        .to_pandas()
        .set_index("doc_id")
    )
    set_bits = set()
    for r in ref_rows:
        h1, h2 = crosscorpus._bloom_hashes(r["text"], m)
        set_bits.update(crosscorpus._positions(h1, h2, k, m))
    expect_fp = 0
    for r in cand_rows:
        h1, h2 = crosscorpus._bloom_hashes(r["text"], m)
        maybe = all(p in set_bits for p in crosscorpus._positions(h1, h2, k, m))
        assert bool(out.loc[r["doc_id"], "novel"]) == (not maybe)
        expect_fp += maybe
    assert expect_fp > 0  # the tiny filter really does produce FPs
    assert 0 < np.count_nonzero(
        np.unpackbits(crosscorpus.build_bloom_filter(
            ray.data.from_items(ref_rows), m, k
        ))
    ) <= len(set_bits)


def test_gopher_rules_each_rule(ray_session):
    from pdf_parser_ray.ops import text_analysis

    good = "the fine words flow onward with quiet measure and " + " ".join(
        f"token{i}" for i in range(60)
    )
    rows = [
        {"doc_id": 0, "text": good},
        {"doc_id": 1, "text": "too short with the and"},  # word-count rule
        {"doc_id": 2, "text": ("a " * 80) + "the with"},  # mean word len < 3
        {"doc_id": 3, "text": good + " " + "#" * 1 * 40},  # symbol ratio
        {"doc_id": 4, "text": "the with\n" + "\n".join(f"- b{i} x" for i in range(30))},
        {"doc_id": 5, "text": "the with start\n" + "\n".join(f"line {i} trails off...." for i in range(30))},
        {"doc_id": 6, "text": "the with " + " ".join("123456" for _ in range(60))},  # alpha frac
        {"doc_id": 7, "text": " ".join(f"blargle{i} flimflam" for i in range(40))},  # no stopwords
        {"doc_id": 8, "text": None},  # null -> zero words, keep false
    ]
    out = (
        text_analysis.gopher_rules(ray.data.from_items(rows), min_stop_hits=2)
        .to_pandas()
        .set_index("doc_id")
    )
    assert bool(out.loc[0, "keep"])
    for i in range(1, 9):
        assert not out.loc[i, "keep"], f"doc {i} should fail"
    assert out.loc[1, "n_words"] == 5
    assert out.loc[4, "frac_bullet_lines"] >= 0.9
    assert out.loc[5, "frac_ellipsis_lines"] >= 0.3
    assert out.loc[6, "frac_alpha_words"] < 0.8
    assert out.loc[7, "n_stop_hits"] == 0
    assert out.loc[8, "n_words"] == 0 and out.loc[8, "mean_word_len"] == 0.0


def test_exact_dedup_ids_null_id(ray_session):
    """SQL MIN semantics for null ids: a null id never wins over a
    non-null one; an all-null-id text keeps a single NULL row (review
    finding: the old comparison raised TypeError on None < int)."""
    rows = [
        {"doc_id": 5, "text": "x"},
        {"doc_id": None, "text": "x"},   # loses to 5 regardless of order
        {"doc_id": None, "text": "only nulls"},
        {"doc_id": 2, "text": "y"},
    ]
    out = dedup.exact_dedup_ids(ray.data.from_items(rows)).take_all()
    got = sorted(
        (r["doc_id"] for r in out), key=lambda v: (v is None, v if v is not None else 0)
    )
    assert got == [2, 5, None]


def test_chunk_documents_rule(ray_session):
    from pdf_parser_ray.ops import curation

    text_12 = " ".join(f"w{i}" for i in range(12))
    rows = [
        {"doc_id": 1, "text": text_12},          # 12 toks, window 5 stride 3
        {"doc_id": 2, "text": "a b"},            # n <= window -> one chunk
        {"doc_id": 3, "text": ""},               # no tokens -> no rows
        {"doc_id": 4, "text": None},
        {"doc_id": 5, "text": "  x   y  "},      # rejoin normalizes spaces
    ]
    out = (
        curation.chunk_documents(
            ray.data.from_items(rows), window=5, stride=3
        )
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    d1 = out[out.doc_id == 1]
    # n=12: n_chunks = 1 + ceil(7/3) = 4; starts 0,3,6,9
    assert list(d1.chunk_id) == [0, 1, 2, 3]
    assert list(d1.n_tokens) == [5, 5, 5, 3]
    assert d1.iloc[0].chunk_text == "w0 w1 w2 w3 w4"
    assert d1.iloc[3].chunk_text == "w9 w10 w11"  # tail chunk covers the end
    # every token index is covered by at least one chunk
    covered = set()
    for _, r in d1.iterrows():
        covered.update(range(r.chunk_id * 3, r.chunk_id * 3 + r.n_tokens))
    assert covered == set(range(12))
    assert list(out[out.doc_id == 2].chunk_text) == ["a b"]
    assert not set(out.doc_id) & {3, 4}
    assert list(out[out.doc_id == 5].chunk_text) == ["x y"]


def test_chunk_documents_disjoint_when_stride_equals_window(ray_session):
    from pdf_parser_ray.ops import curation

    text = " ".join(f"t{i}" for i in range(10))
    out = (
        curation.chunk_documents(
            ray.data.from_items([{"doc_id": 0, "text": text}]), window=4, stride=4
        )
        .to_pandas()
        .sort_values("chunk_id")
    )
    assert list(out.n_tokens) == [4, 4, 2]
    assert " ".join(out.chunk_text) == text  # exact disjoint partition


def test_normalize_text(ray_session):
    from pdf_parser_ray.ops import curation

    rows = [
        {"doc_id": 1, "text": "  Hello\t\tWORLD \n again  "},
        {"doc_id": 2, "text": None},
        {"doc_id": 3, "text": "   "},
    ]
    out = (
        curation.normalize_text(ray.data.from_items(rows))
        .to_pandas()
        .set_index("doc_id")
    )
    assert out.loc[1, "norm_text"] == "hello world again"
    assert out.loc[1, "n_chars"] == 17
    assert out.loc[2, "norm_text"] is None or out.loc[2, "norm_text"] != out.loc[2, "norm_text"]  # null stays null
    assert out.loc[3, "norm_text"] == ""


def test_global_rank_ties_and_nulls(ray_session):
    from pdf_parser_ray.ops.relational import global_rank

    rows = [
        {"doc_id": 3, "s": 10},
        {"doc_id": 1, "s": 10},
        {"doc_id": 2, "s": 50},
        {"doc_id": 4, "s": None},
        {"doc_id": 5, "s": 7},
    ]
    out = (
        global_rank(
            ray.data.from_items(rows), "s", id_col="doc_id", num_buckets=4
        )
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    # DESC, ties by id, nulls last
    assert list(out.doc_id) == [2, 1, 3, 5, 4]
    assert list(out["rank"]) == [1, 2, 3, 4, 5]
    assert out.percentile.iloc[0] == 0.2
    assert out.percentile.iloc[4] == 1.0


def test_global_rank_matches_pandas_many_buckets(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.relational import global_rank

    rng = np.random.RandomState(7)
    scores = rng.randint(0, 40, size=300)  # heavy ties across bucket cuts
    rows = [{"doc_id": int(i), "s": int(s)} for i, s in enumerate(scores)]
    for desc in (True, False):
        out = (
            global_rank(
                ray.data.from_items(rows),
                "s",
                id_col="doc_id",
                descending=desc,
                num_buckets=16,
            )
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        want = sorted(rows, key=lambda r: (-r["s"] if desc else r["s"], r["doc_id"]))
        assert list(out.doc_id) == [r["doc_id"] for r in want]
        assert list(out["rank"]) == list(range(1, 301))


def test_global_rank_custom_cuts_equal_scores_share_bucket(ray_session):
    from pdf_parser_ray.ops.relational import global_rank

    # a cut landing exactly ON a tied score value must not split the tie
    rows = [{"doc_id": i, "s": s} for i, s in enumerate([5, 10, 10, 15])]
    out = (
        global_rank(
            ray.data.from_items(rows), "s", id_col="doc_id",
            descending=False, cuts=[10.0],
        )
        .to_pandas()
        .sort_values("rank")
    )
    assert list(out.doc_id) == [0, 1, 2, 3]
    assert list(out["rank"]) == [1, 2, 3, 4]


def test_global_rank_constant_scores_single_bucket(ray_session):
    from pdf_parser_ray.ops.relational import global_rank

    rows = [{"doc_id": i, "s": 9} for i in range(5)]
    out = (
        global_rank(ray.data.from_items(rows), "s", id_col="doc_id")
        .to_pandas()
        .sort_values("rank")
    )
    assert list(out.doc_id) == [0, 1, 2, 3, 4]


def test_semantic_dedup_planted_blob_dups(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.dedup import semantic_dedup

    # two well-separated blobs, ids interleaved so the deterministic
    # kmeans init (two smallest ids) lands one centroid in each blob
    rng = np.random.RandomState(3)
    base = {0: rng.randn(8), 1: rng.randn(8) + 12.0}
    rows = [
        {"vec_id": vid, "embedding": (base[vid % 2] + 1e-3 * rng.randn(8)).tolist()}
        for vid in range(10)
    ]
    out = (
        semantic_dedup(
            ray.data.from_items(rows), k=2, n_iters=3, threshold=0.99
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    assert len(out) == 10
    # every vector in a blob is a near-dup of the blob's min id: only the
    # min id of each blob survives
    assert sorted(out[out.keep].vec_id) == [0, 1]
    # each blob maps to a single cluster
    assert out[out.vec_id % 2 == 0].cluster.nunique() == 1
    assert out[out.vec_id % 2 == 1].cluster.nunique() == 1


def test_semantic_dedup_dissimilar_all_kept(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.dedup import semantic_dedup

    # orthogonal-ish random vectors: nothing crosses a 0.99 cosine cut
    rng = np.random.RandomState(9)
    rows = [
        {"vec_id": i, "embedding": rng.randn(16).tolist()} for i in range(12)
    ]
    out = semantic_dedup(
        ray.data.from_items(rows), k=3, n_iters=2, threshold=0.99
    ).to_pandas()
    assert out.keep.all()
    assert len(out) == 12


def test_semantic_dedup_giant_cluster_split_bounds_groups(ray_session):
    import numpy as np

    from pdf_parser_ray.functions.hashing import md5_bucket
    from pdf_parser_ray.ops.dedup import semantic_dedup

    # ONE giant near-dup cluster of 600 vectors (k=1 forces them together)
    # with max_cluster_rows=100 -> 6 md5-of-id sub-buckets; the dense pass
    # must never see the whole cluster, and keep-vectors follow the split
    rng = np.random.RandomState(7)
    base = rng.randn(8)
    rows = [
        {"vec_id": i, "embedding": (base + 1e-4 * rng.randn(8)).tolist()}
        for i in range(600)
    ]
    out = (
        semantic_dedup(
            ray.data.from_items(rows),
            k=1,
            n_iters=2,
            threshold=0.99,
            max_cluster_rows=100,
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    assert len(out) == 600
    # the split is md5_bucket(f"sem:{cluster}:{id}", 6): within each
    # sub-bucket exactly the min id survives -> 6 keepers, and they are
    # exactly the per-sub-bucket minima
    subs = {}
    for i in range(600):
        subs.setdefault(md5_bucket(f"sem:0:{i}", 6), []).append(i)
    expect_keep = sorted(min(v) for v in subs.values())
    assert sorted(out[out.keep].vec_id) == expect_keep
    # and every sub-bucket is well under the unsplit cluster size
    assert max(len(v) for v in subs.values()) < 200


def test_semantic_dedup_auto_k_scales_with_corpus(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.dedup import semantic_dedup

    rng = np.random.RandomState(11)
    rows = [{"vec_id": i, "embedding": rng.randn(8).tolist()} for i in range(64)]
    # k=None -> max(8, 64 // 4) = 16 clusters requested
    out = semantic_dedup(
        ray.data.from_items(rows),
        k=None,
        n_iters=2,
        threshold=0.999,
        target_cluster_size=4,
    ).to_pandas()
    assert len(out) == 64
    assert out.cluster.nunique() > 8  # more clusters than the old fixed k=8


def test_embedding_near_dup_string_ids(ray_session):
    from pdf_parser_ray.ops.dedup import (
        embedding_near_dup,
        embedding_near_dup_exact,
    )

    # string id columns must survive the pair-ordering path (numpy 1.26
    # has no min/max ufunc for str arrays) and order lexicographically
    rows = [
        {"vec_id": "doc-b", "embedding": [1.0, 0.0, 0.0]},
        {"vec_id": "doc-a", "embedding": [1.0, 1e-4, 0.0]},
        {"vec_id": "doc-z", "embedding": [0.0, 1.0, 0.0]},
    ]
    for fn in (embedding_near_dup, embedding_near_dup_exact):
        out = fn(ray.data.from_items(rows), threshold=0.99).to_pandas()
        assert len(out) == 1
        assert (out.id_a.iloc[0], out.id_b.iloc[0]) == ("doc-a", "doc-b")


def test_exact_dedup_huge_ids_no_float_precision_loss(ray_session):
    from pdf_parser_ray.ops.dedup import exact_dedup

    # ids above 2^53 with a null id in the same hash bucket: a pandas
    # float64 round-trip would corrupt the low bits and keep a wrong id
    big = (1 << 60) + 1  # not representable in float64 (rounds to 2^60)
    rows = [
        {"doc_id": big, "text": "same"},
        {"doc_id": big + 2, "text": "same"},
        {"doc_id": None, "text": "same"},
        {"doc_id": None, "text": "other"},
    ]
    # read back via Arrow rows — a pandas round-trip HERE would float the
    # ids too (the exact failure mode under test)
    kept = {
        (r["doc_id"], r["text"])
        for r in exact_dedup(ray.data.from_items(rows)).take_all()
    }
    assert kept == {(big, "same"), (None, "other")}


def test_lm_surprisal_hand_computed(ray_session):
    from pdf_parser_ray.ops.curation import lm_surprisal

    # corpus: "a a b" + "a c" -> N=5; c(a)=3, c(b)=1, c(c)=1
    # s(a) = bit_length(5//3=1) = 1; s(b) = s(c) = bit_length(5) = 3
    rows = [
        {"doc_id": 1, "text": "a a b"},
        {"doc_id": 2, "text": "a c"},
        {"doc_id": 3, "text": ""},       # no tokens -> no row
        {"doc_id": 4, "text": None},     # null text -> no row
    ]
    out = (
        lm_surprisal(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.doc_id) == [1, 2]
    assert list(out.n_tokens) == [3, 2]
    assert list(out.total_surprisal) == [1 + 1 + 3, 1 + 3]
    assert list(out.mean_surprisal) == [
        float(f"{5 / 3:.6f}"),
        float(f"{4 / 2:.6f}"),
    ]


def test_lm_surprisal_route_equality(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.curation import lm_surprisal

    rng = np.random.RandomState(31)
    vocab = [f"w{i}" for i in range(40)]
    rows = [
        {
            "doc_id": i,
            "text": " ".join(
                vocab[j] for j in rng.randint(0, 40, rng.randint(1, 30))
            ),
        }
        for i in range(60)
    ]
    ds = ray.data.from_items(rows)
    broad = (
        lm_surprisal(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    joined = (
        lm_surprisal(ds, broadcast_max_vocab=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(broad, joined, check_dtype=False)


def test_assign_splits_deterministic_and_complete(ray_session):
    from pdf_parser_ray.functions.hashing import md5_bucket
    from pdf_parser_ray.ops.curation import assign_splits

    rows = [{"doc_id": i} for i in range(200)] + [{"doc_id": None}]
    out = assign_splits(ray.data.from_items(rows)).to_pandas()
    assert len(out) == 201
    # every row gets exactly one split; buckets reproduce md5_bucket
    got = out[out.doc_id.notna()]
    for _, r in got.head(20).iterrows():
        b = md5_bucket(f"split:{int(r.doc_id)}", 10_000)
        assert r.bucket == b
        assert r.split == ("train" if b < 8000 else "val" if b < 9000 else "test")
    # null id: NULL bucket (what SQL's md5(NULL) gives), last split (the
    # CASE ELSE arm) — op and oracle agree on the null path
    nrow = out[out.doc_id.isna()]
    assert list(nrow.split) == ["test"] and nrow.bucket.isna().all()
    # roughly proportional (hash uniformity, wide tolerance)
    frac = (got.split == "train").mean()
    assert 0.6 < frac < 0.95


def test_assign_splits_custom_fractions_and_validation(ray_session):
    import pytest as _pytest

    from pdf_parser_ray.ops.curation import assign_splits

    ds = ray.data.from_items([{"doc_id": i} for i in range(50)])
    out = assign_splits(ds, fractions={"a": 0.5, "b": 0.5}).to_pandas()
    assert set(out.split) <= {"a", "b"}
    assert ((out.bucket < 5000) == (out.split == "a")).all()
    with _pytest.raises(ValueError):
        assign_splits(ds, fractions={"a": 0.5, "b": 0.2})


def test_dup_span_stats_planted(ray_session):
    from pdf_parser_ray.ops.dedup import dup_span_stats

    shared = "alpha beta gamma delta epsilon"  # one 5-gram, in docs 1 and 2
    rows = [
        {"doc_id": 1, "text": shared + " zeta"},      # grams: 2, 1 dup
        {"doc_id": 2, "text": "eta " + shared},       # grams: 2, 1 dup
        {"doc_id": 3, "text": "unique words only here now indeed"},  # 2, 0
        {"doc_id": 4, "text": "short"},                # <5 tokens -> 1 gram
        {"doc_id": 5, "text": ""},                     # no tokens -> no row
    ]
    out = (
        dup_span_stats(ray.data.from_items(rows), n=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.doc_id) == [1, 2, 3, 4]
    assert list(out.n_grams) == [2, 2, 2, 1]
    assert list(out.n_dup_grams) == [1, 1, 0, 0]
    assert list(out.dup_fraction) == [0.5, 0.5, 0.0, 0.0]


def test_dup_span_stats_within_doc_repeats_not_dup(ray_session):
    from pdf_parser_ray.ops.dedup import dup_span_stats

    # doc 1 repeats its own 5-gram twice; no other doc shares it ->
    # occurrences counted, but nothing is cross-doc duplicated
    rows = [
        {"doc_id": 1, "text": "a b c d e a b c d e"},
        {"doc_id": 2, "text": "v w x y z"},
    ]
    out = (
        dup_span_stats(ray.data.from_items(rows), n=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.n_grams) == [6, 1]
    assert list(out.n_dup_grams) == [0, 0]


def test_assign_splits_exact_decimal_cutoffs(ray_session):
    from pdf_parser_ray.ops.curation import assign_splits

    # 0.07 + 0.58 accumulates to 0.6499999999999999 in floats; the cutoff
    # must still be exactly 6500 (Fraction arithmetic), so a doc hashing
    # to bucket 6499 is 'b', not 'c'
    ds = ray.data.from_items([{"doc_id": i} for i in range(3000)])
    out = assign_splits(ds, fractions={"a": 0.07, "b": 0.58, "c": 0.35}).to_pandas()
    assert ((out.bucket < 700) == (out.split == "a")).all()
    assert (
        ((out.bucket >= 700) & (out.bucket < 6500)) == (out.split == "b")
    ).all()
    assert ((out.bucket >= 6500) == (out.split == "c")).all()


def test_dup_span_stats_null_id_dropped(ray_session):
    from pdf_parser_ray.ops.dedup import dup_span_stats

    rows = [
        {"doc_id": 1, "text": "a b c d e"},
        {"doc_id": None, "text": "a b c d e"},  # unattributable: dropped,
        # and it must NOT make doc 1's gram "duplicated"
    ]
    out = dup_span_stats(ray.data.from_items(rows), n=5).to_pandas()
    assert list(out.doc_id) == [1]
    assert list(out.n_dup_grams) == [0]


def test_curate_corpus_end_to_end(ray_session):
    from pdf_parser_ray.ops.curation import curate_corpus

    good = (
        "the quick brown fox jumps over the lazy dog and that is fine "
        "to have be of " * 5
    ).strip()
    rows = [
        {"doc_id": 1, "text": good, "lang": "en"},
        {"doc_id": 2, "text": good, "lang": "de"},   # exact dup: min id wins
        {"doc_id": 3, "text": "short", "lang": "en"},  # fails min_words
        {"doc_id": 4, "text": good + " extra", "lang": "fr"},
        {"doc_id": 5, "text": None, "lang": "en"},   # null text: filtered
    ]
    out = (
        curate_corpus(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.doc_id) == [1, 4]
    assert list(out.lang) == ["en", "fr"]  # the kept row's attrs, not the dup's
    assert set(out.columns) == {"doc_id", "lang", "n_words", "bucket", "split"}
    assert out.split.isin(["train", "val", "test"]).all()


def test_curate_corpus_split_matches_assign_splits(ray_session):
    from pdf_parser_ray.ops.curation import assign_splits, curate_corpus

    good = (
        "the quick brown fox jumps over the lazy dog and that is fine "
        "to have be of " * 5
    ).strip()
    rows = [{"doc_id": i, "text": f"{good} v{i}", "lang": "en"} for i in range(30)]
    ds = ray.data.from_items(rows)
    cur = curate_corpus(ds).to_pandas().set_index("doc_id")
    spl = assign_splits(ds).to_pandas().set_index("doc_id")
    for i in cur.index:
        assert cur.loc[i, "split"] == spl.loc[i, "split"]
        assert cur.loc[i, "bucket"] == spl.loc[i, "bucket"]


def test_rebalance_sources_threshold_math(ray_session):
    from pdf_parser_ray.functions.hashing import md5_bucket
    from pdf_parser_ray.ops.curation import rebalance_sources

    # big: 90 docs x 10 tokens = 900; small: 10 docs x 10 = 100; total 1000
    rows = [
        {"doc_id": i, "source": "big", "text": "t " * 10} for i in range(90)
    ] + [
        {"doc_id": 100 + i, "source": "small", "text": "t " * 10}
        for i in range(10)
    ]
    out = rebalance_sources(
        ray.data.from_items(rows),
        targets={"big": 0.5},
        default_share=0.5,
    ).to_pandas()
    # thresh(big) = min(1e6, 500000*1000//900) = 555555; small: capped 1e6
    assert (out[out.source == "small"].doc_id >= 100).all()
    assert len(out[out.source == "small"]) == 10  # under target: keep all
    kept_big = set(out[out.source == "big"].doc_id)
    want_big = {
        i for i in range(90) if md5_bucket(f"mix:{i}", 1_000_000) < 555_555
    }
    assert kept_big == want_big
    assert (out.n_tokens == 10).all()


def test_rebalance_sources_zero_token_source_kept(ray_session):
    from pdf_parser_ray.ops.curation import rebalance_sources

    rows = [
        {"doc_id": 1, "source": "empty", "text": ""},
        {"doc_id": 2, "source": "empty", "text": None},
        {"doc_id": 3, "source": "full", "text": "a b c"},
    ]
    out = rebalance_sources(
        ray.data.from_items(rows), default_share=1.0
    ).to_pandas()
    # zero-token source: nothing to downsample, all kept; share 1.0 keeps all
    assert sorted(out.doc_id) == [1, 2, 3]
    assert sorted(out.n_tokens) == [0, 0, 3]


def test_surprisal_filter_keeps_least_surprising(ray_session):
    from pdf_parser_ray.ops.curation import surprisal_filter

    # common-word docs score low surprisal; the rare-word doc scores high
    rows = [
        {"doc_id": 1, "text": "a a a a"},
        {"doc_id": 2, "text": "a a a b"},
        {"doc_id": 3, "text": "a a b b"},
        {"doc_id": 4, "text": "xyzzy quux plugh wibble"},
    ]
    out = (
        surprisal_filter(ray.data.from_items(rows), keep_frac=0.75)
        .to_pandas()
        .sort_values("rank")
        .reset_index(drop=True)
    )
    # floor(0.75 * 4) = 3 kept; the rare-word doc 4 is cut
    assert list(out.doc_id) == [1, 2, 3]
    assert list(out["rank"]) == [1, 2, 3]
    assert out.mean_surprisal.is_monotonic_increasing


def test_surprisal_filter_cutoff_floor(ray_session):
    from pdf_parser_ray.ops.curation import surprisal_filter

    rows = [{"doc_id": i, "text": f"w{i} common common"} for i in range(7)]
    out = surprisal_filter(ray.data.from_items(rows), keep_frac=0.5).to_pandas()
    assert len(out) == 3  # floor(0.5 * 7)


def test_dedup_lines_first_occurrence_wins(ray_session):
    from pdf_parser_ray.ops.dedup import dedup_lines

    boiler = "subscribe to our newsletter today"
    rows = [
        {"doc_id": 2, "text": f"{boiler}\nunique beta content line two"},
        {"doc_id": 1, "text": f"unique alpha content line one\n{boiler}\nok"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": None},
    ]
    out = (
        dedup_lines(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("doc_id")
        .set_index("doc_id")
    )
    # first occurrence = min (doc_id, idx): doc 1 keeps the boilerplate
    assert out.loc[1, "clean_text"] == f"unique alpha content line one\n{boiler}\nok"
    assert out.loc[2, "clean_text"] == "unique beta content line two"
    assert out.loc[2, "n_lines_removed"] == 1
    # short lines ("ok") are never candidates even when repeated
    assert out.loc[1, "n_lines_removed"] == 0
    # empty/null docs: one empty line, kept
    assert out.loc[3, "clean_text"] == "" and out.loc[3, "n_lines_kept"] == 1
    assert out.loc[4, "clean_text"] == "" and out.loc[4, "n_lines_kept"] == 1


def test_dedup_lines_route_equality(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.dedup import dedup_lines

    rng = np.random.RandomState(7)
    bank = [f"repeated boilerplate line number {i}" for i in range(8)]
    rows = [
        {
            "doc_id": i,
            "text": "\n".join(
                bank[j] if j < 8 else f"unique line {i}-{j} with enough length"
                for j in rng.randint(0, 16, rng.randint(1, 10))
            ),
        }
        for i in range(40)
    ]
    ds = ray.data.from_items(rows)
    broad = dedup_lines(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    joined = (
        dedup_lines(ds, broadcast_max_removals=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(broad, joined, check_dtype=False)
    # every boilerplate line survives exactly once corpus-wide
    all_text = "\n".join(broad.clean_text)
    for b in bank:
        assert all_text.count(b) <= 1


def test_dedup_lines_null_id_dropped_entirely(ray_session):
    from pdf_parser_ray.ops.dedup import dedup_lines

    line = "a duplicated line with enough length"
    rows = [
        {"doc_id": None, "text": line},
        {"doc_id": 1, "text": line},
    ]
    ds = ray.data.from_items(rows)
    for kw in ({}, {"broadcast_max_removals": 0}):
        out = dedup_lines(ds, **kw).to_pandas()
        # the null-id doc neither appears nor competes (oracle parity)
        assert list(out.doc_id) == [1]
        assert out.clean_text.iloc[0] == line


def test_dedup_events_debounce_chain(ray_session):
    import datetime as dt

    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import dedup_events

    t0 = dt.datetime(2024, 1, 1)
    sec = lambda s: t0 + dt.timedelta(seconds=s)
    rows = [
        # user 1 "click": 0s kept, 30s dropped, 70s dropped (chain: raw
        # predecessor at 30s is within the 60s window), 200s kept
        {"event_id": 1, "ts": sec(0), "user_id": 1, "event_type": "click"},
        {"event_id": 2, "ts": sec(30), "user_id": 1, "event_type": "click"},
        {"event_id": 3, "ts": sec(70), "user_id": 1, "event_type": "click"},
        {"event_id": 4, "ts": sec(200), "user_id": 1, "event_type": "click"},
        # different event_type: independent stream
        {"event_id": 5, "ts": sec(10), "user_id": 1, "event_type": "view"},
        # tie timestamps: id order decides, second one dropped
        {"event_id": 6, "ts": sec(0), "user_id": 2, "event_type": "click"},
        {"event_id": 7, "ts": sec(0), "user_id": 2, "event_type": "click"},
    ]
    # from_items degrades datetime precision; build a [us] Arrow table
    tbl = pa.Table.from_pylist(rows).set_column(
        1, "ts", pa.Table.from_pylist(rows)["ts"].cast(pa.timestamp("us"))
    )
    out = (
        dedup_events(ray.data.from_arrow(tbl), window_seconds=60)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert list(out.event_id) == [1, 4, 5, 6]
    got = dict(zip(out.event_id, out.gap_us))
    assert got[1] == -1 and got[5] == -1 and got[6] == -1
    assert got[4] == 130_000_000  # vs raw predecessor at 70s
    assert str(out.gap_us.dtype) == "int64"


def test_quantize_embeddings_roundtrip_bound(ray_session):
    import numpy as np

    from pdf_parser_ray.ops.similarity import dequantize_codes, quantize_embeddings

    rng = np.random.RandomState(5)
    vecs = rng.randn(50, 8).astype(np.float32)
    vecs[:, 3] = 1.25  # degenerate dimension
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(50)
    ]
    out = quantize_embeddings(ray.data.from_items(rows)).to_pandas()
    assert len(out) == 50
    v64 = vecs.astype(np.float64)
    mn, mx = v64.min(axis=0), v64.max(axis=0)
    codes = {int(r.vec_id): r.codes for r in out.itertuples()}
    for i in range(50):
        c = np.array([int(x) for x in codes[i].split(",")])
        assert c.min() >= 0 and c.max() <= 255
        assert c[3] == 0  # degenerate dim codes to 0
        recon = dequantize_codes(codes[i], mn, mx)
        scale = np.where(mx == mn, 0.0, (mx - mn) / 255.0)
        # midpoint reconstruction is within half a quantization step
        assert (np.abs(recon - v64[i]) <= scale / 2 + 1e-12).all()
        assert recon[3] == mn[3]


def test_quantize_embeddings_drops_null_and_empty(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.ops.similarity import dequantize_codes, quantize_embeddings

    tbl = pa.table(
        {
            "vec_id": pa.array([1, 2, 3], pa.int64()),
            "embedding": pa.array(
                [[1.0, 2.0], None, []], pa.list_(pa.float32())
            ),
        }
    )
    out = quantize_embeddings(ray.data.from_arrow(tbl)).to_pandas()
    # null/empty embeddings drop (the unnest-of-empty-list oracle answer)
    assert list(out.vec_id) == [1]
    import numpy as np

    assert dequantize_codes("", np.array([]), np.array([])).size == 0


def test_dedup_events_null_keys_dropped(ray_session):
    import datetime as dt

    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import dedup_events

    t0 = dt.datetime(2024, 1, 1)
    rows = [
        {"event_id": 1, "ts": t0, "user_id": None, "event_type": "click"},
        {"event_id": 2, "ts": t0 + dt.timedelta(seconds=30), "user_id": None, "event_type": "click"},
        {"event_id": 3, "ts": t0, "user_id": 1, "event_type": None},
        {"event_id": 4, "ts": t0, "user_id": 1, "event_type": "click"},
    ]
    tbl = pa.Table.from_pylist(rows).set_column(
        1, "ts", pa.Table.from_pylist(rows)["ts"].cast(pa.timestamp("us"))
    )
    out = dedup_events(ray.data.from_arrow(tbl), window_seconds=60).to_pandas()
    assert list(out.event_id) == [4]


def test_split_cutoffs_rejects_bad_fractions(ray_session):
    import pytest as _pytest

    from pdf_parser_ray.ops.curation import _split_cutoffs, curate_corpus

    with _pytest.raises(ValueError):
        _split_cutoffs({"train": 0.5, "val": 0.1})
    with _pytest.raises(ValueError):
        curate_corpus(
            ray.data.from_items([{"doc_id": 1, "text": "x", "lang": "en"}]),
            fractions={"a": 0.8, "b": 0.2, "c": 0.1},
        )


def test_grouped_quantiles_differential_fuzz_vs_duckdb(ray_session):
    """Random grouped tables: the op's interpolation must match DuckDB
    quantile_cont bit-for-bit after the shared decimal rounding — the
    protection against ULP divergence at arbitrary rank fractions."""
    import duckdb

    from pdf_parser_ray.ops.relational import grouped_quantiles

    rng = np.random.RandomState(17)
    for trial in range(4):
        n = int(rng.randint(20, 200))
        langs = [f"g{int(rng.randint(0, 5))}" for _ in range(n)]
        vals = np.round(rng.randn(n) * 100, 3)
        t = pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "n_chars": pa.array(vals, pa.float64()),
            }
        )
        qs = [0.1, 0.33, 0.5, 0.9]
        got = (
            grouped_quantiles(ray.data.from_arrow(t), "lang", "n_chars", qs)
            .to_pandas()
            .sort_values(["lang", "q"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("docs", t.to_pandas())
        want = con.sql(
            " UNION ALL ".join(
                f"SELECT lang, {q} AS q, CAST(printf('%.6f', "
                f"quantile_cont(n_chars, {q})) AS DOUBLE) AS value "
                "FROM docs GROUP BY lang"
                for q in qs
            )
            + " ORDER BY lang, q"
        ).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def test_top_k_per_group_differential_fuzz_vs_duckdb(ray_session):
    """Random tables with duplicate order values and nulls everywhere:
    the op must equal the SQL ROW_NUMBER window row-for-row."""
    import duckdb

    from pdf_parser_ray.ops.relational import top_k_per_group

    rng = np.random.RandomState(23)
    for trial in range(4):
        n = int(rng.randint(20, 150))
        t = pa.table(
            {
                "source": pa.array(
                    [
                        None if rng.rand() < 0.15 else f"s{int(rng.randint(0, 6))}"
                        for _ in range(n)
                    ],
                    pa.string(),
                ),
                "n_chars": pa.array(
                    [
                        None if rng.rand() < 0.15 else int(rng.randint(0, 9))
                        for _ in range(n)
                    ],
                    pa.int64(),
                ),
                "doc_id": pa.array(range(n), pa.int64()),
            }
        )
        got = (
            top_k_per_group(
                ray.data.from_arrow(t), "source", "n_chars", k=3, id_col="doc_id"
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("docs", t.to_pandas())
        want = con.sql(
            "SELECT source, n_chars, doc_id FROM ("
            "SELECT *, ROW_NUMBER() OVER (PARTITION BY source "
            "ORDER BY n_chars DESC NULLS LAST, doc_id ASC NULLS LAST) rn "
            "FROM docs) WHERE rn <= 3 ORDER BY doc_id"
        ).df().reset_index(drop=True)
        assert sorted(got.doc_id) == sorted(want.doc_id)


def test_image_resizer_real_kernel_roundtrip(ray_session):
    """Real resize: decode -> nearest-neighbor -> PNG re-encode. A flat
    color survives exactly through every supported format; output dims
    follow the shared _fit_dims law; the payload is a decodable PNG."""
    from pdf_parser_ray.functions.jpeg import encode_jpeg
    from pdf_parser_ray.functions.png import decode_png, encode_png
    from pdf_parser_ray.ops import multimodal as mm

    w, h = 24, 10
    flat_rgb = np.full(3 * w * h, 77, dtype=np.uint8)
    header = f"P6\n{w} {h}\n255\n".encode()
    payloads = {
        "ppm": header + flat_rgb.tobytes(),
        "png": encode_png(w, h, flat_rgb, color_type=2),
        "jpeg": encode_jpeg(w, h, flat_rgb, quality=95),
    }
    r = mm.ImageResizer(max_side=8, fake=False)
    for fmt, payload in payloads.items():
        out = r._resize_real(
            {"doc_id": "d", "media_ref": fmt, "media_type": "image",
             "payload": payload}
        )
        assert out["decode_ok"], fmt
        assert (out["width"], out["height"]) == (w, h)
        assert (out["out_width"], out["out_height"]) == mm._fit_dims(w, h, 8)
        ow, oh, px = decode_png(out["payload"])
        assert (ow, oh) == (out["out_width"], out["out_height"])
        # flat color survives resampling bit-for-bit (JPEG q95 flat ±1)
        assert np.abs(px.astype(int) - 77).max() <= 1, fmt

    # no upscaling: small image passes through at original dims
    small = r._resize_real(
        {"doc_id": "d", "media_ref": "s", "media_type": "image",
         "payload": encode_png(4, 3, np.zeros(36, np.uint8), 2)}
    )
    assert (small["out_width"], small["out_height"]) == (4, 3)

    # BMP has no faithful pixel layout here -> degrade, don't guess
    bad = r._resize_real(
        {"doc_id": "d", "media_ref": "b", "media_type": "image",
         "payload": b"BM" + b"\x00" * 60}
    )
    assert not bad["decode_ok"]


def test_resize_media_stage_over_synth_corpus(ray_session):
    from pdf_parser_ray.ops import multimodal as mm

    media = ray.data.from_arrow(
        pa.Table.from_pylist(
            [
                {"doc_id": "1", "media_ref": f"img://x/{i}", "media_type": "image",
                 "payload": mm.synthesize_jpeg(f"img://x/{i}")}
                for i in range(6)
            ],
            schema=mm.MEDIA_SCHEMA,
        )
    )
    out = mm.resize_media(media, max_side=16, fake=False).to_pandas()
    assert len(out) == 6 and out.decode_ok.all()
    assert (out.out_width <= 16).all() and (out.out_height <= 16).all()


def test_resize_degrade_paths_never_crash(ray_session):
    """Corrupt-DEFLATE PNG, zero-dimension PNM, and 16-bit PNM must all
    degrade to decode_ok=False in the real resize path — none may crash
    the task (review-found crash/garbage paths)."""
    import struct
    import zlib as _zlib

    from pdf_parser_ray.functions.png import PNG_SIGNATURE
    from pdf_parser_ray.ops import multimodal as mm

    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", _zlib.crc32(ctype + data))
        )

    corrupt_png = (
        PNG_SIGNATURE
        + chunk(b"IHDR", struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", b"\x99\x88\x77\x66garbage-not-deflate")
        + chunk(b"IEND", b"")
    )
    zero_pnm = b"P6\n0 5\n255\n" + b"\x00" * 16
    pnm16 = b"P6\n4 4\n65535\n" + b"\x00\x01" * 48

    r = mm.ImageResizer(max_side=8, fake=False)
    for name, payload in [
        ("corrupt_png", corrupt_png),
        ("zero_pnm", zero_pnm),
        ("pnm16", pnm16),
    ]:
        out = r._resize_real(
            {"doc_id": "d", "media_ref": name, "media_type": "image",
             "payload": payload}
        )
        assert not out["decode_ok"], name

    # the 16-bit PNM also degrades (not garbage-decodes) in MediaDecoder
    feat = mm.MediaDecoder(fake=False)._decode("x", pnm16)
    assert not feat["decode_ok"]


def test_fit_dims_sql_parity_exhaustive():
    """The resize geometry law must equal the oracle's SQL expression for
    EVERY source dimension the synth corpus can produce (4..35 per side)
    — an exhaustive pin, so no rounding boundary can ever drift."""
    import duckdb

    from pdf_parser_ray.ops.multimodal import _fit_dims

    con = duckdb.connect()
    rows = con.sql(
        "SELECT w, h, "
        "CAST(GREATEST(1, round_even(w * LEAST(1.0, 16.0 / GREATEST(w, h, 1)), 0)) AS INT), "
        "CAST(GREATEST(1, round_even(h * LEAST(1.0, 16.0 / GREATEST(w, h, 1)), 0)) AS INT) "
        "FROM range(4, 36) t1(w), range(4, 36) t2(h)"
    ).fetchall()
    assert len(rows) == 32 * 32
    for w, h, sql_ow, sql_oh in rows:
        assert _fit_dims(int(w), int(h), 16) == (sql_ow, sql_oh), (w, h)


def test_event_rate_anomaly_hand_computed(ray_session):
    import datetime as dt

    import numpy as np
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import event_rate_anomaly

    t0 = dt.datetime(2024, 1, 1)
    hours = lambda h: t0 + dt.timedelta(hours=h)
    rows = []
    # user 1: counts 1,1,1,10 over four hour-windows -> the 10 is a burst
    for h, n in [(0, 1), (1, 1), (2, 1), (3, 10)]:
        rows += [{"user_id": 1, "ts": hours(h + i / 100)} for i in range(n)]
    # user 2: single window -> nw=1, var=0, z pinned to 0.0
    rows += [{"user_id": 2, "ts": hours(0)}]
    # dropped rows: null key, null ts
    rows += [{"user_id": None, "ts": hours(0)}, {"user_id": 3, "ts": None}]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"), "ts", tbl["ts"].cast(pa.timestamp("us"))
    )
    out = (
        event_rate_anomaly(ray.data.from_arrow(tbl), window_seconds=3600)
        .to_pandas()
        .sort_values(["user_id", "win"])
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [1, 1, 1, 1, 2]
    assert out["n_events"].tolist() == [1, 1, 1, 10, 1]
    c = np.array([1, 1, 1, 10], np.float64)
    mean = c.sum() / 4
    var = max((c * c).sum() / 4 - mean * mean, 0.0)
    z = np.round((c - mean) / np.sqrt(var), 6)
    assert out["z"].tolist()[:4] == z.tolist()
    assert out["z"].tolist()[4] == 0.0
    assert out["is_anomaly"].tolist() == [int(abs(v) > 2.0) for v in z] + [0]


def test_event_rate_anomaly_matches_oracle_on_seconds_storage(ray_session):
    """Unit-normalization law: a timestamp[s] column must window
    identically to the same instants stored as [us]."""
    import datetime as dt

    import pandas as pd
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import event_rate_anomaly

    t0 = dt.datetime(2024, 1, 1)
    rows = [
        {"user_id": 1, "ts": t0 + dt.timedelta(minutes=7 * i)} for i in range(40)
    ]
    tbl_us = pa.Table.from_pylist(rows)
    tbl_us = tbl_us.set_column(
        tbl_us.schema.get_field_index("ts"),
        "ts",
        tbl_us["ts"].cast(pa.timestamp("us")),
    )
    tbl_s = tbl_us.set_column(
        tbl_us.schema.get_field_index("ts"),
        "ts",
        tbl_us["ts"].cast(pa.timestamp("s")),
    )
    a = (
        event_rate_anomaly(ray.data.from_arrow(tbl_us))
        .to_pandas()
        .sort_values("win")
        .reset_index(drop=True)
    )
    b = (
        event_rate_anomaly(ray.data.from_arrow(tbl_s))
        .to_pandas()
        .sort_values("win")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 5  # 40 events * 7 min span ~ 4.7 hours


def test_pmi_planted_collocation(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.ops.curation import pmi_top_pairs

    # "zig zag" always adjacent (perfect collocation); "the" everywhere
    docs = ["zig zag the x", "zig zag the y", "the zig zag z", None, ""]
    ds = ray.data.from_arrow(pa.table({"text": pa.array(docs, pa.string())}))
    out = pmi_top_pairs(ds, k=5, min_count=3).to_pandas()
    assert list(out.iloc[0][["w1", "w2"]]) == ["zig", "zag"]
    assert out.iloc[0]["c_pair"] == 3
    # min_count: every other pair occurs < 3 times
    assert len(out) == 1


def test_pmi_matches_sql_on_fuzz(ray_session):
    import random

    import duckdb
    import pandas as pd
    import pyarrow as pa

    from pdf_parser_ray.ops.curation import pmi_sql, pmi_top_pairs

    rng = random.Random(3)
    vocab = ["cat", "dog", "fish", "the", "a", "mat"]
    docs = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 15)))
        if rng.random() > 0.1
        else None
        for _ in range(200)
    ]
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    got = pmi_top_pairs(ray.data.from_arrow(tbl), k=10, min_count=2).to_pandas()
    con = duckdb.connect()
    con.register("documents", tbl)
    want = con.execute(pmi_sql(k=10, min_count=2)).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True)
    )


def test_pmi_empty_and_unigram_only(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.ops.curation import pmi_top_pairs

    # single-token docs: B = 0, empty typed result
    ds = ray.data.from_arrow(pa.table({"text": pa.array(["a", "b"], pa.string())}))
    out = pmi_top_pairs(ds, k=5, min_count=1)
    assert out.schema().names == ["w1", "w2", "c_pair", "pmi"]
    assert out.count() == 0


def test_trending_terms_hand_computed(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import trending_terms

    H = 3_600_000_000  # one hour of microseconds
    rows = []
    # window 0: a x3, b x2, c x1 -> top-2 is [a, b]
    for t, n in [("a", 3), ("b", 2), ("c", 1)]:
        rows += [{"ts": i * 1000, "event_type": t} for i in range(n)]
    # window 1: b and c tie at 2 -> key-ascending tiebreak ranks b first
    for t, n in [("b", 2), ("c", 2)]:
        rows += [{"ts": H + i * 1000, "event_type": t} for i in range(n)]
    # dropped: null type, null ts
    rows += [{"ts": 0, "event_type": None}, {"ts": None, "event_type": "a"}]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl["ts"].cast(pa.timestamp("us")),
    )
    out = (
        trending_terms(ray.data.from_arrow(tbl), window_seconds=3600, k=2)
        .to_pandas()
        .sort_values(["win", "rank"])
        .reset_index(drop=True)
    )
    assert out[["win", "event_type", "n_events", "rank"]].values.tolist() == [
        [0, "a", 3, 1],
        [0, "b", 2, 2],
        [1, "b", 2, 1],
        [1, "c", 2, 2],
    ]


def test_funnel_conversion_laws(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import funnel_conversion

    MIN = 60_000_000  # a minute of microseconds
    rows = [
        # user 1 converts: view @0, purchase @5min (within 10min horizon)
        {"user_id": 1, "ts": 0, "event_type": "view"},
        {"user_id": 1, "ts": 5 * MIN, "event_type": "purchase"},
        # user 2: purchase BEFORE the first view only -> tb_us = -1
        {"user_id": 2, "ts": 0, "event_type": "purchase"},
        {"user_id": 2, "ts": MIN, "event_type": "view"},
        # user 3: purchase at the SAME microsecond as the view -> not
        # "strictly after" -> -1
        {"user_id": 3, "ts": 7 * MIN, "event_type": "view"},
        {"user_id": 3, "ts": 7 * MIN, "event_type": "purchase"},
        # user 4: purchase after the horizon -> tb set, converted 0
        {"user_id": 4, "ts": 0, "event_type": "view"},
        {"user_id": 4, "ts": 20 * MIN, "event_type": "purchase"},
        # user 5: purchase-only -> never enters the funnel
        {"user_id": 5, "ts": 0, "event_type": "purchase"},
        # dropped rows: null user, null ts
        {"user_id": None, "ts": 0, "event_type": "view"},
        {"user_id": 6, "ts": None, "event_type": "view"},
        # other event types never count as steps
        {"user_id": 2, "ts": 2 * MIN, "event_type": "click"},
    ]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl["ts"].cast(pa.timestamp("us")),
    )
    out = (
        funnel_conversion(
            ray.data.from_arrow(tbl),
            step_a="view",
            step_b="purchase",
            horizon_seconds=600,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [1, 2, 3, 4]
    assert out["ta_us"].tolist() == [0, MIN, 7 * MIN, 0]
    assert out["tb_us"].tolist() == [5 * MIN, -1, -1, 20 * MIN]
    assert out["converted"].tolist() == [1, 0, 0, 0]


def test_funnel_conversion_same_type_steps(ray_session):
    """step_a == step_b: every row is both an A and a B candidate — the
    'second view within the horizon' funnel."""
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import funnel_conversion

    MIN = 60_000_000
    rows = [
        {"user_id": 1, "ts": 0, "event_type": "view"},
        {"user_id": 1, "ts": 2 * MIN, "event_type": "view"},
        {"user_id": 2, "ts": 0, "event_type": "view"},
    ]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl["ts"].cast(pa.timestamp("us")),
    )
    out = (
        funnel_conversion(
            ray.data.from_arrow(tbl),
            step_a="view",
            step_b="view",
            horizon_seconds=600,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [1, 2]
    assert out["tb_us"].tolist() == [2 * MIN, -1]
    assert out["converted"].tolist() == [1, 0]


def test_funnel_conversion_tb_exact_past_2_53(ray_session):
    """A no-B user in the same bucket must not float64 the tb column:
    a real tb of 2^53+1 us has to round-trip exactly (the left-merge
    NaN-promotion class)."""
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import funnel_conversion

    BIG = 2**53 + 1  # not representable in float64 (rounds to 2^53)
    rows = [
        # users 64 and 128 share hash bucket (64 & 63 == 128 & 63 == 0)
        {"user_id": 64, "ts": 0, "event_type": "view"},
        {"user_id": 64, "ts": BIG, "event_type": "purchase"},
        {"user_id": 128, "ts": 0, "event_type": "view"},
    ]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl["ts"].cast(pa.timestamp("us")),
    )
    out = (
        funnel_conversion(
            ray.data.from_arrow(tbl),
            step_a="view",
            step_b="purchase",
            horizon_seconds=2**53,
        )
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    assert out["tb_us"].tolist() == [BIG, -1]
    assert out["converted"].tolist() == [1, 0]


def test_cohort_retention_hand_computed(ray_session):
    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import cohort_retention

    DAY = 86_400_000_000
    rows = [
        # user 1: cohort day0, active again day2 (two day-0 events collapse)
        {"user_id": 1, "ts": 0},
        {"user_id": 1, "ts": 100},
        {"user_id": 1, "ts": 2 * DAY},
        # user 2: cohort day0 only
        {"user_id": 2, "ts": DAY - 1},
        # user 3: cohort day1, active day2
        {"user_id": 3, "ts": DAY},
        {"user_id": 3, "ts": 2 * DAY + 5},
        # dropped: null user, null ts
        {"user_id": None, "ts": 0},
        {"user_id": 4, "ts": None},
    ]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl["ts"].cast(pa.timestamp("us")),
    )
    out = (
        cohort_retention(ray.data.from_arrow(tbl), window_seconds=86400)
        .to_pandas()
        .sort_values(["cohort", "win_offset"])
        .reset_index(drop=True)
    )
    assert out.values.tolist() == [
        [0, 0, 2],
        [0, 2, 1],
        [1, 0, 1],
        [1, 1, 1],
    ]


def test_windowed_distinct_registers_and_accuracy(ray_session):
    import hashlib

    import pyarrow as pa

    from pdf_parser_ray.ops.streaming import windowed_distinct

    DAY = 86_400_000_000
    rows = []
    # window 0: users 0..99 each twice (duplicates must not move registers)
    for u in range(100):
        rows += [
            {"user_id": u, "ts": u * 1000},
            {"user_id": u, "ts": u * 1000 + 1},
        ]
    # window 1: users 0..9
    rows += [{"user_id": u, "ts": DAY + u} for u in range(10)]
    # dropped: null user, null ts
    rows += [{"user_id": None, "ts": 0}, {"user_id": 5, "ts": None}]
    tbl = pa.Table.from_pylist(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("ts"),
        "ts",
        tbl["ts"].cast(pa.timestamp("us")),
    )
    out = (
        windowed_distinct(
            ray.data.from_arrow(tbl), col="user_id",
            window_seconds=86400, p=10,
        )
        .to_pandas()
        .sort_values("win")
        .reset_index(drop=True)
    )
    assert out["win"].tolist() == [0, 1]
    # independent recomputation of the register law per window
    for win, users in ((0, range(100)), (1, range(10))):
        regs = {}
        for u in users:
            h = int.from_bytes(
                hashlib.md5(str(u).encode()).digest()[:8], "big"
            )
            b, w = h >> 54, h & ((1 << 54) - 1)
            rho = 55 if w == 0 else 54 - w.bit_length() + 1
            regs[b] = max(regs.get(b, 0), rho)
        row = out[out["win"] == win].iloc[0]
        assert row["n_buckets_used"] == len(regs)
    # linear-counting regime at this cardinality: estimates land close
    assert abs(out["n_estimate"][0] - 100) / 100 < 0.15
    assert abs(out["n_estimate"][1] - 10) / 10 < 0.15
