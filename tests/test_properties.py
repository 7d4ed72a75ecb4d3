"""Property-based tests (hypothesis) for invariants the distributed
pipeline depends on."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf_parser_ray.doclogic import run_document, toc
from pdf_parser_ray.doclogic.render import boilerplate_lines, strip_lines

printable_line = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=60
)

span_strategy = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(
            ["text", "heading", "toc_line", "table", "image", "annotation",
             "layout_text", "page_break", "unknown_kind"]
        ),
        "text": printable_line,
        "media_ref": st.text(max_size=12),
    }
)


@st.composite
def documents(draw):
    spans = draw(st.lists(span_strategy, max_size=40))
    for i, s in enumerate(spans):
        s["offset"] = i
        if s["kind"] == "page_break":
            s["text"] = str(draw(st.integers(1, 200)))
    return spans


@given(documents(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_span_order_invariance(spans, rnd):
    """Input span ORDER carries no information beyond `offset`: any
    permutation of the span list yields the identical document result —
    the property that makes chunked/parallel rendering safe."""
    base = run_document("d", spans)
    shuffled = list(spans)
    rnd.shuffle(shuffled)
    again = run_document("d", shuffled)
    assert base["spans"] == again["spans"]
    assert base["toc"] == again["toc"]
    assert base["sections"] == again["sections"]
    assert base["metadata"] == again["metadata"]


@given(documents())
@settings(max_examples=60, deadline=None)
def test_output_span_offsets_dense(spans):
    out = run_document("d", spans)["spans"]
    assert [s["offset"] for s in out] == list(range(len(out)))
    assert all(
        s["kind"] in {"text", "table", "image", "annotation", "layout_text"}
        for s in out
    )


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_clean_title_bounds(title):
    cleaned = toc.clean_title(title)
    assert len(cleaned) <= 120
    assert "...." not in cleaned
    assert not cleaned.endswith((".", " "))
    assert "  " not in cleaned


@given(
    st.lists(
        st.fixed_dictionaries(
            {"page": st.integers(-5, 12000), "title": st.text(max_size=60)}
        ),
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_dedup_and_validate_properties(entries):
    out = toc.dedup_and_validate(list(entries))
    keys = [(e["page"], (e["title"] or "").lower().strip()[:50]) for e in out]
    assert len(keys) == len(set(keys))  # no duplicate keys survive
    assert all(1 <= e["page"] <= 9999 for e in out)
    # every surviving entry is one of the inputs
    for e in out:
        assert e in entries


@given(st.lists(st.lists(printable_line, max_size=10), max_size=8))
@settings(max_examples=60, deadline=None)
def test_boilerplate_only_removes_repeated(pages_lines):
    texts = ["\n".join(lines) for lines in pages_lines]
    boiler = boilerplate_lines(texts)
    threshold = max(3, len(texts) // 2 + 1)
    for line in boiler:
        appears = sum(
            1 for t in texts if line in {x.strip() for x in t.splitlines()}
        )
        assert appears >= threshold and len(line) >= 4
    for t in texts:
        assert strip_lines(t, set()) == t


def test_media_decoder_never_crashes_on_fuzz():
    """Any byte payload either decodes, degrades, or raises
    NotImplementedError (codec formats) — never an unhandled error."""
    import numpy as np

    from pdf_parser_ray.ops.multimodal import MediaDecoder

    dec = MediaDecoder(fake=False)
    rng = np.random.RandomState(3)
    payloads = [bytes(rng.randint(0, 256, size=n, dtype=np.uint8)) for n in (0, 1, 2, 3, 13, 64, 300)]
    payloads += [b"P6" + bytes(rng.randint(0, 256, size=40, dtype=np.uint8)) for _ in range(20)]
    payloads += [b"BM" + bytes(rng.randint(0, 256, size=60, dtype=np.uint8)) for _ in range(20)]
    payloads += [b"P5\n#", b"P6\n999999999 999999999\n255\n", b"P6\n0 0\n255\n"]
    payloads += [
        b"\x89PNG\r\n\x1a\n" + bytes(rng.randint(0, 256, size=n, dtype=np.uint8))
        for n in (0, 4, 25, 80, 200)
    ]
    for p in payloads:
        try:
            out = dec._decode("f", p)
            assert set(out) == {"width", "height", "feature", "decode_ok"}
        except NotImplementedError:
            pass


@given(
    st.lists(
        st.tuples(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6),
            st.fractions(min_value="1/100", max_value=1),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=80, deadline=None)
def test_split_cutoffs_partition_properties(parts):
    """Cutoffs are a monotone partition of [0, 10000): every bucket maps to
    exactly one split, and the last cutoff always closes the range —
    regardless of how the (normalized) fractions decimal-round."""
    from fractions import Fraction

    from pdf_parser_ray.ops.curation import _bucket_and_split, _split_cutoffs

    from pdf_parser_ray.ops.curation import _split_of

    total = sum(f for _, f in parts)
    fractions = {n: float(f / total) for n, f in parts}
    names, cutoffs = _split_cutoffs(fractions)
    assert names == [n for n, _ in parts]
    assert cutoffs == sorted(cutoffs)
    assert cutoffs[-1] == 10_000
    # boundary law, probed AT the cutoffs themselves: bucket == cutoff
    # belongs to the NEXT split (b < cut is strict), bucket == cutoff - 1
    # to the closing one — an off-by-one in the comparison fails here
    for j, cut in enumerate(cutoffs[:-1]):
        if cut < 10_000:
            assert _split_of(cut, names, cutoffs) != names[j] or cutoffs[j + 1] == cut
        if cut > 0:
            closing = next(k for k, c in enumerate(cutoffs) if cut - 1 < c)
            assert _split_of(cut - 1, names, cutoffs) == names[closing]
    for probe in (0, 1, 4999, 5000, 9998, 9999):
        name = _split_of(probe, names, cutoffs)
        k = names.index(name)
        lo = cutoffs[k - 1] if k else 0
        assert lo <= probe < cutoffs[k]
    # null id: NULL bucket, last split
    b, s = _bucket_and_split([None], names, cutoffs, "s")
    assert b == [None] and s == [names[-1]]


@given(
    st.text(
        alphabet=st.sampled_from("ab \n"),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=120, deadline=None)
def test_positional_ngrams_counts(text, n):
    """Positional n-gram law: token count t yields max(t-n+1, 1) grams for
    t > 0 (the <n collapse), 0 for an empty doc; each full gram holds
    exactly n tokens."""
    from pdf_parser_ray.ops.dedup import _word_ngrams, _word_ngrams_positional

    grams = _word_ngrams_positional(text, n)
    t = len(text.lower().split())
    if t == 0:
        assert grams == []
    elif t < n:
        assert grams == [" ".join(text.lower().split())]
    else:
        assert len(grams) == t - n + 1
        assert all(len(g.split(" ")) == n for g in grams)
    # the distinct-set sibling sees exactly the distinct positional grams
    assert _word_ngrams(text, n) == set(grams)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=255),
    st.sampled_from(["444", "420"]),
)
@settings(max_examples=40, deadline=None)
def test_jpeg_flat_roundtrip_property(w, h, shade, sub):
    """Any dims x any flat gray shade x either subsampling: dims recover
    exactly and pixels within 1 (flat blocks quantize losslessly)."""
    import numpy as np

    from pdf_parser_ray.functions.jpeg import decode_jpeg, encode_jpeg

    flat = np.full(3 * w * h, shade, dtype=np.uint8)
    W, H, px = decode_jpeg(encode_jpeg(w, h, flat, quality=90, subsampling=sub))
    assert (W, H) == (w, h)
    assert np.abs(px.astype(int) - shade).max() <= 1


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=96000),
)
@settings(max_examples=60, deadline=None)
def test_wav_roundtrip_property(n, channels, rate):
    import numpy as np

    from pdf_parser_ray.functions.wav import decode_wav, encode_wav

    rng = np.random.RandomState(n * 7 + channels)
    vals = rng.randint(-32768, 32767, size=n * channels).astype(np.int16)
    got_n, got_ch, got_rate, out = decode_wav(encode_wav(vals, rate, channels))
    assert (got_n, got_ch, got_rate) == (n, channels, rate)
    assert np.array_equal(out, vals)


@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=0, max_value=8192),
    st.integers(min_value=0, max_value=8192),
)
@settings(max_examples=60, deadline=None)
def test_mp4_skeleton_roundtrip_property(duration_ms, w, h):
    from pdf_parser_ray.functions.mp4 import probe_mp4, write_mp4_skeleton

    meta = probe_mp4(write_mp4_skeleton(duration_ms, w, h))
    assert meta["duration_ms"] == duration_ms
    assert meta["n_tracks"] == 1
    # zero-width tracks read as "no video track" (audio-style 0x0)
    if w:
        assert (meta["width"], meta["height"]) == (w, h)


def test_codec_stages_never_crash_on_fuzz():
    """Random bytes + truncated real payloads: every codec family either
    decodes or degrades — never an unhandled error (JPEG/WAV/MP4 joined
    PNG/PPM/BMP this round; nothing raises NotImplementedError anymore)."""
    import numpy as np

    from pdf_parser_ray.functions.mp4 import write_mp4_skeleton
    from pdf_parser_ray.functions.wav import encode_wav
    from pdf_parser_ray.ops.multimodal import (
        AudioDecoder,
        MediaDecoder,
        VideoProber,
        synthesize_jpeg,
    )
    import pyarrow as pa

    from pdf_parser_ray.ops.multimodal import MEDIA_SCHEMA

    rng = np.random.RandomState(11)
    real_jpeg = synthesize_jpeg("fuzz")
    real_wav = encode_wav(np.arange(30, dtype=np.int16), 8000)
    real_mp4 = write_mp4_skeleton(100, 32, 32)
    payloads = [bytes(rng.randint(0, 256, size=n, dtype=np.uint8)) for n in (0, 3, 64, 500)]
    payloads += [b"\xff\xd8" + bytes(rng.randint(0, 256, size=n, dtype=np.uint8)) for n in (0, 10, 100)]
    payloads += [real_jpeg[:k] for k in (4, 20, 100, len(real_jpeg) - 3)]
    payloads += [real_wav[:k] for k in (4, 12, 30)]
    payloads += [real_mp4[:k] for k in (4, 16, 40)]

    img = MediaDecoder(fake=False)
    aud = AudioDecoder()
    vid = VideoProber()
    for p in payloads:
        out = img._decode("f", p)
        assert set(out) == {"width", "height", "feature", "decode_ok"}
        assert set(aud._decode(p)) >= {"n_samples", "decode_ok"}
        batch = pa.Table.from_pylist(
            [{"doc_id": "d", "media_ref": "r", "media_type": "video", "payload": p}],
            schema=MEDIA_SCHEMA,
        )
        assert vid(batch).num_rows == 1


# ---- the extraction kernel's column path against the oracle -----------------

_KERNEL_KINDS = ["text", "heading", "toc_line", "table", "image", "layout_text",
                 "annotation", "page_break", "unknown_kind", None]
# page texts: decimal, non-decimal ("²" passes isdigit, not isdecimal),
# negative, at and above int32, non-ASCII decimal, and past int()'s digit limit
_PAGE_TEXTS = ["1", "2", "0", "07", "²", "-3", "2147483647", "2147483648",
               "99999999999", "١٢", "1" * 5000, "", "x"]
_kernel_text = st.one_of(
    st.none(),
    st.sampled_from(_PAGE_TEXTS),
    st.text(alphabet=st.sampled_from("ab1 |\n\t \x1c"), max_size=12),
)


@st.composite
def _span_rows(draw):
    """One corpus row's spans: a null or empty list, or spans with tied and
    descending offsets, null kinds, texts and media_refs, and at times null
    structs or null offsets."""
    shape = draw(st.sampled_from(["null", "empty", "spans", "spans", "spans"]))
    if shape == "null":
        return None
    if shape == "empty":
        return []
    null_structs, null_offsets = draw(st.booleans()), draw(st.booleans())
    offset = st.integers(-2, 6) | st.none() if null_offsets else st.integers(-2, 6)
    span = st.fixed_dictionaries({
        "kind": st.sampled_from(_KERNEL_KINDS),
        "text": _kernel_text,
        "media_ref": st.none() | st.text(alphabet="ab/", max_size=3),
        "offset": offset,
    })
    return draw(st.lists(st.none() | span if null_structs else span, min_size=1, max_size=8))


def _kernel_json(rows):
    """Page rows as text: int and float values print apart (0 != 0.0)."""
    import json

    return json.dumps(rows, sort_keys=True)


def _sp(kind, text="", media_ref="", offset=0):
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


# every edge the column path handles per row, each in a row of its own
_EDGE_ROWS = [
    None,
    [],
    [None],
    [_sp("text", "a", offset=0), None],
    [_sp("text", "a", offset=None)],
    [_sp("text", "a", offset=None), _sp("text", "b", offset=1)],
    [_sp("text", "a", offset=2), _sp("page_break", "3", offset=1), _sp("text", "b", offset=1)],
    [_sp("page_break", t, offset=i) for i, t in enumerate(_PAGE_TEXTS)],
    [_sp("page_break", "1" * 5000), _sp("text", "a", offset=1)],
    [_sp("unknown_kind", "x"), _sp(None, "y", offset=1), _sp("page_break", "4", offset=2)],
    [_sp("text", None), _sp("image", None, None, 1), _sp("annotation", " ", offset=2),
     _sp("layout_text", "a \n\n b", offset=3), _sp("table", "", offset=4)],
]


@given(st.lists(_span_rows(), min_size=1, max_size=6), st.integers(0, 6))
@example(_EDGE_ROWS, 4)
@settings(max_examples=300, deadline=None)
def test_span_columns_render_like_render_doc(rows, cut):
    """Row by row, the column path's PAGE_ROW dicts equal render_doc's on
    the row's span dicts, over a two-chunk column."""
    import pyarrow as pa

    from pdf_parser_ray.schemas import CORPUS_SCHEMA
    from pdf_parser_ray.stages.render_stage import read_span_columns, render_doc, render_span_row

    table = pa.Table.from_pylist(
        [{"doc_id": str(i), "spans": s} for i, s in enumerate(rows)], schema=CORPUS_SCHEMA
    )
    cut = min(cut, len(rows))
    spans = table["spans"].combine_chunks()
    cols = read_span_columns(pa.chunked_array([spans.slice(0, cut), spans.slice(cut)]))
    assert len(cols.rows) == len(rows)
    for i, row in enumerate(spans.to_pylist()):
        got = render_span_row(cols, i, str(i), 5)
        want = render_doc(str(i), row, 5)
        assert got == want
        assert _kernel_json(got) == _kernel_json(want)


@given(
    st.lists(st.lists(_span_rows(), min_size=1, max_size=3), min_size=1, max_size=5),
    st.integers(1, 8),
    st.sampled_from(["corpus", "reordered", "other", "null_strings"]),
)
@settings(max_examples=200, deadline=None)
def test_render_slices_like_render_doc(docs, cap, shape):
    """render_slices with a small SLICE_SPANS, over docs of one to three
    fragment rows (so a per-row cut would split a doc's fragments), gives
    each doc the render_doc rows of its fragments' span dicts sorted by
    (page, page_order): for the corpus span struct, for the same four
    fields reordered with large_string texts and int64 offsets, for float64
    offsets beside an extra field, and for null-typed texts and
    media_refs."""
    from unittest import mock

    import pyarrow as pa

    from pdf_parser_ray.schemas import CORPUS_SCHEMA
    from pdf_parser_ray.stages import render_stage

    items = [{"doc_id": f"d{k}", "spans": s} for k, frags in enumerate(docs) for s in frags]
    schema = CORPUS_SCHEMA
    if shape != "corpus":
        fields = [("offset", pa.int64()), ("text", pa.large_string()),
                  ("kind", pa.string()), ("media_ref", pa.string())]
        if shape == "other":
            fields = [("offset", pa.float64()), *fields[1:], ("score", pa.float64())]
        if shape == "null_strings":
            fields[1], fields[3] = ("text", pa.null()), ("media_ref", pa.null())
        schema = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(pa.struct(fields)))])
        extra = {"other": {"score": 0.5}, "null_strings": {"text": None, "media_ref": None}}
        for item in items:
            if item["spans"] is not None:
                item["spans"] = [
                    None if sp is None else {**sp, **extra.get(shape, {})} for sp in item["spans"]
                ]
    table = pa.Table.from_pylist(items, schema=schema)
    with mock.patch.object(render_stage, "SLICE_SPANS", cap):
        got = [doc for docs_ in render_stage.render_slices(table, 8) for doc in docs_]
    want = []
    row_spans = iter(table["spans"].to_pylist())
    for k, frags in enumerate(docs):
        doc_id = f"d{k}"
        bucket = render_stage.bucket_of(doc_id, 8)
        rows = [r for _ in frags for r in render_stage.render_doc(doc_id, next(row_spans), bucket)]
        rows.sort(key=lambda r: (r["page"], r["page_order"]))
        want.append((doc_id, rows))
    assert got == want
    assert _kernel_json(got) == _kernel_json(want)
