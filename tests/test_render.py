"""Span -> page render and output-span assembly tests."""

from pdf_parser_ray.doclogic import render


def _spans(*items):
    return [
        {"kind": k, "text": t, "media_ref": m, "offset": i}
        for i, (k, t, m) in enumerate(items)
    ]


def test_spans_to_pages_basic():
    spans = _spans(
        ("page_break", "1", ""),
        ("text", "hello", ""),
        ("heading", "TITLE", ""),
        ("table", "a | b\nc | d", ""),
        ("image", "", "img://d/p1/0"),
        ("page_break", "2", ""),
        ("text", "second", ""),
    )
    pages = render.spans_to_pages(spans)
    assert len(pages) == 2
    assert pages[0]["page"] == 1 and pages[1]["page"] == 2
    assert pages[0]["text"] == "hello\nTITLE"
    assert pages[0]["tables"][0]["rows"] == 2
    assert pages[0]["tables"][0]["cols"] == 2
    assert pages[0]["images"][0]["name"] == "img://d/p1/0"
    assert pages[1]["text"] == "second"


def test_spans_to_pages_no_page_break():
    pages = render.spans_to_pages(_spans(("text", "x", "")))
    assert len(pages) == 1 and pages[0]["page"] == 1


def test_spans_out_of_order_are_sorted():
    spans = [
        {"kind": "text", "text": "b", "media_ref": "", "offset": 2},
        {"kind": "page_break", "text": "1", "media_ref": "", "offset": 0},
        {"kind": "text", "text": "a", "media_ref": "", "offset": 1},
    ]
    pages = render.spans_to_pages(spans)
    assert pages[0]["text"] == "a\nb"


def test_comprehensive_page_content_order():
    spans = _spans(
        ("page_break", "1", ""),
        ("text", "body", ""),
        ("table", "x | y", ""),
        ("image", "", "im1"),
        ("layout_text", "line one\nline two", ""),
        ("annotation", "a note", ""),
    )
    page = render.spans_to_pages(spans)[0]
    content = render.comprehensive_page_content(page)
    blocks = ["=== TEXT CONTENT ===", "=== TABLES ===", "=== IMAGES ===",
              "=== LAYOUT TEXT ===", "=== ANNOTATIONS ==="]
    positions = [content.index(b) for b in blocks]
    assert positions == sorted(positions)
    assert "Table 1:\nx | y" in content
    assert "Image 1: im1 (0x0)" in content
    assert "Annotation (Text): a note" in content


def test_comprehensive_content_range_clamps_and_joins():
    rendered = {1: "one", 2: "two", 3: "three"}
    out = render.comprehensive_content_range(rendered, 3, 0, 99)
    assert out == "one" + render.PAGE_BREAK_JOINER + "two" + render.PAGE_BREAK_JOINER + "three"
    assert render.comprehensive_content_range(rendered, 3, 3, 2) == ""


def test_coverage_stats_weights():
    page = render.spans_to_pages(
        _spans(("page_break", "1", ""), ("text", "t", ""), ("table", "a | b", ""))
    )[0]
    assert page["coverage_stats"]["coverage_score"] == 0.6000000000000001 or (
        abs(page["coverage_stats"]["coverage_score"] - 0.6) < 1e-9
    )


def test_boilerplate_strip():
    texts = [f"HEADER LINE X\nbody {i}" for i in range(6)]
    boiler = render.boilerplate_lines(texts)
    assert boiler == {"HEADER LINE X"}
    assert render.strip_lines(texts[0], boiler) == "body 0"
    # short docs: no stripping
    assert render.boilerplate_lines(texts[:2]) == set()


def test_assemble_output_spans_offsets_dense():
    rows = [
        {"page": 1, "text": "alpha", "nontext_spans": [{"kind": "image", "text": "", "media_ref": "m"}]},
        {"page": 2, "text": "", "nontext_spans": [{"kind": "table", "text": "t", "media_ref": ""}]},
    ]
    out = render.assemble_output_spans(rows, strip_boilerplate=False)
    assert [s["offset"] for s in out] == [0, 1, 2]
    assert [s["kind"] for s in out] == ["text", "image", "table"]


def test_table_to_text():
    """extractor.py:400-413: cells joined by " | " (None reads as ""),
    empty rows and rows whose joined text is blank dropped, lines joined by
    newlines."""
    assert render.table_to_text([]) == ""
    assert render.table_to_text(None) == ""
    assert render.table_to_text([["a", "b"], ["c", None]]) == "a | b\nc | "
    assert render.table_to_text([[None, 1], [], None, [None], [" \t"], ["x"]]) == " | 1\nx"
    # the separator is not blank: a row of two empty cells stays
    assert render.table_to_text([[None, None]]) == " | "
    assert render.table_to_text([[" "], []]) == ""
