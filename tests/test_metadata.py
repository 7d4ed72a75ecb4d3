"""Metadata extraction tests (reference metadata_parser.py)."""

import json

from pdf_parser_ray.doclogic import metadata


def test_parse_metadata_fields():
    pages = [
        {"page": 1, "text": "Universal Serial Bus Power Delivery Specification\nRevision: 3.2\nVersion 1.1\nRelease Date: 2024-10"},
        {"page": 6, "text": "Revision: 9.9"},  # outside the 5-page window
    ]
    md = metadata.parse_metadata(pages)
    assert md["doc_title"] == "Universal Serial Bus Power Delivery Specification"
    assert md["revision"] == "3.2"
    assert md["version"] == "1.1"
    assert md["release_date"] == "2024-10"


def test_parse_metadata_defaults():
    md = metadata.parse_metadata([{"page": 1, "text": "nothing relevant"}])
    assert set(md.values()) <= {"Unknown"} or all(v == "Unknown" for v in md.values())


def test_golden_metadata_row_shape():
    golden = json.loads(open("/root/reference/usb_pd_metadata.jsonl").readline())
    assert set(golden) == set(metadata.METADATA_PATTERNS)
    # our patterns re-extract the golden values from a reconstructed header
    text = (
        f"{golden['doc_title']}\nRevision: {golden['revision']}\n"
        f"Version {golden['version']}\nRelease Date: {golden['release_date']}"
    )
    md = metadata.parse_metadata([{"page": 1, "text": text}])
    assert md == golden


def _oracle(text):
    """The four fields as the unanchored case-insensitive searches give
    them (extract_field_with_regex over the whole window)."""
    import re

    out = {}
    for field, pattern in metadata.METADATA_PATTERNS.items():
        m = re.compile(pattern, re.IGNORECASE).search(text)
        out[field] = m.group(1).strip() if m else metadata.DEFAULT_VALUE
    return out


def test_anchored_metadata_equals_full_search(fuzz_texts):
    n_ascii = n_hit = 0
    for i, text in enumerate(fuzz_texts(100_000, seed=20261018)):
        # every 7th text spreads over two window pages (newline-joined)
        cut = len(text) // 2 if i % 7 == 0 else len(text)
        pages = [{"page": 1, "text": text[:cut]}, {"page": 2, "text": text[cut:]}]
        want = _oracle("\n".join(p["text"] for p in pages))
        assert metadata.parse_metadata(pages) == want, text
        n_ascii += text.isascii()
        n_hit += any(v != metadata.DEFAULT_VALUE for v in want.values())
    # the fuzz exercises both branches and both outcomes
    assert 20_000 < n_ascii < 90_000 and 20_000 < n_hit < 90_000


def test_anchored_metadata_pins():
    def md(text):
        return metadata.parse_metadata([{"page": 1, "text": text}])

    # the first 'v' (in 'overview', then a bare 'v') fails; the search
    # goes on from there to the later Version
    got = md("Overview: v and then Version 2.0")
    assert got["version"] == "2.0" == _oracle("Overview: v and then Version 2.0")["version"]
    # the anchor is found but the regex still fails
    assert md("Revision pending, release date TBD")["revision"] == "Unknown"
    assert md("Revision pending, release date TBD")["release_date"] == "Unknown"
    # non-ASCII text that matches only through the long s fold
    text = "Univerſal Serial Bus Power Delivery Specification, Reviſion: 3.2"
    got = md(text)
    assert got == _oracle(text)
    assert got["doc_title"].startswith("Univerſal") and got["revision"] == "3.2"
