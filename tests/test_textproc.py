"""Unit tests for doclogic.textproc (reference utils/text_utils.py)."""

from pdf_parser_ray.doclogic import textproc


def test_extract_field_with_regex():
    assert (
        textproc.extract_field_with_regex(r"(?:Revision|Rev\.?)[: ]+\s*([0-9.]+)", "Revision: 3.2 x")
        == "3.2"
    )
    assert textproc.extract_field_with_regex(r"(zz)", "abc") == "Unknown"
    assert textproc.extract_field_with_regex(r"(zz)", "abc", default="d") == "d"
    # case-insensitive search semantics
    assert textproc.extract_field_with_regex(r"version\s*([0-9.]+)", "VERSION 1.1") == "1.1"


def test_split_into_lines():
    assert textproc.split_into_lines("a \nb\t\nc") == ["a", "b", "c"]
    assert textproc.split_into_lines("") == []
    assert textproc.split_into_lines(None) == []


def test_find_content_start():
    lines = [(1, "intro"), (1, "Table of Contents"), (2, "1.1 Foo ... 3")]
    assert textproc.find_content_start(lines, ["table of contents", "contents"]) == 2
    # word-boundary: 'contents' inside a larger word does not match
    assert textproc.find_content_start([(1, "discontentsed")], ["contents"]) == 0
    assert textproc.find_content_start([(1, "no match")], ["contents"]) == 0


def test_clean_text_and_numbers():
    assert textproc.clean_text("  x  ") == "x"
    assert textproc.clean_text("") == ""
    assert textproc.extract_numbers("a1 b22 c333") == [1, 22, 333]


def _content_start_oracle(lines, terms):
    """find_content_start as one unanchored case-insensitive search."""
    import re

    joined = "\n".join(line for _page, line in lines)
    m = re.compile(
        r"\b(?:" + "|".join(re.escape(t) for t in terms) + r")\b", re.IGNORECASE
    ).search(joined)
    return 0 if m is None else joined.count("\n", 0, m.start()) + 1


def test_anchored_content_start_equals_full_search(fuzz_texts):
    from pdf_parser_ray.doclogic.toc import TOC_START_INDICATORS

    term_sets = [TOC_START_INDICATORS, ["contents"], ["Rev.", "v"], []]
    n_found = 0
    for i, text in enumerate(fuzz_texts(100_000, seed=1018)):
        lines = [(1, line.rstrip()) for line in text.split("\n")]
        terms = term_sets[i % len(term_sets)]
        want = _content_start_oracle(lines, terms)
        assert textproc.find_content_start(lines, terms) == want, (text, terms)
        n_found += want > 0
    assert 20_000 < n_found < 90_000


def test_anchored_content_start_pins():
    terms = ["table of contents", "contents"]
    # the anchor 'contents' is found inside a word, \b fails, the search
    # goes on to the later whole word
    lines = [(1, "Discontents"), (1, "x"), (2, "CONTENTS")]
    assert textproc.find_content_start(lines, terms) == 3
    assert textproc.find_content_start([(1, "discontents")], terms) == 0
    # non-ASCII text that matches only through the long s fold
    lines = [(1, "ß"), (1, "Table of Contentſ")]
    assert textproc.find_content_start(lines, terms) == 2
    assert _content_start_oracle(lines, terms) == 2
