"""Shared fixtures: ONE Ray session per pytest session."""

from __future__ import annotations

import pytest
import ray


@pytest.fixture(scope="session")
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


# Pieces of the exactness fuzz behind the anchored metadata/TOC scans: the
# phrases those regexes look for, near-misses, separators, and characters
# that case-insensitive matching folds onto ASCII letters (long s→s,
# Kelvin sign→k, dotted and dotless i→i) or that str.lower() treats
# differently (sharp s, roman five, ff ligature).
_FUZZ_PHRASES = (
    "Universal Serial Bus", "Power Delivery Specification", "Revision",
    "Rev", "Rev.", "Version", "V", "v", "Release Date", "Published",
    "Published:", "table of contents", "Table of Contents", "contents",
    "discontents", "contentsx", "ver", "Rev  4.0", "Revision pending",
    "overview", "3.2", "1.0", "2.", "2024-10", "2024", "1999-7", ":", ".",
)
_FUZZ_SEPARATORS = ("", " ", "\n", "\n\n", ": ", "  ", "\t", "-")
# long s, Kelvin sign, dotted I, dotless i, sharp s, roman five, ff ligature
_FUZZ_FOLDS = ("\u017f", "\u212a", "\u0130", "\u0131", "\u00df", "\u2164", "\ufb00")
_FUZZ_SWAPS = {"s": "\u017f", "k": "\u212a", "i": "\u0130\u0131", "v": "\u2164"}


@pytest.fixture
def fuzz_texts():
    """``fuzz_texts(n, seed)`` yields ``n`` seeded texts built from the
    pieces above in random case; about a quarter carry a non-ASCII fold,
    often swapped into a phrase so that only the fold makes it match."""
    import random

    def gen(n: int, seed: int):
        rng = random.Random(seed)
        for _ in range(n):
            parts = []
            for _ in range(rng.randint(1, 8)):
                piece = rng.choice(_FUZZ_PHRASES)
                if rng.random() < 0.5:
                    piece = "".join(
                        c.upper() if rng.random() < 0.5 else c.lower() for c in piece
                    )
                if rng.random() < 0.06:
                    piece = "".join(
                        rng.choice(_FUZZ_SWAPS[c.lower()])
                        if c.lower() in _FUZZ_SWAPS and rng.random() < 0.5
                        else c
                        for c in piece
                    )
                if rng.random() < 0.04:
                    piece += rng.choice(_FUZZ_FOLDS)
                parts.append(piece + rng.choice(_FUZZ_SEPARATORS))
            yield "".join(parts)

    return gen
