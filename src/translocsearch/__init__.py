"""Approximate string matching under non-overlapping swaps of adjacent,
possibly unequal-length factors.

Three engines report the same 1-based match end positions:

* :func:`translocsearch.oracle.naive_search` enumerates every string the
  pattern can be turned into and scans windows (ground truth, small
  patterns only);
* :func:`translocsearch.dp.dp_search` fills the common-suffix and
  prefix-match tables column by column;
* :func:`translocsearch.automaton.automaton_search` streams the text
  through the pattern's factor automaton in O(m^2) working memory.

Each takes the text as a coded Sequence or as a stream of symbol codes.
"""
from itertools import chain
from typing import Iterable

from .automaton import OpCounter, SearchState, automaton_search
from .dawg import Dawg, ScanConfig, build_dawg
from .dp import DpColumns, dp_search
from .oracle import (
    DEFAULT_NAIVE_LIMIT,
    ImageExplosionError,
    enumerate_images,
    naive_search,
)
from .seqcore import (
    Alphabet,
    MatchReport,
    Sequence,
    decode,
    encode,
    infer_alphabet,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Dawg",
    "DpColumns",
    "ImageExplosionError",
    "MatchReport",
    "OpCounter",
    "ScanConfig",
    "SearchState",
    "Sequence",
    "automaton_search",
    "build_dawg",
    "decode",
    "dp_search",
    "encode",
    "enumerate_images",
    "infer_alphabet",
    "match_ends",
    "naive_search",
]


def match_ends(
    pattern: str,
    text: str | Iterable[str],
    algo: str = "dawg",
    naive_limit: int = DEFAULT_NAIVE_LIMIT,
) -> list[int]:
    """Match end positions for a plain string, or for an iterable of string
    chunks searched as their concatenation; the one engine dispatch.

    Chunks are encoded one at a time and streamed into the engine, so
    memory grows with the largest chunk, not with the text.  The naive
    engine refuses patterns longer than ``naive_limit``: its image set
    grows exponentially with the pattern length.
    """
    alphabet = infer_alphabet(pattern)
    pat = encode(pattern, alphabet)
    chunks = (text,) if isinstance(text, str) else text
    txt = chain.from_iterable(encode(chunk, alphabet).codes for chunk in chunks)
    if algo == "naive":
        if pat.length > naive_limit:
            raise ValueError(
                f"naive engine refuses patterns longer than {naive_limit}"
            )
        return list(naive_search(pat, txt).end_positions)
    if algo == "dp":
        return list(dp_search(pat, txt).end_positions)
    if algo == "dawg":
        report, _ = automaton_search(pat, txt, count=False)
        return list(report.end_positions)
    raise ValueError(f"unknown algorithm {algo!r}")
