"""Ground-truth engine: exhaustive enumeration of translocation images.

A string matches the pattern under the allowed edits iff it can be built
by partitioning the pattern left to right into units, each unit being
either one copied character or a pair of adjacent factors zw (both
non-empty, lengths free) emitted swapped as wz.  Enumerating every such
partition gives the exact set of matchable strings, against which the
fast engines are verified.  The set grows exponentially with the pattern
length, so both functions refuse patterns longer than NAIVE_LIMIT before
building any image: at that length there are at most 10,252 images.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable

from .seqcore import Sequence

NAIVE_LIMIT = 12


def enumerate_images(pattern: Sequence) -> frozenset[tuple[int, ...]]:
    """All distinct strings reachable from the pattern by non-overlapping
    swaps of adjacent factor pairs, as tuples of codes.

    Includes the pattern itself (empty set of swaps).  Every image is a
    permutation of the pattern's symbols and has the same length.
    """
    m = pattern.length
    if m == 0:
        raise ValueError("empty pattern")
    if m > NAIVE_LIMIT:
        raise ValueError(f"naive engine refuses patterns longer than {NAIVE_LIMIT}")
    codes = pattern.codes
    # images[p] holds the images of the suffix codes[p:], filled right to left
    images = [frozenset()] * m + [frozenset([()])]
    for p in range(m - 1, -1, -1):
        out = {(codes[p],) + tail for tail in images[p + 1]}
        for h in range(1, m - p):
            for k in range(1, m - p - h + 1):
                unit = codes[p + h : p + h + k] + codes[p : p + h]
                out.update(unit + tail for tail in images[p + h + k])
        images[p] = frozenset(out)
    return images[0]


def naive_search(pattern: Sequence, text: Iterable[int]) -> list[int]:
    """The 1-based ends j of the windows y[j-m+1..j] that are images of
    the pattern.

    ``text`` is any iterable of symbol codes; only the last m are kept.
    """
    images = enumerate_images(pattern)
    m = pattern.length
    window: deque[int] = deque(maxlen=m)
    hits = []
    for j, code in enumerate(text, start=1):
        window.append(code)
        if j >= m and tuple(window) in images:
            hits.append(j)
    return hits
