"""Ground-truth engine: exhaustive enumeration of translocation images.

A string matches the pattern under the allowed edits iff it can be built
by partitioning the pattern left to right into units, each unit being
either one copied character or a pair of adjacent factors zw (both
non-empty, lengths free) emitted swapped as wz.  Enumerating every such
partition gives the exact set of matchable strings, against which the
fast engines are verified.
"""
from __future__ import annotations

from .seqcore import MatchReport, Sequence

DEFAULT_IMAGE_CAP = 1_000_000
DEFAULT_NAIVE_LIMIT = 12


class ImageExplosionError(ValueError):
    """Raised when the number of distinct images exceeds the cap."""


def enumerate_images(
    pattern: Sequence, cap: int = DEFAULT_IMAGE_CAP
) -> frozenset[tuple[int, ...]]:
    """All distinct strings reachable from the pattern by non-overlapping
    swaps of adjacent factor pairs, as tuples of codes.

    Includes the pattern itself (empty set of swaps).  Every image is a
    permutation of the pattern's symbols and has the same length.
    """
    m = pattern.length
    if m == 0:
        raise ValueError("empty pattern")
    codes = pattern.codes
    # images[p] holds the images of the suffix codes[p:], filled right to left
    images = [frozenset()] * m + [frozenset([()])]
    for p in range(m - 1, -1, -1):
        out = {(codes[p],) + tail for tail in images[p + 1]}
        for h in range(1, m - p):
            for k in range(1, m - p - h + 1):
                unit = codes[p + h : p + h + k] + codes[p : p + h]
                out.update(unit + tail for tail in images[p + h + k])
        if len(out) > cap:
            raise ImageExplosionError(
                f"image explosion: more than {cap} distinct images"
            )
        images[p] = frozenset(out)
    return images[0]


def naive_search(
    pattern: Sequence, text: Sequence, cap: int = DEFAULT_IMAGE_CAP
) -> MatchReport:
    """Report j iff the window y[j-m+1..j] is an image of the pattern."""
    m, n = pattern.length, text.length
    if m == 0:
        raise ValueError("empty pattern")
    if m > n:
        return MatchReport(())
    images = enumerate_images(pattern, cap)
    codes = text.codes
    hits = tuple(j for j in range(m, n + 1) if codes[j - m : j] in images)
    return MatchReport(hits)


def image_count_bound(upto: int) -> list[int]:
    """Table of the recursive upper bound on the number of distinct images
    of a string with pairwise-distinct characters, indices 0..upto.

    The recursion undercounts at length 3 (it gives 4 where enumeration
    finds 5 images); it is kept verbatim because its only role is inside
    a bound that also caps entry i+1 by 3**i, which enumeration respects.
    """
    if upto < 0:
        raise ValueError("upto must be non-negative")
    vals = [1]
    for k in range(upto):
        total = sum(vals[: k + 1])
        total += sum(vals[k - 2 * h - 1] for h in range(1, (k - 1) // 2 + 1))
        vals.append(total)
    return vals
