"""Approximate string matching under non-overlapping swaps of adjacent,
possibly unequal-length factors.

Three engines report the same 1-based match end positions:

* :func:`translocsearch.oracle.naive_search` enumerates every string the
  pattern can be turned into and scans windows (ground truth; patterns of
  at most 12 symbols);
* :func:`translocsearch.dp.dp_search` fills the common-suffix and
  prefix-match tables column by column;
* :func:`translocsearch.automaton.automaton_search` streams the text
  through the pattern's factor automaton in O(m^2) working memory.

Each takes the text as any iterable of symbol codes and returns the list
of 1-based match end positions, as :func:`match_ends` does.
:func:`match_ends` runs ``dp`` and ``dawg`` only on the stretches of text
covered by windows whose symbol counts equal the pattern's: every image
of the pattern is a permutation of it, so no other window can match.
Such windows are checked one by one instead, without an engine, until
the checks of a stretch of overlapping windows exceed a work budget of
about m^2/4 per window; an engine runs over the rest of the stretch.
"""
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from .automaton import OpCounter, SearchState, automaton_search
from .dawg import Dawg, build_dawg
from .dp import DpColumns, dp_search
from .oracle import enumerate_images, naive_search
from .seqcore import (
    Alphabet,
    Sequence,
    encode,
    infer_alphabet,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "Dawg",
    "DpColumns",
    "OpCounter",
    "SearchState",
    "Sequence",
    "automaton_search",
    "build_dawg",
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
) -> list[int]:
    """Match end positions for a plain string, or for an iterable of string
    chunks searched as their concatenation; the one engine dispatch.

    Chunks are read one at a time, so memory grows with the largest chunk,
    not with the text.  ``dp`` and ``dawg`` run only on the runs of text
    that :func:`_pieces` passes, each run from a fresh start, with the
    DAWG built when the first run starts; the windows it checked on their
    own are hits without an engine.  ``naive`` sees the whole text, so it
    checks the filter and the window check too; it refuses patterns longer
    than :data:`translocsearch.oracle.NAIVE_LIMIT` (12).
    """
    if not pattern:
        raise ValueError("empty pattern")
    alphabet = infer_alphabet(pattern)
    pat = encode(pattern, alphabet)
    chunks = (text,) if isinstance(text, str) else text
    if algo == "naive":
        txt = chain.from_iterable(encode(chunk, alphabet).codes for chunk in chunks)
        return naive_search(pat, txt)
    if algo not in ("dp", "dawg"):
        raise ValueError(f"unknown algorithm {algo!r}")
    hits = []
    d = None
    for start, pieces in groupby(_pieces(pattern, alphabet, chunks), itemgetter(0)):
        codes = next(pieces)[1]
        if codes is None:  # a window checked on its own: an image
            hits.append(start + pat.length)
            continue
        run = chain(codes, chain.from_iterable(map(itemgetter(1), pieces)))
        if algo == "dp":
            ends = dp_search(pat, run)
        else:
            if d is None:
                d = build_dawg(pat)
            ends, _ = automaton_search(pat, run, d, count=False)
        hits.extend(start + j for j in ends)
    return hits


# Check work a cluster of overlapping candidate windows may spend per
# window, in units of m^2 (about the (h, k) pairs an engine visits per
# column where l_j is near m).  Once a cluster's checks overrun it, an
# engine runs over the rest, where it shares the work of overlapping
# windows and its cost per symbol is bounded.
CHECK_BUDGET = 0.25


def _pieces(
    pattern: str, alphabet: Alphabet, chunks: Iterable[str]
) -> Iterator[tuple[int, Iterator[int] | None]]:
    """What is left of the text once windows that cannot match are
    skipped, in text order: (k, None) for a window of m symbols at text
    position k that :func:`_is_image` found to be an image, and (run
    offset, codes) pieces of the runs an engine must step over.

    Only windows whose symbol counts equal the pattern's can match.
    Pattern symbol c weighs (m+1)^c and any other symbol 0, so a window's
    weight sum is its counts of pattern symbols written in base m+1.  No
    count exceeds m, so no digit carries: the sum equals the pattern's
    exactly when every count does, and then the window holds m pattern
    symbols and no other.  The sum is kept over a sliding window, one
    symbol in and one out per position.

    Candidate windows that overlap form a cluster.  Its windows are
    checked one by one, the r-th only if the r-1 before it were and their
    check work is below r * B, with B = CHECK_BUDGET * m^2; the rest of
    the cluster, if any, is one run.  So the checks of a cluster of r
    windows cost less than r * B plus the work of the last one.  The
    run's hits are its offset plus the hits of an engine started fresh
    on it: a hit at position j depends only on the window ending at j.
    Images and pieces are yielded as the scan reaches them: a run's piece
    of a chunk is handed over when the next cluster opens or the chunk
    ends, and is encoded only then.  The last m-1 symbols of the text are
    kept for the windows that end in the next chunk.
    """
    m = len(pattern)
    budget = CHECK_BUDGET * m * m
    # keyed by code point: int hashes, unlike str hashes, are the same in
    # every process, and so is the cost of a lookup
    weight = {ord(s): (m + 1) ** c for c, s in enumerate(alphabet.symbols)}.get
    target = sum(map(weight, map(ord, pattern)))
    tail = ""  # the last m-1 symbols before the chunk
    total = 0  # their weight
    offset = 0  # symbols before text[0]
    run = fed = end = -1  # the open run: offset, end handed over, end of last window
    last = -m  # the last candidate window's position
    left = 0  # check work its cluster may still spend; none left once a run covers it
    for chunk in chunks:
        text = tail + chunk
        total += sum(map(weight, map(ord, text[len(tail) : m - 1]), repeat(0)))
        for k, (out, new) in enumerate(zip(map(ord, text), map(ord, text[m - 1 :]))):
            total += weight(new, 0)
            if total == target:
                pos = offset + k
                if pos >= last + m:  # the window opens a cluster
                    left = budget
                    if fed < end:  # hand over the run before what follows it
                        yield run, iter(
                            encode(text[fed - offset : end - offset], alphabet).codes
                        )
                        fed = end
                last = pos
                if left > 0:
                    image, work = _is_image(pattern, text[k : k + m])
                    left += budget - work
                    if image:
                        yield pos, None
                else:
                    if pos > end:  # the window does not continue the open run
                        run = fed = pos
                    end = pos + m
            total -= weight(out, 0)
        tail = text[max(0, len(text) - m + 1) :]
        if fed < end:
            # an exhausted tuple iterator drops its tuple, so a finished
            # piece is freed while the next chunk is read and scanned
            yield run, iter(encode(text[fed - offset : end - offset], alphabet).codes)
            fed = end
        offset += len(text) - len(tail)


def _is_image(pattern: str, window: str) -> tuple[bool, int]:
    """Whether ``window`` is an image of ``pattern``, of the same length,
    and the work spent to tell: the symbols compared in common prefixes
    plus the candidate units tried.

    An image reads left to right as units: a pattern symbol copied, or a
    factor pair zw of the pattern written as wz.  The search keeps the
    prefix lengths s with ``window[:s]`` an image of ``pattern[:s]`` as
    bits, and extends the longest one not yet extended first, so an image
    is found in few steps.  From s, copies reach up to the end of the
    common prefix of ``window[s:]`` and ``pattern[s:]``; a unit wz with
    w = ``window[s:p]`` = ``pattern[q:q+p-s]`` and z = ``window[p:p+q-s]``
    = ``pattern[s:q]`` reaches p+q-s.  z starts with ``pattern[s]``,
    which gives the candidates for p; w must occur in the pattern after
    s, and once it does not, no longer w does; z is at most the common
    prefix of ``window[p:]`` and ``pattern[s:]`` long.  A window of
    random text is rejected after a handful of ``str.find`` calls.
    """
    m = len(pattern)
    todo = 1  # prefix lengths reached and not yet extended
    done = 0
    work = 0
    while todo:
        s = todo.bit_length() - 1
        todo ^= 1 << s
        done |= 1 << s
        e = 0
        while s + e < m and window[s + e] == pattern[s + e]:
            e += 1
        work += e + 1
        if s + e == m:
            return True, work
        reach = ((2 << e) - 2) << s  # s+1 .. s+e by copies
        first = pattern[s]
        p = window.find(first, s + 1)
        while p != -1:
            w = window[s:p]
            q = pattern.find(w, s + 1)
            if q == -1:
                break
            e = 1  # common prefix of window[p:] and pattern[s:]
            while p + e < m and window[p + e] == pattern[s + e]:
                e += 1
            work += e
            while s < q <= s + e:
                # z = pattern[s:q] matches, as q-s <= e; the candidate still
                # counts one unit, which the check budget was set against
                work += 1
                if p + q - s == m:
                    return True, work
                reach |= 1 << (p + q - s)
                q = pattern.find(w, q + 1)
            p = window.find(first, p + 1)
        todo |= reach & ~done
    return False, work
