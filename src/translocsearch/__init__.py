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

Each reads pattern and text symbols as they come, such as a ``str``'s
characters, and returns the list of 1-based match end positions, as
:func:`match_ends` does; a text symbol absent from the pattern never matches.
:func:`match_ends` runs ``dp`` and ``dawg`` only on the stretches of text
covered by windows whose symbol counts equal the pattern's: every image
of the pattern is a permutation of it, so no other window can match.
Those windows are found a chunk at a time, with a few bytes and big-int
operations per pattern symbol in place of a loop over the text.  They
are checked one by one, without an engine, until the checks of a
stretch of overlapping windows exceed a work budget of about m^2/4 per
window; an engine runs over the rest of the stretch.

:func:`encode` and :func:`infer_alphabet` map symbols to int codes; no
search uses them, and they stay importable only for the benchmark in
``perfbench``.
"""
from collections import Counter
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator

from .automaton import OpCounter, SearchState, automaton_search
from .dawg import Dawg, build_dawg
from .dp import DpColumns, dp_search
from .oracle import enumerate_images, naive_search
from .seqcore import encode, infer_alphabet

__version__ = "0.1.0"

__all__ = [
    "Dawg",
    "DpColumns",
    "OpCounter",
    "SearchState",
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
    that :func:`_pieces` passes, each run from a fresh start, and the
    windows it checked on their own are hits without an engine.  A run's
    engine returns once the scan has passed the run, before the next chunk
    is read.  The engines read the runs' symbols as they are; the DAWG is
    built only once the first run starts.  ``naive`` sees the whole text,
    so it checks the filter and the window check too; it refuses patterns
    longer than :data:`translocsearch.oracle.NAIVE_LIMIT` (12).
    """
    if not pattern:
        raise ValueError("empty pattern")
    chunks = (text,) if isinstance(text, str) else text
    if algo == "naive":
        return naive_search(pattern, chain.from_iterable(chunks))
    if algo not in ("dp", "dawg"):
        raise ValueError(f"unknown algorithm {algo!r}")
    hits = []
    d = None
    for start, pieces in groupby(_pieces(pattern, chunks), itemgetter(0)):
        if start is None:  # hit ends of images checked on their own, and run ends
            for _, end in pieces:  # no generator: the group may span every later chunk
                if end:
                    hits.append(end)
            continue
        run = chain.from_iterable(map(itemgetter(1), pieces))
        if algo == "dp":
            ends = dp_search(pattern, run)
        else:
            if d is None:  # the first run
                d = build_dawg(pattern)
            ends, _ = automaton_search(pattern, run, d, count=False)
        hits.extend(start + j for j in ends)
    return hits


# Check work a cluster of overlapping candidate windows may spend per
# window, in units of m^2 (about the (h, k) pairs an engine visits per
# column where l_j is near m).  Once a cluster's checks overrun it, an
# engine runs over the rest, where it shares the work of overlapping
# windows and its cost per symbol is bounded.
CHECK_BUDGET = 0.25


def _pieces(pattern: str, chunks: Iterable[str]) -> Iterator[tuple[int | None, str | int | None]]:
    """What is left of the text once windows that cannot match are
    skipped, in text order, each item keyed by what it is: (None, end) for
    a window that :func:`_is_image` found to be an image, ``end`` being its
    1-based hit end; (run offset, symbols) for the pieces of a run an
    engine must step over; and (None, None) once a chunk ends past a run's
    last window, which ends the run, as no later window can continue it.

    Only windows whose symbol counts equal the pattern's can match; a
    window with every pattern symbol's count right holds m pattern
    symbols and no other.  :func:`_count_marks` finds them a chunk at a
    time, in a few bytes and big-int operations per pattern symbol.
    Symbols are coded by code point: in one byte, with ``?`` for any
    symbol beyond latin-1, unless the pattern holds ``?`` or such a
    symbol; then in four.

    Candidate windows that overlap form a cluster.  Its windows are
    checked one by one, the r-th only if the r-1 before it were and their
    check work is below r * B, with B = CHECK_BUDGET * m^2; the rest of
    the cluster, if any, is one run.  So the checks of a cluster of r
    windows cost less than r * B plus the work of the last one.  The
    run's hits are its offset plus the hits of an engine started fresh
    on it: a hit at position j depends only on the window ending at j.
    The cluster keeps the verdicts of its last m distinct checked
    windows, which covers every period up to m in O(m^2) memory; a
    window found there is not checked again but charged the work stored
    with its verdict, so the budget decides exactly as if it had been.
    Images and pieces are yielded as the scan reaches them: a window left
    to an engine passes on the symbols it adds past the end of its run, or
    all of its symbols when it starts a run.  The last m-1 symbols of the
    text are kept for the windows that end in the next chunk.
    """
    m = len(pattern)
    budget = CHECK_BUDGET * m * m
    counts = Counter(map(ord, pattern))  # code point -> count
    # bytes per symbol code: 1 where any symbol beyond latin-1 can become
    # "?", 4 (UTF-32) where the pattern holds "?" or such a symbol
    width = 1 if max(counts) < 256 and 63 not in counts else 4
    tail = ""  # the last m-1 symbols before the chunk
    offset = 0  # symbols before text[0]
    run = end = -1  # the open run: offset, and end of its last window (-1: no run open)
    last = -m  # the last candidate window's position
    left = 0  # check work its cluster may still spend; none left once a run covers it
    seen = {}  # window -> (verdict, work): its cluster's last m distinct checked windows
    for chunk in chunks:
        text = tail + chunk
        marks = _count_marks(text, m, counts, width)
        k = marks.find(1)
        while k != -1:
            pos = offset + k
            if pos >= last + m:  # the window opens a cluster
                left = budget
                seen.clear()
            last = pos
            if left > 0:
                window = text[k : k + m]
                if window not in seen:
                    if len(seen) == m:
                        del seen[next(iter(seen))]
                    seen[window] = _is_image(pattern, window)
                image, work = seen[window]
                left += budget - work
                if image:
                    yield None, pos + m
            else:
                if pos > end:  # the window does not continue the open run
                    run = end = pos
                yield run, text[k + end - pos : k + m]
                end = pos + m
            k = marks.find(1, k + 1)
        tail = text[max(0, len(text) - m + 1) :]
        offset += len(text) - len(tail)
        if 0 <= end < offset:  # no later window can continue the open run
            yield None, None
            end = -1


# _EQ[v] maps byte v to 1 and every other byte to 0 (for bytes.translate)
_EQ = [bytes(v) + b"\1" + bytes(255 - v) for v in range(256)]


def _equal(data: bytes, width: int, value: int) -> int:
    """The int whose byte i is 1 where digit i of ``data``, ``width``
    bytes little-endian, equals ``value``, and 0 elsewhere: each byte lane
    is compared on its own.  ``data[0::1]`` is ``data``, not a copy."""
    eq = int.from_bytes(data[0::width].translate(_EQ[value & 255]), "little")
    for j in range(1, width):
        eq &= int.from_bytes(data[j::width].translate(_EQ[value >> 8 * j & 255]), "little")
    return eq


def _count_marks(text: str, m: int, counts: dict[int, int], width: int) -> bytes:
    """One byte per window of m symbols, ``text[k:k+m]`` for k = 0 ..
    len(text)-m: 1 if the window holds each code point c of ``counts``
    exactly its count times, else 0.

    ``text`` becomes its code points, ``width`` bytes each: latin-1, with
    ``?`` for any symbol beyond, or UTF-32.  The 0/1 indicator x of c, read
    as an int in digits of w = ``digit`` bytes (1, 2 or 4, as m needs), becomes
    ((x << 8wm) - x) // (256^w - 1), which is x times a digit 1 repeated m
    times: digit i is the count of c in the window ending at i.  No count
    exceeds m < 256^w, so no digit carries and the division is exact.  The
    marks are ANDed over the code points, and once none is left the rest
    are skipped.
    """
    n = len(text)
    if n < m:
        return b""
    if width == 1:
        data = text.encode("latin-1", "replace")
    else:  # a lone surrogate too is its own code point
        data = text.encode("utf-32-le", "surrogatepass")
    digit = 1 if m < 256 else 2 if m < 65536 else 4  # bytes per count
    spread = "utf-16-le" if digit == 2 else "utf-32-le"
    shift, ones = 8 * digit * m, (1 << 8 * digit) - 1
    marks = -1
    for code, count in counts.items():
        x = _equal(data, width, code)
        if digit > 1:  # one digit of `digit` bytes per symbol
            x = x.to_bytes(n, "little").decode("latin-1").encode(spread)
            x = int.from_bytes(x, "little")
        x = ((x << shift) - x) // ones
        # digits m-1 .. n-1, the counts of whole windows; the int dies here
        x = x.to_bytes(digit * (n + m), "little")[digit * (m - 1) : digit * n]
        marks &= _equal(x, digit, count)
        if not marks:
            break
    return marks.to_bytes(n - m + 1, "little")


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
