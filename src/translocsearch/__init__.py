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
Those windows are found a chunk at a time, with a dozen big-int operations
per distinct pattern symbol in place of a loop over the text.  They
are checked one by one, without an engine, until the checks of a
stretch of overlapping windows exceed a work budget of about m^2/4 per
window; an engine runs over the rest of the stretch.  :func:`_ends` yields
the hits as the scan finds them, so ``utd search`` writes each TSV line
before the next chunk is read.

:func:`encode` and :func:`infer_alphabet` map symbols to int codes; no
search uses them, and they stay importable only for the benchmark in
``perfbench``.
"""
from itertools import chain
from typing import Iterable, Iterator

from .automaton import OpCounter, SearchState, automaton_search
from .dawg import Dawg, build_dawg
from .dp import DpColumns, dp_search, symbol_masks
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
    chunks searched as their concatenation; the list of what :func:`_ends`,
    the one engine dispatch, yields.

    Chunks are read one at a time, so memory grows with the largest chunk
    and the hits, not with the text.  ``naive`` sees the whole text, so it
    checks the filter and the window check too; it refuses patterns longer
    than :data:`translocsearch.oracle.NAIVE_LIMIT` (12).
    """
    return list(_ends(pattern, (text,) if isinstance(text, str) else text, algo))


# Check work a cluster of overlapping candidate windows may spend per
# window, in units of m^2 (about the (h, k) pairs an engine visits per
# column where l_j is near m).  Once a cluster's checks overrun it, an
# engine runs over the rest, where it shares the work of overlapping
# windows and its cost per symbol is bounded.
CHECK_BUDGET = 0.25


def _ends(pattern: str, chunks: Iterable[str], algo: str) -> Iterator[int]:
    """The 1-based hit ends of ``pattern`` in the concatenation of
    ``chunks``, in text order, each yielded as the scan finds it, so
    before the next chunk is read.  ``naive`` runs on the whole text;
    ``dp`` and ``dawg`` step only over what is left of the text once the
    windows that cannot match are skipped.

    Only windows whose symbol counts equal the pattern's can match; a
    window with every pattern symbol's count right holds m pattern
    symbols and no other.  :func:`_count_marks` finds them a chunk at a
    time, in a dozen big-int operations per distinct pattern symbol, from
    the symbol counts read off the pattern once per search.

    Candidate windows that overlap form a cluster.  Its windows are
    checked one by one, the r-th only if the r-1 before it were and their
    check work is below r * B, with B = CHECK_BUDGET * m^2; the rest of
    the cluster, if any, is one run.  So the checks of a cluster of r
    windows cost less than r * B plus the work of the last one.  A check
    reads its window from both ends in turn, so a defect near either end
    is found in a few units, and its work counts both readings.  A run is
    stepped through an engine started fresh where it starts: a hit at
    position j depends only on the window ending at j.  A window left to
    the engine steps it over the symbols it adds past the end of its run,
    or all of its symbols when it starts a run.  So one engine's ring is
    live at a time, until the next run starts or the search ends; the DAWG
    is built at the first run.
    One switch serves searches whose checks run long, such as those on
    periodic text.  Until the checks of the search have spent B, each
    window is checked with ``str.find`` and nothing is kept, so a read
    with a check or two pays for neither memo nor masks.  From then on
    the search keeps the verdicts of the last m distinct windows it
    checked, across clusters: at most m windows of m symbols, O(m^2),
    which covers every period up to m.  The first window not found there
    builds the pattern's symbol masks, for that check and every later one,
    and ``dp`` shares them; the first check that reads a window backwards
    adds the reversed pattern's masks to them, under the key "", which
    no text symbol reads.  A window found there is not checked again but
    charged the work stored with its verdict; both ways of enumerating
    units give the same verdict and work, so the budget decides as if
    every window were checked.  The last m-1 symbols of the text are kept
    for the windows that end in the next chunk.
    """
    if not pattern:
        raise ValueError("empty pattern")
    if algo == "naive":
        yield from naive_search(pattern, chain.from_iterable(chunks))
        return
    if algo not in ("dp", "dawg"):
        raise ValueError(f"unknown algorithm {algo!r}")
    m = len(pattern)
    budget = CHECK_BUDGET * m * m
    counts = {ord(c): pattern.count(c) for c in dict.fromkeys(pattern)}  # code point -> count
    tail = ""  # the last m-1 symbols before the chunk
    offset = 0  # symbols before text[0]
    end = -1  # end of the last run's last window
    last = -m  # the last candidate window's position
    left = 0  # check work its cluster may still spend; none left once a run covers it
    spent = 0  # work of the checks before the switch
    seen = {}  # window -> (verdict, work): the last m distinct windows checked since the switch
    masks = None  # the pattern's symbol masks, built at the first check after the switch or dp run,
    # and under "" the reversed pattern's, once a check reads a window backwards
    dawg = None  # built at the first run
    for chunk in chunks:
        text = tail + chunk
        marks = _count_marks(text, m, counts)
        k = marks.find(1)
        while k != -1:
            pos = offset + k
            if pos >= last + m:  # the window opens a cluster
                left = budget
            last = pos
            if left > 0:
                window = text[k : k + m]
                if spent < budget:
                    image, work = _is_image(pattern, window, None)
                    spent += work
                elif window in seen:
                    image, work = seen[window]
                else:
                    masks = masks or symbol_masks(pattern)
                    image, work = _is_image(pattern, window, masks)
                    if len(seen) == m:
                        del seen[next(iter(seen))]
                    seen[window] = image, work
                left += budget - work
                if image:
                    yield pos + m
            else:
                if pos > end:  # the window does not continue the last run: start one
                    end = pos
                    if algo == "dp":
                        masks = masks or symbol_masks(pattern)
                        push = DpColumns(m).push
                        step = lambda symbol: push(masks.get(symbol, 0))
                    else:
                        dawg = dawg or build_dawg(pattern)
                        step = SearchState(pattern, dawg).step
                for j, symbol in enumerate(text[k + end - pos : k + m], end + 1):
                    if step(symbol):
                        yield j
                end = pos + m
            k = marks.find(1, k + 1)
        tail = text[max(0, len(text) - m + 1) :]
        offset += len(text) - len(tail)


# _EQ[v] maps byte v to 1 and every other byte to 0 (for bytes.translate)
_EQ = [bytes(v) + b"\1" + bytes(255 - v) for v in range(256)]


def _equal(data: bytes, value: int) -> int:
    """The int whose byte i is 1 where code point i of ``data``, UTF-32-LE,
    equals ``value``, and 0 elsewhere: each of its 3 low byte lanes is
    compared on its own; byte 3 of a code point up to U+10FFFF is 0."""
    eq = -1
    for j in range(3):
        eq &= int.from_bytes(data[j::4].translate(_EQ[value >> 8 * j & 255]), "little")
    return eq


def _count_marks(text: str, m: int, counts: dict[int, int]) -> bytes:
    """One byte per window of m symbols, ``text[k:k+m]`` for k = 0 ..
    len(text)-m: 1 if the window holds each code point c of ``counts``
    exactly its count times, else 0.

    A c below 256 other than ``?`` is compared on the latin-1 bytes of
    ``text``, where any symbol beyond latin-1 becomes ``?``; any other c
    on the UTF-32 code units.  The 0/1 indicator x of c, read
    as an int in digits of w = ``digit`` bytes (1, 2 or 4, as m needs), becomes
    ((x << 8wm) - x) // (256^w - 1), which is x times a digit 1 repeated m
    times: digit i is the count of c in the window ending at i.  No count
    exceeds m < 256^w, so no digit carries and the division is exact.
    Shifted down m-1 digits, digit k counts window k.  The marks hold a 1
    in the lowest bit of the digit of each window not yet ruled out; XOR
    with c's count there leaves z, whose digit is 0 where the count is
    right, and ((z | u << 8w-1) - u) | z, with u the marks, has a digit's
    top bit set exactly where z's digit is not 0, borrowing across no digit.
    So a pass is a dozen big-int operations and no constant is built
    beyond the first marks; once no mark is left the rest are skipped.
    The text is encoded anew for each pass, so that no text-sized bytes
    outlive one.
    """
    n = len(text)
    if n < m:
        return b""
    digit = 1 if m < 256 else 2 if m < 65536 else 4  # bytes per count
    spread = "utf-16-le" if digit == 2 else "utf-32-le"
    shift, ones, top = 8 * digit * m, (1 << 8 * digit) - 1, 8 * digit - 1
    skip = shift - 8 * digit  # digits 0 .. m-2 count no whole window
    marks = int.from_bytes((1).to_bytes(digit, "little") * (n - m + 1), "little")  # every window
    for code, count in counts.items():
        if code < 256 and code != 63:  # 63: "?", which a symbol beyond latin-1 becomes
            x = int.from_bytes(text.encode("latin-1", "replace").translate(_EQ[code]), "little")
        else:  # a lone surrogate too is its own code point
            x = _equal(text.encode("utf-32-le", "surrogatepass"), code)
        if digit > 1:  # one digit of `digit` bytes per symbol
            x = x.to_bytes(n, "little").decode("latin-1").encode(spread)
            x = int.from_bytes(x, "little")
        x = ((x << shift) - x) // ones >> skip  # digit k: the count of c in window k
        x ^= count * marks  # 0 where a marked window's count is right
        marks &= ~((x | marks << top) - marks | x) >> top
        if not marks:
            break
    return marks.to_bytes(digit * (n - m + 1), "little")[::digit]


def _is_image(
    pattern: str, window: str, masks: dict[str, int | dict[str, int]] | None = None
) -> tuple[bool, int]:
    """Whether ``window`` is an image of ``pattern``, of the same length,
    and the work spent to tell: the symbols compared in common prefixes
    plus the candidate units tried.

    An image reads left to right as units: a pattern symbol copied, or a
    factor pair zw of the pattern written as wz.  The search keeps the
    prefix lengths s with ``window[:s]`` an image of ``pattern[:s]`` as
    bits, and always works on the longest one reached whose units are not
    all tried, so an image is found in few steps.  Copies come first: at
    a prefix s whose copies are not yet taken, the common prefix e of
    ``window[s:]`` and ``pattern[s:]`` gives s .. s+e at once, each with
    its copies taken, and the search goes on from s+e, where the copies
    stop.  A unit wz with w = ``window[s:p]`` = ``pattern[q:q+p-s]`` and
    z = ``window[p:p+q-s]`` = ``pattern[s:q]`` reaches p+q-s.  z starts
    with ``pattern[s]``, which gives the candidates for p; w must occur
    in the pattern after s, and once it does not, no longer w does; z is
    at most the common prefix of ``window[p:]`` and ``pattern[s:]`` long.
    The units of s pause after the first candidate p whose units reach a
    prefix not reached before, and the search goes on from that longer
    prefix; s resumes after p once it is again the longest prefix left.
    Every prefix reached has all its units tried before a window is
    rejected, so a non-image costs no more than with each prefix finished
    in turn, and a rotation of A^(m-1)B, an image, costs at most m + 1.

    Two such searches take turns: this one, and the same search on
    ``pattern[::-1]`` and ``window[::-1]``.  Reversing keeps images: zw
    written as wz reads backwards as rev(w) rev(z) written as rev(z)
    rev(w), so either search gives the verdict, and the first to give it
    wins.  The forward search tries every prefix before a defect, so one
    near the end of a window costs it most: (BA)^(m/2-2) BBAA against
    (AB)^(m/2) takes it 14,911 units at m = 64, and the reversed search
    one.  The forward search runs alone until its work passes 3m/2, the
    cost of the costliest image of period-2 text, its out-of-phase
    rotation, so most checks never start the reversed one; from then on
    each runs until its work passes the other's, at the end of a step: a
    copy run, or a prefix's units up to a pause.  So a check costs at most
    about 3m/2 plus twice what the cheaper search would cost alone.  The
    work reported is that of both, which the check budget and the memo
    charge.

    The units are enumerated one of two ways, which pause after the same
    candidates and return the same verdict and the same work after each
    step, so that the turns and the check budget decide alike.  Without
    ``masks``, each occurrence q of w is one ``str.find`` call, so a
    window of random text is rejected after a handful of them.  With
    ``masks``, the pattern's
    :func:`translocsearch.dp.symbol_masks` (bit i+1 set where
    ``pattern[i]`` is the symbol), the occurrences of w after s are one
    int, ``occ``, bit b set where ``pattern[s+b:]`` starts with w
    (Shift-And), updated by one AND per symbol that w grows by; a
    candidate p takes all of its units at once, the bits b = q-s up to
    its common prefix, and counts one unit each, as the finds do: a unit
    that reaches m is the last one either way.  The int empties no later
    than at the first candidate whose w no longer occurs, where the finds
    stop, so both ways try the same candidates.  The masks cost about m
    steps to build, which only a search with many checks repays.  The
    reversed search takes the reversed pattern's masks.  They are built
    at its first turn and kept in ``masks`` under the key "", so that a
    search builds them at most once: ``masks`` maps each pattern symbol
    to its int, and "", which is no symbol of a ``str``, to the dict of
    the reversed pattern, once built.  So a reader that looks a text
    symbol up never meets it, but one that iterates over ``masks`` does.
    """
    m = len(pattern)
    reached = 1  # prefix lengths reached
    todo = 1  # of those, the ones whose units are not all tried
    copied = 0  # of those, the ones whose copies are taken
    paused = None  # s -> where its units paused: p, or (p, occ) with masks
    work = 0  # of both searches
    idle = 0  # of the search that waits
    cap = 3 * m // 2  # the work past which the search that runs yields its turn
    other = None  # the strings, masks and sets of the one that waits, once both have started
    while todo:
        if work > cap:  # the other's turn, until its own work passes this one's
            if other is None:
                if masks is not None and "" not in masks:
                    masks[""] = symbol_masks(pattern[::-1])
                other = pattern[::-1], window[::-1], masks and masks[""], 1, 1, 0, None
            other, (pattern, window, masks, reached, todo, copied, paused) = (
                (pattern, window, masks, reached, todo, copied, paused), other)
            idle = work - idle
            cap = 2 * idle
        s = todo.bit_length() - 1
        if not copied >> s & 1:
            e = 0
            while s + e < m and window[s + e] == pattern[s + e]:
                e += 1
            work += e + 1
            if s + e == m:
                return True, work
            run = ((2 << e) - 1) << s  # s .. s+e
            copied |= run
            todo |= run & ~reached
            reached |= run
            continue
        first = pattern[s]
        new = 0  # prefixes not reached before, from the last candidate tried
        if masks is None:
            p = paused.pop(s, s) if paused else s
            p = window.find(first, p + 1)
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
                    new |= 1 << (p + q - s)
                    q = pattern.find(w, q + 1)
                new &= ~reached
                if new:
                    state = p
                    break
                p = window.find(first, p + 1)
        else:
            # occ: the shifts b >= 1 where pattern[s+b:] starts with w
            p, occ = paused.pop(s) if paused and s in paused else (s, (1 << (m - s)) - 2)
            while True:  # w = window[s:p] grows by window[p]
                occ &= masks.get(window[p], 0) >> (p + 1)
                p += 1
                if not occ:  # w no longer occurs after s; empty once p reaches m
                    break
                if window[p] == first:
                    e = 1  # common prefix of window[p:] and pattern[s:]
                    while p + e < m and window[p + e] == pattern[s + e]:
                        e += 1
                    units = occ & ((2 << e) - 2)  # q-s in 1 .. e
                    work += e + units.bit_count()
                    if units >> (m - p):  # q-s = m-p, the largest that fits: the unit reaches m
                        return True, work
                    new = units << p & ~reached
                    if new:
                        state = p, occ
                        break
        if new:  # pause s, and go on from the longest prefix just reached
            if paused is None:
                paused = {}
            paused[s] = state
            todo |= new
            reached |= new
        else:
            todo ^= 1 << s
    return False, work
