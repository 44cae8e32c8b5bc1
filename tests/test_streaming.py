"""Streamed input: chunked text gives the same matches as whole text, the
symbol-count filter in front of `dp` and `dawg` changes no match and
skips every window that cannot match, the window checks behind it agree
with the oracle and keep within their work budget, the CLI's output does
not depend on how its input is split into lines or chunks, and its
memory does not grow with the text."""
import gc
import gzip
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stdout
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import translocsearch
from translocsearch import cli, match_ends
from translocsearch.automaton import SearchState, automaton_search
from translocsearch.cli import bench_rows
from translocsearch.dp import DpColumns, dp_search, symbol_masks
from translocsearch.oracle import enumerate_images, naive_search

from helpers import EX2_X, EX2_Y, LETTERS, reference_counts, reference_pieces, stdin_of

ENGINES = ("naive", "dp", "dawg")


def window_scan(pattern: str, text: str) -> list[int]:
    """Reference: test every window of the whole text against the images."""
    m = len(pattern)
    images = enumerate_images(pattern)
    return [j for j in range(m, len(text) + 1) if tuple(text[j - m : j]) in images]


def split(text: str, cuts: list[int]) -> list[str]:
    """Pieces of ``text`` between sorted cut points; repeated cuts and cuts
    at either end give empty pieces."""
    bounds = [0, *sorted(cuts), len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def unary(symbols: str, max_size: int):
    return st.builds(lambda c, n: c * n, st.sampled_from(symbols), st.integers(0, max_size))


def period2(max_size: int):
    return st.builds(
        lambda ab, n: (ab * n)[:n], st.sampled_from(("ab", "ba", "ac")), st.integers(0, max_size)
    )


patterns = st.one_of(
    st.text("abc", min_size=1, max_size=7),
    unary("ab", 7).filter(bool),
    period2(7).filter(bool),
)
texts = st.one_of(
    st.text("abcN", max_size=40),  # N is never a pattern symbol
    unary("ab", 40),
    period2(40),
    st.text("N\n", max_size=12),  # foreign symbols only
)


@st.composite
def chunked(draw):
    text = draw(texts)
    cuts = draw(st.lists(st.integers(0, len(text)), max_size=8))
    return text, cuts


@settings(max_examples=300, deadline=None)
@given(pattern=patterns, case=chunked())
@example(pattern="abc", case=("ab", [1]))  # m > n
@example(pattern="abcabc", case=("cab", []))  # m > n, one chunk
@example(pattern="a", case=("aNa", [0, 1, 1, 3]))  # m = 1, empty chunks at both ends
@example(pattern="ab", case=("NNNN", [2]))  # foreign symbols only
@example(pattern="aaa", case=("aaaaaa", [1, 1, 4]))  # unary
@example(pattern="abab", case=("babababa", [3, 5]))  # period 2
@example(pattern="ab", case=("", [0, 0]))  # empty text, only empty chunks
def test_chunked_text_matches_whole_text_on_every_engine(pattern, case):
    text, cuts = case
    expected = window_scan(pattern, text)
    for algo in ENGINES:
        chunks = (piece for piece in split(text, cuts))  # one pass only
        assert match_ends(pattern, chunks, algo) == expected, algo
        assert match_ends(pattern, text, algo) == expected, algo


@settings(max_examples=200, deadline=None)
@given(pattern=patterns, text=texts)
@example(pattern="abc", text="ab")  # m > n
@example(pattern="a", text="aNa")  # m = 1
@example(pattern="aaaa", text="a" * 40)  # unary: l_j reaches m
@example(pattern="abab", text="ab" * 20)  # period 2
def test_counted_search_matches_reference_counts(pattern, text):
    """The per-column tally equals counts enumerated pair by pair, and
    the hits are the DP's."""
    ends, counter = automaton_search(pattern, iter(text))
    assert counter == reference_counts(pattern, text)
    assert ends == dp_search(pattern, text)


@st.composite
def swapped(draw, pattern: str) -> str:
    """The pattern with one pair of adjacent factors swapped: an image."""
    m = len(pattern)
    if m < 2:
        return pattern
    i = draw(st.integers(0, m - 2))
    h = draw(st.integers(1, m - i - 1))
    k = draw(st.integers(1, m - i - h))
    return pattern[:i] + pattern[i + h : i + h + k] + pattern[i : i + h] + pattern[i + h + k :]


@st.composite
def filter_cases(draw, symbols: str, max_m: int):
    """(pattern, text, cuts): texts built from images of the pattern, other
    permutations of it (windows the filter passes, most of them no match)
    and noise, where N is never a pattern symbol."""
    pattern = draw(st.text(symbols, min_size=1, max_size=max_m))
    segment = st.one_of(
        swapped(pattern),
        st.permutations(pattern).map("".join),
        st.text(symbols + "N", max_size=2 * len(pattern)),
    )
    text = "".join(draw(st.lists(segment, max_size=6)))
    cuts = draw(st.lists(st.integers(0, len(text)), max_size=12))
    return pattern, text, cuts


# Check budgets: every window left to an engine, every window checked on
# its own, and the default
BUDGETS = (0, math.inf, translocsearch.CHECK_BUDGET)


def assert_filtered_ends(pattern: str, text: str, cuts: list[int], expected: list[int]):
    """Filtered `dp` and `dawg` on the chunked text, under every budget in
    BUDGETS, and the unfiltered engines on the whole text, all give
    ``expected``."""
    assert dp_search(pattern, text) == expected
    assert automaton_search(pattern, text)[0] == expected
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "CHECK_BUDGET", budget)
            for algo in ("dp", "dawg"):
                got = match_ends(pattern, iter(split(text, cuts)), algo)
                assert got == expected, (algo, budget)


@settings(max_examples=300, deadline=None)
@given(case=filter_cases("abc", 7))
@example(case=("abc", "NNcabNN", [3, 4]))  # a run straddling two chunk boundaries
@example(case=("ab", "ab" * 10, list(range(21))))  # one run over 20 one-symbol chunks
@example(case=("ab", "NbaNab", [0, 0, 2, 2, 6, 6]))  # empty chunks between runs
@example(case=("a", "aNa", [1, 2]))  # m = 1
@example(case=("abcabc", "cab", [1]))  # m > n
@example(case=("ab", "NNNN", [2]))  # foreign symbols only
@example(case=("aaaa", "a" * 9, [3, 5]))  # unary: a count reaches m, no digit carries
# by default a run closes its cluster, and a later cluster's checked image
# follows it (hits 5-20 and 30): in one chunk, and cut between the two
@example(case=("aaaab", "aaaab" * 4 + "NNNNN" + "baaaa", []))
@example(case=("aaaab", "aaaab" * 4 + "NNNNN" + "baaaa", [22]))
def test_filtered_engines_match_naive_and_unfiltered(case):
    pattern, text, cuts = case
    expected = naive_search(pattern, text)
    assert_filtered_ends(pattern, text, cuts, expected)


@settings(max_examples=60, deadline=None)
@given(case=filter_cases(LETTERS, 24))
@example(case=(LETTERS, "N" + LETTERS[::-1] + LETTERS[10:] + LETTERS[:10] + LETTERS, [7, 30]))
def test_filter_with_multi_word_weights(case):
    """20 pattern symbols: the filter tests 20 symbol counts per window, and
    their marks must all hold at once; too many images for the naive
    engine, so `dp` is the reference."""
    pattern, text, cuts = case
    expected = dp_search(pattern, text)
    assert_filtered_ends(pattern, text, cuts, expected)


def long_pattern_case(rng: random.Random, kind: str) -> tuple[str, str]:
    """(pattern, text) with m = 13-64, beyond the oracle: unary or period-2
    text with point mutations, blocks A^k B with k within m +- 4, random
    DNA with images planted, or shuffles of the pattern."""
    m = rng.randint(13, 64)
    if kind in ("unary", "period-2"):
        unit = "A" if kind == "unary" else "AC"
        pattern = (unit * m)[:m]
        text = list((unit * 6 * m)[rng.randrange(len(unit)) :][: rng.randint(m, 5 * m)])
        for _ in range(rng.randint(0, 4)):
            text[rng.randrange(len(text))] = rng.choice("ACG")
        return pattern, "".join(text)
    if kind == "A^(m-1)B":
        blocks = ("A" * rng.randint(m - 5, m + 3) + "B" for _ in range(rng.randint(1, 5)))
        return "A" * (m - 1) + "B", "".join(blocks)
    pattern = "".join(rng.choice("ACGT") for _ in range(m))
    pieces = []
    for _ in range(rng.randint(1, 5)):
        if kind == "planted":
            i = rng.randrange(m - 1)
            h = rng.randint(1, m - i - 1)
            k = rng.randint(1, m - i - h)
            image = pattern[:i] + pattern[i + h : i + h + k] + pattern[i : i + h] + pattern[i + h + k :]
            noise = "".join(rng.choice("ACGT") for _ in range(rng.randrange(m)))
            pieces += [noise, image]
        else:
            pieces.append("".join(rng.sample(pattern, m)))
    return pattern, "".join(pieces)


def test_engines_above_the_oracle_limit_agree_with_the_image_check():
    """On 60 seeded chunked cases with m = 13-64, too long for the naive
    oracle, `dp` and `dawg` through `match_ends`, under the default budget
    and with every window left to an engine, hit exactly the ends of the
    windows `_is_image` accepts.  That check shares no code with the
    engines' `_close`."""
    rng = random.Random(32)
    kinds = ("unary", "period-2", "A^(m-1)B", "planted", "shuffled")
    for case in range(60):
        pattern, text = long_pattern_case(rng, kinds[case % len(kinds)])
        m = len(pattern)
        expected = [
            k + m for k in range(len(text) - m + 1)
            if translocsearch._is_image(pattern, text[k : k + m])[0]
        ]
        cuts = [rng.randrange(len(text) + 1) for _ in range(rng.randint(0, 6))]
        for budget in (translocsearch.CHECK_BUDGET, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(translocsearch, "CHECK_BUDGET", budget)
                for algo in ("dp", "dawg"):
                    got = match_ends(pattern, iter(split(text, cuts)), algo)
                    assert got == expected, (pattern, text, budget, algo)


def stream(pattern: str, chunks: list[str]) -> list[tuple[int | None, str | int]]:
    """What `_ends` on ``chunks`` checks and steps, as `joined` pieces: an
    image checked on its own as (None, end), and each run as (run offset,
    the symbols its engine steps over).  The `dawg` engine is a recorder
    that hits at every symbol, so a hit right after a step ends at that
    symbol; a hit that follows no step is a checked image.  A run's
    symbols are stepped in text order, by the one engine started with it."""
    out, stepped = [], []  # stepped: (engine, symbol) since the last hit

    class Recorder:
        def __init__(self, pattern, dawg):
            self.run = None  # [offset, symbols], from the first step on

        def step(self, symbol):
            stepped.append((self, symbol))
            return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translocsearch, "SearchState", Recorder)
        mp.setattr(translocsearch, "build_dawg", lambda pattern: None)  # the recorder needs none
        for end in translocsearch._ends(pattern, iter(chunks), "dawg"):
            if not stepped:
                out.append((None, end))
                continue
            [(engine, symbol)] = stepped
            stepped.clear()
            if engine.run is None:
                engine.run = [end - 1, ""]
                out.append(engine.run)
            assert out[-1] is engine.run and end == engine.run[0] + len(engine.run[1]) + 1, out
            engine.run[1] += symbol
    assert not stepped
    return [tuple(item) for item in out]


def joined(pieces: list[tuple[int | None, str | int]]) -> list[tuple[int | None, str | int]]:
    """``pieces`` of `reference_pieces` with the pieces of each run joined
    into one (run offset, symbols) item."""
    out = []
    for start, piece in pieces:
        if start is not None and out and out[-1][0] == start:
            out[-1] = (start, out[-1][1] + piece)
        else:
            out.append((start, piece))
    return out


def assert_stream(pattern: str, text: str, cuts: list[int]):
    """Under every budget in BUDGETS, `_ends` on the chunked text checks
    the images and steps the runs that `reference_pieces` computes from the
    whole text."""
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "CHECK_BUDGET", budget)
            got = stream(pattern, split(text, cuts))
        assert got == joined(reference_pieces(pattern, text, budget)), budget


# Symbols outside latin-1, among them a lone surrogate, and "?", which
# stands in for them when the pattern has neither
FOREIGN = "N?\u20ac\U0001d11e\udc80"


@st.composite
def coded_cases(draw):
    """(pattern, text, cuts) for each way the filter codes symbols: latin-1
    with "?" for the rest, and codes of its own when the pattern holds "?"
    or a symbol beyond latin-1; texts as in `filter_cases`, with noise from
    FOREIGN too."""
    symbols = draw(st.sampled_from(("ab", "ACGT", "a\xe9\u20ac", "\u20ac\U0001d11e", "a?\u20ac")))
    pattern = draw(st.text(symbols, min_size=1, max_size=8))
    segment = st.one_of(
        swapped(pattern),
        st.permutations(pattern).map("".join),
        st.text(symbols + FOREIGN, max_size=2 * len(pattern)),
    )
    text = "".join(draw(st.lists(segment, max_size=6)))
    cuts = draw(st.lists(st.integers(0, len(text)), max_size=12))
    return pattern, text, cuts


@settings(max_examples=300, deadline=None)
@given(case=coded_cases())
@example(case=("a", "aNa?a", [0, 1, 1, 5]))  # m = 1, empty chunks at both ends
@example(case=("abcd", "abc", [1, 1]))  # m > n
@example(case=("a?", "?a\u20aca?", [2]))  # "?" in the pattern, "\u20ac" is not
@example(case=("\u20aca", "a\u20ac\U0001d11ea\u20ac", [3, 3]))  # pattern beyond latin-1
@example(case=("\udc80a", "a\udc80?\udc80a", [2]))  # a lone surrogate in the pattern
def test_filter_stream_matches_the_counter_reference(case):
    pattern, text, cuts = case
    assert_stream(pattern, text, cuts)


def long_case(pattern: str, seed: int) -> tuple[str, list[int]]:
    """Text of noise, a permutation of the pattern, an image of it, the
    pattern itself, the pattern with "?" written as a symbol beyond latin-1,
    and m+2 copies of its first symbol; and six chunk cuts, one repeated
    (an empty chunk)."""
    rng = random.Random(seed)
    m = len(pattern)
    symbols = sorted(set(pattern)) + list(FOREIGN)
    noise = "".join(rng.choice(symbols) for _ in range(m // 2))
    i, h = sorted(rng.sample(range(1, m), 2))
    image = pattern[: i // 2] + pattern[i:h] + pattern[i // 2 : i] + pattern[h:]
    text = "".join((
        noise, "".join(rng.sample(pattern, m)), image, pattern,
        pattern.replace("?", "\u20ac"), pattern[0] * (m + 2), noise,
    ))
    cuts = [rng.randrange(len(text) + 1) for _ in range(5)]
    return text, [*cuts, cuts[0]]


@pytest.mark.parametrize("pattern", [
    "a" * 255,  # the largest count in one byte
    "a" * 256,  # counts take two bytes from m = 256 on
    ("ab" * 150)[:256],  # a window of m+2 a's holds 256 of them, the pattern 128
    "".join(random.Random(300).sample("a" * 270 + "b" * 30, 300)),  # 270 a's
    "".join(map(chr, range(0x4E00, 0x4E00 + 300))),  # 300 distinct symbols
    "".join(map(chr, range(256))),  # all of latin-1, "?" too
], ids=["m255", "m256-unary", "m256", "m300", "300-distinct", "256-distinct-latin-1"])
def test_filter_stream_on_long_patterns(pattern):
    text, cuts = long_case(pattern, len(pattern))
    assert_stream(pattern, text, cuts)
    assert any(start is None for start, _ in reference_pieces(pattern, text, math.inf))  # images


def astral(d: int) -> str:
    """d distinct symbols beyond the Basic Multilingual Plane."""
    return "".join(map(chr, range(0x10000, 0x10000 + d)))


@pytest.mark.parametrize("pattern, text", [
    # a window of m a's: a count of 65 536 needs more than two bytes
    ("a" * 65_535 + "b", "a" * 65_536 + "baa"),
    # 65 536 distinct symbols beyond latin-1
    (astral(65_536), astral(65_536)[1:] + "N" + astral(1) + "N"),
], ids=["m65536", "65536-distinct"])
def test_filter_stream_on_huge_patterns(pattern, text, monkeypatch):
    """Counts too large for two bytes.  Budget 0 only: checking windows
    such as a^65534 b a one by one takes O(m^3) work."""
    monkeypatch.setattr(translocsearch, "CHECK_BUDGET", 0)
    cuts = [len(pattern) // 2] * 2
    assert stream(pattern, split(text, cuts)) == joined(reference_pieces(pattern, text, 0))


def reference_marks(pattern: str, text: str) -> bytes:
    """What `_count_marks` returns, one window at a time: a byte per window
    of m symbols, 1 where its `Counter` equals the pattern's."""
    m, counts = len(pattern), Counter(pattern)
    return bytes(Counter(text[k : k + m]) == counts for k in range(len(text) - m + 1))


def assert_marks(pattern: str, text: str):
    """`_count_marks` gives the reference marks."""
    counts = Counter(map(ord, pattern))
    assert translocsearch._count_marks(text, len(pattern), counts) == reference_marks(pattern, text)


@settings(max_examples=300, deadline=None)
@given(case=coded_cases())
@example(case=("abcd", "abc", []))  # n < m
@example(case=("abc", "cab", []))  # n = m, one window
@example(case=("ab", "", []))  # no symbol at all
@example(case=("a?", "\u20aca", []))  # n = m: "\u20ac" is not "?" once the pattern holds "?"
@example(case=("ab", "\u20acab?", []))  # "\u20ac" and "?" both foreign in one byte
@example(case=("\udc80a", "a\udc80", []))  # a lone surrogate, n = m
# "a" is compared on latin-1 bytes, "?" and "\u20ac" on UTF-32 code units
@example(case=("a?\u20ac", "\U0001d11ea?\u20ac?\u20ac\xe9a\u20ac?", []))
@example(case=("\U0001d11ea", "a\ud11e\U0001d11ea\ud11ea", []))  # these two differ in byte 2 alone
def test_count_marks_match_the_counter_reference(case):
    pattern, text, _ = case
    assert_marks(pattern, text)


@pytest.mark.parametrize("pattern", [
    ("ab" * 128)[:255],  # counts in one byte
    ("ab" * 128)[:256],  # counts in two bytes
    ("a?\u20ac" * 86)[:255],  # 4-byte codes, counts in one byte
    ("a?\U0001d11e\udc80" * 64)[:256],  # 4-byte codes, counts in two bytes
    # 255 a's differ from the pattern's 127 and 0 b's from its 128 in the
    # top bit alone of a count byte
    "a" * 127 + "b" * 128,
], ids=["m255", "m256", "m255-wide", "m256-wide", "m255-top-bit"])
def test_count_marks_on_long_patterns(pattern):
    text, _ = long_case(pattern, len(pattern))
    assert_marks(pattern, text)
    assert_marks(pattern, pattern)  # n = m
    assert_marks(pattern, pattern[1:])  # n < m


def test_filter_runs_a_bounded_number_of_lines_per_chunk():
    """The filter works a chunk at a time, not a symbol at a time: over 10^4
    random DNA symbols in 2 KiB chunks, with m = 64 and no candidate window,
    the lines of the package's main module run fewer than 100 times per
    chunk (about 50 today), where a loop over the symbols would run them
    tens of thousands of times."""
    rng = random.Random(19)
    text = "".join(rng.choice("ACGT") for _ in range(10_000))
    pattern = "".join(rng.choice("ACGT") for _ in range(64))
    chunks = [text[i : i + 2048] for i in range(0, len(text), 2048)]
    events = 0

    def line(frame, event, arg):
        nonlocal events
        events += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == translocsearch.__file__ else None

    tracer = sys.gettrace()
    sys.settrace(call)
    try:
        hits = list(translocsearch._ends(pattern, iter(chunks), "dawg"))
    finally:
        sys.settrace(tracer)
    assert hits == reference_pieces(pattern, text, 0) == []
    assert events < 100 * len(chunks), events


def test_a_short_read_costs_the_same_lines_at_any_m():
    """The fixed cost of one `match_ends` call does not grow with the
    pattern: on a 150-symbol DNA read with no candidate window, the lines
    of the package's main module run as often at m = 6 as at m = 40, and
    fewer than 64 times (50 on CPython 3.11): set-up, one filter pass and
    the dispatch, with no line per symbol.  The read holds no T and each
    pattern starts with T, so the first pass leaves no window; both
    patterns hold all four symbols, so the set-up reads four of them."""
    rng = random.Random(24)
    read = "".join(rng.choice("ACG") for _ in range(150))
    patterns = ["TACGTA", "T" + "".join(rng.choice("ACGT") for _ in range(39))]

    def lines(pattern: str) -> int:
        events = 0

        def line(frame, event, arg):
            nonlocal events
            events += event == "line"
            return line

        def call(frame, event, arg):
            return line if frame.f_code.co_filename == translocsearch.__file__ else None

        tracer = sys.gettrace()
        sys.settrace(call)
        try:
            hits = match_ends(pattern, read)
        finally:
            sys.settrace(tracer)
        assert hits == []
        return events

    assert [set(p) for p in patterns] == [set("ACGT")] * 2
    six, forty = map(lines, patterns)
    assert six == forty < 64, (six, forty)


def candidate_symbols(pattern: str, text: str, budget: float) -> tuple[int, int]:
    """Text positions the engines must step over, by brute force, and the
    number of maximal stretches of consecutive ones, one engine run each:
    windows whose symbol counts equal the pattern's, taken in order.  The
    r-th window of a cluster of overlapping ones is checked on its own if
    every window before it was and their check work is below
    r * budget * m^2; otherwise it covers its symbols."""
    m, counts = len(pattern), Counter(pattern)
    covered, last = set(), -m
    for k in range(len(text) - m + 1):
        if Counter(text[k : k + m]) != counts:
            continue
        if k >= last + m:
            rank, spent, checked = 0, 0, True
        last = k
        rank += 1
        checked = checked and spent < rank * budget * m * m
        if checked:
            spent += translocsearch._is_image(pattern, text[k : k + m])[1]
        else:
            covered.update(range(k, k + m))
    return len(covered), sum(p - 1 not in covered for p in covered)


def count_calls(mp: pytest.MonkeyPatch, calls: Counter, owner, name: str, key: str):
    """Count the calls of ``owner.name`` in ``calls[key]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return original(*args, **kwargs)
    mp.setattr(owner, name, wrapper)


def refuse_engine(*args):
    raise AssertionError("an engine ran where the checks decide every window")


@settings(max_examples=100, deadline=None)
@given(case=filter_cases("abc", 7))
@example(case=("ab", "ab" * 10, list(range(21))))  # one cluster of overlapping windows
@example(case=("aaaab", "aaaab" * 4, [7]))  # by default 3 windows checked, the other 13 one run
@example(case=("abc", "cabNNNNbca", [5]))  # two clusters
@example(case=("abc", "cabbca", [4]))  # touching windows: two clusters
@example(case=("a", "aNba", [2]))  # m = 1: only the symbols equal to the pattern
def test_engines_step_once_per_symbol_of_a_candidate_window(case):
    """Under every budget in BUDGETS, each engine steps exactly over the
    windows the filter and the check budget leave to it: no other symbol,
    and none twice, in one run per stretch of consecutive symbols, however
    the chunks cut it.  The DAWG is built once, and only when some window
    is left to an engine.  Each run constructs its own engine."""
    pattern, text, cuts = case
    for budget in BUDGETS:
        union, runs = candidate_symbols(pattern, text, budget)
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "CHECK_BUDGET", budget)
            count_calls(mp, calls, DpColumns, "push", "dp")
            count_calls(mp, calls, SearchState, "step", "dawg")
            count_calls(mp, calls, translocsearch, "DpColumns", "dp runs")
            count_calls(mp, calls, translocsearch, "SearchState", "dawg runs")
            count_calls(mp, calls, translocsearch, "build_dawg", "build")
            for algo in ("dp", "dawg"):
                match_ends(pattern, iter(split(text, cuts)), algo)
        assert calls["dp"] == calls["dawg"] == union, budget
        assert calls["dp runs"] == calls["dawg runs"] == runs, budget
        assert calls["build"] == (union > 0), budget


def cluster_checks(pattern: str, text: str, algo: str) -> tuple[list[str], list[int], int]:
    """The windows `_ends` checks in ``text`` cut at six seeded points, the
    work of each check, and the engine runs of ``algo``; the hits must
    equal `dp_search`'s."""
    m = len(pattern)
    rng = random.Random(m)
    cuts = [rng.randrange(len(text) + 1) for _ in range(6)]
    works, windows, calls = [], [], Counter()
    check = translocsearch._is_image

    def recorded(pattern, window, *masks):
        image, work = check(pattern, window, *masks)
        works.append(work)
        windows.append(window)
        return image, work

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translocsearch, "_is_image", recorded)
        count_calls(mp, calls, translocsearch, "DpColumns", "dp")
        count_calls(mp, calls, translocsearch, "SearchState", "dawg")
        assert match_ends(pattern, iter(split(text, cuts)), algo) == dp_search(pattern, text), algo
    return windows, works, calls[algo]


@pytest.mark.parametrize("m", [32, 64])
@pytest.mark.parametrize("kind", ["unary", "period-2", "A^(m-1)B", "period-2 defect"])
def test_worst_case_text_keeps_check_work_within_the_budget(m, kind):
    """Texts where every window is a candidate, all of one cluster.  Its
    check work stays below its checked windows' count times the budget plus
    the work of the last check.  Unary, period-2 and A^(m-1)B windows are
    cheap to check, and so are period-2 windows with a defect near their
    end, (ba)^(m/2-2) bbaa and its rotations, which the reversed search
    reads from the defect's end: no engine runs."""
    pattern = "a" * m if kind == "unary" else "a" * (m - 1) + "b" if kind == "A^(m-1)B" else "ab" * (m // 2)
    period = "ba" * (m // 2 - 2) + "bbaa" if kind == "period-2 defect" else pattern[1:] + pattern[0]
    text = (period * 10)[: 5 * m]
    budget = translocsearch.CHECK_BUDGET * m * m
    for algo in ("dp", "dawg"):
        windows, works, runs = cluster_checks(pattern, text, algo)
        assert windows == [text[k : k + m] for k in range(len(windows))], algo
        assert sum(works) - works[-1] < len(works) * budget
        assert runs == 0, algo


def test_defects_far_from_both_window_ends_exhaust_the_budget():
    """Period-2 text with bbaa every 48 symbols, (ba)^22 bbaa, against
    (ab)^32: each window holds a defect far from both of its ends, so the
    forward and the reversed search both try many prefixes.  The checks
    of the cluster's first windows overrun the budget, and one engine run
    covers the rest of the cluster."""
    m = 64
    pattern, text = "ab" * 32, ("ba" * 22 + "bbaa") * 7
    budget = translocsearch.CHECK_BUDGET * m * m
    for algo in ("dp", "dawg"):
        windows, works, runs = cluster_checks(pattern, text, algo)
        assert windows == [text[k : k + m] for k in range(len(windows))], algo
        assert (len(works) + 1) * budget <= sum(works) < len(works) * budget + works[-1]  # the budget ran out
        assert runs == 1, algo


def switch_checks(pattern: str, text: str) -> list[tuple[str, bool]]:
    """Reference: the candidate windows that `_ends` checks, in text
    order, each with whether its check gets the unit masks.  A cluster of
    overlapping windows checks its r-th window only while the work charged
    before it in the cluster is below r * B, with B = CHECK_BUDGET * m^2.
    Until the search's checks have spent B, each admitted window is
    checked; from then on, only one that is not among the last m distinct
    windows checked since, and a window that is not checked is charged
    the work of its check all the same."""
    m, counts = len(pattern), Counter(pattern)
    budget = translocsearch.CHECK_BUDGET * m * m
    checks, since, spent, last, left = [], [], 0, -m, 0
    for k in range(len(text) - m + 1):
        window = text[k : k + m]
        if Counter(window) != counts:
            continue
        if k >= last + m:  # the window opens a cluster
            left = budget
        last = k
        if left <= 0:
            continue
        work = translocsearch._is_image(pattern, window)[1]
        if spent < budget:
            checks.append((window, False))
            spent += work
        elif window not in since[-m:]:
            checks.append((window, True))
            since.append(window)
        left += budget - work
    return checks


@st.composite
def periodic_clusters(draw):
    """(pattern, text, cuts): a unary or period-2 pattern of even length
    6-16, whose windows are checked in fewer units than the budget adds,
    and text of stretches with its period separated by N runs, so that
    each stretch is a cluster of its own and repeats the windows of the
    stretches before it."""
    m = 2 * draw(st.integers(3, 8))
    unit = draw(st.sampled_from(("a", "ab")))
    pattern = (unit * m)[:m]
    stretches = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3 * m)), max_size=4))
    gaps = draw(st.lists(st.integers(1, m + 1), min_size=len(stretches), max_size=len(stretches)))
    text = "".join(
        (unit * (n + 2))[phase % len(unit) :][:n] + "N" * gap
        for (phase, n), gap in zip(stretches, gaps)
    )
    cuts = draw(st.lists(st.integers(0, len(text)), max_size=8))
    return pattern, text, cuts


@settings(max_examples=100, deadline=None)
@given(case=periodic_clusters())
@example(case=("ab" * 4, "ab" * 10 + "N" + "ab" * 10, [3, 11, 22]))  # one window back after a break
@example(case=("a" * 6, "a" * 20 + "N" * 7 + "a" * 6, list(range(34))))  # one-symbol chunks
@example(case=("a" * 6, "a" * 6 + "N" + "a" * 9, [4, 10]))  # the switch falls inside the second cluster
# windows of 4-6 units against B = 4: only the work charged to windows found
# in the memo makes the budget run out, at the 7th window
@example(case=("aabb", "abba" * 7, [5, 13]))
def test_window_checks_follow_the_switch(case):
    """On unary and period-2 text, however the chunks cut it, `_is_image`
    sees every candidate window the budget admits, repeats included and
    without masks, until the checks have spent B; from then on, with
    masks, only a window that is not among the last m distinct windows
    checked since, also across N breaks.  A window found there is charged
    its stored work, so the images and runs are the ones `reference_pieces`
    computes with every window checked, and the hits stay those of the
    unfiltered engine."""
    pattern, text, cuts = case
    expected = dp_search(pattern, text)
    reference = switch_checks(pattern, text)
    check = translocsearch._is_image
    for algo in ("dp", "dawg"):
        checks = []

        def recorded(pattern, window, masks=None):
            checks.append((window, masks is not None))
            return check(pattern, window, masks)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "_is_image", recorded)
            assert match_ends(pattern, iter(split(text, cuts)), algo) == expected, algo
        assert checks == reference, algo
    budget = translocsearch.CHECK_BUDGET
    assert stream(pattern, split(text, cuts)) == joined(reference_pieces(pattern, text, budget))


def test_window_memory_is_flat_in_cluster_length(monkeypatch):
    """One cluster of overlapping candidate windows, pairwise distinct: the
    pattern holds 8 of each of ACGT (m = 32), and the text is random
    half-blocks of 4 of each, so every window starting at a block boundary
    is a candidate and the next one starts 16 symbols on.  The checks
    decide every window, and the verdicts kept for the cluster hold at
    most m windows, so peak traced memory does not grow with the cluster:
    from 1e3 to 3e4 symbols by less than 8 KB."""
    rng = random.Random(18)
    pattern = "".join(rng.sample("ACGT" * 8, 32))
    monkeypatch.setattr(translocsearch, "SearchState", refuse_engine)

    def half_blocks(n: int):
        block = list("ACGT" * 4)
        for _ in range(n // 16):
            rng.shuffle(block)
            yield "".join(block)

    def peak(n: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            for _ in translocsearch._ends(pattern, half_blocks(n), "dawg"):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # warm-up
    small, large = peak(1_000), peak(30_000)
    assert large - small < 8 * 1024, (small, large)


def test_window_memory_is_flat_in_cluster_count(monkeypatch):
    """Clusters of pairwise distinct windows, one per random block of 8 of
    each of ACGT (m = 32), separated by N, under a budget that the first
    check or two spend: every window is checked after the switch, and the
    verdicts kept hold at most m windows however many clusters pass, so
    peak traced memory from 1e3 to 3e4 symbols grows by less than 8 KB."""
    monkeypatch.setattr(translocsearch, "CHECK_BUDGET", 0.01)
    rng = random.Random(31)
    pattern = "".join(rng.sample("ACGT" * 8, 32))
    checks = Counter()
    check = translocsearch._is_image

    def recorded(pattern, window, masks=None):
        checks[masks is not None] += 1
        return check(pattern, window, masks)

    monkeypatch.setattr(translocsearch, "_is_image", recorded)
    monkeypatch.setattr(translocsearch, "SearchState", refuse_engine)

    def blocks(n: int):
        block = list("ACGT" * 8)
        for _ in range(n // 33):
            rng.shuffle(block)
            yield "".join(block) + "N"

    def peak(n: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            for _ in translocsearch._ends(pattern, blocks(n), "dawg"):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # warm-up
    small = peak(1_000)
    checks.clear()
    large = peak(30_000)
    assert checks[True] + checks[False] == 30_000 // 33 and checks[False] < 10, checks
    assert large - small < 8 * 1024, (small, large)


@st.composite
def image_cases(draw):
    """(pattern, window): an image or another permutation of the pattern,
    over random, unary-heavy or 20-symbol alphabets."""
    symbols = draw(st.sampled_from(("ab", "abc", "aab", LETTERS)))
    pattern = draw(st.text(symbols, min_size=1, max_size=9))
    window = draw(st.one_of(
        swapped(pattern),
        swapped(pattern).flatmap(swapped),  # two swaps, which may overlap
        st.permutations(pattern).map("".join),
    ))
    return pattern, window


def unit_masks(way: str, pattern: str) -> dict[str, int] | None:
    """The ``masks`` argument of `_is_image` for each way of enumerating
    units: none for ``str.find``, the pattern's symbol masks for the other."""
    return symbol_masks(pattern) if way == "masks" else None


@pytest.mark.parametrize("way", ["find", "masks"])
@settings(max_examples=500, deadline=None)
@given(case=image_cases())
@example(case=("abc", "cba"))  # a permutation that is no image
@example(case=("a", "a"))  # m = 1
@example(case=("aaaaaaaa", "aaaaaaaa"))  # unary: every unit of every length fits
@example(case=("abababab", "babababa"))  # period 2
@example(case=("abcdef", "efcdab"))  # no image: ab and ef cannot cross cd
def test_image_check_agrees_with_enumeration(case, way):
    pattern, window = case
    image, work = translocsearch._is_image(pattern, window, unit_masks(way, pattern))
    assert image == (tuple(window) in enumerate_images(pattern))
    assert work > 0


@pytest.mark.parametrize("way", ["find", "masks"])
@pytest.mark.parametrize("symbols, max_m", [("ab", 8), ("abc", 6)])
def test_image_check_agrees_with_enumeration_on_every_window(symbols, max_m, way):
    """Every pattern over the alphabet up to ``max_m`` symbols, against
    every window with its symbol counts: 17 576 binary and 40 572 ternary
    pairs."""
    pairs = 0
    for m in range(1, max_m + 1):
        by_counts: dict[str, list[str]] = {}
        for letters in product(symbols, repeat=m):
            word = "".join(letters)
            by_counts.setdefault("".join(sorted(word)), []).append(word)
        for words in by_counts.values():
            for pattern in words:
                images = {"".join(image) for image in enumerate_images(pattern)}
                masks = unit_masks(way, pattern)
                for window in words:
                    assert translocsearch._is_image(pattern, window, masks)[0] == (
                        window in images
                    ), (pattern, window)
                pairs += len(words)
    assert pairs == {"ab": 17_576, "abc": 40_572}[symbols]


@st.composite
def unit_cases(draw):
    """(pattern, window): a unary, period-2, A^(m-1)B or random pattern of
    up to 64 symbols, the random ones also over a symbol beyond latin-1
    and a lone surrogate; the window is the pattern, an image of it or a
    shuffle of it, with one symbol replaced by one from FOREIGN at times."""
    m = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("unary", "period-2", "A^(m-1)B", "random")))
    if kind == "random":
        symbols = draw(st.sampled_from(("ab", "a\u20ac\udc80")))
        pattern = draw(st.text(symbols, min_size=m, max_size=m))
    else:
        pattern = {"unary": "a" * m, "period-2": ("ab" * m)[:m], "A^(m-1)B": "a" * (m - 1) + "b"}[kind]
    window = draw(st.one_of(
        st.just(pattern),
        swapped(pattern),
        swapped(pattern).flatmap(swapped),
        st.permutations(pattern).map("".join),
    ))
    if draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        window = window[:i] + draw(st.sampled_from(FOREIGN)) + window[i + 1 :]
    return pattern, window


@settings(max_examples=500, deadline=None)
@given(case=unit_cases())
@example(case=("a" * 64, "a" * 64))  # unary: every unit of every length fits
@example(case=("ab" * 32, "ba" * 32))  # period 2
@example(case=("a" * 63 + "b", "b" + "a" * 63))  # A^(m-1)B: one unit reaches m
@example(case=("a" * 63 + "b", "a" * 31 + "N" + "a" * 31 + "b"))  # a foreign symbol
@example(case=("ab\u20ac\udc80" * 8, "b\u20ac\udc80a" * 8))  # beyond latin-1, a lone surrogate
@example(case=("ab" * 16, "ba" * 14 + "bbaa"))  # no image: prefix 0's units pause, then resume
@example(case=("baabababa", "bababbaaa"))  # an image found after a pause and a resume
def test_both_unit_enumerations_give_the_same_verdict_and_work(case):
    """`_is_image` returns the same verdict and the same work whether it
    finds units with ``str.find`` or takes them from the pattern's symbol
    masks, so the check budget decides the same either way."""
    pattern, window = case
    masked = translocsearch._is_image(pattern, window, symbol_masks(pattern))
    assert masked == translocsearch._is_image(pattern, window)


@pytest.mark.parametrize("way", ["find", "masks"])
@pytest.mark.parametrize("m", [32, 64, 128])
def test_a_rotation_of_a_unary_pattern_with_one_other_symbol_costs_m_plus_1(m, way):
    """Copies first: on A^i B A^(m-1-i) the search copies the pattern up to
    i, where one unit, B written before the A^(m-1-i) left of the pattern,
    reaches m.  So every rotation of A^(m-1)B is found in at most m + 1
    units of work, whatever the prefixes that unit passes over."""
    pattern = "a" * (m - 1) + "b"
    masks = unit_masks(way, pattern)
    for i in range(m):
        image, work = translocsearch._is_image(pattern, pattern[i:] + pattern[:i], masks)
        assert image and work <= m + 1, (i, work)


@st.composite
def transposed_images(draw):
    """(pattern, window): an image of a pattern of 2-12 symbols with two
    unequal symbols exchanged, which may leave it an image or not."""
    pattern = draw(st.text(draw(st.sampled_from(("ab", "abc", "aab", "ACGT"))), min_size=2, max_size=12))
    window = list(draw(swapped(pattern)))
    pairs = [(i, j) for j in range(len(window)) for i in range(j) if window[i] != window[j]]
    if pairs:
        i, j = draw(st.sampled_from(pairs))
        window[i], window[j] = window[j], window[i]
    return pattern, "".join(window)


@st.composite
def late_defects(draw):
    """(pattern, window): a pattern of 7-12 symbols, one symbol repeated
    and then 1-3 of another, and a window that repeats the first symbol a
    few times less before a shuffle of the rest.  The forward search
    reaches many prefixes of such a window before it fails, so in about
    one case in eight its work passes 3m/2 and the reversed search takes
    turns with it."""
    x, y = draw(st.sampled_from(("ab", "ba", "AC")))
    m, r = draw(st.integers(7, 12)), draw(st.integers(1, 3))
    pattern = x * (m - r) + y * r
    j = draw(st.integers(max(0, m - r - 5), m - r - 1))
    return pattern, x * j + "".join(draw(st.permutations(pattern[j:])))


@pytest.mark.parametrize("way", ["find", "masks"])
@settings(max_examples=300, deadline=None)
@given(case=st.one_of(transposed_images(), late_defects()))
@example(case=("baaabbba", "abbbabaa"))  # an image only a resumed prefix reaches
@example(case=("aaaaaabb", "aaaababa"))  # 19 units: rejected after the reversed search's turn
@example(case=("aaaaaaaabb", "aaaaabaaba"))  # 24 units
def test_transposed_images_get_the_oracle_verdict(case, way):
    """Near misses, where a search that leaves a prefix's units to reach
    a longer prefix first is most likely to stop short or overshoot, and
    late defects, where the two searches take turns: the verdict equals
    the naive oracle's.  Reversing keeps images: a factor pair zw written
    as wz reads backwards as rev(w) rev(z) written as rev(z) rev(w).  So
    the verdict on both read backwards is the same."""
    pattern, window = case
    image = tuple(window) in enumerate_images(pattern)
    for p, w in ((pattern, window), (pattern[::-1], window[::-1])):
        assert translocsearch._is_image(p, w, unit_masks(way, p))[0] == image, (p, w)


@pytest.mark.parametrize("way", ["find", "masks"])
@pytest.mark.parametrize("m", [16, 32, 64, 128])
def test_a_defect_near_the_end_of_a_period_2_window_is_found_from_that_end(m, way):
    """(ba)^(m/2-2) bbaa against (ab)^(m/2): the forward search would try
    every prefix before the defect, 14 911 units at m = 64.  It runs
    alone until its work passes 3m/2, at 3m/2 + 1, and the reversed
    search, aabb (ab)^(m/2-2) against (ba)^(m/2), then rejects the window
    in one unit.  The check reports the work of both, 3m/2 + 2."""
    pattern, window = "ab" * (m // 2), "ba" * (m // 2 - 2) + "bbaa"
    masks = unit_masks(way, pattern)
    assert translocsearch._is_image(pattern, window, masks) == (False, 3 * m // 2 + 2)


@pytest.mark.parametrize("m", [32, 64])
def test_period_2_text_with_a_defect_in_each_block_runs_no_engine(m, monkeypatch):
    """8 KiB of (ba)^(m/2-2) bbaa ba blocks against (ab)^(m/2), in 2 KiB
    chunks, where each window holds one defect, at each distance from its
    ends in turn.  A window is checked from both ends at once, so a defect
    near either end is found in a few units, and the checks of each
    cluster stay within its budget: `match_ends` constructs no engine."""
    pattern = "AB" * (m // 2)
    block = "BA" * (m // 2 - 2) + "BBAA" + "BA"
    text = (block * (8192 // len(block) + 1))[:8192]
    expected = dp_search(pattern, text)
    monkeypatch.setattr(translocsearch, "DpColumns", refuse_engine)
    monkeypatch.setattr(translocsearch, "SearchState", refuse_engine)
    chunks = [text[i : i + 2048] for i in range(0, len(text), 2048)]
    for algo in ("dp", "dawg"):
        assert match_ends(pattern, iter(chunks), algo) == expected, algo


def spied_checks(mp: pytest.MonkeyPatch, pattern: str, chunks, check=None):
    """The hit ends `_ends` yields for ``chunks`` with `dawg`, and (window,
    result, masks) of each check it makes, with ``check`` in place of
    `_is_image` if given."""
    check = check or translocsearch._is_image
    calls = []

    def recorded(pattern, window, *masks):
        result = check(pattern, window, *masks)
        calls.append((window, result, *masks))
        return result

    mp.setattr(translocsearch, "_is_image", recorded)
    return list(translocsearch._ends(pattern, chunks, "dawg")), calls


def test_a_read_whose_checks_stay_below_the_budget_gets_no_masks(monkeypatch):
    """A short read like those of `many-probes`: 150 DNA symbols and
    one image of a 20-symbol pattern, its one candidate window.  Its
    check spends less than B = CHECK_BUDGET * m^2, so `_is_image` gets no
    masks and none are built."""
    rng = random.Random(30)
    pattern = "".join(rng.choice("ACGT") for _ in range(20))
    image = pattern[:4] + pattern[9:13] + pattern[4:9] + pattern[13:]
    read = "".join(rng.choice("ACG") for _ in range(65)) + image + "T" * 65
    builds = Counter()
    count_calls(monkeypatch, builds, translocsearch, "symbol_masks", "masks")
    items, calls = spied_checks(monkeypatch, pattern, (read,))
    assert items == [85]
    assert [(window, masks) for window, _, masks in calls] == [(image, None)]
    assert calls[0][1][1] < translocsearch.CHECK_BUDGET * 20 * 20
    assert builds["masks"] == 0


def test_checks_get_masks_once_the_search_has_spent_one_window_budget(monkeypatch):
    """Period-2 text cut by N into stretches of 32-95 symbols, each a
    cluster that checks its two distinct windows anew: a check gets the
    pattern's symbol masks exactly when the checks before it have spent
    B = CHECK_BUDGET * m^2 or more, and all of them get the one build."""
    pattern, m = "ab" * 16, 32
    rng = random.Random(26)
    text = "N".join(("ab" * 50)[rng.randrange(2) :][: rng.randrange(m, 3 * m)] for _ in range(12))
    builds = Counter()
    count_calls(monkeypatch, builds, translocsearch, "symbol_masks", "masks")
    _, calls = spied_checks(monkeypatch, pattern, split(text, [rng.randrange(len(text)) for _ in range(8)]))
    budget, spent = translocsearch.CHECK_BUDGET * m * m, 0
    for _, (_, work), masks in calls:
        assert (masks is not None) == (spent >= budget), spent
        spent += work
    assert calls[0][2] is None and calls[-1][2] == symbol_masks(pattern)
    assert len({id(masks) for _, _, masks in calls if masks is not None}) == builds["masks"] == 1


def test_filter_stream_does_not_depend_on_the_unit_enumeration():
    """On 200 seeded chunked cases, unary or period-2 text with point
    mutations or shuffled DNA with images planted, m = 4-40, `_ends`
    yields the hits and makes the checks it made before the masks
    existed, when every check found its units with ``str.find``; in at
    least a third of the cases some check gets masks."""
    find = translocsearch._is_image
    rng = random.Random(27)
    masked = 0
    for _ in range(200):
        m = rng.randint(4, 40)
        if rng.random() < 0.5:
            unit = rng.choice(("A", "AC", "GT"))
            pattern = (unit * m)[:m]
            text = list((unit * 301)[rng.randrange(len(unit)) :][:300])
            for _ in range(rng.randint(0, 3)):
                text[rng.randrange(300)] = rng.choice("ACGT")
            text = "".join(text)
        else:
            pattern = "".join(rng.choice("ACGT") for _ in range(m))
            pieces = [pattern[i:] + pattern[:i] for i in range(0, m, 3)]
            pieces += ["".join(rng.sample(pattern, m)) for _ in range(4)]
            rng.shuffle(pieces)
            text = "".join(pieces)
        chunks = split(text, [rng.randrange(len(text) + 1) for _ in range(rng.randint(0, 6))])
        with pytest.MonkeyPatch.context() as mp:
            items, calls = spied_checks(mp, pattern, iter(chunks))
        with pytest.MonkeyPatch.context() as mp:
            items_before, calls_before = spied_checks(
                mp, pattern, iter(chunks), lambda p, w, masks: find(p, w)
            )
        assert items == items_before, (pattern, text)
        assert [call[:2] for call in calls] == [call[:2] for call in calls_before], (pattern, text)
        masked += any(masks is not None for _, _, masks in calls)
    assert masked >= 200 // 3, masked


def test_text_without_a_candidate_window_runs_no_engine(monkeypatch):
    """No engine runs and no DAWG is built where the filter and the window
    checks decide every window: none passes the filter, or each one that
    does is checked on its own."""
    checked = ("ab" * 16, ["ab" * 50, "ab" * 50])  # period 2: cheap checks
    checked_ends = dp_search(checked[0], "".join(checked[1]))

    def refuse(*args):
        raise AssertionError("ran an engine where no window needs one")

    monkeypatch.setattr(SearchState, "step", refuse)
    monkeypatch.setattr(DpColumns, "push", refuse)
    monkeypatch.setattr(translocsearch, "build_dawg", refuse)
    text = "GATTAGA" * 1000  # every window lacks the pattern's C
    for algo in ("dp", "dawg"):
        assert match_ends("GATTACA", text, algo) == []
        assert match_ends("GATTACA", split(text, list(range(0, len(text), 60))), algo) == []
        assert match_ends(*checked, algo) == checked_ends


def test_naive_and_bench_bypass_the_filter(monkeypatch):
    """With a filter that passes nothing, `dp` and `dawg` find nothing,
    while the naive engine (the filter's independent check) and `bench`
    (criterion 8's unfiltered automaton) are unchanged."""
    text = EX2_Y * 3 + EX2_X[::-1]
    naive = match_ends(EX2_X, text, "naive")
    rows = bench_rows([16, 64], 3_000, 4, 2, 42)
    monkeypatch.setattr(translocsearch, "_count_marks", lambda *args: b"")
    assert naive and match_ends(EX2_X, text, "dp") == match_ends(EX2_X, text, "dawg") == []
    assert match_ends(EX2_X, text, "naive") == naive
    assert bench_rows([16, 64], 3_000, 4, 2, 42) == rows


# Output of the search below at the commit before streaming input (one
# string per record); every wrapping of the records must give it verbatim.
PATTERN = "gattaca"
RECORDS = (
    ("soft masked", "ccgattacaTTnnnnnATTGACAggGATTACAnNNacagattcc"),  # lowercase, N runs
    ("empty", ""),
    ("short", "GATta"),  # shorter than the pattern
    # matches ending at 64 and 80 cross the line breaks of widths 7 and 60
    ("straddle", "TC" * 28 + "T" + "GATTACA" + "CC" + "ACAGATT" + "gattacaT"),
    ("n-only", "N" * 12),
)
GOLDEN_TSV = (
    "soft\t9\nsoft\t23\nsoft\t32\nsoft\t42\n"
    "straddle\t64\nstraddle\t73\nstraddle\t80\n"
)
GOLDEN_JSON = (
    '[{"record": "soft", "end": 9}, {"record": "soft", "end": 23}, '
    '{"record": "soft", "end": 32}, {"record": "soft", "end": 42}, '
    '{"record": "straddle", "end": 64}, {"record": "straddle", "end": 73}, '
    '{"record": "straddle", "end": 80}]\n'
)


def fasta_text(width: int | None) -> str:
    """The records wrapped at ``width`` (None: one line each), with a blank
    line after every third sequence line."""
    out = []
    for rid, seq in RECORDS:
        out.append(f">{rid}")
        lines = [seq] if width is None else [seq[p : p + width] for p in range(0, len(seq), width)]
        for k, line in enumerate(lines, start=1):
            out.append(line)
            if k % 3 == 0:
                out.append("")
    return "\n".join(out) + "\n"


def run_search(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["search", *argv]) == 0
    return out.getvalue()


@pytest.mark.parametrize("width", [1, 7, 60, None])
def test_fasta_output_does_not_depend_on_line_width(tmp_path, monkeypatch, width):
    """Also with lines read in 3-character pieces, so headers and sequence
    lines span several pieces."""
    fasta = tmp_path / "records.fa"
    fasta.write_text(fasta_text(width))
    for chunk_chars in (cli.CHUNK_CHARS, 3):
        monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
        for algo in ENGINES:
            argv = ["--pattern", PATTERN, "--fasta", str(fasta), "--algo", algo]
            assert run_search(argv) == GOLDEN_TSV, (chunk_chars, algo)
            assert run_search([*argv, "--format", "json"]) == GOLDEN_JSON, (chunk_chars, algo)


def long_text() -> tuple[str, list[int]]:
    """70 000 symbols, read in many chunks: newlines inside (one ends the
    first chunk, a run fills a whole chunk), planted patterns across chunk
    boundaries and a trailing blank line.  Returns the text and the planted
    matches' ends."""
    size = cli.CHUNK_CHARS
    rng = random.Random(5)
    body = [rng.choice("ACGT") for _ in range(70_000)]
    for p in range(1_000, len(body), 9_000):
        body[p] = "\n"
    body[size - 1] = "\n"
    body[3 * size - 5 : 4 * size + 5] = "\n" * (size + 10)
    planted = []
    for start in (2 * size - 3, 4 * size + 5, len(body) - 7):
        body[start : start + 7] = "GATTACA"
        planted.append(start + 7)
    return "".join(body) + "\n\n", planted


def test_long_text_file_matches_whole_text(tmp_path, monkeypatch):
    content, planted = long_text()
    path = tmp_path / "long.txt"
    path.write_text(content)
    for algo in ENGINES:
        ends = match_ends("GATTACA", content.rstrip("\n"), algo)
        assert set(planted) <= set(ends)
        expected = "".join(f"{path}\t{end}\n" for end in ends)
        argv = ["--pattern", "GATTACA", "--algo", algo]
        assert run_search([*argv, "--text-file", str(path)]) == expected, algo
        monkeypatch.setattr("sys.stdin", stdin_of(content))
        assert run_search([*argv, "--text-file", "-"]) == expected.replace(str(path), "stdin")


def test_gzipped_input_gives_the_plain_output(tmp_path):
    content, _ = long_text()
    sources = {"--fasta": fasta_text(60), "--text-file": content}
    for source, text in sources.items():
        plain = tmp_path / f"{source[2:]}.txt"
        plain.write_text(text)
        packed = tmp_path / f"{source[2:]}.txt.gz"
        packed.write_bytes(gzip.compress(text.encode()))
        for algo in ("dawg", "dp"):
            argv = ["--pattern", PATTERN.upper(), "--algo", algo, source]
            expected = run_search([*argv, str(plain)]).replace(str(plain), str(packed))
            assert expected and run_search([*argv, str(packed)]) == expected, (source, algo)


@pytest.mark.parametrize("source", ["--fasta", "--text-file"])
def test_truncated_gzip_exits_2_with_a_message(tmp_path, capsys, source):
    packed = gzip.compress(fasta_text(60).encode())
    path = tmp_path / "cut.fa.gz"
    path.write_bytes(packed[: len(packed) // 2])
    assert cli.main(["search", "--pattern", PATTERN, source, str(path)]) == 2
    assert capsys.readouterr().err.startswith("utd: error: Compressed file ended")


def test_multibyte_symbols_across_read_boundaries(tmp_path, monkeypatch):
    """Files are read a block of bytes at a time, so a read may end inside a
    two-, three- or four-byte symbol, and in 3-byte reads one may hold no
    whole symbol; the output is the same at every block size."""
    rng = random.Random(11)
    seq = "".join(rng.choice("Aé€𝄞") for _ in range(3_000))
    pattern = seq[1_000:1_008]
    fasta = tmp_path / "utf8.fa"
    lines = (seq[p : p + 60] + "\n" for p in range(0, len(seq), 60))
    fasta.write_text(">u ü€𝄞\n" + "".join(lines), encoding="utf-8")
    text = tmp_path / "utf8.txt"
    text.write_text(seq + "\n", encoding="utf-8")
    for algo in ENGINES:
        argv = ["--pattern", pattern, "--algo", algo]
        expected = run_search([*argv, "--text", seq])
        assert expected, algo
        for chunk_chars in (cli.CHUNK_CHARS, 3):
            monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
            from_fasta = run_search([*argv, "--fasta", str(fasta)])
            assert from_fasta == expected.replace("stdin\t", "u\t"), (chunk_chars, algo)
            from_file = run_search([*argv, "--text-file", str(text)])
            assert from_file == expected.replace("stdin\t", f"{text}\t"), (chunk_chars, algo)


@pytest.mark.parametrize("source", ["--fasta", "--text-file"])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82"], ids=["invalid", "cut"])
def test_invalid_utf8_exits_2_with_a_message(tmp_path, capsys, source, bad):
    path = tmp_path / "bad.fa"
    path.write_bytes(b">r\nGATTACA\n" + bad)
    assert cli.main(["search", "--pattern", "GATTACA", source, str(path)]) == 2
    assert capsys.readouterr().err.startswith("utd: error: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "content",
    ["", "\n", "\n" * 9, "ab" + "\n" * 9 + "cd\n\n", "abcdefghij", "a\nb\nc"],
)
def test_text_file_trailing_newlines_end_no_match(tmp_path, monkeypatch, content):
    """A text file or stdin is searched as it is, newlines included, here in
    3-character chunks; as a pattern holds no newline, the output equals a
    search of the text without its trailing newlines."""
    monkeypatch.setattr(cli, "CHUNK_CHARS", 3)
    path = tmp_path / "text.txt"
    path.write_text(content)
    for pattern in ("A", "C", "AB", "BA", "CD", "ABCDE", "HIJ"):
        for algo in ENGINES:
            argv = ["--pattern", pattern, "--algo", algo]
            expected = run_search([*argv, "--text", content.rstrip("\n")])
            monkeypatch.setattr("sys.stdin", stdin_of(content))
            assert run_search([*argv, "--text-file", "-"]) == expected, (pattern, algo)
            from_file = run_search([*argv, "--text-file", str(path)])
            assert from_file == expected.replace("stdin\t", f"{path}\t"), (pattern, algo)


def test_runs_across_fasta_line_pieces(tmp_path, monkeypatch):
    """One record whose candidate windows exhaust the check budget, so an
    engine steps over runs that span many sequence lines; every engine and
    line width gives the same 27 hits, and the runs do not depend on the
    width.  The pattern is short enough for `naive`, a unary one with a
    period-2 tail, and the rotations of A^10 BB check slowly enough
    against it to exhaust a budget of m^2/10 per window."""
    monkeypatch.setattr(translocsearch, "CHECK_BUDGET", 0.1)
    pattern = "A" * 8 + "BABA"
    seq = ("A" * 10 + "BB") * 6 + "G" + ("A" * 10 + "BB") * 5
    runs = []  # per width, the symbols each `dp` engine steps over

    class Spy(DpColumns):
        def __init__(self, m):
            super().__init__(m)
            runs[-1].append(0)

        def push(self, eq_mask):
            runs[-1][-1] += 1
            return super().push(eq_mask)

    monkeypatch.setattr(translocsearch, "DpColumns", Spy)
    outputs = set()
    for width in (1, 5, 60):
        fasta = tmp_path / f"{width}.fa"
        lines = (seq[p : p + width] + "\n" for p in range(0, len(seq), width))
        fasta.write_text(">r\n" + "".join(lines))
        runs.append([])
        for algo in ENGINES:
            argv = ["--pattern", pattern, "--fasta", str(fasta), "--algo", algo]
            outputs.add(run_search(argv))
    assert len(outputs) == 1 and outputs.pop().count("\n") == 27
    assert runs[0] and runs[0] == runs[1] == runs[2] and max(runs[0]) > 60, runs


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("algo", ["dp", "dawg"])
def test_a_hit_is_reported_before_the_next_chunk_is_read(algo, runs, monkeypatch):
    """`_ends` yields each hit as the scan finds it: after the chunk that
    holds the hit's last symbol is read, and before the next one is.
    Each of ``runs`` repeats holds a lone image of the pattern, which is
    checked on its own, and a stretch whose clusters exhaust the check
    budget, one engine run cut across two chunks: period-2 windows at
    m = 64 with a defect every 48 symbols.  Chunks without a candidate
    window follow.  Each run constructs one engine."""
    pattern = "AB" * 32
    defects = ("BA" * 22 + "BBAA") * 3
    chunks = []
    for _ in range(runs):
        chunks += ["GG" + "BA" * 32, "GG", defects, defects, "G" * 20, "G" * 20]
    bounds = list(accumulate(map(len, chunks)))  # the end of each chunk
    images = [bound for bound, chunk in zip(bounds, chunks) if chunk.startswith("GGB")]
    events = []

    def read():
        for i, chunk in enumerate(chunks):
            events.append(("read", i))
            yield chunk

    calls = Counter()
    count_calls(monkeypatch, calls, translocsearch, {"dp": "DpColumns", "dawg": "SearchState"}[algo], "runs")
    for end in translocsearch._ends(pattern, read(), algo):
        events.append(("hit", end))
    hits = [end for kind, end in events if kind == "hit"]
    assert hits == dp_search(pattern, "".join(chunks))
    assert set(images) < set(hits) and calls["runs"] == runs
    chunk = None  # the last chunk read
    for kind, value in events:
        if kind == "read":
            chunk = value
        else:
            assert chunk == bisect_left(bounds, value), (value, events)


def test_search_encodes_nothing(tmp_path, monkeypatch):
    """A search whose runs start hundreds of pieces, one per line of a FASTA
    file at line width 1, never calls `encode` or `infer_alphabet`: the
    engines read the runs' symbols as they are."""
    pattern = "AB" * 32
    defects = "BA" * 22 + "BBAA"  # period-2 windows at m = 64 that exhaust the check budget
    seq = (defects * 6 + "G" + defects * 5).lower()
    fasta = tmp_path / "width-1.fa"
    fasta.write_text(">r\n" + "".join(symbol + "\n" for symbol in seq))
    encoded = []

    def spying(real):
        def spy(raw, *alphabet):
            encoded.append(raw)
            return real(raw, *alphabet)
        return spy

    for name in ("encode", "infer_alphabet"):
        spy = spying(getattr(translocsearch, name))
        monkeypatch.setattr(translocsearch, name, spy)
        monkeypatch.setattr(translocsearch.seqcore, name, spy)
    calls = Counter()
    count_calls(monkeypatch, calls, translocsearch, "DpColumns", "dp")
    count_calls(monkeypatch, calls, translocsearch, "SearchState", "dawg")
    for algo in ("dp", "dawg"):
        encoded.clear()
        out = run_search(["--pattern", pattern, "--fasta", str(fasta), "--algo", algo])
        assert out.count("\n") == 200 and calls[algo] > 1, (algo, calls)
        assert encoded == [], algo


@pytest.mark.parametrize("fmt, stdout", [("tsv", "r1\t7\nr2\t7\n"), ("json", "")])
def test_malformed_record_mid_file_keeps_earlier_tsv(tmp_path, fmt, stdout):
    """A bad third header ends the search with exit code 2 and a message.
    ResourceWarnings are errors here, so a file left open would print a
    report to stderr."""
    fasta = tmp_path / "bad.fa"
    fasta.write_text(">r1\nGATTACA\n>r2\nGATTACA\n>\nGATTACA\n")
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "translocsearch.cli",
         "search", "--pattern", "GATTACA", "--fasta", str(fasta), "--format", fmt],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, stdout, "utd: error: empty FASTA header\n"
    )


def test_search_memory_is_flat_in_text_length(tmp_path):
    """Criterion 9 through the CLI: peak traced memory of `utd search` may
    not grow by 64 KB from a 1e3-symbol to a 1e5-symbol input.  Most text
    symbols are N, outside the pattern's alphabet, to keep the traced runs
    short (tracemalloc slows the engines' work per symbol about 30x); what
    grows with the text is what the input path holds, whatever the symbols."""
    rng = random.Random(20_240_009)
    pattern = "".join(rng.choice("ACGT") for _ in range(64))
    inputs = {}
    for n in (1_000, 100_000):
        seq = "".join(rng.choice("ACGT" + "N" * 12) for _ in range(n))
        fasta = tmp_path / f"{n}.fa"
        fasta.write_text(">r\n" + "".join(seq[p : p + 60] + "\n" for p in range(0, n, 60)))
        unwrapped = tmp_path / f"{n}-unwrapped.fa"
        unwrapped.write_text(f">r\n{seq}\n")
        text = tmp_path / f"{n}.txt"
        text.write_text(seq + "\n")
        inputs[n] = [("--fasta", fasta), ("--fasta", unwrapped), ("--text-file", text)]

    def peak(argv: list[str]) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            run_search(argv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for (source, short), (_, long) in zip(inputs[1_000], inputs[100_000]):
        for algo in ("dawg", "dp"):
            argv = ["--pattern", pattern, "--algo", algo, source]
            run_search([*argv, str(short)])  # warm-up
            small = peak([*argv, str(short)])
            large = peak([*argv, str(long)])
            assert large - small < 64 * 1024, (long.name, algo, small, large)


def test_tsv_search_memory_is_flat_in_hits(tmp_path):
    """`utd search` writes each TSV line as its hit is found and keeps
    none.  On 1e4 and 1e5 A's with pattern AAAA, where every position from
    the 4th on is a hit, `cmd_search` into a sink that keeps no output
    peaks below 64 KB of traced memory, and grows by less than 8 KB from
    1e4 to 1e5 hits.  A record ID is written as it is, whatever it holds."""
    class Sink:
        lines = 0

        def write(self, text: str) -> None:
            self.lines += text.count("\n")

    def peak(n: int, algo: str) -> tuple[int, int]:
        argv = ["search", "--pattern", "AAAA", "--text-file", str(paths[n]), "--algo", algo]
        args, sink = cli.build_parser().parse_args(argv), Sink()
        gc.collect()
        tracemalloc.start()
        try:
            assert cli.cmd_search(args, sink) == 0
            return sink.lines, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    paths = {}
    for n in (100, 10_000, 100_000):
        paths[n] = tmp_path / f"{n}.txt"
        paths[n].write_text("A" * n)
    for algo in ("dp", "dawg"):
        peak(100, algo)  # warm-up
        (few, small), (many, large) = peak(10_000, algo), peak(100_000, algo)
        assert (few, many) == (10_000 - 3, 100_000 - 3), algo
        assert large < 64 * 1024 and large - small < 8 * 1024, (algo, small, large)
    fasta = tmp_path / "ids.fa"
    fasta.write_text(">r{}%s{0}%d x\nGATTACA\n")
    for algo in ENGINES:
        assert run_search(["--pattern", "GATTACA", "--fasta", str(fasta), "--algo", algo]) == "r{}%s{0}%d\t7\n"
