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
from collections import Counter
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import translocsearch
from translocsearch import cli, match_ends
from translocsearch.automaton import SearchState, automaton_search
from translocsearch.cli import bench_rows
from translocsearch.dp import DpColumns, dp_search
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
    counting changes no hit."""
    ends, counter = automaton_search(pattern, text)
    assert counter == reference_counts(pattern, text)
    uncounted, none = automaton_search(pattern, iter(text), count=False)
    assert none is None
    assert ends == uncounted == dp_search(pattern, text)


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
    assert automaton_search(pattern, text, count=False)[0] == expected
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


def stream(pattern: str, chunks: list[str]) -> list[tuple[int | None, str | int]]:
    """`_pieces` on ``chunks``, without its (None, None) run ends, whose
    place depends on where the chunks are cut.  Each of them must end the
    open run: it follows a piece of that run, and no piece of it follows."""
    out, run, last = [], None, None  # the open run's offset, the last run's
    for start, piece in translocsearch._pieces(pattern, iter(chunks)):
        if piece is None:
            assert start is None and run is not None, out
            run = None
            continue
        if start is not None:
            assert start == run or last is None or start > last, out
            run = last = start
        out.append((start, piece))
    return out


def assert_stream(pattern: str, text: str, cuts: list[int]):
    """Under every budget in BUDGETS, `_pieces` on the chunked text yields
    the stream `reference_pieces` computes from the whole text."""
    for budget in BUDGETS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "CHECK_BUDGET", budget)
            got = stream(pattern, split(text, cuts))
        assert got == reference_pieces(pattern, text, budget), budget


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
    assert stream(pattern, split(text, cuts)) == reference_pieces(pattern, text, 0)


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
        pieces = list(translocsearch._pieces(pattern, iter(chunks)))
    finally:
        sys.settrace(tracer)
    assert pieces == reference_pieces(pattern, text, 0) == []
    assert events < 100 * len(chunks), events


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
    is left to an engine."""
    pattern, text, cuts = case
    for budget in BUDGETS:
        union, runs = candidate_symbols(pattern, text, budget)
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "CHECK_BUDGET", budget)
            count_calls(mp, calls, DpColumns, "push", "dp")
            count_calls(mp, calls, SearchState, "step", "dawg")
            count_calls(mp, calls, translocsearch, "dp_search", "dp runs")
            count_calls(mp, calls, translocsearch, "automaton_search", "dawg runs")
            count_calls(mp, calls, translocsearch, "build_dawg", "build")
            for algo in ("dp", "dawg"):
                match_ends(pattern, iter(split(text, cuts)), algo)
        assert calls["dp"] == calls["dawg"] == union, budget
        assert calls["dp runs"] == calls["dawg runs"] == runs, budget
        assert calls["build"] == (union > 0), budget


@pytest.mark.parametrize("m", [32, 64])
@pytest.mark.parametrize("kind", ["unary", "period-2", "A^(m-1)B"])
def test_worst_case_text_keeps_check_work_within_the_budget(m, kind):
    """Texts where every window is a candidate, all of one cluster.  Its
    check work stays below its checked windows' count times the budget plus
    the work of the last check.  Unary and period-2 windows are cheap to
    check, so no engine runs; A^(m-1)B windows exhaust the budget, and one
    engine run covers the rest."""
    pattern = {"unary": "a" * m, "period-2": "ab" * (m // 2), "A^(m-1)B": "a" * (m - 1) + "b"}[kind]
    text = (pattern * 10)[1 : 5 * m + 1]
    rng = random.Random(m)
    cuts = [rng.randrange(len(text) + 1) for _ in range(6)]
    expected = dp_search(pattern, text)
    budget = translocsearch.CHECK_BUDGET * m * m
    for algo in ("dp", "dawg"):
        works, windows, calls = [], [], Counter()
        check = translocsearch._is_image

        def recorded(pattern, window):
            image, work = check(pattern, window)
            works.append(work)
            windows.append(window)
            return image, work

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "_is_image", recorded)
            count_calls(mp, calls, translocsearch, "dp_search", "dp")
            count_calls(mp, calls, translocsearch, "automaton_search", "dawg")
            assert match_ends(pattern, iter(split(text, cuts)), algo) == expected, algo
        assert windows == [text[k : k + m] for k in range(len(windows))]
        assert sum(works) - works[-1] < len(works) * budget
        if calls[algo]:
            assert sum(works) >= (len(works) + 1) * budget  # the budget ran out
        assert calls[algo] == {"unary": 0, "period-2": 0, "A^(m-1)B": 1}[kind]


def first_in_cluster(pattern: str, text: str) -> list[str]:
    """Reference: the windows with the pattern's symbol counts, each taken
    where it first occurs in its cluster of overlapping ones, in text
    order."""
    m, counts = len(pattern), Counter(pattern)
    first, last = [], -m
    for k in range(len(text) - m + 1):
        window = text[k : k + m]
        if Counter(window) != counts:
            continue
        if k >= last + m:
            seen = set()
        last = k
        if window not in seen:
            seen.add(window)
            first.append(window)
    return first


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
def test_window_checks_see_each_window_of_a_cluster_once(case):
    """On unary and period-2 text, however the chunks cut it, `_is_image`
    sees each distinct candidate window of a cluster once, where it first
    occurs, and a window that comes back after a cluster break once more;
    the hits stay those of the unfiltered engine."""
    pattern, text, cuts = case
    expected = dp_search(pattern, text)
    check = translocsearch._is_image
    for algo in ("dp", "dawg"):
        windows = []

        def recorded(pattern, window):
            windows.append(window)
            return check(pattern, window)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "_is_image", recorded)
            assert match_ends(pattern, iter(split(text, cuts)), algo) == expected, algo
        assert windows == first_in_cluster(pattern, text), algo


def test_window_memory_is_flat_in_cluster_length():
    """One cluster of overlapping candidate windows, pairwise distinct: the
    pattern holds 8 of each of ACGT (m = 32), and the text is random
    half-blocks of 4 of each, so every window starting at a block boundary
    is a candidate and the next one starts 16 symbols on.  The checks
    decide every window, and the verdicts kept for the cluster hold at
    most m windows, so peak traced memory does not grow with the cluster:
    from 1e3 to 3e4 symbols by less than 8 KB."""
    rng = random.Random(18)
    pattern = "".join(rng.sample("ACGT" * 8, 32))

    def half_blocks(n: int):
        block = list("ACGT" * 4)
        for _ in range(n // 16):
            rng.shuffle(block)
            yield "".join(block)

    def peak(n: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            pieces = translocsearch._pieces(pattern, half_blocks(n))
            assert all(start is None for start, _ in pieces)  # no engine run
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1_000)  # warm-up
    small, large = peak(1_000), peak(30_000)
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


@settings(max_examples=500, deadline=None)
@given(case=image_cases())
@example(case=("abc", "cba"))  # a permutation that is no image
@example(case=("a", "a"))  # m = 1
@example(case=("aaaaaaaa", "aaaaaaaa"))  # unary: every unit of every length fits
@example(case=("abababab", "babababa"))  # period 2
@example(case=("abcdef", "efcdab"))  # no image: ab and ef cannot cross cd
def test_image_check_agrees_with_enumeration(case):
    pattern, window = case
    image, work = translocsearch._is_image(pattern, window)
    assert image == (tuple(window) in enumerate_images(pattern))
    assert work > 0


@pytest.mark.parametrize("symbols, max_m", [("ab", 8), ("abc", 6)])
def test_image_check_agrees_with_enumeration_on_every_window(symbols, max_m):
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
                for window in words:
                    assert translocsearch._is_image(pattern, window)[0] == (window in images), (
                        pattern, window
                    )
                pairs += len(words)
    assert pairs == {"ab": 17_576, "abc": 40_572}[symbols]


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
    monkeypatch.setattr(translocsearch, "_pieces", lambda *args: iter(()))
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
    line width gives the same 110 hits, and the runs do not depend on the
    width."""
    seq = ("A" * 11 + "C") * 6 + "G" + ("A" * 11 + "C") * 5
    real = translocsearch.dp_search
    runs = []

    def spy(pattern, text):
        symbols = list(text)
        runs[-1].append(len(symbols))
        return real(pattern, symbols)

    monkeypatch.setattr(translocsearch, "dp_search", spy)
    outputs = set()
    for width in (1, 5, 60):
        fasta = tmp_path / f"{width}.fa"
        lines = (seq[p : p + width] + "\n" for p in range(0, len(seq), width))
        fasta.write_text(">r\n" + "".join(lines))
        runs.append([])
        for algo in ENGINES:
            argv = ["--pattern", "A" * 11 + "C", "--fasta", str(fasta), "--algo", algo]
            outputs.add(run_search(argv))
    assert len(outputs) == 1 and outputs.pop().count("\n") == 110
    assert runs[0] and runs[0] == runs[1] == runs[2] and max(runs[0]) > 60, runs


def test_a_run_ends_once_the_scan_passes_it(monkeypatch):
    """A run whose clusters exhaust the check budget, then chunks without a
    candidate window: `_pieces` ends the run at the end of the first of
    them, so its engine returns, and its state is freed, before the second
    is read.  Each run that ends before the text does is ended once."""
    pattern = "A" * 11 + "C"
    events = []

    def chunks(runs: int):
        for _ in range(runs):
            yield pattern * 6
            for i in range(4):
                events.append(f"read {i}")
                yield "G" * 20

    def returning(name):
        real = getattr(translocsearch, name)

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            events.append("returned")
            return result
        monkeypatch.setattr(translocsearch, name, spy)

    returning("dp_search")
    returning("automaton_search")
    expected = dp_search(pattern, "".join(chunks(1)))
    for algo in ("dp", "dawg"):
        events.clear()
        assert match_ends(pattern, chunks(1), algo) == expected, algo
        assert events == ["read 0", "returned", "read 1", "read 2", "read 3"], algo

    def run_ends(text: list[str]) -> int:
        return list(translocsearch._pieces(pattern, iter(text))).count((None, None))

    for runs in (1, 3):
        text = list(chunks(runs))
        starts = {start for start, _ in translocsearch._pieces(pattern, iter(text))}
        assert len(starts - {None}) == runs
        assert run_ends(text) == run_ends([*text, pattern]) == runs  # an image after them
        assert run_ends(text[:-4]) == runs - 1  # the last run ends with the text


def test_search_encodes_nothing(tmp_path, monkeypatch):
    """A search whose runs start hundreds of pieces, one per line of a FASTA
    file at line width 1, never calls `encode` or `infer_alphabet`: the
    engines read the runs' symbols as they are."""
    pattern = "A" * 11 + "C"
    seq = (pattern * 6 + "G" + pattern * 5).lower()
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
    count_calls(monkeypatch, calls, translocsearch, "dp_search", "dp")
    count_calls(monkeypatch, calls, translocsearch, "automaton_search", "dawg")
    for algo in ("dp", "dawg"):
        encoded.clear()
        out = run_search(["--pattern", pattern, "--fasta", str(fasta), "--algo", algo])
        assert out.count("\n") == 110 and calls[algo] > 1, (algo, calls)
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
