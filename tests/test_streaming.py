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
from translocsearch.seqcore import encode, infer_alphabet

from helpers import EX2_X, EX2_Y, LETTERS, encode_pair, reference_counts

ENGINES = ("naive", "dp", "dawg")


def window_scan(pattern: str, text: str) -> list[int]:
    """Reference: test every window of the whole text against the images."""
    pat, txt = encode_pair(pattern, text)
    m = pat.length
    if m > txt.length:
        return []
    images = enumerate_images(pat)
    return [j for j in range(m, txt.length + 1) if txt.codes[j - m : j] in images]


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
    st.text("abcN", max_size=40),  # N is never a pattern symbol: the sentinel code
    unary("ab", 40),
    period2(40),
    st.text("N\n", max_size=12),  # sentinel-only
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
@example(pattern="ab", case=("NNNN", [2]))  # sentinel-only
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
    pat, txt = encode_pair(pattern, text)
    ends, counter = automaton_search(pat, txt)
    assert counter == reference_counts(pat, txt)
    uncounted, none = automaton_search(pat, iter(txt), count=False)
    assert none is None
    assert ends == uncounted == dp_search(pat, txt)


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
    pat, txt = encode_pair(pattern, text)
    assert dp_search(pat, txt) == expected
    assert automaton_search(pat, txt, count=False)[0] == expected
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
@example(case=("ab", "NNNN", [2]))  # sentinel only
@example(case=("aaaa", "a" * 9, [3, 5]))  # unary: a count reaches m, no digit carries
# by default a run closes its cluster, and a later cluster's checked image
# follows it (hits 5-20 and 30): in one chunk, and cut between the two
@example(case=("aaaab", "aaaab" * 4 + "NNNNN" + "baaaa", []))
@example(case=("aaaab", "aaaab" * 4 + "NNNNN" + "baaaa", [22]))
def test_filtered_engines_match_naive_and_unfiltered(case):
    pattern, text, cuts = case
    expected = naive_search(*encode_pair(pattern, text))
    assert_filtered_ends(pattern, text, cuts, expected)


@settings(max_examples=60, deadline=None)
@given(case=filter_cases(LETTERS, 24))
@example(case=(LETTERS, "N" + LETTERS[::-1] + LETTERS[10:] + LETTERS[:10] + LETTERS, [7, 30]))
def test_filter_with_multi_word_weights(case):
    """20 pattern symbols: weights up to (m+1)^19, far beyond one machine
    word; too many images for the naive engine, so `dp` is the reference."""
    pattern, text, cuts = case
    expected = dp_search(*encode_pair(pattern, text))
    assert_filtered_ends(pattern, text, cuts, expected)


def candidate_symbols(pattern: str, text: str, budget: float) -> int:
    """Text positions the engines must step over, by brute force: windows
    whose symbol counts equal the pattern's, taken in order.  The r-th
    window of a cluster of overlapping ones is checked on its own if every
    window before it was and their check work is below r * budget * m^2;
    otherwise it covers its symbols."""
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
    return len(covered)


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
    and none twice.  The DAWG is built once, and only when some window is
    left to an engine."""
    pattern, text, cuts = case
    for budget in BUDGETS:
        union = candidate_symbols(pattern, text, budget)
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(translocsearch, "CHECK_BUDGET", budget)
            count_calls(mp, calls, DpColumns, "push", "dp")
            count_calls(mp, calls, SearchState, "step", "dawg")
            count_calls(mp, calls, translocsearch, "build_dawg", "build")
            for algo in ("dp", "dawg"):
                match_ends(pattern, iter(split(text, cuts)), algo)
        assert calls["dp"] == calls["dawg"] == union, budget
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
    expected = dp_search(*encode_pair(pattern, text))
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
    pat, txt = encode_pair(pattern, window)
    image, work = translocsearch._is_image(pattern, window)
    assert image == (txt.codes in enumerate_images(pat))
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
                alphabet = infer_alphabet(pattern)
                images = {
                    "".join(alphabet.symbols[c] for c in image)
                    for image in enumerate_images(encode(pattern, alphabet))
                }
                for window in words:
                    assert translocsearch._is_image(pattern, window)[0] == (window in images), (
                        pattern, window
                    )
                pairs += len(words)
    assert pairs == {"ab": 17_576, "abc": 40_572}[symbols]


def test_text_without_a_candidate_window_runs_no_engine(monkeypatch):
    def refuse(*args):
        raise AssertionError("an engine ran where no window can match")

    monkeypatch.setattr(SearchState, "step", refuse)
    monkeypatch.setattr(DpColumns, "push", refuse)
    monkeypatch.setattr(translocsearch, "build_dawg", refuse)
    text = "GATTAGA" * 1000  # every window lacks the pattern's C
    for algo in ("dp", "dawg"):
        assert match_ends("GATTACA", text, algo) == []
        assert match_ends("GATTACA", split(text, list(range(0, len(text), 60))), algo) == []


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
        monkeypatch.setattr("sys.stdin", io.StringIO(content))
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
            monkeypatch.setattr("sys.stdin", io.StringIO(content))
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
        codes = list(text)
        runs[-1].append(len(codes))
        return real(pattern, codes)

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
