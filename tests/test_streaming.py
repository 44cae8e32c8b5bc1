"""Streamed input: chunked text gives the same matches as whole text, the
CLI's output does not depend on how its input is split into lines or
chunks, and its memory does not grow with the text."""
import gc
import gzip
import io
import os
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import translocsearch
from translocsearch import cli, match_ends
from translocsearch.automaton import automaton_search
from translocsearch.dp import dp_search
from translocsearch.oracle import enumerate_images

from helpers import encode_pair, reference_counts

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
    report, counter = automaton_search(pat, txt)
    assert counter == reference_counts(pat, txt)
    uncounted, none = automaton_search(pat, iter(txt), count=False)
    assert none is None
    assert report == uncounted == dp_search(pat, txt)


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
def test_read_chunks_drops_only_trailing_newlines(monkeypatch, content):
    monkeypatch.setattr(cli, "CHUNK_CHARS", 3)
    chunks = list(cli.read_chunks(io.StringIO(content)))
    assert "".join(chunks) == content.rstrip("\n")
    assert all(0 < len(chunk) <= 3 for chunk in chunks)


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
