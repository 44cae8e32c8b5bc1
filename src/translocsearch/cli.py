"""Command-line front end: `utd search` and `utd bench`.

Searching reports one line per match (TSV `record<TAB>end` or a JSON
array); FASTA records are searched independently and matches never span
record boundaries.  Input is streamed into the engines a block of at most
CHUNK_CHARS characters at a time, so memory depends on the pattern and
not on the text.
Benchmarking runs the automaton engine on uniform random pattern/text
pairs and emits machine-independent work counters as CSV; rows are
deterministic for a given seed.
"""
from __future__ import annotations

import argparse
import codecs
import io
import json
import math
import os
import random
import re
import sys
import zlib
from contextlib import contextmanager
from functools import lru_cache, partial
from typing import BinaryIO, Iterable, Iterator, NamedTuple, TextIO

from . import match_ends
from .automaton import automaton_search

# every text source is read in blocks of this many characters (bytes, for a file)
CHUNK_CHARS = 1024

# a line whose first non-blank character is '>' opens a FASTA record
RECORD_START = re.compile(r"^[^\S\n]*>", re.MULTILINE)

# a header holds its complete ID once a word is followed by whitespace
ID_END = re.compile(r"\S+\s")


class FastaRecord(NamedTuple):
    """A record whose sequence is read lazily, as string chunks."""

    id: str
    chunks: Iterable[str]


class BenchRow(NamedTuple):
    m: int
    n: int
    sigma: int
    seed: int
    delta_steps: int
    suffix_hops: int
    inner_iterations: int
    endpos_queries: int
    normalized_cost: float

    def as_csv(self) -> str:
        return ",".join(map(str, self[:-1])) + f",{self.normalized_cost:.6f}"


CSV_HEADER = ",".join(BenchRow._fields)


def parse_fasta(fh: TextIO) -> Iterator[FastaRecord]:
    """Standard FASTA, read lazily in blocks of CHUNK_CHARS characters: a
    line whose first non-blank character is '>' opens a record whose ID is
    the first word after the '>'.  A '>' anywhere else is a sequence
    symbol.  Each block's part of a record's sequence lines, stripped of
    whitespace, is one chunk, which may be empty.

    A record's chunks must be read before the next record is taken: taking
    it skips the rest of the current record.  A malformed line raises
    ``ValueError`` only when it is reached, after the records before it.
    """
    read = partial(fh.read, CHUNK_CHARS)
    block, pos = read(), 0
    # whether only blanks lie between the last line break and the block
    line_start = True

    def sequence() -> Iterator[str]:
        """The chunks up to the next header, which is left at ``pos``."""
        nonlocal block, pos, line_start
        while block:
            # '^' matches at index 0 whatever precedes the block; past 0, after a '\n'
            header = RECORD_START.search(block, pos if pos or line_start else 1)
            if header:
                yield "".join(block[pos : header.start()].split())
                pos = header.end()
                return
            tail = block[block.rfind("\n") + 1 :]
            line_start = ("\n" in block or line_start) and (not tail or tail.isspace())
            yield "".join(block[pos:].split())
            block, pos = read(), 0

    def header_id() -> str:
        """The ID of the header line at ``pos``, which is then skipped."""
        nonlocal block, pos
        head = ""
        while block:
            end = block.find("\n", pos)
            if not ID_END.match(head):  # keep only what can hold the ID
                head = (head + block[pos : end if end >= 0 else None]).lstrip()
            if end >= 0:
                pos = end + 1
                break
            block, pos = read(), 0
        tokens = head.split(maxsplit=1)
        if not tokens:
            raise ValueError("empty FASTA header")
        return tokens[0]

    if any(sequence()):
        raise ValueError("missing FASTA header")
    while block:
        record_id, chunks = header_id(), sequence()
        yield FastaRecord(record_id, chunks)
        for _ in chunks:  # skip what was left unread
            pass


def _load_pattern(args: argparse.Namespace) -> str:
    if args.pattern is not None:
        return args.pattern
    with open(args.pattern_file, encoding="utf-8-sig") as fh:
        return fh.read().strip()


def _upper(text: str) -> str:
    """``text`` uppercased symbol by symbol: a symbol whose uppercase is
    longer, such as ß (SS), stays as it is.  No uppercase is shorter, so
    ``text.upper()`` of the same length has every symbol in its place."""
    upper = text.upper()
    if len(upper) == len(text):
        return upper
    return "".join(u if len(u := c.upper()) == 1 else c for c in text)


@contextmanager
def _open_records(args: argparse.Namespace) -> Iterator[Iterable[FastaRecord]]:
    """The records of the text source, readable inside the ``with`` block."""
    if args.text is not None:
        yield [FastaRecord("stdin", (args.text,))]
    elif args.text_file == "-":  # read as a file is, and left open
        stdin = _Utf8File(sys.stdin.buffer)
        yield [FastaRecord("stdin", iter(partial(stdin.read, CHUNK_CHARS), ""))]
    elif args.text_file is not None:
        with _open_text(args.text_file) as fh:
            yield [FastaRecord(args.text_file, iter(partial(fh.read, CHUNK_CHARS), ""))]
    else:
        with _open_text(args.fasta) as fh:
            yield parse_fasta(fh)


class _Utf8File:
    """A binary file read as UTF-8 text with universal newlines, as ``open``
    reads it, but through no buffer of its own: each ``read(size)`` decodes
    reads of at most ``size`` bytes until one completes a character or the
    file ends.  A leading byte-order mark is skipped."""

    def __init__(self, raw: BinaryIO) -> None:
        self.raw = raw
        utf8 = codecs.getincrementaldecoder("utf-8-sig")()
        self.decode = io.IncrementalNewlineDecoder(utf8, translate=True).decode

    def read(self, size: int) -> str:
        while data := self.raw.read(size):
            text = self.decode(data)
            if text:  # empty when the bytes end inside a character, or on a '\r'
                return text
        return self.decode(b"", final=True)

    def __enter__(self) -> _Utf8File:
        return self

    def __exit__(self, *exc_info) -> None:
        self.raw.close()


def _open_text(path: str) -> _Utf8File:
    """The file at ``path`` as text, unbuffered: a text file from ``open``
    keeps 8 KiB of read-ahead bytes, and a seekable one a copy of them for
    ``tell()``, where each read here holds only the CHUNK_CHARS bytes it
    asks for.  A path ending in ``.gz`` is decompressed as it is read."""
    if path.endswith(".gz"):
        import gzip  # only gzipped input needs it; keeps `utd search` start-up fast

        return _Utf8File(gzip.open(path))
    return _Utf8File(open(path, "rb", buffering=0))


def cmd_search(args: argparse.Namespace, out: TextIO) -> int:
    """TSV lines are written as each record finishes, so an error in a
    later record leaves them in place; JSON is written once, at the end."""
    # the pattern and every text source are uppercased, chunk by chunk
    pattern_raw = _upper(_load_pattern(args))
    if not pattern_raw:
        raise ValueError("empty pattern")
    # text files are read with their newlines, so a pattern without one
    # cannot match in a window that holds one, such as a file's last line end
    if "\n" in pattern_raw:
        raise ValueError("pattern may not contain a line break")

    matches = []  # (record ID, hit ends) per record, for JSON
    with _open_records(args) as records:
        for record in records:
            chunks = map(_upper, record.chunks)
            ends = match_ends(pattern_raw, chunks, args.algo)
            if args.format == "json":
                matches.append((record.id, ends))
            else:
                for end in ends:
                    out.write(f"{record.id}\t{end}\n")

    if args.format == "json":
        # as json.dump of the list of {"record": ID, "end": end} objects
        out.write("[")
        sep = ""
        for record_id, ends in matches:
            head = '{"record": ' + json.dumps(record_id) + ', "end": '
            for end in ends:
                out.write(f"{sep}{head}{end}}}")
                sep = ", "
        out.write("]\n")
    return 0


def trial_seed(seed: int, m: int, trial: int) -> int:
    """Per-trial 64-bit seed; fields occupy disjoint bit ranges."""
    return ((seed & 0xFFFFFFFF) << 32) ^ ((m & 0xFFFF) << 16) ^ (trial & 0xFFFF)


def bench_rows(
    m_list: list[int], n: int, sigma: int, trials: int, seed: int
) -> list[BenchRow]:
    if sigma < 2:
        raise ValueError("sigma must be at least 2")
    if not m_list or min(m_list) < 1:
        raise ValueError("pattern lengths must be positive")
    if n < max(m_list):
        raise ValueError("n must be at least the largest pattern length")
    if trials < 1:
        raise ValueError("trials must be positive")
    rows = []
    for m in m_list:
        log_term = math.log(m, sigma)
        denom = n * log_term * log_term
        for trial in range(trials):
            tseed = trial_seed(seed, m, trial)
            rng = random.Random(tseed)
            pattern = rng.choices(range(sigma), k=m)
            text = rng.choices(range(sigma), k=n)
            _, counter = automaton_search(pattern, text)
            cost = counter.inner_iterations / denom if denom > 0 else math.inf
            rows.append(
                BenchRow(
                    m=m,
                    n=n,
                    sigma=sigma,
                    seed=tseed,
                    delta_steps=counter.delta_steps,
                    suffix_hops=counter.suffix_hops,
                    inner_iterations=counter.inner_iterations,
                    endpos_queries=counter.endpos_queries,
                    normalized_cost=cost,
                )
            )
    return rows


def cmd_bench(args: argparse.Namespace, out: TextIO) -> int:
    m_list = [int(tok) for tok in args.m.split(",") if tok]
    rows = bench_rows(m_list, args.n, args.sigma, args.trials, args.seed)
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(row.as_csv() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utd",
        description=(
            "Find every text position where a pattern matches after "
            "non-overlapping swaps of adjacent, possibly unequal-length "
            "factors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser("search", help="search a text or FASTA file")
    pat = search.add_mutually_exclusive_group(required=True)
    pat.add_argument("--pattern", help="pattern string")
    pat.add_argument("--pattern-file", help="file holding the pattern")
    txt = search.add_mutually_exclusive_group(required=True)
    txt.add_argument("--text", help="text string")
    txt.add_argument(
        "--text-file", help="file holding the text ('-' for stdin; .gz is decompressed)"
    )
    txt.add_argument(
        "--fasta", help="FASTA file, optionally .gz; records searched independently"
    )
    search.add_argument(
        "--algo", choices=("naive", "dp", "dawg"), default="dawg",
        help="engine to use (default: dawg)",
    )
    search.add_argument(
        "--format", choices=("tsv", "json"), default="tsv",
        help="output format (default: tsv)",
    )

    bench = sub.add_parser("bench", help="run the scaling benchmark")
    bench.add_argument("--m", required=True, help="comma-separated pattern lengths")
    bench.add_argument("--n", type=int, required=True, help="text length")
    bench.add_argument("--sigma", type=int, required=True, help="alphabet size")
    bench.add_argument("--trials", type=int, default=5)
    bench.add_argument("--seed", type=int, default=42)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building one formats and
    translates every help string, which makes system calls and costs more
    than a short search."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "search":
            return cmd_search(args, sys.stdout)
        return cmd_bench(args, sys.stdout)
    except BrokenPipeError:
        # the reader closed stdout (`utd search ... | head`), no malformed input;
        # buffered output goes to devnull so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # a truncated .gz file raises EOFError, a corrupt one zlib.error
    except (OSError, ValueError, EOFError, zlib.error) as exc:
        print(f"utd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
