"""Command-line front end: `utd search` and `utd bench`.

Searching reports one line per match (TSV `record<TAB>end` or a JSON
array); FASTA records are searched independently and matches never span
record boundaries.  Input is streamed into the engines a line or chunk at
a time, so memory depends on the pattern and not on the text.
Benchmarking runs the automaton engine on uniform random pattern/text
pairs and emits machine-independent work counters as CSV; rows are
deterministic for a given seed.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby
from typing import Iterable, Iterator, NamedTuple, TextIO

from . import match_ends
from .automaton import automaton_search
from .seqcore import Sequence

# --text-file and FASTA lines are read in pieces of this many characters
CHUNK_CHARS = 2 * 1024

# a header holds its complete ID once a word is followed by whitespace
ID_END = re.compile(r"\S+\s")


@dataclass(frozen=True)
class FastaRecord:
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
    """Standard FASTA, read lazily in pieces of at most CHUNK_CHARS
    characters: a '>' at the start of a line opens a record whose ID is the
    line's first word, each piece of a sequence line is one chunk,
    stripped of whitespace, and blank lines are ignored.

    A record's chunks must be read before the next record is taken: taking
    it skips the rest of the current record.  A malformed line raises
    ``ValueError`` only when it is reached, after the records before it.
    """
    headers = 0
    line_start = True

    def record_index(piece: str) -> int:
        nonlocal headers, line_start
        if line_start and piece.lstrip().startswith(">"):
            headers += 1
        line_start = piece.endswith("\n")
        return headers

    # groupby splits the pieces at each header, and reads each group lazily
    pieces = iter(lambda: fh.readline(CHUNK_CHARS), "")
    for index, group in groupby(pieces, key=record_index):
        if index == 0:  # lines before the first header
            if any(not piece.isspace() for piece in group):
                raise ValueError("missing FASTA header")
            continue
        piece = next(group)
        head = piece.lstrip()[1:].lstrip()
        while not piece.endswith("\n"):  # a header line longer than one piece
            piece = next(group, "\n")
            if not ID_END.match(head):  # keep only what can hold the ID
                head = (head + piece).lstrip()
        tokens = head.split(maxsplit=1)
        if not tokens:
            raise ValueError("empty FASTA header")
        chunks = ("".join(piece.split()) for piece in group)
        yield FastaRecord(tokens[0], (chunk for chunk in chunks if chunk))


def _load_pattern(args: argparse.Namespace) -> str:
    if args.pattern is not None:
        return args.pattern
    with open(args.pattern_file, encoding="utf-8") as fh:
        return fh.read().strip()


@contextmanager
def _open_records(args: argparse.Namespace) -> Iterator[Iterable[FastaRecord]]:
    """The records of the text source, readable inside the ``with`` block."""
    if args.text is not None:
        yield [FastaRecord("stdin", (args.text,))]
    elif args.text_file == "-":
        yield [FastaRecord("stdin", iter(partial(sys.stdin.read, CHUNK_CHARS), ""))]
    elif args.text_file is not None:
        with _open_text(args.text_file) as fh:
            yield [FastaRecord(args.text_file, iter(partial(fh.read, CHUNK_CHARS), ""))]
    else:
        with _open_text(args.fasta) as fh:
            yield parse_fasta(fh)


def _open_text(path: str) -> TextIO:
    """A text file that decodes CHUNK_CHARS characters at a time: a
    seekable text file keeps a copy of the bytes of its current decoding
    chunk for ``tell()``, 8 KiB by default, whenever it is read other than
    by iteration.  A path ending in ``.gz`` is decompressed as it is read."""
    if path.endswith(".gz"):
        import gzip  # only gzipped input needs it; keeps `utd search` start-up fast

        fh = gzip.open(path, "rt", encoding="utf-8")
    else:
        fh = open(path, encoding="utf-8")
    fh._CHUNK_SIZE = CHUNK_CHARS
    return fh


def cmd_search(args: argparse.Namespace, out: TextIO) -> int:
    """TSV lines are written as each record finishes, so an error in a
    later record leaves them in place; JSON is written once, at the end."""
    # the pattern and every text source are uppercased, chunk by chunk
    pattern_raw = _load_pattern(args).upper()
    if not pattern_raw:
        raise ValueError("empty pattern")
    # text files are read with their newlines, so a pattern without one
    # cannot match in a window that holds one, such as a file's last line end
    if "\n" in pattern_raw:
        raise ValueError("pattern may not contain a line break")

    matches = []
    with _open_records(args) as records:
        for record in records:
            chunks = map(str.upper, record.chunks)
            ends = match_ends(pattern_raw, chunks, args.algo)
            if args.format == "json":
                matches.extend({"record": record.id, "end": end} for end in ends)
            else:
                for end in ends:
                    out.write(f"{record.id}\t{end}\n")

    if args.format == "json":
        json.dump(matches, out)
        out.write("\n")
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
            pattern = Sequence(tuple(rng.choices(range(sigma), k=m)))
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
    # a truncated .gz file raises EOFError, a corrupt one zlib.error
    except (OSError, ValueError, EOFError, zlib.error) as exc:
        print(f"utd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
