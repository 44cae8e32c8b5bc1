"""Command-line front end: `utd search` and `utd bench`.

Searching reports one line per match (TSV `record<TAB>end` or a JSON
array); FASTA records are searched independently and matches never span
record boundaries.  Input is streamed into the engines a block of at most
CHUNK_CHARS characters at a time, and each TSV line is written as its hit
is found, so TSV memory depends on the pattern and not on the text or the
hits; JSON holds a record's hits until the record ends.
Benchmarking runs the automaton engine on uniform random pattern/text
pairs and emits machine-independent work counters as CSV; rows are
deterministic for a given seed.

A plain `utd search` argv is parsed in one pass over it (``plain_search``),
and argparse is loaded only for the forms that pass turns down, as are
``json`` for JSON output and ``math`` and ``random`` for `utd bench`.
"""
from __future__ import annotations

import codecs
import io
import os
import re
import sys
import zlib
from contextlib import contextmanager
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple, TextIO

from . import _ends
from .automaton import automaton_search

if TYPE_CHECKING:
    import argparse

    # what `cmd_search` reads: argparse's namespace, or that of plain_search
    Args = argparse.Namespace | SimpleNamespace

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
            # every record start ends at a '>', so a block without one has none;
            # '^' matches at index 0 whatever precedes the block; past 0, after a '\n'
            header = block.find(">", pos) >= 0 and RECORD_START.search(
                block, pos if pos or line_start else 1)
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


def _load_pattern(args: Args) -> str:
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
def _open_records(args: Args) -> Iterator[Iterable[FastaRecord]]:
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


def cmd_search(args: Args, out: TextIO) -> int:
    """TSV lines are written as the search finds each hit, so an error
    leaves every line found before it; JSON is written once, at the end."""
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
            ends = _ends(pattern_raw, map(_upper, record.chunks), args.algo)
            if args.format == "json":
                matches.append((record.id, list(ends)))
            else:
                for end in ends:
                    out.write(f"{record.id}\t{end}\n")

    if args.format == "json":
        import json  # only JSON output needs it; keeps `utd search` start-up fast

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
    # past these bounds trial_seed would repeat another trial's pattern and text
    if not m_list or not 0 < min(m_list) <= max(m_list) < 1 << 16:
        raise ValueError("pattern lengths must be in [1, 65535]")
    if not 0 <= seed < 1 << 32:
        raise ValueError("seed must be in [0, 2**32)")
    if n < max(m_list):
        raise ValueError("n must be at least the largest pattern length")
    if not 1 <= trials <= 1 << 16:
        raise ValueError("trials must be in [1, 65536]")
    import math
    import random

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


class Option(NamedTuple):
    """An option of `utd search`: its flag and help, and either the required
    group of which it is one member or its choices and default."""

    flag: str
    help: str
    group: str | None = None
    choices: tuple[str, ...] | None = None
    default: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


# the options of `utd search`, which build_parser and plain_search both read
SEARCH_OPTIONS = (
    Option("--pattern", "pattern string", group="pattern"),
    Option("--pattern-file", "file holding the pattern", group="pattern"),
    Option("--text", "text string", group="text"),
    Option("--text-file", "file holding the text ('-' for stdin; .gz is decompressed)",
           group="text"),
    Option("--fasta", "FASTA file, optionally .gz; records searched independently",
           group="text"),
    Option("--algo", "engine to use (default: dawg)", choices=("naive", "dp", "dawg"),
           default="dawg"),
    Option("--format", "output format (default: tsv)", choices=("tsv", "json"),
           default="tsv"),
)
_BY_FLAG = {option.flag: option for option in SEARCH_OPTIONS}
_DEFAULTS = {"command": "search", **{option.dest: option.default for option in SEARCH_OPTIONS}}
_GROUPS = sorted({option.group for option in SEARCH_OPTIONS} - {None})


def plain_search(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that argparse builds for ``argv``, in one pass, when
    ``argv`` is `search` followed only by (flag, value) pairs: each flag
    an exact long option of `search`, given at most once; each value
    empty, ``-`` or not starting with ``-``, and one of the option's
    choices where it has them; and one member of each required group.
    None for every other form (help, ``--flag=value``, abbreviations,
    ``--``, `bench`, every error): argparse parses those."""
    if len(argv) % 2 == 0 or argv[0] != "search":
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:  # a flag given twice
        return None
    args, groups = dict(_DEFAULTS), []
    for flag, value in given.items():
        option = _BY_FLAG.get(flag)
        if option is None or value.startswith("-") and value != "-":
            return None
        if option.choices is not None and value not in option.choices:
            return None
        args[option.dest] = value
        if option.group is not None:
            groups.append(option.group)
    if sorted(groups) != _GROUPS:
        return None
    return SimpleNamespace(**args)


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only the forms that plain_search turns down need it

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
    groups = {None: search}  # an option of no group goes on `search` itself
    for option in SEARCH_OPTIONS:
        if option.group not in groups:
            groups[option.group] = search.add_mutually_exclusive_group(required=True)
        groups[option.group].add_argument(
            option.flag, help=option.help, choices=option.choices, default=option.default)

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
    if argv is None:
        argv = sys.argv[1:]
    args = plain_search(argv) or _parser().parse_args(argv)
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
