"""Command-line front end: `utd search` and `utd bench`.

Searching reports one line per match (TSV `record<TAB>end` or a JSON
array); FASTA records are searched independently and matches never span
record boundaries.  Benchmarking runs the automaton engine on uniform
random pattern/text pairs and emits machine-independent work counters as
CSV; rows are deterministic for a given seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, TextIO

from . import match_ends
from .automaton import automaton_search
from .oracle import DEFAULT_NAIVE_LIMIT, ImageExplosionError
from .seqcore import Sequence

CSV_HEADER = (
    "m,n,sigma,seed,delta_steps,suffix_hops,inner_iterations,"
    "endpos_queries,normalized_cost"
)


@dataclass(frozen=True)
class FastaRecord:
    id: str
    sequence: str


@dataclass(frozen=True)
class BenchRow:
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
        return (
            f"{self.m},{self.n},{self.sigma},{self.seed},"
            f"{self.delta_steps},{self.suffix_hops},{self.inner_iterations},"
            f"{self.endpos_queries},{self.normalized_cost:.6f}"
        )


def parse_fasta(stream: Iterable[str]) -> list[FastaRecord]:
    """Standard FASTA: '>' lines open records, sequence lines are
    concatenated and uppercased, blank lines are ignored."""
    records: list[FastaRecord] = []
    rid: str | None = None
    chunks: list[str] = []

    def flush() -> None:
        if rid is not None:
            records.append(FastaRecord(rid, "".join(chunks)))

    for line in stream:
        line = line.strip()
        if line.startswith(">"):
            flush()
            tokens = line[1:].split()
            if not tokens:
                raise ValueError("empty FASTA header")
            rid = tokens[0]
            chunks = []
        elif not line:
            continue
        else:
            if rid is None:
                raise ValueError("missing FASTA header")
            chunks.append("".join(line.split()).upper())
    flush()
    return records


def _load_pattern(args: argparse.Namespace) -> str:
    if args.pattern is not None:
        return args.pattern
    with open(args.pattern_file, encoding="utf-8") as fh:
        return fh.read().strip()


def _load_records(args: argparse.Namespace) -> list[FastaRecord]:
    if args.text is not None:
        return [FastaRecord("stdin", args.text)]
    if args.text_file is not None:
        if args.text_file == "-":
            return [FastaRecord("stdin", sys.stdin.read().rstrip("\n"))]
        with open(args.text_file, encoding="utf-8") as fh:
            return [FastaRecord(args.text_file, fh.read().rstrip("\n"))]
    with open(args.fasta, encoding="utf-8") as fh:
        return parse_fasta(fh)


def cmd_search(args: argparse.Namespace, out: TextIO) -> int:
    pattern_raw = _load_pattern(args)
    if not pattern_raw:
        raise ValueError("empty pattern")
    records = _load_records(args)
    if args.fasta is not None:
        # records come back uppercased, so fold the pattern the same way
        pattern_raw = pattern_raw.upper()

    matches = []
    for record in records:
        ends = match_ends(pattern_raw, record.sequence, args.algo, args.naive_limit)
        matches.extend((record.id, end) for end in ends)

    if args.format == "json":
        json.dump([{"record": rid, "end": end} for rid, end in matches], out)
        out.write("\n")
    else:
        for rid, end in matches:
            out.write(f"{rid}\t{end}\n")
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
    import numpy as np  # only the benchmark needs it; keeps `utd search` start-up fast

    rows = []
    for m in m_list:
        log_term = math.log(m, sigma)
        denom = n * log_term * log_term
        for trial in range(trials):
            tseed = trial_seed(seed, m, trial)
            rng = np.random.default_rng(tseed)
            pattern = Sequence(tuple(int(c) for c in rng.integers(0, sigma, m)))
            text = rng.integers(0, sigma, n).tolist()
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
    txt.add_argument("--text-file", help="file holding the text ('-' for stdin)")
    txt.add_argument("--fasta", help="FASTA file; records searched independently")
    search.add_argument(
        "--algo", choices=("naive", "dp", "dawg"), default="dawg",
        help="engine to use (default: dawg)",
    )
    search.add_argument(
        "--format", choices=("tsv", "json"), default="tsv",
        help="output format (default: tsv)",
    )
    search.add_argument(
        "--naive-limit", type=int, default=DEFAULT_NAIVE_LIMIT,
        help="maximum pattern length accepted by the naive engine",
    )

    bench = sub.add_parser("bench", help="run the scaling benchmark")
    bench.add_argument("--m", required=True, help="comma-separated pattern lengths")
    bench.add_argument("--n", type=int, required=True, help="text length")
    bench.add_argument("--sigma", type=int, required=True, help="alphabet size")
    bench.add_argument("--trials", type=int, default=5)
    bench.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "search":
            return cmd_search(args, sys.stdout)
        return cmd_bench(args, sys.stdout)
    except (OSError, ValueError, ImageExplosionError) as exc:
        print(f"utd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
