"""Seeded input generators for the `utd search` benchmark.

Each generator writes the files the program reads into a work directory
and returns the list of searches.  Sizes are fixed per workload; the seed
only changes the symbols, so two seeds load the program equally while
different content guards against tuning to one input.  The same seed gives
byte-identical files.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DNA = "ACGT"


@dataclass(frozen=True)
class Search:
    """One closed-loop search call.

    ``pattern`` and ``text`` are what the engines see (FASTA records come
    back uppercased from the reader); ``argv`` holds the `utd search`
    arguments minus ``--algo``, or is None for a ``match_ends`` call.
    """

    sid: int
    pattern: str
    text: str
    planted: tuple[int, ...]
    argv: tuple[str, ...] | None


@dataclass(frozen=True)
class Workload:
    name: str
    searches: tuple[Search, ...]
    params: dict

    @property
    def symbols(self) -> int:
        return sum(len(s.text) for s in self.searches)

    @property
    def longest_pattern(self) -> str:
        return max((s.pattern for s in self.searches), key=len)


def translocated_image(rng: random.Random, pattern: str) -> str:
    """A random image of ``pattern``: left to right, each unit is either
    one copied symbol or an adjacent factor pair zw emitted as wz."""
    out = []
    p, m = 0, len(pattern)
    while p < m:
        if m - p >= 2 and rng.random() < 0.3:
            h = rng.randint(1, min(8, m - p - 1))
            k = rng.randint(1, min(8, m - p - h))
            out.append(pattern[p + h : p + h + k] + pattern[p : p + h])
            p += h + k
        else:
            out.append(pattern[p])
            p += 1
    return "".join(out)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def dna_scan(
    seed: int,
    workdir: Path,
    records: int = 25,
    total: int = 200_000,
    decay: float = 0.85,
    m: int = 64,
) -> Workload:
    """Draft-assembly-like contigs, one FASTA file per contig, searched
    with one pattern.  Contig lengths fall geometrically (fixed for every
    seed); each contig has N runs (sentinel path), soft-masked lowercase
    stretches (case folding) and two planted images of the pattern."""
    rng = _rng("dna-scan", seed)
    pattern = "".join(rng.choices(DNA, k=m))
    scale = total * (1 - decay) / (1 - decay**records)
    searches = []
    for i in range(records):
        n = max(4 * m, round(scale * decay**i))
        seq = rng.choices(DNA, k=n)
        for _ in range(max(1, n // 5000)):
            start = rng.randrange(n)
            run = rng.randint(10, 200)
            seq[start : start + run] = "N" * len(seq[start : start + run])
        planted = []
        half = n // 2
        for lo in (0, half):
            start = lo + rng.randrange(half - m)
            seq[start : start + m] = translocated_image(rng, pattern)
            planted.append(start + m)
        masked = 0
        while masked < 0.15 * n:
            start = rng.randrange(n)
            run = rng.randint(50, 500)
            seq[start : start + run] = [c.lower() for c in seq[start : start + run]]
            masked += run
        raw = "".join(seq)
        path = workdir / f"contig_{i:02d}.fa"
        lines = [f">contig_{i:02d} len={n}"]
        lines += [raw[p : p + 60] for p in range(0, n, 60)]
        path.write_text("\n".join(lines) + "\n")
        searches.append(
            Search(i, pattern, raw.upper(), tuple(planted),
                   ("--pattern", pattern, "--fasta", str(path)))
        )
    params = {"records": records, "total_symbols": total,
              "length_decay": decay, "m": m, "alphabet": DNA}
    return Workload("dna-scan", tuple(searches), params)


def periodic_dense(
    seed: int,
    workdir: Path,
    texts: int = 10,
    unary: int = 3,
    n: int = 300,
    m: int = 32,
) -> Workload:
    """Unary and period-2 texts with point mutations every ~200 symbols,
    each searched with a pattern of its own period: the worst case, where
    the longest factor ending at every position has length about m."""
    rng = _rng("periodic-dense", seed)
    searches = []
    for i in range(texts):
        if i < unary:
            unit = rng.choice(DNA)
        else:
            unit = "".join(rng.sample(DNA, 2))
        pattern = (unit * m)[:m]
        phase = rng.randrange(len(unit))
        seq = list((unit * (n + 2))[phase : phase + n])
        start = rng.randrange(n - m)
        seq[start : start + m] = translocated_image(rng, pattern)
        # mutations at least m from the ends, more than 2m from the image and
        # each other, so each one removes the same number of hits whatever
        # the seed; a first mutation can leave no room for a second, so
        # placements are drawn again until all fit
        while True:
            taken, changes = [start], []
            for _ in range(1 + i % 2):
                free = [p for p in range(m, n - m)
                        if all(abs(p - t) > 2 * m for t in taken)]
                if not free:
                    break
                pos = rng.choice(free)
                taken.append(pos)
                changes.append((pos, rng.choice([c for c in DNA if c != seq[pos]])))
            else:
                break
        for pos, c in changes:
            seq[pos] = c
        raw = "".join(seq)
        path = workdir / f"text_{i:02d}.txt"
        path.write_text(raw + "\n")
        searches.append(
            Search(i, pattern, raw, (start + m,),
                   ("--pattern", pattern, "--text-file", str(path)))
        )
    params = {"texts": texts, "unary_texts": unary, "n": n, "m": m,
              "mutations_per_text": "1 or 2, alternating, 2m apart"}
    return Workload("periodic-dense", tuple(searches), params)


def many_probes(
    seed: int,
    workdir: Path,
    pairs: int = 1000,
    m_min: int = 6,
    m_max: int = 40,
    read_len: int = 150,
) -> Workload:
    """Short patterns against short reads through ``match_ends``; pattern
    lengths are spread evenly over [m_min, m_max], every other read of each
    length carries a planted image, and the pairs are shuffled."""
    rng = _rng("many-probes", seed)
    shapes = [(m_min + i * (m_max - m_min + 1) // pairs, i % 2 == 0) for i in range(pairs)]
    rng.shuffle(shapes)
    searches = []
    for i, (m, plant) in enumerate(shapes):
        pattern = "".join(rng.choices(DNA, k=m))
        read = rng.choices(DNA, k=read_len)
        planted: tuple[int, ...] = ()
        if plant:
            start = rng.randrange(read_len - m + 1)
            read[start : start + m] = translocated_image(rng, pattern)
            planted = (start + m,)
        searches.append(Search(i, pattern, "".join(read), planted, None))
    (workdir / "probes.tsv").write_text(
        "".join(f"{s.pattern}\t{s.text}\n" for s in searches)
    )
    params = {"pairs": pairs, "m_range": [m_min, m_max], "read_len": read_len,
              "planted_share": 0.5, "alphabet": DNA}
    return Workload("many-probes", tuple(searches), params)


GENERATORS = {
    "dna-scan": dna_scan,
    "periodic-dense": periodic_dense,
    "many-probes": many_probes,
}


def generate(name: str, seed: int, workdir: Path, **sizes) -> Workload:
    """Empty ``workdir`` of earlier inputs and write this workload's files."""
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():
        old.unlink()
    return GENERATORS[name](seed, workdir, **sizes)
