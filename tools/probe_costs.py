#!/usr/bin/env python3
"""Split the time of short-read and FASTA searches; time periodic window checks.

    python3 tools/probe_costs.py [--src DIR ...] [--seed N] [--repeat K]

Generates the inputs of perfbench's `many-probes` workload (1000 reads of
150 DNA symbols, pattern lengths 6-40) and times `match_ends(pattern,
read)` on each, as the least of K calls, three ways: as it is; with
`_is_image` replaced by a stub; and with `_count_marks` replaced too, so
no window is a candidate.  The differences give microseconds per probe of
the window checks and the count filter; the last way is the set-up of a
search and its bookkeeping per chunk.  It then times `match_ends` on the
case of many distinct pattern symbols, the least of 3K runs: a pattern
of 300 distinct CJK symbols over 9000 symbols of shuffled copies of it,
in 2 KiB chunks, where most windows keep most counts right.  Then it
times `match_ends` on a mixed alphabet, in nanoseconds per symbol, the
least of K runs: a 64-symbol DNA pattern over 2*10^5 random DNA symbols
in 1 KiB chunks, as it is and with its last symbol replaced by ``?``, by
U+20AC and by U+4E00, and asserts that the checkouts return the same
hits.  It does the same, in symbols per second, on 2 KiB of the text whose
windows cost most to check: blocks A^k B, with k within m +- 4, for the
pattern A^(m-1)B at m = 32 and 64; period-2 windows with a defect near
their end, blocks (BA)^(m/2-2) BBAA BA for the pattern (AB)^(m/2) at m =
32, 64 and 128; and (BA)^22 BBAA blocks for (AB)^32, whose windows hold a
defect far from both ends, so that their clusters still reach an engine.

Last it times `_is_image` on the windows that `periodic-dense` checks
(the paper's worst case: unary and period-2 text), each check the least
of K calls, both ways of enumerating units: by ``str.find`` (no masks)
and from the pattern's symbol masks, which a search passes once its
checks have spent one window's budget.  It prints microseconds
per pass, images and non-images apart, and the microseconds of one
`symbol_masks` build.  A checkout whose `_is_image` takes no masks gets
``-`` in the mask rows.

Then it times the fixed cost of a `utd search` call, in microseconds per
`cli.main` call, the least of 10K: a 64-symbol DNA pattern over a one-record
FASTA file of 4 symbols, once with a plain argv, which `cli.main` parses in
one pass, and once with ``--pattern=...``, a form that the pass turns down.

Then it follows the FASTA path of `utd search` on the contig files of
perfbench's `dna-scan` workload, in microseconds per block of
CHUNK_CHARS characters, each step the least of K runs per file: reading
and decoding the file (``_open_text``); the header search, which is
`parse_fasta` on the decoded text less the whitespace strip of its blocks,
so it holds the reader's per-block bookkeeping too; the whitespace strip
and `_upper` of each block; the `_count_marks` calls that `match_ends`
makes on the uppercased chunks; and the rest of `match_ends`, its window
checks and engine runs included.  The benchmark's trace cannot split
these: it times `parse_fasta`, a generator function, only as far as
creating the generator.

Each ``--src`` names the ``src`` directory of a checkout (default: this
one's).  Given several, the script loads each package under its own name
and lets them take turns on every probe, so a slow spell of a shared
machine hits them alike; it prints one column per checkout.
"""
import argparse
import importlib
import importlib.util
import io
import math
import random
import sys
import tempfile
import time
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WAYS = ("full", "no checks", "no filter")


def load(src: Path, name: str):
    """The ``translocsearch`` package under ``src``, imported as ``name``."""
    package = src.resolve() / "translocsearch"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def no_check(pattern: str, window: str, masks=None) -> tuple[bool, int]:
    return False, 1


def no_filter(text: str, m: int, *_) -> bytes:
    return bytes(max(0, len(text) - m + 1))


def stub(module, real: tuple, way: str) -> None:
    """Put the stubs of ``way`` in place of the ``real`` `_is_image` and
    `_count_marks`, or these back."""
    module._is_image = real[0] if way == "full" else no_check
    module._count_marks = no_filter if way == "no filter" else real[1]


def one_call(module, pattern: str, read: str) -> float:
    """Seconds of one call, with whatever stubs are in place."""
    t0 = time.perf_counter()
    module.match_ends(pattern, read)
    return time.perf_counter() - t0


def probe_times(modules: list, probes: list[tuple[str, str]], repeat: int) -> list[dict]:
    """Per module, microseconds per probe of each way: the least of
    ``repeat`` calls on each probe, averaged over the probes."""
    totals = [dict.fromkeys(WAYS, 0.0) for _ in modules]
    reals = [(module._is_image, module._count_marks) for module in modules]
    try:
        for pattern, read in probes:
            for way in WAYS:
                for module, real in zip(modules, reals):
                    stub(module, real, way)
                best = [math.inf] * len(modules)
                for _ in range(repeat):
                    for i, module in enumerate(modules):
                        best[i] = min(best[i], one_call(module, pattern, read))
                for total, least in zip(totals, best):
                    total[way] += least
    finally:
        for module, real in zip(modules, reals):
            stub(module, real, "full")
    return [{way: t / len(probes) * 1e6 for way, t in total.items()} for total in totals]


def distinct_times(modules: list, repeat: int) -> list[float]:
    """Per module, microseconds per symbol of `match_ends` on 300 distinct
    symbols, the least of ``repeat`` runs."""
    rng = random.Random(300)
    pattern = "".join(map(chr, range(0x4E00, 0x4E00 + 300)))
    text = "".join("".join(rng.sample(pattern, len(pattern))) for _ in range(30))
    chunks = [text[i : i + 2048] for i in range(0, len(text), 2048)]
    best = [math.inf] * len(modules)
    for _ in range(repeat):
        for i, module in enumerate(modules):
            t0 = time.perf_counter()
            module.match_ends(pattern, iter(chunks))
            best[i] = min(best[i], time.perf_counter() - t0)
    return [b / len(text) * 1e6 for b in best]


MIXED_LAST = {"plain": None, "last ?": "?", "last U+20AC": "\u20ac", "last U+4E00": "\u4e00"}


def mixed_texts() -> dict[str, tuple[str, list[str]]]:
    """Per row of MIXED_LAST, (pattern, chunks): 2*10^5 random DNA symbols
    in 1 KiB chunks, and a 64-symbol DNA pattern with its last symbol
    replaced as the row says."""
    rng = random.Random(64)
    text = "".join(rng.choices("ACGT", k=200_000))
    chunks = [text[i : i + 1024] for i in range(0, len(text), 1024)]
    dna = "".join(rng.choices("ACGT", k=64))
    return {row: (dna if last is None else dna[:-1] + last, chunks) for row, last in MIXED_LAST.items()}


def worst_case_texts() -> dict[str, tuple[str, list[str]]]:
    """(pattern, chunks) of each worst-case row: 2 KiB in one chunk."""
    rng = random.Random(2)
    rows = {}
    for m in (32, 64):
        blocks = "".join("A" * rng.randint(m - 4, m + 4) + "B" for _ in range(4096 // m))
        rows[f"A^k B, m = {m}"] = "A" * (m - 1) + "B", [blocks[:2048]]
    for m in (32, 64, 128):
        defect = "BA" * (m // 2 - 2) + "BBAA" + "BA"
        rows[f"defect, m = {m}"] = "AB" * (m // 2), [(defect * (2048 // len(defect) + 1))[:2048]]
    rows["defect every 48, m = 64"] = "AB" * 32, [(("BA" * 22 + "BBAA") * 43)[:2048]]
    return rows


def seconds_per_symbol(modules: list, texts: dict, repeat: int) -> dict[str, list[float]]:
    """Per row of ``texts``, (pattern, chunks), per module, seconds per
    symbol of `match_ends`, the least of ``repeat`` runs; asserts that the
    modules return the same hits."""
    rows = {}
    for row, (pattern, chunks) in texts.items():
        hits = [module.match_ends(pattern, chunks) for module in modules]
        assert all(ends == hits[0] for ends in hits), f"the hits differ: {row}"
        calls = [partial(module.match_ends, pattern, chunks) for module in modules]
        rows[row] = [t / sum(map(len, chunks)) for t in turns(calls, repeat)]
    return rows


def periodic_checks(module, searches) -> list[tuple[str, str, bool]]:
    """(pattern, window, verdict) of every check `match_ends` makes on the
    searches, in order."""
    check = module._is_image
    checks = []

    def recorded(pattern, window, *masks):
        image, work = check(pattern, window, *masks)
        checks.append((pattern, window, image))
        return image, work

    module._is_image = recorded
    try:
        for s in searches:
            module.match_ends(s.pattern, s.text)
    finally:
        module._is_image = check
    return checks


def turns(calls: list, repeat: int) -> list[float]:
    """Least seconds of ``repeat`` runs of each call, the calls taking
    turns; inf for a call that is None."""
    best = [math.inf] * len(calls)
    for _ in range(repeat):
        for i, call in enumerate(calls):
            if call is not None:
                t0 = time.perf_counter()
                call()
                best[i] = min(best[i], time.perf_counter() - t0)
    return best


def check_times(modules: list, checks: list[tuple[str, str, bool]], repeat: int) -> list[dict]:
    """Per module, microseconds per pass of the checks by (verdict, way),
    each check the least of ``repeat`` calls, inf for the mask way where
    `_is_image` takes no masks; and under "build" those of one
    `symbol_masks` build, averaged over the patterns."""
    patterns = list(dict.fromkeys(pattern for pattern, _, _ in checks))
    masks = [{p: module.dp.symbol_masks(p) for p in patterns}
             if module._is_image.__code__.co_argcount > 2 else None for module in modules]
    keys = [(image, way) for image in (True, False) for way in ("find", "masks")] + ["build"]
    totals = [dict.fromkeys(keys, 0.0) for _ in modules]
    for pattern in patterns:
        builds = turns([partial(module.dp.symbol_masks, pattern) for module in modules], repeat)
        for total, t in zip(totals, builds):
            total["build"] += t / len(patterns)
    for pattern, window, image in checks:
        finds = [partial(module._is_image, pattern, window) for module in modules]
        masked = [by and partial(module._is_image, pattern, window, by[pattern])
                  for module, by in zip(modules, masks)]
        for way, calls in (("find", finds), ("masks", masked)):
            for total, t in zip(totals, turns(calls, repeat)):
                total[image, way] += t
    return [{key: t * 1e6 for key, t in total.items()} for total in totals]


def drain(items) -> None:
    for _ in items:
        pass


def read_file(cli, path: Path) -> None:
    """Read and decode the file at ``path`` in blocks, as `utd search` does."""
    with cli._open_text(str(path)) as fh:
        drain(iter(partial(fh.read, cli.CHUNK_CHARS), ""))


def read_records(cli, text: str) -> None:
    for record in cli.parse_fasta(io.StringIO(text)):
        drain(record.chunks)


def quiet_main(cli, argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv


def main_times(modules: list, work: Path, repeat: int) -> dict[str, list[float]]:
    """Per argv form, per module, microseconds of one `cli.main` call on a
    one-record FASTA file of 4 symbols written under ``work``, the least of
    ``repeat`` calls."""
    path = work / "one.fa"
    path.write_text(">r\nACGT\n")
    pattern = "".join(random.Random(4).choices("ACGT", k=64))
    argvs = {
        "one-pass argv": ["search", "--pattern", pattern, "--fasta", str(path)],
        "declined argv": ["search", f"--pattern={pattern}", "--fasta", str(path)],
    }
    clis = [importlib.import_module(module.__name__ + ".cli") for module in modules]
    return {row: [t * 1e6 for t in turns([partial(quiet_main, cli, argv) for cli in clis], repeat)]
            for row, argv in argvs.items()}


def fasta_calls(module, path: Path, pattern: str) -> tuple[int, dict]:
    """The number of blocks in the FASTA file at ``path``, and the calls
    that time each step of its search for ``pattern``."""
    cli = importlib.import_module(module.__name__ + ".cli")
    text = path.read_text()
    size = cli.CHUNK_CHARS
    blocks = [text[i : i + size] for i in range(0, len(text), size)]
    chunks = [chunk for record in cli.parse_fasta(io.StringIO(text)) for chunk in record.chunks]
    upper = list(map(cli._upper, chunks))
    count_marks, marks = module._count_marks, []

    def recorded(*args):
        marks.append(args)
        return count_marks(*args)

    module._count_marks = recorded
    try:
        module.match_ends(pattern, upper)
    finally:
        module._count_marks = count_marks
    return len(blocks), {
        "read": partial(read_file, cli, path),
        "parse": partial(read_records, cli, text),
        "strip": lambda: ["".join(block.split()) for block in blocks],
        "upper": lambda: [cli._upper(chunk) for chunk in chunks],
        "marks": lambda: [count_marks(*args) for args in marks],
        "search": partial(module.match_ends, pattern, upper),
    }


def fasta_times(modules: list, searches, repeat: int) -> tuple[int, list[dict]]:
    """The number of blocks in the FASTA files of ``searches``, and per
    module the seconds of each step, the least of ``repeat`` runs per file,
    summed over the files."""
    keys = ("read", "parse", "strip", "upper", "marks", "search")
    totals = [dict.fromkeys(keys, 0.0) for _ in modules]
    blocks = 0
    for s in searches:
        path = Path(s.argv[s.argv.index("--fasta") + 1])
        calls = [fasta_calls(module, path, s.pattern) for module in modules]
        blocks += calls[0][0]
        for key in keys:
            for total, t in zip(totals, turns([call[key] for _, call in calls], repeat)):
                total[key] += t
    return blocks, [{
        "read and decode": t["read"],
        "header search": t["parse"] - t["strip"],
        "strip and _upper": t["strip"] + t["upper"],
        "_count_marks": t["marks"],
        "rest of match_ends": t["search"] - t["marks"],
    } for t in totals]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=9)
    args = parser.parse_args(argv)
    srcs = args.src or [ROOT / "src"]
    modules = [load(src, f"translocsearch_{i}") for i, src in enumerate(srcs)]
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import dna_scan, many_probes, periodic_dense

    with tempfile.TemporaryDirectory() as work:
        probes = [(s.pattern, s.text) for s in many_probes(args.seed, Path(work)).searches]
        periodic = periodic_dense(args.seed, Path(work)).searches
        contigs = dna_scan(args.seed, Path(work)).searches
        blocks, steps = fasta_times(modules, contigs, args.repeat)
        fixed = main_times(modules, Path(work), 10 * args.repeat)
    times = probe_times(modules, probes, args.repeat)
    rows = {
        "set-up": [t["no filter"] for t in times],
        "filter": [t["no checks"] - t["no filter"] for t in times],
        "checks": [t["full"] - t["no checks"] for t in times],
        "total": [t["full"] for t in times],
    }
    print(f"many-probes seed {args.seed}, {len(probes)} probes, least of {args.repeat} calls; "
          "us per probe")
    for i, src in enumerate(srcs):
        print(f"  [{i}] {src}")
    for name, values in rows.items():
        print(f"  {name:9s}" + "".join(f" {v:8.2f}" for v in values))
    distinct = distinct_times(modules, 3 * args.repeat)
    print("match_ends on 300 distinct symbols, us per symbol:"
          + "".join(f" {v:.2f}" for v in distinct))
    print(f"match_ends on 2e5 DNA symbols, m = 64, least of {args.repeat} runs; ns per symbol")
    for row, values in seconds_per_symbol(modules, mixed_texts(), args.repeat).items():
        print(f"  {row:12s}" + "".join(f" {v * 1e9:8.1f}" for v in values))
    print(f"match_ends on 2 KiB of worst-case text, least of {args.repeat} runs; sym/s")
    for row, values in seconds_per_symbol(modules, worst_case_texts(), args.repeat).items():
        print(f"  {row:23s}" + "".join(f" {1 / v:10.0f}" for v in values))
    checks = periodic_checks(modules[0], periodic)
    times = check_times(modules, checks, args.repeat)
    images = sum(image for _, _, image in checks)
    print(f"periodic-dense seed {args.seed}, {len(checks)} checks, least of {args.repeat} calls; "
          "us per pass")
    for image, label in ((True, f"images ({images})"), (False, f"non-images ({len(checks) - images})")):
        for way in ("find", "masks"):
            values = [t[image, way] for t in times]
            print(f"  {label:18s} {way:5s}"
                  + "".join(f" {v:9.1f}" if v < math.inf else f" {'-':>9s}" for v in values))
    print(f"  {'symbol_masks build, us':24s}" + "".join(f" {t['build']:9.2f}" for t in times))
    print(f"cli.main on a 4-symbol FASTA record, m = 64, least of {10 * args.repeat} calls; "
          "us per call")
    for row, values in fixed.items():
        print(f"  {row:15s}" + "".join(f" {v:8.1f}" for v in values))
    print(f"dna-scan seed {args.seed}, {len(contigs)} FASTA files, {blocks} blocks, "
          f"least of {args.repeat} runs; us per block")
    for step in steps[0]:
        print(f"  {step:17s}" + "".join(f" {t[step] / blocks * 1e6:8.2f}" for t in steps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
