#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for `utd search`.

    python3 perfbench/run.py --workload dna-scan --seed 1 --seconds 20 --trace 0

Generates the named workload from the seed, calls the package in ``src/``
from outside through its public entry points (``cli.main`` for the CLI
workloads, ``match_ends`` for many-probes) in a closed loop, one search
at a time, and checks every hit list.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that times the calls
into each layer and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import GENERATORS, Search, Workload, generate  # noqa: E402

ENGINES = ("dawg", "dp")
# Tail percentile per workload: the highest of 50/75/90/95/99/99.9 that
# leaves at least TAIL_BEYOND calls above it once min_passes() have run.
TAIL_PCT = {"dna-scan": 90.0, "periodic-dense": 90.0, "many-probes": 99.0}
TAIL_BEYOND = 10
NAIVE_MAX_M = 10
SETUP_PROCESSES = 7
SETUP_REF_S = 0.175
MEM_SHARE = 0.1
# Shared machines change speed by 30-40 % within seconds, which swamps any
# change worth measuring.  Every timing is therefore divided by the time of
# a fixed reference loop run next to it (at most CAL_EVERY_S apart) and
# multiplied by CAL_REF_S, the loop's usual time on the 2-core x86-64 VM
# the baseline was recorded on: "calibrated seconds".  Over 15 s windows of
# that VM this cut the spread of median search times from 10-40 % to 1-2 %.
CAL_ITERS = 6_000
CAL_REF_S = 0.0034
CAL_EVERY_S = 0.015


class Calibrator:
    """Times the reference loop between measurements."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> int:
        """Time the loop once; returns the sample's index.  The loop does
        what the engines' inner loops do: dict lookups, shifts and masks on
        65-bit integers, short lists built per step, stores into a ring."""
        t0 = time.perf_counter()
        table = {i: (i * 7919) & 127 for i in range(128)}
        masks = [(1 << 65) - 1 - (1 << (i % 65)) for i in range(64)]
        ring = [None] * 65
        acc = 1
        for i in range(CAL_ITERS):
            v = table.get(i & 127, 0)
            acc = ((acc << 1) & masks[v & 63]) | 1
            chain = [acc]
            for _ in range(v & 3):
                chain.append(chain[-1] >> 1)
            ring[i % 65] = (v, chain)
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of the latest sample, taking a fresh one if it is stale."""
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def calibrate(self, timed: list[tuple[float, int]]) -> list[float]:
        """Calibrated seconds of (wall seconds, mark before) pairs, each
        scaled by the samples just before and just after it; call after
        taking a closing sample."""
        return [elapsed * self.scale(k, k + 1) for elapsed, k in timed]

    def scale(self, first: int, last: int) -> float:
        """Factor from wall to calibrated seconds over samples first..last."""
        return CAL_REF_S / statistics.mean(self.samples[first : last + 1])


class Gate:
    """Correctness gate: every search must return the other engine's hit
    list, include every planted end, and (where the oracle is affordable)
    equal the naive engine's list."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, dict[int, list[int]]] = {a: {} for a in ENGINES}
        self.naive: dict[int, list[int]] = {}

    def check(self, search: Search, algo: str, hits: list[int] | None,
              error: str | None = None) -> None:
        self.attempted += 1
        problem = error
        other = self.reference[ENGINES[1 - ENGINES.index(algo)]].get(search.sid)
        if problem is None:
            missing = sorted(set(search.planted) - set(hits))
            if other is not None and hits != other:
                problem = f"hits differ from the other engine ({len(hits)} vs {len(other)})"
            elif missing:
                problem = f"planted ends missing: {missing}"
            elif search.sid in self.naive and hits != self.naive[search.sid]:
                problem = "hits differ from the naive engine"
        if problem is None:
            return
        self.failed += 1
        print(f"FAIL workload={self.workload} search={search.sid} "
              f"seed={self.seed} algo={algo}: {problem}")


def import_package():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "translocsearch" / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import translocsearch
    from translocsearch import cli

    if Path(translocsearch.__file__).resolve().parent != SRC / "translocsearch":
        sys.exit(f"perfbench: imported translocsearch from {translocsearch.__file__}")
    return translocsearch, cli


def search_once(pkg, cli, search: Search, algo: str, tracer: Tracer | None = None):
    """One closed-loop search call: (seconds, hits)."""
    if search.argv is None:
        call, args, root = pkg.match_ends, (search.pattern, search.text, algo), "match_ends"
    else:
        call, args, root = cli.main, (["search", *search.argv, "--algo", algo],), "cli.main"
    if tracer is not None:
        tracer.search_id = search.sid
        call = tracer.wrap(root, call)
    out = io.StringIO()
    with redirect_stdout(out):
        t0 = time.perf_counter()
        result = call(*args)
        elapsed = time.perf_counter() - t0
    if search.argv is None:
        return elapsed, list(result)
    if result != 0:
        raise RuntimeError(f"utd search exited with code {result}")
    return elapsed, [int(line.rsplit("\t", 1)[1]) for line in out.getvalue().splitlines()]


class Pass(NamedTuple):
    times: list[float]  # calibrated seconds per search call
    scale: float  # wall to calibrated seconds over the whole pass
    wall: float  # uncalibrated seconds in search calls


def run_pass(pkg, cli, workload: Workload, algo: str, gate: Gate, cal: Calibrator,
             tracer: Tracer | None = None, keep: bool = False) -> Pass:
    """Every search of the workload once, each gated and timed."""
    first = cal.sample()
    timed = []
    for search in workload.searches:
        before = cal.mark()
        try:
            elapsed, hits = search_once(pkg, cli, search, algo, tracer)
        except Exception:  # a failed search is counted, not fatal
            gate.check(search, algo, None, traceback.format_exc(limit=1).strip())
            continue
        gate.check(search, algo, hits)
        if keep:
            gate.reference[algo][search.sid] = hits
        timed.append((elapsed, before))
    last = cal.sample()
    return Pass(cal.calibrate(timed), cal.scale(first, last), sum(e for e, _ in timed))


def warm_up(pkg, cli, workload: Workload, gate: Gate, cal: Calibrator) -> None:
    """First pass per engine: fills caches and records reference hits."""
    for s in workload.searches:
        if len(s.pattern) <= NAIVE_MAX_M and s.argv is None:
            gate.naive[s.sid] = pkg.match_ends(s.pattern, s.text, "naive")
    for algo in ENGINES:
        run_pass(pkg, cli, workload, algo, gate, cal, keep=True)


def min_passes(workload: Workload) -> int:
    beyond = len(workload.searches) * (1 - TAIL_PCT[workload.name] / 100)
    return max(1, math.ceil(TAIL_BEYOND / beyond - 1e-9))


def timed_rounds(seconds: float, least: int, one_round) -> int:
    """Call ``one_round`` until ``seconds`` have passed, at least ``least`` times."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < least or time.perf_counter() < deadline:
        one_round()
        rounds += 1
    return rounds


def setup_seconds(pattern: str) -> list[float]:
    """Calibrated times of cold `utd search` processes given the pattern and
    an empty text: interpreter start, imports, argument parsing, pattern
    build.  Each is scaled by a cold reference process run just before it,
    an interpreter importing argparse, json and numpy, whose time on the
    baseline VM is SETUP_REF_S: the parent's reference loop says nothing
    about a child that may run on the other core."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference = [sys.executable, "-c", "import argparse, json, numpy"]
    search = [sys.executable, "-m", "translocsearch.cli", "search",
              "--pattern", pattern, "--text", ""]

    def wall(cmd: list[str]) -> float:
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or done.stdout:
            raise RuntimeError(f"cold start failed: {done.returncode} {done.stderr}")
        return elapsed

    wall(search)  # the first process also writes bytecode caches
    times = []
    for _ in range(SETUP_PROCESSES):
        ref = wall(reference)
        times.append(wall(search) * SETUP_REF_S / ref)
    return times


def peak_alloc_mb(pkg, cli, workload: Workload, algo: str, gate: Gate) -> float:
    """Median tracemalloc peak of the largest searches (longest text, then
    longest pattern), taking as many as cover MEM_SHARE of the pass's text:
    one contig, one periodic text, 100 probes.  Tracing a whole pass would
    cost 20-60x its run time.  The median, because the highest of 100 probe
    peaks moves 10 % from seed to seed with the planted images."""
    ordered = sorted(workload.searches, key=lambda s: (-len(s.text), -len(s.pattern), s.sid))
    peaks, covered = [], 0
    for search in ordered:
        if covered >= MEM_SHARE * workload.symbols:
            break
        covered += len(search.text)
        gc.collect()  # leave no garbage from earlier calls, restart the gc counters
        tracemalloc.start()
        try:
            _, hits = search_once(pkg, cli, search, algo)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        gate.check(search, algo, hits)
    return statistics.median(peaks) / 1e6


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(pkg, cli, workload: Workload, seconds: float, gate: Gate) -> dict:
    setup = setup_seconds(workload.longest_pattern)
    cal = Calibrator()
    warm_up(pkg, cli, workload, gate, cal)
    latencies = {a: [] for a in ENGINES}
    rates = {a: [] for a in ENGINES}
    walls = {a: [] for a in ENGINES}

    def one_round():
        for algo in ENGINES:
            done = run_pass(pkg, cli, workload, algo, gate, cal)
            latencies[algo] += done.times
            rates[algo].append(workload.symbols / sum(done.times))
            walls[algo].append(done.wall)

    rounds = timed_rounds(seconds, min_passes(workload), one_round)
    pct = TAIL_PCT[workload.name]
    out = {}
    for algo in ENGINES:
        ms = np.array(latencies[algo]) * 1e3
        out[f"sym_per_s.{algo}"] = metric(statistics.median(rates[algo]), "1/s")
        out[f"latency_p50_ms.{algo}"] = metric(np.percentile(ms, 50), "ms")
        out[f"latency_tail_ms.{algo}"] = metric(np.percentile(ms, pct), "ms")
    out["setup_s"] = metric(statistics.median(setup), "s")
    for algo in ENGINES:
        out[f"peak_alloc_mb.{algo}"] = metric(peak_alloc_mb(pkg, cli, workload, algo, gate), "MB")
    samples = {"passes": rounds, "calls": len(latencies["dawg"]),
               "tail_percentile": pct, "setup_processes": len(setup),
               "pass_seconds": {a: {"wall": [min(walls[a]), max(walls[a])],
                                    "calibrated": [workload.symbols / max(rates[a]),
                                                   workload.symbols / min(rates[a])]}
                                for a in ENGINES}}
    return out, samples


def advance_only_seconds(pkg, prepared, cal: Calibrator) -> float:
    """Scan-configuration advance alone over every text, no (h, k) loop."""
    advance = pkg.dawg.advance_with_hops
    cal.sample()
    timed = []
    for d, text in prepared:
        before = cal.mark()
        t0 = time.perf_counter()
        state, length = 0, 0
        for code in text.codes:
            (state, length), _ = advance(d, state, length, code)
        timed.append((time.perf_counter() - t0, before))
    cal.sample()
    return sum(cal.calibrate(timed))


def scan_lengths(pkg, d, text) -> np.ndarray:
    """l_j, the longest pattern factor ending at each text position."""
    advance = pkg.dawg.advance_with_hops
    out = np.zeros(len(text.codes) + 1, dtype=np.int64)
    state, length = 0, 0
    for j, code in enumerate(text.codes, start=1):
        (state, length), _ = advance(d, state, length, code)
        out[j] = length
    return out


def hk_pairs(lengths: np.ndarray, m: int) -> int:
    """Pairs the DP's condition (b) visits: sum_j sum_{h<=l_j} min(l_{j-h}, m-h)."""
    total = 0
    for h in range(1, m + 1):
        reach = lengths[h:] >= h
        total += int(np.minimum(lengths[:-h], m - h)[reach].sum())
    return total


def abelian_windows(pattern, text, sigma: int) -> tuple[int, int]:
    """(windows whose symbol counts equal the pattern's, all windows)."""
    m, n = pattern.length, text.length
    if n < m:
        return 0, 0
    codes = np.array(text.codes, dtype=np.int64)
    want = np.bincount(np.array(pattern.codes), minlength=sigma + 1)
    same = np.ones(n - m + 1, dtype=bool)
    for c in range(sigma + 1):
        run = np.concatenate(([0], np.cumsum(codes == c)))
        same &= (run[m:] - run[:-m]) == want[c]
    return int(same.sum()), n - m + 1


def layer_counts(pkg, workload: Workload) -> tuple[dict, list]:
    """Exact work counts from the layers' own entry points, untimed, on the
    codes the engines receive; also returns (dawg, text) per search."""
    n = workload.symbols
    sums = dict.fromkeys(("delta_steps", "suffix_hops", "inner_iterations",
                          "endpos_queries", "insertions", "hk_pairs",
                          "states", "footprint", "abelian", "windows",
                          "encode_bytes"), 0)
    prepared = []
    for s in workload.searches:
        alphabet = pkg.infer_alphabet(s.pattern)
        pattern = pkg.encode(s.pattern, alphabet)
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        text = pkg.encode(s.text, alphabet)
        sums["encode_bytes"] += tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        d = pkg.build_dawg(pattern)
        prepared.append((d, text))
        _, counter = pkg.automaton_search(pattern, text, d)
        for key in ("delta_steps", "suffix_hops", "inner_iterations",
                    "endpos_queries", "insertions"):
            sums[key] += getattr(counter, key)
        sums["hk_pairs"] += hk_pairs(scan_lengths(pkg, d, text), pattern.length)
        sums["states"] += d.state_count
        fp = pkg.SearchState(pattern, d).footprint()
        sums["footprint"] += fp["prefix_bits"] + fp["endpos_bits"]
        hit, windows = abelian_windows(pattern, text, alphabet.size)
        sums["abelian"] += hit
        sums["windows"] += windows
    k = len(workload.searches)
    counts = {
        "seqcore.encode.bytes_per_sym": metric(sums["encode_bytes"] / n, "B/sym"),
        "dawg.states": metric(sums["states"] / k, "count"),
        "dawg.delta_steps_per_sym": metric(sums["delta_steps"] / n, "1/sym"),
        "automaton.suffix_hops_per_sym": metric(sums["suffix_hops"] / n, "1/sym"),
        "automaton.inner_iterations_per_sym": metric(sums["inner_iterations"] / n, "1/sym"),
        "automaton.endpos_queries_per_sym": metric(sums["endpos_queries"] / n, "1/sym"),
        "automaton.insertions_per_sym": metric(sums["insertions"] / n, "1/sym"),
        "automaton.yield": metric(sums["insertions"] / max(1, sums["endpos_queries"]), "ratio"),
        "automaton.footprint_bits": metric(sums["footprint"] / k, "bit"),
        "dp.hk_pairs_per_sym": metric(sums["hk_pairs"] / n, "1/sym"),
        "window.abelian_share": metric(sums["abelian"] / max(1, sums["windows"]), "ratio"),
    }
    return counts, prepared


# per-layer time metric -> (span names, engines whose traced passes it is
# read from).  entry.self.s is the self time of the call the workload makes:
# cli.main (argument parsing, file loading, output formatting) or match_ends
# (alphabet inference, dispatch).
LAYER_TIMES = {
    "cli.parse_fasta.s": (("cli.parse_fasta",), ENGINES),
    "entry.self.s": (("cli.main", "match_ends"), ENGINES),
    "seqcore.encode.s": (("seqcore.encode",), ENGINES),
    "dawg.build_dawg.s": (("dawg.build_dawg",), ("dawg",)),
    "automaton.search.s": (("automaton.automaton_search",), ("dawg",)),
    "automaton.step.s": (("automaton.SearchState.step",), ("dawg",)),
    "dp.search.s": (("dp.dp_search",), ("dp",)),
    "dp.push.s": (("dp.DpColumns.push",), ("dp",)),
}


def per_layer(pkg, cli, workload: Workload, seconds: float, gate: Gate,
              spans_path: Path) -> tuple[dict, dict]:
    cal = Calibrator()
    warm_up(pkg, cli, workload, gate, cal)
    counts, prepared = layer_counts(pkg, workload)
    tracer = Tracer()
    passes = []  # (algo, self seconds per span name)
    plain = {a: [] for a in ENGINES}
    traced = {a: [] for a in ENGINES}
    advance = []

    def one_round():
        for algo in ENGINES:
            done = run_pass(pkg, cli, workload, algo, gate, cal)
            plain[algo].append(workload.symbols / sum(done.times))
            first = tracer.span_count
            tracer.install()
            try:
                done = run_pass(pkg, cli, workload, algo, gate, cal, tracer)
                traced[algo].append(workload.symbols / sum(done.times))
            finally:
                tracer.uninstall()
            own = tracer.self_seconds(first, tracer.span_count)
            passes.append((algo, {name: sec * done.scale for name, sec in own.items()}))
        advance.append(advance_only_seconds(pkg, prepared, cal))

    rounds = timed_rounds(seconds, 1, one_round)
    out = {}
    for name, (spans, engines) in LAYER_TIMES.items():
        values = [sum(own.get(s, 0.0) for s in spans) for algo, own in passes if algo in engines]
        out[name] = metric(statistics.median(values), "s")
    out["dawg.advance.s"] = metric(statistics.median(advance), "s")
    out["automaton.loop.s"] = metric(out["automaton.step.s"]["value"]
                                     - out["dawg.advance.s"]["value"], "s")
    out.update(counts)
    for algo in ENGINES:
        out[f"trace.overhead.{algo}"] = metric(
            statistics.median(traced[algo]) - statistics.median(plain[algo]), "1/s")
    tracer.write(spans_path)
    samples = {"rounds": rounds, "spans": tracer.span_count,
               "untraced_sym_per_s": {a: statistics.median(plain[a]) for a in ENGINES},
               "traced_sym_per_s": {a: statistics.median(traced[a]) for a in ENGINES},
               "layers_not_found": sorted(set(tracer.missing))}
    return out, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg, cli = import_package()
    workload = generate(args.workload, args.seed, WORK / args.workload)
    gate = Gate(workload.name, args.seed)
    if args.trace:
        metrics, samples = per_layer(pkg, cli, workload, args.seconds, gate,
                                     WORK / f"{workload.name}.spans.npz")
    else:
        metrics, samples = end_to_end(pkg, cli, workload, args.seconds, gate)

    samples["params"] = workload.params
    print(f"workload {workload.name} seed {args.seed}: {len(workload.searches)} "
          f"searches, {workload.symbols} text symbols per pass")
    print(f"samples {json.dumps(samples)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {gate.failed / gate.attempted:>16.6g} "
          f"({gate.failed} of {gate.attempted} searches)")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 1 if gate.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
