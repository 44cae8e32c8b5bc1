"""Smoke test of the benchmark itself at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import generate  # noqa: E402

TINY = {
    "dna-scan": {"records": 3, "total": 3000, "m": 16},
    "periodic-dense": {"texts": 2, "unary": 1, "n": 120, "m": 8},
    "many-probes": {"pairs": 20, "m_min": 4, "m_max": 10, "read_len": 30},
}


def files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first = generate(name, 7, tmp_path / "a", **TINY[name])
    again = generate(name, 7, tmp_path / "b", **TINY[name])
    other = generate(name, 8, tmp_path / "c", **TINY[name])
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert [(s.pattern, s.text, s.planted) for s in first.searches] == [
        (s.pattern, s.text, s.planted) for s in again.searches
    ]


@pytest.mark.parametrize("name", sorted(TINY))
def test_full_size_inputs_generate_for_any_seed(name, tmp_path):
    seeds = range(5) if name == "dna-scan" else range(300)
    for seed in seeds:
        workload = generate(name, seed, tmp_path)
        assert all(s.planted or s.argv is None for s in workload.searches)


@pytest.mark.parametrize("name", sorted(TINY))
def test_engines_pass_the_gate(name, tmp_path):
    pkg, cli = run.import_package()
    workload = generate(name, 3, tmp_path, **TINY[name])
    gate = run.Gate(name, 3)
    cal = run.Calibrator()
    run.warm_up(pkg, cli, workload, gate, cal)
    done = run.run_pass(pkg, cli, workload, "dawg", gate, cal)
    assert gate.failed == 0
    assert gate.attempted == 3 * len(workload.searches)
    assert len(done.times) == len(workload.searches) and done.scale > 0
    if name == "many-probes":
        assert gate.naive  # the oracle checked the short patterns


def test_gate_counts_an_injected_wrong_hit_list(tmp_path, capsys):
    pkg, cli = run.import_package()
    workload = generate("many-probes", 3, tmp_path, **TINY["many-probes"])
    gate = run.Gate("many-probes", 3)
    cal = run.Calibrator()
    run.warm_up(pkg, cli, workload, gate, cal)
    victim = next(s for s in workload.searches if s.planted)

    def wrong(pattern, text, algo):
        hits = pkg.match_ends(pattern, text, algo)
        return hits[:-1] if (pattern, text) == (victim.pattern, victim.text) else hits

    run.run_pass(SimpleNamespace(match_ends=wrong), cli, workload, "dp", gate, cal)
    assert gate.failed == 1
    out = capsys.readouterr().out
    assert f"search={victim.sid} seed=3 algo=dp" in out


def test_gate_counts_a_failing_exit_code(tmp_path):
    pkg, cli = run.import_package()
    workload = generate("periodic-dense", 3, tmp_path, **TINY["periodic-dense"])
    gate = run.Gate("periodic-dense", 3)
    failing = SimpleNamespace(main=lambda argv: 2)
    run.run_pass(pkg, failing, workload, "dawg", gate, run.Calibrator())
    assert gate.failed == gate.attempted == len(workload.searches)


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    own = tracer.self_seconds(0, tracer.span_count)
    outer_seconds = (tracer.ends[0] - tracer.starts[0]) / 1e9
    assert tracer.span_count == 4 and list(tracer.parents) == [-1, 0, 0, 0]
    assert own["inner"] > 0 and 0 < own["outer"] < outer_seconds
    assert own["outer"] + own["inner"] == pytest.approx(outer_seconds)


def test_hk_pairs_match_the_pairs_dp_visits(tmp_path):
    pkg, _ = run.import_package()
    workload = generate("dna-scan", 5, tmp_path, **TINY["dna-scan"])
    search = workload.searches[0]
    alphabet = pkg.infer_alphabet(search.pattern)
    pattern, text = pkg.encode(search.pattern, alphabet), pkg.encode(search.text, alphabet)
    m = pattern.length
    cols, masks, visited = pkg.DpColumns(m), pattern.symbol_masks(), 0
    for code in text.codes:
        cols.push(masks.get(code, 0))
        j = cols.pos
        lj = len(cols._f[j % cols.cap]) - 1
        visited += sum(min(len(cols._f[(j - h) % cols.cap]) - 1, m - h)
                       for h in range(1, lj + 1))
    lengths = run.scan_lengths(pkg, pkg.build_dawg(pattern), text)
    assert visited > 0
    assert run.hk_pairs(lengths, m) == visited


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_reports_every_metric_of_its_kind(trace, tmp_path, monkeypatch):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    pkg, cli = run.import_package()
    workload = generate("many-probes", 2, tmp_path, **TINY["many-probes"])
    gate = run.Gate("many-probes", 2)
    monkeypatch.setitem(run.TAIL_PCT, "many-probes", 50.0)
    if trace:
        metrics, _ = run.per_layer(pkg, cli, workload, 0, gate, tmp_path / "spans.npz")
        names = [m["name"] for m in bench["per_layer"]]
        assert (tmp_path / "spans.npz").is_file()
    else:
        metrics, _ = run.end_to_end(pkg, cli, workload, 0, gate)
        names = [m["name"] for m in bench["end_to_end"]]
    assert sorted(metrics) == sorted(names)
    assert gate.failed == 0
    assert all(math.isfinite(v["value"]) for v in metrics.values())
