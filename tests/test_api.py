import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import translocsearch as ts
from translocsearch import cli

from helpers import EX2_X, EX2_Y, rand_str

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import hk_pairs, scan_lengths  # noqa: E402
from tracing import LAYER_CALLS, Tracer  # noqa: E402


def test_match_ends_all_engines():
    for algo in ("naive", "dp", "dawg"):
        assert ts.match_ends(EX2_X, EX2_Y, algo) == [12]
        assert ts.match_ends("ab", "abba", algo) == [2, 4]


def test_match_ends_naive_refuses_long_patterns():
    for text in ("", "abc", "abcdefghijklm" * 2, ["abc", "d"]):
        with pytest.raises(
            ValueError, match="naive engine refuses patterns longer than 12"
        ):
            ts.match_ends("abcdefghijklm", text, "naive")


def test_match_ends_unknown_algo():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ts.match_ends("a", "a", "bogus")


@pytest.mark.parametrize("algo", ["naive", "dp", "dawg"])
@pytest.mark.parametrize("text", ["abc", ["ab", "c"]], ids=["string", "chunks"])
def test_match_ends_rejects_empty_pattern(algo, text):
    with pytest.raises(ValueError, match="empty pattern"):
        ts.match_ends("", text, algo)


def test_single_character_pattern_and_text():
    assert ts.match_ends("a", "a") == [1]
    assert ts.match_ends("a", "b") == []


def test_empty_text_is_empty_report_everywhere():
    """Every search returns a plain list of 1-based ends, the same one."""
    for y, expected in ((EX2_Y, [12]), ("", [])):
        results = [
            ts.naive_search(EX2_X, y),
            ts.dp_search(EX2_X, y),
            ts.automaton_search(EX2_X, y, count=True)[0],
            ts.automaton_search(EX2_X, y, count=False)[0],
        ] + [ts.match_ends(EX2_X, y, algo) for algo in ("naive", "dp", "dawg")]
        for ends in results:
            assert type(ends) is list
            assert ends == expected, y


TEXTS = {
    "random": lambda rng, pattern, n: rand_str(rng, 3, n),
    "unary": lambda rng, pattern, n: pattern[0] * n,
    "period-2": lambda rng, pattern, n: (pattern[0] + pattern[-1]) * (n // 2),
    # x and y are never pattern symbols: as codes they get the alphabet's size
    "foreign": lambda rng, pattern, n: "".join(rng.choice("abxy") for _ in range(n)),
}


@pytest.mark.parametrize("kind", sorted(TEXTS))
def test_engines_read_symbols_as_they_read_codes(kind):
    """Every engine gives the same results, counters included, on a ``str``
    pattern and text as on their int codes."""
    rng = random.Random(kind)
    hits = 0
    for trial in range(150):
        m = 1 if trial % 5 == 0 else rng.randint(2, 8)
        pattern = rand_str(rng, 3, m)
        text = TEXTS[kind](rng, pattern, rng.randint(0, 40))
        alphabet = ts.infer_alphabet(pattern)
        pat, txt = ts.encode(pattern, alphabet), ts.encode(text, alphabet)
        ends = ts.dp_search(pattern, text)
        assert ends == ts.dp_search(pat, txt), (pattern, text)
        assert ts.automaton_search(pattern, text) == ts.automaton_search(pat, txt)
        assert ts.naive_search(pattern, iter(text)) == ts.naive_search(pat, txt) == ends
        hits += len(ends)
    assert hits > 0


def test_text_with_only_unknown_symbols():
    assert ts.match_ends("ab", "zzzz") == []


def test_version_exposed():
    assert ts.__version__


def test_benchmark_tracer_sees_every_layer(tmp_path, capsys):
    """The benchmark times layers by swapping module globals; every traced
    call must stay reachable that way from both entry points, and neither
    engine may run through the other's layer (`SearchState` inherits
    `DpColumns.push`).  The engines read symbols as they come, so no
    search calls `encode`; it stays importable for the benchmark."""
    fasta = tmp_path / "t.fa"
    # r3's windows are rotations of the pattern, each cheap to check
    fasta.write_text(f">r1\n{EX2_Y}\n>r2\n{EX2_Y[::-1]}\n>r3\n{EX2_X * 3}\n")
    # windows of A^(m-1)B text are costly to check: they exhaust the check
    # budget of their cluster, so the engines run
    crowded_pattern = "a" * 11 + "c"
    crowded = tmp_path / "crowded.fa"
    crowded.write_text(f">r4\n{crowded_pattern * 3}\n")
    other_layer = {"dp": "automaton.SearchState.step", "dawg": "dp.DpColumns.push"}
    per_pass = {}
    tracer = Tracer()
    tracer.install()
    try:
        for algo in ("dp", "dawg"):
            first = tracer.span_count
            assert ts.match_ends(EX2_X, EX2_Y, algo) == [12]
            for pattern, path in ((EX2_X, fasta), (crowded_pattern, crowded)):
                argv = ["search", "--pattern", pattern, "--fasta", str(path), "--algo", algo]
                assert cli.main(argv) == 0
            per_pass[algo] = {tracer.names[i] for i in tracer.name_ids[first:]}
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    recorded = {tracer.names[i] for i in tracer.name_ids}
    assert "seqcore.encode" not in recorded
    assert recorded == {name for name, _, _ in LAYER_CALLS} - {"seqcore.encode"}
    for algo, names in per_pass.items():
        assert other_layer[algo] not in names, algo


def test_search_paths_do_not_count(tmp_path, monkeypatch):
    def refuse(self, counter):
        raise AssertionError("a search path ran the work tally")

    monkeypatch.setattr(ts.SearchState, "tally", refuse)
    assert ts.match_ends(EX2_X, EX2_Y, "dawg") == [12]
    fasta = tmp_path / "t.fa"
    fasta.write_text(f">r1\n{EX2_Y}\n")
    assert cli.main(["search", "--pattern", EX2_X, "--fasta", str(fasta)]) == 0


def test_endpos_queries_equal_the_benchmark_pair_count():
    text = EX2_Y * 5 + EX2_X[::-1] * 3
    d = ts.build_dawg(EX2_X)
    _, counter = ts.automaton_search(EX2_X, text, d)
    # the benchmark's scan reads any sequence of symbols, passed as its codes
    lengths = scan_lengths(ts, d, SimpleNamespace(codes=text))
    assert counter.endpos_queries == hk_pairs(lengths, len(EX2_X)) > 0
