import sys
from pathlib import Path

import pytest

import translocsearch as ts
from translocsearch import cli

from helpers import EX2_X, EX2_Y, encode_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import LAYER_CALLS, Tracer  # noqa: E402


def test_match_ends_all_engines():
    for algo in ("naive", "dp", "dawg"):
        assert ts.match_ends(EX2_X, EX2_Y, algo) == [12]
        assert ts.match_ends("ab", "abba", algo) == [2, 4]


def test_match_ends_naive_limit():
    long_pattern = "abcd" * 4
    with pytest.raises(
        ValueError, match="naive engine refuses patterns longer than 12"
    ):
        ts.match_ends(long_pattern, long_pattern, "naive")
    assert ts.match_ends(long_pattern, long_pattern, "naive", naive_limit=16) == [16]


def test_match_ends_unknown_algo():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ts.match_ends("a", "a", "bogus")


def test_single_character_pattern_and_text():
    assert ts.match_ends("a", "a") == [1]
    assert ts.match_ends("a", "b") == []


def test_empty_text_is_empty_report_everywhere():
    pat, txt = encode_pair("ab", "")
    assert ts.naive_search(pat, txt).end_positions == ()
    assert ts.dp_search(pat, txt).end_positions == ()
    report, _ = ts.automaton_search(pat, txt)
    assert report.end_positions == ()


def test_text_with_only_unknown_symbols():
    assert ts.match_ends("ab", "zzzz") == []


def test_version_exposed():
    assert ts.__version__


def test_benchmark_tracer_sees_every_layer(tmp_path, capsys):
    """The benchmark times layers by swapping module globals; every traced
    call must stay reachable that way from both entry points."""
    fasta = tmp_path / "t.fa"
    fasta.write_text(f">r1\n{EX2_Y}\n>r2\n{EX2_Y[::-1]}\n")
    tracer = Tracer()
    tracer.install()
    try:
        for algo in ("dp", "dawg"):
            assert ts.match_ends(EX2_X, EX2_Y, algo) == [12]
            argv = ["search", "--pattern", EX2_X, "--fasta", str(fasta), "--algo", algo]
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    recorded = {tracer.names[i] for i in tracer.name_ids}
    assert recorded == {name for name, _, _ in LAYER_CALLS}
