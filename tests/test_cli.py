import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import translocsearch
from translocsearch.cli import (
    CSV_HEADER,
    bench_rows,
    main,
    parse_fasta,
    trial_seed,
)

from helpers import EX2_X, EX2_Y, rand_str


class TestParseFasta:
    def test_concatenation_and_uppercase(self):
        records = parse_fasta(io.StringIO(">r1\nacg\nt\n"))
        assert [(r.id, r.sequence) for r in records] == [("r1", "ACGT")]

    def test_empty_record_allowed(self):
        records = parse_fasta(io.StringIO(">a\n>b\nGG\n"))
        assert [(r.id, r.sequence) for r in records] == [("a", ""), ("b", "GG")]

    def test_sequence_before_header_rejected(self):
        with pytest.raises(ValueError, match="missing FASTA header"):
            parse_fasta(io.StringIO("acgt\n"))

    def test_blank_lines_ignored_and_id_is_first_token(self):
        records = parse_fasta(io.StringIO(">seq1 description here\n\nac\n\ngt\n"))
        assert records[0].id == "seq1"
        assert records[0].sequence == "ACGT"

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError, match="empty FASTA header"):
            parse_fasta(io.StringIO(">\nacgt\n"))


class TestSearchCommand:
    def test_example_strings_tsv(self, capsys):
        code = main(
            ["search", "--pattern", EX2_X, "--text", EX2_Y, "--algo", "dawg"]
        )
        assert code == 0
        assert capsys.readouterr().out == "stdin\t12\n"

    def test_json_format(self, capsys):
        code = main(
            ["search", "--pattern", EX2_X, "--text", EX2_Y, "--format", "json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == [
            {"record": "stdin", "end": 12}
        ]

    def test_fasta_records_independent(self, tmp_path, capsys):
        fasta = tmp_path / "two.fa"
        fasta.write_text(">one\nabc\n>two\nxyz\n")
        code = main(["search", "--pattern", "abc", "--fasta", str(fasta)])
        assert code == 0
        assert capsys.readouterr().out == "one\t3\n"

    def test_pattern_longer_than_records(self, tmp_path, capsys):
        fasta = tmp_path / "short.fa"
        fasta.write_text(">one\nab\n>two\nc\n")
        code = main(["search", "--pattern", "abcde", "--fasta", str(fasta)])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_text_file_source(self, tmp_path, capsys):
        text = tmp_path / "text.txt"
        text.write_text(EX2_Y + "\n")
        code = main(["search", "--pattern", EX2_X, "--text-file", str(text)])
        assert code == 0
        assert capsys.readouterr().out == f"{text}\t12\n"

    def test_pattern_file_source(self, tmp_path, capsys):
        pat = tmp_path / "pat.txt"
        pat.write_text(EX2_X + "\n")
        code = main(["search", "--pattern-file", str(pat), "--text", EX2_Y])
        assert code == 0
        assert capsys.readouterr().out == "stdin\t12\n"

    def test_stdin_text_source(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(EX2_Y + "\n"))
        code = main(["search", "--pattern", EX2_X, "--text-file", "-"])
        assert code == 0
        assert capsys.readouterr().out == "stdin\t12\n"

    def test_missing_file_fails(self, capsys):
        code = main(["search", "--pattern", "ab", "--text-file", "/nonexistent"])
        assert code == 2

    def test_empty_pattern_fails(self, capsys):
        assert main(["search", "--pattern", "", "--text", "abc"]) == 2

    def test_naive_engine_limit(self, capsys):
        long_pattern = "abcd" * 4
        code = main(
            ["search", "--pattern", long_pattern, "--text", long_pattern,
             "--algo", "naive"]
        )
        assert code == 2
        code = main(
            ["search", "--pattern", long_pattern, "--text", long_pattern,
             "--algo", "naive", "--naive-limit", "16"]
        )
        assert code == 0

    def test_engines_agree_through_cli(self, capsys):
        rng = random.Random(19)
        for _ in range(10):
            x = rand_str(rng, 3, rng.randint(1, 6))
            y = rand_str(rng, 3, rng.randint(0, 30))
            outputs = []
            for algo in ("naive", "dp", "dawg"):
                assert main(
                    ["search", "--pattern", x, "--text", y, "--algo", algo]
                ) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1] == outputs[2], (x, y)

    def test_fasta_search_is_case_insensitive(self, tmp_path, capsys):
        fasta = tmp_path / "lower.fa"
        fasta.write_text(">r\nabc\n")
        assert main(["search", "--pattern", "ABC", "--fasta", str(fasta)]) == 0
        assert capsys.readouterr().out == "r\t3\n"


class TestBenchCommand:
    def test_row_count_and_header(self, capsys):
        code = main(
            ["bench", "--m", "4,8", "--n", "200", "--sigma", "4",
             "--trials", "3", "--seed", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 3

    def test_deterministic_given_seed(self, capsys):
        argv = ["bench", "--m", "4,8", "--n", "300", "--sigma", "4",
                "--trials", "2", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_different_seeds_differ(self, capsys):
        base = ["bench", "--m", "8", "--n", "500", "--sigma", "2",
                "--trials", "1"]
        main(base + ["--seed", "1"])
        first = capsys.readouterr().out
        main(base + ["--seed", "2"])
        assert capsys.readouterr().out != first

    def test_invalid_sigma(self, capsys):
        assert main(["bench", "--m", "4", "--n", "100", "--sigma", "1"]) == 2

    def test_text_shorter_than_pattern(self, capsys):
        assert main(["bench", "--m", "64", "--n", "10", "--sigma", "4"]) == 2

    def test_rows_carry_finite_costs(self):
        rows = bench_rows([4, 16], n=500, sigma=4, trials=2, seed=3)
        assert len(rows) == 4
        for idx, row in enumerate(rows):
            assert row.normalized_cost >= 0.0
            assert row.inner_iterations >= 0
            assert row.seed == trial_seed(3, row.m, idx % 2)

    def test_trial_seeds_distinct(self):
        seeds = {
            trial_seed(42, m, t) for m in (16, 64, 256) for t in range(5)
        }
        assert len(seeds) == 15


def test_importing_cli_leaves_numpy_unloaded():
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, translocsearch.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
