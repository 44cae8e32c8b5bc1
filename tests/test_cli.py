import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import translocsearch
from translocsearch import cli
from translocsearch.cli import (
    CSV_HEADER,
    bench_rows,
    main,
    parse_fasta,
    trial_seed,
)

from helpers import EX2_X, EX2_Y, rand_str


class TestParseFasta:
    def test_concatenation_keeps_case(self):
        records = parse_fasta(io.StringIO(">r1\nacg\nT\n"))
        assert [(r.id, "".join(r.chunks)) for r in records] == [("r1", "acgT")]

    def test_empty_record_allowed(self):
        records = parse_fasta(io.StringIO(">a\n>b\nGG\n"))
        assert [(r.id, "".join(r.chunks)) for r in records] == [("a", ""), ("b", "GG")]

    def test_sequence_before_header_rejected(self):
        with pytest.raises(ValueError, match="missing FASTA header"):
            list(parse_fasta(io.StringIO("acgt\n")))

    def test_blank_lines_ignored_and_id_is_first_token(self):
        record = next(parse_fasta(io.StringIO(">seq1 description here\n\nac\n\ngt\n")))
        assert record.id == "seq1"
        assert "".join(record.chunks) == "acgt"

    def test_whitespace_lines_before_the_first_header(self, tmp_path, capsys):
        body = ">a x\nGATTACA\n>b\nCAGATTA\n"
        outputs = []
        for lead in ("", "\n  \n\t\n"):
            records = parse_fasta(io.StringIO(lead + body))
            assert [(r.id, "".join(r.chunks)) for r in records] == [
                ("a", "GATTACA"), ("b", "CAGATTA")
            ]
            fasta = tmp_path / f"lead{len(lead)}.fa"
            fasta.write_text(lead + body)
            assert main(["search", "--pattern", "gattaca", "--fasta", str(fasta)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == ["a\t7\nb\t7\n"] * 2

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError, match="empty FASTA header"):
            list(parse_fasta(io.StringIO(">\nacgt\n")))

    def test_only_a_line_start_opens_a_record(self, monkeypatch):
        # in 3-character pieces, ">z" continues a header line and ">T" a
        # sequence line
        monkeypatch.setattr(cli, "CHUNK_CHARS", 3)
        records = parse_fasta(io.StringIO(">r1 xy>z\nacg>t\n>r2\nA\n"))
        assert [(r.id, "".join(r.chunks)) for r in records] == [
            ("r1", "acg>t"), ("r2", "A")
        ]

    def test_taking_the_next_record_skips_unread_lines(self, monkeypatch):
        """Also in 3-character blocks, where the first chunk of b is "GG"."""
        for chunk_chars in (cli.CHUNK_CHARS, 3):
            monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
            records = parse_fasta(io.StringIO(">a\nAC\n>b\nGG\nTT\n>c\nC\n"))
            first = next(records)
            assert first.id == "a"
            second = next(records)
            read = next(filter(None, second.chunks))
            assert second.id == "b" and "GGTT".startswith(read)
            assert [(r.id, "".join(r.chunks)) for r in records] == [("c", "C")]
            assert "".join(first.chunks) == "".join(second.chunks) == ""

    @pytest.mark.parametrize("chunk_chars", [cli.CHUNK_CHARS, 3])
    def test_a_record_opens_at_a_lines_first_non_blank_character(
        self, tmp_path, monkeypatch, chunk_chars
    ):
        """Blanks may precede the '>', and lines may end in CRLF; a file is
        read with universal newlines, so a lone CR ends a line there too."""
        monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
        expected = [("a", "AC"), ("b", "GG")]
        for text in (">a\nAC\n  >b\nGG\n", ">a\r\nAC\r\n  >b\r\nGG\r\n", "\t>a\nAC\n \t>b x\nG\n G\n"):
            records = parse_fasta(io.StringIO(text))
            assert [(r.id, "".join(r.chunks)) for r in records] == expected, text
        for raw in (b">a\r\nAC\r\n  >b\r\nGG\r\n", b">a\rAC\r  >b\rGG\r"):
            path = tmp_path / "records.fa"
            path.write_bytes(raw)
            with cli._open_text(str(path)) as fh:
                assert [(r.id, "".join(r.chunks)) for r in parse_fasta(fh)] == expected, raw

    @pytest.mark.parametrize("chunk_chars", [cli.CHUNK_CHARS, 3])
    def test_header_memory_is_flat_in_description_length(
        self, tmp_path, monkeypatch, chunk_chars
    ):
        """Of a header line longer than a block only what can hold the ID
        is kept, however long the ID."""
        monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
        long_id = "i" * 3000
        peaks = []
        for length in (1_000, 100_000):
            path = tmp_path / f"{length}.fa"
            path.write_text(
                f">id1 {'d' * length}\nGATTACA\n>  id2\t{'x ' * length}\nACGT\n"
                f">{long_id} {'d' * length}\nTT\n"
            )
            gc.collect()
            tracemalloc.start()
            try:
                with cli._open_text(str(path)) as fh:
                    records = [(r.id, "".join(r.chunks)) for r in parse_fasta(fh)]
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert records == [("id1", "GATTACA"), ("id2", "ACGT"), (long_id, "TT")]
        assert peaks[1] - peaks[0] < 4 * 1024, peaks

    def test_a_record_is_read_in_blocks_not_lines(self, tmp_path):
        seq = "ACGT" * 7500
        text = ">r\n" + "".join(seq[p : p + 60] + "\n" for p in range(0, len(seq), 60))
        path = tmp_path / "r.fa"
        path.write_text(text)
        with cli._open_text(str(path)) as fh:
            for source in (io.StringIO(text), fh):
                records = parse_fasta(source)
                chunks = list(next(records).chunks)
                assert next(records, None) is None
                assert "".join(chunks) == seq
                assert len(chunks) <= math.ceil(len(seq) / cli.CHUNK_CHARS) + 1


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

    @pytest.mark.parametrize("source", ["--pattern", "--pattern-file"])
    def test_pattern_with_a_line_break_fails(self, tmp_path, capsys, source):
        # a line break would never match in FASTA, whose lines lose theirs
        fasta = tmp_path / "r.fa"
        fasta.write_text(">r\nACGTTTGA\nCCACGT\nTTGA\n")
        pattern = "ACGT\nTTGA"
        if source == "--pattern-file":
            path = tmp_path / "pat.txt"
            path.write_text(pattern + "\n")
            pattern = str(path)
        assert main(["search", source, pattern, "--fasta", str(fasta)]) == 2
        assert capsys.readouterr() == (
            "", "utd: error: pattern may not contain a line break\n"
        )

    def test_naive_engine_limit(self, capsys):
        long_pattern = "abcdefghijklm"
        code = main(
            ["search", "--pattern", long_pattern, "--text", long_pattern,
             "--algo", "naive"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "utd: error: naive engine refuses patterns longer than 12\n"
        )
        with pytest.raises(SystemExit) as exc:
            main(["search", "--pattern", "ab", "--text", "ab", "--algo", "naive",
                  "--naive-limit", "16"])
        assert exc.value.code == 2

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

    def test_every_text_source_is_case_folded(self, tmp_path, monkeypatch, capsys):
        outputs = set()
        cases = (("cgt", "acgttgcaacgt"), ("cgt", "ACGTTGCAACGT"), ("CGT", "acgtTGCAacgt"))
        for pattern, text in cases:
            path = tmp_path / "t.txt"
            path.write_text(text + "\n")
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            for source in (["--text", text], ["--text-file", str(path)], ["--text-file", "-"]):
                assert main(["search", "--pattern", pattern, *source]) == 0
                outputs.add(capsys.readouterr().out.replace(str(path), "stdin"))
        assert outputs == {"stdin\t4\nstdin\t12\n"}


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

    @pytest.mark.parametrize(
        "option", [["--m", "0,4"], ["--m", ","], ["--trials", "0"]],
        ids=["m-zero", "m-empty", "trials-zero"],
    )
    def test_invalid_lengths_and_trials(self, capsys, option):
        argv = ["bench", "--m", "4", "--n", "100", "--sigma", "4", *option]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("utd: error: ")

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


def cold_import_loads(module: str) -> bool:
    """Whether a fresh interpreter that imports the CLI has ``module`` loaded."""
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, translocsearch.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout.strip() == "True"


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_closed_stdout_ends_the_search_quietly(tmp_path, fmt):
    """A reader that stops early (`utd search ... | head`) is no error: exit
    1, as in the Python documentation's handling of SIGPIPE, and nothing
    on stderr."""
    text = tmp_path / "t.txt"
    text.write_text("A" * 200_000)  # megabytes of hits, far more than a pipe holds
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    argv = ["search", "--pattern", "AAAA", "--text-file", str(text), "--format", fmt]
    with subprocess.Popen(
        [sys.executable, "-m", "translocsearch.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(64)  # a JSON array is one line of megabytes
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_importing_cli_leaves_numpy_unloaded():
    assert not cold_import_loads("numpy")


def test_importing_cli_leaves_gzip_unloaded():
    assert not cold_import_loads("gzip")


def test_repeated_searches_build_the_parser_once(monkeypatch, capsys):
    """`main` reuses one parser; each call still parses its own arguments."""
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for algo in ("dp", "dawg", "dp"):
            assert main(["search", "--pattern", EX2_X, "--text", EX2_Y, "--algo", algo]) == 0
        assert main(["search", "--pattern", EX2_X, "--text", EX2_Y, "--format", "json"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    out = capsys.readouterr().out
    assert out == "stdin\t12\n" * 3 + '[{"record": "stdin", "end": 12}]\n'
