import codecs
import contextlib
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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import translocsearch
from translocsearch import cli
from translocsearch.cli import (
    CSV_HEADER,
    bench_rows,
    main,
    parse_fasta,
    trial_seed,
)

from helpers import EX2_X, EX2_Y, rand_str, stdin_of


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

    def test_only_a_block_holding_a_gt_is_searched_for_a_record_start(self, monkeypatch):
        """A 30 000-symbol record in 60 columns spans 30 blocks; only the
        first holds a '>'.  With a '>' symbol in a later block and a second
        record after the first, those two blocks are searched too."""
        real, searches = cli.RECORD_START, []

        class Spy:
            def search(self, *args):
                searches.append(args)
                return real.search(*args)

        monkeypatch.setattr(cli, "RECORD_START", Spy())
        seq = "ACGT" * 7500
        lines = [seq[p : p + 60] for p in range(0, len(seq), 60)]
        with_gt = [*lines[:250], lines[250][:30] + ">" + lines[250][31:], *lines[251:]]
        for body, expected, calls in (
            (lines, [("r", seq)], 1),
            ([*with_gt, ">s x", "GATTACA"], [("r", "".join(with_gt)), ("s", "GATTACA")], 3),
        ):
            searches.clear()
            text = ">r\n" + "\n".join(body) + "\n"
            records = [(r.id, "".join(r.chunks)) for r in parse_fasta(io.StringIO(text))]
            assert records == expected
            assert len(searches) == calls


def reference_fasta(text: str) -> tuple[list[tuple[str, str]], str | None]:
    """The records of ``text`` by the documented rules, line by line, and
    the message of the error that ends them, if any: a line (split on
    '\\n') whose first non-blank character is '>' opens a record whose ID
    is the first word after the '>'; the record's sequence is its other
    lines with all whitespace removed."""
    records, error = [], None  # (ID, sequence lines)
    for line in text.split("\n"):
        head = line.lstrip()
        if head.startswith(">"):
            words = head[1:].split(maxsplit=1)
            if not words:
                error = "empty FASTA header"
                break
            records.append((words[0], []))
        elif records:
            records[-1][1].append("".join(line.split()))
        elif head:
            error = "missing FASTA header"
            break
    return [(record_id, "".join(lines)) for record_id, lines in records], error


@settings(max_examples=1000, deadline=None)
@given(st.booleans(), st.text(alphabet="Ac> \t\r\nx\xa0\x0c\x1c", max_size=40))
@example(True, "r x\nAB>A\n  >r2\nBA\n")
@example(False, " \xa0>\x1c\n>a")
def test_parse_fasta_follows_the_line_rules(leading_gt, body):
    """At any block size, ``parse_fasta`` gives the records of the line
    rules, up to the error that ends them, with the same message."""
    text = ">" * leading_gt + body
    expected = reference_fasta(text)
    for chunk_chars in (1, 2, 3, 7, cli.CHUNK_CHARS):
        records, error = [], None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "CHUNK_CHARS", chunk_chars)
            try:
                for record in parse_fasta(io.StringIO(text)):
                    records.append((record.id, "".join(record.chunks)))
            except ValueError as exc:
                error = str(exc)
        assert (records, error) == expected, chunk_chars


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

    @pytest.mark.parametrize(
        "fasta, hits",
        [(">r1\nabbaab\n>none\nzzzz\n>r\"3\\\u00e9 x\nbaab\n", 5), (">a\nzz\n>b\n\n", 0)],
        ids=["hits", "no-hits"],
    )
    def test_json_is_json_dump_of_the_hits(self, tmp_path, capsys, fasta, hits):
        """JSON output is byte for byte ``json.dump`` of one object per TSV
        line, record IDs escaped as JSON strings, ``[]`` without hits."""
        path = tmp_path / "r.fa"
        path.write_text(fasta, encoding="utf-8")
        argv = ["search", "--pattern", "ab", "--fasta", str(path)]
        assert main(argv) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        expected = io.StringIO()
        json.dump([{"record": rid, "end": int(end)} for rid, end in rows], expected)
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == expected.getvalue() + "\n"
        assert len(rows) == hits

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
        monkeypatch.setattr("sys.stdin", stdin_of(EX2_Y + "\n"))
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
            monkeypatch.setattr("sys.stdin", stdin_of(text))
            for source in (["--text", text], ["--text-file", str(path)], ["--text-file", "-"]):
                assert main(["search", "--pattern", pattern, *source]) == 0
                outputs.add(capsys.readouterr().out.replace(str(path), "stdin"))
        assert outputs == {"stdin\t4\nstdin\t12\n"}

    @pytest.mark.parametrize("pattern, text", [("A", "ßA"), ("ß", "xßA")])
    def test_uppercasing_keeps_the_input_positions(self, capsys, pattern, text):
        """ß uppercases to SS; it stays as it is, so ends count the input's
        symbols."""
        assert main(["search", "--pattern", pattern, "--text", text]) == 0
        assert capsys.readouterr().out == "stdin\t2\n"

    def test_symbols_with_longer_uppercase_keep_their_place_in_every_source(
        self, tmp_path, monkeypatch, capsys
    ):
        """ß (two bytes) and ﬁ (three) uppercase to SS and FI; files read
        in 1 KiB or 3-byte blocks give the ends of ``--text``."""
        rng = random.Random(23)
        seq = "".join(rng.choice("aßﬁ") for _ in range(600))
        pattern = seq[300:308]
        # a becomes A, and ß and ﬁ stay as they are
        ends = translocsearch.match_ends(pattern.replace("a", "A"), seq.replace("a", "A"))
        assert ends
        fasta = tmp_path / "r.fa"
        fasta.write_text(">r\n" + "".join(seq[p : p + 60] + "\n" for p in range(0, 600, 60)),
                         encoding="utf-8")
        text = tmp_path / "t.txt"
        text.write_text(seq, encoding="utf-8")
        sources = (("--text", seq, "stdin"), ("--fasta", fasta, "r"), ("--text-file", text, text))
        for chunk_chars in (cli.CHUNK_CHARS, 3):
            monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
            for source, value, record in sources:
                assert main(["search", "--pattern", pattern, source, str(value)]) == 0
                out = capsys.readouterr().out
                assert out == "".join(f"{record}\t{end}\n" for end in ends), (chunk_chars, source)

    @pytest.mark.parametrize("chunk_chars", [cli.CHUNK_CHARS, 1])
    def test_byte_order_mark_before_a_fasta_header_is_skipped(
        self, tmp_path, monkeypatch, capsys, chunk_chars
    ):
        monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
        path = tmp_path / "bom.fa"
        path.write_bytes(codecs.BOM_UTF8 + b">r\nACGT\n")
        assert main(["search", "--pattern", "CG", "--fasta", str(path)]) == 0
        assert capsys.readouterr().out == "r\t3\n"

    @pytest.mark.parametrize("chunk_chars", [cli.CHUNK_CHARS, 1])
    def test_byte_order_mark_of_a_text_file_is_no_symbol(
        self, tmp_path, monkeypatch, capsys, chunk_chars
    ):
        monkeypatch.setattr(cli, "CHUNK_CHARS", chunk_chars)
        path = tmp_path / "bom.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"ACGT")
        assert main(["search", "--pattern", "CG", "--text-file", str(path)]) == 0
        assert capsys.readouterr().out == f"{path}\t3\n"

    def test_byte_order_mark_of_a_pattern_file_is_no_symbol(self, tmp_path, capsys):
        path = tmp_path / "pat.txt"
        path.write_bytes(codecs.BOM_UTF8 + b"CG\n")
        assert main(["search", "--pattern-file", str(path), "--text", "ACGT"]) == 0
        assert capsys.readouterr().out == "stdin\t3\n"


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

    def test_rows_are_pinned(self, capsys):
        """The counters of a seeded run, as first recorded; any change to
        the engines or the symbols drawn shows here."""
        argv = ["bench", "--m", "4,16", "--n", "500", "--sigma", "4",
                "--trials", "2", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            f"{CSV_HEADER}\n"
            "4,500,4,12885164032,434,75,756,511,1.512000\n"
            "4,500,4,12885164033,455,53,630,425,1.260000\n"
            "16,500,4,12885950464,385,283,2273,1409,1.136500\n"
            "16,500,4,12885950465,402,391,2889,1880,1.444500\n"
        )

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
        "option", [["--m", "0,4"], ["--m", ","], ["--trials", "0"], ["--trials", "65537"]],
        ids=["m-zero", "m-empty", "trials-zero", "trials-65537"],
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

    @pytest.mark.parametrize(
        "m, trials, seed, message",
        [
            (65536, 1, 0, "pattern lengths must be in"),
            (4, 65537, 0, "trials must be in"),
            (4, 1, -1, "seed must be in"),
            (4, 1, 1 << 32, "seed must be in"),
        ],
        ids=["m-65536", "trials-65537", "seed-negative", "seed-2^32"],
    )
    def test_values_beyond_the_seed_fields_are_refused(self, m, trials, seed, message):
        """`trial_seed` keeps 16 bits of m and of the trial and 32 of the
        seed, so past these bounds a trial would repeat another's pattern
        and text; the check comes before any trial runs."""
        with pytest.raises(ValueError, match=message):
            bench_rows([m], n=m, sigma=4, trials=trials, seed=seed)

    def test_values_at_the_seed_fields_bounds_are_accepted(self):
        rows = [bench_rows([4], n=8, sigma=4, trials=1, seed=s)[0] for s in (0, (1 << 32) - 1)]
        assert rows[0].seed != rows[1].seed
        assert trial_seed((1 << 32) - 1, 65535, 65535) == (1 << 64) - 1


def cold_import_loads(module: str, *flags: str) -> bool:
    """Whether a fresh interpreter, started with ``flags``, that imports the
    CLI has ``module`` loaded."""
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, translocsearch.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout.strip() == "True"


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "latin-1"}, {"LC_ALL": "C"}],
                         ids=["latin-1", "C-locale"])
def test_stdin_is_read_as_utf8_whatever_the_locale(tmp_path, env):
    """stdin gives what a file of the same bytes gives: a two-byte symbol
    is one symbol, and invalid UTF-8 exits 2 with the file's message."""
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env)
    argv = [sys.executable, "-m", "translocsearch.cli", "search", "--pattern", "AC", "--text-file"]
    path = tmp_path / "t.txt"
    outcomes = []
    for data in ("ééAC".encode("utf-8"), b"AC\xffGT"):
        path.write_bytes(data)
        from_file = subprocess.run([*argv, str(path)], env=env, capture_output=True)
        from_stdin = subprocess.run([*argv, "-"], input=data, env=env, capture_output=True)
        out = from_file.stdout.replace(bytes(path), b"stdin")
        assert (from_stdin.returncode, from_stdin.stdout, from_stdin.stderr) == (
            from_file.returncode, out, from_file.stderr
        )
        outcomes.append(from_stdin)
    good, bad = outcomes
    assert (good.returncode, good.stdout, good.stderr) == (0, b"stdin\t4\n", b"")
    assert (bad.returncode, bad.stdout) == (2, b"")
    assert bad.stderr.startswith(b"utd: error: 'utf-8' codec can't decode")


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


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_importing_cli_leaves_introspection_unloaded(module):
    """Importing ``dataclasses`` loads ``inspect``, a cost paid at every
    start of `utd`; no module of the package needs either. ``-S`` keeps the
    environment's site hooks, which may import them, out of the graph."""
    assert not cold_import_loads(module, "-S")


def test_repeated_searches_build_the_parser_once(monkeypatch, capsys):
    """Plain searches build no parser; the forms that the one pass turns
    down share one parser, and each call still parses its own arguments."""
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
        assert len(built) == 0
        for algo in ("dp", "dawg"):
            assert main(["search", f"--pattern={EX2_X}", "--text", EX2_Y, "--algo", algo]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    out = capsys.readouterr().out
    assert out == "stdin\t12\n" * 3 + '[{"record": "stdin", "end": 12}]\n' + "stdin\t12\n" * 2


def test_a_plain_search_loads_neither_argparse_nor_json():
    """A fresh interpreter that runs `cli.main` on a plain TSV search loads
    neither ``argparse`` nor ``json``, nor ``math`` and ``random``, which
    only `utd bench` needs; ``--format json`` then writes ``json.dump``'s
    text."""
    src = str(Path(translocsearch.__file__).resolve().parents[1])
    code = (
        "import sys, translocsearch.cli as cli\n"
        "argv = ['search', '--pattern', 'ab', '--text', 'abba']\n"
        "assert cli.main(argv) == 0\n"
        "print(*(m in sys.modules for m in ('argparse', 'json', 'math', 'random')))\n"
        "assert cli.main([*argv, '--format', 'json']) == 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines(keepends=True)
    assert lines[:2] == ["stdin\t2\n", "stdin\t4\n"]
    assert lines[2] == "False False False False\n"
    expected = io.StringIO()
    json.dump([{"record": "stdin", "end": end} for end in (2, 4)], expected)
    assert lines[3:] == [expected.getvalue() + "\n"]


SEARCH_FLAGS = [option.flag for option in cli.SEARCH_OPTIONS]
GROUPS = [[option.flag for option in cli.SEARCH_OPTIONS if option.group == group]
          for group in ("pattern", "text")]
CHOICES = [choice for option in cli.SEARCH_OPTIONS for choice in option.choices or ()]
VALUES = ["", "-", "-x", "-5", "a b", "-a b", *SEARCH_FLAGS, *CHOICES, "fast"]
# the values that each flag takes
FITS = {option.flag: option.choices or ("", "-", "a b") for option in cli.SEARCH_OPTIONS}
NEAR_MISSES = ["--pat", "--pattern=ab", "-h", "--", "bench"]
TOKENS = [*SEARCH_FLAGS, *NEAR_MISSES, *VALUES]


@st.composite
def near_plain_argvs(draw) -> list[str]:
    """`search` and one member of each required group, maybe more flags (a
    repeat or a second member too), in any order, each followed by a value
    that fits it (three times in four) or by any of VALUES; then up to two
    tokens inserted, replaced or dropped."""
    flags = [draw(st.sampled_from(group)) for group in GROUPS]
    flags += draw(st.lists(st.sampled_from(SEARCH_FLAGS), max_size=2))
    argv = ["search"]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.sampled_from(FITS[flag] if draw(st.integers(0, 3)) else VALUES))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv) - 1))
        how = draw(st.sampled_from(("insert", "replace", "drop")))
        if how == "drop":
            del argv[i]
        else:
            argv[i : i + (how == "replace")] = [draw(st.sampled_from(TOKENS))]
    return argv


def argparse_vars(argv: list[str]) -> dict | None:
    """``vars`` of argparse's namespace for ``argv``, None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=500, deadline=None)
@given(near_plain_argvs())
@example(["search", "--pattern", "ab", "--text-file", "-"])
@example(["search", "--pattern", "ab", "--text", ""])
@example(["search", "--pattern", "ab", "--text", "b", "--algo", "dp", "--algo", "dp"])
@example(["search", "--pattern", "ab", "--format", "json"])
def test_the_one_pass_builds_argparses_namespace(argv):
    """Wherever ``plain_search`` returns a namespace, argparse returns one
    with the same ``vars``; wherever argparse exits, it returns None; and
    wherever argparse takes a plain form, it takes it too."""
    args, parsed = cli.plain_search(argv), argparse_vars(argv)
    if args is not None:
        assert parsed == vars(args)
    elif parsed is not None:
        # argparse also takes forms that the one pass leaves to it, but no plain one
        flags, values = argv[1::2], argv[2::2]
        assert not (argv[0] == "search" and len(flags) == len(values) == len(set(flags))
                    and set(flags) <= set(SEARCH_FLAGS)
                    and all(v in ("", "-") or not v.startswith("-") for v in values))


@pytest.mark.parametrize("argv, plain", [
    (["search", "--pattern", "ab", "--text", "abba"], True),
    (["search", "--pattern-file", "p", "--fasta", "f.fa", "--algo", "naive", "--format", "json"],
     True),
    (["search", "--pattern", "ab", "--text-file", "-"], True),
    (["search", "--pattern", "", "--text", ""], True),
    (["search", "--pattern=ab", "--text", "abba"], False),
    (["search", "--pat", "ab", "--text", "abba"], False),
    (["search", "--", "--pattern", "ab", "--text", "abba"], False),
    (["search", "--pattern", "-x", "--text", "abba"], False),
    (["search", "--pattern", "ab", "--text", "abba", "--algo", "dp", "--algo", "dp"], False),
    (["search", "--pattern", "ab", "--text", "abba", "--algo", "fast"], False),
    (["search", "--pattern", "ab", "--pattern-file", "p", "--text", "abba"], False),
    (["search", "--pattern", "ab"], False),
    (["search", "-h"], False),
    (["bench", "--m", "4", "--n", "8"], False),
    ([], False),
])
def test_the_one_pass_takes_only_plain_pairs(argv, plain):
    assert (cli.plain_search(argv) is not None) == plain
