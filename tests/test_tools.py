"""The measurement scripts under ``tools/`` still run against this checkout."""
import importlib.util
import math
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_probe_costs_prints_every_row(monkeypatch, capsys):
    """`tools/probe_costs.py` with one call per probe, check and FASTA
    file (about a second): every row of the short-read split, the
    distinct-symbol case, the mixed-alphabet patterns, the worst-case
    texts, the periodic-dense checks, both ways, the fixed cost of
    `cli.main` for both argv forms and the steps of the FASTA path is
    printed with a number."""
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts perfbench/ first
    spec = importlib.util.spec_from_file_location("probe_costs", TOOLS / "probe_costs.py")
    probe_costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe_costs)
    assert probe_costs.main(["--repeat", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for row in ("set-up", "filter", "checks", "total",
                "match_ends on 300 distinct symbols", "symbol_masks build"):
        assert any(line.lstrip().startswith(row) for line in lines), row
    mixed = [line.rsplit(maxsplit=1) for line in lines if line.lstrip().startswith(("plain", "last "))]
    assert [name.strip() for name, _ in mixed] == ["plain", "last ?", "last U+20AC", "last U+4E00"]
    assert all(float(value) > 0 for _, value in mixed)
    worst = [line.rsplit(maxsplit=1) for line in lines if line.lstrip().startswith(("A^k B", "defect"))]
    assert [name.strip() for name, _ in worst] == [
        "A^k B, m = 32", "A^k B, m = 64", "defect, m = 32", "defect, m = 64", "defect, m = 128",
        "defect every 48, m = 64"]
    assert all(float(value) > 0 for _, value in worst)
    rows = [line.split() for line in lines if "images (" in line]
    assert [row[-2] for row in rows] == ["find", "masks"] * 2
    assert all(float(row[-1]) > 0 for row in rows)
    fixed = [line.rsplit(maxsplit=1) for line in lines if line.lstrip().startswith(("one-pass", "declined"))]
    assert [name.strip() for name, _ in fixed] == ["one-pass argv", "declined argv"]
    assert all(float(value) > 0 for _, value in fixed)
    fasta = [line.rsplit(maxsplit=1) for line in lines[-5:]]  # the FASTA path, printed last
    assert [name.strip() for name, _ in fasta] == [
        "read and decode", "header search", "strip and _upper", "_count_marks", "rest of match_ends"]
    assert all(math.isfinite(float(value)) for _, value in fasta)
