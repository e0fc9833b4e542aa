"""README is a contract: its "Output records" table and its examples hold.

Every command runs in process through cli.main on seeded inputs named as in
README; the shell loops are only parsed, so no full grid runs here.
"""

import json
import re
import shlex
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from igci.cli import EXIT_OK, build_parser, main
from igci.simulation import substream

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The text of README's section `title`, up to the next heading of any level."""
    return re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^#)", README, re.M | re.S).group(1)


def _fenced_blocks(text: str) -> list:
    return re.findall(r"^```\w*\n(.*?)^```", text, re.M | re.S)


def _table_rows() -> list:
    """(command, record kind, keys in TSV column order) per row of "Output records"."""
    rows = []
    for line in _section("Output records").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        command, record, keys = cells
        keys = re.sub(r"\([^)]*\)", "", keys)  # parentheses explain a key; they name none
        rows.append((command.strip("`"), re.match(r"`(\w+)`", record).group(1), re.findall(r"`(\w+)`", keys)))
    return rows


def _write(path: Path, table: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, table, fmt="%.17g", delimiter="\t")


@pytest.fixture
def readme_inputs(tmp_path, monkeypatch):
    """README's file names in a fresh working directory, filled from seeded draws."""
    rng = substream(61)
    x = rng.random(400)
    _write(tmp_path / "data.tsv", np.column_stack([x, np.cbrt(x), x ** 2]))
    manifest = next(block for block in _fenced_blocks(README) if "data/pair01.tsv" in block)
    (tmp_path / "manifest.csv").write_text(manifest, encoding="utf-8")
    for line in manifest.splitlines():
        if not line.startswith("#"):
            cause = rng.random(300)
            effect = cause ** 3
            swap = line.split(",")[4] == "y->x"
            _write(tmp_path / line.split(",")[1], np.column_stack((effect, cause) if swap else (cause, effect)))
    d = rng.standard_normal((500, 3))
    _write(tmp_path / "joint.tsv", np.column_stack([d, d @ rng.standard_normal((3, 3)).T]))
    base = np.cumsum(rng.standard_normal(600))
    _write(tmp_path / "series.tsv", np.column_stack([base[7:], base[:-7] + 0.1 * rng.standard_normal(593)]))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("IGCI_SEED", raising=False)


# Small runs of each command in the table; README's own lines are run below.
_TABLE_ARGS = {
    "infer": ["data.tsv"],
    "pairs": ["manifest.csv"],
    "simulate": ["--m", "30", "--reps", "2", "--seed", "3"],
    "tracedir": ["joint.tsv", "--x-cols", "0,1,2", "--y-cols", "3,4,5"],
    "align": ["series.tsv", "--max-lag", "20"],
    "verify": ["--check", "all", "--trials", "5", "--m", "2000", "--seed", "1"],
}


def _tsv_layouts(out: str) -> list:
    """The key lists of a TSV rendering in order: each config line's keys, and each
    header, which is a line of keys the table names where a row holds values."""
    names = {key for *_, keys in _table_rows() for key in keys}
    layouts = []
    for line in out.splitlines():
        if line.startswith("# "):
            layouts.append([field.split("=", 1)[0] for field in line[2:].split(" ")])
        elif set(line.split("\t")) <= names:
            layouts.append(line.split("\t"))
    return layouts


@pytest.mark.parametrize("command", sorted({command for command, *_ in _table_rows()}))
def test_output_records_table_matches_each_commands_tsv_columns(capsys, readme_inputs, command):
    rows = [(record, keys) for name, record, keys in _table_rows() if name == command]
    argv = command.split() + _TABLE_ARGS[command.split()[0]]
    assert main([*argv, "--format", "tsv"]) == EXIT_OK
    assert _tsv_layouts(capsys.readouterr().out) == [keys for _, keys in rows]
    # The JSON records name the kinds of the table's rows, in the same order.
    assert main(argv) == EXIT_OK
    kinds = [json.loads(line)["record"] for line in capsys.readouterr().out.splitlines()]
    assert [kind for kind, _ in groupby(kinds)] == [record for record, _ in groupby(record for record, _ in rows)]


def _example_lines(prefix: str) -> list:
    return [line for block in _fenced_blocks(README) for line in block.splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("line", _example_lines("igci "))
def test_readme_command_examples_exit_0(capsys, readme_inputs, line):
    assert main(shlex.split(line)[1:]) == EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("line", _example_lines("for "))
def test_readme_shell_loops_parse(line):
    # Parsed only: each pass of these loops is a full default-size run.
    var, values, body = re.fullmatch(r"for (\w+) in (.*?); do (igci .*?); done", line).groups()
    assert values.split()
    for value in values.split():
        build_parser().parse_args(shlex.split(body.replace(f"${var}", value))[1:])


def test_readme_quick_start_states_its_results():
    block = _fenced_blocks(_section("Quick start"))[0]
    scope = {}
    exec(block, scope)
    report = scope["report"]
    assert report.direction.value == "x->y"
    assert report.c_yx == -report.c_xy
