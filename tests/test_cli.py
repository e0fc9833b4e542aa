import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igci.cli
import igci.simulation
from igci import MultiSample, SamplePair, infer_linear_direction, write_pair
from igci.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from igci.simulation import substream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def json_records(out: str):
    return [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]


@pytest.fixture
def cube_file(tmp_path):
    x = substream(201).random(600)
    path = tmp_path / "cube.tsv"
    write_pair(path, SamplePair(x, x ** 3))
    return path


# ----------------------------------------------------------------------- infer

def test_infer_json_output(capsys, cube_file):
    code, out, err = run_cli(capsys, "infer", str(cube_file))
    assert code == EXIT_OK and err == ""
    (record,) = json_records(out)
    assert record["direction"] == "x->y"
    assert record["id"] == "cube.tsv"
    assert record["c_yx"] == -record["c_xy"]
    assert record["estimator"] == "entropy" and record["reference"] == "uniform"
    assert record["m_used"] == 600


def test_infer_flag_combinations(capsys, cube_file):
    code, out, _ = run_cli(
        capsys, "infer", str(cube_file), "--estimator", "slope",
        "--reference", "gaussian", "--id", "my-pair",
    )
    assert code == EXIT_OK
    (record,) = json_records(out)
    assert record["estimator"] == "slope"
    assert record["reference"] == "gaussian"
    assert record["id"] == "my-pair"
    assert record["direction"] == "x->y"


def test_infer_tsv_output(capsys, cube_file):
    code, out, _ = run_cli(capsys, "infer", str(cube_file), "--format", "tsv")
    assert code == EXIT_OK
    header, row = out.splitlines()
    assert header.split("\t")[:3] == ["id", "c_xy", "c_yx"]
    assert row.split("\t")[0] == "cube.tsv"


_TSV_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def assert_tsv_holds_the_json_records(tsv: str, json_out: str):
    # Every row has its header's field count, and each unescaped cell is the JSON value.
    lines = iter(line.split("\t") for line in tsv.splitlines() if not line.startswith("# "))
    header = None
    for record in json_records(json_out):
        if record["record"] == "config":
            continue
        if header is None or set(header) != set(record) - {"record"}:
            header = next(lines)
        row = next(lines)
        assert len(row) == len(header), row
        for key, cell in zip(header, row):
            value = re.sub(r"\\(.)", lambda m: _TSV_UNESCAPES[m.group(1)], cell)
            if isinstance(record[key], str):
                assert value == record[key]
            else:
                assert json.loads(value or "null") == record[key]
    assert next(lines, None) is None


def test_infer_tsv_escapes_an_id_that_would_break_its_row(capsys, cube_file):
    argv = ["infer", str(cube_file), "--id", "x\ty\nz\\t\r"]
    code, out, _ = run_cli(capsys, *argv, "--format", "tsv")
    assert code == EXIT_OK
    assert out.splitlines()[1].split("\t")[0] == "x\\ty\\nz\\\\t\\r"
    assert_tsv_holds_the_json_records(out, run_cli(capsys, *argv)[1])


def test_infer_missing_file_is_a_data_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "infer", str(tmp_path / "absent.tsv"))
    assert code == EXIT_DATA
    assert out == "" and "data error" in err


def test_an_unreadable_file_is_named_once(capsys, tmp_path):
    path = tmp_path / "absent.tsv"
    code, out, err = run_cli(capsys, "infer", str(path))
    assert (code, out, err) == (EXIT_DATA, "", f"igci: data error: {path}: No such file or directory\n")


def test_infer_constant_column_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "flat.tsv"
    path.write_text("".join(f"{v} 1.0\n" for v in np.linspace(0, 1, 20)))
    code, _, err = run_cli(capsys, "infer", str(path))
    assert code == EXIT_DATA and "data error" in err


def test_infer_extreme_range_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "huge.tsv"
    path.write_text("-1e308 1\n0 2\n1e308 3\n5 4\n")
    code, out, err = run_cli(capsys, "infer", str(path))
    assert code == EXIT_DATA and out == ""
    assert "data error" in err and "overflow" in err


def test_infer_non_utf8_file_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "latin.tsv"
    path.write_bytes(b"1 2\n3 4\n5 \xff6\n")
    code, out, err = run_cli(capsys, "infer", str(path))
    assert code == EXIT_DATA and out == ""
    assert "data error" in err and ":3: not UTF-8" in err and "offset 10" in err


def test_infer_empty_comma_field_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("".join(f"{v},,{v * v}\n" for v in (0.1, 0.2, 0.3, 0.4)))
    code, out, err = run_cli(capsys, "infer", str(path), "--y-col", "1")
    assert code == EXIT_DATA and out == ""
    assert f"igci: data error: {path}:1:" in err


def test_infer_trailing_comments_leave_the_record_unchanged(capsys, tmp_path, cube_file):
    noted = tmp_path / "noted.tsv"
    lines = cube_file.read_text().splitlines()
    noted.write_text("".join(f"{line}  # row {i}, noted\n" for i, line in enumerate(lines)))
    expected = run_cli(capsys, "infer", str(cube_file), "--id", "cube")
    assert run_cli(capsys, "infer", str(noted), "--id", "cube") == expected
    assert expected[0] == EXIT_OK and expected[2] == ""


def test_infer_slope_overflow_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "subnormal.tsv"
    path.write_text("0 0\n5e-324 0.5\n1 1\n0.5 0.7\n")
    code, out, err = run_cli(capsys, "infer", str(path), "--estimator", "slope")
    assert code == EXIT_DATA and out == ""
    assert "data error" in err and "not finite" in err and "5e-324" in err


def test_infer_gaussian_subnormal_range_is_a_data_error(capsys, tmp_path):
    # x differs, but its variance underflows float64
    path = tmp_path / "subnormal.tsv"
    path.write_text("0 1\n5e-324 2\n1e-323 3\n2e-323 5\n")
    code, out, err = run_cli(capsys, "infer", str(path), "--reference", "gaussian")
    assert code == EXIT_DATA and out == ""
    assert err == (
        "igci: data error: value range 0.0 to 2e-323 overflows or underflows float64 "
        "in the gaussian reference mapping\n"
    )


# sha256 of `igci infer noisy.tsv --estimator E --reference R` stdout on the
# seeded 2e4-row pair below. y does not rise along x, so the slope route sorts
# the pair a second time, and each sample spans several of the in-place
# difference steps.
_NOISY_INFER_SHA256 = {
    ("entropy", "uniform"): "7b2b9dfc4b659600bf925aa8ce1c33629e24f2608acc91e507b9f802870774fa",
    ("entropy", "gaussian"): "680f647b851ffcaaa9470d1ff6a674fa38f3491a5175ac6ccd9d01864a706157",
    ("slope", "uniform"): "1d17220b4b59d26772c45ee66d8ba1d00c22b5f29b88818d3e93561b0ae6da89",
    ("slope", "gaussian"): "5a55a624f0f6e0690918ce182277650163f7bde5b23d00aae0221d671585ef69",
}


@pytest.mark.parametrize("estimator, reference", list(_NOISY_INFER_SHA256))
def test_infer_stdout_on_a_noisy_pair_matches_its_digest(capsys, tmp_path, estimator, reference):
    rng = substream(205)
    x = rng.random(20_000)
    path = tmp_path / "noisy.tsv"
    np.savetxt(path, np.column_stack([x, np.sqrt(x) + 0.1 * rng.standard_normal(20_000)]), fmt="%.17g", delimiter="\t")
    code, out, _ = run_cli(capsys, "infer", str(path), "--estimator", estimator, "--reference", reference)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == _NOISY_INFER_SHA256[estimator, reference]


# A file's first read scores views of np.loadtxt's row-major table, in place unless both
# flags name one column. A read from its third on reads the kept columns one at a time;
# with a non-finite value in either, it scores copies of their finite rows.
@pytest.mark.parametrize("estimator", ["entropy", "slope"])
@pytest.mark.parametrize("reference", ["uniform", "gaussian"])
@pytest.mark.parametrize("case", ["noisy", "dropped-row", "dropped-x-row", "one-column", "swapped-csv", "tsv"])
def test_infer_stdout_is_the_same_on_a_first_read_and_a_re_read(capsys, tmp_path, estimator, reference, case):
    rng = substream(207)
    x = rng.random(3000)
    table = np.column_stack([x, np.sqrt(x) + 0.1 * rng.standard_normal(3000)])
    if case == "dropped-row":
        table[17, 1] = np.nan
    if case == "dropped-x-row":
        table[17, 0] = -np.inf
    path = tmp_path / "pair.tsv"
    if case == "swapped-csv":
        table = np.column_stack([table[:, 1], rng.random(3000), table[:, 0]])
        path = tmp_path / "pair.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter="," if case == "swapped-csv" else "\t")
    argv = ["infer", str(path), "--estimator", estimator, "--reference", reference]
    argv += {"one-column": ["--x-col", "0", "--y-col", "0"], "swapped-csv": ["--x-col", "2", "--y-col", "0"],
             "tsv": ["--format", "tsv"]}.get(case, [])
    runs = [run_cli(capsys, *argv) for _ in range(3)]
    assert runs[0][0] == EXIT_OK and runs[1] == runs[0] and runs[2] == runs[0]
    assert len(list(Path(os.environ["XDG_CACHE_HOME"], "igci", "tables").glob("*.table"))) == 1
    if case != "tsv":
        (record,) = json_records(runs[0][1])
        assert record["m_used"] == (2999 if case.startswith("dropped") else 3000)


@pytest.mark.parametrize("estimator", ["entropy", "slope"])
def test_a_zero_score_is_positive_zero_both_ways(capsys, cube_file, estimator):
    # A column against itself scores exactly 0; c_yx = 0.0 - c_xy keeps the sign off it.
    argv = ["infer", str(cube_file), "--x-col", "0", "--y-col", "0", "--estimator", estimator]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and '"c_xy": 0.0, "c_yx": 0.0,' in out
    code, out, _ = run_cli(capsys, *argv, "--format", "tsv")
    assert code == EXIT_OK and out.splitlines()[1].split("\t")[1:3] == ["0.0", "0.0"]
    (cube_file.parent / "m.csv").write_text(f"self, {cube_file.name}, 0, 0\n")
    code, out, _ = run_cli(capsys, "pairs", str(cube_file.parent / "m.csv"), "--estimator", estimator)
    assert code == EXIT_OK and '"c_xy": 0.0, "c_yx": 0.0,' in out and "-0.0" not in out


# ----------------------------------------------------------------------- usage

def test_infer_dropped_rows_warning_is_one_line(capsys, tmp_path):
    x = substream(206).random(100)
    path = tmp_path / "gap.tsv"
    write_pair(path, SamplePair(x, x ** 3))
    with path.open("a") as handle:
        handle.write("nan\t0.5\n")
    code, out, err = run_cli(capsys, "infer", str(path))
    assert code == EXIT_OK
    assert err == f"igci: warning: {path}: dropped 1 rows with non-finite values\n"
    (record,) = json_records(out)
    assert record["m_used"] == 100


def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["infer"]) == EXIT_USAGE
    capsys.readouterr()
    code, _, err = run_cli(capsys, "simulate", "--lambda", "0.03")
    assert code == EXIT_USAGE
    assert "igci: error" in err  # lam without a noise kind


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simulate" in out


# -------------------------------------------------------------------- simulate

def test_simulate_grid_small_run(capsys):
    code, out, err = run_cli(capsys, "simulate", "--m", "50", "--reps", "2", "--seed", "5")
    assert code == EXIT_OK and err == ""
    records = json_records(out)
    assert len(records) == 26
    assert records[0]["record"] == "config" and records[0]["seed"] == 5
    assert all(r["correct"] + r["wrong"] + r["undecided"] == 2 for r in records[1:])


def test_simulate_grid_config_record(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--noise", "normal", "--lambda", "0.02", "--m", "50", "--reps", "2", "--seed", "9"
    )
    assert code == EXIT_OK
    records = json_records(out)
    assert records[0] == {
        "record": "config",
        "m": 50,
        "repetitions": 2,
        "noise": "normal",
        "lambda": 0.02,
        "laplace_scale": 0.2,
        "estimator": "entropy",
        "reference": "uniform",
        "seed": 9,
    }
    assert len(records) == 26
    code, out, _ = run_cli(capsys, "simulate", "--estimator", "slope", "--m", "80", "--reps", "2", "--seed", "91")
    assert code == EXIT_OK
    assert json_records(out)[0]["estimator"] == "slope"


def test_simulate_repeat_invocations_match(capsys):
    args = ("simulate", "--m", "50", "--reps", "2", "--seed", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_sine_runs_and_guards(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--experiment", "sine", "--m", "60", "--reps", "2", "--seed", "3")
    assert code == EXIT_OK
    records = json_records(out)
    assert records[0]["epsilon"] == 0.005
    assert len(records) == 6
    code, _, err = run_cli(
        capsys, "simulate", "--experiment", "sine", "--epsilon", "0.1", "--m", "60", "--reps", "2"
    )
    assert code == EXIT_USAGE  # flutter too strong to stay monotone
    assert err == "igci: error: epsilon * omega = 4.0 must stay below 1 to keep the map increasing\n"


@pytest.mark.parametrize("noise", ["normal", "laplace"])
def test_laplace_scale_is_not_a_flag(capsys, noise):
    # --lambda alone sizes the noise; Laplace draws have the fixed scale the config record reports.
    code, out, err = run_cli(capsys, "simulate", "--noise", noise, "--lambda", "0.1", "--laplace-scale", "5")
    assert code == EXIT_USAGE and out == ""
    assert "unrecognized arguments: --laplace-scale 5" in err


@pytest.mark.parametrize(
    "experiment, flags",
    [
        ("sine", ["--noise", "normal", "--lambda", "0.1"]),
        ("sine", ["--lambda", "0"]),
        ("grid", ["--epsilon", "1", "--omega", "1"]),
        ("grid", ["--omega", "40"]),
    ],
)
def test_simulate_flag_of_the_other_experiment_is_usage(capsys, experiment, flags):
    code, out, err = run_cli(capsys, "simulate", "--experiment", experiment, *flags, "--m", "30", "--reps", "1")
    assert code == EXIT_USAGE and out == ""
    assert err == f"igci: error: {flags[0]} is not read by --experiment {experiment}\n"


@pytest.mark.parametrize("flutter", [["--epsilon", "nan"], ["--omega", "nan"], ["--epsilon", "0", "--omega", "inf"]])
def test_simulate_sine_non_finite_flutter_is_usage(capsys, flutter):
    code, out, err = run_cli(capsys, "simulate", "--experiment", "sine", *flutter, "--m", "60", "--reps", "2")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("igci: error: need finite epsilon >= 0 and omega > 0")


@pytest.mark.parametrize("command", [["simulate", "--m", "50", "--reps", "2"], ["verify", "--check", "kl-identity", "--trials", "2"]])
def test_negative_seed_is_usage(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == EXIT_USAGE and out == ""
    assert err == "igci: error: --seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--check", "kl-identity", "--trials", "0"], "--trials must be at least 1, got 0"),
        (["simulate", "--noise", "normal", "--lambda", "-1"], "lam must be finite and nonnegative, got -1.0"),
        (["simulate", "--noise", "normal"], "lam == 0 exactly when kind is NONE"),
    ],
)
def test_a_flag_value_out_of_range_is_usage(capsys, argv, message):
    # One rule, whether the command line or the library checks the value.
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"igci: error: {message}\n"


@pytest.mark.parametrize("experiment", ["grid", "sine"])
def test_simulate_zero_reps_is_usage(capsys, experiment):
    code, out, err = run_cli(capsys, "simulate", "--experiment", experiment, "--reps", "0")
    assert code == EXIT_USAGE and out == ""
    assert err == "igci: error: repetitions must be at least 1, got 0\n"


@pytest.mark.parametrize("experiment", ["grid", "sine"])
@pytest.mark.parametrize("m", ["0", "2"])
def test_simulate_m_below_three_is_usage(capsys, experiment, m):
    code, out, err = run_cli(capsys, "simulate", "--experiment", experiment, "--m", m, "--reps", "1")
    assert code == EXIT_USAGE and out == ""
    assert err == f"igci: error: m must be at least 3, got {m}\n"


def test_simulate_tsv_config_comment(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--m", "50", "--reps", "2", "--seed", "4", "--format", "tsv")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# ") and "seed=4" in lines[0]
    assert lines[1].split("\t")[:2] == ["row", "col"]
    assert len(lines) == 27


# ----------------------------------------------------------------------- pairs

def test_pairs_manifest_run(capsys, tmp_path):
    for i, mech in enumerate((np.cbrt, np.sqrt, lambda v: v ** 2)):
        x = substream(202 + i).random(500)
        write_pair(tmp_path / f"p{i}.tsv", SamplePair(x, mech(x)))
    (tmp_path / "m.csv").write_text(
        "p0, p0.tsv, 0, 1, x->y\n"
        "p1, p1.tsv, 0, 1, x->y, 2\n"
        "p2, p2.tsv, 0, 1, ?\n"
    )
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    assert code == EXIT_OK and err == ""
    records = json_records(out)
    assert records[0]["record"] == "config"
    assert [r["record"] for r in records[1:]] == ["pair", "pair", "pair", "summary"]
    summary = records[-1]
    assert summary["decisions_pct"] == 100.0
    assert summary["accuracy_pct"] == 100.0


def test_pairs_records_unreadable_entries_and_keeps_going(capsys, tmp_path):
    x = substream(206).random(500)
    write_pair(tmp_path / "good.tsv", SamplePair(x, np.cbrt(x)))
    (tmp_path / "latin.tsv").write_bytes(b"1 2\n\xe9 4\n5 6\n")
    (tmp_path / "subnormal.tsv").write_text("0 0\n5e-324 0.5\n1 1\n0.5 0.7\n")
    (tmp_path / "m.csv").write_text(
        "good, good.tsv, 0, 1, x->y\n"
        "latin, latin.tsv, 0, 1, x->y\n"
        "subnormal, subnormal.tsv, 0, 1, x->y\n"
    )
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"), "--estimator", "slope")
    assert code == EXIT_OK and err == ""
    _, good, latin, subnormal, summary = json_records(out)
    assert good["error"] is None and good["correct"] is True
    assert ":2: not UTF-8" in latin["error"] and latin["c_xy"] is None
    assert "not finite" in subnormal["error"] and subnormal["c_xy"] is None
    assert summary["decisions_pct"] == pytest.approx(100.0 / 3.0)


def test_pairs_entry_with_an_empty_comma_field_is_an_error_record(capsys, tmp_path):
    x = substream(206).random(500)
    write_pair(tmp_path / "good.tsv", SamplePair(x, np.cbrt(x)))
    (tmp_path / "gap.csv").write_text("".join(f"{v},,{v ** 3}\n" for v in x[:50]))
    (tmp_path / "m.csv").write_text("good, good.tsv, 0, 1, x->y\ngap, gap.csv, 0, 1, x->y\n")
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    assert code == EXIT_OK and err == ""
    _, good, gap, summary = json_records(out)
    assert good["correct"] is True
    assert gap["c_xy"] is None and gap["correct"] is None
    assert "gap.csv:1:" in gap["error"]
    assert summary["decisions_pct"] == 50.0


def test_pairs_tsv_ends_with_the_summary_under_its_own_header(capsys, tmp_path):
    x = substream(206).random(500)
    write_pair(tmp_path / "good.tsv", SamplePair(x, np.cbrt(x)))
    (tmp_path / "m.csv").write_text("a, good.tsv, 0, 1, x->y\nb, good.tsv, 1, 0, y->x, 3\n")
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"), "--format", "tsv")
    assert code == EXIT_OK and err == ""
    lines = out.splitlines()
    assert lines[1] == "id\tc_xy\tc_yx\tdirection\tm_used\ttruth\tweight\tcorrect\terror"
    assert [line.split("\t")[0] for line in lines[2:4]] == ["a", "b"]
    assert lines[-2:] == ["entries\tdecisions_pct\taccuracy_pct", "2\t100.0\t100.0"]


def test_pairs_tsv_escapes_an_id_and_an_error_that_would_break_their_rows(capsys, tmp_path):
    x = substream(206).random(500)
    write_pair(tmp_path / "good.tsv", SamplePair(x, np.cbrt(x)))
    (tmp_path / "m.csv").write_text('"a\tb",good.tsv,0,1,x->y\n"c\td","new\nline.tsv",0,1\n')
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"), "--format", "tsv")
    assert code == EXIT_OK and err == ""
    json_out = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))[1]
    _, good, missing, _ = json_records(json_out)
    assert (good["id"], missing["id"]) == ("a\tb", "c\td")
    assert missing["error"] == f"{tmp_path.resolve()}/new\nline.tsv: No such file or directory"
    assert_tsv_holds_the_json_records(out, json_out)


def test_pairs_non_utf8_manifest_is_a_data_error(capsys, tmp_path):
    (tmp_path / "m.csv").write_bytes(b"a, p\xff.tsv, 0, 1\n")
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    assert code == EXIT_DATA and out == ""
    assert "data error" in err and "not UTF-8" in err


def test_pairs_empty_manifest_is_a_data_error(capsys, tmp_path):
    (tmp_path / "m.csv").write_text("# no entries\n")
    code, _, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    assert code == EXIT_DATA and "data error" in err


# `pairs` reads each entry as `infer` reads its file: views of the parsed table on a
# file's first and second read, the kept columns one at a time from its third. One
# file serves several entries, so within a run it is read once, twice and three times.
@pytest.mark.parametrize("estimator", ["entropy", "slope"])
@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_pairs_stdout_is_the_same_on_a_first_read_and_a_re_read(capsys, tmp_path, estimator, fmt):
    rng = substream(208)
    x = rng.random(3000)
    table = np.column_stack([x, np.sqrt(x) + 0.1 * rng.standard_normal(3000)])
    np.savetxt(tmp_path / "pair.tsv", table, fmt="%.17g", delimiter="\t")
    for name, row, col, value in (("dropped-y.tsv", 17, 1, np.nan), ("dropped-x.tsv", 17, 0, -np.inf)):
        dropped = table.copy()
        dropped[row, col] = value
        np.savetxt(tmp_path / name, dropped, fmt="%.17g", delimiter="\t")
    swapped = np.column_stack([table[:, 1], rng.random(3000), table[:, 0]])
    np.savetxt(tmp_path / "swapped.csv", swapped, fmt="%.17g", delimiter=",")
    (tmp_path / "two.tsv").write_text("1 2\n3 nan\n4 0\n")
    (tmp_path / "m.csv").write_text(
        "plain, pair.tsv, 0, 1, x->y\n"
        "dropped-y, dropped-y.tsv, 0, 1, x->y\n"
        "dropped-x, dropped-x.tsv, 0, 1, x->y\n"
        "one-column, pair.tsv, 0, 0\n"
        "swapped, swapped.csv, 2, 0, x->y\n"
        "missing, pair.tsv, 0, 2\n"
        "two-rows, two.tsv, 0, 1\n"
    )
    argv = ["pairs", str(tmp_path / "m.csv"), "--estimator", estimator, "--format", fmt]
    runs = [run_cli(capsys, *argv) for _ in range(3)]
    assert runs[0][0] == EXIT_OK and runs[1] == runs[0] and runs[2] == runs[0]
    assert runs[0][2].count("dropped 1 rows with non-finite values") == 3
    assert len(list(Path(os.environ["XDG_CACHE_HOME"], "igci", "tables").glob("*.table"))) == 5
    if fmt == "json":
        _, *reports, _ = json_records(runs[0][1])
        assert [r["m_used"] for r in reports] == [3000, 2999, 2999, 3000, 3000, None, None]
        assert "column 2 not present" in reports[5]["error"] and "only 2 usable rows" in reports[6]["error"]


# -------------------------------------------------------------------- tracedir

@pytest.fixture
def linear_table(tmp_path):
    rng = substream(203)
    x = rng.standard_normal((800, 2)) @ np.array([[1.2, 0.3], [0.0, 0.7]])
    a = np.array([[2.0, 1.0], [0.5, 1.0]])
    y = x @ a.T
    path = tmp_path / "linear.tsv"
    with path.open("w") as handle:
        for row in np.column_stack([x, y]):
            handle.write("\t".join(f"{v:.17g}" for v in row) + "\n")
    return path


def test_tracedir_directions(capsys, linear_table):
    code, out, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,1", "--y-cols", "2,3")
    assert code == EXIT_OK and err == ""
    (record,) = json_records(out)
    assert record["direction"] in ("x->y", "y->x", "undecided")
    assert record["m"] == 800 and record["d"] == 2
    assert record["residual_rel"] <= 1e-8
    swapped_code, swapped_out, _ = run_cli(
        capsys, "tracedir", str(linear_table), "--x-cols", "2,3", "--y-cols", "0,1"
    )
    assert swapped_code == EXIT_OK
    (swapped,) = json_records(swapped_out)
    assert swapped["gap_xy"] == pytest.approx(record["gap_yx"], rel=1e-6)


def test_tracedir_refit_flag(capsys, linear_table):
    code, out, _ = run_cli(
        capsys, "tracedir", str(linear_table), "--x-cols", "0,1", "--y-cols", "2,3", "--refit-reverse"
    )
    assert code == EXIT_OK
    (record,) = json_records(out)
    assert record["record"] == "tracedir"


def test_tracedir_column_errors(capsys, linear_table):
    code, _, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "a", "--y-cols", "2,3")
    assert code == EXIT_USAGE and "igci: error" in err
    code, _, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", ",", "--y-cols", "2,3")
    assert code == EXIT_USAGE and err == "igci: error: --x-cols must name at least one column\n"
    for cols in ("0,,1", ",0,1"):  # the comma rule of data files: no empty field before the last value
        code, out, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", cols, "--y-cols", "2,3")
        assert code == EXIT_USAGE and out == ""
        assert err == f"igci: error: --x-cols expects comma-separated integers, got {cols!r}\n"
    code, _, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,9", "--y-cols", "2,3")
    assert code == EXIT_DATA
    code, _, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,0", "--y-cols", "2,3")
    assert code == EXIT_DATA  # duplicated regressor column cannot be fit


@pytest.mark.parametrize("x_cols, y_cols, col", [("0,1", "0,1", 0), ("0,1", "2,1", 1), ("0,1,,", "3,1,0", 0)])
def test_tracedir_column_on_both_sides_is_usage(capsys, linear_table, tmp_path, x_cols, y_cols, col):
    # A column mapped onto itself fits exactly and can still read as a confident call.
    for file in (linear_table, tmp_path / "missing.tsv"):  # refused before the file is read
        code, out, err = run_cli(capsys, "tracedir", str(file), "--x-cols", x_cols, "--y-cols", y_cols)
        assert (code, out, err) == (EXIT_USAGE, "", f"igci: error: column {col} is in both --x-cols and --y-cols\n")


def test_tracedir_trailing_comma_in_columns_is_accepted(capsys, linear_table):
    plain = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,1", "--y-cols", "2,3")
    trailing = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,1,", "--y-cols", "2,3,")
    assert trailing == plain and plain[0] == EXIT_OK


def test_tracedir_non_finite_value_is_a_data_error(capsys, linear_table):
    with linear_table.open("a") as handle:
        handle.write("1\t2\tnan\t4\n")
    code, out, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,1", "--y-cols", "2,3")
    assert code == EXIT_DATA and out == ""
    assert "igci: data error" in err and "non-finite" in err


def test_tracedir_constant_y_columns_is_a_data_error(capsys, tmp_path):
    x = substream(206).standard_normal((100, 2))
    path = tmp_path / "flat.tsv"
    path.write_text("".join(f"{a:.17g}\t{b:.17g}\t3\t-1\n" for a, b in x))
    code, out, err = run_cli(capsys, "tracedir", str(path), "--x-cols", "0,1", "--y-cols", "2,3")
    assert code == EXIT_DATA and out == ""
    assert err == "igci: data error: y is constant\n"


def test_tracedir_with_one_column_per_side_is_undecided(capsys, tmp_path):
    # With d = 1 the renormalized trace factorises, so both gaps vanish up to rounding.
    rng = substream(205)
    x = rng.standard_normal(200)
    y = 2.0 * x + 0.01 * rng.standard_normal(200)
    path = tmp_path / "line.tsv"
    for scale in (1e-300, 1e-20, 1.0, 3.0, 1e20, 1e300):
        path.write_text("".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(scale * x, y)))
        code, out, err = run_cli(capsys, "tracedir", str(path), "--x-cols", "0", "--y-cols", "1")
        assert code == EXIT_OK and err == ""
        (record,) = json_records(out)
        assert record["direction"] == "undecided" and record["d"] == 1
        assert abs(record["gap_xy"]) <= 1e-15 and abs(record["gap_yx"]) <= 1e-15


def _write_table(path, table):
    path.write_text("".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in table))


@pytest.mark.parametrize("refit_reverse", [False, True])
@pytest.mark.parametrize("seed, d, noise", [(208, 1, 0.0), (209, 3, 0.0), (210, 4, 0.02), (211, 6, 0.01)])
def test_tracedir_record_is_the_library_result_bit_for_bit(capsys, tmp_path, seed, d, noise, refit_reverse):
    # tracedir fits in its own column-major copy of the columns; the library copies its arguments
    # into the same layout, so a row-major table gives the same bits.
    rng = substream(seed)
    x = rng.standard_normal((500, d)) @ rng.standard_normal((d, d))
    y = x @ rng.standard_normal((d, d)).T + noise * rng.standard_normal((500, d))
    table = np.column_stack([x, y])
    _write_table(tmp_path / "joint.tsv", table)
    cols = [",".join(map(str, range(d))), ",".join(map(str, range(d, 2 * d)))]
    argv = ["tracedir", str(tmp_path / "joint.tsv"), "--x-cols", cols[0], "--y-cols", cols[1]]
    code, out, err = run_cli(capsys, *argv, *(["--refit-reverse"] if refit_reverse else []))
    assert code == EXIT_OK and err == ""
    (record,) = json_records(out)
    result = infer_linear_direction(MultiSample(table[:, :d]), MultiSample(table[:, d:]), refit_reverse)
    assert record["direction"] == result.direction.value
    assert (record["gap_xy"], record["gap_yx"], record["residual_rel"]) == (
        result.gap_xy, result.gap_yx, result.residual_rel
    )


def _tracedir_error_tables() -> dict:
    x = substream(207).standard_normal((100, 2))
    mixed = np.column_stack([x, x @ np.array([[1.0, 2.0], [0.5, 1.0]])])
    non_finite = mixed.copy()
    non_finite[5, 3] = np.inf
    return {
        "different widths": mixed,
        "constant y": np.column_stack([x, np.full(100, 3.0), np.full(100, -1.0)]),
        "rank deficient": mixed,
        "numerically singular": np.column_stack([x, x @ np.diag([1.0, 1e-13])]),
        "non-finite": non_finite,
    }


@pytest.mark.parametrize("refit_reverse", [False, True])
@pytest.mark.parametrize(
    "case, x_cols, y_cols, message",
    [
        ("different widths", "0,1", "2", "x is 2-dimensional, y is 1-dimensional"),
        ("constant y", "0,1", "2,3", "y is constant"),
        ("rank deficient", "0,0", "2,3", "regressor rank 1 < dimension 2"),
        ("numerically singular", "0,1", "2,3", "fitted map is numerically singular"),
        ("non-finite", "0,1", "2,3", "data contains non-finite values"),
    ],
)
def test_tracedir_data_errors_keep_their_messages(capsys, tmp_path, case, x_cols, y_cols, message, refit_reverse):
    _write_table(tmp_path / "joint.tsv", _tracedir_error_tables()[case])
    argv = ["tracedir", str(tmp_path / "joint.tsv"), "--x-cols", x_cols, "--y-cols", y_cols]
    code, out, err = run_cli(capsys, *argv, *(["--refit-reverse"] if refit_reverse else []))
    assert (code, out, err) == (EXIT_DATA, "", f"igci: data error: {message}\n")


def test_tracedir_residual_warning_keeps_its_text(capsys, tmp_path):
    x = substream(212).standard_normal((100, 2))
    _write_table(tmp_path / "noisy.tsv", np.column_stack([x, x + substream(213).standard_normal((100, 2))]))
    code, out, err = run_cli(capsys, "tracedir", str(tmp_path / "noisy.tsv"), "--x-cols", "0,1", "--y-cols", "2,3")
    assert code == EXIT_OK
    (record,) = json_records(out)
    assert record["residual_rel"] > 0.05
    assert err == (
        f"igci: warning: linear fit residual {record['residual_rel']:.3g} exceeds 0.05; "
        "the relation may not be linear enough for this method\n"
    )


# ----------------------------------------------------------------------- align

def test_align_finds_lag(capsys, tmp_path):
    rng = substream(204)
    a = rng.standard_normal(200)
    b = np.roll(a, 5)
    path = tmp_path / "series.tsv"
    path.write_text("".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(a, b)))
    code, out, err = run_cli(capsys, "align", str(path))
    assert code == EXIT_OK and err == ""
    (record,) = json_records(out)
    assert record["lag"] == 5
    assert record["correlation"] >= 0.999
    assert record["max_lag"] == 20


def test_align_warns_on_weak_match(capsys, tmp_path):
    rng = substream(205)
    path = tmp_path / "noise.tsv"
    path.write_text(
        "".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(rng.standard_normal(300), rng.standard_normal(300)))
    )
    code, _, err = run_cli(capsys, "align", str(path), "--max-lag", "5")
    assert code == EXIT_OK
    assert "warning" in err and "below" in err


def test_align_weak_match_warning_is_one_line(capsys, tmp_path):
    rng = substream(205)
    path = tmp_path / "noise.tsv"
    path.write_text(
        "".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(rng.standard_normal(300), rng.standard_normal(300)))
    )
    code, out, err = run_cli(capsys, "align", str(path), "--max-lag", "5")
    assert code == EXIT_OK
    (record,) = json_records(out)
    assert err == (
        f"igci: warning: best correlation {record['correlation']:.3f} is below 0.5; "
        "the series may not be related\n"
    )


def test_align_non_finite_value_is_a_data_error(capsys, tmp_path):
    a = substream(207).standard_normal(300)
    b = np.roll(a, 5)
    b[150] = np.nan
    path = tmp_path / "gap.tsv"
    path.write_text("".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(a, b)))
    code, out, err = run_cli(capsys, "align", str(path))
    assert code == EXIT_DATA and out == ""
    assert err == "igci: data error: series b has a non-finite value at row 150 (counting from 0)\n"


def test_align_negative_max_lag_is_usage(capsys, tmp_path):
    path = tmp_path / "s.tsv"
    path.write_text("".join(f"{v} {v}\n" for v in range(30)))
    # A usage error does not depend on the file: a missing one gives the same answer.
    for file in (path, tmp_path / "missing.tsv"):
        code, out, err = run_cli(capsys, "align", str(file), "--max-lag", "-2")
        assert (code, out, err) == (EXIT_USAGE, "", "igci: error: max_lag must be nonnegative, got -2\n")


@pytest.mark.parametrize(
    "argv, flag, col",
    [
        (["infer", "{file}", "--x-col", "-1"], "--x-col", -1),
        (["infer", "{file}", "--y-col", "-3"], "--y-col", -3),
        (["align", "{file}", "--x-col", "-1"], "--x-col", -1),
        (["align", "{file}", "--y-col", "-2"], "--y-col", -2),
        (["tracedir", "{file}", "--x-cols", "-1", "--y-cols", "1"], "--x-cols", -1),
        (["tracedir", "{file}", "--x-cols", "0", "--y-cols", "1,-2"], "--y-cols", -2),
    ],
)
def test_negative_column_flag_is_usage_before_the_file_is_read(capsys, tmp_path, argv, flag, col):
    path = tmp_path / "s.tsv"
    path.write_text("".join(f"{v} {v * v} {v ** 3}\n" for v in range(30)))
    # Exit 1 for a missing file too: the flag is refused before the file is opened.
    for file in (path, tmp_path / "missing.tsv"):
        code, out, err = run_cli(capsys, *(str(file) if a == "{file}" else a for a in argv))
        assert (code, out, err) == (EXIT_USAGE, "", f"igci: error: {flag} must be nonnegative, got {col}\n")


# ------------------------------------------------------------------ scale sweep

_SWEEP = {
    "infer-uniform-entropy": ["infer", "{table}", "--y-col", "2"],
    "infer-uniform-slope": ["infer", "{table}", "--y-col", "2", "--estimator", "slope"],
    "infer-gaussian-entropy": ["infer", "{table}", "--y-col", "2", "--reference", "gaussian"],
    "infer-gaussian-slope": ["infer", "{table}", "--y-col", "2", "--reference", "gaussian", "--estimator", "slope"],
    "pairs": ["pairs", "{manifest}"],
    "align": ["align", "{table}", "--y-col", "4"],
    "tracedir": ["tracedir", "{table}", "--x-cols", "0,1", "--y-cols", "2,3"],
}
# The field of each scale-free command that must read as at scale 1 for 10**k, |k| <= 300.
_SCALE_FREE = {"align": "lag", "tracedir": "direction"}


@pytest.mark.parametrize("command", list(_SWEEP))
def test_every_scale_gives_finite_json_or_one_data_error(capsys, tmp_path, command):
    rng = substream(210)
    x = rng.standard_normal((60, 2))
    y = x @ np.array([[2.0, 1.0], [0.5, 1.0]]).T + 0.01 * rng.standard_normal((60, 2))
    table = np.column_stack([x, y, np.roll(x[:, 0], 3) + 0.1 * rng.standard_normal(60)])
    path = tmp_path / "table.tsv"
    (tmp_path / "m.csv").write_text("t, table.tsv, 0, 2\n")
    argv = [a.format(table=path, manifest=tmp_path / "m.csv") for a in _SWEEP[command]]
    expected = None
    for k in [0, *range(-320, 301)]:
        path.unlink(missing_ok=True)  # a new file: rewriting one just written can wait for its writeback
        path.write_text("".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in table * 10.0 ** k))
        code, out, err = run_cli(capsys, *argv)
        if code == EXIT_DATA:
            assert out == "" and err.startswith("igci: data error: ") and err.count("\n") == 1, (k, err)
            assert command not in _SCALE_FREE or abs(k) > 300, (k, err)
            continue
        assert code == EXIT_OK and err == "", (k, code, err)
        records = json_records(out)
        assert all(math.isfinite(v) for rec in records for v in rec.values() if isinstance(v, float)), (k, out)
        if command in _SCALE_FREE:
            field = records[0][_SCALE_FREE[command]]
            expected = field if expected is None else expected
            assert field == expected or abs(k) > 300, (k, out)


# ---------------------------------------------------------------------- verify

def test_verify_kl_identity(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "kl-identity", "--trials", "200", "--seed", "6")
    assert code == EXIT_OK and err == ""
    (record,) = json_records(out)
    assert record["pass"] is True
    assert record["max_residual"] <= record["tolerance"]


def test_verify_all_checks_pass(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--check", "all", "--trials", "100", "--m", "20000", "--seed", "6"
    )
    assert code == EXIT_OK, err
    records = json_records(out)
    assert len(records) == 1 + 3 * 3  # one identity record, three sigma levels per input
    assert all(r["pass"] for r in records)



def test_verify_all_tsv_heads_each_check(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--check", "all", "--trials", "5", "--m", "20000", "--seed", "6", "--format", "tsv"
    )
    assert code == EXIT_OK, err
    lines = out.splitlines()
    assert lines[0] == "check\ttrials\tmax_residual\ttolerance\tpass"
    assert lines[2] == "check\tinput\tsigma\tentropy_base\tentropy_noisy\tfisher\tbound\tgap\tpass"
    rows = [line.split("\t") for line in lines[3:]]
    assert len(rows) == 3 * 3
    assert all(len(row) == 9 and row[0] == "noise-bound" and row[-1] == "true" for row in rows)
    assert all("" not in row for row in rows)


def test_verify_failed_check_exits_3_after_its_records(capsys, monkeypatch):
    monkeypatch.setattr(igci.cli, "_KL_IDENTITY_TOL", -1.0)  # no residual is below it
    code, out, err = run_cli(capsys, "verify", "--check", "kl-identity", "--trials", "5", "--seed", "6")
    assert code == EXIT_NUMERIC
    assert err == "igci: numeric error: at least one verify check failed\n"
    (record,) = json_records(out)
    assert record["check"] == "kl-identity" and record["pass"] is False and record["tolerance"] == -1.0


def test_verify_draws_every_stream_under_its_own_base_seed(capsys, monkeypatch):
    # A stream keyed by arithmetic on the base seed is another base seed's stream.
    keys = {}

    def recording(seed, *path):
        keys[run_seed].add((seed, *path))
        return substream(seed, *path)

    monkeypatch.setattr(igci.simulation, "substream", recording)
    monkeypatch.setattr(igci.cli, "substream", recording)
    for run_seed in (0, 7919):
        keys[run_seed] = set()
        run_cli(capsys, "verify", "--check", "all", "--trials", "2", "--m", "64", "--seed", str(run_seed))
        assert keys[run_seed] and {key[0] for key in keys[run_seed]} == {run_seed}
    assert keys[0].isdisjoint(keys[7919])


# sha256 of `verify --check kl-identity` stdout: the identity keeps stream (seed, 0).
_KL_IDENTITY_SHA256 = {
    0: "ab785df5c84c47f0274df91a2a25e141af4fe8f0ac8aae261d8d9224dd26dca9",
    1: "4ebe952f3441be12ff3afe20f433b565c031c69a29317ecd160fd30301ab31bd",
    7919: "ab785df5c84c47f0274df91a2a25e141af4fe8f0ac8aae261d8d9224dd26dca9",
}


@pytest.mark.parametrize("seed", sorted(_KL_IDENTITY_SHA256))
def test_verify_kl_identity_output_is_pinned(capsys, seed):
    code, out, err = run_cli(capsys, "verify", "--check", "kl-identity", "--seed", str(seed))
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == _KL_IDENTITY_SHA256[seed]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_trials_below_one_is_usage(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--check", "kl-identity", "--trials", trials, "--seed", "6")
    assert code == EXIT_USAGE and out == ""
    assert f"--trials must be at least 1, got {trials}" in err


@pytest.mark.parametrize("check", [["noise-bound"], ["all", "--trials", "2"]])
@pytest.mark.parametrize("m", ["1", "15"])
def test_verify_m_below_the_fisher_floor_is_usage(capsys, check, m):
    code, out, err = run_cli(capsys, "verify", "--check", *check, "--m", m, "--seed", "6")
    assert code == EXIT_USAGE and out == ""
    assert err == f"igci: error: --m must be at least 16, got {m}\n"


def test_verify_m_at_the_fisher_floor_runs(capsys):
    # Whether the bound holds on sixteen values is the slack's business; the size itself is accepted.
    code, out, _ = run_cli(capsys, "verify", "--check", "noise-bound", "--m", "16", "--seed", "6")
    assert code in (EXIT_OK, EXIT_NUMERIC)
    assert len(json_records(out)) == 9


@pytest.mark.parametrize(
    "check, flag", [("kl-identity", ["--m", "5"]), ("noise-bound", ["--trials", "0"]), ("noise-bound", ["--trials", "5"])]
)
def test_verify_flag_its_check_does_not_read_is_usage(capsys, check, flag):
    code, out, err = run_cli(capsys, "verify", "--check", check, *flag, "--seed", "6")
    assert code == EXIT_USAGE and out == ""
    assert err == f"igci: error: {flag[0]} is not read by --check {check}\n"


# -------------------------------------------------------------- record schema

@pytest.fixture
def schema_inputs(tmp_path, cube_file, linear_table):
    x = substream(208).standard_normal(120)
    (tmp_path / "series.tsv").write_text("".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(x, np.roll(x, 3))))
    (tmp_path / "m.csv").write_text("a, cube.tsv, 0, 1, x->y\nb, absent.tsv, 0, 1, ?, 2\n")
    return {"cube": cube_file, "linear": linear_table, "series": tmp_path / "series.tsv", "manifest": tmp_path / "m.csv"}


# Per record kind: the command, the '# key=value' line of its config record
# (None without one), which non-config record of the output to read, and
# that record's keys in TSV column order.
_SCHEMA = {
    "infer": (["infer", "{cube}"], None, 0, "id c_xy c_yx direction estimator reference m_used"),
    "pairs-entry": (
        ["pairs", "{manifest}"],
        "# estimator=entropy reference=uniform",
        0,
        "id c_xy c_yx direction m_used truth weight correct error",
    ),
    "pairs-summary": (
        ["pairs", "{manifest}", "--estimator", "slope"],
        "# estimator=slope reference=uniform",
        -1,
        "entries decisions_pct accuracy_pct",
    ),
    "simulate-grid": (
        ["simulate", "--noise", "laplace", "--lambda", "0.1", "--m", "20", "--reps", "1", "--seed", "9"],
        "# m=20 repetitions=1 noise=laplace lambda=0.1 laplace_scale=0.2 estimator=entropy reference=uniform seed=9",
        0,
        "row col correct wrong undecided accuracy_pct",
    ),
    "simulate-sine": (
        ["simulate", "--experiment", "sine", "--m", "20", "--reps", "1", "--reference", "gaussian"],
        "# epsilon=0.005 omega=40.0 m=20 repetitions=1 estimator=entropy reference=gaussian seed=0",
        0,
        "input correct wrong undecided accuracy_pct",
    ),
    "tracedir": (["tracedir", "{linear}", "--x-cols", "0,1", "--y-cols", "2,3"], None, 0, "direction gap_xy gap_yx residual_rel m d"),
    "align": (["align", "{series}"], None, 0, "lag correlation overlap_length max_lag"),
    "verify-kl-identity": (
        ["verify", "--check", "kl-identity", "--trials", "5"],
        None,
        0,
        "check trials max_residual tolerance pass",
    ),
    "verify-noise-bound": (
        ["verify", "--check", "noise-bound", "--m", "20000"],
        None,
        0,
        "check input sigma entropy_base entropy_noisy fisher bound gap pass",
    ),
}


@pytest.mark.parametrize("kind", list(_SCHEMA))
def test_record_schema(capsys, monkeypatch, schema_inputs, kind):
    argv, config, index, keys = _SCHEMA[kind]
    emitted = []
    render = igci.cli.format_tsv

    def capture(records):
        emitted.extend(records)
        return render(records)

    monkeypatch.setattr(igci.cli, "format_tsv", capture)
    code, out, _ = run_cli(capsys, *(a.format(**schema_inputs) for a in argv), "--format", "tsv")
    assert code == EXIT_OK
    comments = [line for line in out.splitlines() if line.startswith("#")]
    assert comments == ([config] if config else [])
    body = [rec for rec in emitted if rec["record"] != "config"]
    assert [k for k in body[index] if k != "record"] == keys.split()
    assert out.splitlines()[len(comments)] == "\t".join(k for k in body[0] if k != "record")


# ---------------------------------------------------------------------- stderr

class _RefusingStdout:
    """A stdout whose every write fails as a closed pipe's does."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self._fd


def test_every_stderr_line_starts_with_igci(capsys, monkeypatch, tmp_path, cube_file):
    # One channel: each diagnostic line is `igci: ...`, or argparse's `igci <command>: ...`.
    (tmp_path / "bad.tsv").write_text("0.1\t0.2\n0.3\tabc\n0.5\t0.6\n")
    (tmp_path / "flat.tsv").write_text("".join(f"1.0\t{v:.17g}\n" for v in substream(209).random(50)))
    rng = substream(205)
    (tmp_path / "noise.tsv").write_text(
        "".join(f"{u:.17g}\t{v:.17g}\n" for u, v in zip(rng.standard_normal(300), rng.standard_normal(300)))
    )
    failing = [
        ["frobnicate"],
        ["simulate", "--reps", "x"],
        ["infer", tmp_path / "absent.tsv"],
        ["infer", tmp_path / "bad.tsv"],
        ["infer", tmp_path / "flat.tsv"],
        ["simulate", "--reps", "0"],
        ["align", tmp_path / "noise.tsv", "--max-lag", "5"],
    ]
    stderr = {" ".join(map(str, argv)): run_cli(capsys, *map(str, argv))[2] for argv in failing}
    with monkeypatch.context() as patch:
        patch.setattr(igci.cli, "_KL_IDENTITY_TOL", -1.0)  # no residual is below it
        stderr["verify"] = run_cli(capsys, "verify", "--check", "kl-identity", "--trials", "5")[2]
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _RefusingStdout(fd))
            stderr["refused"] = run_cli(capsys, "infer", str(cube_file))[2]
    finally:
        os.close(fd)
    for case, err in stderr.items():
        assert err.endswith("\n"), case
        assert all(re.match(r"igci( [a-z]+)?: ", line) for line in err.splitlines()), (case, err)


# ------------------------------------------------------------------ subprocess

def test_module_entry_point_is_reproducible():
    cmd = [sys.executable, "-m", "igci", "simulate", "--m", "80", "--reps", "2", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == EXIT_OK, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 26


def _igci(*argv, **kwargs):
    """A fresh `python -m igci` process, which ends through cli.run."""
    return subprocess.run([sys.executable, "-m", "igci", *map(str, argv)], **kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--noise", "laplace", "--lambda", "0.1", "--m", "40", "--reps", "2", "--seed", "3"],
        ["simulate", "--experiment", "sine", "--m", "40", "--reps", "2"],
        ["verify", "--trials", "5", "--m", "500", "--seed", "3"],
        ["verify", "--check", "kl-identity", "--trials", "5"],
    ],
)
def test_igci_seed_in_the_environment_changes_no_output(argv):
    # --seed alone seeds a run: a variable left in the caller's environment changes no byte.
    env = {k: v for k, v in os.environ.items() if k != "IGCI_SEED"}
    without = _igci(*argv, capture_output=True, env=env)
    with_seed = _igci(*argv, capture_output=True, env={**env, "IGCI_SEED": "7"})
    assert without.stdout and without.stderr == b""
    assert (with_seed.returncode, with_seed.stdout, with_seed.stderr) == (without.returncode, without.stdout, b"")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], EXIT_OK),
        (["infer", "{cube}"], EXIT_OK),
        (["frobnicate"], EXIT_USAGE),
        (["infer", "{absent}"], EXIT_DATA),
        (["simulate", "--reps", "0"], EXIT_USAGE),
    ],
)
def test_a_fresh_process_gives_what_main_gives_in_process(capsys, monkeypatch, tmp_path, cube_file, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    argv = [arg.format(cube=cube_file, absent=tmp_path / "absent.tsv") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    proc = _igci(*argv, capture_output=True)
    assert code == expected
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


def test_a_fresh_pairs_run_prints_every_entry_and_the_summary(capsys, tmp_path):
    # Entries run on forked workers; every record must reach stdout before the process ends.
    lines = []
    for i in range(7):
        x = substream(230 + i).random(300)
        write_pair(tmp_path / f"p{i}.tsv", SamplePair(x, np.cbrt(x)))
        lines.append(f"p{i}, p{i}.tsv, 0, 1, x->y\n")
    (tmp_path / "m.csv").write_text("".join(lines))
    code, out, _ = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    proc = _igci("pairs", tmp_path / "m.csv", capture_output=True, text=True)
    assert proc.returncode == code == EXIT_OK and proc.stderr == ""
    assert proc.stdout == out
    records = json_records(proc.stdout)
    assert [r["record"] for r in records] == ["config", *["pair"] * 7, "summary"]
    assert [r["id"] for r in records[1:-1]] == [f"p{i}" for i in range(7)]


def test_atexit_handlers_still_run_in_a_fresh_process():
    script = "import atexit, runpy; atexit.register(print, 'atexit ran'); runpy.run_module('igci', run_name='__main__')"
    proc = subprocess.run([sys.executable, "-c", script, "--help"], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert proc.stdout.startswith("usage: igci")
    assert proc.stdout.endswith("\natexit ran\n") and proc.stdout.count("atexit ran") == 1


def test_a_profiled_process_exits_normally_and_prints_its_table():
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "igci", "--help"], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: igci")
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


def _close_stdout():
    os.close(1)


# Unbuffered, the error comes from the write in _emit or in the help; buffered, from run's last flush.
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("target", ["closed pipe", "/dev/full", "closed"])
def test_unwritable_stdout_is_one_error_line(monkeypatch, cube_file, target, unbuffered):
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    for argv in (["infer", cube_file], ["--help"], ["infer", "--help"]):
        if target == "closed":
            proc = _igci(*argv, stderr=subprocess.PIPE, text=True, preexec_fn=_close_stdout)
            cause = errno.EBADF
        else:
            if target == "closed pipe":
                read_end, stdout = os.pipe()
                os.close(read_end)
                cause = errno.EPIPE
            else:
                stdout, cause = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
            try:
                proc = _igci(*argv, stdout=stdout, stderr=subprocess.PIPE, text=True)
            finally:
                os.close(stdout)
        assert proc.returncode == EXIT_USAGE, argv
        assert proc.stderr == f"igci: error: cannot write output: {os.strerror(cause)}\n"
