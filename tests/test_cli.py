import json
import subprocess
import sys

import numpy as np
import pytest

from igci import SamplePair, write_pair
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


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("IGCI_SEED", raising=False)


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


def test_infer_missing_file_is_a_data_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "infer", str(tmp_path / "absent.tsv"))
    assert code == EXIT_DATA
    assert out == "" and "data error" in err


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


def test_infer_slope_overflow_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "subnormal.tsv"
    path.write_text("0 0\n5e-324 0.5\n1 1\n0.5 0.7\n")
    code, out, err = run_cli(capsys, "infer", str(path), "--estimator", "slope")
    assert code == EXIT_DATA and out == ""
    assert "data error" in err and "not finite" in err and "5e-324" in err


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


def test_simulate_repeat_invocations_match(capsys):
    args = ("simulate", "--m", "50", "--reps", "2", "--seed", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_simulate_seed_env_fallback(capsys, monkeypatch):
    _, explicit, _ = run_cli(capsys, "simulate", "--m", "50", "--reps", "2", "--seed", "17")
    monkeypatch.setenv("IGCI_SEED", "17")
    _, from_env, _ = run_cli(capsys, "simulate", "--m", "50", "--reps", "2")
    assert from_env == explicit
    monkeypatch.setenv("IGCI_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "simulate", "--m", "50", "--reps", "2")
    assert code == EXIT_USAGE and "IGCI_SEED" in err


def test_simulate_sine_runs_and_guards(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--experiment", "sine", "--m", "60", "--reps", "2", "--seed", "3")
    assert code == EXIT_OK
    records = json_records(out)
    assert records[0]["epsilon"] == 0.005
    assert len(records) == 6
    code, _, err = run_cli(
        capsys, "simulate", "--experiment", "sine", "--epsilon", "0.1", "--m", "60", "--reps", "2"
    )
    assert code == EXIT_NUMERIC  # flutter too strong to stay monotone
    assert "numeric error" in err


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_simulate_non_finite_laplace_scale_is_usage(capsys, scale):
    code, out, err = run_cli(capsys, "simulate", "--noise", "laplace", "--lambda", "0.1", "--laplace-scale", scale)
    assert code == EXIT_USAGE and out == ""
    assert err == f"igci: error: laplace_scale must be finite and positive, got {float(scale)!r}\n"


@pytest.mark.parametrize("flutter", [["--epsilon", "nan"], ["--omega", "nan"], ["--epsilon", "0", "--omega", "inf"]])
def test_simulate_sine_non_finite_flutter_is_a_numeric_error(capsys, flutter):
    code, out, err = run_cli(capsys, "simulate", "--experiment", "sine", *flutter, "--m", "60", "--reps", "2")
    assert code == EXIT_NUMERIC and out == ""
    assert err.startswith("igci: numeric error: need finite epsilon >= 0 and omega > 0")


@pytest.mark.parametrize("command", [["simulate", "--m", "50", "--reps", "2"], ["verify", "--check", "kl-identity", "--trials", "2"]])
@pytest.mark.parametrize("seed_from", ["flag", "env"])
def test_negative_seed_is_usage(capsys, monkeypatch, command, seed_from):
    if seed_from == "flag":
        command = [*command, "--seed", "-1"]
    else:
        monkeypatch.setenv("IGCI_SEED", "-3")
    code, out, err = run_cli(capsys, *command)
    assert code == EXIT_USAGE and out == ""
    want = "--seed must be nonnegative, got -1" if seed_from == "flag" else "IGCI_SEED must be nonnegative, got '-3'"
    assert err == f"igci: error: {want}\n"


@pytest.mark.parametrize("experiment", ["grid", "sine"])
def test_simulate_zero_reps_is_a_numeric_error(capsys, experiment):
    code, out, err = run_cli(capsys, "simulate", "--experiment", experiment, "--reps", "0")
    assert code == EXIT_NUMERIC and out == ""
    assert err == "igci: numeric error: repetitions must be at least 1, got 0\n"


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


def test_pairs_non_utf8_manifest_is_a_data_error(capsys, tmp_path):
    (tmp_path / "m.csv").write_bytes(b"a, p\xff.tsv, 0, 1\n")
    code, out, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    assert code == EXIT_DATA and out == ""
    assert "data error" in err and "not UTF-8" in err


def test_pairs_empty_manifest_is_a_data_error(capsys, tmp_path):
    (tmp_path / "m.csv").write_text("# no entries\n")
    code, _, err = run_cli(capsys, "pairs", str(tmp_path / "m.csv"))
    assert code == EXIT_DATA and "data error" in err


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
    code, _, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,9", "--y-cols", "2,3")
    assert code == EXIT_DATA
    code, _, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,0", "--y-cols", "2,3")
    assert code == EXIT_DATA  # duplicated regressor column cannot be fit


def test_tracedir_non_finite_value_is_a_data_error(capsys, linear_table):
    with linear_table.open("a") as handle:
        handle.write("1\t2\tnan\t4\n")
    code, out, err = run_cli(capsys, "tracedir", str(linear_table), "--x-cols", "0,1", "--y-cols", "2,3")
    assert code == EXIT_DATA and out == ""
    assert "igci: data error" in err and "non-finite" in err


def test_tracedir_scale_beyond_float64_is_a_data_error(capsys, tmp_path):
    rng = substream(205)
    x = rng.standard_normal((200, 2))
    y = 1e200 * (x @ np.array([[2.0, 1.0], [0.5, 1.0]]).T + 0.01 * rng.standard_normal((200, 2)))
    path = tmp_path / "huge.tsv"
    path.write_text("".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in np.column_stack([x, y])))
    code, out, err = run_cli(capsys, "tracedir", str(path), "--x-cols", "0,1", "--y-cols", "2,3")
    assert code == EXIT_DATA and out == ""
    assert "igci: data error" in err and "igci: warning:" not in err


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
    code, _, err = run_cli(capsys, "align", str(path), "--max-lag", "-2")
    assert code == EXIT_USAGE and "igci: error" in err


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



@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_trials_below_one_is_usage(capsys, trials):
    code, out, err = run_cli(capsys, "verify", "--check", "kl-identity", "--trials", trials, "--seed", "6")
    assert code == EXIT_USAGE and out == ""
    assert f"--trials must be at least 1, got {trials}" in err


# ------------------------------------------------------------------ subprocess

def test_module_entry_point_is_reproducible():
    cmd = [sys.executable, "-m", "igci", "simulate", "--m", "80", "--reps", "2", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == EXIT_OK, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 26
