import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import igci.cli
import igci.simulation
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
        assert (code, out, err) == (EXIT_USAGE, "", "igci: error: --max-lag must be nonnegative, got -2\n")


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
    assert err == "verify: at least one check failed\n"
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


# ------------------------------------------------------------------ subprocess

def test_module_entry_point_is_reproducible():
    cmd = [sys.executable, "-m", "igci", "simulate", "--m", "80", "--reps", "2", "--seed", "3"]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert first.returncode == EXIT_OK, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == 26
