"""The fan-out over forked workers keeps a serial loop's results, errors and warnings.

The worker count is forced through igci._fanout._cpu_count, so a one-CPU
host still forks.
"""

import os
import warnings

import numpy as np
import pytest

import igci._fanout as fanout
import igci.simulation as sim
from igci import (
    EstimatorKind,
    NoiseKind,
    NoiseSpec,
    NumericError,
    evaluate_manifest,
    load_manifest,
    run_grid,
    run_sine,
    substream,
)
from igci.cli import main

WORKERS = (1, 2, 3)


def _on_workers(monkeypatch, workers: int, run):
    monkeypatch.setattr(fanout, "_cpu_count", lambda: workers)
    return run()


def _outcome(run):
    """run()'s result, or the type and message of what it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


NOISES = [NoiseSpec(), *(NoiseSpec(kind, 0.05) for kind in NoiseKind if kind is not NoiseKind.NONE)]


@pytest.mark.parametrize("noise", NOISES)
def test_grid_records_do_not_depend_on_the_worker_count(monkeypatch, noise):
    def run():
        return run_grid(noise, m=80, repetitions=6, estimator=EstimatorKind.SLOPE_INTEGRAL, seed=61)

    records = [_on_workers(monkeypatch, n, run) for n in WORKERS]
    assert records[1] == records[0] and records[2] == records[0]


def test_sine_records_do_not_depend_on_the_worker_count(monkeypatch):
    def run():
        return run_sine(m=80, repetitions=6, seed=62)

    records = [_on_workers(monkeypatch, n, run) for n in WORKERS]
    assert records[1] == records[0] and records[2] == records[0]


def _gappy_manifest(tmp_path):
    """Seven entries: non-finite rows in entries 0, 1, 2 and 5, a missing file at 4."""
    lines = []
    for i in range(7):
        x = substream(63, i).random(300)
        table = np.column_stack([x, np.cbrt(x) if i % 2 else x * x])
        if i in (0, 1, 2, 5):
            table[: i + 1, i % 2] = np.nan
        if i != 4:
            np.savetxt(tmp_path / f"p{i}.tsv", table, fmt="%.17g")
        lines.append(f"e{i}, p{i}.tsv, 0, 1, {'x->y' if i % 3 else 'y->x'}, {1 + i % 2}\n")
    (tmp_path / "m.csv").write_text("".join(lines))
    return tmp_path / "m.csv"


def test_pairs_records_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    manifest = load_manifest(_gappy_manifest(tmp_path))

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return evaluate_manifest(manifest, estimator=EstimatorKind.SLOPE_INTEGRAL)

    summaries = [_on_workers(monkeypatch, n, run) for n in WORKERS]
    assert summaries[1] == summaries[0] and summaries[2] == summaries[0]
    assert [r.error is not None for r in summaries[0].reports] == [False] * 4 + [True] + [False] * 2


def test_pairs_warnings_reach_stderr_in_entry_order(monkeypatch, capsys, tmp_path):
    path = str(_gappy_manifest(tmp_path))
    runs = []
    for n in WORKERS:
        code = _on_workers(monkeypatch, n, lambda: main(["pairs", path]))
        runs.append((code, *capsys.readouterr()))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    code, _, err = runs[0]
    assert code == 0
    assert err.splitlines() == [
        f"igci: warning: {tmp_path / f'p{i}.tsv'}: dropped {i + 1} rows with non-finite values" for i in (0, 1, 2, 5)
    ]


def test_pairs_warnings_are_errors_under_an_error_filter(monkeypatch, tmp_path):
    manifest = load_manifest(_gappy_manifest(tmp_path))

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _outcome(lambda: evaluate_manifest(manifest))

    outcomes = [_on_workers(monkeypatch, n, run) for n in WORKERS]
    assert outcomes[0] == (UserWarning, f"{tmp_path / 'p0.tsv'}: dropped 1 rows with non-finite values")
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("workers", WORKERS)
def test_the_earliest_failing_item_raises(monkeypatch, workers):
    # Items 5 and 6 fail; with two or three workers 5 runs in a child and 6 in the parent.
    def fn(i):
        if i in (5, 6):
            raise ValueError(f"item {i}")
        return i * i

    monkeypatch.setattr(fanout, "_cpu_count", lambda: workers)
    with pytest.raises(ValueError, match="^item 5$"):
        fanout.fan_out(fn, range(9))
    assert fanout.fan_out(lambda i: i * i, range(9)) == [i * i for i in range(9)]


def test_a_stalled_cell_raises_as_in_a_serial_run(monkeypatch):
    # Every truncated Gaussian at 1 (grid row D, cells 15-19) stalls.
    propose = sim._propose

    def stalling(dist, rng, n):
        return np.full(n, 2.0) if dist.kind is sim.InputKind.GAUSS_AT_ONE else propose(dist, rng, n)

    monkeypatch.setattr(sim, "_propose", stalling)
    outcomes = [_on_workers(monkeypatch, n, lambda: _outcome(lambda: run_grid(m=20, repetitions=2))) for n in WORKERS]
    assert outcomes[0][0] is NumericError
    assert "no acceptances" in outcomes[0][1] and "GAUSS_AT_ONE" in outcomes[0][1]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@pytest.mark.parametrize("workers", [2, 3])
def test_a_worker_that_exits_without_results_is_an_error(monkeypatch, workers):
    # Item 1 is always in a forked worker's share here, never in the parent's.
    def fn(i):
        if i == 1:
            os._exit(7)
        return i

    monkeypatch.setattr(fanout, "_cpu_count", lambda: workers)
    with pytest.raises(RuntimeError, match="exited with status 7 before sending its results"):
        fanout.fan_out(fn, range(6))


def test_the_fork_warning_of_a_threaded_process_is_silenced(monkeypatch):
    # Python 3.12+ warns in the parent, after forking, when the process has threads.
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks"
            warnings.warn(f"{message} in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fanout.fan_out(lambda i: -i, range(5)) == [0, -1, -2, -3, -4]


def test_shares_run_in_the_parent_when_no_process_can_be_forked(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 3)
    assert fanout.fan_out(lambda i: i + 1, range(7)) == list(range(1, 8))
