"""Acceptance gate: twelve criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they still appear in captured output on failure.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from igci import (
    InputDist,
    InputKind,
    MechanismKind,
    NoiseKind,
    NoiseSpec,
    SamplePair,
    apply_mechanism,
    evaluate_manifest,
    kl_additivity_gap,
    load_manifest,
    normalize_uniform,
    random_cdf_mix,
    run_grid,
    run_sine,
    slope_criterion,
    spacing_entropy,
    substream,
    trace_gap,
    verify_noise_bound,
    write_pair,
)
from igci.simulation import sample_input

GRID_SEED = 20260819
GAUSSIAN_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _accuracy(result, row: str, col: str) -> float:
    return result[(row, col)].accuracy_pct


@pytest.fixture(scope="module")
def deterministic_grid():
    start = time.perf_counter()
    result = run_grid(m=1000, repetitions=100, seed=GRID_SEED)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def noisy_grid():
    noise = NoiseSpec(NoiseKind.STD_NORMAL, lam=0.03)
    return run_grid(noise=noise, m=1000, repetitions=100, seed=GRID_SEED)


def test_criterion_01_deterministic_top_row(deterministic_grid):
    result, elapsed = deterministic_grid
    row_a = [_accuracy(result, "A", col) for col in "abcde"]
    ok = all(acc >= 95.0 for acc in row_a) and elapsed < 30.0
    _criterion(
        1,
        "uniform-input row solves all five mechanisms",
        ok,
        f"accuracies {row_a}, full grid in {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_02_designed_failure_cells(deterministic_grid):
    result, _ = deterministic_grid
    cells = {
        "(B)(a)": _accuracy(result, "B", "a"),
        "(B)(b)": _accuracy(result, "B", "b"),
        "(D)(c)": _accuracy(result, "D", "c"),
        "(D)(d)": _accuracy(result, "D", "d"),
    }
    ok = all(acc <= 10.0 for acc in cells.values())
    _criterion(2, "known-hard cells stay failed", ok, f"accuracies {cells}")


def test_criterion_03_noisy_grid(noisy_grid):
    row_a = [_accuracy(noisy_grid, "A", col) for col in "abcde"]
    b_e = _accuracy(noisy_grid, "B", "e")
    ok = all(acc >= 95.0 for acc in row_a) and 44.0 <= b_e <= 84.0
    _criterion(
        3,
        "lambda=0.03 noise keeps row A and degrades (B)(e)",
        ok,
        f"row A {row_a}, (B)(e) {b_e} (want 64 +- 20)",
    )


def test_criterion_04_sine_sweep():
    result = run_sine(m=1000, repetitions=100, seed=GRID_SEED)
    mean_acc = float(np.mean([t.accuracy_pct for t in result.values()]))
    control = run_sine(epsilon=0.0, m=1000, repetitions=100, seed=GRID_SEED)
    all_undecided = all(
        t.undecided == 100 and t.correct == 0 and t.wrong == 0 for t in control.values()
    )
    ok = 80.0 <= mean_acc <= 100.0 and all_undecided
    per_dist = {label: t.accuracy_pct for label, t in result.items()}
    _criterion(
        4,
        "small-flutter sweep lands near 90 and the zero control abstains",
        ok,
        f"mean {mean_acc:.1f} (want 90 +- 10), per input {per_dist}, zero-flutter undecided {all_undecided}",
    )


def test_criterion_05_estimator_identity():
    worst = 0.0
    for trial in range(1000):
        rng = substream(5001, trial)
        m = int(rng.integers(50, 301))
        gaps = 0.2 + rng.random(m - 1)
        x = np.concatenate([[0.0], np.cumsum(gaps)])
        x /= x[-1]
        kind = trial % 4
        if kind == 0:
            y = np.cbrt(x)
        elif kind == 1:
            y = np.sqrt(x)
        elif kind == 2:
            y = -(x ** 3)
        else:
            y = x * x
        xp = normalize_uniform(x)
        yp = normalize_uniform(y)
        entropy_route = spacing_entropy(yp) - spacing_entropy(xp)
        slope_route = slope_criterion(xp, yp)
        worst = max(worst, abs(entropy_route - slope_route))
    ok = worst <= 1e-10
    _criterion(5, "entropy and slope routes coincide when noise-free", ok, f"worst |diff| {worst:.3e} (limit 1e-10)")


def test_criterion_06_affine_equivariance():
    worst = 0.0
    for trial in range(1000):
        rng = substream(6001, trial)
        m = int(rng.integers(50, 301))
        x = np.concatenate([[0.0], np.cumsum(0.2 + rng.random(m - 1))])
        x /= x[-1]
        y = np.concatenate([[0.0], np.cumsum(0.2 + rng.random(m - 1))])
        y *= 2.0 / y[-1]
        a = (0.5 + 2.5 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
        b = (0.5 + 2.5 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
        c, d = rng.uniform(-2.0, 2.0, 2)
        base = slope_criterion(x, y)
        moved = slope_criterion(a * x + c, b * y + d)
        worst = max(worst, abs(moved - base - math.log(abs(b / a))))
    ok = worst <= 1e-10
    _criterion(6, "slope statistic shifts by exactly log|b/a| under affine maps", ok, f"worst |diff| {worst:.3e} (limit 1e-10)")


def test_criterion_07_entropy_calibration():
    rng = substream(7001)
    uniform_err = abs(spacing_entropy(rng.random(100_000)))
    normal_err = abs(spacing_entropy(rng.standard_normal(100_000)) - GAUSSIAN_ENTROPY)
    ok = uniform_err <= 0.02 and normal_err <= 0.02
    _criterion(
        7,
        "spacing entropy matches known values at m=1e5",
        ok,
        f"|err| uniform {uniform_err:.4f}, normal {normal_err:.4f} (limit 0.02)",
    )


def test_criterion_08_divergence_difference_identity():
    worst = 0.0
    for trial in range(1000):
        rng = substream(8001, trial)
        k = int(rng.integers(2, 30))
        q, r, s = (rng.random(k) + 1e-3 for _ in range(3))
        via, direct = kl_additivity_gap(q / q.sum(), r / r.sum(), s / s.sum())
        worst = max(worst, abs(via - direct))
    ok = worst <= 1e-10
    _criterion(8, "three-divergence identity holds on random triples", ok, f"worst |diff| {worst:.3e} (limit 1e-10)")


def test_criterion_09_trace_statistic():
    worst_scale = 0.0
    worst_iso = 0.0
    for trial in range(50):
        rng = substream(9001, trial)
        d = int(rng.integers(2, 9))
        a = rng.standard_normal((d, d))
        g = rng.standard_normal((d, d))
        sigma = g @ g.T / d + 1e-3 * np.eye(d)
        base = trace_gap(a, sigma)
        for c in (1e-3, 2.0, 1e4):
            worst_scale = max(worst_scale, abs(trace_gap(c * a, sigma) - base))
        worst_iso = max(worst_iso, abs(trace_gap(a, float(rng.random() + 0.5) * np.eye(d))))
    d, m = 10, 10_000
    wins = 0
    for trial in range(100):
        rng = substream(424242, trial)
        g = rng.standard_normal((d, d))
        sigma = g @ g.T / d
        a = rng.standard_normal((d, d))
        x = rng.multivariate_normal(np.zeros(d), sigma, size=m, method="cholesky")
        y = x @ a.T
        sx = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / m
        sy = (y - y.mean(axis=0)).T @ (y - y.mean(axis=0)) / m
        forward = trace_gap(a, sx)
        backward = trace_gap(np.linalg.inv(a), sy)
        wins += abs(forward) < abs(backward)
    ok = worst_scale <= 1e-12 and worst_iso <= 1e-12 and wins >= 90
    _criterion(
        9,
        "trace gap is scale-exact, isotropic-exact, and concentrates forward",
        ok,
        f"scale residual {worst_scale:.2e}, isotropic residual {worst_iso:.2e} (limit 1e-12), "
        f"forward wins {wins}/100 (need 90)",
    )


def test_criterion_10_noise_entropy_bound():
    cases = [
        ("gaussian", InputDist(InputKind.GAUSS_AT_ZERO, sigma=1.0)),
        ("uniform", InputDist(InputKind.UNIFORM)),
        ("bimodal", InputDist(InputKind.GAUSS_MIXTURE, sigma=0.1)),
    ]
    rows = []
    all_hold = True
    gaussian_tight = True
    for i, (label, dist) in enumerate(cases):
        x = sample_input(dist, 100_000, substream(99, i), truncate=False)
        for check in verify_noise_bound(x, rng_seed=1000 + i):
            all_hold &= check.holds
            if label == "gaussian":
                gaussian_tight &= abs(check.gap) <= 0.05
            rows.append(f"{label} sigma={check.sigma}: gap {check.gap:+.4f} holds={check.holds}")
    ok = all_hold and gaussian_tight
    _criterion(
        10,
        "smoothed entropy stays under the Fisher bound, tightly for Gaussian input",
        ok,
        "; ".join(rows),
    )


def test_criterion_11_synthetic_manifest(tmp_path):
    inputs = [
        InputDist(InputKind.UNIFORM),
        InputDist(InputKind.GAUSS_CENTERED),
        InputDist(InputKind.GAUSS_MIXTURE),
    ]
    mechanisms = [
        MechanismKind.CUBE_ROOT,
        MechanismKind.SQRT,
        MechanismKind.SQUARE,
        MechanismKind.CUBE,
        MechanismKind.CDF_MIX,
    ]
    lines = []
    for idx in range(50):
        rng = substream(777, idx)
        kind = mechanisms[idx % 5]
        cdf_mix = random_cdf_mix(rng) if kind is MechanismKind.CDF_MIX else None
        x = sample_input(inputs[idx % 3], 500, rng, truncate=True)
        y = apply_mechanism(kind, x, cdf_mix)
        name = f"pair{idx:02d}.tsv"
        if idx % 10 < 3:  # 15 of 50 stored with columns flipped
            write_pair(tmp_path / name, SamplePair(y, x))
            truth = "y->x"
        else:
            write_pair(tmp_path / name, SamplePair(x, y))
            truth = "x->y"
        weight = 2.0 if idx % 7 == 0 else 1.0
        lines.append(f"pair{idx:02d}, {name}, 0, 1, {truth}, {weight}\n")
    manifest_path = tmp_path / "manifest.csv"
    manifest_path.write_text("".join(lines))
    summary = evaluate_manifest(load_manifest(manifest_path))
    ok = summary.accuracy_pct >= 95.0 and summary.decisions_pct == 100.0
    _criterion(
        11,
        "synthetic 50-pair manifest scores accurately with no abstentions",
        ok,
        f"accuracy {summary.accuracy_pct:.1f}% (need 95), decisions {summary.decisions_pct:.1f}% (need 100)",
    )


def test_criterion_12_byte_identical_reruns():
    outputs = []
    for flags in (
        ["--experiment", "grid", "--m", "200", "--reps", "5", "--seed", "7"],
        ["--experiment", "sine", "--m", "200", "--reps", "5", "--seed", "7"],
    ):
        cmd = [sys.executable, "-m", "igci", "simulate", *flags]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        outputs.append(
            first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout
        )
    ok = all(outputs)
    _criterion(
        12,
        "simulate reruns are byte-identical under a fixed seed",
        ok,
        f"grid identical={outputs[0]}, sine identical={outputs[1]}",
    )
