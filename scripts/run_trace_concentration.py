#!/usr/bin/env python3
"""How the trace statistic concentrates with dimension for linear maps.

For each dimension: draw a covariance from a rotation-invariant prior and
an independent square map with iid normal entries, push m Gaussian samples
through it, and compare the renormalized-trace gap forwards (true map,
input covariance) against backwards (inverse map, output covariance). The
forward gap shrinks with dimension while the backward gap stays put, which
is exactly what makes the direction readable. The last column counts the
trials that infer_linear_direction, which fits the map from the same
samples as `igci tracedir` does, decides as x -> y.
"""

import argparse

import numpy as np

from igci import Direction, MultiSample, infer_linear_direction, substream, trace_gap


def trial_gaps(seed: int, d: int, m: int, trial: int) -> tuple:
    rng = substream(seed, d, trial)
    g = rng.standard_normal((d, d))
    sigma = g @ g.T / d
    a = rng.standard_normal((d, d))
    x = rng.multivariate_normal(np.zeros(d), sigma, size=m, method="cholesky")
    y = x @ a.T
    sx = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / m
    sy = (y - y.mean(axis=0)).T @ (y - y.mean(axis=0)) / m
    fitted = infer_linear_direction(MultiSample(x), MultiSample(y)).direction is Direction.X_TO_Y
    return trace_gap(a, sx), trace_gap(np.linalg.inv(a), sy), fitted


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", default="2,5,10,20", help="comma-separated dimensions")
    parser.add_argument("--m", type=int, default=10_000, help="samples per trial")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dims = [int(tok) for tok in args.dims.split(",") if tok.strip()]
    print(f"m = {args.m}, trials = {args.trials}, seed = {args.seed}")
    print(f"{'d':>4}  {'mean |forward|':>15}  {'mean |backward|':>16}  {'forward wins':>13}  {'fit x->y':>9}")
    for d in dims:
        forward = []
        backward = []
        wins = 0
        fit_wins = 0
        for trial in range(args.trials):
            f, b, fitted = trial_gaps(args.seed, d, args.m, trial)
            forward.append(abs(f))
            backward.append(abs(b))
            wins += abs(f) < abs(b)
            fit_wins += fitted
        print(
            f"{d:>4}  {np.mean(forward):>15.4f}  {np.mean(backward):>16.4f}"
            f"  {wins:>9}/{args.trials}  {fit_wins:>5}/{args.trials}"
        )


if __name__ == "__main__":
    main()
