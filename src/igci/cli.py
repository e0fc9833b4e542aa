"""Command-line interface.

Subcommands: infer (one pair file), pairs (manifest), simulate (benchmark
grid or sine sweep), tracedir (multivariate linear pairs), align (lag
search), verify (numeric identity and noise-bound checks).

Every output record is built here, from the command's arguments and the
library's results; igci.io renders them as JSON lines or TSV.

Exit codes: 0 success, 1 usage error, 2 unusable data, 3 numeric failure.
The base seed comes from --seed, else the IGCI_SEED environment variable,
else 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import MultiSample, ReferenceFamily, kl_additivity_gap
from .errors import DataError, DomainError, IgciError
from .estimators import EstimatorKind, igci_score
from .io import (
    align_lag,
    evaluate_manifest,
    format_json_lines,
    format_tsv,
    load_columns,
    load_manifest,
    load_pair,
)
from .simulation import (
    InputDist,
    InputKind,
    NoiseKind,
    NoiseSpec,
    run_grid,
    run_sine,
    sample_input,
    substream,
    verify_noise_bound,
)
from .trace import infer_linear_direction

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_DATA", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# |correlation| below this makes `align` warn that the match is weak.
LOW_CORRELATION_WARN = 0.5

_KL_IDENTITY_TOL = 1e-10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this interface reserves 2 for
    # data errors, so remap.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_scoring_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--reference",
        choices=[ReferenceFamily.UNIFORM_UNIT.value, ReferenceFamily.GAUSSIAN.value],
        default=ReferenceFamily.UNIFORM_UNIT.value,
        help="reference family both variables are mapped onto (default: uniform)",
    )
    sub.add_argument(
        "--estimator",
        choices=[e.value for e in EstimatorKind],
        default=EstimatorKind.ENTROPY_SPACING.value,
        help="score estimator (default: entropy)",
    )


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["json", "tsv"], default="json", help="output format")


def _add_seed_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="base seed (default: $IGCI_SEED or 0)")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
        return args.seed
    env = os.environ.get("IGCI_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise _UsageError(f"IGCI_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise _UsageError(f"IGCI_SEED must be nonnegative, got {env!r}")
    return seed


def _scoring(args) -> tuple:
    return ReferenceFamily(args.reference), EstimatorKind(args.estimator)


def _emit(records, fmt: str) -> None:
    text = format_json_lines(records) if fmt == "json" else format_tsv(records)
    sys.stdout.write(text)


def _parse_cols(text: str, flag: str) -> list:
    """Column indices under the comma rule of data files: trailing commas end
    the list, and any other empty field is an error."""
    fields = text.rstrip(",").split(",")
    if fields == [""]:
        raise _UsageError(f"{flag} must name at least one column")
    try:
        return [int(t) for t in fields]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _cmd_infer(args) -> int:
    reference, estimator = _scoring(args)
    pair = load_pair(args.file, args.x_col, args.y_col)
    report = igci_score(pair, reference=reference, estimator=estimator)
    record = {
        "record": "pair",
        "id": args.id if args.id is not None else Path(args.file).name,
        "c_xy": report.c_xy,
        "c_yx": report.c_yx,
        "direction": report.direction.value,
        "estimator": estimator.value,
        "reference": reference.value,
        "m_used": report.m_used,
    }
    _emit([record], args.format)
    return EXIT_OK


def _entry_record(entry_report) -> dict:
    """A pairs entry: its scores (None where it failed), then its truth and outcome."""
    entry, report = entry_report.entry, entry_report.report
    scores = dict.fromkeys(("c_xy", "c_yx", "direction", "m_used"))
    if report is not None:
        scores = {
            "c_xy": report.c_xy,
            "c_yx": report.c_yx,
            "direction": report.direction.value,
            "m_used": report.m_used,
        }
    return {
        "record": "pair",
        "id": entry.entry_id,
        **scores,
        "truth": entry.truth.value if entry.truth else None,
        "weight": entry.weight,
        "correct": entry_report.correct,
        "error": entry_report.error,
    }


def _cmd_pairs(args) -> int:
    reference, estimator = _scoring(args)
    manifest = load_manifest(args.manifest)
    summary = evaluate_manifest(manifest, reference=reference, estimator=estimator)
    records = [
        {"record": "config", "estimator": estimator.value, "reference": reference.value},
        *(_entry_record(r) for r in summary.reports),
        {
            "record": "summary",
            "entries": len(summary.reports),
            "decisions_pct": summary.decisions_pct,
            "accuracy_pct": summary.accuracy_pct,
        },
    ]
    _emit(records, args.format)
    return EXIT_OK


def _cell_record(tally, **labels) -> dict:
    """A simulate cell: its labels, then its tally."""
    return {
        "record": "cell",
        **labels,
        "correct": tally.correct,
        "wrong": tally.wrong,
        "undecided": tally.undecided,
        "accuracy_pct": tally.accuracy_pct,
    }


def _cmd_simulate(args) -> int:
    reference, estimator = _scoring(args)
    seed = _resolve_seed(args)
    if args.experiment == "grid":
        try:
            noise = NoiseSpec(
                kind=NoiseKind(args.noise), lam=args.lam, laplace_scale=args.laplace_scale
            )
        except DomainError as exc:
            raise _UsageError(str(exc)) from None
        tallies = run_grid(
            noise=noise,
            m=args.m,
            repetitions=args.reps,
            estimator=estimator,
            reference=reference,
            seed=seed,
        )
        config = {
            "m": args.m,
            "repetitions": args.reps,
            "noise": noise.kind.value,
            "lambda": noise.lam,
            "laplace_scale": noise.laplace_scale,
        }
        cells = [_cell_record(tally, row=row, col=col) for (row, col), tally in tallies.items()]
    else:
        tallies = run_sine(
            epsilon=args.epsilon,
            omega=args.omega,
            m=args.m,
            repetitions=args.reps,
            estimator=estimator,
            reference=reference,
            seed=seed,
        )
        config = {"epsilon": args.epsilon, "omega": args.omega, "m": args.m, "repetitions": args.reps}
        cells = [_cell_record(tally, input=label) for label, tally in tallies.items()]
    config.update(estimator=estimator.value, reference=reference.value, seed=seed)
    _emit([{"record": "config", **config}, *cells], args.format)
    return EXIT_OK


def _cmd_tracedir(args) -> int:
    x_cols = _parse_cols(args.x_cols, "--x-cols")
    y_cols = _parse_cols(args.y_cols, "--y-cols")
    # One column-major copy, so the parsed table is freed; the fit's rounding follows the layout.
    table = np.transpose(load_columns(args.file, x_cols + y_cols))
    x = MultiSample(table[:, : len(x_cols)])
    y = MultiSample(table[:, len(x_cols) :])
    result = infer_linear_direction(x, y, refit_reverse=args.refit_reverse)
    record = {
        "record": "tracedir",
        "direction": result.direction.value,
        "gap_xy": result.gap_xy,
        "gap_yx": result.gap_yx,
        "residual_rel": result.residual_rel,
        "m": x.m,
        "d": x.d,
    }
    _emit([record], args.format)
    return EXIT_OK


def _cmd_align(args) -> int:
    if args.max_lag is not None and args.max_lag < 0:
        raise _UsageError(f"--max-lag must be nonnegative, got {args.max_lag}")
    a, b = load_columns(args.file, (args.x_col, args.y_col))
    max_lag = args.max_lag if args.max_lag is not None else max(1, min(a.size, b.size) // 10)
    alignment = align_lag(a, b, max_lag)
    if abs(alignment.correlation) < LOW_CORRELATION_WARN:
        warnings.warn(
            f"best correlation {alignment.correlation:.3f} is below "
            f"{LOW_CORRELATION_WARN}; the series may not be related"
        )
    record = {
        "record": "align",
        "lag": alignment.lag,
        "correlation": alignment.correlation,
        "overlap_length": alignment.overlap_length,
        "max_lag": max_lag,
    }
    _emit([record], args.format)
    return EXIT_OK


_VERIFY_INPUTS = (
    ("normal(0,1)", InputDist(InputKind.GAUSS_AT_ZERO, sigma=1.0)),
    ("uniform", InputDist(InputKind.UNIFORM)),
    ("mixture(0.3,0.7)", InputDist(InputKind.GAUSS_MIXTURE, sigma=0.1)),
)


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    seed = _resolve_seed(args)
    records = []
    failed = False
    if args.check in ("kl-identity", "all"):
        rng = substream(seed, 0)
        worst = 0.0
        for _ in range(args.trials):
            q, r, s = (rng.random(8) + 1e-3 for _ in range(3))
            gap = kl_additivity_gap(q / q.sum(), r / r.sum(), s / s.sum())
            worst = max(worst, abs(gap[0] - gap[1]))
        ok = worst <= _KL_IDENTITY_TOL
        failed |= not ok
        records.append(
            {
                "record": "verify",
                "check": "kl-identity",
                "trials": args.trials,
                "max_residual": worst,
                "tolerance": _KL_IDENTITY_TOL,
                "pass": ok,
            }
        )
    if args.check in ("noise-bound", "all"):
        for idx, (label, dist) in enumerate(_VERIFY_INPUTS):
            x = sample_input(dist, args.m, substream(seed, 1 + idx), truncate=False)
            for check in verify_noise_bound(x, seed, 1 + idx):
                failed |= not check.holds
                records.append(
                    {
                        "record": "verify",
                        "check": "noise-bound",
                        "input": label,
                        "sigma": check.sigma,
                        "entropy_base": check.entropy_base,
                        "entropy_noisy": check.entropy_noisy,
                        "fisher": check.fisher,
                        "bound": check.bound,
                        "gap": check.gap,
                        "pass": check.holds,
                    }
                )
    _emit(records, args.format)
    if failed:
        print("verify: at least one check failed", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# Built once per process: parse_args reads the parser and leaves it unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="igci", description="Causal direction inference for dependent pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="score one two-column data file")
    p_infer.add_argument("file")
    p_infer.add_argument("--x-col", type=int, default=0)
    p_infer.add_argument("--y-col", type=int, default=1)
    p_infer.add_argument("--id", default=None, help="identifier for the output record")
    _add_scoring_flags(p_infer)
    _add_output_flags(p_infer)
    p_infer.set_defaults(func=_cmd_infer)

    p_pairs = sub.add_parser("pairs", help="score every entry of a manifest CSV")
    p_pairs.add_argument("manifest")
    _add_scoring_flags(p_pairs)
    _add_output_flags(p_pairs)
    p_pairs.set_defaults(func=_cmd_pairs)

    p_sim = sub.add_parser("simulate", help="run the synthetic benchmark")
    p_sim.add_argument("--experiment", choices=["grid", "sine"], default="grid")
    p_sim.add_argument("--m", type=int, default=1000, help="sample size per repetition")
    p_sim.add_argument("--reps", type=int, default=100, help="repetitions per cell")
    p_sim.add_argument("--lambda", dest="lam", type=float, default=0.0, help="noise multiplier")
    p_sim.add_argument(
        "--noise", choices=[n.value for n in NoiseKind], default=NoiseKind.NONE.value
    )
    p_sim.add_argument("--laplace-scale", type=float, default=0.2)
    p_sim.add_argument("--epsilon", type=float, default=0.005, help="sine flutter amplitude")
    p_sim.add_argument("--omega", type=float, default=40.0, help="sine flutter frequency")
    _add_scoring_flags(p_sim)
    _add_output_flags(p_sim)
    _add_seed_flag(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_trace = sub.add_parser("tracedir", help="direction of a linear multivariate relation")
    p_trace.add_argument("file")
    p_trace.add_argument("--x-cols", required=True, help="comma-separated column indices for x")
    p_trace.add_argument("--y-cols", required=True, help="comma-separated column indices for y")
    p_trace.add_argument("--refit-reverse", action="store_true", help="fit the reverse map independently instead of inverting")
    _add_output_flags(p_trace)
    p_trace.set_defaults(func=_cmd_tracedir)

    p_align = sub.add_parser("align", help="find the best integer lag between two columns")
    p_align.add_argument("file")
    p_align.add_argument("--x-col", type=int, default=0)
    p_align.add_argument("--y-col", type=int, default=1)
    p_align.add_argument(
        "--max-lag", type=int, default=None, help="largest |lag| to try (default: 10%% of length)"
    )
    _add_output_flags(p_align)
    p_align.set_defaults(func=_cmd_align)

    p_verify = sub.add_parser("verify", help="numeric identity and noise-bound checks")
    p_verify.add_argument("--check", choices=["kl-identity", "noise-bound", "all"], default="all")
    p_verify.add_argument("--trials", type=int, default=1000, help="kl-identity random triples")
    p_verify.add_argument("--m", type=int, default=100_000, help="noise-bound sample size")
    _add_output_flags(p_verify)
    _add_seed_flag(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"igci: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, _Parser.error exits EXIT_USAGE
        return exc.code
    # Every warning, the library's included, becomes one line on stderr.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except _UsageError as exc:
            print(f"igci: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except DataError as exc:
            print(f"igci: data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except IgciError as exc:
            print(f"igci: numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
