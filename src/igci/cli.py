"""Command-line interface.

Subcommands: infer (one pair file), pairs (manifest), simulate (benchmark
grid or sine sweep), tracedir (multivariate linear pairs), align (lag
search), verify (numeric identity and noise-bound checks).

Every output record is built here, from the command's arguments and the
library's results; igci.io renders them as JSON lines or TSV.

Exit codes: 0 success; 1 usage error (a flag value its parameter refuses,
the library's DomainError included) or output that stdout refused; 2 unusable
data; 3 a degenerate computation or a failed verify check. The base seed
comes from --seed alone (default 0); no environment variable changes a run's output.

`python -m igci` and the installed `igci` script call run(), which ends the
process with os._exit as soon as main's output is flushed: atexit handlers
still run, but interpreter teardown (module clean-up and a last garbage
collection) is skipped. Under a tracer or profiler, or when
main raises, Python exits as usual. main() itself only returns its code, so
in-process callers keep Python's own exit.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import functools
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .core import MultiSample, ReferenceFamily, kl_additivity_gap
from .errors import DataError, DomainError, IgciError, NumericError
from .estimators import EstimatorKind, _score_pair
from .io import (
    _pair_sides,
    align_lag,
    evaluate_manifest,
    format_json_lines,
    format_tsv,
    load_columns,
    load_manifest,
)
from .simulation import (
    _FISHER_MIN_VALUES,
    _LAPLACE_SCALE,
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
from .trace import _infer_in_place

__all__ = ["main", "run", "EXIT_OK", "EXIT_USAGE", "EXIT_DATA", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# |correlation| below this makes `align` warn that the match is weak.
LOW_CORRELATION_WARN = 0.5

_KL_IDENTITY_TOL = 1e-10


class _UsageError(Exception):
    """An exit-1 error: bad usage, or output that stdout refused."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this interface reserves 2 for
    # data errors, so remap.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # argparse drops a failed write of its help; help is output like any record.
    def print_help(self, file=None):
        if file is None:
            _write(self.format_help())
        else:
            super().print_help(file)


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
    sub.add_argument("--seed", type=int, default=0, help="base seed, a nonnegative integer (default: 0)")


def _nonnegative(flag: str, value: int) -> int:
    """value, which a command checks before it reads any file; a negative one is a usage error."""
    if value < 0:
        raise _UsageError(f"{flag} must be nonnegative, got {value}")
    return value


def _scoring(args) -> tuple:
    return ReferenceFamily(args.reference), EstimatorKind(args.estimator)


# Flags that only some modes of a command read: dest -> (flag, default, modes).
# argparse leaves them None, so a flag given to a mode that ignores it is refused.
_SIMULATE_FLAGS = {
    "noise": ("--noise", NoiseKind.NONE.value, ("grid",)),
    "lam": ("--lambda", 0.0, ("grid",)),
    "epsilon": ("--epsilon", 0.005, ("sine",)),
    "omega": ("--omega", 40.0, ("sine",)),
}
_VERIFY_FLAGS = {
    "trials": ("--trials", 1000, ("kl-identity", "all")),
    "m": ("--m", 100_000, ("noise-bound", "all")),
}


def _mode_flags(args, selector: str, mode: str, flags: dict) -> None:
    """Fill in the defaults of the flags mode reads; any other flag given is a usage error."""
    for dest, (flag, default, modes) in flags.items():
        if mode in modes:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest) is not None:
            raise _UsageError(f"{flag} is not read by {selector} {mode}")


def _stdout_refused(exc: OSError) -> str:
    """Why stdout refused output. Its descriptor then points at os.devnull, so no later
    flush raises again (the advice of Python's note on SIGPIPE)."""
    if sys.stdout is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return f"cannot write output: {exc.strerror}"


def _emit(records, fmt: str) -> None:
    _write(format_json_lines(records) if fmt == "json" else format_tsv(records))


def _write(text: str) -> None:
    """text on stdout; a write that stdout refuses becomes a _UsageError."""
    try:
        if sys.stdout is None:  # descriptor 1 was closed when the interpreter started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
    except OSError as exc:
        raise _UsageError(_stdout_refused(exc)) from None


def _parse_cols(text: str, flag: str) -> list:
    """Column indices under the comma rule of data files: trailing commas end
    the list, and any other empty field is an error."""
    fields = text.rstrip(",").split(",")
    if fields == [""]:
        raise _UsageError(f"{flag} must name at least one column")
    try:
        return [_nonnegative(flag, int(t)) for t in fields]
    except ValueError:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None


def _cmd_infer(args) -> int:
    x_col, y_col = _nonnegative("--x-col", args.x_col), _nonnegative("--y-col", args.y_col)
    reference, estimator = _scoring(args)
    # The columns are igci's own, so the scoring works in them and copies no
    # sample; from a file's third read on they are read one at a time.
    report = _score_pair(_pair_sides(args.file, x_col, y_col), reference, estimator)
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
    _mode_flags(args, "--experiment", args.experiment, _SIMULATE_FLAGS)
    reference, estimator = _scoring(args)
    seed = _nonnegative("--seed", args.seed)
    if args.experiment == "grid":
        noise = NoiseSpec(kind=NoiseKind(args.noise), lam=args.lam)
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
            "laplace_scale": _LAPLACE_SCALE,
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
    shared = [col for col in x_cols if col in y_cols]
    if shared:  # the fit would map a column onto itself
        raise _UsageError(f"column {shared[0]} is in both --x-cols and --y-cols")
    # One column-major copy, so the parsed table is freed; the fit's rounding follows the layout.
    # igci owns this copy, so the fit centres and scales it in place instead of copying it again.
    table = np.transpose(load_columns(args.file, x_cols + y_cols))
    x, y = table[:, : len(x_cols)], table[:, len(x_cols) :]
    for side in (x, y):
        MultiSample(side)  # the checks infer_linear_direction's arguments pass: finite, m > d
    result = _infer_in_place(x, y, args.refit_reverse)
    record = {
        "record": "tracedir",
        "direction": result.direction.value,
        "gap_xy": result.gap_xy,
        "gap_yx": result.gap_yx,
        "residual_rel": result.residual_rel,
        "m": x.shape[0],
        "d": x.shape[1],
    }
    _emit([record], args.format)
    return EXIT_OK


def _cmd_align(args) -> int:
    cols = _nonnegative("--x-col", args.x_col), _nonnegative("--y-col", args.y_col)
    if args.max_lag is not None:
        _nonnegative("max_lag", args.max_lag)
    a, b = load_columns(args.file, cols)
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
    _mode_flags(args, "--check", args.check, _VERIFY_FLAGS)
    if args.trials is not None and args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.m is not None and args.m < _FISHER_MIN_VALUES:
        raise _UsageError(f"--m must be at least {_FISHER_MIN_VALUES}, got {args.m}")
    seed = _nonnegative("--seed", args.seed)
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
        raise NumericError("at least one verify check failed")
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
    p_sim.add_argument("--lambda", dest="lam", type=float, default=None, help="noise multiplier")
    p_sim.add_argument("--noise", choices=[n.value for n in NoiseKind], default=None)
    p_sim.add_argument("--epsilon", type=float, default=None, help="sine flutter amplitude")
    p_sim.add_argument("--omega", type=float, default=None, help="sine flutter frequency")
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
    p_verify.add_argument("--trials", type=int, default=None, help="kl-identity random triples")
    p_verify.add_argument("--m", type=int, default=None, help="noise-bound sample size")
    _add_output_flags(p_verify)
    _add_seed_flag(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"igci: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # Every warning, the library's included, becomes one line on stderr.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:  # --help exits 0, _Parser.error exits EXIT_USAGE
            return exc.code
        except (_UsageError, DomainError) as exc:  # a bug's DomainError would read as a flag's too
            print(f"igci: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except DataError as exc:
            print(f"igci: data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except IgciError as exc:
            print(f"igci: numeric error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC


def _watched() -> bool:
    """Whether a tracer, profiler or monitoring tool (Python 3.12+) watches this process."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) for i in range(6)))
    )


def run() -> None:
    """The command line's entry point: main's code becomes the exit status, and the
    process ends once its output is flushed, without interpreter teardown."""
    code = main()
    if type(code) is not int or _watched():
        raise SystemExit(code)  # Python's own exit, so a profiler still reports
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        print(f"igci: error: {_stdout_refused(exc)}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if sys.stderr is not None:
        sys.stderr.flush()
    # Nothing else is pending: fan_out has reaped its workers, and every file
    # igci writes is closed by `with` or `finally`.
    os._exit(code)


if __name__ == "__main__":
    run()
