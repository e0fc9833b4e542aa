"""igci benchmark: seeded workloads run through the real `igci` CLI.

    python3 perfbench/run.py --workload infer-file --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (any checkout of it; nothing needs installing).
With ``--trace 0`` each op is a closed loop of fresh ``python3 -m igci``
processes, so start-up and import count as they do for a user, and the
end-to-end metrics of BENCHMARK.json are reported. With ``--trace 1`` a
separate in-process run wraps igci's public functions from outside (see
tracer.py) and the per-layer metrics are reported. ``--workload all`` runs
every workload both ways. Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Generated inputs live in a temporary directory under
``.perfbench_run/`` and are removed at exit; traced spans are kept there as
JSON lines.

A child's ``ru_maxrss`` starts at the benchmark process's own high-water
mark when it is spawned, so the benchmark process must stay smaller than
every igci process it measures. The traced child therefore aggregates its
spans itself, and a run whose own peak RSS is not below the smallest
child's counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
PROCESS_TIMEOUT_S = 60.0
SETUP_SAMPLES = 8  # fresh `igci --help` processes per run, spread over the run
MIN_OPS = 3
CPU_OPS = 3  # CLI ops a `--trace 1` run makes for process.cpu_s
IMPORT_SAMPLES = 3
IMPORT_METRICS = {"igci": "import.igci_s", "numpy": "import.numpy_s",
                  "scipy.special": "import.scipy_special_s"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> tuple:
    """The child environment and a record of the software and thread settings."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in THREAD_VARS:
        if os.environ.get(var, "").isdigit() and int(os.environ[var]) > 0:
            threads = min(threads, int(os.environ[var]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("IGCI_SEED", None)
    env.update({var: str(threads) for var in THREAD_VARS})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "child_blas_threads": threads,
        "num_threads_vars": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    return env, record


class Runner:
    """Spawns igci processes and collects per-child wall time and rusage."""

    def __init__(self, env: dict, work: Path) -> None:
        self.env = env
        self.work = work
        self.min_rss_mb = math.inf  # smallest ru_maxrss of any child so far

    def spawn(self, args: list, timeout: float = PROCESS_TIMEOUT_S) -> dict:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.min_rss_mb = min(self.min_rss_mb, usage.ru_maxrss / 1024.0)
        return {
            "wall_s": wall,
            "code": proc.returncode,
            "stdout": out_path.read_text(encoding="utf-8"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
            "rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }

    def igci(self, argv: list) -> dict:
        return self.spawn([sys.executable, "-m", "igci", *argv])

    def op(self, workload: workloads.Workload) -> dict:
        """One op: its processes in sequence, then the output checks."""
        start = time.perf_counter()
        procs = [self.igci(argv) for argv in workload.ops]
        result = {
            "wall_s": time.perf_counter() - start,
            "rss_mb": max(p["rss_mb"] for p in procs),
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "stdouts": [p["stdout"] for p in procs],
            "error": None,
        }
        bad = [p for p in procs if p["code"] != 0]
        if bad:
            result["error"] = f"exit code {bad[0]['code']}: {bad[0]['stderr'].strip()[-300:]}"
        else:
            try:
                result["error"] = workload.check(result["stdouts"])
            except (ValueError, KeyError, TypeError) as exc:
                result["error"] = f"unparseable output: {type(exc).__name__}: {exc}"
        return result

    def setup(self) -> float:
        proc = self.igci(["--help"])
        if proc["code"] != 0 or not proc["stdout"].startswith("usage: igci"):
            raise RuntimeError(f"`igci --help` failed with exit code {proc['code']}")
        return proc["wall_s"]

    def import_times(self) -> dict:
        """Cumulative import times of the modules `import igci` pulls in."""
        proc = self.spawn([sys.executable, "-X", "importtime", "-c", "import igci"])
        if proc["code"] != 0:
            raise RuntimeError(f"`python -X importtime -c 'import igci'` failed with exit code "
                               f"{proc['code']}: {proc['stderr'].strip()[-300:]}")
        found = {}
        for line in proc["stderr"].splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                package = parts[2].strip()
                if package in IMPORT_METRICS and parts[1].strip().isdigit():
                    found[IMPORT_METRICS[package]] = int(parts[1]) * 1e-6
        return found


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def count(self, error) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)


def quartile_range(values: list) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def timed_run(runner: Runner, workload, deadline: float, tally: Tally) -> tuple:
    """Closed loop of ops until `deadline`, with fresh `--help` processes spread among them."""
    warm = runner.op(workload)  # untimed: fills the page cache and .pyc files
    tally.count(warm["error"])
    help_s = runner.setup()
    spare = max(0.0, deadline - time.perf_counter() - SETUP_SAMPLES * help_s)
    stride = max(1, round(spare / warm["wall_s"] / SETUP_SAMPLES))
    ops, setups = [], []
    # After MIN_OPS, no op starts that would be expected to end past the deadline.
    while len(ops) < MIN_OPS or (
        time.perf_counter() + statistics.median(o["wall_s"] for o in ops) <= deadline
    ):
        ops.append(runner.op(workload))
        tally.count(ops[-1]["error"])
        if len(ops) % stride == 0 or len(ops) == 1:
            setups.append(runner.setup())
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup())
    walls = [o["wall_s"] for o in ops]
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": workload.items * len(ops) / math.fsum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in ops),
    }
    lines = [
        f"  wall_s       median {metrics['wall_s']:.4f} s   q1..q3 {quartile_range(walls)}"
        f"   n={len(walls)} ops",
        f"  items_per_s  {metrics['items_per_s']:.1f} items/s   "
        f"({workload.items} items/op, {len(ops)} ops)",
        f"  setup_s      median {metrics['setup_s']:.4f} s   q1..q3 {quartile_range(setups)}"
        f"   n={len(setups)} `igci --help`",
        f"  peak_rss_mb  median {metrics['peak_rss_mb']:.1f} MB   max "
        f"{max(o['rss_mb'] for o in ops):.1f}   n={len(ops)} ops",
    ]
    return metrics, lines, [warm, *ops]


def traced_run(runner: Runner, workload, deadline: float, tally: Tally, cli_ops: list,
               env_record: dict, spans_path: Path) -> tuple:
    """Per-layer metrics from an in-process traced child, plus import and rusage figures.

    `cli_ops` are CLI ops of this workload, the first an untimed warm-up: its
    stdout is the reference for the traced ops, and the rest give process.cpu_s.
    """
    imports = [runner.import_times() for _ in range(IMPORT_SAMPLES)]

    config = runner.work / "trace.json"
    seconds = max(0.0, deadline - time.perf_counter())
    config.write_text(json.dumps({"src": str(SRC), "argvs": workload.ops, "seconds": seconds,
                                  "reference": cli_ops[0]["stdouts"],
                                  "out": str(spans_path), "env": env_record}))
    child = runner.spawn([sys.executable, str(Path(tracer.__file__)), str(config)],
                         timeout=seconds + PROCESS_TIMEOUT_S)
    if child["code"] != 0:
        raise RuntimeError(f"traced run failed: {child['stderr'].strip()[-500:]}")
    result = json.loads(child["stdout"].splitlines()[-1])
    for error in result["errors"]:
        tally.count(error)
    values, iqrs, absent = result["values"], result["iqrs"], result["absent"]
    for key in IMPORT_METRICS.values():
        samples = [i[key] for i in imports if key in i]
        values[key] = statistics.median(samples) if samples else 0.0
        if not samples:
            absent.append(key)
    values["process.cpu_s"] = statistics.median(o["cpu_s"] for o in cli_ops[1:])
    by_layer: dict = {}
    for name in tracer.SPAN_NAMES:
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + values[f"{name}.self_s"]
    out = [f"  traced ops: 1 first + {result['n_warm']} warm; spans in {spans_path.relative_to(ROOT)}",
           "  self time by layer (s): " + ", ".join(
               f"{layer} {t:.4g}" for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]))]
    if absent:
        out.append(f"  absent (reported as 0): {', '.join(absent)}")
    for key, value in values.items():
        spread = f"   iqr {iqrs[key]:.6g}" if key in iqrs else ""
        out.append(f"  {key:44s} {value:.6g}{spread}")
    return values, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "igci" / "__init__.py").is_file():
        print(f"perfbench: no igci sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env, env_record = environment()
    print("env: " + json.dumps(env_record, sort_keys=True))

    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    modes = [0, 1] if args.workload == "all" else [args.trace]
    tallies = []
    reported = {}
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="inputs-", dir=RUN_DIR))
    try:
        runner = Runner(env, work)
        for name in names:
            workload = workloads.build(name, work, args.seed)
            cli_ops = None  # the timed run's ops, reused by the traced run
            for mode in modes:
                tally = Tally()
                tallies.append(tally)
                deadline = time.perf_counter() + args.seconds
                if mode == 0:
                    print(f"{name} (seed {args.seed}): end-to-end, {args.seconds:g} s closed loop")
                    metrics, lines, cli_ops = timed_run(runner, workload, deadline, tally)
                    wanted = spec["end_to_end"]
                else:
                    print(f"{name} (seed {args.seed}): per-layer, traced in-process run")
                    if cli_ops is None:
                        cli_ops = [runner.op(workload) for _ in range(1 + CPU_OPS)]
                        for o in cli_ops:
                            tally.count(o["error"])
                    spans_path = RUN_DIR / f"spans-{name}-{args.seed}.jsonl"
                    metrics, lines = traced_run(runner, workload, deadline, tally, cli_ops,
                                                env_record, spans_path)
                    wanted = spec["per_layer"]
                print("\n".join(lines))
                print(f"  error_rate   {len(tally.failures)}/{tally.attempted} ops failed"
                      + "".join(f"\n    {failure}" for failure in tally.failures[:3]))
                prefix = f"{name}." if len(names) > 1 else ""
                for m in wanted:
                    reported[prefix + m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every child's ru_maxrss is at least this process's high-water mark, so
    # peak_rss_mb is the program's own only while this process stays smaller.
    self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"benchmark process peak RSS {self_mb:.1f} MB, smallest igci child "
          f"{runner.min_rss_mb:.1f} MB")
    if self_mb >= runner.min_rss_mb:
        message = "  the benchmark process is not the smaller: peak_rss_mb may be its own"
        print(message)
        tallies[-1].count(message.strip())

    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
