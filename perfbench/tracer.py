"""Outside-in tracer: spans around igci's public functions, no program edits.

Run as a child process, ``python3 perfbench/tracer.py <config.json>``, so
that the first traced op meets igci in a fresh process. The child calls
``igci.cli.main(argv)`` for each op with stdout captured, alternating traced
and untraced ops until the time is up, and checks each op's stdout against
the CLI's. It writes one JSON line per span and per op, and prints one JSON
object: the per-layer metrics from ``layer_metrics`` and each op's check
result. Aggregating here keeps the spans out of the benchmark process.

A span record is plain JSON: ``name``, ``op``, ``id``, ``parent`` (the id
of the enclosing span or null), ``start`` and ``end`` in seconds, and
``error`` (exception class name) or ``attrs`` (counters) when present.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time
from pathlib import Path

# (module, public name) under igci. Modules copy bindings with
# `from .x import f`, so each function is wrapped at every module binding
# of it. Classes are traced through their __init__; the class object itself
# is never replaced.
SPANS = (
    ("cli", "main"),
    ("io", "load_table"),
    ("io", "load_pair"),
    ("io", "load_manifest"),
    ("io", "evaluate_manifest"),
    ("io", "align_lag"),
    ("io", "format_json_lines"),
    ("core", "SamplePair"),
    ("core", "MultiSample"),
    ("core", "normalize_uniform"),
    ("estimators", "igci_score"),
    ("simulation", "run_grid"),
    ("simulation", "substream"),
    ("simulation", "apply_mechanism"),
    ("trace", "infer_linear_direction"),
    ("trace", "trace_gap"),
)
SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name in SPANS)

# Spans whose first call in a fresh process is reported on its own.
FIRST_CALL = ("cli.main", "estimators.igci_score", "trace.infer_linear_direction")


def _score_attrs(args, kwargs, result) -> dict:
    pair = args[0] if args else kwargs["pair"]
    return {"m": int(pair.m), "m_used": int(result.m_used)}


def _manifest_attrs(args, kwargs, result) -> dict:
    reports = result.reports
    return {"entries": len(reports), "decided": sum(1 for r in reports if r.decided)}


# Counters read at a span boundary from its arguments and result.
ATTRS = {"estimators.igci_score": _score_attrs, "io.evaluate_manifest": _manifest_attrs}


class Recorder:
    """Holds spans in memory; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []  # (owner, attribute, original, wrapper)
        self.absent: list = []

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op, "id": self._next_id,
                    "parent": self._stack[-1] if self._stack else None}
            self._next_id += 1
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if attrs_of is not None:
                try:
                    span["attrs"] = attrs_of(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass
            return result

        return traced

    def prepare(self, igci_modules: dict) -> None:
        """Build the wrappers once; names missing from igci are recorded as absent."""
        for mod, attr in SPANS:
            name = f"{mod}.{attr}"
            module = igci_modules.get(mod)
            target = getattr(module, attr, None) if module is not None else None
            if target is None:
                self.absent.append(name)
            elif isinstance(target, type):
                init = target.__dict__.get("__init__")
                if init is None:
                    self.absent.append(name)
                else:
                    self._patches.append((target, "__init__", init, self._wrap(name, init)))
            else:
                wrapper = self._wrap(name, target)
                for owner in igci_modules.values():
                    for key, value in list(vars(owner).items()):
                        if value is target:
                            self._patches.append((owner, key, target, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)


def _run_op(cli, argvs: list) -> tuple:
    stdouts, codes = [], []
    start = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(list(argv)))
        stdouts.append(out.getvalue())
    return time.perf_counter() - start, codes, stdouts


def run(config: dict) -> dict:
    """Trace ops until the time is up; write the spans, return the aggregates."""
    sys.path.insert(0, config["src"])
    import importlib

    import igci

    if not str(Path(igci.__file__).resolve()).startswith(str(Path(config["src"]).resolve())):
        raise SystemExit(f"imported igci from {igci.__file__}, not from {config['src']}")
    modules = {"": igci}
    for mod in {m for m, _ in SPANS}:
        try:
            modules[mod] = importlib.import_module(f"igci.{mod}")
        except ImportError:
            pass
    recorder = Recorder()
    recorder.prepare(modules)
    cli = modules["cli"]

    ops = []
    deadline = time.perf_counter() + config["seconds"]
    traced = True  # op 0 is traced: it holds the first calls in this process
    while True:
        recorder.op = len(ops)
        if traced:
            recorder.install()
        try:
            wall, codes, stdouts = _run_op(cli, config["argvs"])
        finally:
            recorder.remove()
        error = None
        if any(codes):
            error = f"traced op {recorder.op} exit codes {codes}"
        elif stdouts != config["reference"]:
            error = f"{'traced' if traced else 'untraced'} in-process op {recorder.op} " \
                    "stdout differs from the CLI's"
        ops.append({"record": "op", "op": recorder.op, "traced": traced, "wall_s": wall,
                    "codes": codes, "error": error})
        traced = not traced
        n_traced = sum(o["traced"] for o in ops)
        if time.perf_counter() >= deadline and n_traced >= 3 and len(ops) - n_traced >= 2:
            break
    with open(config["out"], "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"record": "env", **config["env"]}) + "\n")
        handle.write(json.dumps({"record": "absent", "names": recorder.absent}) + "\n")
        for line in ops + recorder.spans:
            handle.write(json.dumps(line) + "\n")
    values, iqrs = layer_metrics(ops, recorder.spans)
    return {"values": values, "iqrs": iqrs, "absent": recorder.absent,
            "errors": [o["error"] for o in ops],
            "n_warm": sum(1 for o in ops if o["traced"] and o["op"] != 0)}


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def layer_metrics(ops: list, spans: list) -> tuple:
    """Per-layer metrics and their IQRs from a traced run's op and span records.

    Warm values are medians over the traced ops after the first; ``first_s``
    is the first call in op 0. Spans a workload never reaches read 0.
    """
    warm_ops = [o["op"] for o in ops if o["traced"] and o["op"] != 0]
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    per_op = {(name, op): [0, 0.0, 0.0, 0] for name in SPAN_NAMES for op in warm_ops}
    first: dict = {}
    attrs: dict = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if s["op"] == 0:
            first.setdefault(s["name"], dur)
            continue
        acc = per_op[(s["name"], s["op"])]
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - children.get(s["id"], 0.0)
        acc[3] += "error" in s
        for key, value in s.get("attrs", {}).items():
            attrs.setdefault((s["name"], key), []).append(value)

    values: dict = {}
    iqrs: dict = {}
    for name in SPAN_NAMES:
        for k, field in enumerate(("calls", "total_s", "self_s", "errors")):
            series = [per_op[(name, op)][k] for op in warm_ops]
            values[f"{name}.{field}"] = _median(series)
            iqrs[f"{name}.{field}"] = _iqr(series)
    for name in FIRST_CALL:
        values[f"{name}.first_s"] = first.get(name, 0.0)

    def frac(name, num, den):
        total = sum(attrs.get((name, den), []))
        return sum(attrs.get((name, num), [])) / total if total else 0.0

    values["estimators.igci_score.kept_frac"] = frac("estimators.igci_score", "m_used", "m")
    values["io.evaluate_manifest.decided_frac"] = frac("io.evaluate_manifest", "decided", "entries")
    traced = [o["wall_s"] for o in ops if o["traced"] and o["op"] != 0]
    plain = [o["wall_s"] for o in ops if not o["traced"]]
    values["process.trace_overhead_ratio"] = _median(traced) / _median(plain)
    return values, iqrs


if __name__ == "__main__":
    result = run(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
    print(json.dumps(result))
