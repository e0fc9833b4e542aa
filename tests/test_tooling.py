"""The package's surface: exports resolve, each has a caller, and the report script runs."""

import ast
import hashlib
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import igci
from igci.cli import main

ROOT = Path(__file__).resolve().parents[1]

# Tiny arguments so each script finishes in about a second.
SCRIPT_ARGS = {
    "run_trace_concentration.py": ["--dims", "2,3", "--m", "200", "--trials", "3"],
}


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(igci.__path__) if m.name != "__main__")
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"igci.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_public_name_has_a_caller_outside_tests():
    sources = [
        *(ROOT / "src" / "igci").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    names = (m.name for m in pkgutil.iter_modules(igci.__path__) if m.name != "__main__")
    uncalled = [n for name in names for n in importlib.import_module(f"igci.{name}").__all__ if n not in used]
    assert uncalled == []


def test_every_error_class_is_documented_in_the_readme():
    # An error class is kept only as a documented contract; other failures raise their family.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in igci.errors.__all__ if f"`{name}`" not in readme] == []


def test_readme_names_the_runtime_dependencies_of_pyproject():
    # README's Install sentence is the user's list of what igci needs at run time.
    sentence = re.search(r"runtime dependenc(?:y is|ies are) ([^.]+)\.", (ROOT / "README.md").read_text(encoding="utf-8"))
    named = set(re.split(r",\s*(?:and\s+)?|\s+and\s+", sentence.group(1)))
    table = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M | re.S)
    required = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in re.findall(r'"([^"]+)"', table.group(1))}
    assert named == required


def test_package_exports_exactly_the_module_lists():
    modules = ("core", "errors", "estimators", "io", "simulation", "trace")
    declared = [n for mod in modules for n in importlib.import_module(f"igci.{mod}").__all__]
    public = {
        name
        for name, value in vars(igci).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(declared) == len(set(declared))
    assert public == set(declared)


def test_report_scripts_run():
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert [p.name for p in scripts] == sorted(SCRIPT_ARGS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for script in scripts:
        cmd = [sys.executable, str(script), *SCRIPT_ARGS[script.name]]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"
        assert proc.stdout


def _perfbench_module(monkeypatch, name: str) -> types.ModuleType:
    """perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_span_resolves(monkeypatch):
    # A renamed function would otherwise turn its span "absent" and read 0 without a failure.
    spans = _perfbench_module(monkeypatch, "tracer").SPANS
    missing = [(mod, name) for mod, name in spans if not hasattr(importlib.import_module(f"igci.{mod}"), name)]
    assert missing == []


def test_run_grid_calls_apply_mechanism_once_per_block(monkeypatch):
    # The benchmark's mechanism span wraps simulation.apply_mechanism, so the grid must call it there.
    monkeypatch.setattr(igci._fanout, "_cpu_count", lambda: 1)  # a forked worker would count in its own copy
    monkeypatch.setattr(igci.simulation, "_BLOCK_VALUES", 2 * 20)  # blocks of 2, 2 and 1 repetitions
    calls = []
    kernel = igci.simulation.apply_mechanism

    def counting(*args):
        calls.append(len(args[1]))
        return kernel(*args)

    monkeypatch.setattr(igci.simulation, "apply_mechanism", counting)
    igci.simulation.run_grid(m=20, repetitions=5, seed=3)
    assert calls == [2, 2, 1] * 25


def test_simulate_grid_benchmark_stdout_matches_its_digest(capsys, monkeypatch):
    # The benchmark's own record of the seed-0 simulate-grid stdout, read from its file.
    workloads = _perfbench_module(monkeypatch, "workloads")
    argv = ["simulate", "--experiment", "grid", "--m", str(workloads.GRID_M), "--reps", str(workloads.GRID_REPS),
            "--estimator", "slope", "--seed", "0"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == workloads.GRID_STDOUT_SHA256[0]


def test_simulate_grid_benchmark_digest_holds_on_two_workers(capsys, monkeypatch):
    # Forces the forked path, so the digest guards it on a one-CPU host too.
    monkeypatch.setattr(igci._fanout, "_cpu_count", lambda: 2)
    test_simulate_grid_benchmark_stdout_matches_its_digest(capsys, monkeypatch)


def test_substream_is_the_only_function_that_builds_a_seed_sequence_or_philox():
    # A second derivation of the seeded streams would have to be kept equal to substream's by hand.
    users = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split('.')[0]}.{node.name}"
        if getattr(node, "attr", getattr(node, "id", None)) in ("SeedSequence", "Philox"):
            users.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in (ROOT / "src" / "igci").glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert users == {"simulation.substream"}


def test_text_becomes_a_table_only_in_io():
    # One module decides what a file's text means, and the cache it keeps is read and written
    # beside that decision, so a parse rule and the cache format cannot drift apart.
    callers = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.loadtxt", "np.load", "np.save"):
            callers.setdefault(node.attr, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in (ROOT / "src" / "igci").glob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert callers == {"loadtxt": {"io._parse_table"}, "load": {"io._cached_table"}, "save": {"io._store_table"}}


def test_every_seed_argument_is_a_name_or_an_integer_literal():
    # A seed computed from another (seed + k) is some other run's base seed, so the two runs
    # share streams; a new stream extends substream's path instead.
    computed = []
    for path in (ROOT / "src" / "igci").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            seeds = [kw.value for kw in node.keywords if kw.arg in ("seed", "rng_seed")]
            position = {"substream": 0, "verify_noise_bound": 1}.get(name)
            if position is not None and len(node.args) > position:
                seeds.append(node.args[position])
            computed += [
                f"{path.name}:{seed.lineno}: {ast.unparse(seed)}"
                for seed in seeds
                if not isinstance(seed, ast.Name)
                and not (isinstance(seed, ast.Constant) and type(seed.value) is int)
            ]
    assert computed == []


def test_output_records_are_built_only_in_the_cli():
    # Every dict display with a "record" key is an output record; their schema lives in one module.
    builders = set()
    for path in (ROOT / "src" / "igci").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "record" for key in node.keys
            ):
                builders.add(path.stem)
    assert builders == {"cli"}
