"""Seeded inputs, CLI operations and output checks for each workload.

Inputs are generated with numpy alone and written with ``%.17g``, so that
neither a defect nor a speed-up in igci's own writer or simulator can change
what the benchmark feeds the program. The program sees only files and argv.

Every workload is a closed loop: one benchmark process runs its ops one after
another. An op is one or more ``igci`` processes; its wall time runs from
spawning the first until the last one exits.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Input sizes. They are part of the benchmark definition: changing one
# changes every figure the benchmark reports.
INFER_ROWS = 100_000
MANIFEST_ENTRIES = 200
MANIFEST_LENGTHS = (1000, 2000, 3000, 4000)
GRID_M = 1000
GRID_REPS = 100
GRID_CELLS = 25
ALIGN_ROWS = 20_000
ALIGN_MAX_PLANTED_LAG = 1500  # below the CLI default max-lag of 10% of rows
TRACE_ROWS = 5000
TRACE_DIM = 10

# sha256 of `igci simulate --experiment grid --m 1000 --reps 100
# --estimator slope --seed <seed>` stdout, for the default seed 0 and a few
# more. Seeded simulate output must stay byte-identical across commits, so a
# mismatch is an output-check failure.
GRID_STDOUT_SHA256 = {
    0: "4ec5ecf224595dc11c96458582db8634f5ef61c221700bdd989a440228a16993",
    1: "db118a22c8c7b43f81c035c408a971dfe0b20f8fd63f93e9248f16852460100e",
    2: "206ae0cfc6c17ae1b7745db0a3fb25627fb834058e70a4c77ae96f213d031e14",
    3: "09de4b9e44ba54987d49174b16744a33e7690483bc9b4d1c986a04b8f9f34d24",
    4: "026a6fbddef7f11e733a63b1ca267f727cca0f1234adec5b89184e6ce7db3d72",
    5: "932fcb02aeaf55fe2b93992bd3ea3e24d0736b4b0016e4cf41436856040056b8",
    6: "b5c40c94fc43b6791b3d59a45569dd183a7d1b67fc6f3696e0451b8ed98b3636",
    7: "38edbe312e305c8492d716537897360097e1d47aaf3f0bdcbf7b7d9c7558e502",
    8: "8f7e1358c96f165eabd505cf60d7922062452ccea71f01eaf489289875e6f43d",
    9: "3c0ec243d2041a1b8eb84d881b43db7e06fe6c490c20198a16c22013f3166517",
    10: "ab0f78dd0e3aae17e2a966248ea79b0d124eba100782ca95e1eb0d9d6b010979",
    11: "295fd48ce2ad23466007918c26c9839b7b65d8cb82d0badab58334e3205a7941",
    12: "76641610823af8edff652e4fb60915cae41f9aa3d828ec8a093102c554f5a523",
    13: "7c9b8091586798459418f71f883f64bb41dbabd6a2504489dfd79eb9bfe300d7",
    14: "7c19947358254f8d2b9ea4982e921b063bb3896d369c9276ca5e40b4c80044e3",
    15: "ed0a6f1c2125f2681165e540b440ec546a1666107ddcbb2004fd3968f300e77b",
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([tag, seed])


def _write(path: Path, table: np.ndarray) -> None:
    np.savetxt(path, table, fmt="%.17g", delimiter="\t")


def _monotone_map(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """A strictly increasing, nonlinear map of [0, 1] onto itself."""
    power = rng.uniform(2.0, 4.0)
    if rng.random() < 0.5:
        power = 1.0 / power
    return x**power


def _records(stdout: str) -> list:
    return [json.loads(line) for line in stdout.splitlines()]


@dataclass
class Workload:
    ops: list  # argv tails, one per igci process of the op
    items: int  # items completed by one op
    check: Callable[[list], str | None]  # op stdouts -> failure message or None


def _infer_file(work: Path, seed: int) -> Workload:
    rng = _rng("infer-file", seed)
    x = rng.uniform(0.0, 1.0, INFER_ROWS)
    y = _monotone_map(rng, x)
    path = work / "pair.tsv"
    _write(path, np.column_stack([x, y]))
    # The program reads the text, so the expectation is taken from it too.
    table = np.loadtxt(path)
    expected_m_used = int(min(np.unique(table[:, 0]).size, np.unique(table[:, 1]).size))

    def check(stdouts: list) -> str | None:
        (rec,) = _records(stdouts[0])
        if rec["direction"] != "x->y":
            return f"direction {rec['direction']!r}, planted x->y"
        if rec["c_yx"] != -rec["c_xy"]:
            return f"c_yx {rec['c_yx']!r} is not -c_xy {rec['c_xy']!r}"
        if rec["m_used"] != expected_m_used:
            return f"m_used {rec['m_used']}, expected {expected_m_used}"
        return None

    return Workload([["infer", str(path)]], INFER_ROWS, check)


def _pairs_manifest(work: Path, seed: int) -> Workload:
    rng = _rng("pairs-manifest", seed)
    lines = []
    for k in range(MANIFEST_ENTRIES):
        m = int(rng.choice(MANIFEST_LENGTHS))
        cause = rng.uniform(0.0, 1.0, m)
        effect = _monotone_map(rng, cause)
        if k % 2:
            effect = effect + 0.02 * rng.standard_normal(m)
        # The true direction is x->y for even k // 2 and y->x for odd.
        swap = (k // 2) % 2 == 1
        columns = (effect, cause) if swap else (cause, effect)
        name = f"pair{k:03d}.tsv"
        _write(work / name, np.column_stack(columns))
        lines.append(f"pair{k:03d},{name},0,1,{'y->x' if swap else 'x->y'}\n")
    manifest = work / "manifest.csv"
    manifest.write_text("# id,path,x_col,y_col,truth\n" + "".join(lines))

    def check(stdouts: list) -> str | None:
        records = _records(stdouts[0])
        pairs = [r for r in records if r["record"] == "pair"]
        summaries = [r for r in records if r["record"] == "summary"]
        if len(pairs) != MANIFEST_ENTRIES:
            return f"{len(pairs)} pair records for {MANIFEST_ENTRIES} entries"
        errors = [r["id"] for r in pairs if r["error"] is not None]
        if errors:
            return f"error records for {errors[:3]}"
        if len(summaries) != 1 or summaries[0]["entries"] != MANIFEST_ENTRIES:
            return "missing or wrong summary record"
        return None

    return Workload([["pairs", str(manifest)]], MANIFEST_ENTRIES, check)


def _simulate_grid(work: Path, seed: int) -> Workload:
    argv = ["simulate", "--experiment", "grid", "--m", str(GRID_M), "--reps", str(GRID_REPS),
            "--estimator", "slope", "--seed", str(seed)]
    first: list = []

    def check(stdouts: list) -> str | None:
        out = stdouts[0]
        records = _records(out)
        configs = [r for r in records if r["record"] == "config"]
        cells = [r for r in records if r["record"] == "cell"]
        if len(configs) != 1 or len(cells) != GRID_CELLS or len(records) != GRID_CELLS + 1:
            return f"{len(configs)} config and {len(cells)} cell records"
        for c in cells:
            if c["correct"] + c["wrong"] + c["undecided"] != GRID_REPS:
                return f"cell {c['row']}{c['col']} does not total {GRID_REPS}"
        if not first:
            first.append(out)
        elif out != first[0]:
            return "stdout differs from the first op of this run"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if seed in GRID_STDOUT_SHA256 and digest != GRID_STDOUT_SHA256[seed]:
            return f"stdout sha256 {digest} differs from the stored digest for seed {seed}"
        return None

    return Workload([argv], GRID_CELLS * GRID_REPS, check)


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.9) -> np.ndarray:
    shocks = rng.standard_normal(n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


def _align_tracedir(work: Path, seed: int) -> Workload:
    rng = _rng("align-tracedir", seed)
    lag = int(rng.integers(50, ALIGN_MAX_PLANTED_LAG + 1)) * (1 if rng.random() < 0.5 else -1)
    base = _ar1(rng, ALIGN_ROWS + abs(lag))
    # b[i + lag] == a[i] before noise; the two series correlate positively.
    if lag >= 0:
        a, b = base[lag:], base[:ALIGN_ROWS]
    else:
        a, b = base[:ALIGN_ROWS], base[-lag:]
    b = b + 0.1 * rng.standard_normal(ALIGN_ROWS)
    series = work / "series.tsv"
    _write(series, np.column_stack([a, b]))

    # x has a mildly anisotropic covariance drawn independently of the map.
    x = rng.standard_normal((TRACE_ROWS, TRACE_DIM)) * rng.uniform(0.8, 1.25, TRACE_DIM)
    a_map = rng.standard_normal((TRACE_DIM, TRACE_DIM))
    joint = work / "joint.tsv"
    _write(joint, np.column_stack([x, x @ a_map.T]))
    cols = ",".join(str(c) for c in range(TRACE_DIM))
    ycols = ",".join(str(c) for c in range(TRACE_DIM, 2 * TRACE_DIM))

    def check(stdouts: list) -> str | None:
        (align,) = _records(stdouts[0])
        (trace,) = _records(stdouts[1])
        if align["lag"] != lag:
            return f"align lag {align['lag']}, planted {lag}"
        if trace["direction"] != "x->y":
            return f"tracedir direction {trace['direction']!r}, planted x->y"
        return None

    return Workload(
        [["align", str(series)], ["tracedir", str(joint), "--x-cols", cols, "--y-cols", ycols]],
        ALIGN_ROWS + TRACE_ROWS,
        check,
    )


BUILDERS = {
    "infer-file": _infer_file,
    "pairs-manifest": _pairs_manifest,
    "simulate-grid": _simulate_grid,
    "align-tracedir": _align_tracedir,
}


def build(name: str, work: Path, seed: int) -> Workload:
    """Write the workload's inputs for `seed` under `work` and describe its op."""
    return BUILDERS[name](work, seed)
