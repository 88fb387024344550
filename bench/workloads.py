"""Seeded inputs, jobs and output checks for the four benchmark workloads.

A job is one user-level request: one code analysed, one separation, one
trajectory or one CLI command.  Every job carries its own correctness check;
``Plan.check_pass`` adds the checks that compare jobs of one pass.  Jobs call
gaugeforge through module attributes at call time, so the tracer's wrappers
are seen when they are installed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gaugeforge
import gaugeforge.cli
import gaugeforge.opensys

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

M412 = [[1, 1], [1, 1]]
M622 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
M55 = [
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [0, 1, 0, 1, 1],
    [1, 0, 1, 0, 1],
    [1, 1, 1, 1, 0],
]
MATRICES = {"m412": M412, "m622": M622, "m55": M55}

TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct


@dataclass
class Plan:
    jobs: list[Job]      # one pass, in run order
    warmup: Job
    inputs: dict         # provenance: what the seed produced
    check_pass: Callable[[dict], set[str]] = field(default=lambda results: set())


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# construct: build_code + extract_reduced_basis + verify_reduced_basis + report
# ---------------------------------------------------------------------------

# two matrices per shape, so the job mix of one seed is close to another's
CONSTRUCT_SHAPES = [(r, c) for r in range(2, 11) for c in range(2, 11)] * 2
CONSTRUCT_SMOKE_SHAPES = [(2, 2), (2, 3), (3, 3)]


def random_code_matrix(rng, rows: int, cols: int) -> np.ndarray:
    """Half the entries set, no empty row or column (n <= 50 <= 63)."""
    nnz = (rows * cols + 1) // 2
    while True:
        flat = np.zeros(rows * cols, dtype=int)
        flat[rng.choice(rows * cols, nnz, replace=False)] = 1
        M = flat.reshape(rows, cols)
        if M.any(axis=1).all() and M.any(axis=0).all():
            return M


def gf2_rank_oracle(M) -> int:
    """Rank over GF(2) with rows packed into ints, independent of gaugeforge."""
    basis: list[int] = []
    for row in M:
        v = int("".join(str(int(x)) for x in row), 2)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def construct_job(M: np.ndarray) -> Job:
    rows, cols = M.shape
    n, k = int(M.sum()), gf2_rank_oracle(M)
    expect = (cols - k, rows - k, n - rows - cols + k)  # X stabs, Z stabs, aux pairs

    def run():
        cm = gaugeforge.CodeMatrix.from_matrix(M)
        code = gaugeforge.build_code(cm)
        rb = gaugeforge.extract_reduced_basis(cm)
        return code, rb, gaugeforge.verify_reduced_basis(code, rb), code.to_report()

    def check(out):
        code, rb, verification, report = out
        if not verification.ok:
            return f"verification failed: {verification.violations}"
        got = (len(rb.x_stabilizers), len(rb.z_stabilizers), rb.num_aux)
        if got != expect or (code.n, code.k) != (n, k) or report["n"] != n:
            return f"counts {got} n={code.n} k={code.k}, expected {expect} n={n} k={k}"
        return None

    return Job(f"construct-{rows}x{cols}", run, check)


def construct_plan(seed: int, smoke: bool, ref: dict) -> Plan:
    rng = np.random.default_rng(seed)
    shapes = CONSTRUCT_SMOKE_SHAPES if smoke else CONSTRUCT_SHAPES
    matrices = [random_code_matrix(rng, r, c) for r, c in shapes]
    order = rng.permutation(len(matrices))
    return Plan(
        jobs=[construct_job(matrices[i]) for i in order],
        warmup=construct_job(matrices[0]),
        inputs={"shapes": sorted({f"{r}x{c}" for r, c in shapes}),
                "per_shape": shapes.count(shapes[0]), "fill": "ceil(rows*cols/2)",
                "qubits": [int(M.sum()) for M in matrices]},
    )


# ---------------------------------------------------------------------------
# separation-sweep: reordered M55 codes, energy_separation with uniform weights
# ---------------------------------------------------------------------------

SEPARATION_POOL_SEED = 3
SEPARATION_POOL_SIZE = 48
SEPARATION_PASS = 16


def separation_pool() -> list[tuple[list[int], list[int]]]:
    """Row and column orderings of M55 whose results reference.json records."""
    rng = np.random.default_rng(SEPARATION_POOL_SEED)
    return [(rng.permutation(5).tolist(), rng.permutation(5).tolist())
            for _ in range(SEPARATION_POOL_SIZE)]


def run_separation(rows, cols):
    cm = gaugeforge.CodeMatrix.from_matrix(np.asarray(M55)[rows][:, cols])
    code = gaugeforge.build_code(cm)
    rb = gaugeforge.extract_reduced_basis(cm)
    w = gaugeforge.WeightSpec.uniform(1.0, len(code.gauge_generators))
    return gaugeforge.energy_separation(code, rb, w)


def separation_job(index: int, ordering, expected: dict) -> Job:
    def check(report):
        got = (report.e0_code, report.separation)
        want = (expected["e0_code"], expected["separation"])
        if not all(close(a, b) for a, b in zip(got, want)):
            return f"(e0, separation) {got} != recorded {want}"
        return None

    return Job(f"separation-{index}", lambda: run_separation(*ordering), check)


def separation_plan(seed: int, smoke: bool, ref: dict) -> Plan:
    pool = separation_pool()
    recorded = ref["separation"]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=2 if smoke else SEPARATION_PASS, replace=False)
    jobs = [separation_job(int(i), pool[i], recorded[int(i)]) for i in picks]
    return Plan(jobs=jobs, warmup=jobs[0],
                inputs={"orderings": [{"rows": pool[i][0], "cols": pool[i][1]} for i in picks],
                        "sectors": 64, "sector_dim": 256, "weights": "uniform:1"})


# ---------------------------------------------------------------------------
# dynamics: the criterion-7 experiments on a shortened grid
# ---------------------------------------------------------------------------

# Criterion 7's grids (plusL: 0..2e-7 s, Bell: 0..3e-8 s, 26 samples) take
# 2-60 s per trajectory at this commit.  These shortened grids keep every
# mechanism in play and make one pass about 13 s, so a 20 s run always holds
# two passes, and make the plusL and two-block jobs cost about the same, so the
# median job has close neighbours.
DYNAMICS = {
    "plusL-together": {"code": "m412", "blocks": "together", "state": "plusL",
                       "gammas": [0.8, 1.0, 1.2, 1.5], "t_max": 1e-7, "samples": 26},
    "bell-together": {"code": "m622", "blocks": "together", "state": "bell",
                      "gammas": [0.2, 1.2], "t_max": 2e-10, "samples": 3},
    "bell-separate": {"code": "m412", "blocks": "separate", "state": "bell",
                      "gammas": [0.2, 1.2], "t_max": 5e-10, "samples": 3},
}
DYNAMICS_SMOKE = ["plusL-together@0.8"]


def dynamics_job_names() -> list[str]:
    return [f"{exp}@{g}" for exp, spec in DYNAMICS.items() for g in spec["gammas"]]


def run_dynamics(name: str, t_max: float | None = None, samples: int | None = None):
    exp, gamma = name.split("@")
    spec = DYNAMICS[exp]
    t_grid = np.linspace(0.0, t_max or spec["t_max"], samples or spec["samples"])
    cm = gaugeforge.CodeMatrix.from_matrix(MATRICES[spec["code"]])
    code = gaugeforge.build_code(cm)
    rho_L = gaugeforge.opensys.PLUS if spec["state"] == "plusL" else gaugeforge.opensys.BELL
    bath = gaugeforge.BathSpec()
    if spec["blocks"] == "together":
        return gaugeforge.simulate_code(code, rho_L, float(gamma), bath, t_grid)
    composite = gaugeforge.build_code(gaugeforge.combined_matrix([cm, cm]))
    return gaugeforge.simulate_two_blocks(code, composite, rho_L, float(gamma), bath, t_grid)


def final_metrics(traj) -> dict:
    last = traj.metrics[-1]
    return {key: last[key] for key in ("trace_distance", "purity", "eof") if key in last}


def dynamics_job(name: str, expected: dict) -> Job:
    def check(traj):
        got = final_metrics(traj)
        if got.keys() != expected.keys() or not all(
                close(got[key], expected[key]) for key in expected):
            return f"final metrics {got} != recorded {expected}"
        return None

    return Job(name, lambda: run_dynamics(name), check)


def dynamics_orderings(results: dict) -> set[str]:
    """Criterion 7's orderings, on experiments whose jobs all succeeded;
    returns the names of the jobs of every experiment that breaks them."""
    failed = set()
    for exp, spec in DYNAMICS.items():
        names = [f"{exp}@{g}" for g in spec["gammas"]]
        if not all(results.get(n) is not None for n in names):
            continue
        finals = [final_metrics(results[n]) for n in names]
        if spec["state"] == "plusL":
            dist = [f["trace_distance"] for f in finals]
            ok = all(a > b for a, b in zip(dist, dist[1:]))
        else:
            ok = finals[-1]["eof"] > finals[0]["eof"]
        if not ok:
            failed.update(names)
    return failed


def dynamics_plan(seed: int, smoke: bool, ref: dict) -> Plan:
    # The inputs are the paper's experiments and the order is fixed, so runs
    # of different seeds differ only by machine noise.
    names = DYNAMICS_SMOKE if smoke else dynamics_job_names()
    jobs = [dynamics_job(name, ref["dynamics"][name]) for name in names]
    first = dynamics_job_names()[0]
    warmup = Job("warmup", lambda: run_dynamics(first, DYNAMICS["plusL-together"]["t_max"] / 25, 2),
                 lambda traj: None)
    return Plan(jobs=jobs, warmup=warmup, check_pass=dynamics_orderings,
                inputs={"experiments": DYNAMICS, "bath": "BathSpec() defaults"})


# ---------------------------------------------------------------------------
# cli: in-process gaugeforge.cli.main on the 4-, 6- and 16-qubit codes
# ---------------------------------------------------------------------------

# Relative to the checkout root; the paths appear in the reports, so they
# must not depend on where the checkout lives.
WORK = ".bench_work/cli"

ENCODE_PROBLEM = {
    "blocks": [M622, M622],
    "h": {"1": 1.0, "2": 1.0, "3": 1.0, "4": 1.0},
    "J": {"1,2": 1.0, "3,4": 1.0, "2,3": 1.0},
    "assignment": {"1": [0, 0], "2": [0, 1], "3": [1, 0], "4": [1, 1]},
}


def _cli_commands() -> dict[str, tuple[list[str], list[str]]]:
    """name -> (argv, output files)."""
    cmds = {}
    for m in MATRICES:
        path = f"{WORK}/{m}.txt"
        cmds[f"info-{m}"] = (["code", "info", path, "--out", f"{WORK}/info-{m}.json"],
                             [f"info-{m}.json"])
        cmds[f"reduce-{m}"] = (["code", "reduce", path, "--out", f"{WORK}/reduce-{m}.json"],
                               [f"reduce-{m}.json"])
        weights = ["--weights", "xz:1,0.5"] if m == "m622" else []
        cmds[f"spectrum-{m}"] = (["spectrum", path, *weights,
                                  "--sector-table", f"{WORK}/sectors-{m}.csv",
                                  "--out", f"{WORK}/spectrum-{m}.json"],
                                 [f"spectrum-{m}.json", f"sectors-{m}.csv"])
    cmds["spectrum-basis-m55"] = (["spectrum", f"{WORK}/m55.txt", "--basis",
                                   f"{WORK}/basis-m55.json",
                                   "--out", f"{WORK}/spectrum-basis-m55.json"],
                                  ["spectrum-basis-m55.json"])
    cmds["full-check-m55"] = (["spectrum", f"{WORK}/m55.txt", "--full-check",
                               "--out", f"{WORK}/full-check-m55.json"],
                              ["full-check-m55.json"])
    cmds["simulate-m412"] = (["simulate", f"{WORK}/m412.txt", "--initial", "plusL",
                              "--gamma", "0.8,1.2", "--t-max", "2e-8", "--samples", "6",
                              "--out", f"{WORK}/simulate-m412.csv"],
                             ["simulate-m412.csv"])
    cmds["encode-count"] = (["encode-count", f"{WORK}/problem.json",
                             "--out", f"{WORK}/encode-count.json"],
                            ["encode-count.json"])
    return cmds


CLI_COMMANDS = _cli_commands()
CLI_SMOKE = ["info-m412", "reduce-m412", "spectrum-m412", "encode-count"]

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(name: str) -> tuple[int, dict[str, str]]:
    argv, outputs = CLI_COMMANDS[name]
    for out in outputs:
        if os.path.exists(f"{WORK}/{out}"):
            os.remove(f"{WORK}/{out}")
    try:
        rc = gaugeforge.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code
    texts = {}
    for out in outputs:
        if os.path.exists(f"{WORK}/{out}"):
            with open(f"{WORK}/{out}") as f:
                texts[out] = f.read()
    return rc, texts


def write_cli_inputs():
    os.makedirs(WORK, exist_ok=True)
    for m, M in MATRICES.items():
        with open(f"{WORK}/{m}.txt", "w") as f:
            f.write("".join(" ".join(str(x) for x in row) + "\n" for row in M))
    with open(f"{WORK}/problem.json", "w") as f:
        json.dump(ENCODE_PROBLEM, f, indent=2, sort_keys=True)


def cli_job(name: str, expected: dict) -> Job:
    def check(out):
        rc, texts = out
        if rc != 0:
            return f"exit code {rc}"
        wrong = [o for o in expected if o not in texts or digest(texts[o]) != expected[o]]
        return f"outputs differ from the recorded digests: {wrong}" if wrong else None

    return Job(name, lambda: run_cli(name), check)


def cli_warmup() -> Job:
    argv = ["code", "reduce", f"{WORK}/m55.txt", "--out", f"{WORK}/basis-m55.json"]
    return Job("warmup", lambda: gaugeforge.cli.main(argv),
               lambda rc: None if rc == 0 else f"exit code {rc}")


def cli_plan(seed: int, smoke: bool, ref: dict) -> Plan:
    write_cli_inputs()
    names = CLI_SMOKE if smoke else list(CLI_COMMANDS)
    order = np.random.default_rng(seed).permutation(len(names))
    jobs = [cli_job(names[i], ref["cli"][names[i]]) for i in order]
    return Plan(jobs=jobs, warmup=cli_warmup(),
                inputs={"commands": {n: CLI_COMMANDS[n][0] for n in names}})


PLANS = {
    "construct": construct_plan,
    "separation-sweep": separation_plan,
    "dynamics": dynamics_plan,
    "cli": cli_plan,
}
