"""gaugeforge benchmark: one seeded workload per process, checked outputs.

Run from the checkout root:

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run in which traced and untraced executions of every job
alternate.  ``--smoke`` runs one pass of a minimal job list and skips the
extra set-up samples.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("construct", "separation-sweep", "dynamics", "cli")
SETUP_SAMPLES = 3          # the timed process plus two fresh processes
# job_tail_s is read at one fixed percentile per workload, so every run
# compares the same percentile.  construct has 162 jobs a pass, so p90 keeps
# at least 16 samples above it even in a one-pass traced run.  The others
# have 8-16 jobs a pass, too few for a percentile with 10 samples beyond it;
# there the tail is the slowest job of each pass, median over passes.
TAIL_PERCENTILE = {"construct": 90.0}
MAX_STDERR_FAILURES = 5


def pin_threads() -> int:
    """Cap BLAS at one thread and gaugeforge's sector pool at min(2, nproc),
    so the total stays at or below nproc.  Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["GAUGEFORGE_THREADS"] = str(min(2, nproc or 1))
    return nproc or 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one pass of a minimal job list")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def set_up(args):
    """Import gaugeforge, generate the seeded inputs and make one warm-up
    call; returns (plan, seconds taken)."""
    t0 = time.perf_counter()
    import gaugeforge  # noqa: F401  (the import is part of what is timed)
    import workloads
    plan = workloads.PLANS[args.workload](args.seed, args.smoke, workloads.load_reference())
    warm = plan.warmup.run()
    setup_s = time.perf_counter() - t0
    err = plan.warmup.check(warm)
    if err:
        raise RuntimeError(f"warm-up call failed: {err}")
    return plan, setup_s


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def execute(job):
    """(seconds, output or None, error or None); only job.run is timed."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        err = job.check(out)
    except Exception as exc:
        err = f"check raised {type(exc).__name__}: {exc}"
    return dt, (out if err is None else None), err


class Tally:
    def __init__(self):
        self.latencies: list[float] = []   # untraced executions
        self.traced: list[float] = []      # traced executions, paired with the above
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name, err):
        self.attempted += 1
        if err is not None:
            self.failures.append(f"{name}: {err}")


def run_passes(plan, seconds: float, tally: Tally, tracer=None, smoke=False) -> tuple[float, int]:
    """Whole passes over the plan's jobs until ``seconds`` have elapsed, so
    every pass has the same job mix.  Returns (elapsed, passes)."""
    start = time.perf_counter()
    passes = 0
    while True:
        results = {}
        for job in plan.jobs:
            if tracer is None:
                dt, out, err = execute(job)
                tally.latencies.append(dt)
            else:
                # alternate which side runs first so drift hits both alike
                order = (False, True) if len(tally.latencies) % 2 == 0 else (True, False)
                for traced in order:
                    if traced:
                        tracer.install()
                        try:
                            dt, out_t, err_t = execute(job)
                        finally:
                            tracer.uninstall()
                        tracer.end_job(dt)
                        tally.traced.append(dt)
                        tally.record(job.name + " (traced)", err_t)
                    else:
                        dt, out, err = execute(job)
                        tally.latencies.append(dt)
            tally.record(job.name, err)
            results[job.name] = out
        for name in sorted(plan.check_pass(results)):
            if results.get(name) is not None:
                tally.failures.append(f"{name}: pass-level check failed")
        passes += 1
        if smoke or time.perf_counter() - start >= seconds:
            return time.perf_counter() - start, passes


def tail(workload: str, latencies: list[float], jobs_per_pass: int) -> tuple[float, str]:
    """(value, how it was read); see TAIL_PERCENTILE."""
    n = len(latencies)
    p = TAIL_PERCENTILE.get(workload)
    if p is not None:
        rank = max(1, math.ceil(p / 100 * n))
        return sorted(latencies)[rank - 1], f"p{p:g}, n={n}, {n - rank} above"
    worst = [max(latencies[i:i + jobs_per_pass]) for i in range(0, n, jobs_per_pass)]
    return statistics.median(worst), f"slowest job a pass, median of {len(worst)} passes"


def provenance(args, nproc, plan, passes, setup_samples, tail_rule, tracer):
    import numpy
    import scipy
    prov = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": passes,
        "jobs_per_pass": len(plan.jobs), "inputs": plan.inputs, "job_tail": tail_rule,
        "setup_samples_s": setup_samples, "nproc": nproc,
        "env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS", "GAUGEFORGE_THREADS")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }
    if tracer is not None:
        prov["absent"] = tracer.absent
        prov["uncounted"] = sorted(tracer.uncounted)
    return prov


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    if not (ROOT / "src" / "gaugeforge" / "__init__.py").is_file():
        print(f"error: no gaugeforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        _, setup_s = set_up(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [] if args.smoke else [setup_in_fresh_process(args)
                                           for _ in range(SETUP_SAMPLES - 1)]
    plan, setup_s = set_up(args)
    setup_samples.append(setup_s)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    tally = Tally()
    elapsed, passes = run_passes(plan, args.seconds, tally, tracer, args.smoke)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lat = tally.latencies
    failed = len(tally.failures)
    for line in tally.failures[:MAX_STDERR_FAILURES]:
        print(f"failed: {line}", file=sys.stderr)
    tail_s, tail_rule = tail(args.workload, lat, len(plan.jobs))
    p50 = statistics.median(lat)

    print(f"workload {args.workload}, seed {args.seed}: {len(lat)} jobs in {passes} "
          f"passes, {elapsed:.2f} s, trace {args.trace}")
    print(f"  setup_s      {statistics.median(setup_samples):.4f} s "
          f"(median of {len(setup_samples)})")
    if not args.trace:
        print(f"  jobs_per_s   {len(lat) / elapsed:.4f} 1/s")
    print(f"  job_p50_s    {p50:.6f} s (n={len(lat)})")
    print(f"  job_tail_s   {tail_s:.6f} s ({tail_rule})")
    print(f"  peak_rss_mb  {peak_rss_mb:.2f} MB")
    print(f"  failed_frac  {failed / tally.attempted:.4f} ({failed}/{tally.attempted})")

    if args.trace:
        metrics = tracer.metrics(passes)
        metrics["job_tail_s"] = (tail_s, "s")
        metrics["trace.overhead_ratio"] = (sum(tally.traced) / sum(lat), "ratio")
        for name in [k for k in metrics if k.startswith("share.")] + ["trace.overhead_ratio"]:
            print(f"  {name:<20} {metrics[name][0]:.4f}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "jobs_per_s": (len(lat) / elapsed, "1/s"),
            "job_p50_s": (p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print("provenance " + json.dumps(provenance(args, nproc, plan, passes, setup_samples,
                                                tail_rule, tracer), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
