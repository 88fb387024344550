"""Record the reference outputs the benchmark checks its jobs against.

Run from the checkout root after a change that is meant to alter outputs:

    python3 bench/record.py

It rewrites bench/reference.json with the (e0, separation) of every M55
ordering in the separation pool, the final trace distance, purity and EoF of
every dynamics job, and the digests of every CLI command's outputs.
"""

from __future__ import annotations

import json
import os
import sys

from run import ROOT, pin_threads

pin_threads()
os.chdir(ROOT)
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the threads pinned and the path set above)


def main() -> int:
    ref = {"separation": [], "dynamics": {}, "cli": {}}
    for rows, cols in workloads.separation_pool():
        rep = workloads.run_separation(rows, cols)
        ref["separation"].append({"e0_code": rep.e0_code, "separation": rep.separation})
    for name in workloads.dynamics_job_names():
        ref["dynamics"][name] = workloads.final_metrics(workloads.run_dynamics(name))
    workloads.write_cli_inputs()
    workloads.cli_warmup().run()
    for name in workloads.CLI_COMMANDS:
        rc, texts = workloads.run_cli(name)
        if rc != 0:
            print(f"{name}: exit code {rc}", file=sys.stderr)
            return 1
        ref["cli"][name] = {out: workloads.digest(text) for out, text in texts.items()}
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
