"""Benchmark self-test: two traced runs at one seed must give identical counts.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload (all four by default), each in
fresh processes, and compares every per-layer count (factorizations, fill,
PGD steps, Newton calls, CN steps, fixed-point sweeps, competitor calls,
...) exactly.  Times are not compared.  It then runs the ground workload
with random starts from a second seed, which the timed runs keep fixed, and
applies the same output checks.  Exits 1 on any difference or failed check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import tracer
from run import ROOT, WORKLOAD_NAMES

COUNTS = [name for name, unit in tracer.PER_LAYER if unit != "s"]


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"traced run of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def second_start_seed(start_seed: int) -> bool:
    workloads = run.import_library()
    wl = workloads.GroundHalflineEx3(start_seed=start_seed)
    inputs = wl.setup(0)
    reference = json.loads(run.REFERENCE.read_text())[wl.name]
    out = wl.check(inputs, wl.run(inputs), reference)
    print(f"{wl.name} with start seed {start_seed}: energy_rel_err "
          f"{out.energy_rel_err:.3e}, {out.failed} of {out.attempted} failed"
          + "".join(f"; {p}" for p in out.problems))
    return not out.problems and not out.failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--start-seed", type=int, default=1,
                    help="random-start seed for the ground workload check")
    args = ap.parse_args()

    bad = 0
    for w in args.workloads:
        a, b = (traced_run(w, args.seed, args.seconds) for _ in range(2))
        diffs = {k: (a["metrics"][k]["value"], b["metrics"][k]["value"]) for k in COUNTS
                 if a["metrics"][k]["value"] != b["metrics"][k]["value"]}
        ok = not diffs and a["correct"] and b["correct"]
        bad += not ok
        print(f"{w}: {'counts repeat' if not diffs else 'COUNTS DIFFER ' + json.dumps(diffs)}"
              f"{'' if a['correct'] and b['correct'] else '; output checks failed'}")
    if "ground-halfline-ex3" in args.workloads:
        bad += not second_start_seed(args.start_seed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
