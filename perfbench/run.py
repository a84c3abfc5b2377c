"""Closed-loop benchmark of the graphnls solver library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
``--workload all`` runs the four workloads one after another.

With ``--trace 0`` the end-to-end metrics are measured untraced:

* ``wall_rel``: median pass wall time divided by the median wall time of
  a fixed calibration kernel (``calibrate.py``) run before every pass, so
  that the drift of a shared machine's speed cancels; ``wall_s``, the
  median pass wall time in seconds, is printed beside it with its quartiles;
* ``setup_s``: time in a fresh process to import graphnls and build the
  workload's inputs, divided by the time of a short interpreter loop run
  right after it in the same process, times ``SETUP_LOOP_REF_S``: set-up
  seconds on a machine whose loop takes that long.  The median over seven
  fresh processes; the raw median in seconds is printed beside it;
* ``peak_rss_mb``: peak of the summed resident memory of the workload
  process and its live children, through setup and the warm-up pass;
* ``ok_share``: operations that did not fail over operations attempted
  (one minus the failed share).

Workload passes run back to back in one fresh worker process, after one
untimed warm-up pass, until the next pass would end past ``--seconds``;
setup is timed in separate fresh processes.  With ``--trace 1`` the worker
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  The last line of standard
output is one JSON object.  A manifest (versions, cores, commit, seed) and,
when tracing, the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("ground-halfline-ex3", "catalogue-ex1", "probe-ex3", "scan-double-bridge")
SETUP_SAMPLES = 6            # fresh setup processes; the worker's own setup is one more
SETUP_LOOP_REF_S = 0.1       # setup_s is in seconds of a machine whose loop takes this
SETUP_TIMEOUT_S = 10         # setup takes under a second
WORKER_SLACK_S = 90          # worker time allowed beyond --seconds


# -- child processes --------------------------------------------------------

def import_library():
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports graphnls)

    return workloads


def setup_role(args) -> dict:
    t0 = time.perf_counter()
    workloads = import_library()
    workloads.WORKLOADS[args.workload].setup(args.seed)
    setup_s = time.perf_counter() - t0
    from calibrate import loop_seconds

    return {"setup_s": setup_s, "loop_s": loop_seconds()}


def worker_role(args) -> dict:
    t0 = time.perf_counter()
    workloads = import_library()
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    from calibrate import Calibration, loop_seconds

    setup = {"setup_s": setup_s, "loop_s": loop_seconds()}

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.write_reference:
        reference[wl.name] = wl.values(inputs, wl.run(inputs))
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    doc = _run_passes(args, workloads, wl, inputs, reference.get(wl.name, {}),
                      Calibration())
    doc.update(
        setup=setup,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    return doc


PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
RSS_SAMPLE_S = 0.01


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * PAGE_BYTES
    except (OSError, ValueError, IndexError):
        return 0


def _child_pids(pid: int) -> list[int]:
    kids = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids += [int(c) for c in f.read().split()]
        except (OSError, ValueError):
            pass
    return kids


def _tree_rss_bytes(pid: int) -> int:
    """Resident memory of ``pid`` plus that of all its live descendants."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        total += _rss_bytes(p)
        todo += _child_pids(p)
    return total


class RssSampler:
    """Samples, every ``RSS_SAMPLE_S``, the summed resident memory of this
    process and of all its live descendants, so that memory spread over a
    process pool adds up instead of hiding behind its largest member."""

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_bytes = max(self.peak_bytes, _tree_rss_bytes(pid))
            if self._stop.wait(RSS_SAMPLE_S):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def peak_mb(self) -> float:
        """The sampled peak, or, if larger, this process's own exact peak
        plus the largest peak among children already waited for (an upper
        bound for children that ended between two samples)."""
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(self.peak_bytes / 2**20, (self_kb + children_kb) / 1024.0)


def _run_passes(args, workloads, wl, inputs, ref, calibration) -> dict:
    """Run one untimed warm-up pass, read the peak RSS, then run timed passes
    back to back, each preceded by a run of the calibration kernel, until
    the next pass would end past ``args.seconds``.  When tracing, untraced
    and traced passes alternate.  Every pass's outputs are checked."""
    tracer_mod = None
    if args.trace:
        import tracer as tracer_mod

    totals = workloads.Outcome()
    energy_errs = []

    def check(result) -> None:
        outcome = wl.check(inputs, result, ref)
        totals.attempted += outcome.attempted
        totals.failed += outcome.failed
        totals.states += outcome.states
        totals.cn_steps += outcome.cn_steps
        if outcome.energy_rel_err is not None:
            energy_errs.append(outcome.energy_rel_err)
        totals.problems += [p for p in outcome.problems if p not in totals.problems]

    # the first pass in a fresh process runs up to 70 % slower (ground), by
    # an amount that varies from run to run; it is checked but not timed
    with RssSampler() as rss:
        check(wl.run(inputs))
    peak_rss_mb = rss.peak_mb()
    calibration.seconds()  # the kernel's own first run is slow too

    untraced, traced, layers, spans_out, cal_s = [], [], [], [], []
    start = time.perf_counter()
    while True:
        # the kernel runs before each pass, once the previous pass's states
        # are dropped, so that freeing them is not charged to the kernel
        cal_s.append(calibration.seconds())
        if args.trace and len(traced) < len(untraced):
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                t = time.perf_counter()
                with tr.span("bench.pass"):
                    result = wl.run(inputs)
                traced.append(time.perf_counter() - t)
            finally:
                tr.uninstall()
            layers.append(tracer_mod.layer_metrics(tr.spans))
            spans_out.append(tr.spans)
        else:
            t = time.perf_counter()
            result = wl.run(inputs)
            untraced.append(time.perf_counter() - t)
        check(result)
        result = None  # drop the pass's states before the next pass runs

        elapsed = time.perf_counter() - start
        enough = bool(untraced) and (bool(traced) or not args.trace)
        next_pass = statistics.median(untraced + traced) + statistics.median(cal_s)
        if enough and elapsed + next_pass > args.seconds:
            break

    doc = {
        "untraced_s": untraced,
        "wall_rel": statistics.median(untraced) / statistics.median(cal_s),
        "calibration_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "traced_s": traced,
        "passes": 1 + len(untraced) + len(traced),
        "attempted": totals.attempted,
        "failed": totals.failed,
        "states": totals.states,
        "cn_steps": totals.cn_steps,
        "energy_rel_err": max(energy_errs) if energy_errs else None,
        "problems": totals.problems,
    }
    if args.trace:
        doc["layers"] = layers
        doc["self_time_share"] = _shares(tracer_mod, spans_out[-1])
        doc["ground_state_calls"] = tracer_mod.counts_under(spans_out[-1], "solve.ground_state")
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": ["name", "parent", "thread", "start", "end", "info"],
                        "passes": spans_out})
        )
    return doc


def _shares(tracer_mod, spans) -> dict:
    by_kind = tracer_mod.self_time_by_kind(spans)
    whole = sum(by_kind.values()) or 1.0
    return {k: v / whole for k, v in sorted(by_kind.items(), key=lambda kv: -kv[1])}


def _child(role: str, args, seconds=None) -> dict:
    """Run this script in a fresh process and return its last stdout line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
        if args.write_reference:
            cmd.append("--write-reference")
    timeout = SETUP_TIMEOUT_S if seconds is None else seconds + WORKER_SLACK_S
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- reporting --------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> dict:
    setups = [] if args.trace else [_child("setup", args) for _ in range(SETUP_SAMPLES)]
    w = _child("worker", args, seconds=args.seconds)
    setups.append(w["setup"])
    setup_raw = [s["setup_s"] for s in setups]
    setup_s = SETUP_LOOP_REF_S * statistics.median([s["setup_s"] / s["loop_s"] for s in setups])

    wall = statistics.median(w["untraced_s"])
    q1, q3 = _quartiles(w["untraced_s"])
    passes = w["passes"]
    failed_share = w["failed"] / w["attempted"]
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}")
    rel = w["wall_rel"]
    print(f"wall_s {wall:.4f} s  (median of {len(w['untraced_s'])} untraced passes; "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"wall_rel {rel:.4f} ratio  (median pass over median of "
          f"{len(w['calibration_s'])} calibration runs, "
          f"{statistics.median(w['calibration_s']):.4f} s)")
    if args.workload in ("catalogue-ex1", "scan-double-bridge"):
        print(f"states_per_s {w['states'] / passes / wall:.4f} 1/s")
    if w["cn_steps"]:
        print(f"cn_steps_per_s {w['cn_steps'] / passes / wall:.1f} 1/s")
    if w["energy_rel_err"] is not None:
        print(f"energy_rel_err {w['energy_rel_err']:.3e} ratio")
    print(f"failed_share {failed_share:.4f} ratio  "
          f"({w['failed']} of {w['attempted']} operations)")

    if args.trace:
        metrics = _layer_summary(w, wall)
        for k, v in metrics.items():
            value = f"{v['value']:.6g}" if v["unit"] == "s" else v["value"]
            print(f"{k} {value} {v['unit']}")
        top = list(w["self_time_share"].items())[:8]
        print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
        if w["ground_state_calls"]:
            print("calls per ground_state: " + json.dumps(w["ground_state_calls"]))
    else:
        metrics = {
            "wall_rel": _metric(rel, "ratio"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(w["peak_rss_mb"], "MB"),
            "ok_share": _metric(1.0 - failed_share, "ratio"),
        }
        print(f"setup_s {setup_s:.4f} s  (median over {len(setups)} fresh processes of "
              f"set-up time / loop time x {SETUP_LOOP_REF_S} s; raw median "
              f"{statistics.median(setup_raw):.4f} s: {', '.join(f'{s:.3f}' for s in setup_raw)})")
        print(f"peak_rss_mb {w['peak_rss_mb']:.1f} MB")
        print(f"ok_share {1.0 - failed_share:.4f} ratio")
    for p in w["problems"]:
        print(f"CHECK FAILED: {p}")

    result = {"correct": not w["problems"], "attempted": w["attempted"],
              "failed": w["failed"], "metrics": metrics}
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **w["versions"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "git_commit": _git_commit(), "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    print("manifest " + json.dumps(manifest))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": manifest, "result": result, "setup_samples": setups,
                    "worker": w}, indent=1)
    )
    return result


def _layer_summary(w, untraced_wall) -> dict:
    """Per-layer metrics over the traced passes: times are medians, counts
    are the first pass's (selftest.py requires them to repeat exactly)."""
    import tracer

    out = {}
    for key, unit in tracer.PER_LAYER:
        values = [layer[key] for layer in w["layers"]]
        if unit == "s":
            out[key] = _metric(statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            print(f"NOTE: {key} differs between traced passes: {values}")
        out[key] = _metric(values[0], unit)
    out["bench.trace_overhead_s"] = _metric(
        statistics.median(w["traced_s"]) - untraced_wall, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the interior energies and multipliers of this run "
                         "as the reference the checks compare against")
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "graphnls" / "__init__.py").is_file():
        print(f"error: no graphnls package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.role == "setup":
        print(json.dumps(setup_role(args)))
        return 0
    if args.role == "worker":
        print(json.dumps(worker_role(args)))
        return 0

    if args.workload != "all":
        print(json.dumps(run_workload(args)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        args.workload = name
        r = run_workload(args)
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
