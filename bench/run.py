"""The kmcrystals benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload graph|tensor|verify --seed N --seconds S --trace 0|1

One run draws each repetition's instances from the seed, makes one traced
repetition (``bench/tracer.py``) on the first repetition's instances, then
starts one fresh interpreter per repetition (``bench/worker.py``), each
followed by a set-up-only interpreter, until ``--seconds`` have passed.
Every call's output is checked outside the timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  End-to-end times are scaled to
the reference speed of a fixed loop timed throughout the run (see
bench/README.md).  The line before it is a JSON report with the chosen
instances, raw quartiles and sample counts, the environment, the gauge and
the tracing overhead.

The program is taken from ``src/`` next to this directory; the run exits
with a non-zero status and prints no result if it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("graph", "tensor", "verify")
MIN_SETUP_SAMPLES = 20
# The speed gauge's time on the reference machine (2 vCPUs, CPython 3.11)
# in its fast mode; times are reported at that speed.
GAUGE_REF_S = 0.030
WORKER_TIMEOUT_S = 60
# Every run must finish well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170
MB = 1 << 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import kmcrystals from this checkout's src/, never from elsewhere."""
    if not (SRC / "kmcrystals" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'kmcrystals'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import kmcrystals
    import kmcrystals.cli  # noqa: F401  (compiles every module before workers start)

    if Path(kmcrystals.__file__).resolve().parent != (SRC / "kmcrystals").resolve():
        sys.exit(f"error: kmcrystals imported from {kmcrystals.__file__}, not {SRC}")
    sys.path.insert(0, str(BENCH))


def commit_id() -> str:
    """HEAD of the checkout, read from .git without running git, if present."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kmcrystals").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(calls, trace: bool, deadline: float) -> tuple[float, dict | None, str]:
    """Start one fresh interpreter on ``calls``; (spawn time, report or None, error)."""
    job = {"src": str(SRC), "trace": trace, "calls": calls}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # Above the largest graph any call generates, so a mis-sized instance
    # exits 3 instead of exhausting memory.
    env["CRYSTAL_NODE_BUDGET"] = str(2 * max([c["nodes"] for c in calls] + [1]))
    # Fixed string hashing, so set and dict layouts repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    t_spawn = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return t_spawn, None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not out.strip():
        return t_spawn, None, f"worker exited {proc.returncode}: {err[-500:]}"
    return t_spawn, json.loads(out.strip().splitlines()[-1]), ""


def quartiles(values):
    if not values:
        return None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracer
    import workloads

    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    load_before = os.getloadavg()
    pins = json.loads((BENCH / "pins.json").read_text())
    slots = workloads.slots(args.workload)

    attempted = failed = 0
    failures = []

    def account(calls, report, error):
        nonlocal attempted, failed
        for i, instance in enumerate(calls):
            attempted += 1
            if report is None:
                reason = error
            else:
                reason = workloads.check_call(instance, report["calls"][i], pins)
            if reason is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append({"id": instance["id"], "reason": reason})

    # The traced repetition runs right before the untraced repetition on the
    # same instances, so that their difference (the tracing overhead) is
    # little affected by drift in the machine's speed.
    first = workloads.draw(slots, args.workload, args.seed, 0)
    _, traced, error = run_worker(first, True, deadline)
    account(first, traced, error)

    reps, setup = [], []
    gauge = list(traced["gauge_s"]) if traced else []

    def probe_setup():
        t_spawn, report, _ = run_worker([], False, deadline)
        if report is not None:
            setup.append(report["t_ready"] - t_spawn)
            gauge.extend(report["gauge_s"])

    t_loop = time.monotonic()
    while not reps or time.monotonic() - t_loop < args.seconds:
        if time.monotonic() > deadline - WORKER_TIMEOUT_S:
            break
        calls = workloads.draw(slots, args.workload, args.seed, len(reps))
        t_spawn, report, error = run_worker(calls, False, deadline)
        account(calls, report, error)
        reps.append({"instances": [c["id"] for c in calls],
                     "elements": sum(c["elements"] for c in calls),
                     "report": report})
        if report is not None:
            setup.append(report["t_ready"] - t_spawn)
            gauge.extend(report["gauge_s"])
        # Set-up-only interpreters between repetitions spread the set-up
        # samples over the whole run.
        probe_setup()
    while len(setup) < MIN_SETUP_SAMPLES and time.monotonic() < deadline - WORKER_TIMEOUT_S:
        probe_setup()
    ok_reps = [r for r in reps if r["report"] is not None]

    if reps[0]["report"] is None or traced is None:
        print(json.dumps({"error": "first repetition or traced run failed", "failures": failures}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": max(failed, 1),
                          "metrics": {}}))
        return 0
    wall = [r["report"]["wall_s"] for r in ok_reps]
    # Elements over timed seconds of all repetitions: the instances of one
    # repetition differ in size, so a median of per-repetition rates would
    # mix the instance draw into the figure.
    throughput = sum(r["elements"] for r in ok_reps) / sum(wall)
    scale = GAUGE_REF_S / statistics.fmean(gauge)
    peak = [r["report"]["maxrss_bytes"] / MB for r in ok_reps]
    retained = [(r["report"]["rss_after_bytes"] - r["report"]["rss_setup_bytes"]) / MB
                for r in ok_reps]
    end_to_end = {
        "wall_s": (statistics.median(wall) * scale, "s"),
        "elements_per_s": (throughput / scale, "elements/s"),
        "setup_s": (statistics.median(setup) * scale, "s"),
        "peak_rss_mb": (statistics.median(peak), "MB"),
        "retained_mb": (statistics.median(retained), "MB"),
    }
    untraced_first = reps[0]["report"]["wall_s"]
    per_layer = tracer.per_layer_metrics(traced["trace"], traced["wall_s"], untraced_first)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": commit_id(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "gauge_s": {"n": len(gauge), "mean": statistics.fmean(gauge),
                        "quartiles": quartiles(gauge)},
            "time_scale": scale,
        },
        "raw_elements_per_s": throughput,
        "samples": {
            name: {"n": len(vals), "quartiles": quartiles(vals)}
            for name, vals in (("wall_s", wall), ("setup_s", setup),
                               ("peak_rss_mb", peak), ("retained_mb", retained))
        },
        "fail_ratio": failed / attempted,
        "failures": failures,
        "repetitions": [{"instances": r["instances"], "elements": r["elements"],
                         "wall_s": r["report"]["wall_s"] if r["report"] else None}
                        for r in reps],
        "tracing": {
            "traced_wall_s": traced["wall_s"],
            "untraced_wall_s": untraced_first,
            "overhead_s": traced["wall_s"] - untraced_first,
            "self_s_by_module": tracer.layer_shares(traced["trace"]),
            "spans": traced["trace"]["spans"],
        },
        "run_s": time.monotonic() - t_start,
    }
    print(json.dumps(detail))
    if args.trace:
        metrics = {name: {"value": v, "unit": tracer.PER_LAYER_UNITS[name]}
                   for name, v in per_layer.items()}
    else:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
