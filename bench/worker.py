"""One repetition of a workload in a fresh interpreter.

Usage: python3 bench/worker.py JOB_JSON

JOB_JSON holds ``src`` (the directory holding the ``kmcrystals`` package),
``calls`` (instances from ``workloads.py``) and ``trace`` (whether to wrap
the program's layers with ``tracer.py``).  The worker imports the program,
times each call, digests each call's output after its timer stops, drops
the outputs, collects garbage, and prints one JSON line with the timings,
digests, memory readings and (when traced) the per-layer record.  After
each call, outside its timed region, and twice in a job without calls
(which measures set-up time only), the worker times a fixed loop that
gauges the machine's speed at that moment.

A fresh interpreter per repetition is deliberate: the program keeps
module-level caches for the life of the process, so a second repetition in
the same interpreter would time cache hits.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * PAGE


def gauge() -> float:
    """Seconds for a fixed pure-Python loop, a gauge of the machine's speed."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(200_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def summarize(instance: dict, text: str):
    """The part of a call's output that the checks need, kept small."""
    if instance["check"]["type"] == "graph":  # node count in the DOT and the JSON part
        return [text.count('[label="('), text.count('\n      "id": ')]
    return text  # TSV tables and verify reports are a few lines


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from kmcrystals import cli, explorer
    from kmcrystals.root_datum import build_root_datum

    tracer = None
    if job["trace"]:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    root_data = {c["preset"]: build_root_datum(c["preset"])
                 for c in job["calls"] if c["kind"] == "closed"}
    gc.collect()
    rss_setup = rss_bytes()
    t_ready = time.monotonic()

    results = []
    gauges = []
    wall = 0.0
    for instance in job["calls"]:
        out, err = io.StringIO(), io.StringIO()
        outcome = {"id": instance["id"], "rc": None}
        value = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if instance["kind"] == "cli":
                    outcome["rc"] = cli.main(instance["argv"])
                else:
                    value = explorer.closed_family_instance(
                        root_data[instance["preset"]],
                        tuple(instance["lam"]),
                        tuple(instance["mu"]),
                    )
        except Exception as exc:  # a failing call is counted, the run goes on
            outcome["error"] = repr(exc)
        elapsed = time.perf_counter() - t0
        wall += elapsed
        outcome["s"] = elapsed
        if value is not None:
            iso, mapping, reason = value
            text = json.dumps([iso, sorted(mapping.items()) if mapping else None, reason])
            outcome["summary"] = {"iso": iso, "reason": reason,
                                  "mapped": len(mapping) if mapping else 0}
        else:
            text = out.getvalue()
            outcome["summary"] = summarize(instance, text)
        outcome["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        outcome["stderr"] = err.getvalue()[-500:]
        del out, err, text, value
        results.append(outcome)
        gauges.append(gauge())  # the machine's speed while the calls ran

    gc.collect()
    report = {
        "t_ready": t_ready,
        "wall_s": wall,
        "rss_setup_bytes": rss_setup,
        "rss_after_bytes": rss_bytes(),
        "maxrss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "calls": results,
        "gauge_s": gauges or [gauge(), gauge()],
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
