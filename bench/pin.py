"""Record the output digest of every pool instance in bench/pins.json.

Usage (from the repository root): python3 bench/pin.py

Run only when the program's output bytes change on purpose.  Each output
must also pass the oracle checks of ``workloads.check_call``; nothing is
written if one does not.
"""

import json
import sys
import time

import run


def main() -> int:
    run.import_program()
    import workloads

    pins, outcomes = {}, []
    for workload in run.WORKLOADS:
        instances = workloads.all_instances(workload)
        for start in range(0, len(instances), 10):
            chunk = instances[start:start + 10]
            _, report, error = run.run_worker(chunk, False, time.monotonic() + 600)
            if report is None:
                sys.exit(f"error: {error}")
            for instance, outcome in zip(chunk, report["calls"]):
                pins[instance["id"]] = outcome["sha256"]
                outcomes.append((instance, outcome))
    bad = [(i["id"], reason) for i, o in outcomes
           if (reason := workloads.check_call(i, o, pins)) is not None]
    if bad:
        sys.exit(f"error: {len(bad)} outputs fail their checks, first {bad[0]}")
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
