"""Benchmark outputs stay byte-identical to their recorded digests.

For every slot of the benchmark's workloads (``bench/workloads.py``) the
smallest instance runs in-process (for the graph slots, whose exports are
the widest outputs, the largest as well), through ``cli.main`` or
``closed_family_instance`` as the benchmark's worker runs it.  Its output
is hashed the way ``bench/worker.py`` hashes it and compared with the
digest in ``bench/pins.json``.  Both files are only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from kmcrystals import build_root_datum, cli, closed_family_instance

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    """bench/workloads.py as a module, without writing bytecode under bench/."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _digest(instance) -> str:
    if instance["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(instance["argv"]) == 0, instance["id"]
        text = out.getvalue()
    else:
        rd = build_root_datum(instance["preset"])
        iso, mapping, reason = closed_family_instance(
            rd, tuple(instance["lam"]), tuple(instance["mu"])
        )
        text = json.dumps([iso, sorted(mapping.items()) if mapping else None, reason])
    return hashlib.sha256(text.encode()).hexdigest()


def _check_slots(workload, pick):
    """Re-hash the instance ``pick`` chooses by size from every slot."""
    pins = json.loads((BENCH / "pins.json").read_text())
    checked = []
    for name, pool, _ in _workloads().slots(workload):
        for instance in pick(pool, key=lambda calls: sum(c["elements"] for c in calls)):
            assert _digest(instance) == pins[instance["id"]], (name, instance["id"])
            checked.append(instance["id"])
    assert len(checked) >= 3


@pytest.mark.parametrize("workload", ["graph", "tensor", "verify"])
def test_smallest_instance_of_each_slot_matches_its_pin(workload, monkeypatch):
    monkeypatch.delenv("CRYSTAL_NODE_BUDGET", raising=False)
    _check_slots(workload, min)


def test_largest_graph_instance_of_each_slot_matches_its_pin(monkeypatch):
    monkeypatch.delenv("CRYSTAL_NODE_BUDGET", raising=False)
    _check_slots("graph", max)
