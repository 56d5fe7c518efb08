"""Workload pools, seeded instance draws, element counts and output checks.

Every instance is one call into the program: a ``kmcrystals.cli.main(argv)``
call, or (closed-family pairs only) one ``explorer.closed_family_instance``
call.  Instances are drawn from fixed pools whose sizes sit in a band
checked with the ``weyl_dim`` oracle, so that different seeds give
comparable work.  A repetition (one fresh interpreter) draws ``count``
distinct instances from each slot of its workload.

Each instance carries

* ``elements``: the crystal elements any correct implementation must
  produce or check for it (|B(lambda)|, |B(lambda)|*|B(mu)|, or the elements
  a verify suite checks); it is fixed by the inputs alone;
* ``nodes``: the largest graph the call generates, used to size the node
  budget of the process that runs it;
* ``check``: what :func:`check_call` compares the call's output against.
"""

from __future__ import annotations

import itertools
import random

from kmcrystals import build_root_datum, weyl_dim

# Node counts of the depth-bounded truncation of affineA1 B(1,1) used by the
# verify workload.  No closed formula exists for these; they were counted
# once and are part of the benchmark's inputs, and check_call compares the
# count the program reports against them.
AFFINE_TRUNCATION_NODES = {12: 263, 13: 351}


def _fmt(weight) -> str:
    return ",".join(str(x) for x in weight)


def _dim(rd, weight) -> int:
    return weyl_dim(rd, rd.weight(weight))


def _dominant(rd, max_entry):
    for weight in itertools.product(range(max_entry + 1), repeat=rd.n):
        if any(weight):
            yield weight


def _banded(preset, max_entry, band):
    """Nonzero dominant weights with entries <= max_entry and |B| in band."""
    rd = build_root_datum(preset)
    lo, hi = band
    out = []
    for weight in _dominant(rd, max_entry):
        d = _dim(rd, weight)
        if lo <= d <= hi:
            out.append((weight, d))
    return out


def _graph_pool(preset, max_entry, band):
    """One call per weight, writing both DOT and JSON (DOT first) to stdout."""
    return [
        {
            "id": f"graph {preset} {_fmt(weight)}",
            "kind": "cli",
            "argv": ["graph", "--preset", preset, "--weight", _fmt(weight),
                     "--dot", "-", "--json", "-"],
            "elements": d,
            "nodes": d,
            "check": {"type": "graph", "nodes": d},
        }
        for weight, d in _banded(preset, max_entry, band)
    ]


def _tensor_pool(preset, max_entry, band):
    rd = build_root_datum(preset)
    weights = [(w, _dim(rd, w)) for w in _dominant(rd, max_entry)]
    lo, hi = band
    out = []
    for (a, da), (b, db) in itertools.product(weights, repeat=2):
        if lo <= da * db <= hi:
            out.append({
                "id": f"tensor {preset} {_fmt(a)} x {_fmt(b)}",
                "kind": "cli",
                "argv": ["tensor", "--preset", preset, "--weight", _fmt(a),
                         "--weight", _fmt(b), "--tsv", "-"],
                "elements": da * db,
                "nodes": da * db,
                "check": {"type": "tensor", "preset": preset, "product": da * db},
            })
    return out


def _closed_pool(preset, max_entry, band):
    rd = build_root_datum(preset)
    weights = list(_dominant(rd, max_entry))
    lo, hi = band
    out = []
    for lam, mu in itertools.product(weights, repeat=2):
        d = _dim(rd, tuple(a + b for a, b in zip(lam, mu)))
        if lo <= d <= hi:
            out.append({
                "id": f"closed {preset} {_fmt(lam)} x {_fmt(mu)}",
                "kind": "closed",
                "preset": preset,
                "lam": list(lam),
                "mu": list(mu),
                "elements": d,
                "nodes": d,
                "check": {"type": "closed", "nodes": d},
            })
    return out


def _verify_call(suite, preset, weight, elements, expected, depth=None):
    argv = ["verify", suite, "--preset", preset, "--weight", _fmt(weight)]
    label = f"verify {suite} {preset} {_fmt(weight)}"
    if depth is not None:
        argv += ["--depth", str(depth)]
        label += f" depth {depth}"
    return {
        "id": label,
        "kind": "cli",
        "argv": argv,
        "elements": elements,
        "nodes": elements,
        "check": {"type": "verify", "stdout": "\n".join(expected + ["PASS"]) + "\n"},
    }


def _embedding_pool():
    out = [
        _verify_call("embedding", "affineA1", (1, 1), n,
                     [f"embedding: 0 mismatches on {n} elements"], depth=depth)
        for depth, n in sorted(AFFINE_TRUNCATION_NODES.items())
    ]
    finite = [
        _verify_call("embedding", "A3", w, d, [f"embedding: 0 mismatches on {d} elements"])
        for w, d in _banded("A3", 2, (60, 130))
    ]
    return out, finite


def _axioms_normal_pool():
    """Pairs (axioms call, normal call) on the same D4 weight."""
    rd = build_root_datum("D4")
    return [
        (
            _verify_call("axioms", "D4", w, d, [f"axioms: 0 violations on {d} nodes"]),
            _verify_call("normal", "D4", w, d,
                         [f"normal: 0 violations, {rd.n * d} checked, 0 skipped"]),
        )
        for w, d in _banded("D4", 2, (250, 700))
    ]


def _oracle_pool():
    return [
        _verify_call("oracle", "E6", w, d, [
            f"oracle: #B = {d}, weyl_dim = {d}",
            "oracle: character matches multiplicity recursion",
        ])
        for w, d in _banded("E6", 1, (250, 800))
    ]


def slots(workload: str) -> list[tuple[str, list, int]]:
    """(slot name, pool, instances drawn per repetition) for one workload.

    A pool entry is a list of instances that always run together, in order.
    No pool is smaller than its count, so a repetition never repeats an
    instance.
    """
    if workload == "graph":
        # Full finite-type B(lambda) around the ladder anchors A4 (1,1,1,1),
        # D4 (1,1,1,1) = 4096 nodes and E6 (1,1,0,0,0,0) = 1728 nodes.
        return [
            ("A4", [[c] for c in _graph_pool("A4", 3, (1000, 1100))], 1),
            ("D4", [[c] for c in _graph_pool("D4", 3, (4000, 4400))], 1),
            ("E6", [[c] for c in _graph_pool("E6", 2, (1700, 1800))], 1),
        ]
    if workload == "tensor":
        # Two-factor products; A3 (1,1,1)x(1,1,1) = 4096 product nodes and
        # D4 (1,0,0,1)x(0,1,0,0) are in the pools.
        return [
            ("A2", [[c] for c in _tensor_pool("A2", 3, (1100, 1800))], 2),
            ("A3", [[c] for c in _tensor_pool("A3", 2, (3500, 4200))], 2),
            ("D4", [[c] for c in _tensor_pool("D4", 1, (1200, 1600))], 2),
        ]
    if workload == "verify":
        affine, finite = _embedding_pool()
        return [
            ("closed", [[c] for c in _closed_pool("A3", 2, (250, 360))], 2),
            ("embedding-affine", [[c] for c in affine], 1),
            ("embedding-finite", [[c] for c in finite], 1),
            ("axioms-normal", [list(pair) for pair in _axioms_normal_pool()], 1),
            ("oracle", [[c] for c in _oracle_pool()], 1),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload_slots, workload: str, seed: int, rep: int) -> list[dict]:
    """The instances of repetition ``rep``; the same (seed, rep) gives the same list.

    Each slot's pool is shuffled once per seed and dealt out in order, so a
    run only repeats an instance after it has used the whole pool, and the
    runs of different seeds sample the pool alike.
    """
    calls = []
    for name, pool, count in workload_slots:
        order = list(range(len(pool)))
        random.Random(f"{workload}/{name}/{seed}").shuffle(order)
        for i in range(rep * count, (rep + 1) * count):
            calls.extend(pool[order[i % len(pool)]])
    return calls


def all_instances(workload: str) -> list[dict]:
    return [c for _, pool, _ in slots(workload) for group in pool for c in group]


def check_call(instance: dict, outcome: dict, pins: dict) -> str | None:
    """None if the call's output is correct, else the reason it is not.

    ``outcome`` is what the worker reported for the call: exit code or
    exception, output digest, and a summary extracted outside the timed
    region.  Pinned digests exist for every pool instance.
    """
    if outcome.get("error"):
        return f"raised {outcome['error']}"
    check = instance["check"]
    if check["type"] != "closed" and outcome["rc"] != 0:
        return f"exit code {outcome['rc']}: {outcome.get('stderr', '')[-200:]}"
    pinned = pins.get(instance["id"])
    if pinned is None:
        return "no pinned digest for this instance"
    if outcome["sha256"] != pinned:
        return "output bytes differ from the pinned digest"
    summary = outcome["summary"]
    if check["type"] == "graph":
        if summary != [check["nodes"], check["nodes"]]:
            return f"DOT and JSON hold {summary} nodes, weyl_dim gives {check['nodes']}"
    elif check["type"] == "tensor":
        return _check_tensor_table(check, summary)
    elif check["type"] == "verify":
        if summary != check["stdout"]:
            return f"output {summary!r}, expected {check['stdout']!r}"
    elif check["type"] == "closed":
        if not summary["iso"]:
            return f"not isomorphic: {summary['reason']}"
        if summary["mapped"] != check["nodes"]:
            return f"witness maps {summary['mapped']} nodes, weyl_dim gives {check['nodes']}"
    return None


def _check_tensor_table(check: dict, tsv: str) -> str | None:
    """Sum of multiplicity * weyl_dim(highest weight) must be |B(lam)|*|B(mu)|."""
    lines = tsv.splitlines()
    if lines[:2] != ["# complete: true", "lambda\troot\tmultiplicity"]:
        return f"unexpected table header {lines[:2]!r}"
    rd = build_root_datum(check["preset"])
    total = 0
    for line in lines[2:]:
        lam, root, mult = line.split("\t")
        wt = rd.weight(lam.split(","), root.split(","))
        total += int(mult) * weyl_dim(rd, wt)
    if total != check["product"]:
        return f"decomposition accounts for {total} elements, expected {check['product']}"
    return None
