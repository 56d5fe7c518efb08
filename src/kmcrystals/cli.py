"""Batch command line interface.

Subcommands: ``graph`` writes an explored B(lambda) as DOT or JSON,
``tensor`` decomposes a tensor product of highest-weight crystals into a
table, ``verify`` runs one of the built-in verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 node
budget exceeded.  The node budget is controlled by the environment
variable CRYSTAL_NODE_BUDGET (default 10^6 nodes).  It bounds every graph
a command generates.  ``tensor`` without ``--depth`` decomposes by the
highest-weight rule and generates only the factors, so there the budget
bounds each factor, not the product; with ``--depth`` the truncated
product is built and the budget bounds it too.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .crystal_core import check_axioms, check_normal, graph_to_dot, graph_to_json
from .explorer import (
    BudgetExceeded,
    character,
    closed_family_instance,
    decompose,
    decompose_tensor,
    finite_type_check,
    freudenthal_multiplicities,
    generate_highest_weight_crystal,
    tensor_product_graph,
    weyl_dim,
)
from .quiver_model import embedding_mismatches
from .root_datum import build_root_datum, load_root_datum

VERIFY_SUITES = ("axioms", "normal", "closed", "embedding", "oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kmcrystals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", help="named root datum, e.g. A2, D4, E6, affineA1")
        p.add_argument("--root-datum", help="JSON or TOML file with preset/adjacency")
        p.add_argument("--depth", type=int, default=None, help="max operator applications")

    g = sub.add_parser("graph", help="generate B(lambda) and emit DOT or JSON")
    add_common(g)
    g.add_argument("--weight", required=True, help="comma-separated dominant coordinates")
    g.add_argument("--dot", help="write DOT to this path")
    g.add_argument("--json", dest="json_path", help="write JSON to this path")

    t = sub.add_parser("tensor", help="decompose a tensor product of B(lambda_i)")
    add_common(t)
    t.add_argument(
        "--weight", action="append", required=True,
        help="comma-separated coordinates; repeat once per tensor factor",
    )
    t.add_argument("--tsv", help="write the decomposition table as TSV")
    t.add_argument("--json", dest="json_path", help="write the decomposition table as JSON")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=VERIFY_SUITES)
    add_common(v)
    v.add_argument("--weight", help="comma-separated dominant coordinates")
    v.add_argument("--max-entry", type=int, default=2, help="random weight entry bound")
    v.add_argument("--pairs", type=int, default=20, help="number of random weight pairs")
    v.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    return parser


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _root_datum(args):
    if args.preset and args.root_datum:
        raise ValueError("give either --preset or --root-datum, not both")
    if args.preset:
        return build_root_datum(args.preset)
    if args.root_datum:
        return load_root_datum(args.root_datum)
    raise ValueError("a root datum is required (--preset or --root-datum)")


def _parse_weight(text: str, n: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weight {text!r} is not a comma-separated integer vector")
    if len(coords) != n:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {n}")
    return coords


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_graph(args) -> int:
    try:
        rd = _root_datum(args)
        lam = _parse_weight(args.weight, rd.n)
    except (ValueError, OSError) as exc:
        return _fail_usage(str(exc))
    if any(x < 0 for x in lam):
        return _fail_usage(f"weight {args.weight} is not dominant")
    try:
        g = generate_highest_weight_crystal(rd, lam, depth=args.depth)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wrote = False
    if args.dot:
        _write(graph_to_dot(g), args.dot)
        wrote = True
    if args.json_path:
        _write(json.dumps(graph_to_json(g), indent=2) + "\n", args.json_path)
        wrote = True
    if not wrote:
        _write(json.dumps(graph_to_json(g), indent=2) + "\n", None)
    return 0


def cmd_tensor(args) -> int:
    try:
        rd = _root_datum(args)
        weights = [_parse_weight(w, rd.n) for w in args.weight]
    except (ValueError, OSError) as exc:
        return _fail_usage(str(exc))
    for w, text in zip(weights, args.weight):
        if any(x < 0 for x in w):
            return _fail_usage(f"weight {text} is not dominant")
    try:
        if args.depth is None:
            table = decompose_tensor(rd, weights)
        else:
            factors = [generate_highest_weight_crystal(rd, w, depth=args.depth) for w in weights]
            table = decompose(tensor_product_graph(rd, factors, depth=args.depth))
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    tsv = f"# complete: {str(table.complete).lower()}\n" + table.to_tsv()
    wrote = False
    if args.tsv:
        _write(tsv, args.tsv)
        wrote = True
    if args.json_path:
        _write(json.dumps(table.to_json_dict(), indent=2) + "\n", args.json_path)
        wrote = True
    if not wrote:
        _write(tsv, None)
    return 0


def _report(lines: list[str], ok: bool) -> int:
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    try:
        rd = _root_datum(args)
    except (ValueError, OSError) as exc:
        return _fail_usage(str(exc))
    suite = args.suite
    try:
        if suite in ("axioms", "normal", "embedding", "oracle"):
            if not args.weight:
                return _fail_usage(f"suite {suite} needs --weight")
            lam = _parse_weight(args.weight, rd.n)
            if any(x < 0 for x in lam):
                return _fail_usage(f"weight {args.weight} is not dominant")
        if suite == "axioms":
            g = generate_highest_weight_crystal(rd, lam, depth=args.depth)
            violations = check_axioms(g)
            return _report(
                [f"axioms: {len(violations)} violations on {g.node_count()} nodes"]
                + violations[:10],
                not violations,
            )
        if suite == "normal":
            g = generate_highest_weight_crystal(rd, lam, depth=args.depth)
            report = check_normal(g)
            return _report(
                [
                    f"normal: {len(report.violations)} violations, "
                    f"{report.checked} checked, {report.skipped} skipped"
                ]
                + report.violations[:10],
                report.ok(),
            )
        if suite == "embedding":
            g = generate_highest_weight_crystal(rd, lam, depth=args.depth)
            mismatches: list[str] = []
            for key in g.sorted_keys():
                mismatches += embedding_mismatches(rd, g.nodes[key].element)
            return _report(
                [f"embedding: {len(mismatches)} mismatches on {g.node_count()} elements"]
                + mismatches[:10],
                not mismatches,
            )
        if suite == "oracle":
            if not finite_type_check(rd):
                return _fail_usage("oracle suite needs a finite-type root datum")
            g = generate_highest_weight_crystal(rd, lam, depth=args.depth)
            wt = rd.weight(lam)
            dim = weyl_dim(rd, wt)
            lines = [f"oracle: #B = {g.node_count()}, weyl_dim = {dim}"]
            ok = g.node_count() == dim
            chars_ok = character(g) == freudenthal_multiplicities(rd, wt)
            lines.append(f"oracle: character {'matches' if chars_ok else 'DIFFERS from'} "
                         "multiplicity recursion")
            return _report(lines, ok and chars_ok)
        if suite == "closed":
            rng = random.Random(args.seed)
            lines = []
            ok = True
            for _ in range(args.pairs):
                lam = tuple(rng.randint(0, args.max_entry) for _ in range(rd.n))
                mu = tuple(rng.randint(0, args.max_entry) for _ in range(rd.n))
                iso, _, reason = closed_family_instance(rd, lam, mu, depth=args.depth)
                lines.append(f"closed: {lam} x {mu} -> {'ok' if iso else 'FAIL ' + reason}")
                ok = ok and iso
            return _report(lines, ok)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled suite {suite}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.depth is not None and args.depth < 0:
        return _fail_usage("--depth must be >= 0")
    if args.command == "graph":
        return cmd_graph(args)
    if args.command == "tensor":
        return cmd_tensor(args)
    if args.command == "verify":
        return cmd_verify(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
