"""Batch command line interface.

Subcommands: ``graph`` writes an explored B(lambda) as DOT or JSON,
``tensor`` decomposes a tensor product of highest-weight crystals into a
table, ``verify`` runs one of the built-in verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 node
budget exceeded.  Every usage error in every subcommand (a missing or
malformed root datum or weight, a weight of the wrong length or not
dominant, a negative ``--depth``, ``--max-entry`` or ``--pairs``, the
oracle suite on a datum not of finite type, an output path that is a
directory or lies in a missing one) is found before any work starts and
before any file is written, and exits 2 with one ``error:`` line on
stderr.  The node budget is controlled by the environment variable
CRYSTAL_NODE_BUDGET (default 10^6 nodes).  It bounds every graph a
command generates.  ``tensor`` without ``--depth`` decomposes by the
highest-weight rule and generates only the factors, so there the budget
bounds each factor, not the product; with ``--depth`` the truncated
product is built and the budget bounds it too.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _parse_weight(text: str, n: int) -> tuple[int, ...]:
    """The dominant weight written as comma-separated coordinates."""
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weight {text!r} is not a comma-separated integer vector")
    if len(coords) != n:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, expected {n}")
    if any(x < 0 for x in coords):
        raise ValueError(f"weight {text} is not dominant")
    return coords


def _validate(args):
    """(root datum, weights) of a command line; ValueError or OSError on bad
    input.  ``weights`` has one entry per ``--weight``, none for ``closed``."""
    if args.depth is not None and args.depth < 0:
        raise ValueError("--depth must be >= 0")
    for path in (getattr(args, name, None) for name in ("dot", "tsv", "json_path")):
        if path and path != "-":
            if os.path.isdir(path):
                raise ValueError(f"output path {path} is a directory")
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"directory of output path {path} does not exist")
    if args.preset and args.root_datum:
        raise ValueError("give either --preset or --root-datum, not both")
    if not (args.preset or args.root_datum):
        raise ValueError("a root datum is required (--preset or --root-datum)")
    rd = build_root_datum(args.preset) if args.preset else load_root_datum(args.root_datum)
    if args.command == "tensor":
        return rd, [_parse_weight(text, rd.n) for text in args.weight]
    if args.command == "verify":
        if args.suite == "closed":
            for flag, value in (("--max-entry", args.max_entry), ("--pairs", args.pairs)):
                if value < 0:
                    raise ValueError(f"{flag} must be >= 0")
            return rd, []
        if not args.weight:
            raise ValueError(f"suite {args.suite} needs --weight")
    weights = [_parse_weight(args.weight, rd.n)]
    if args.command == "verify" and args.suite == "oracle" and not finite_type_check(rd):
        raise ValueError("oracle suite needs a finite-type root datum")
    return rd, weights


def _emit(outputs, default):
    """Write each ``(path, render)`` whose path is set, "-" meaning stdout,
    in the order given; when no path is set, write ``default()`` to stdout."""
    chosen = [(path, render) for path, render in outputs if path]
    for path, render in chosen or [("-", default)]:
        if path == "-":
            sys.stdout.write(render())
        else:
            with open(path, "w") as handle:
                handle.write(render())


def _run_graph(args, rd, weights) -> int:
    g = generate_highest_weight_crystal(rd, weights[0], depth=args.depth)

    def as_json():
        return json.dumps(graph_to_json(g), indent=2) + "\n"

    _emit([(args.dot, lambda: graph_to_dot(g)), (args.json_path, as_json)], as_json)
    return 0


def _run_tensor(args, rd, weights) -> int:
    if args.depth is None:
        table = decompose_tensor(rd, weights)
    else:
        factors = [generate_highest_weight_crystal(rd, w, depth=args.depth) for w in weights]
        table = decompose(tensor_product_graph(rd, factors, depth=args.depth))

    def as_tsv():
        return f"# complete: {str(table.complete).lower()}\n" + table.to_tsv()

    _emit([(args.tsv, as_tsv),
           (args.json_path, lambda: json.dumps(table.to_json_dict(), indent=2) + "\n")],
          as_tsv)
    return 0


def _suite_report(args, rd, weights) -> tuple[list[str], bool]:
    """The report lines of a verify suite and whether it passed."""
    if args.suite == "closed":
        rng = random.Random(args.seed)
        lines = []
        ok = True
        for _ in range(args.pairs):
            lam = tuple(rng.randint(0, args.max_entry) for _ in range(rd.n))
            mu = tuple(rng.randint(0, args.max_entry) for _ in range(rd.n))
            iso, _, reason = closed_family_instance(rd, lam, mu, depth=args.depth)
            lines.append(f"closed: {lam} x {mu} -> {'ok' if iso else 'FAIL ' + reason}")
            ok = ok and iso
        return lines, ok
    g = generate_highest_weight_crystal(rd, weights[0], depth=args.depth)
    if args.suite == "axioms":
        violations = check_axioms(g)
        return ([f"axioms: {len(violations)} violations on {g.node_count()} nodes"]
                + violations[:10], not violations)
    if args.suite == "normal":
        report = check_normal(g)
        return ([f"normal: {len(report.violations)} violations, "
                 f"{report.checked} checked, {report.skipped} skipped"]
                + report.violations[:10], report.ok())
    if args.suite == "embedding":
        mismatches: list[str] = []
        for key in g.sorted_keys():
            mismatches += embedding_mismatches(rd, g.nodes[key].element)
        return ([f"embedding: {len(mismatches)} mismatches on {g.node_count()} elements"]
                + mismatches[:10], not mismatches)
    wt = rd.weight(weights[0])  # the oracle suite
    dim = weyl_dim(rd, wt)
    chars_ok = character(g) == freudenthal_multiplicities(rd, wt)
    lines = [f"oracle: #B = {g.node_count()}, weyl_dim = {dim}",
             f"oracle: character {'matches' if chars_ok else 'DIFFERS from'} "
             "multiplicity recursion"]
    return lines, g.node_count() == dim and chars_ok


def _run_verify(args, rd, weights) -> int:
    lines, ok = _suite_report(args, rd, weights)
    print("\n".join(lines + ["PASS" if ok else "FAIL"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = {"graph": _run_graph, "tensor": _run_tensor, "verify": _run_verify}[args.command]
    try:
        rd, weights = _validate(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return command(args, rd, weights)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
