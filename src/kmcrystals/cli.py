"""Batch command line interface.

Subcommands: ``graph`` writes an explored B(lambda) as DOT or JSON,
``tensor`` decomposes a tensor product of highest-weight crystals into a
table, ``verify`` runs one of the built-in verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 node budget
exceeded.  Every integer typed (a ``--weight`` entry, ``--depth``,
``--max-entry``, ``--pairs``, ``--seed``) is ASCII digits with an optional
leading ``-``; a preset's rank is ASCII digits without a leading zero and
at most 1000 (``root_datum.MAX_PRESET_RANK``).  Every usage error in every
subcommand (a missing or malformed root datum or weight, a preset rank
above that bound, a weight of the wrong length or not dominant, a negative
or non-integer ``--depth``, ``--max-entry``, ``--pairs`` or ``--seed``, a
missing ``--weight`` or subcommand, an unknown suite or option, one of
them found by the argument parser, a CRYSTAL_NODE_BUDGET that is
not a nonnegative integer, the oracle suite on a datum not of finite type,
an infinite crystal without ``--depth``, an output path that is empty,
names a directory or lies in a missing one, symlinks followed, one file
given to two outputs) is found before any work starts and before any file
is written, and exits 2 with one ``error:`` line on stderr.  An output file
the system still refuses (a name too long, say) exits 2 the same way, after
the work.  A crystal B(lambda) is infinite iff lambda is nonzero on a
connected component of the diagram not of finite type; every subcommand
applies this one rule to each ``--weight``, and ``verify closed`` to the
largest weight its ``--max-entry`` draws; the oracle suite's rule reads the
same ``oracles.infinite_vertices``, computed at most once per command.  The
node budget is controlled by the environment variable CRYSTAL_NODE_BUDGET
(default 10^6 nodes; a finished profile-model graph holds about 1.2 KB per
node, so about 1.2 GB).  It bounds every graph a command generates and
every crystal it walks, counted in elements enumerated, and an overrun
reports the depth reached and the nodes still queued.  ``tensor`` without
``--depth`` decomposes by the highest-weight rule and walks every factor
but one layer by layer (``explorer.f_layers``), building no graph: it
skips the largest on a datum of finite type, where the order does not
matter, and the first on any other.  There the budget bounds the elements
walked in each factor, not the product; with ``--depth`` the truncated
product is built and the budget bounds it too.  ``verify oracle`` reads
the character and ``#B`` off a walk of B(lambda) as well; with ``--depth
d`` it walks layers 0..d and compares the character with the recursion's
weights of height <= d (layer h holds exactly the elements of height h),
and ``#B`` with ``weyl_dim`` only when the cut drops none.

The argument parser is built once, when this module is imported, and
``main(argv)`` only parses with it: ``main`` may be called any number of
times in one interpreter, and nothing is carried from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from collections import Counter
from functools import partial

from .crystal_core import check_axioms, check_normal, graph_to_dot, graph_to_json, stats_record
from .explorer import (
    BudgetExceeded,
    closed_family_instance,
    decompose,
    decompose_tensor,
    env_node_budget,
    f_layers,
    generate_highest_weight_crystal,
    tensor_product_graph,
)
from .oracles import freudenthal_multiplicities, infinite_vertices, weyl_dim
from .quiver_model import embedding_mismatches, model_highest_weight
from .root_datum import build_root_datum, load_root_datum

VERIFY_SUITES = ("axioms", "normal", "closed", "embedding", "oracle")


_INTEGER = re.compile(r"-?[0-9]+")  # compiled on import, like the parser


def _integer(text: str) -> int:
    """ASCII digits with an optional leading -; ValueError on any other text,
    such as spaces, + or _ (which ``int`` accepts) or non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


_integer.__name__ = "int"  # argparse's message names the type: "invalid int value"


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as the CLI's other
    usage errors are, one ``error:`` line on stderr and exit 2, without the
    usage lines.  The subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kmcrystals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", help="named root datum, e.g. A2, D4, E6, affineA1")
        p.add_argument("--root-datum", help="JSON or TOML file with preset/adjacency")
        p.add_argument("--depth", type=_integer, default=None, help="max operator applications")

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
    v.add_argument("--max-entry", type=_integer, default=2, help="random weight entry bound")
    v.add_argument("--pairs", type=_integer, default=20, help="number of random weight pairs")
    v.add_argument("--seed", type=_integer, default=0, help="seed for randomized suites")
    return parser


# Built once, on import: parse_args reads the parser and writes only the
# namespace it returns, so calls share nothing through it.
_PARSER = _build_parser()


def _parse_weight(text: str, n: int) -> tuple[int, ...]:
    """The dominant weight written as comma-separated coordinates."""
    try:
        coords = tuple(_integer(part) for part in text.split(","))
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
    env_node_budget()
    flags: dict[str, str] = {}  # real path -> the flag that names it
    for flag, name in (("--dot", "dot"), ("--tsv", "tsv"), ("--json", "json_path")):
        path = getattr(args, name, None)
        if path == "":
            raise ValueError(f"{flag} needs a path (- for stdout)")
        if path and path != "-":
            real = os.path.realpath(path)  # a symlink is checked where it points
            if os.path.isdir(real):
                raise ValueError(f"output path {path} is a directory")
            if not os.path.isdir(os.path.dirname(real)):
                raise ValueError(f"directory of output path {path} does not exist")
            if real in flags:
                raise ValueError(f"output path {path} is given to both {flags[real]} and {flag}")
            flags[real] = flag
    if args.preset and args.root_datum:
        raise ValueError("give either --preset or --root-datum, not both")
    if not (args.preset or args.root_datum):
        raise ValueError("a root datum is required (--preset or --root-datum)")
    rd = build_root_datum(args.preset) if args.preset else load_root_datum(args.root_datum)
    if args.command == "verify" and args.suite == "closed":
        for flag, value in (("--max-entry", args.max_entry), ("--pairs", args.pairs)):
            if value < 0:
                raise ValueError(f"{flag} must be >= 0")
        weights = []
        # the largest weight the suite can draw stands for every draw
        generated = [(f"the largest weight --max-entry {args.max_entry} draws",
                      (args.max_entry,) * rd.n)]
    else:
        if args.command == "verify" and not args.weight:
            raise ValueError(f"suite {args.suite} needs --weight")
        texts = args.weight if args.command == "tensor" else [args.weight]
        weights = [_parse_weight(text, rd.n) for text in texts]
        generated = [(f"weight {text}", w) for text, w in zip(texts, weights)]
    oracle = args.command == "verify" and args.suite == "oracle"
    # one finite-type decision serves both rules below
    infinite = infinite_vertices(rd) if args.depth is None or oracle else set()
    if args.depth is None:
        for label, w in generated:
            if any(w[k - 1] for k in infinite):
                raise ValueError(f"{label} is nonzero on a component of the diagram not of "
                                 "finite type, where B(lambda) is infinite; give --depth")
    if oracle and infinite:
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
    as_json = partial(graph_to_json, g)
    _emit([(args.dot, partial(graph_to_dot, g)), (args.json_path, as_json)], as_json)
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
    if args.suite == "oracle":
        return _oracle_report(args, rd, weights[0])
    g = generate_highest_weight_crystal(rd, weights[0], depth=args.depth)
    if args.suite == "axioms":
        report = check_axioms(g)
        return ([f"axioms: {len(report.violations)} violations on {g.node_count()} nodes"]
                + report.violations[:10], report.ok())
    if args.suite == "normal":
        report = check_normal(g)
        return ([f"normal: {len(report.violations)} violations, "
                 f"{report.checked} checked, {report.skipped} skipped"]
                + report.violations[:10], report.ok())
    mismatches: list[str] = []  # the embedding suite
    for x in g.nodes:
        mismatches += embedding_mismatches(rd, x)
    return ([f"embedding: {len(mismatches)} mismatches on {g.node_count()} elements"]
            + mismatches[:10], not mismatches)


def _oracle_report(args, rd, lam) -> tuple[list[str], bool]:
    """The oracle suite's report: the character and #B need only weights,
    so B(lam) is walked by layers, 0..--depth, and never built as a graph."""
    walk = f_layers(rd, model_highest_weight(rd, lam), depth=args.depth)
    char = Counter(stats_record(x, rd)[1] for layer in walk for x in layer)
    size = char.total()
    wt = rd.weight(lam)
    dim = weyl_dim(rd, wt)
    mults = freudenthal_multiplicities(rd, wt)
    kept = {mu: m for mu, m in mults.items()
            if args.depth is None or sum(mu.root_part) <= args.depth}
    chars_ok = dict(char) == kept
    lines = [f"oracle: #B = {size}, weyl_dim = {dim}",
             f"oracle: character {'matches' if chars_ok else 'DIFFERS from'} "
             "multiplicity recursion"]
    return lines, chars_ok and (len(kept) < len(mults) or size == dim)


def _run_verify(args, rd, weights) -> int:
    lines, ok = _suite_report(args, rd, weights)
    print("\n".join(lines + ["PASS" if ok else "FAIL"]))
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
    except (BudgetExceeded, OSError) as exc:  # OSError: an output file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
