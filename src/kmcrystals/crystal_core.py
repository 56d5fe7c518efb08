"""The abstract crystal contract, explored crystal graphs, and axiom checkers.

A crystal is a set with a weight map wt, statistics eps_k and phi_k valued
in Z together with a minus-infinity sentinel, and partial raising/lowering
operators e_k, f_k.  Elements here are immutable values implementing
:class:`CrystalElement`; the formal zero of the axioms is represented by
``None`` returned from an operator, never by an element.

Graphs are explicit explorations of a crystal up to a depth bound, keyed
by the elements themselves: nodes share their element's wt/eps/phi
objects and hold the edges, ``down[k-1]`` the node f_k leads to and
``up[k-1]`` the element e_k leads to.  Nodes whose operator images were
never computed are frontier nodes, and every checker skips (and counts)
the assertions that would need data beyond the frontier, so that
truncations of infinite crystals can be tested without false failures.

``graph_to_dot`` and ``graph_to_json`` return text.  Both print nodes in
key order and edges by node index; that order is computed once per graph,
on its first export, and shared by the two writers.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import ClassVar

from .root_datum import RootDatum, Weight


class NegInfinity:
    """The -infinity value of eps/phi.  A singleton, ordered below every int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return not isinstance(other, NegInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, NegInfinity)

    def __add__(self, other):
        return self

    def __radd__(self, other):
        return self

    def __sub__(self, other):
        return self

    def __neg__(self):
        raise ArithmeticError("cannot negate -inf")

    def __hash__(self):
        return hash("NegInfinity")


NEG_INF = NegInfinity()


def is_neg_inf(x) -> bool:
    return isinstance(x, NegInfinity)


def ext_max(values):
    """max with -inf as identity; returns NEG_INF on an empty iterable."""
    return max(values, default=NEG_INF)


_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps(..., separators=...)


class CrystalElement(ABC):
    """One element of a crystal; all operations are pure.

    Operators return None for the formal zero.  Identity is structural:
    concrete elements are frozen dataclasses, compared with ``==`` and
    hashed by value.  ``serialize`` must be injective on structurally
    distinct elements; its compact JSON dump, ``key``, labels the element
    only where bytes leave the program: exported node ids, witness maps
    and violation messages.  The default ``key`` encodes ``serialize()``;
    the classes keyed in bulk (model and tensor elements) write the same
    text directly, and a test pins that the bytes agree.

    The readers and the operators are written once, here, on the record of
    :func:`stats_record`.  An element class plugs in with two methods:

    * ``_build(rd)`` returns x's record against rd.  Every element class,
      including one written for a test, must supply it.
    * ``_move(rd, k, site, delta)`` returns the image of e_k (delta -1) or
      f_k (delta +1) acting at ``site``, or None.  Only a class whose
      elements have an operator that acts needs it.

    ``e``/``f`` rest on one site rule: a site is None where the operator
    cannot act, and then ``e``/``f`` return None without calling
    ``_move``.  For a model or elementary element that is exactly where
    the operator returns None; for a tensor element, exactly where eps_k
    (for e_k) or phi_k (for f_k) is -inf, and its ``_move`` still returns
    None when the factor at the site does.
    """

    tag: ClassVar[str]  # the single key of ``serialize()``, constant per class

    def __init_subclass__(cls, **kwargs):
        # bench/tracer.py counts each class's calls of these names in that
        # class's layer by wrapping them in the class's own __dict__, so
        # every subclass gets an entry of its own: the function it inherits
        super().__init_subclass__(**kwargs)
        for name in ("weight", "eps", "phi", "e", "f"):
            if name not in cls.__dict__:
                setattr(cls, name, getattr(cls, name))

    @abstractmethod
    def _build(self, rd: RootDatum) -> tuple: ...

    @abstractmethod
    def serialize(self) -> dict: ...

    def key(self) -> str:
        return _KEY_ENCODER.encode(self.serialize())

    def weight(self, rd: RootDatum) -> Weight:
        return stats_record(self, rd)[1]

    def eps(self, rd: RootDatum, k: int):
        return stats_record(self, rd, k)[2][k - 1]

    def phi(self, rd: RootDatum, k: int):
        return stats_record(self, rd, k)[3][k - 1]

    def eps_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd)[2]

    def phi_vector(self, rd: RootDatum) -> tuple:
        return stats_record(self, rd)[3]

    def e(self, rd: RootDatum, k: int):
        site = stats_record(self, rd, k)[4][k - 1]
        return None if site is None else self._move(rd, k, site, -1)

    def f(self, rd: RootDatum, k: int):
        site = stats_record(self, rd, k)[5][k - 1]
        return None if site is None else self._move(rd, k, site, +1)


def stats_record(x: CrystalElement, rd: RootDatum, k: int | None = None) -> tuple:
    """The statistics record of x against rd, ``(rd, wt, eps, phi, e_sites,
    f_sites)``, each of the last four a tuple indexed by vertex - 1, the
    sites being where e_k and f_k act: a slot for a model element, a
    factor position for a tensor element, 0 for an elementary one, and
    None wherever the operator is undefined (see :class:`CrystalElement`).
    ``x._build(rd)`` returns it; it is kept in ``x.__dict__`` and rebuilt
    when x is queried against another datum, so it lives as long as the
    element.  A record may carry working data after its six fields, which
    the builder reads to derive the records of x's operator images (a
    model record's rank rows) and :func:`trim_record` drops.  ValueError
    when k is given and is not a vertex."""
    rec = x.__dict__.get("_record")
    if rec is None or rec[0] is not rd:
        rec = x.__dict__["_record"] = x._build(rd)
    if k is not None and not 0 < k <= len(rec[2]):
        raise ValueError(f"vertex index {k} out of range 1..{rd.n}")
    return rec


def trim_record(x: CrystalElement) -> None:
    """Drop what x's record keeps after its six fields, once x's operator
    images have been built from it; the six fields keep their objects.  A
    record without such data, or none at all, is left as it is."""
    rec = x.__dict__.get("_record")
    if rec is not None and len(rec) > 6:
        x.__dict__["_record"] = rec[:6]


@dataclass(eq=False)
class GraphNode:
    """An explored element, its statistics and its edges.  For the element
    classes of this package the statistics are the objects of the
    element's own record (:func:`stats_record`), not copies.  Each edge is
    recorded in both directions: ``x.down[k-1] is y`` exactly when
    ``y.up[k-1] is x.element``.  ``up`` holds elements, not nodes, so a
    graph holds no reference cycle.  Nodes compare and hash by identity."""

    element: CrystalElement  # the instance keying this node
    weight: Weight
    eps: tuple
    phi: tuple
    depth: int
    frontier: bool
    down: list = field(repr=False)  # down[k-1]: the node of f_k(element), or None
    up: list  # up[k-1]: e_k(element), the instance keying its node, or None
    _key: str | None = None

    def key(self) -> str:
        """``element.key()``, computed at most once per graph: the export
        order sorts the nodes by it and both writers print it."""
        if self._key is None:
            self._key = self.element.key()
        return self._key


@dataclass
class CrystalGraph:
    """An explored region of a crystal, keyed by the elements themselves.

    The edges live on the nodes (``GraphNode.down`` and ``up``).
    ``generators`` are the seed elements the exploration started from;
    ``depth_bound`` is None for a full expansion.  Keys are only needed
    where bytes leave the program; ``GraphNode.key`` serializes a node at
    most once per graph, and the export order is sorted once, on the first
    export, and kept: a graph does not change after it is exported.
    """

    rd: RootDatum
    nodes: dict[CrystalElement, GraphNode] = field(default_factory=dict)
    generators: tuple[CrystalElement, ...] = ()
    depth_bound: int | None = None
    _order: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def edges(self) -> set[tuple[CrystalElement, int, CrystalElement]]:
        """The (src, k, dst) triples with f_k(src) = dst, read off ``down``."""
        return {(x, k, y.element) for x, nd in self.nodes.items()
                for k, y in enumerate(nd.down, 1) if y is not None}

    def node_count(self) -> int:
        return len(self.nodes)

    def has_frontier(self) -> bool:
        return any(nd.frontier for nd in self.nodes.values())

    def frontier_count(self) -> int:
        return sum(1 for nd in self.nodes.values() if nd.frontier)


@dataclass
class CheckReport:
    """Outcome of a checker that skips and counts what it cannot judge."""

    violations: list[str]
    checked: int
    skipped: int

    def ok(self) -> bool:
        return not self.violations


def check_axioms(g: CrystalGraph) -> CheckReport:
    """Verify the crystal axioms on every non-frontier node.

    Checked per node b and vertex k: phi = eps + <h_k, wt>; the wt/eps/phi
    shifts under e_k and f_k when those are defined; e_k and f_k are mutual
    inverses; phi = -inf forces e_k b = f_k b = None.  The (node, vertex)
    pairs of frontier nodes are skipped and counted.  Every recorded edge
    must be recorded in both directions, and is re-derived from the
    operators in both directions.  The statistics of an operator image are
    read from the graph's equal element when there is one, whose record is
    already built, else from the image itself.
    """
    rd = g.rd
    violations: list[str] = []
    checked = skipped = 0

    def recorded(y):
        """The graph's element equal to y if there is one, else y."""
        node = g.nodes.get(y)
        return y if node is None else node.element

    for b, nd in g.nodes.items():
        if nd.frontier:
            skipped += rd.n
            continue
        checked += rd.n
        wt = nd.weight
        for k, pair in zip(rd.vertices(), rd.pairing_vector(wt)):
            ep, ph = nd.eps[k - 1], nd.phi[k - 1]
            if ph != ep + pair:
                violations.append(f"(a) phi != eps + <h_{k},wt> at {nd.key()}")
            if is_neg_inf(ep) != is_neg_inf(ph):
                violations.append(f"(a) eps/phi -inf mismatch at k={k}, {nd.key()}")
            eb = recorded(b.e(rd, k))
            fb = recorded(b.f(rd, k))
            if is_neg_inf(ph) and (eb is not None or fb is not None):
                violations.append(f"(e) operator defined despite phi=-inf at k={k}, {nd.key()}")
            if eb is not None:
                if eb.weight(rd) != wt.add_alpha(k):
                    violations.append(f"(b) wt(e_{k} b) != wt(b)+alpha at {nd.key()}")
                if eb.eps(rd, k) != ep - 1 or eb.phi(rd, k) != ph + 1:
                    violations.append(f"(b) eps/phi shift wrong under e_{k} at {nd.key()}")
                if eb.f(rd, k) != b:
                    violations.append(f"(d) f_{k} e_{k} b != b at {nd.key()}")
            if fb is not None:
                if fb.weight(rd) != wt.subtract_alpha(k):
                    violations.append(f"(c) wt(f_{k} b) != wt(b)-alpha at {nd.key()}")
                if fb.eps(rd, k) != ep + 1 or fb.phi(rd, k) != ph - 1:
                    violations.append(f"(c) eps/phi shift wrong under f_{k} at {nd.key()}")
                if fb.e(rd, k) != b:
                    violations.append(f"(d) e_{k} f_{k} b != b at {nd.key()}")
    # recorded edges must be paired and agree with the operators both ways
    for x, nd in g.nodes.items():
        for k, (nxt, up) in enumerate(zip(nd.down, nd.up), 1):
            if nxt is not None:
                if nxt.up[k - 1] is not nd.element:
                    violations.append(f"(d) edge ({nd.key()},{k},{nxt.key()}) has no e_{k} entry")
                if x.f(rd, k) != nxt.element:
                    violations.append(f"(d) edge ({nd.key()},{k},{nxt.key()}) not f_{k}(src)")
                if nxt.element.e(rd, k) != x:
                    violations.append(
                        f"(d) edge ({nd.key()},{k},{nxt.key()}) not e_{k}-inverted")
            if up is not None:
                src = g.nodes.get(up)
                if src is None or src.down[k - 1] is not nd:
                    violations.append(f"(d) e_{k} entry at {nd.key()} has no f_{k}-edge")
    return CheckReport(violations, checked, skipped)


def check_normal(g: CrystalGraph) -> CheckReport:
    """Check eps_k/phi_k against actual string lengths inside the graph.

    A normal crystal has eps_k(b) = (number of e_k applications until None)
    and likewise phi_k with f_k.  String lengths are nonnegative, so a
    negative or -inf statistic is a violation outright.  A walk that runs
    into a frontier node before terminating is skipped and counted, never
    judged.
    """
    rd = g.rd
    violations: list[str] = []
    checked = skipped = 0

    def walk(start: GraphNode, k: int, op: str) -> int | None:
        node = start
        steps = 0
        while True:
            if node.frontier:
                return None
            nxt = node.element.e(rd, k) if op == "e" else node.element.f(rd, k)
            if nxt is None:
                return steps
            steps += 1
            node = g.nodes.get(nxt)
            if node is None:
                return None  # image outside the explored region

    for nd in g.nodes.values():
        for k in rd.vertices():
            ep, ph = nd.eps[k - 1], nd.phi[k - 1]
            if ep < 0:
                violations.append(f"eps_{k} = {ep} < 0 at {nd.key()}")
                checked += 1
                continue
            if ph < 0:
                violations.append(f"phi_{k} = {ph} < 0 at {nd.key()}")
                checked += 1
                continue
            ups = walk(nd, k, "e")
            downs = walk(nd, k, "f")
            if ups is None or downs is None:
                skipped += 1
                continue
            checked += 1
            if ups != ep:
                violations.append(f"eps_{k} = {ep} but e-string length {ups} at {nd.key()}")
            if downs != ph:
                violations.append(f"phi_{k} = {ph} but f-string length {downs} at {nd.key()}")
    return CheckReport(violations, checked, skipped)


def check_strict_morphism(
    g1: CrystalGraph,
    g2: CrystalGraph,
    mapping: dict[CrystalElement, CrystalElement],
) -> CheckReport:
    """Verify that ``mapping`` (nodes of g1 -> nodes of g2) is an injective
    strict morphism.

    Checks injectivity, wt/eps/phi preservation on every mapped node and
    unconditional commutation with every e_k and f_k, treating None as None.
    Pairs whose comparison would need an unmapped or unexplored node are
    skipped and counted.  Raises ValueError if the map misses a non-frontier
    node of g1.
    """
    rd = g1.rd
    violations: list[str] = []
    checked = skipped = 0
    for x, nd in g1.nodes.items():
        if x not in mapping:
            if not nd.frontier:
                raise ValueError(f"morphism map undefined on non-frontier node {nd.key()}")
            skipped += 1
            continue
        y = mapping[x]
        img = g2.nodes.get(y)
        if img is None:
            violations.append(f"image {y.key()} not in target graph")
            continue
        if img.weight != nd.weight:
            violations.append(f"wt not preserved at {nd.key()}")
        if img.eps != nd.eps:
            violations.append(f"eps not preserved at {nd.key()}")
        if img.phi != nd.phi:
            violations.append(f"phi not preserved at {nd.key()}")
        if nd.frontier or img.frontier:
            skipped += 1
            continue
        checked += 1
        for k in rd.vertices():
            for op in ("e", "f"):
                src_img = getattr(x, op)(rd, k)
                dst_img = getattr(y, op)(rd, k)
                if src_img is None:
                    if dst_img is not None:
                        violations.append(f"{op}_{k} None/non-None mismatch at {nd.key()}")
                    continue
                if dst_img is None:
                    violations.append(f"{op}_{k} non-None/None mismatch at {nd.key()}")
                    continue
                mapped = mapping.get(src_img)
                if mapped is None:
                    skipped += 1
                    continue
                if dst_img != mapped:
                    violations.append(f"{op}_{k} does not commute at {nd.key()}")
    seen: dict[CrystalElement, CrystalElement] = {}
    for src, dst in mapping.items():
        if dst in seen:
            violations.append(
                f"not injective: {seen[dst].key()} and {src.key()} both map to {dst.key()}"
            )
        seen[dst] = src
    return CheckReport(violations, checked, skipped)


def _sort_for_export(g: CrystalGraph):
    """The order both exports print: the nodes sorted by key, the edges as
    (src index, k, dst index) triples and the generators' indices, all
    sorted.  Reading ``down`` in node order yields the edges sorted."""
    nodes = sorted(g.nodes.values(), key=GraphNode.key)
    index = {nd: i for i, nd in enumerate(nodes)}
    edges = [(i, k, index[nxt]) for i, nd in enumerate(nodes)
             for k, nxt in enumerate(nd.down, 1) if nxt is not None]
    return nodes, edges, sorted(index[g.nodes[x]] for x in g.generators)


def _export_order(g: CrystalGraph):
    """``_sort_for_export(g)``, computed on the graph's first export and kept
    on it, so that writing both DOT and JSON sorts once."""
    if g._order is None:
        g._order = _sort_for_export(g)
    return g._order


def _json_list(items, pad: int, brackets: str = "[]") -> str:
    """Indent-2 JSON text of a list (or, with brackets "{}", an object) whose
    items are already JSON text, with the items at ``pad`` spaces."""
    if not items:
        return brackets
    inner = " " * pad
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + inner[:-2] + brackets[1])


def graph_to_json(g: CrystalGraph) -> str:
    """JSON text of a graph, ``{nodes, edges, generators, depth}`` with
    deterministic node and edge order, as ``json.dumps(..., indent=2)``
    plus a newline would print it; -inf statistics are the string "-inf"."""
    nodes, edges, generators = _export_order(g)
    ids = [encode_basestring_ascii(nd.key()) for nd in nodes]
    texts: dict = {}  # JSON text of each distinct weight and eps/phi vector

    def weight_text(wt: Weight) -> str:
        text = texts.get(wt)
        if text is None:
            text = texts[wt] = _json_list(
                [f"{encode_basestring_ascii(name)}: {_json_list(list(map(str, values)), 10)}"
                 for name, values in wt.serialize().items()], 8, "{}")
        return text

    def stats_text(values: tuple) -> str:
        text = texts.get(values)
        if text is None:
            text = texts[values] = _json_list(
                ['"-inf"' if is_neg_inf(x) else str(x) for x in values], 8)
        return text

    # One flat list of short pieces, joined once.  Building each node, edge
    # or section as a string of its own first left more freed memory held
    # by the allocator after the export (higher RSS once the text is gone).
    parts = ['{\n  "nodes": [']
    sep = "\n    "
    for node_id, nd in zip(ids, nodes):
        parts += (sep, '{\n      "id": ', node_id,
                  ',\n      "kind": ', encode_basestring_ascii(nd.element.tag),
                  ',\n      "wt": ', weight_text(nd.weight),
                  ',\n      "eps": ', stats_text(nd.eps),
                  ',\n      "phi": ', stats_text(nd.phi),
                  ',\n      "frontier": ', "true" if nd.frontier else "false", "\n    }")
        sep = ",\n    "
    parts.append("\n  ]" if nodes else "]")
    parts.append(',\n  "edges": [')
    sep = "\n    "
    for (a, k, b) in edges:
        parts += (sep, '{\n      "src": ', ids[a], ',\n      "k": ', str(k),
                  ',\n      "dst": ', ids[b], "\n    }")
        sep = ",\n    "
    parts.append("\n  ]" if edges else "]")
    depth = "null" if g.depth_bound is None else str(g.depth_bound)
    parts.append(f',\n  "generators": {_json_list([ids[i] for i in generators], 4)},\n'
                 f'  "depth": {depth}\n}}\n')
    return "".join(parts)


_DOT_COLORS = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
)


def graph_to_dot(g: CrystalGraph) -> str:
    """DOT form: edge color/label by vertex index, node label = pairing vector,
    frontier nodes dashed.  Byte-stable for fixed input."""
    nodes, edges, _ = _export_order(g)
    lines = ["digraph crystal {", "  rankdir=TB;", '  node [shape=box, fontname="Helvetica"];']
    labels: dict[Weight, str] = {}  # one pairing vector per distinct weight
    for i, nd in enumerate(nodes):
        label = labels.get(nd.weight)
        if label is None:
            label = labels[nd.weight] = ",".join(map(str, g.rd.pairing_vector(nd.weight)))
        style = ', style=dashed' if nd.frontier else ""
        lines.append(f'  n{i} [label="({label})"{style}];')
    for (a, k, b) in edges:
        color = _DOT_COLORS[(k - 1) % len(_DOT_COLORS)]
        lines.append(f'  n{a} -> n{b} [label="{k}", color="{color}"];')
    lines.append("}\n")
    return "\n".join(lines)
