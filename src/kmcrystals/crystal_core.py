"""The abstract crystal contract, explored crystal graphs, and axiom checkers.

A crystal is a set with a weight map wt, statistics eps_k and phi_k valued
in Z together with a minus-infinity sentinel, and partial raising/lowering
operators e_k, f_k.  Elements here are immutable values implementing
:class:`CrystalElement`; the formal zero of the axioms is represented by
``None`` returned from an operator, never by an element.

Graphs are explicit explorations of a crystal up to a depth bound: nodes
cache wt/eps/phi, edges are colored by the vertex index k and record
``f_k(source) = target``.  Nodes whose operator images were never computed
are marked as frontier nodes, and every checker skips (and counts) the
assertions that would need data beyond the frontier, so that truncations of
infinite crystals can be tested without false failures.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

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


def ext_serialize(x):
    return "-inf" if is_neg_inf(x) else x


class CrystalElement(ABC):
    """One element of a crystal; all operations are pure.

    Operators return None for the formal zero.  Identity is structural:
    concrete elements are frozen dataclasses, compared with ``==`` and
    hashed by value.  ``serialize`` must be injective on structurally
    distinct elements; its compact JSON dump, ``key``, is the element's
    label at the JSON/DOT boundary and the node id of explored graphs.
    """

    @abstractmethod
    def weight(self, rd: RootDatum) -> Weight: ...

    @abstractmethod
    def eps(self, rd: RootDatum, k: int): ...

    @abstractmethod
    def phi(self, rd: RootDatum, k: int): ...

    @abstractmethod
    def e(self, rd: RootDatum, k: int): ...

    @abstractmethod
    def f(self, rd: RootDatum, k: int): ...

    @abstractmethod
    def serialize(self) -> dict: ...

    def key(self) -> str:
        return json.dumps(self.serialize(), separators=(",", ":"))

    def kind(self) -> str:
        (tag,) = self.serialize().keys()
        return tag

    def eps_vector(self, rd: RootDatum) -> tuple:
        return tuple(self.eps(rd, k) for k in rd.vertices())

    def phi_vector(self, rd: RootDatum) -> tuple:
        return tuple(self.phi(rd, k) for k in rd.vertices())


@dataclass
class GraphNode:
    element: CrystalElement
    weight: Weight
    eps: tuple
    phi: tuple
    depth: int
    frontier: bool


@dataclass
class CrystalGraph:
    """An explored region of a crystal.

    ``edges`` holds (src_key, k, dst_key) triples meaning f_k(src) = dst,
    equivalently e_k(dst) = src.  ``generators`` are the seed keys the
    exploration started from; ``depth_bound`` is None for a full expansion.
    ``index`` maps each node's element to its key, so operator images are
    resolved to nodes structurally, without serializing them.
    """

    rd: RootDatum
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: set[tuple[str, int, str]] = field(default_factory=set)
    generators: tuple[str, ...] = ()
    depth_bound: int | None = None
    index: dict[CrystalElement, str] = field(default_factory=dict, init=False)

    def node_count(self) -> int:
        return len(self.nodes)

    def has_frontier(self) -> bool:
        return any(nd.frontier for nd in self.nodes.values())

    def frontier_count(self) -> int:
        return sum(1 for nd in self.nodes.values() if nd.frontier)

    def sorted_keys(self) -> list[str]:
        return sorted(self.nodes)

    def sorted_edges(self) -> list[tuple[str, int, str]]:
        return sorted(self.edges)


def check_axioms(g: CrystalGraph) -> list[str]:
    """Verify the crystal axioms on every non-frontier node; [] means pass.

    Checked per node b and vertex k: phi = eps + <h_k, wt>; the wt/eps/phi
    shifts under e_k and f_k when those are defined; e_k and f_k are mutual
    inverses; phi = -inf forces e_k b = f_k b = None.  Every recorded edge
    (x, k, y) is re-derived from the operators in both directions.
    """
    rd = g.rd
    violations: list[str] = []
    for key, nd in g.nodes.items():
        if nd.frontier:
            continue
        b = nd.element
        wt = nd.weight
        for k in rd.vertices():
            ep, ph = nd.eps[k - 1], nd.phi[k - 1]
            if ph != ep + rd.pairing(k, wt):
                violations.append(f"(a) phi != eps + <h_{k},wt> at {key}")
            if is_neg_inf(ep) != is_neg_inf(ph):
                violations.append(f"(a) eps/phi -inf mismatch at k={k}, {key}")
            eb = b.e(rd, k)
            fb = b.f(rd, k)
            if is_neg_inf(ph) and (eb is not None or fb is not None):
                violations.append(f"(e) operator defined despite phi=-inf at k={k}, {key}")
            if eb is not None:
                if eb.weight(rd) != wt.add_alpha(k):
                    violations.append(f"(b) wt(e_{k} b) != wt(b)+alpha at {key}")
                if eb.eps(rd, k) != ep - 1 or eb.phi(rd, k) != ph + 1:
                    violations.append(f"(b) eps/phi shift wrong under e_{k} at {key}")
                if eb.f(rd, k) != b:
                    violations.append(f"(d) f_{k} e_{k} b != b at {key}")
            if fb is not None:
                if fb.weight(rd) != wt.subtract_alpha(k):
                    violations.append(f"(c) wt(f_{k} b) != wt(b)-alpha at {key}")
                if fb.eps(rd, k) != ep + 1 or fb.phi(rd, k) != ph - 1:
                    violations.append(f"(c) eps/phi shift wrong under f_{k} at {key}")
                if fb.e(rd, k) != b:
                    violations.append(f"(d) e_{k} f_{k} b != b at {key}")
    # recorded edges must agree with the operators in both directions
    outgoing: set[tuple[str, int]] = set()
    incoming: set[tuple[str, int]] = set()
    for (src, k, dst) in g.edges:
        if (src, k) in outgoing:
            violations.append(f"duplicate outgoing {k}-edge at {src}")
        if (dst, k) in incoming:
            violations.append(f"duplicate incoming {k}-edge at {dst}")
        outgoing.add((src, k))
        incoming.add((dst, k))
        src_element, dst_element = g.nodes[src].element, g.nodes[dst].element
        if src_element.f(rd, k) != dst_element:
            violations.append(f"(d) edge ({src},{k},{dst}) not f_{k}(src)")
        if dst_element.e(rd, k) != src_element:
            violations.append(f"(d) edge ({src},{k},{dst}) not e_{k}-inverted")
    return violations


@dataclass
class CheckReport:
    """Outcome of a checker that skips and counts what it cannot judge."""

    violations: list[str]
    checked: int
    skipped: int

    def ok(self) -> bool:
        return not self.violations


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
            nxt_key = g.index.get(nxt)
            if nxt_key is None:
                return None  # image outside the explored region
            node = g.nodes[nxt_key]

    for key, nd in g.nodes.items():
        for k in rd.vertices():
            ep, ph = nd.eps[k - 1], nd.phi[k - 1]
            if ep < 0:
                violations.append(f"eps_{k} = {ep} < 0 at {key}")
                checked += 1
                continue
            if ph < 0:
                violations.append(f"phi_{k} = {ph} < 0 at {key}")
                checked += 1
                continue
            ups = walk(nd, k, "e")
            downs = walk(nd, k, "f")
            if ups is None or downs is None:
                skipped += 1
                continue
            checked += 1
            if ups != ep:
                violations.append(f"eps_{k} = {ep} but e-string length {ups} at {key}")
            if downs != ph:
                violations.append(f"phi_{k} = {ph} but f-string length {downs} at {key}")
    return CheckReport(violations, checked, skipped)


def check_strict_morphism(
    g1: CrystalGraph,
    g2: CrystalGraph,
    mapping: dict[str, str],
    require_injective: bool = False,
) -> CheckReport:
    """Verify that ``mapping`` (keys of g1 -> keys of g2) is a strict morphism.

    Checks wt/eps/phi preservation on every mapped node and unconditional
    commutation with every e_k and f_k, treating None as None.  Pairs whose
    comparison would need an unmapped or unexplored node are skipped and
    counted.  Raises ValueError if the map misses a non-frontier node of g1.
    """
    rd = g1.rd
    violations: list[str] = []
    checked = skipped = 0
    for key, nd in g1.nodes.items():
        if key not in mapping:
            if not nd.frontier:
                raise ValueError(f"morphism map undefined on non-frontier node {key}")
            skipped += 1
            continue
        img_key = mapping[key]
        if img_key not in g2.nodes:
            violations.append(f"image {img_key} not in target graph")
            continue
        img = g2.nodes[img_key]
        if img.weight != nd.weight:
            violations.append(f"wt not preserved at {key}")
        if img.eps != nd.eps:
            violations.append(f"eps not preserved at {key}")
        if img.phi != nd.phi:
            violations.append(f"phi not preserved at {key}")
        if nd.frontier or img.frontier:
            skipped += 1
            continue
        checked += 1
        for k in rd.vertices():
            for op in ("e", "f"):
                src_img = getattr(nd.element, op)(rd, k)
                dst_img = getattr(img.element, op)(rd, k)
                if src_img is None:
                    if dst_img is not None:
                        violations.append(f"{op}_{k} None/non-None mismatch at {key}")
                    continue
                if dst_img is None:
                    violations.append(f"{op}_{k} non-None/None mismatch at {key}")
                    continue
                mapped = mapping.get(g1.index.get(src_img))
                if mapped is None:
                    skipped += 1
                    continue
                if g2.index.get(dst_img) != mapped:
                    violations.append(f"{op}_{k} does not commute at {key}")
    if require_injective:
        seen: dict[str, str] = {}
        for src, dst in mapping.items():
            if dst in seen:
                violations.append(f"not injective: {seen[dst]} and {src} both map to {dst}")
            seen[dst] = src
    return CheckReport(violations, checked, skipped)


def graph_to_json(g: CrystalGraph) -> dict:
    """JSON form of a graph with deterministic node and edge order."""
    nodes = []
    for key in g.sorted_keys():
        nd = g.nodes[key]
        nodes.append(
            {
                "id": key,
                "kind": nd.element.kind(),
                "wt": nd.weight.serialize(),
                "eps": [ext_serialize(x) for x in nd.eps],
                "phi": [ext_serialize(x) for x in nd.phi],
                "frontier": nd.frontier,
            }
        )
    edges = [{"src": a, "k": k, "dst": b} for (a, k, b) in g.sorted_edges()]
    return {
        "nodes": nodes,
        "edges": edges,
        "generators": sorted(g.generators),
        "depth": g.depth_bound,
    }


_DOT_COLORS = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
)


def graph_to_dot(g: CrystalGraph) -> str:
    """DOT form: edge color/label by vertex index, node label = pairing vector,
    frontier nodes dashed.  Byte-stable for fixed input."""
    index = {key: i for i, key in enumerate(g.sorted_keys())}
    lines = ["digraph crystal {", "  rankdir=TB;", '  node [shape=box, fontname="Helvetica"];']
    for key, i in index.items():
        nd = g.nodes[key]
        label = "(" + ",".join(str(x) for x in g.rd.pairing_vector(nd.weight)) + ")"
        style = ', style=dashed' if nd.frontier else ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for (a, k, b) in g.sorted_edges():
        color = _DOT_COLORS[(k - 1) % len(_DOT_COLORS)]
        lines.append(f'  n{index[a]} -> n{index[b]} [label="{k}", color="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
