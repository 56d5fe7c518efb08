"""The abstract crystal contract, explored crystal graphs, and axiom checkers.

A crystal is a set with a weight map wt, statistics eps_k and phi_k valued
in Z together with a minus-infinity sentinel, and partial raising/lowering
operators e_k, f_k.  Elements here are immutable values implementing
:class:`CrystalElement`; the formal zero of the axioms is represented by
``None`` returned from an operator, never by an element.

Graphs are explicit explorations of a crystal up to a depth bound, keyed
by the elements themselves; a node holds its element, depth and edges,
``down[k-1]`` the node f_k leads to and ``up[k-1]`` the element e_k leads
to, and statistics and keys come from the element.  Nodes whose operator
images were never computed are frontier nodes, and every checker skips
(and counts) the assertions that would need data beyond the frontier, so
that truncations of infinite crystals can be tested without false failures.

``graph_to_dot`` and ``graph_to_json`` return text.  Both print nodes in
key order and edges by node index; that order is computed once per graph,
on its first export, and shared by the two writers.  Each writer builds a
text that recurs once per call (a weight's JSON or DOT label, a class's
kind, a vertex's edge fields) and joins looked-up pieces after that.
"""

from __future__ import annotations

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


NEG_INF = NegInfinity()


def is_neg_inf(x) -> bool:
    return isinstance(x, NegInfinity)


def ext_max(values):
    """max with -inf as identity; returns NEG_INF on an empty iterable."""
    return max(values, default=NEG_INF)


class CrystalElement(ABC):
    """One element of a crystal; all operations are pure.

    Operators return None for the formal zero.  Identity is structural:
    concrete elements are frozen dataclasses, compared with ``==`` and
    hashed by value.  ``key()`` is the element's one text form: compact
    JSON (``separators=(",", ":")``), injective on structurally distinct
    elements, an object whose single name is the class's ``tag``.  Each
    class writes it directly.  It labels the element only where bytes
    leave the program: exported node ids, witness maps and violation
    messages.

    The readers ``weight``, ``eps`` and ``phi`` and the operators ``e`` and
    ``f`` are written once, here, on the record of :func:`stats_record`;
    code that needs whole vectors reads the record itself.  An element
    class plugs in with two methods:

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

    tag: ClassVar[str]  # the name at the head of ``key()``, constant per class

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
    def key(self) -> str: ...

    def weight(self, rd: RootDatum) -> Weight:
        return stats_record(self, rd)[1]

    def eps(self, rd: RootDatum, k: int):
        return stats_record(self, rd, k)[2][k - 1]

    def phi(self, rd: RootDatum, k: int):
        return stats_record(self, rd, k)[3][k - 1]

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
    element.  A record may carry a seventh field after its six, all the
    derivation state its builder reads to derive the records of x's
    operator images (a model record's ``(lo, rows, table)``), which
    :func:`trim_record` releases.  ValueError when k is given and is not a
    vertex."""
    rec = x.__dict__.get("_record")
    if rec is None or rec[0] is not rd:
        rec = x.__dict__["_record"] = x._build(rd)
    if k is not None and not 0 < k <= len(rec[2]):
        raise ValueError(f"vertex index {k} out of range 1..{rd.n}")
    return rec


def trim_record(x: CrystalElement) -> None:
    """Release the derivation state in x's record, its seventh field, once
    x's operator images have been built from it; the six fields keep their
    objects.  This is the only release of that state: a model record's
    rank rows go with it, and its row table with the last record that
    still holds it.  A record without such state, or none at all, is left
    as it is."""
    rec = x.__dict__.get("_record")
    if rec is not None and len(rec) > 6:
        x.__dict__["_record"] = rec[:6]


@dataclass(eq=False, slots=True, weakref_slot=True)
class GraphNode:
    """The exploration state of an element: its depth, whether it is a
    frontier node, and its edges; its statistics and key are the element's.
    Each edge is recorded in both directions: ``x.down[k-1] is y`` exactly
    when ``y.up[k-1] is x.element``.  ``up`` holds elements, not nodes, so
    a graph holds no reference cycle.  Nodes compare and hash by identity."""

    element: CrystalElement  # the instance keying this node
    depth: int
    frontier: bool
    down: list = field(repr=False)  # down[k-1]: the node of f_k(element), or None
    up: list  # up[k-1]: e_k(element), the instance keying its node, or None


@dataclass
class CrystalGraph:
    """An explored region of a crystal, keyed by the elements themselves.

    The edges live on the nodes (``GraphNode.down`` and ``up``).
    ``generators`` are the seed elements the exploration started from;
    ``depth_bound`` is None for a full expansion.  The export order, keys
    included, is computed on the first export and kept: a graph does not
    change after it is exported.
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
    """Verify the crystal axioms and the recorded edges in one pass.

    Checked per non-frontier node b and vertex k: phi = eps + <h_k, wt>;
    the wt/eps/phi shifts under e_k and f_k when those are defined; e_k
    and f_k are mutual inverses; phi = -inf forces e_k b = f_k b = None.
    The (node, vertex) pairs of frontier nodes are skipped and counted.
    Every node derives e_k b and f_k b once and checks them against
    ``down[k-1]`` and ``up[k-1]``, None included, and each edge at both of
    its ends; a frontier node derives only the images it has entries for.
    An image's statistics are read from the graph's equal element when
    there is one, whose record is already built, else from the image.
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
        else:
            checked += rd.n
            wt, eps, phi = stats_record(b, rd)[1:4]
            pairs = rd.pairing_vector(wt)
        for k, nxt, up in zip(rd.vertices(), nd.down, nd.up):
            # a frontier node derives an image only to compare it with an entry
            eb = None if nd.frontier and up is None else recorded(b.e(rd, k))
            fb = None if nd.frontier and nxt is None else recorded(b.f(rd, k))
            if nxt is not None:
                if nxt.up[k - 1] is not b:
                    violations.append(f"(d) edge ({b.key()},{k},{nxt.element.key()}) "
                                      f"has no e_{k} entry")
                if fb != nxt.element:
                    violations.append(f"(d) edge ({b.key()},{k},{nxt.element.key()}) "
                                      f"not f_{k}(src)")
            elif fb is not None and (fb not in g.nodes or g.nodes[fb].up[k - 1] is not b):
                violations.append(f"(d) f_{k} b defined but not recorded at {b.key()}")
            if up is not None:
                src = g.nodes.get(up)
                if src is None or src.down[k - 1] is not nd:
                    violations.append(f"(d) e_{k} entry at {b.key()} has no f_{k}-edge")
                elif eb != up:
                    violations.append(f"(d) edge ({up.key()},{k},{b.key()}) not e_{k}-inverted")
            elif eb is not None and (eb not in g.nodes or g.nodes[eb].down[k - 1] is not nd):
                violations.append(f"(d) e_{k} b defined but not recorded at {b.key()}")
            if nd.frontier:
                continue
            ep, ph = eps[k - 1], phi[k - 1]
            if ph != ep + pairs[k - 1]:
                violations.append(f"(a) phi != eps + <h_{k},wt> at {b.key()}")
            if is_neg_inf(ep) != is_neg_inf(ph):
                violations.append(f"(a) eps/phi -inf mismatch at k={k}, {b.key()}")
            if is_neg_inf(ph) and (eb is not None or fb is not None):
                violations.append(f"(e) operator defined despite phi=-inf at k={k}, {b.key()}")
            if eb is not None:
                if eb.weight(rd) != wt.add_alpha(k):
                    violations.append(f"(b) wt(e_{k} b) != wt(b)+alpha at {b.key()}")
                if eb.eps(rd, k) != ep - 1 or eb.phi(rd, k) != ph + 1:
                    violations.append(f"(b) eps/phi shift wrong under e_{k} at {b.key()}")
                if eb.f(rd, k) != b:
                    violations.append(f"(d) f_{k} e_{k} b != b at {b.key()}")
            if fb is not None:
                if fb.weight(rd) != wt.subtract_alpha(k):
                    violations.append(f"(c) wt(f_{k} b) != wt(b)-alpha at {b.key()}")
                if fb.eps(rd, k) != ep + 1 or fb.phi(rd, k) != ph - 1:
                    violations.append(f"(c) eps/phi shift wrong under f_{k} at {b.key()}")
                if fb.e(rd, k) != b:
                    violations.append(f"(d) e_{k} f_{k} b != b at {b.key()}")
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

    def walk(node: GraphNode | None, k: int, op: str) -> int | None:
        steps = 0
        while node is not None and not node.frontier:
            nxt = node.element.e(rd, k) if op == "e" else node.element.f(rd, k)
            if nxt is None:
                return steps
            steps += 1
            node = g.nodes.get(nxt)
        return None  # a frontier node, or an image outside the explored region

    for x, nd in g.nodes.items():
        eps, phi = stats_record(x, rd)[2:4]
        for k, ep, ph in zip(rd.vertices(), eps, phi):
            if ep < 0:
                violations.append(f"eps_{k} = {ep} < 0 at {x.key()}")
                checked += 1
                continue
            if ph < 0:
                violations.append(f"phi_{k} = {ph} < 0 at {x.key()}")
                checked += 1
                continue
            ups = walk(nd, k, "e")
            downs = walk(nd, k, "f")
            if ups is None or downs is None:
                skipped += 1
                continue
            checked += 1
            if ups != ep:
                violations.append(f"eps_{k} = {ep} but e-string length {ups} at {x.key()}")
            if downs != ph:
                violations.append(f"phi_{k} = {ph} but f-string length {downs} at {x.key()}")
    return CheckReport(violations, checked, skipped)


def strict_mismatches(rd: RootDatum, x: CrystalElement, y: CrystalElement, image):
    """(violations, skipped) of a strict morphism at x, which it sends to y.

    Compares wt, eps and phi of x and y.  Unless ``image`` is None, also
    checks that ``image(o_k x) == o_k y`` for o = e, f and every vertex k,
    None matching None only; where ``image`` returns None, o_k x is
    unmapped and the comparison is skipped and counted.  The messages name
    x by its key, computed only on a violation.
    """
    rx, ry = stats_record(x, rd), stats_record(y, rd)
    out = [f"{name} not preserved at {x.key()}"
           for name, a, b in zip(("wt", "eps", "phi"), rx[1:4], ry[1:4]) if a != b]
    skipped = 0
    if image is None:
        return out, skipped
    for k in rd.vertices():
        for op, src, dst in (("e", x.e(rd, k), y.e(rd, k)), ("f", x.f(rd, k), y.f(rd, k))):
            if src is None or dst is None:
                if src is not dst:
                    side = "None/non-None" if src is None else "non-None/None"
                    out.append(f"{op}_{k} {side} mismatch at {x.key()}")
                continue
            mapped = image(src)
            if mapped is None:
                skipped += 1
            elif mapped != dst:
                out.append(f"{op}_{k} does not commute at {x.key()}")
    return out, skipped


def check_strict_morphism(
    g1: CrystalGraph,
    g2: CrystalGraph,
    mapping: dict[CrystalElement, CrystalElement],
) -> CheckReport:
    """Verify that ``mapping`` (elements of g1 -> elements of g2, the
    instances keying their nodes) is an injective strict morphism.

    Runs :func:`strict_mismatches` on every mapped node, comparing only
    statistics where either end is a frontier node, and checks injectivity.
    Unmapped frontier nodes, frontier pairs and operator images outside
    the map are skipped and counted.  Raises ValueError, naming the node by
    its element's key, if the map misses a non-frontier node of g1.
    """
    rd = g1.rd
    violations: list[str] = []
    checked = skipped = 0
    for x, nd in g1.nodes.items():
        if x not in mapping:
            if not nd.frontier:
                raise ValueError(f"morphism map undefined on non-frontier node {x.key()}")
            skipped += 1
            continue
        y = mapping[x]
        img = g2.nodes.get(y)
        if img is None:
            violations.append(f"image {y.key()} not in target graph")
            continue
        frontier = nd.frontier or img.frontier
        found, missed = strict_mismatches(rd, x, y, None if frontier else mapping.get)
        violations += found
        checked += not frontier
        skipped += 1 if frontier else missed
    seen: dict[CrystalElement, CrystalElement] = {}
    for src, dst in mapping.items():
        if dst in seen:
            violations.append(f"not injective: {seen[dst].key()} and {src.key()} "
                              f"both map to {dst.key()}")
        seen[dst] = src
    return CheckReport(violations, checked, skipped)


def _export_order(g: CrystalGraph):
    """The order both exports print: the node keys sorted, the nodes in that
    order, the edges as (src index, k, dst index) triples and the
    generators' indices, all sorted.  Reading ``down`` in node order yields
    the edges sorted.  It is computed on the graph's first export and kept
    on it, so that writing both DOT and JSON keys each node once and sorts
    once."""
    if g._order is None:
        by_key = {x.key(): nd for x, nd in g.nodes.items()}  # keys are injective
        keys = sorted(by_key)
        nodes = [by_key[key] for key in keys]
        index = {nd: i for i, nd in enumerate(nodes)}
        edges = [(i, k, index[nxt]) for i, nd in enumerate(nodes)
                 for k, nxt in enumerate(nd.down, 1) if nxt is not None]
        g._order = keys, nodes, edges, sorted(index[g.nodes[x]] for x in g.generators)
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
    plus a newline would print it; -inf statistics are the string "-inf".

    A text that recurs is written once: each distinct weight, eps vector and
    phi vector, each class's kind and each vertex's ``k`` come with the
    field names around them, so a node is seven pieces and an edge five.
    A weight's text fills the graph's one ``%`` template with its coordinates."""
    keys, nodes, edges, generators = _export_order(g)
    ids = [encode_basestring_ascii(key) for key in keys]
    gap = ",\n      "  # between two fields of a node or an edge

    def vector(values: tuple) -> str:
        return _json_list(['"-inf"' if is_neg_inf(x) else str(x) for x in values], 8)

    # the text of a weight, "%d" for each coordinate: every record's weight
    # has the graph's rank
    slots = _json_list(["%d"] * g.rd.n, 10)
    template = _json_list([f'"lambda": {slots}', f'"root": {slots}'], 8, "{}")

    # value -> its text and the name of the next field; weights are keyed by
    # their coordinates, which are equal exactly when the weights are
    kinds: dict[str, str] = {}
    weights: dict[tuple, str] = {}
    eps_texts: dict[tuple, str] = {}
    phi_texts: dict[tuple, str] = {}
    # One flat list of short pieces, joined once.  Building each node, edge
    # or section as a string of its own first left more freed memory held
    # by the allocator after the export (higher RSS once the text is gone).
    parts = ['{\n  "nodes": [']
    opening = '\n    {\n      "id": '
    closing = ("false\n    }", "true\n    }")
    for node_id, nd in zip(ids, nodes):
        x = nd.element
        wt, eps, phi = stats_record(x, g.rd)[1:4]
        coords = (wt.lambda_part, wt.root_part)
        parts += (opening, node_id,
                  kinds.get(x.tag) or kinds.setdefault(
                      x.tag, f'{gap}"kind": {encode_basestring_ascii(x.tag)}{gap}"wt": '),
                  weights.get(coords) or weights.setdefault(
                      coords, template % (*wt.lambda_part, *wt.root_part) + gap + '"eps": '),
                  eps_texts.get(eps) or eps_texts.setdefault(eps, vector(eps) + gap + '"phi": '),
                  phi_texts.get(phi) or phi_texts.setdefault(
                      phi, vector(phi) + gap + '"frontier": '),
                  closing[nd.frontier])
        opening = ',\n    {\n      "id": '
    parts.append("\n  ]" if nodes else "]")
    parts.append(',\n  "edges": [')
    opening = '\n    {\n      "src": '
    ks = [f'{gap}"k": {k}{gap}"dst": ' for k in g.rd.vertices()]
    for (a, k, b) in edges:
        parts += (opening, ids[a], ks[k - 1], ids[b], "\n    }")
        opening = ',\n    {\n      "src": '
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
    frontier nodes dashed.  Byte-stable for fixed input.  The label text of
    each distinct weight and the label-and-color tail of each vertex's
    edges are written once."""
    _, nodes, edges, _ = _export_order(g)
    lines = ["digraph crystal {", "  rankdir=TB;", '  node [shape=box, fontname="Helvetica"];']
    labels: dict[tuple, str] = {}  # (lambda_part, root_part) -> its pairing vector label
    styles = ("];", ", style=dashed];")
    for i, nd in enumerate(nodes):
        wt = stats_record(nd.element, g.rd)[1]
        coords = (wt.lambda_part, wt.root_part)
        label = labels.get(coords)
        if label is None:
            label = labels[coords] = ' [label="(%s)"' % ",".join(map(str, g.rd.pairing_vector(wt)))
        lines.append(f"  n{i}{label}{styles[nd.frontier]}")
    tails = [f' [label="{k}", color="{_DOT_COLORS[(k - 1) % len(_DOT_COLORS)]}"];'
             for k in g.rd.vertices()]
    for (a, k, b) in edges:
        lines.append(f"  n{a} -> n{b}{tails[k - 1]}")
    lines.append("}\n")
    return "\n".join(lines)
