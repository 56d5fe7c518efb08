"""Crystal graph generation and analysis.

Generation is a breadth-first closure of a seed set under every e_k and
f_k, up to an optional depth bound; nodes left unexpanded are frontier
nodes.  Beside it, ``f_layers`` walks a highest-weight crystal layer by
layer under the f_k alone, with no e_k, no edges and no graph, for
consumers that read only each element's weight and eps.  Graphs,
highest-weight lists and decomposition tables hold the elements
themselves; element keys appear only in ``is_isomorphic``'s witness and in
the JSON form of a table.  Analyses (highest-weight scan, decomposition,
characters, isomorphism) are read-only passes over a generated graph,
except ``decompose_tensor``, which decomposes a tensor product from one
factor's weight and walks of the other factors; on finite type that
factor is the largest.  The crystal-free oracles the graphs are checked
against live in :mod:`oracles`.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import is_not, le

from .crystal_core import (
    CrystalElement,
    CrystalGraph,
    GraphNode,
    check_strict_morphism,
    is_neg_inf,
    stats_record,
    trim_record,
)
from .oracles import _weyl_product, finite_type_check
# bench/tracer.py wraps these on explorer; test_tracer_targets_exist_on_their_owners checks it
from .oracles import freudenthal_multiplicities, positive_roots, weyl_dim
from .quiver_model import model_highest_weight
from .root_datum import RootDatum, Weight
from .tensor import TensorElement, flatten

DEFAULT_NODE_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """Raised when generation or a walk would exceed the node budget.
    Carries the partial graph (None from :func:`f_layers`, which builds
    none), the largest depth of an element enumerated and the number of
    them still queued for expansion."""

    def __init__(self, budget: int, partial: CrystalGraph | None, depth: int, queued: int):
        super().__init__(
            f"node budget {budget} exceeded at depth {depth} with {queued} nodes queued"
        )
        self.budget = budget
        self.partial = partial
        self.depth = depth
        self.queued = queued


def env_node_budget() -> int:
    """The node budget set by CRYSTAL_NODE_BUDGET, default 10^6 nodes;
    ValueError unless the variable is a nonnegative integer."""
    text = os.environ.get("CRYSTAL_NODE_BUDGET", str(DEFAULT_NODE_BUDGET))
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"CRYSTAL_NODE_BUDGET={text!r} is not a nonnegative integer")
    return int(text)


def generate(rd: RootDatum, seeds, depth: int | None = None) -> CrystalGraph:
    """Explore the closure of ``seeds`` under all e_k and f_k.

    ``depth`` bounds the number of operator applications from the seed set;
    None means full expansion (the crystal had better be finite).  Nodes at
    the depth bound stay marked as frontier.  Admitting more nodes than
    CRYSTAL_NODE_BUDGET allows raises BudgetExceeded.  Nodes are keyed by
    the elements themselves (structural equality); no ``key()`` is computed,
    and exploration order never changes the result.

    Each edge is derived once, from any seed set.  Expanding b computes
    f_k(b) only while ``down[k-1]`` is None and e_k(b) only while ``up[k-1]``
    is None: a recorded edge f_k(a) = b already is e_k(b) = a by the crystal
    axiom, and the other way round, so node set, edge set and depths are
    those of applying every operator.  A structure that breaks the axiom may
    lose nodes and edges here, never gain them;
    :func:`~kmcrystals.crystal_core.check_axioms` re-derives every operator
    in both directions and reports it.

    A model node's record, built at admission, holds its derivation state
    while the node is queued, so that its operator images derive their
    records from it; :func:`~kmcrystals.crystal_core.trim_record` releases
    that state once the node is expanded or left at the frontier, so a
    finished or partial graph holds none.

    Equal factors of tensor nodes are one instance.  A table kept for this
    call only maps each factor of an admitted tensor node to itself; a new
    tensor node is rebuilt on the table's instances before its record is
    built, so each distinct factor builds its record once and an image
    equal to a known factor never builds one.  A shared factor keeps its
    rank rows, from which the factors of later nodes derive their records,
    until generation ends or on BudgetExceeded; then each distinct factor
    is trimmed once.
    """
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    node_budget = env_node_budget()
    g = CrystalGraph(rd=rd, depth_bound=depth)
    queue: deque[GraphNode] = deque()
    shared: dict[CrystalElement, CrystalElement] = {}  # each distinct factor of a tensor node

    def trim_factors():
        """Drop the rank rows left in the shared factors, nested ones included."""
        for b in shared:
            for part in flatten(b):
                trim_record(part)

    def admit(x: CrystalElement, d: int) -> GraphNode:
        """The graph's node of x, admitting x as a new node if needed."""
        nd = g.nodes.get(x)
        if nd is not None:
            return nd
        if len(g.nodes) >= node_budget:
            reached = max((nd.depth for nd in g.nodes.values()), default=0)
            for y in g.nodes:
                trim_record(y)
            trim_factors()
            raise BudgetExceeded(node_budget, g, reached, len(queue))
        if isinstance(x, TensorElement):
            factors = tuple([shared.setdefault(b, b) for b in x.factors])
            if any(map(is_not, factors, x.factors)):
                x = TensorElement(factors)
        x.weight(rd)  # builds x's record while an image's source still holds its rank rows
        nd = g.nodes[x] = GraphNode(x, d, True, [None] * rd.n, [None] * rd.n)
        queue.append(nd)
        return nd

    g.generators = tuple(admit(s, 0).element for s in seeds)
    while queue:
        nd = queue.popleft()
        x = nd.element
        if depth is None or nd.depth < depth:  # else it stays frontier
            nd.frontier = False
            for k in rd.vertices():
                if nd.down[k - 1] is None and (y := x.f(rd, k)) is not None:
                    nxt = nd.down[k - 1] = admit(y, nd.depth + 1)
                    nxt.up[k - 1] = x
                if nd.up[k - 1] is None and (y := x.e(rd, k)) is not None:
                    src = admit(y, nd.depth + 1)
                    nd.up[k - 1] = src.element
                    src.down[k - 1] = nd
        trim_record(x)  # its images' records are built; x keeps its record's six fields
    trim_factors()
    return g


def f_layers(rd: RootDatum, top: CrystalElement, depth: int | None = None):
    """Yield the layers of the crystal below the highest-weight element
    ``top``: layer 0 is ``[top]``, and layer h + 1 lists the distinct f_k
    images of layer h, in the order :func:`generate` admits them.  On a
    highest-weight crystal such as B(lambda) every element lies below top,
    at the height of its weight below top's, so layers 0..d are the nodes
    of ``generate(rd, [top], depth=d)``, at their depths.  ``depth`` None
    walks every layer (the crystal had better be finite).

    No e_k is applied and no graph is built: a consumer reads each
    element's record, whose weight and eps are all the tensor rule and a
    character need.  Only the layer being read and the one it expands to
    are alive.  Each image builds its record while its source's record
    still holds its derivation state, so top makes the walk's one full
    rank pass; :func:`~kmcrystals.crystal_core.trim_record` releases a
    source's state once its images are built, and the last layer's when
    the walk returns, raises or is closed.  Enumerating more elements than
    CRYSTAL_NODE_BUDGET allows raises BudgetExceeded, with the depth and
    queue that ``generate`` reports at the same element and no partial
    graph."""
    if depth is not None and depth < 0:
        raise ValueError("depth must be >= 0")
    node_budget = env_node_budget()
    layer, height, count = [top], 0, 1
    try:
        if node_budget < 1:
            raise BudgetExceeded(node_budget, None, 0, 0)
        top.weight(rd)
        while layer:
            yield layer
            if height == depth:
                break
            below: dict[CrystalElement, None] = {}
            for i, x in enumerate(layer):
                for k in rd.vertices():
                    y = x.f(rd, k)
                    if y is not None and y not in below:
                        if count >= node_budget:
                            raise BudgetExceeded(node_budget, None, height + bool(below),
                                                 len(layer) - i - 1 + len(below))
                        y.weight(rd)  # built from x's rank rows
                        below[y] = None
                        count += 1
                trim_record(x)
            layer, x, y = list(below), None, None  # keep nothing of the expanded layer
            height += 1
    finally:
        for x in layer:
            trim_record(x)


def generate_highest_weight_crystal(rd: RootDatum, lam, depth=None):
    """Generate B(lam) from the profile-model source element."""
    return generate(rd, [model_highest_weight(rd, lam)], depth=depth)


def closed_family_instance(rd: RootDatum, lam, mu, depth: int | None = None):
    """Compare the component of b_lam (x) b_mu inside B(lam) (x) B(mu) with
    B(lam + mu); returns the is_isomorphic triple.

    With a depth bound both sides are generated to the same truncation and
    compared frontier-aware.
    """
    pair = TensorElement((model_highest_weight(rd, lam), model_highest_weight(rd, mu)))
    component = generate(rd, [pair], depth=depth)
    total = tuple(a + b for a, b in zip(lam, mu))
    target = generate_highest_weight_crystal(rd, total, depth=depth)
    return is_isomorphic(component, target)


def highest_weight_elements(g: CrystalGraph) -> list[CrystalElement]:
    """Nodes killed by every e_k (eps_k = 0, or -inf where nothing acts)."""
    return [x for x in g.nodes if all(is_neg_inf(v) or v == 0 for v in stats_record(x, g.rd)[2])]


def character(g: CrystalGraph) -> dict[Weight, int]:
    """Weight multiset of the explored nodes (exact on frontier-free graphs)."""
    return dict(Counter(stats_record(x, g.rd)[1] for x in g.nodes))


def tensor_product_graph(
    rd: RootDatum, graphs: list[CrystalGraph], depth: int | None = None
) -> CrystalGraph:
    """Materialize the tensor product of explored crystals.

    With ``depth`` None the factors must be frontier-free and the result is
    the complete product crystal (the product set is already closed under
    the operators, so generation only fills in edges).  With a depth bound,
    truncated factors are allowed and the result is itself a truncation.
    """
    if depth is None and any(g.frontier_count() for g in graphs):
        raise ValueError("tensor_product_graph needs completely explored factors "
                         "unless a depth bound is given")
    pools = [list(g.nodes) for g in graphs]
    seeds = [TensorElement(combo) for combo in itertools.product(*pools)]
    return generate(rd, seeds, depth=depth)


@dataclass
class DecompositionTable:
    """Highest weights with multiplicities of an explored crystal or a tensor product."""

    entries: dict[Weight, int]
    complete: bool
    depth: int | None
    flagged: list[CrystalElement] = field(default_factory=list)
    component_sizes: dict[CrystalElement, int] = field(default_factory=dict)

    def sorted_entries(self) -> list[tuple[Weight, int]]:
        return sorted(self.entries.items(), key=lambda kv: (kv[0].lambda_part, kv[0].root_part))

    def to_tsv(self) -> str:
        lines = ["lambda\troot\tmultiplicity"]
        for wt, mult in self.sorted_entries():
            lam = ",".join(str(x) for x in wt.lambda_part)
            root = ",".join(str(x) for x in wt.root_part)
            lines.append(f"{lam}\t{root}\t{mult}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {"weight": wt.serialize(), "multiplicity": mult}
                for wt, mult in self.sorted_entries()
            ],
            "complete": self.complete,
            "depth": self.depth,
            "flagged": sorted(x.key() for x in self.flagged),
        }


def decompose(g: CrystalGraph) -> DecompositionTable:
    """One entry per highest-weight element whose component is fully explored.

    Components that touch the frontier are reported in ``flagged`` and never
    counted, so truncated graphs cannot produce phantom multiplicities.
    """
    entries: dict[Weight, int] = {}
    flagged: list[CrystalElement] = []
    sizes: dict[CrystalElement, int] = {}
    for hw in highest_weight_elements(g):
        start = g.nodes[hw]
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in itertools.chain(cur.down, (g.nodes[x] for x in cur.up if x is not None)):
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if any(nd.frontier for nd in seen):
            flagged.append(hw)
            continue
        wt = stats_record(hw, g.rd)[1]
        entries[wt] = entries.get(wt, 0) + 1
        sizes[hw] = len(seen)
    return DecompositionTable(
        entries=entries,
        complete=not g.frontier_count(),
        depth=g.depth_bound,
        flagged=flagged,
        component_sizes=sizes,
    )


def decompose_tensor(rd: RootDatum, weights) -> DecompositionTable:
    """Decompose B(lambda_1) (x) ... (x) B(lambda_n) without building the product.

    Under this library's tensor convention the highest-weight elements of
    B(nu) (x) B(mu) are exactly b_nu (x) b with eps_k(b) <= <h_k, nu> for
    every k (Kashiwara's tensor rule), and each spans a copy of
    B(nu + wt(b)).  Folding that rule over the factors needs only the
    factors and the running table, never the product crystal.

    Every factor's highest-weight element is built first, so a bad weight
    anywhere raises ValueError (from ``model_highest_weight``) before any
    enumeration; the weights are read with ``rd.weight``, which builds no
    element's record.  The rule reads only the weight of the factor the fold
    starts from, which is never enumerated; the others are walked in full
    by :func:`f_layers`, each layer folded into the running table as it
    comes, so no factor is held whole.  On a datum of finite type the
    product does not depend on the order of its factors (Kashiwara, Duke
    Math. J. 63, 1991), so the fold starts from the factor with the
    largest ``weyl_dim``, the earliest of equals, with the positive roots
    enumerated once for all factors; on any other datum it starts from
    lambda_1, which may then be any dominant weight, so an infinite first
    factor still gives an exact, finite table.  The node budget bounds the
    elements walked in each factor, not the product, and an infinite factor
    raises BudgetExceeded.
    ``component_sizes`` stays empty, as there are no product nodes.
    ``decompose(tensor_product_graph(...))`` is the reference route.
    """
    if not weights:
        raise ValueError("decompose_tensor needs at least one factor")
    tops = [model_highest_weight(rd, lam) for lam in weights]
    lams = [rd.weight(lam) for lam in weights]  # the tops' weights, without their records
    first = 0
    if finite_type_check(rd):
        roots = positive_roots(rd)
        first = max(range(len(lams)), key=lambda i: _weyl_product(rd, lams[i], roots))
    del tops[first]
    entries = {lams[first]: 1}
    for top in tops:
        capped = [(nu, mult, rd.pairing_vector(nu)) for nu, mult in entries.items()]
        step: dict[Weight, int] = {}
        for layer in f_layers(rd, top):
            for x in layer:
                _, b_wt, b_eps = stats_record(x, rd)[:3]
                for nu, mult, caps in capped:
                    if all(map(le, b_eps, caps)):
                        wt = nu + b_wt
                        step[wt] = step.get(wt, 0) + mult
        entries = step
    return DecompositionTable(entries=entries, complete=True, depth=None)


def is_isomorphic(g1: CrystalGraph, g2: CrystalGraph):
    """Decide isomorphism of two highest-weight crystal graphs.

    Both graphs must contain exactly one highest-weight element.  A
    parallel walk of node pairs (keyed by identity) down the ``down``
    arrays from the two sources builds the candidate map; highest-weight
    crystal isomorphisms are unique, so an f_k defined on one side only or
    an edge clash settles the question.  Frontier pairs are not expanded,
    which makes equal-depth truncations comparable; a map missing a node of
    either graph answers False.  The candidate is then checked as a strict
    morphism, which compares wt, eps and phi.

    Returns (answer, witness_map_or_None, reason); the witness maps node
    keys of g1 to node keys of g2.
    """
    hw1 = highest_weight_elements(g1)
    hw2 = highest_weight_elements(g2)
    if len(hw1) != 1 or len(hw2) != 1:
        raise ValueError(
            f"is_isomorphic needs unique highest-weight elements, got {len(hw1)} and {len(hw2)}"
        )
    na, nb = g1.nodes[hw1[0]], g2.nodes[hw2[0]]
    mapping = {na: nb}  # node of g1 -> node of g2
    queue = deque([(na, nb)])
    while queue:
        na, nb = queue.popleft()
        if na.frontier or nb.frontier:
            continue
        for k, (fa, fb) in enumerate(zip(na.down, nb.down), 1):
            if (fa is None) != (fb is None):
                return False, None, f"f_{k} defined on one side only at {na.element.key()}"
            if fa is None:
                continue
            if fa in mapping:
                if mapping[fa] is not fb:
                    return False, None, f"edge clash at {fa.element.key()}"
                continue
            mapping[fa] = fb
            queue.append((fa, fb))
    n1, n2 = g1.node_count(), g2.node_count()
    if not len(mapping) == n1 == n2:  # an injective map of all g1 into n1 nodes is onto
        return False, None, f"walk maps {len(mapping)} of {n1} nodes into a graph of {n2}"
    report = check_strict_morphism(g1, g2, {a.element: b.element for a, b in mapping.items()})
    if not report.ok():
        return False, None, "witness failed strict-morphism check: " + report.violations[0]
    return True, {a.element.key(): b.element.key() for a, b in mapping.items()}, ""
