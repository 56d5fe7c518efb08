import gc
import itertools
import json
import math
import tracemalloc
import weakref
from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from kmcrystals import (
    BkElement,
    BudgetExceeded,
    ModelElement,
    build_root_datum,
    character,
    check_axioms,
    check_normal,
    closed_family_instance,
    decompose,
    decompose_tensor,
    embed_psi,
    embedding_mismatches,
    finite_type_check,
    freudenthal_multiplicities,
    generate,
    generate_highest_weight_crystal,
    graph_to_dot,
    graph_to_json,
    highest_weight_elements,
    is_isomorphic,
    model_highest_weight,
    positive_roots,
    tensor_product_graph,
    weyl_dim,
)
from kmcrystals import explorer, quiver_model
from kmcrystals.crystal_core import stats_record
from kmcrystals.quiver_model import window
from kmcrystals.root_datum import Weight
from kmcrystals.tensor import TensorElement

RD1 = build_root_datum("A1")
RD2 = build_root_datum("A2")
RD3 = build_root_datum("A3")
RD4 = build_root_datum("D4")
RDA = build_root_datum("affineA1")


def decompose_both(rd, weights):
    """The product-graph table, after checking that decompose_tensor agrees."""
    graphs = [generate_highest_weight_crystal(rd, w) for w in weights]
    table = decompose(tensor_product_graph(rd, graphs))
    fast = decompose_tensor(rd, weights)
    assert fast.to_tsv() == table.to_tsv()
    assert fast.to_json_dict() == table.to_json_dict()
    return table


def test_generate_sl2():
    g = generate_highest_weight_crystal(RD1, (1,), depth=5)
    assert g.node_count() == 2
    assert len(g.edges) == 1
    assert not g.has_frontier()


def test_generate_a2_fundamental():
    g = generate_highest_weight_crystal(RD2, (1, 0))
    assert g.node_count() == 3
    weights = {nd.weight for nd in g.nodes.values()}
    lam = Weight((1, 0), (0, 0))
    assert weights == {lam, lam.subtract_alpha(1), lam.subtract_alpha(1).subtract_alpha(2)}


def test_depth_zero_generators_only():
    g = generate_highest_weight_crystal(RD2, (1, 1), depth=0)
    assert g.node_count() == 1
    assert g.has_frontier() and not g.edges


def test_budget_exceeded_carries_partial(monkeypatch):
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "3")
    with pytest.raises(BudgetExceeded) as info:
        generate_highest_weight_crystal(RD2, (1, 1))
    assert info.value.partial.node_count() == 3
    assert (info.value.depth, info.value.queued) == (1, 1)
    assert info.value.queued == info.value.partial.frontier_count()
    assert str(info.value) == "node budget 3 exceeded at depth 1 with 1 nodes queued"


def test_hw_scan():
    g = generate_highest_weight_crystal(RD2, (1, 1))
    assert len(highest_weight_elements(g)) == 1
    g1 = generate_highest_weight_crystal(RD2, (1, 0))
    g2 = generate_highest_weight_crystal(RD2, (0, 1))
    product = tensor_product_graph(RD2, [g1, g2])
    hws = highest_weight_elements(product)
    assert len(hws) == 2
    pairings = sorted(RD2.pairing_vector(product.nodes[x].weight) for x in hws)
    assert pairings == [(0, 0), (1, 1)]


def test_hw_scan_on_bk_window():
    # eps must be exactly 0 or -inf; b_1(0) qualifies, b_1(n != 0) does not
    g = generate(RD1, [BkElement(1, 0)], depth=2)
    assert highest_weight_elements(g) == [BkElement(1, 0)]


def test_decompose_sl2_square():
    table = decompose_both(RD1, [(1,), (1,)])
    assert table.complete and not table.flagged
    assert table.entries == {Weight((2,), (0,)): 1, Weight((2,), (1,)): 1}
    assert sorted(table.component_sizes.values()) == [1, 3]


def test_decompose_a2_pair():
    table = decompose_both(RD2, [(1, 0), (0, 1)])
    assert table.entries == {Weight((1, 1), (0, 0)): 1, Weight((1, 1), (1, 1)): 1}
    assert sorted(table.component_sizes.values()) == [1, 8]


def test_decompose_with_unit_factor():
    table = decompose_both(RD2, [(0, 0), (2, 1)])
    assert list(table.entries.values()) == [1]
    ((wt, _),) = table.entries.items()
    assert RD2.pairing_vector(wt) == (2, 1)


def test_truncated_decompose_flags_components():
    g = generate_highest_weight_crystal(RDA, (1, 0), depth=4)
    table = decompose(g)
    assert not table.complete
    assert table.flagged and not table.entries


def test_is_isomorphic_self():
    g = generate_highest_weight_crystal(RD2, (1, 0))
    iso, witness, _ = is_isomorphic(g, g)
    assert iso and witness == {x.key(): x.key() for x in g.nodes}


def test_is_isomorphic_distinguishes_fundamentals():
    g1 = generate_highest_weight_crystal(RD2, (1, 0))
    g2 = generate_highest_weight_crystal(RD2, (0, 1))
    iso, witness, reason = is_isomorphic(g1, g2)
    assert not iso and witness is None and reason


def test_closed_family_component():
    iso, witness, reason = closed_family_instance(RD2, (1, 0), (1, 0))
    assert iso, reason
    assert witness


def test_closed_family_affine_truncated():
    iso, _, reason = closed_family_instance(RDA, (1, 0), (0, 1), depth=6)
    assert iso, reason


def test_is_isomorphic_requires_unique_hw():
    g1 = generate_highest_weight_crystal(RD2, (1, 0))
    g2 = generate_highest_weight_crystal(RD2, (0, 1))
    product = tensor_product_graph(RD2, [g1, g2])
    with pytest.raises(ValueError, match="unique"):
        is_isomorphic(product, g1)


def test_character_adjoint():
    g = generate_highest_weight_crystal(RD2, (1, 1))
    ch = character(g)
    assert sum(ch.values()) == 8
    assert ch[Weight((1, 1), (1, 1))] == 2  # zero weight space
    assert ch == freudenthal_multiplicities(RD2, RD2.weight((1, 1)))


def test_character_trivial():
    g = generate_highest_weight_crystal(RD2, (0, 0))
    assert character(g) == {RD2.zero_weight(): 1}


def test_character_of_product_is_convolution():
    for lam, mu in (((1, 0), (0, 1)), ((1, 1), (1, 0))):
        ga = generate_highest_weight_crystal(RD2, lam)
        gb = generate_highest_weight_crystal(RD2, mu)
        product = tensor_product_graph(RD2, [ga, gb])
        convolution: dict = {}
        for wa, ma in character(ga).items():
            for wb, mb in character(gb).items():
                key = wa + wb
                convolution[key] = convolution.get(key, 0) + ma * mb
        assert character(product) == convolution


def test_freudenthal_sl2_string():
    lam = RD1.weight((2,))
    mult = freudenthal_multiplicities(RD1, lam)
    assert mult == {
        Weight((2,), (0,)): 1,
        Weight((2,), (1,)): 1,
        Weight((2,), (2,)): 1,
    }


def test_freudenthal_fundamental_a2():
    mult = freudenthal_multiplicities(RD2, RD2.weight((1, 0)))
    assert len(mult) == 3 and set(mult.values()) == {1}


def test_positive_root_counts():
    assert len(positive_roots(RD2)) == 3
    assert len(positive_roots(RD3)) == 6
    assert len(positive_roots(build_root_datum("D4"))) == 12
    assert len(positive_roots(build_root_datum("E6"))) == 36


def test_weyl_dim_values():
    assert weyl_dim(RD3, RD3.weight((0, 1, 0))) == 6
    d4 = build_root_datum("D4")
    units = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert [weyl_dim(d4, d4.weight(unit)) for unit in units] == [8, 8, 8]
    assert weyl_dim(RD1, RD1.weight((7,))) == 8


def test_weyl_dim_rejects_bad_input():
    with pytest.raises(ValueError, match="dominant"):
        weyl_dim(RD1, Weight((1,), (1,)))
    with pytest.raises(ValueError, match="finite"):
        positive_roots(RDA)


def test_finite_type_detection():
    for name in ("A1", "A2", "A3", "D4", "E6", "E7", "E8"):
        assert finite_type_check(build_root_datum(name))
    assert not finite_type_check(RDA)


def sylvester_positive_definite(cartan) -> bool:
    """Reference for finite_type_check: every leading principal minor of C,
    each an exact Leibniz determinant, is > 0."""

    def det(rows):
        total = 0
        for perm in itertools.permutations(range(len(rows))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            total += (-1) ** inversions * math.prod(row[c] for row, c in zip(rows, perm))
        return total

    return all(det([row[:r] for row in cartan[:r]]) > 0 for r in range(1, len(cartan) + 1))


@st.composite
def adjacency_matrices(draw, max_n=6, max_entry=2):
    """Random loop-free symmetric adjacency matrices.  About two thirds of
    the entries are 0, so sparse diagrams, the finite-type ones among them,
    are drawn often."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(0), st.integers(0, max_entry))
    adj = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        adj[i][j] = adj[j][i] = draw(entry)
    return adj


@settings(max_examples=300, deadline=None)
@given(adj=adjacency_matrices())
def test_finite_type_check_matches_sylvester(adj):
    rd = build_root_datum(adj)
    assert finite_type_check(rd) == sylvester_positive_definite(rd.cartan)


@pytest.mark.parametrize("source, lam", [
    ("D5", (0, 1, 0, 0, 0)),
    ("D5", (1, 0, 0, 0, 1)),
    ("A5", (1, 0, 0, 0, 1)),
    ("A5", (0, 1, 0, 1, 0)),
    ("E7", (0, 0, 0, 0, 0, 0, 1)),
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (1, 1, 1)),  # A1 x A2, disconnected
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], (2, 1, 1)),
])
def test_recursion_matches_crystal_character(source, lam):
    rd = build_root_datum(source)
    wt = rd.weight(lam)
    mult = freudenthal_multiplicities(rd, wt)
    assert character(generate_highest_weight_crystal(rd, lam)) == mult
    assert sum(mult.values()) == weyl_dim(rd, wt)


def test_decomposition_sum_rule():
    for lam, mu in (((1, 0), (1, 0)), ((1, 1), (1, 0)), ((2, 0), (0, 1))):
        ga = generate_highest_weight_crystal(RD2, lam)
        gb = generate_highest_weight_crystal(RD2, mu)
        table = decompose(tensor_product_graph(RD2, [ga, gb]))
        total = sum(weyl_dim(RD2, wt) * m for wt, m in table.entries.items())
        assert total == ga.node_count() * gb.node_count()


def test_triple_decomposition_is_associative():
    weights = ((1,), (1,), (1,))
    graphs = [generate_highest_weight_crystal(RD1, w) for w in weights]
    flat = decompose_both(RD1, weights)
    pair = tensor_product_graph(RD1, graphs[:2])
    # decompose the pair, then tensor each component against the third factor
    iterated: dict = {}
    for hw in decompose(pair).component_sizes:
        component = generate(RD1, [hw])
        step = tensor_product_graph(RD1, [component, graphs[2]])
        for wt, m in decompose(step).entries.items():
            iterated[wt] = iterated.get(wt, 0) + m
    flat_by_pairing: dict = {}
    for wt, m in flat.entries.items():
        key = RD1.pairing_vector(wt)
        flat_by_pairing[key] = flat_by_pairing.get(key, 0) + m
    iter_by_pairing: dict = {}
    for wt, m in iterated.items():
        key = RD1.pairing_vector(wt)
        iter_by_pairing[key] = iter_by_pairing.get(key, 0) + m
    assert flat_by_pairing == iter_by_pairing == {(3,): 1, (1,): 2}


@pytest.mark.parametrize("rd, weights", [
    (RD2, [(1, 0), (0, 1), (1, 1)]),
    (RD2, [(2, 0), (1, 0), (0, 1)]),
    (RD3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (RD3, [(1, 0, 1), (0, 1, 0), (1, 0, 0)]),
    (RD4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    (RD1, [(2,), (1,), (1,), (3,)]),
    (RD2, [(1, 0), (0, 0), (0, 1)]),
    (RD3, [(0, 0, 0), (0, 0, 0)]),
    (build_root_datum("E6"), [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]),
])
def test_decompose_tensor_matches_product_graph(rd, weights):
    table = decompose_both(rd, weights)
    total = sum(weyl_dim(rd, wt) * m for wt, m in table.entries.items())
    sizes = [weyl_dim(rd, rd.weight(w)) for w in weights]
    assert total == math.prod(sizes)


# The reference route materializes the product, so draws whose product has
# more than PRODUCT_LIMIT elements are skipped to keep its memory and time small.
PRODUCT_LIMIT = 1500


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decompose_tensor_property_a2_a3(data):
    rd = data.draw(st.sampled_from([RD2, RD3]))
    weight = st.tuples(*[st.integers(0, 1)] * rd.n)
    weights = data.draw(st.lists(weight, min_size=2, max_size=3))
    assume(math.prod(weyl_dim(rd, rd.weight(w)) for w in weights) <= PRODUCT_LIMIT)
    decompose_both(rd, weights)


def test_decompose_tensor_needs_a_factor():
    with pytest.raises(ValueError, match="at least one"):
        decompose_tensor(RD2, [])


@pytest.mark.parametrize("weights", [[(1, 1)], [(1, 1), (1, 0)], [(1, 1), (1, 0), (0, 1)]],
                         ids=["N1", "N2", "N3"])
def test_decompose_tensor_skips_the_first_factor(monkeypatch, weights):
    # the rule reads only the first weight, so B(lambda_1) is never generated
    calls = []
    original = explorer.generate

    def counting(rd, seeds, depth=None):
        calls.append(seeds)
        return original(rd, seeds, depth=depth)

    monkeypatch.setattr(explorer, "generate", counting)
    table = decompose_tensor(RD2, weights)
    assert len(calls) == len(weights) - 1
    if len(weights) == 1:
        assert table.entries == {RD2.weight(weights[0]): 1}


def test_decompose_tensor_budget_skips_the_first_factor(monkeypatch):
    # B(1,1) has 8 nodes and B(1,0) has 3: only the second counts
    unbudgeted = decompose_tensor(RD2, [(1, 1), (1, 0)])
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "5")
    assert decompose_tensor(RD2, [(1, 1), (1, 0)]) == unbudgeted


def test_decompose_tensor_infinite_first_factor(monkeypatch):
    # affine A1 on vertices 1-2 beside A1 on vertex 3: B(1,0,0) is infinite,
    # B(0,0,1) = {b, f_3 b}, and eps_3(f_3 b) = 1 > <h_3, (1,0,0)> = 0; the
    # small budget stops a generated first factor quickly
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "10")
    rd = build_root_datum([[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    table = decompose_tensor(rd, [(1, 0, 0), (0, 0, 1)])
    assert table.entries == {Weight((1, 0, 1), (0, 0, 0)): 1}
    assert table.complete


@pytest.mark.parametrize("first", [(1, 0, 0), (1, -1)], ids=["wrong-length", "not-dominant"])
def test_decompose_tensor_rejects_a_bad_first_weight(first):
    with pytest.raises(ValueError, match="length 2|dominant"):
        decompose_tensor(RD2, [first, (1, 0)])


def test_tensor_product_graph_guards_frontier():
    g = generate_highest_weight_crystal(RDA, (1, 0), depth=2)
    with pytest.raises(ValueError, match="frontier|completely"):
        tensor_product_graph(RDA, [g, g])
    truncated = tensor_product_graph(RDA, [g, g], depth=2)
    assert truncated.has_frontier()


def test_sizes_match_weyl_dim():
    for name, lam in (("A2", (2, 1)), ("A3", (1, 0, 1)), ("D4", (1, 0, 0, 0))):
        rd = build_root_datum(name)
        g = generate_highest_weight_crystal(rd, lam)
        assert g.node_count() == weyl_dim(rd, rd.weight(lam))


def test_sl2_sweep_against_oracles():
    for m in range(3):
        g = generate_highest_weight_crystal(RD1, (m,))
        wt = RD1.weight((m,))
        assert g.node_count() == weyl_dim(RD1, wt) == m + 1
        assert character(g) == freudenthal_multiplicities(RD1, wt)


def test_d4_branch_node_crystal():
    d4 = build_root_datum("D4")
    lam = d4.weight((0, 1, 0, 0))
    assert weyl_dim(d4, lam) == 28  # the adjoint representation of so(8)
    g = generate_highest_weight_crystal(d4, (0, 1, 0, 0))
    assert g.node_count() == 28
    assert character(g) == freudenthal_multiplicities(d4, lam)
    # 4 zero weights: the Cartan subalgebra contributes rank many
    assert character(g)[Weight((0, 1, 0, 0), (1, 2, 1, 1))] == 4


def test_exceptional_series_oracles():
    expected = {"E6": (36, 27), "E7": (63, 56), "E8": (120, 248)}
    for name, (root_count, smallest_dim) in expected.items():
        rd = build_root_datum(name)
        assert len(positive_roots(rd)) == root_count
        units = [[int(k == l) for l in rd.vertices()] for k in rd.vertices()]
        dims = [weyl_dim(rd, rd.weight(unit)) for unit in units]
        assert min(dims) == smallest_dim


def test_keys_only_where_bytes_leave(monkeypatch):
    # model and tensor elements write their own keys, so the count is taken
    # on those two classes; CrystalElement.key is not reached through them
    calls = []

    def counting(original):
        def counting_key(self):
            calls.append(self)
            return original(self)
        return counting_key

    for cls in (ModelElement, TensorElement):
        monkeypatch.setattr(cls, "key", counting(cls.key))
    g = generate_highest_weight_crystal(RD3, (1, 1, 1))
    assert g.node_count() == 64 and calls == []
    graph_to_dot(g)
    assert len(json.loads(graph_to_json(g))["nodes"]) == g.node_count()
    assert len(calls) == g.node_count()  # each node serialized once, for both exports
    calls.clear()
    assert decompose_tensor(RD3, [(1, 0, 0), (0, 1, 0)]).complete
    assert check_axioms(g).ok()
    assert check_normal(g).ok()
    assert calls == []


def _lowest_element(rd, lam):
    full = generate_highest_weight_crystal(rd, lam)
    (lowest,) = [nd.element for nd in full.nodes.values() if not any(nd.phi)]
    return lowest  # from it, every node is first reached by an e-edge


SEEDS = {
    "highest_weight": model_highest_weight,
    "lowest_element": _lowest_element,
}


@pytest.mark.parametrize("seed", SEEDS.values(), ids=SEEDS.keys())
def test_generate_derives_each_edge_once(monkeypatch, seed):
    # an edge already recorded in the other direction is not re-derived
    x = seed(build_root_datum("A3"), (1, 1, 1))
    deltas, builds = [], []
    with_delta, stats = ModelElement.with_delta, quiver_model._stats

    def counting_with_delta(self, k, p, delta):
        deltas.append((k, p, delta))
        return with_delta(self, k, p, delta)

    def counting_stats(rd, x):
        builds.append(x)
        return stats(rd, x)

    monkeypatch.setattr(ModelElement, "with_delta", counting_with_delta)
    monkeypatch.setattr(quiver_model, "_stats", counting_stats)
    g = generate(build_root_datum("A3"), [x])
    assert len(deltas) == len(g.edges) == 102
    assert len(builds) == g.node_count() == 64


def _from_lowest_element(rd, lam):
    return generate(rd, [_lowest_element(rd, lam)])


EXPLORED = {
    "A2 (1,1) from its lowest element": lambda: _from_lowest_element(RD2, (1, 1)),
    "affineA1 (1,0) depth 4": lambda: generate_highest_weight_crystal(RDA, (1, 0), depth=4),
    "A2 (1,0)x(0,1) product": lambda: tensor_product_graph(
        RD2, [generate_highest_weight_crystal(RD2, w) for w in ((1, 0), (0, 1))]
    ),
}


@pytest.mark.parametrize("build", EXPLORED.values(), ids=EXPLORED.keys())
def test_generate_records_every_operator_image(build):
    g = build()
    rd = g.rd
    images = set()
    for x, nd in g.nodes.items():
        if nd.frontier:
            continue
        for k in rd.vertices():
            down, up = x.f(rd, k), x.e(rd, k)
            if down is not None:
                assert down in g.nodes
                images.add((x, k, down))
            if up is not None:
                assert up in g.nodes
                images.add((up, k, x))
    assert g.edges == images
    # depths are breadth-first distances from the generators along the edges
    neighbours = {x: set() for x in g.nodes}
    for a, _, b in g.edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    distance = dict.fromkeys(g.generators, 0)
    queue = deque(g.generators)
    while queue:
        x = queue.popleft()
        for nxt in neighbours[x]:
            if nxt not in distance:
                distance[nxt] = distance[x] + 1
                queue.append(nxt)
    assert distance == {x: nd.depth for x, nd in g.nodes.items()}


def test_memory_freed_with_datum():
    # statistics live on the elements, so nothing outlives the datum and its graphs
    rd = build_root_datum("A2")
    g = generate_highest_weight_crystal(rd, (1, 1))
    assert closed_family_instance(rd, (1, 0), (0, 1))[0]
    refs = [weakref.ref(rd), weakref.ref(g.generators[0])]
    del rd, g
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_graph_freed_without_cycle_collector():
    # up holds elements, not nodes, so a graph holds no reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        rd = build_root_datum("A2")
        g = generate_highest_weight_crystal(rd, (1, 1))
        assert closed_family_instance(rd, (1, 0), (0, 1))[0]
        x = g.generators[0]
        refs = [weakref.ref(rd), weakref.ref(x), weakref.ref(g.nodes[x])]
        del rd, g, x
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_memory_does_not_grow_with_pairs_on_one_datum():
    # a record lives on its element, so nothing of a pair outlives the pair,
    # however many pairs share the datum
    rd = build_root_datum("A3")
    weights = [w for w in itertools.product((0, 1), repeat=3) if any(w)]
    pairs = list(itertools.combinations(weights, 2))[:13]

    def held(batch):
        for lam, mu in batch:
            assert closed_family_instance(rd, lam, mu)[0]
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        held(pairs[:1])  # first-use caches of the datum and the interpreter
        after_4 = held(pairs[1:5])
        after_12 = held(pairs[5:13])
    finally:
        tracemalloc.stop()
    assert after_12 - after_4 < 10_000


def _edge_count(g):
    """The number of edges, read off ``down`` without hashing an element."""
    return sum(nxt is not None for nd in g.nodes.values() for nxt in nd.down)


@pytest.mark.parametrize("rd, lam", [(RD3, (1, 1, 1)), (RD4, (1, 1, 1, 1))], ids=["A3", "D4"])
def test_generate_hashes_each_element_once_per_lookup(monkeypatch, rd, lam):
    # generate looks an element up once per edge and seed, and stores each
    # node once; statistics are read off the element, not looked up by hash
    seeds = [model_highest_weight(rd, lam)]
    calls = []
    original = ModelElement.__hash__

    def counting_hash(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModelElement, "__hash__", counting_hash)
    g = generate(rd, seeds)
    monkeypatch.undo()
    assert len(calls) <= g.node_count() + _edge_count(g) + len(seeds)


@pytest.mark.parametrize("build", EXPLORED.values(), ids=EXPLORED.keys())
def test_nodes_share_the_element_record(build):
    # a node's statistics are its element's own record, not copies of it
    g = build()
    for nd in g.nodes.values():
        assert nd.weight is nd.element.weight(g.rd)
        assert nd.eps is nd.element.eps_vector(g.rd)
        assert nd.phi is nd.element.phi_vector(g.rd)


def _full_pass_record(rd, x):
    """The record of a fresh element equal to model element x, which has no
    source to derive it from: the full rank pass, without its rows."""
    return quiver_model._stats(rd, ModelElement(x.wp, x.v))[:6]


RECORDED = {
    "A3 (1,1,1)": lambda: generate_highest_weight_crystal(RD3, (1, 1, 1)),
    "D4 (1,0,1,1)": lambda: generate_highest_weight_crystal(RD4, (1, 0, 1, 1)),
    "E6 (1,1,0,0,0,0)": lambda: generate_highest_weight_crystal(
        build_root_datum("E6"), (1, 1, 0, 0, 0, 0)),
    "affineA1 (1,1) depth 8": lambda: generate_highest_weight_crystal(RDA, (1, 1), depth=8),
}


@pytest.mark.parametrize("build", RECORDED.values(), ids=RECORDED.keys())
def test_derived_records_equal_the_full_pass(build):
    # every node but the seed derives its record from its source's rank rows
    g = build()
    for x in g.nodes:
        assert x.__dict__["_record"] == _full_pass_record(g.rd, x)


def test_tensor_factor_records_equal_the_full_pass():
    # a factor moved by e_k/f_k derives its record from the factor it replaced
    pair = TensorElement((model_highest_weight(RD3, (1, 0, 1)), model_highest_weight(RD3, (0, 1, 0))))
    g = generate(RD3, [pair])
    factors = {id(b): b for x in g.nodes for b in x.factors}
    assert len(factors) > g.node_count()
    for b in factors.values():
        assert b.__dict__["_record"][:6] == _full_pass_record(RD3, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_diagram_records_and_checks(data):
    # random loop-free symmetric diagrams of rank <= 5 with edges <= 3, at a
    # bounded depth since most of them are infinite: derived records equal
    # the full pass, the checkers and the embedding find nothing, and on
    # each model element and each elementary factor of its embedding a site
    # is None exactly where the operator returns None
    rd = build_root_datum(data.draw(adjacency_matrices(max_n=5, max_entry=3)))
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rd.n))
    g = generate_highest_weight_crystal(rd, lam, depth=data.draw(st.integers(1, 4)))
    for x in g.nodes:
        assert x.__dict__["_record"] == _full_pass_record(rd, x)
    assert check_axioms(g).ok() and check_normal(g).ok()
    for x in g.nodes:
        assert embedding_mismatches(rd, x) == []
        for b in {x, *embed_psi(rd, x, window(rd, x, margin=2)).factors}:
            e_sites, f_sites = stats_record(b, rd)[4:6]
            for k in rd.vertices():
                assert (e_sites[k - 1] is None) == (b.e(rd, k) is None)
                assert (f_sites[k - 1] is None) == (b.f(rd, k) is None)


@pytest.mark.parametrize("rd, lam", [(RD3, (1, 1, 1)), (RD4, (1, 1, 1, 1))], ids=["A3", "D4"])
def test_generate_makes_one_full_rank_pass_per_seed(monkeypatch, rd, lam):
    # every other node's record is derived from its source's rank rows
    passes = []
    original = quiver_model._rank_rows

    def counting(rd, x):
        passes.append(x)
        return original(rd, x)

    monkeypatch.setattr(quiver_model, "_rank_rows", counting)
    g = generate(rd, [model_highest_weight(rd, lam)])
    assert g.node_count() == {3: 64, 4: 4096}[rd.n]
    assert passes == list(g.generators)


@pytest.mark.parametrize("build", [*EXPLORED.values(), *RECORDED.values()],
                         ids=[*EXPLORED.keys(), *RECORDED.keys()])
def test_finished_graph_keeps_no_rows_or_links(build):
    # rank rows live only until a node is expanded, frontier nodes included
    g = build()
    for x in g.nodes:
        assert len(x.__dict__["_record"]) == 6
        assert "_link" not in x.__dict__


def test_partial_graph_keeps_no_rows(monkeypatch):
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "20")
    with pytest.raises(BudgetExceeded) as info:
        generate_highest_weight_crystal(RDA, (1, 0))
    assert info.value.queued > 0
    for x in info.value.partial.nodes:
        assert len(x.__dict__["_record"]) == 6


def test_image_drops_its_link_once_recorded():
    # an image outside any graph links to its source only until its record
    # is built, so it never holds a chain of parents
    x = model_highest_weight(RD3, (1, 1, 1))
    y = x.f(RD3, 1)
    assert y.__dict__["_link"][0] is x
    z = y.f(RD3, 2)  # builds y's record
    assert "_link" not in y.__dict__ and z.__dict__["_link"][0] is y
    source = weakref.ref(x)
    del x
    assert source() is None


def test_finished_graph_memory_is_pinned():
    # a finished D4 (1,1,1,1) graph held 5,260,072 traced bytes on CPython
    # 3.11.7 when every record took a full pass; derived records drop their
    # rank rows once the node is expanded, so it holds at most 2% more
    generate_highest_weight_crystal(RD4, (1, 1, 1, 1))  # first-use caches
    gc.collect()
    tracemalloc.start()
    try:
        g = generate_highest_weight_crystal(RD4, (1, 1, 1, 1))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.node_count() == 4096
    assert held <= 5_260_072 * 1.02


def test_exports_hash_no_element(monkeypatch):
    g = generate_highest_weight_crystal(build_root_datum("A3"), (1, 1, 1))
    calls = []
    original = ModelElement.__hash__

    def counting_hash(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ModelElement, "__hash__", counting_hash)
    graph_to_dot(g)
    graph_to_json(g)
    assert len(calls) <= len(g.generators)
