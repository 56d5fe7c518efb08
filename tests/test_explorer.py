import ast
import gc
import itertools
import json
import math
import sys
import tracemalloc
import weakref
from collections import Counter, deque
from pathlib import Path

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
from kmcrystals import crystal_core, explorer, oracles, quiver_model
from kmcrystals.crystal_core import GraphNode, stats_record
from kmcrystals.explorer import f_layers
from kmcrystals.oracles import infinite_vertices
from kmcrystals.quiver_model import window
from kmcrystals.root_datum import Weight
from kmcrystals.tensor import TensorElement, flatten

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
    assert not g.frontier_count()


def test_generate_a2_fundamental():
    g = generate_highest_weight_crystal(RD2, (1, 0))
    assert g.node_count() == 3
    weights = {x.weight(RD2) for x in g.nodes}
    lam = Weight((1, 0), (0, 0))
    assert weights == {lam, lam.subtract_alpha(1), lam.subtract_alpha(1).subtract_alpha(2)}


def test_negative_depth_rejected():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        generate(RD2, [model_highest_weight(RD2, (1, 0))], depth=-1)


def test_depth_zero_generators_only():
    g = generate_highest_weight_crystal(RD2, (1, 1), depth=0)
    assert g.node_count() == 1
    assert g.frontier_count() and not g.edges


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
    pairings = sorted(RD2.pairing_vector(x.weight(RD2)) for x in hws)
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


@pytest.mark.parametrize("deeper_first", [False, True], ids=["depth 1 first", "full first"])
def test_is_isomorphic_rejects_another_truncation_in_either_order(deeper_first):
    # the walk stops at the shallow graph's frontier, so its map covers only
    # that graph; B(1,1) of A2 has height 4, so depth 10 truncates nothing
    full = generate_highest_weight_crystal(RD2, (1, 1))
    shallow = generate_highest_weight_crystal(RD2, (1, 1), depth=1)
    deep = generate_highest_weight_crystal(RD2, (1, 1), depth=10)
    assert not deep.frontier_count()
    if deeper_first:
        reason = "walk maps 3 of 8 nodes into a graph of 3"
        assert is_isomorphic(full, shallow) == (False, None, reason)
        assert is_isomorphic(full, deep)[0]
    else:
        reason = "walk maps 3 of 3 nodes into a graph of 8"
        assert is_isomorphic(shallow, full) == (False, None, reason)
        assert is_isomorphic(deep, full)[0]


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


def test_positive_roots_hand_out_a_fresh_list():
    # the roots kept on the datum are not the list a caller may change
    roots = positive_roots(RD2)
    assert roots == [(0, 1), (1, 0), (1, 1)]
    roots.clear()
    assert positive_roots(RD2) == [(0, 1), (1, 0), (1, 1)]


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
    # dominance is checked first, then finite type
    with pytest.raises(ValueError, match="^weyl_dim needs a dominant weight$"):
        weyl_dim(RDA, Weight((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="^positive root enumeration needs a finite-type"):
        weyl_dim(RDA, RDA.weight((1, 0)))


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


@st.composite
def diagrams_in_pieces(draw, max_n=7):
    """Random loop-free symmetric adjacency matrices of rank <= max_n with
    edge multiplicities 0-3, whose vertices fall into up to three
    interleaved groups with no edge between groups: most draws are
    disconnected, and a component's vertices need not be consecutive."""
    n = draw(st.integers(1, max_n))
    group = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    entry = st.one_of(st.just(0), st.integers(0, 3))
    adj = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if group[i] == group[j]:
            adj[i][j] = adj[j][i] = draw(entry)
    return adj


@settings(max_examples=200, deadline=None)
@given(adj=diagrams_in_pieces())
def test_infinite_vertices_are_the_components_not_of_finite_type(adj):
    rd = build_root_datum(adj)
    n = len(adj)
    reach = [{i} | {j for j in range(n) if adj[i][j]} for i in range(n)]
    for _ in range(n):  # transitive closure: reach[i] becomes i's component
        reach = [set().union(*(reach[j] for j in r)) for r in reach]
    expected = set()
    for component in {frozenset(r) for r in reach}:
        block = sorted(component)
        if not sylvester_positive_definite([[rd.cartan[k][l] for l in block] for k in block]):
            expected |= {k + 1 for k in block}
    assert infinite_vertices(rd) == expected
    assert finite_type_check(rd) == (not infinite_vertices(rd))


def test_oracles_import_only_the_standard_library_and_root_datum():
    tree = ast.parse(Path(oracles.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "root_datum"), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, ast.unparse(node)


def test_package_imports_only_the_standard_library():
    # the engine has no runtime dependency (``dependencies = []``): every
    # absolute import of every module, those inside functions too, is of
    # the standard library
    modules = sorted(Path(oracles.__file__).parent.glob("*.py"))
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((node.module.split(".")[0], path.name, ast.unparse(node)))
            elif isinstance(node, ast.Import):
                imported |= {(alias.name.split(".")[0], path.name, ast.unparse(node))
                             for alias in node.names}
    assert "tomllib" in {name for name, _, _ in imported}  # imported inside a function
    for name, module, text in imported:
        assert name in sys.stdlib_module_names, f"{module}: {text}"


def test_explorer_imports_only_the_highest_weight_from_the_model():
    # a model record's derivation state lives and dies in quiver_model, and
    # explorer releases it through trim_record alone, so it imports nothing
    # else of the model
    tree = ast.parse(Path(explorer.__file__).read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "quiver_model":
            names += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("quiver_model" in alias.name for alias in node.names), \
                ast.unparse(node)
    assert names == ["model_highest_weight"]


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
    # also D4; every order of the factors gives the same table
    rd = data.draw(st.sampled_from([RD2, RD3, RD4]))
    weight = st.tuples(*[st.integers(0, 1)] * rd.n)
    weights = data.draw(st.lists(weight, min_size=2, max_size=3))
    assume(math.prod(weyl_dim(rd, rd.weight(w)) for w in weights) <= PRODUCT_LIMIT)
    table = decompose_both(rd, weights)
    for order in set(itertools.permutations(weights)):
        assert decompose_tensor(rd, order).entries == table.entries, order


def test_decompose_tensor_needs_a_factor():
    with pytest.raises(ValueError, match="at least one"):
        decompose_tensor(RD2, [])


def record_walk(monkeypatch):
    """Let explorer.f_layers record the top element of each walk in the
    returned list; decompose_tensor enumerates a factor only by a walk, so
    generate must not run at all."""
    calls = []
    original = explorer.f_layers

    def recording(rd, top, depth=None):
        calls.append(top)
        return original(rd, top, depth=depth)

    def refusing(rd, seeds, depth=None):
        raise AssertionError("decompose_tensor called generate")

    monkeypatch.setattr(explorer, "f_layers", recording)
    monkeypatch.setattr(explorer, "generate", refusing)
    return calls


@pytest.mark.parametrize("weights", [[(1, 1)], [(1, 1), (1, 0)], [(1, 1), (1, 0), (0, 1)]],
                         ids=["N1", "N2", "N3"])
def test_decompose_tensor_skips_the_first_factor(monkeypatch, weights):
    # B(1,1) is the largest factor and comes first, so the fold starts from
    # it, reads only its weight and never enumerates it
    calls = record_walk(monkeypatch)
    table = decompose_tensor(RD2, weights)
    assert len(calls) == len(weights) - 1
    if len(weights) == 1:
        assert table.entries == {RD2.weight(weights[0]): 1}


def test_decompose_tensor_budget_skips_the_first_factor(monkeypatch):
    # B(1,1) has 8 nodes and B(1,0) has 3: only the second counts
    unbudgeted = decompose_tensor(RD2, [(1, 1), (1, 0)])
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "5")
    assert decompose_tensor(RD2, [(1, 1), (1, 0)]) == unbudgeted


@pytest.mark.parametrize("rd, small, large", [
    (RD2, (1, 0), (1, 1)),
    (RD3, (1, 0, 0), (0, 1, 0)),
    (RD4, (0, 0, 0, 1), (0, 1, 0, 1)),
], ids=["A2", "A3", "D4"])
@pytest.mark.parametrize("large_first", [True, False], ids=["large-small", "small-large"])
def test_decompose_tensor_generates_all_but_the_largest_factor(monkeypatch, rd, small, large,
                                                               large_first):
    # on finite type the fold starts from the factor with the largest weyl_dim
    calls = record_walk(monkeypatch)
    weights = [large, small] if large_first else [small, large]
    table = decompose_tensor(rd, weights)
    assert calls == [model_highest_weight(rd, small)]
    total = sum(weyl_dim(rd, wt) * m for wt, m in table.entries.items())
    assert total == weyl_dim(rd, rd.weight(small)) * weyl_dim(rd, rd.weight(large))


def test_decompose_tensor_enumerates_positive_roots_once(monkeypatch):
    calls = []
    original = explorer.positive_roots

    def counting(rd):
        calls.append(rd)
        return original(rd)

    monkeypatch.setattr(explorer, "positive_roots", counting)
    weights = [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0)]
    table = decompose_tensor(RD4, weights)
    assert calls == [RD4]
    total = sum(weyl_dim(RD4, wt) * m for wt, m in table.entries.items())
    assert total == 8 * 160 * 8


@pytest.mark.parametrize("rd, weights, first", [
    (RD4, [(0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0)], (0, 1, 0, 1)),  # the largest
    (RDA, [(1, 0), (0, 0)], (1, 0)),  # off finite type, the first
], ids=["D4", "affineA1"])
def test_decompose_tensor_records_only_generated_factors(monkeypatch, rd, weights, first):
    # weights are read with rd.weight: the factor the fold starts from never
    # builds a record, and each generated factor makes one full rank pass
    passes = []
    original = quiver_model._rank_rows

    def counting(rd, x):
        passes.append(x.wp)
        return original(rd, x)

    monkeypatch.setattr(quiver_model, "_rank_rows", counting)
    decompose_tensor(rd, weights)
    assert sorted(wp.slots for wp in passes) == sorted(
        ((0, lam),) if any(lam) else () for lam in weights if lam != first)


def test_decompose_tensor_budget_skips_the_largest_factor(monkeypatch):
    # B(1,0) has 3 nodes and B(1,1) has 8: only the smaller one is generated
    unbudgeted = decompose_tensor(RD2, [(1, 0), (1, 1)])
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "5")
    assert decompose_tensor(RD2, [(1, 0), (1, 1)]) == unbudgeted


def test_decompose_tensor_keeps_the_order_off_finite_type(monkeypatch):
    # affine A1 beside A1 is not of finite type, so the fold starts from
    # B(0,0,1) and generates the infinite B(1,0,0), which overruns
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "10")
    rd = build_root_datum([[0, 2, 0], [2, 0, 0], [0, 0, 0]])
    with pytest.raises(BudgetExceeded):
        decompose_tensor(rd, [(0, 0, 1), (1, 0, 0)])


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


@pytest.mark.parametrize("last, message", [((1, 0, 0), "length 2"), ((1, -1), "dominant")],
                         ids=["wrong-length", "not-dominant"])
def test_decompose_tensor_rejects_a_bad_later_weight_before_generating(monkeypatch, last,
                                                                       message):
    calls = record_walk(monkeypatch)
    with pytest.raises(ValueError, match=message):
        decompose_tensor(RD2, [(1, 0), (1, 1), last])
    assert calls == []


def _walk(rd, lam, depth=None):
    """The top element of B(lam) and the layers the walk yields from it.
    Every element yielded still holds, in its record, the row table that
    top's full pass started: one walk shares one table across its layers."""
    top = model_highest_weight(rd, lam)
    layers = []
    for layer in f_layers(rd, top, depth):
        if not layers:
            table = top.__dict__["_record"][6][2]
        assert all(x.__dict__["_record"][6][2] is table for x in layer)
        layers.append(list(layer))
    return top, layers


def _layers_by_depth(g):
    """A graph's elements grouped by depth, in the order generate admitted them."""
    layers = {}
    for x, nd in g.nodes.items():
        layers.setdefault(nd.depth, []).append(x)
    return [layers[d] for d in sorted(layers)]


@pytest.mark.parametrize("rd, lam", [
    (RD2, (2, 1)),
    (RD3, (1, 0, 1)),
    (RD3, (1, 1, 1)),
    (RD4, (1, 0, 1, 1)),
    (build_root_datum("E6"), (1, 0, 0, 0, 0, 1)),
], ids=["A2", "A3 (1,0,1)", "A3 (1,1,1)", "D4", "E6"])
def test_walk_enumerates_what_generate_does(rd, lam):
    # the layers are generate's nodes at each depth, in admission order, so
    # the (wt, eps) multiset the tensor rule reads and the count agree
    top, layers = _walk(rd, lam)
    g = generate_highest_weight_crystal(rd, lam)
    assert layers == _layers_by_depth(g)
    walked = [x for layer in layers for x in layer]
    assert len(walked) == g.node_count() == weyl_dim(rd, rd.weight(lam))
    assert (Counter(stats_record(x, rd)[1:3] for x in walked)
            == Counter(stats_record(x, rd)[1:3] for x in g.nodes))
    for x in walked:  # derived records, rows dropped
        assert x.__dict__["_record"] == _full_pass_record(rd, x)
    assert len(top.__dict__["_record"]) == 6


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_walk_matches_generate_on_random_truncations(data):
    # the random diagrams of test_random_diagram_records_and_checks, most of
    # them infinite, at depth 1-4
    rd = build_root_datum(data.draw(adjacency_matrices(max_n=5, max_entry=3)))
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rd.n))
    depth = data.draw(st.integers(1, 4))
    top, layers = _walk(rd, lam, depth)
    assert layers == _layers_by_depth(generate_highest_weight_crystal(rd, lam, depth=depth))
    assert all(len(x.__dict__["_record"]) == 6 for layer in layers for x in layer)


@pytest.mark.parametrize("lam, depth", [((1, 0), 6), ((1, 1), 8), ((0, 2), 5), ((3, 1), 0)])
def test_walk_matches_generate_on_affine_truncations(lam, depth):
    top, layers = _walk(RDA, lam, depth)
    g = generate_highest_weight_crystal(RDA, lam, depth=depth)
    assert layers == _layers_by_depth(g)
    assert len(layers) == depth + 1
    assert (Counter(stats_record(x, RDA)[1:3] for layer in layers for x in layer)
            == Counter(stats_record(x, RDA)[1:3] for x in g.nodes))


@pytest.mark.parametrize("budget", [0, 1, 2, 5, 12, 40])
def test_walk_overruns_its_budget_where_generate_does(monkeypatch, budget):
    # the same count, so the same element, depth and queue in the message
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", str(budget))
    for rd, lam in ((RD3, (1, 1, 1)), (RDA, (1, 0))):
        with pytest.raises(BudgetExceeded) as by_graph:
            generate_highest_weight_crystal(rd, lam)
        top = model_highest_weight(rd, lam)
        walked = []
        with pytest.raises(BudgetExceeded) as by_walk:
            for layer in f_layers(rd, top):
                walked += layer
        assert str(by_walk.value) == str(by_graph.value)
        assert by_walk.value.partial is None
        assert all(len(x.__dict__["_record"]) == 6 for x in walked)
        assert len(top.__dict__.get("_record", ())) in (0, 6)


def test_walk_drops_the_row_table_when_left_early():
    # the layer a closed walk holds is trimmed, and with it the last
    # records that hold the table top's full pass started
    top = model_highest_weight(RD3, (1, 1, 1))
    walk = f_layers(RD3, top)
    next(walk)
    table = top.__dict__["_record"][6][2]
    layer = next(walk)
    assert all(x.__dict__["_record"][6][2] is table for x in layer)
    walk.close()
    assert all(len(x.__dict__["_record"]) == 6 for x in [top, *layer])


def test_walk_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="depth"):
        next(f_layers(RD2, model_highest_weight(RD2, (1, 0)), depth=-1))


def test_walk_makes_one_full_rank_pass_and_holds_two_layers(monkeypatch):
    # when a layer is yielded, no element of an earlier one but top is
    # alive, so expanding it into the next holds two layers at most
    passes = []
    original = quiver_model._rank_rows

    def counting(rd, x):
        passes.append(x)
        return original(rd, x)

    monkeypatch.setattr(quiver_model, "_rank_rows", counting)
    top = model_highest_weight(RD4, (1, 0, 1, 1))
    earlier = []
    sizes = []
    for layer in f_layers(RD4, top):
        assert [ref for ref in earlier if ref() is not None] == []
        earlier += [weakref.ref(x) for x in layer if x is not top]
        sizes.append(len(layer))
    assert len(sizes) > 4 and sum(sizes) == weyl_dim(RD4, RD4.weight((1, 0, 1, 1)))
    assert passes == [top]


def test_decompose_tensor_peak_memory_is_a_layer_not_a_graph():
    # the fold holds two layers of the walked factor, not a graph of it: on
    # D4 (1,1,1,1) x (1,1,1,1) the traced peak was 0.94 MB against 5.17 MB
    # for generating the factor (5.35 MB when decompose_tensor generated it)
    def peak(run):
        run()  # first-use caches
        gc.collect()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    walked = peak(lambda: decompose_tensor(RD4, [(1, 1, 1, 1), (1, 1, 1, 1)]))
    graphed = peak(lambda: generate_highest_weight_crystal(RD4, (1, 1, 1, 1)))
    assert walked < graphed / 4


def test_tensor_product_graph_guards_frontier():
    g = generate_highest_weight_crystal(RDA, (1, 0), depth=2)
    with pytest.raises(ValueError, match="frontier|completely"):
        tensor_product_graph(RDA, [g, g])
    truncated = tensor_product_graph(RDA, [g, g], depth=2)
    assert truncated.frontier_count()


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


def unit_weight(rd, k):
    """The fundamental weight Lambda_k."""
    return rd.weight([int(k == l) for l in rd.vertices()])


def zero_weight_multiplicity(rd, mult):
    """The multiplicity of the weight pairing to 0 with every coroot."""
    (m,) = [m for mu, m in mult.items() if not any(rd.pairing_vector(mu))]
    return m


@pytest.mark.parametrize("name, k, total, weights, zero", [
    ("E6", 2, 78, 72 + 1, 6),  # the adjoint representation
    ("E7", 7, 56, 56, None),  # minuscule: one orbit, every multiplicity 1
    ("E7", 1, 133, 126 + 1, 7),  # the adjoint representation
    ("E8", 8, 248, 240 + 1, 8),  # the adjoint representation
])
def test_exceptional_multiplicity_pins(name, k, total, weights, zero):
    rd = build_root_datum(name)
    mult = freudenthal_multiplicities(rd, unit_weight(rd, k))
    assert sum(mult.values()) == total == weyl_dim(rd, unit_weight(rd, k))
    assert len(mult) == weights
    if zero is None:
        assert set(mult.values()) == {1}
    else:
        assert zero_weight_multiplicity(rd, mult) == zero


def test_multiplicities_sum_to_weyl_dim():
    # a dominant weight missed by the search below lam would drop its whole
    # orbit from the sum.  E8's fundamental weights 3-6 are left out: their
    # representations have 186k to 3.2M distinct weights.
    d5 = build_root_datum("D5")
    cases = [(d5, d5.weight(lam)) for lam in itertools.product((0, 1), repeat=5)]
    for name, units in (("E6", range(1, 7)), ("E7", range(1, 8)), ("E8", (1, 2, 7, 8))):
        rd = build_root_datum(name)
        cases += [(rd, unit_weight(rd, k)) for k in units]
    for rd, lam in cases:
        assert sum(freudenthal_multiplicities(rd, lam).values()) == weyl_dim(rd, lam), lam


def test_multiplicity_edge_cases():
    rank0 = build_root_datum([])
    assert freudenthal_multiplicities(rank0, rank0.weight(())) == {Weight((), ()): 1}
    with pytest.raises(ValueError, match="dominant"):
        freudenthal_multiplicities(RD2, RD2.weight((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="finite"):
        freudenthal_multiplicities(RDA, RDA.weight((1, 0)))


@pytest.mark.parametrize("name, lam, root", [
    ("E6", (1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)),
    ("D4", (1, 0, 1, 1), (0, 0, 0, 0)),
    ("A3", (2, 0, 1), (1, 0, 0)),  # dominant, with a nonzero root part
])
def test_multiplicities_come_in_height_order(name, lam, root):
    rd = build_root_datum(name)
    mult = freudenthal_multiplicities(rd, rd.weight(lam, root))
    assert list(mult) == sorted(mult, key=lambda mu: (sum(mu.root_part), mu.root_part))
    assert next(iter(mult)) == rd.weight(lam, root)


def test_oracles_use_no_crystal_machinery(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle reached crystal machinery")

    monkeypatch.setattr(crystal_core, "stats_record", refuse)
    monkeypatch.setattr(explorer, "generate", refuse)
    for name, lam, dim in (("D4", (0, 1, 0, 0), 28), ("E6", (1, 0, 0, 0, 0, 1), 650)):
        rd = build_root_datum(name)
        assert positive_roots(rd)
        assert weyl_dim(rd, rd.weight(lam)) == dim
        assert sum(freudenthal_multiplicities(rd, rd.weight(lam)).values()) == dim


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
    (lowest,) = [x for x in full.nodes if not any(stats_record(x, rd)[3])]
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
    move, build = ModelElement._move, ModelElement._build

    def counting_move(self, rd, k, p, delta):
        deltas.append((k, p, delta))
        return move(self, rd, k, p, delta)

    def counting_build(self, rd):
        builds.append(self)
        return build(self, rd)

    monkeypatch.setattr(ModelElement, "_move", counting_move)
    monkeypatch.setattr(ModelElement, "_build", counting_build)
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
    for x, nd in g.nodes.items():
        assert nd.element is x
        record = x.__dict__["_record"]
        assert nd.element.weight(g.rd) is record[1]
        assert stats_record(nd.element, g.rd) is record
        assert not any(hasattr(nd, name) for name in ("weight", "eps", "phi"))


def test_graph_node_holds_exploration_state_only():
    # statistics live in the element's record and keys come from element.key()
    assert GraphNode.__slots__ == ("element", "depth", "frontier", "down", "up", "__weakref__")


def _full_pass_record(rd, x):
    """The record of a fresh element equal to model element x, which has no
    source to derive it from: the full rank pass, without its rows."""
    return ModelElement(x.wp, x.v)._build(rd)[:6]


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
    # equal factors of the graph's tensor nodes are one instance, and a
    # factor moved by e_k/f_k derives its record from the factor it replaced
    pair = TensorElement((model_highest_weight(RD3, (1, 0, 1)), model_highest_weight(RD3, (0, 1, 0))))
    g = generate(RD3, [pair])
    factors = {id(b): b for x in g.nodes for b in x.factors}
    assert len(set(factors.values())) == len(factors) == 15 + 6  # all of B(1,0,1) and B(0,1,0)
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
        for b in {x, *embed_psi(rd, x, window(x, margin=2)).factors}:
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


@pytest.mark.parametrize("preset, lam, calls", [
    ("D4", (1, 1, 1, 1), 280),
    ("E6", (1, 1, 0, 0, 0, 0), 269),
    ("A2", (2, 2), 47),
])
def test_generate_computes_row_statistics_once_per_row(monkeypatch, preset, lam, calls):
    # the seed's full pass computes one row's statistics per vertex; after
    # it, a derived record reads each touched row's move from the row table,
    # and only a row the generation has not met yet goes through _row_stats.
    # Recomputing every touched row made 10,254, 4,914 and 54 calls.  A walk
    # of the same crystal shares one table across its layers, so it makes
    # the same calls
    rd = build_root_datum(preset)
    made = []
    original = quiver_model._row_stats

    def counting(x, k, lo, row, total):
        made.append(row)
        return original(x, k, lo, row, total)

    monkeypatch.setattr(quiver_model, "_row_stats", counting)
    size = weyl_dim(rd, rd.weight(lam))
    for enumerate_all in (
        lambda: generate_highest_weight_crystal(rd, lam).node_count(),
        lambda: sum(map(len, f_layers(rd, model_highest_weight(rd, lam)))),
    ):
        made.clear()
        assert enumerate_all() == size
        assert len(made) == calls
        assert len(set(made[rd.n:])) == calls - rd.n  # no derived row twice


def _closed_family_component(rd, lam, mu):
    """The component of b_lam (x) b_mu that ``closed_family_instance`` explores."""
    return generate(rd, [TensorElement((model_highest_weight(rd, lam),
                                        model_highest_weight(rd, mu)))])


COMPONENTS = {
    "A3 (1,1,0)x(0,1,1) component": lambda: _closed_family_component(
        RD3, (1, 1, 0), (0, 1, 1)),
}


FINISHED = {**EXPLORED, **RECORDED, **COMPONENTS}


def _profiles(elements):
    """The W-profile instances of the model elements among elements and
    their tensor factors, one per instance."""
    return list({id(b.wp): b.wp for x in elements for b in flatten(x)
                 if isinstance(b, ModelElement)}.values())


# a W-profile's field and what it keeps for as long as it lives; derivation
# state is not among it, as it lives in the records
PROFILE_STATE = {"slots", "_hash", "_texts", "_parts"}


@pytest.mark.parametrize("build", FINISHED.values(), ids=FINISHED.keys())
def test_finished_graph_keeps_no_rows_or_links(build):
    # rank rows live only until a node is expanded, frontier nodes included,
    # and in the factors of tensor nodes until generation ends; the
    # generators are trimmed as nodes, whatever they held before
    g = build()
    for x in (*g.generators, *g.nodes):
        for part in (x, *flatten(x)):
            assert len(part.__dict__["_record"]) == 6
            assert "_link" not in part.__dict__


def test_partial_graph_keeps_no_rows(monkeypatch):
    # BudgetExceeded trims every node, the generators and the factors of
    # tensor nodes included, and leaves no derivation state on a profile
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "20")
    for build in (lambda: generate_highest_weight_crystal(RDA, (1, 0)), *COMPONENTS.values()):
        with pytest.raises(BudgetExceeded) as info:
            build()
        assert info.value.queued > 0
        partial = info.value.partial
        for x in (*partial.generators, *partial.nodes):
            for part in (x, *flatten(x)):
                assert len(part.__dict__["_record"]) == 6
        profiles = _profiles([*partial.generators, *partial.nodes])
        assert profiles
        assert all(wp.__dict__.keys() <= PROFILE_STATE for wp in profiles)


def test_partial_tensor_graph_shares_factors_without_rows(monkeypatch):
    # a budget overrun trims each shared factor of the partial graph, the
    # factors of its queued nodes included, and equal factors stay one instance
    monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "40")
    with pytest.raises(BudgetExceeded) as info:
        _closed_family_component(RD3, (1, 1, 0), (0, 1, 1))
    partial = info.value.partial
    assert info.value.queued > 0
    factors = {id(b): b for x in partial.nodes for b in x.factors}
    assert len(set(factors.values())) == len(factors) < 2 * partial.node_count()
    for b in factors.values():
        assert len(b.__dict__["_record"]) == 6 and "_link" not in b.__dict__


@pytest.mark.parametrize("build", FINISHED.values(), ids=FINISHED.keys())
def test_finished_graph_keeps_no_row_table(build):
    # no profile of a finished graph, a generator's included, keeps a row
    # table or any other derivation state
    g = build()
    profiles = _profiles([*g.generators, *g.nodes])
    assert profiles
    assert all(wp.__dict__.keys() <= PROFILE_STATE for wp in profiles)


def test_generate_drops_a_seed_table_made_before_it(monkeypatch):
    # a table started by operators applied outside any generation travels
    # into the generation in the seed's record, and the generation the
    # elements seed trims it, finished or over budget
    rd = RD2
    for budget in (1000, 3):
        monkeypatch.setenv("CRYSTAL_NODE_BUDGET", str(budget))
        seed = model_highest_weight(rd, (2, 1)).f(rd, 1)
        seed.weight(rd)
        pair = TensorElement((seed, model_highest_weight(rd, (1, 0))))
        lo, rows, (entries, moves) = seed.__dict__["_record"][6]
        assert moves  # the move that made seed
        if budget == 3:  # fewer than the seed's component holds
            with pytest.raises(BudgetExceeded):
                generate(rd, [pair])
        else:
            generate(rd, [pair])
        assert all(len(part.__dict__["_record"]) == 6 for part in flatten(pair))


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
    # a finished D4 (1,1,1,1) graph holds 4,997,900 traced bytes on CPython
    # 3.11.7, about 1.2 KB per node: derived records drop their rank rows
    # once the node is expanded, and a GraphNode has slots, not a __dict__
    # (5,128,972 bytes with one), and only its exploration state; allow 2% over
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
    assert held <= 4_997_900 * 1.02


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
