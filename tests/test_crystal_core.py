import json
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from kmcrystals import (
    NEG_INF,
    BkElement,
    CrystalElement,
    S0Element,
    TElement,
    TensorElement,
    build_root_datum,
    check_axioms,
    check_normal,
    check_strict_morphism,
    generate,
    generate_highest_weight_crystal,
    graph_to_dot,
    graph_to_json,
    model_element,
    model_highest_weight,
    tensor_product_graph,
    wprofile,
)
from kmcrystals import quiver_model
from kmcrystals.crystal_core import _sort_for_export, ext_max, is_neg_inf
from kmcrystals.root_datum import Weight


def test_neg_inf_ordering():
    assert NEG_INF < 0 and NEG_INF < -10**9
    assert not (NEG_INF < NEG_INF)
    assert NEG_INF <= NEG_INF and NEG_INF >= NEG_INF
    assert 0 > NEG_INF and 0 >= NEG_INF
    assert NEG_INF + 5 is NEG_INF and 5 + NEG_INF is NEG_INF
    assert NEG_INF - 3 is NEG_INF
    assert is_neg_inf(NEG_INF) and not is_neg_inf(-10)


def test_ext_max():
    assert ext_max([NEG_INF, 2, 1]) == 2
    assert ext_max([NEG_INF, NEG_INF]) is NEG_INF
    assert ext_max([]) is NEG_INF
    assert ext_max([-5, NEG_INF]) == -5


def test_t_lambda_graph_passes_axioms():
    rd = build_root_datum("A2")
    g = generate(rd, [TElement(Weight((2, 1), (0, 0)))])
    assert g.node_count() == 1 and not g.has_frontier()
    assert check_axioms(g).violations == []


def test_bk_window_axioms_pass_normal_fails():
    rd = build_root_datum("A1")
    g = generate(rd, [BkElement(1, 0)], depth=3)
    assert g.node_count() == 7  # n in [-3, 3]
    assert check_axioms(g).violations == []
    report = check_normal(g)
    assert report.violations  # eps or phi negative away from n = 0
    assert report.skipped >= 1  # the n = 0 string exits the window


def test_forged_edge_detected():
    rd = build_root_datum("A2")
    g = generate_highest_weight_crystal(rd, (1, 0))
    assert check_axioms(g).violations == []
    (hw,) = [x for x, nd in g.nodes.items() if nd.depth == 0]
    (src, color, dst) = min(g.edges, key=lambda e: (e[0].key(), e[1], e[2].key()))
    forged = (hw, color, dst) if (hw, color, dst) not in g.edges else (dst, color, hw)
    g.nodes[src].down[color - 1] = g.nodes[dst].up[color - 1] = None
    (a, k, b) = forged
    g.nodes[a].down[k - 1] = g.nodes[b]
    g.nodes[b].up[k - 1] = a
    violations = check_axioms(g).violations
    assert violations
    assert all("(d)" in v or "edge" in v for v in violations)


@pytest.mark.parametrize("kept", ["down", "up"])
def test_edge_recorded_on_one_side_detected(kept):
    g = generate_highest_weight_crystal(build_root_datum("A2"), (1, 0))
    (src, k, dst) = min(g.edges, key=lambda e: (e[0].key(), e[1], e[2].key()))
    if kept == "down":
        g.nodes[dst].up[k - 1] = None
        expected = f"(d) edge ({src.key()},{k},{dst.key()}) has no e_{k} entry"
    else:
        g.nodes[src].down[k - 1] = None
        expected = f"(d) e_{k} entry at {dst.key()} has no f_{k}-edge"
    assert check_axioms(g).violations == [expected]


def test_axioms_truncated_affine_skips():
    rd = build_root_datum("affineA1")
    g = generate_highest_weight_crystal(rd, (1, 0), depth=4)
    report = check_axioms(g)
    assert report.ok()
    assert report.skipped > 0 and report.skipped == rd.n * g.frontier_count()
    assert report.checked + report.skipped == rd.n * g.node_count()


@pytest.mark.parametrize("name, lam, depth", [("A3", (1, 1, 1), None), ("affineA1", (1, 0), 4)])
def test_axioms_read_image_statistics_from_the_graph(monkeypatch, name, lam, depth):
    # every operator image of a non-frontier node is a node, whose record is built
    rd = build_root_datum(name)
    g = generate_highest_weight_crystal(rd, lam, depth=depth)
    calls = []
    original = quiver_model._stats

    def counting(rd, x):
        calls.append(x)
        return original(rd, x)

    monkeypatch.setattr(quiver_model, "_stats", counting)
    report = check_axioms(g)
    assert report.ok() and report.checked > 0
    assert calls == []


def test_normal_on_sl2():
    rd = build_root_datum("A1")
    g = generate_highest_weight_crystal(rd, (1,))
    report = check_normal(g)
    assert report.ok() and report.skipped == 0 and report.checked == 2


def test_normal_truncated_affine_skips():
    rd = build_root_datum("affineA1")
    g = generate_highest_weight_crystal(rd, (1, 0), depth=6)
    assert g.has_frontier()
    report = check_normal(g)
    assert report.ok()
    assert report.skipped > 0


def test_identity_is_strict_morphism():
    rd = build_root_datum("A2")
    g = generate_highest_weight_crystal(rd, (1, 0))
    mapping = {x: x for x in g.nodes}
    report = check_strict_morphism(g, g, mapping)
    assert report.ok()


def test_hw_to_lower_map_fails():
    rd = build_root_datum("A2")
    g = generate_highest_weight_crystal(rd, (1, 0))
    xs = sorted(g.nodes, key=lambda x: g.nodes[x].depth)
    mapping = {xs[0]: xs[-1], xs[1]: xs[1], xs[2]: xs[0]}
    report = check_strict_morphism(g, g, mapping)
    assert any("eps" in v or "wt" in v for v in report.violations)


def test_morphism_requires_total_map():
    rd = build_root_datum("A1")
    g = generate_highest_weight_crystal(rd, (1,))
    with pytest.raises(ValueError, match="undefined"):
        check_strict_morphism(g, g, {})


def test_non_injective_detected():
    rd = build_root_datum("A1")
    g = generate_highest_weight_crystal(rd, (1,))
    a, b = g.nodes
    report = check_strict_morphism(g, g, {a: a, b: a})
    assert any("injective" in v for v in report.violations)


def test_json_schema_and_determinism():
    rd = build_root_datum("A2")
    g1 = generate_highest_weight_crystal(rd, (1, 0))
    g2 = generate_highest_weight_crystal(rd, (1, 0))
    d1, d2 = json.loads(graph_to_json(g1)), json.loads(graph_to_json(g2))
    assert d1 == d2
    assert json.dumps(d1) == json.dumps(d2)
    assert {"nodes", "edges", "generators", "depth"} <= set(d1)
    node = d1["nodes"][0]
    assert {"id", "kind", "wt", "eps", "phi", "frontier"} <= set(node)
    assert all(e["k"] in (1, 2) for e in d1["edges"])


def test_json_neg_inf_encoding():
    rd = build_root_datum("A1")
    g = generate(rd, [BkElement(1, 0)], depth=1)
    data = json.loads(graph_to_json(g))
    assert any("-inf" in nd["eps"] or "-inf" in nd["phi"] for nd in data["nodes"]) is False
    rd2 = build_root_datum("A2")
    g2 = generate(rd2, [BkElement(1, 0)], depth=1)
    data2 = json.loads(graph_to_json(g2))
    assert any("-inf" in nd["eps"] for nd in data2["nodes"])


def _reference_json(g):
    """The graph's JSON as a dict, built field by field: the oracle for the
    text ``graph_to_json`` writes directly."""
    nodes = sorted(g.nodes.values(), key=lambda nd: nd.element.key())
    stat = lambda x: "-inf" if is_neg_inf(x) else x  # noqa: E731
    return {
        "nodes": [
            {
                "id": nd.element.key(),
                "kind": nd.element.tag,
                "wt": nd.weight.serialize(),
                "eps": [stat(x) for x in nd.eps],
                "phi": [stat(x) for x in nd.phi],
                "frontier": nd.frontier,
            }
            for nd in nodes
        ],
        "edges": [
            {"src": a, "k": k, "dst": b}
            for (a, k, b) in sorted((a.key(), k, b.key()) for (a, k, b) in g.edges)
        ],
        "generators": sorted(x.key() for x in g.generators),
        "depth": g.depth_bound,
    }


def _oracle_graphs():
    rd2 = build_root_datum("A2")
    factors = [generate_highest_weight_crystal(rd2, w) for w in ((1, 1), (1, 0))]
    return {
        "A2 (1,1)": generate_highest_weight_crystal(rd2, (1, 1)),
        "D4 (1,0,1,0)": generate_highest_weight_crystal(build_root_datum("D4"), (1, 0, 1, 0)),
        "tensor A2 (1,1) x (1,0)": tensor_product_graph(rd2, factors),
        "Bk A2 depth 2": generate(rd2, [BkElement(1, 0)], depth=2),
        "affineA1 (1,0) depth 3": generate_highest_weight_crystal(
            build_root_datum("affineA1"), (1, 0), depth=3),
        "one node": generate_highest_weight_crystal(rd2, (0, 0)),
        "no nodes": generate(rd2, []),
    }


@pytest.mark.parametrize("name", list(_oracle_graphs()))
def test_json_text_is_indented_json_dumps(name):
    g = _oracle_graphs()[name]
    assert graph_to_json(g) == json.dumps(_reference_json(g), indent=2) + "\n"


def test_json_oracle_graphs_cover_the_schema():
    graphs = _oracle_graphs()
    assert len(graphs["tensor A2 (1,1) x (1,0)"].generators) > 1
    assert all(x.tag == "Tensor" for x in graphs["tensor A2 (1,1) x (1,0)"].nodes)
    assert any(is_neg_inf(v) for nd in graphs["Bk A2 depth 2"].nodes.values() for v in nd.eps)
    affine = graphs["affineA1 (1,0) depth 3"]
    assert affine.has_frontier() and affine.depth_bound == 3
    assert graphs["one node"].node_count() == 1 and not graphs["one node"].edges
    assert graphs["no nodes"].node_count() == 0


def test_dot_output_stable_and_marked():
    rd = build_root_datum("affineA1")
    g = generate_highest_weight_crystal(rd, (1, 0), depth=3)
    dot = graph_to_dot(g)
    assert dot == graph_to_dot(g)
    assert "style=dashed" in dot  # frontier nodes
    assert 'label="1"' in dot and "digraph crystal" in dot


def test_element_key_round_trip():
    rd = build_root_datum("A2")
    g = generate_highest_weight_crystal(rd, (1, 1))
    ids = [node["id"] for node in json.loads(graph_to_json(g))["nodes"]]
    assert ids == sorted(x.key() for x in g.nodes)
    for x in g.nodes:
        assert json.loads(g.nodes[x].key()) == x.serialize()


def _dump(x) -> str:
    """The key oracle: the compact JSON of ``serialize()``."""
    return json.dumps(x.serialize(), separators=(",", ":"))


_ints = st.integers(-15, 15)  # slots and coordinates, signs and two digits both drawn


@st.composite
def _model_elements(draw):
    n = draw(st.integers(1, 12))  # vertices >= 10 are drawn too
    slots = draw(st.dictionaries(_ints, st.lists(st.integers(0, 12), min_size=n, max_size=n),
                                 max_size=3))
    v = draw(st.dictionaries(st.tuples(st.integers(1, n), _ints), st.integers(0, 25),
                             max_size=6))
    return model_element(wprofile(slots), v)


_leaves = st.one_of(
    _model_elements(),
    st.builds(BkElement, st.integers(1, 12), _ints),
    st.integers(1, 3).flatmap(lambda n: st.builds(
        Weight, *[st.lists(_ints, min_size=n, max_size=n).map(tuple)] * 2)).map(TElement),
    st.just(S0Element()),
)
_elements = st.recursive(
    _leaves, lambda inner: st.lists(inner, min_size=1, max_size=4).map(
        lambda factors: TensorElement(tuple(factors))), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_elements)
@example(model_element(wprofile({})))
@example(model_element(wprofile({-3: (0, 10), 0: (1, 0), 12: (2, 2)}), {(1, -1): 12, (2, 0): 1}))
@example(TensorElement((model_element(wprofile({0: (1,)}), {(1, 1): 1}),)))
@example(TensorElement((TensorElement((S0Element(), BkElement(1, -2))), S0Element())))
def test_key_is_compact_json_of_serialize(x):
    assert x.key() == _dump(x)


@pytest.mark.parametrize("graph", ["model_A3_111", "tensor_A2_10_01"])
def test_export_order_is_the_order_of_json_dumps(graph):
    if graph == "model_A3_111":
        g = generate_highest_weight_crystal(build_root_datum("A3"), (1, 1, 1))
    else:
        rd = build_root_datum("A2")
        g = tensor_product_graph(rd, [generate_highest_weight_crystal(rd, w)
                                      for w in ((1, 0), (0, 1))])
    nodes, _, _ = _sort_for_export(g)
    assert [nd.element for nd in nodes] == sorted(g.nodes, key=_dump)


@dataclass(frozen=True)
class BrokenString(CrystalElement):
    """The A1 string 0 -> 1 -> 2 of B(2), except that e_1 of the middle
    element is ``middle_e`` (None or 2) instead of 0."""

    tag = "BrokenString"
    i: int
    middle_e: int | None

    def _build(self, rd):
        # weight, eps and phi; the sites are unread, since e and f are its own
        return rd, Weight((2,), (self.i,)), (self.i,), (2 - self.i,), (0,), (0,)

    def e(self, rd, k):
        up = self.middle_e if self.i == 1 else self.i - 1
        return None if up is None or up < 0 else BrokenString(up, self.middle_e)

    def f(self, rd, k):
        return BrokenString(self.i + 1, self.middle_e) if self.i < 2 else None

    def serialize(self):
        return {"BrokenString": {"i": self.i}}


@pytest.mark.parametrize("middle_e", [None, 2])
def test_axioms_catch_e_not_inverse_of_f(middle_e):
    # generate never asks e_1 of the middle element, since f_1 reached it
    # first; check_axioms asks every operator in both directions
    g = generate(build_root_datum("A1"), [BrokenString(0, middle_e)])
    assert g.node_count() == 3 and len(g.edges) == 2
    violations = check_axioms(g).violations
    assert any("e_1 f_1 b != b" in v for v in violations)
    assert any("not e_1-inverted" in v for v in violations)


def test_kind_is_the_serialize_tag():
    rd = build_root_datum("A1")
    elements = [
        BkElement(1, 0),
        TElement(Weight((1,), (0,))),
        S0Element(),
        model_highest_weight(rd, (1,)),
        TensorElement((S0Element(), BkElement(1, 0))),
    ]
    for x in elements:
        (tag,) = x.serialize()
        assert x.tag == tag
    assert len({x.tag for x in elements}) == 5
