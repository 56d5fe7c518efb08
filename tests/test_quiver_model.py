"""Profile-model tests.  The expected values below were computed from the
rank formula by hand (rank tables for one- and two-vertex data) and every
operator fact is cross-checked against the capped tensor realization, which
is the model's independent oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from kmcrystals import (
    BkElement,
    S0Element,
    TElement,
    build_root_datum,
    embed_psi,
    embedding_mismatches,
    eps_bar,
    generate,
    generate_highest_weight_crystal,
    highest_weight_elements,
    model_element,
    model_highest_weight,
    phi_bar,
    rank_complex,
    tensor,
    wprofile,
)
from kmcrystals.quiver_model import window
from kmcrystals.root_datum import Weight

RD1 = build_root_datum("A1")
RD2 = build_root_datum("A2")
RDA = build_root_datum("affineA1")


def test_rank_table_empty_profile():
    x = model_highest_weight(RD1, (1,))
    assert rank_complex(RD1, x, 1, 1) == 1
    for p in (-2, -1, 0, 2, 3):
        assert rank_complex(RD1, x, 1, p) == 0


def test_rank_table_lowered_profile():
    x = model_element(wprofile({0: (1,)}), {(1, 1): 1})
    assert rank_complex(RD1, x, 1, 1) == 0
    assert rank_complex(RD1, x, 1, 2) == -1
    assert rank_complex(RD1, x, 1, 0) == 0


def test_eps_phi_bar_tables_and_limits():
    x = model_highest_weight(RD1, (1,))
    for p in range(1, 5):
        assert eps_bar(RD1, x, 1, p) == 0
        assert phi_bar(RD1, x, 1, p) == 1
    for p in range(-4, 1):
        assert eps_bar(RD1, x, 1, p) == -1  # -<h_1, wt>
        assert phi_bar(RD1, x, 1, p) == 0
    wt = x.weight(RD1)
    assert eps_bar(RD1, x, 1, -10) == -RD1.pairing(1, wt)
    assert phi_bar(RD1, x, 1, 10) == RD1.pairing(1, wt)


def test_eps_bar_max_of_lowered_element():
    x = model_element(wprofile({0: (1,)}), {(1, 1): 1})
    values = {p: eps_bar(RD1, x, 1, p) for p in range(-3, 4)}
    assert all(values[p] == 1 for p in range(-3, 2))
    assert values[2] == 0 and values[3] == 0


def test_model_statistics():
    hw = model_highest_weight(RD1, (1,))
    assert (hw.eps(RD1, 1), hw.phi(RD1, 1)) == (0, 1)
    low = model_element(wprofile({0: (1,)}), {(1, 1): 1})
    assert (low.eps(RD1, 1), low.phi(RD1, 1)) == (1, 0)
    hw2 = model_highest_weight(RD2, (1, 0))
    assert hw2.eps_vector(RD2) == (0, 0)
    assert hw2.phi_vector(RD2) == (1, 0)


def test_model_operators_sl2():
    hw = model_highest_weight(RD1, (1,))
    low = hw.f(RD1, 1)
    assert low == model_element(wprofile({0: (1,)}), {(1, 1): 1})
    assert low.f(RD1, 1) is None
    assert low.e(RD1, 1) == hw
    assert hw.e(RD1, 1) is None


def test_model_operators_a2_bottom_element():
    """The lowering chain f_2 f_1 from the source of B(Lambda_1).

    The second lowering lands on slot 2, not slot 1: the capped tensor
    oracle (and a direct stability argument) both place the new unit one
    slot above the first one.
    """
    hw = model_highest_weight(RD2, (1, 0))
    x = hw.f(RD2, 1)
    assert x == model_element(wprofile({0: (1, 0)}), {(1, 1): 1})
    y = x.f(RD2, 2)
    assert y == model_element(wprofile({0: (1, 0)}), {(1, 1): 1, (2, 2): 1})
    # the oracle agrees on every statistic and operator at all three elements
    for element in (hw, x, y):
        assert embedding_mismatches(RD2, element) == []
    assert y.f(RD2, 1) is None and y.f(RD2, 2) is None


def test_weight_bookkeeping():
    y = model_element(wprofile({0: (1, 0)}), {(1, 1): 1, (2, 2): 1})
    assert y.weight(RD2) == Weight((1, 0), (1, 1))
    assert RD2.pairing_vector(y.weight(RD2)) == (0, -1)


def test_embed_psi_expansion():
    x = model_highest_weight(RD1, (1,))
    emb = embed_psi(RD1, x, (-1, 2))
    lam = Weight((1,), (0,))
    zero = RD1.zero_weight()
    expected = (
        S0Element(),
        TElement(zero), BkElement(1, 0),   # slot 2
        TElement(zero), BkElement(1, 0),   # slot 1
        TElement(lam), BkElement(1, 0),    # slot 0
        TElement(zero), BkElement(1, 0),   # slot -1
        S0Element(),
    )
    assert emb.factors == expected


def test_embed_psi_window_too_small():
    x = model_element(wprofile({0: (1,)}), {(1, 1): 1})
    with pytest.raises(ValueError, match="slot 1"):
        embed_psi(RD1, x, (-1, 1))
    with pytest.raises(ValueError, match="slot 0"):
        embed_psi(RD1, x, (0, 4))


def test_embed_preserves_weight():
    g = generate_highest_weight_crystal(RD2, (1, 1))
    for key in g.sorted_keys():
        x = g.nodes[key].element
        emb = embed_psi(RD2, x, window(RD2, x, margin=2))
        assert emb.weight(RD2) == x.weight(RD2)


def test_strict_embedding_on_adjoint_crystal():
    g = generate_highest_weight_crystal(RD2, (1, 1))
    assert g.node_count() == 8
    for key in g.sorted_keys():
        assert embedding_mismatches(RD2, g.nodes[key].element) == []


def test_unique_source_element():
    g = generate_highest_weight_crystal(RD2, (2, 1))
    assert len(highest_weight_elements(g)) == 1
    assert highest_weight_elements(g) == [model_highest_weight(RD2, (2, 1)).key()]


def test_multi_slot_component_matches_tensor():
    from kmcrystals import closed_family_instance, is_isomorphic
    from kmcrystals.tensor import TensorElement

    # W split over slots 0 and 3; only the component of v = 0 is generated
    start = model_element(wprofile({0: (0, 1), 3: (1, 0)}))
    component = generate(RD2, [start])
    # tensor of the single-slot models, higher slot on the left
    pair = TensorElement(
        (model_highest_weight(RD2, (1, 0)), model_highest_weight(RD2, (0, 1)))
    )
    tensor_component = generate(RD2, [pair])
    iso, witness, reason = is_isomorphic(component, tensor_component)
    assert iso, reason
    # and by closedness both agree with B of the summed weight
    target = generate_highest_weight_crystal(RD2, (1, 1))
    iso2, _, reason2 = is_isomorphic(component, target)
    assert iso2, reason2


def test_multi_slot_strictness():
    start = model_element(wprofile({0: (0, 1), 3: (1, 0)}))
    g = generate(RD2, [start])
    for key in g.sorted_keys():
        assert embedding_mismatches(RD2, g.nodes[key].element) == []


def test_embedding_is_strict_morphism_of_graphs():
    """Generate B(2L) and the capped tensor crystal from its embedded source;
    the slotwise embedding of nodes must validate as an injective strict
    morphism between the two explored graphs."""
    from kmcrystals import check_strict_morphism

    hw = model_highest_weight(RD1, (2,))
    win = window(RD1, hw, margin=4)  # roomy enough for the whole string
    g_model = generate(RD1, [hw])
    g_tensor = generate(RD1, [embed_psi(RD1, hw, win)])
    assert g_model.node_count() == g_tensor.node_count() == 3
    mapping = {
        key: embed_psi(RD1, g_model.nodes[key].element, win).key()
        for key in g_model.nodes
    }
    report = check_strict_morphism(g_model, g_tensor, mapping, require_injective=True)
    assert report.ok() and report.checked == 3


def test_affine_strictness_at_depth():
    g = generate_highest_weight_crystal(RDA, (1, 0), depth=5)
    assert g.node_count() > 5
    for key in g.sorted_keys():
        assert embedding_mismatches(RDA, g.nodes[key].element) == []


@settings(max_examples=80, deadline=None)
@given(
    entries=st.dictionaries(
        keys=st.tuples(st.integers(1, 2), st.integers(-2, 3)),
        values=st.integers(0, 3),
        max_size=6,
    ),
    w0=st.lists(st.integers(0, 2), min_size=2, max_size=2),
    wslot=st.integers(-1, 2),
)
def test_telescoping_identity_property(entries, w0, wslot):
    """sum_p rank(k, p) = <h_k, wt> for arbitrary profiles, valid or not,
    and rank(k, p) is the module docstring's formula at every slot."""
    for rd in (RD2, RDA):
        x = model_element(wprofile({wslot: w0}), entries)
        v, w = dict(x.v), dict(x.wp.slots)
        wt = x.weight(rd)
        lo, hi = window(rd, x, margin=2)
        for k in rd.vertices():
            ranks = {p: rank_complex(rd, x, k, p) for p in range(lo, hi + 1)}
            assert sum(ranks.values()) == rd.pairing(k, wt)
            for p, rank in ranks.items():
                expected = w.get(p - 1, (0,) * rd.n)[k - 1] - v.get((k, p), 0) - v.get((k, p - 1), 0)
                for l in rd.vertices():
                    if l != k:
                        expected += rd.edge_mult[k - 1][l - 1] * v.get((l, p - 1 if l < k else p), 0)
                assert rank == expected, (k, p)


def test_serialization_format():
    x = model_element(wprofile({0: (1, 0)}), {(1, 1): 1, (2, 1): 1})
    assert x.serialize() == {"Model": {"w": {"0": [1, 0]}, "v": {"1,1": 1, "2,1": 1}}}
    assert model_highest_weight(RD2, (0, 0)).serialize() == {"Model": {"w": {}, "v": {}}}


def test_profile_validation():
    with pytest.raises(ValueError, match="negative"):
        wprofile({0: (-1, 0)})
    with pytest.raises(ValueError, match="dominant"):
        model_highest_weight(RD2, (-1, 0))
    with pytest.raises(ValueError, match="length"):
        model_highest_weight(RD2, (1,))


def test_zero_weight_crystal():
    hw = model_highest_weight(RD2, (0, 0))
    assert hw.eps_vector(RD2) == (0, 0)
    assert hw.phi_vector(RD2) == (0, 0)
    assert hw.f(RD2, 1) is None and hw.e(RD2, 2) is None
    g = generate(RD2, [hw])
    assert g.node_count() == 1


@pytest.mark.parametrize("kind", ["model", "tensor"])
@pytest.mark.parametrize("op", ["eps", "phi", "e", "f"])
@pytest.mark.parametrize("k", [0, 3])
def test_vertex_out_of_range(kind, op, k):
    b = model_highest_weight(RD2, (0, 1))
    if kind == "tensor":
        b = tensor(b, model_highest_weight(RD2, (1, 0)))
    b.f(RD2, 2)  # the statistics of b are now memoised
    with pytest.raises(ValueError, match="out of range"):
        getattr(b, op)(RD2, k)
