"""The tensor rule against its independent two-factor oracle, plus the
structural properties: associativity under re-bracketing, normality
preservation, and the lowering-power split rule on eps = 0 elements."""

import random

from hypothesis import given, settings, strategies as st

from kmcrystals import (
    NEG_INF,
    BkElement,
    S0Element,
    TElement,
    TensorElement,
    build_root_datum,
    check_normal,
    flatten,
    generate,
    generate_highest_weight_crystal,
    model_highest_weight,
    tensor_product_graph,
)
from kmcrystals.crystal_core import is_neg_inf, stats_record
from kmcrystals.tensor import binary_e, binary_eps, binary_f, binary_phi

RD1 = build_root_datum("A1")
RD2 = build_root_datum("A2")


def sl2_hw():
    return model_highest_weight(RD1, (1,))


def sl2_low():
    return sl2_hw().f(RD1, 1)


def test_phi_profile_of_hw_pair():
    x = TensorElement((sl2_hw(), sl2_hw()))
    assert x.phi_profile(RD1, 1) == [2, 1]
    assert x.eps_profile(RD1, 1) == [0, -1]
    assert x.eps(RD1, 1) == 0 and x.phi(RD1, 1) == 2


def test_t_factor_gives_neg_inf_entries():
    x = TensorElement((TElement(RD1.weight((3,))), sl2_hw()))
    profile = x.eps_profile(RD1, 1)
    assert profile[0] is NEG_INF
    assert profile[1] == -3  # eps(hw) shifted by wt_1 of the T factor
    assert x.phi_profile(RD1, 1)[0] is NEG_INF


def test_single_factor_profiles():
    x = TensorElement((sl2_low(),))
    assert x.eps_profile(RD1, 1) == [1]
    assert x.phi_profile(RD1, 1) == [0]
    assert x.eps(RD1, 1) == sl2_low().eps(RD1, 1)


def test_two_factor_max_arithmetic():
    # eps(b1) = 0, eps(b2) = 1, wt_1(b1) = 1: max(0, 1 - 1) = 0
    x = TensorElement((sl2_hw(), sl2_low()))
    assert x.eps(RD1, 1) == 0
    # phi(b2) = 0, phi(b1) = 1, wt_1(b2) = -1: max(0, 1 - 1) = 0
    assert x.phi(RD1, 1) == 0


def test_f_prefers_left_factor():
    x = TensorElement((sl2_hw(), sl2_hw()))
    moved = x.f(RD1, 1)
    assert moved.factors[0] == sl2_low()
    assert moved.factors[1] == sl2_hw()


def test_ops_on_frozen_pair_give_none():
    x = TensorElement((TElement(RD1.weight((1,))), S0Element()))
    assert x.f(RD1, 1) is None
    assert x.e(RD1, 1) is None


def test_sl2_hw_pair_matches_clebsch_gordan():
    g = generate(RD1, [TensorElement((sl2_hw(), sl2_hw()))])
    # only the 3-dimensional component is reachable from the hw pair
    assert g.node_count() == 3
    full = tensor_product_graph(RD1, [generate(RD1, [sl2_hw()])] * 2)
    assert full.node_count() == 4


def _walk_elements(rd, start, count, rng):
    """Sample tensor elements by a random e/f walk with restarts."""
    out = []
    current = start
    while len(out) < count:
        k = rng.choice(list(rd.vertices()))
        op = rng.choice(("e", "f"))
        nxt = getattr(current, op)(rd, k)
        if nxt is None:
            current = start
            continue
        current = nxt
        out.append(current)
    return out


def test_binary_rule_matches_nfold_on_200_random_elements():
    rng = random.Random(0)
    start = TensorElement((model_highest_weight(RD2, (1, 0)), model_highest_weight(RD2, (0, 1))))
    for x in _walk_elements(RD2, start, 200, rng):
        # and for each a t_wt (x) b_l(n), whose statistics are -inf at the other vertex
        pad = TensorElement((TElement(x.weight(RD2)),
                             BkElement(rng.choice((1, 2)), rng.randint(-2, 2))))
        for y in (x, pad):
            _, _, eps, phi, e_sites, f_sites = stats_record(y, RD2)
            for k in RD2.vertices():
                assert binary_eps(RD2, y, k) == y.eps(RD2, k)
                assert binary_phi(RD2, y, k) == y.phi(RD2, k)
                assert binary_e(RD2, y, k) == y.e(RD2, k)
                assert binary_f(RD2, y, k) == y.f(RD2, k)
                # the site rule: None exactly where the statistic is -inf,
                # and a None site gives None
                assert (e_sites[k - 1] is None) == is_neg_inf(eps[k - 1])
                assert (f_sites[k - 1] is None) == is_neg_inf(phi[k - 1])
                assert e_sites[k - 1] is not None or y.e(RD2, k) is None
                assert f_sites[k - 1] is not None or y.f(RD2, k) is None


def _assert_bracketings_agree(rd, flat):
    """flat = (a, b, c); compare against ((a x b) x c) and (a x (b x c))."""
    x = TensorElement(flat)
    left = TensorElement((TensorElement((flat[0], flat[1])), flat[2]))
    right = TensorElement((flat[0], TensorElement((flat[1], flat[2]))))
    for k in rd.vertices():
        for nested in (left, right):
            assert nested.eps(rd, k) == x.eps(rd, k)
            assert nested.phi(rd, k) == x.phi(rd, k)
            for op in ("e", "f"):
                a = getattr(x, op)(rd, k)
                b = getattr(nested, op)(rd, k)
                if a is None:
                    assert b is None
                else:
                    assert b is not None and flatten(b) == a.factors


def test_associativity_on_triple_product():
    graphs = [generate_highest_weight_crystal(RD2, w) for w in ((1, 0), (0, 1), (1, 0))]
    pools = [list(g.nodes) for g in graphs]
    for a in pools[0]:
        for b in pools[1]:
            for c in pools[2]:
                _assert_bracketings_agree(RD2, (a, b, c))


def test_nfold_matches_iterated_binary():
    graphs = [generate_highest_weight_crystal(RD1, (w,)) for w in (2, 1, 1)]
    pools = [list(g.nodes) for g in graphs]
    for a in pools[0]:
        for b in pools[1]:
            for c in pools[2]:
                flat = TensorElement((a, b, c))
                nested = TensorElement((TensorElement((a, b)), c))
                for k in RD1.vertices():
                    moved = binary_f(RD1, nested, k)
                    expected = flat.f(RD1, k)
                    if expected is None:
                        assert moved is None
                    else:
                        assert moved is not None and flatten(moved) == expected.factors
                    raised = binary_e(RD1, nested, k)
                    expected_e = flat.e(RD1, k)
                    if expected_e is None:
                        assert raised is None
                    else:
                        assert raised is not None and flatten(raised) == expected_e.factors


def test_normality_preserved_by_tensor():
    g1 = generate_highest_weight_crystal(RD2, (1, 0))
    g2 = generate_highest_weight_crystal(RD2, (0, 1))
    product = tensor_product_graph(RD2, [g1, g2])
    report = check_normal(product)
    assert report.ok() and report.skipped == 0


def test_lowering_power_split_rule():
    """On every two-factor element with eps_k = 0, the r-th lowering acts on
    the left factor while r <= wt_k(b1) - eps_k(b2) and then switches to the
    right factor with the excess."""
    g1 = generate_highest_weight_crystal(RD2, (2, 0))
    g2 = generate_highest_weight_crystal(RD2, (1, 1))
    product = tensor_product_graph(RD2, [g1, g2])
    checked = 0
    for x in product.nodes:
        b1, b2 = x.factors
        for k in RD2.vertices():
            if x.eps(RD2, k) != 0:
                continue
            threshold = RD2.pairing(k, b1.weight(RD2)) - b2.eps(RD2, k)
            assert threshold >= 0
            phi = x.phi(RD2, k)
            current = x
            for r in range(1, phi + 1):
                current = current.f(RD2, k)
                assert current is not None
                if r <= threshold:
                    expected_left = b1
                    for _ in range(r):
                        expected_left = expected_left.f(RD2, k)
                    assert current.factors == (expected_left, b2)
                else:
                    expected_left = b1
                    for _ in range(threshold):
                        expected_left = expected_left.f(RD2, k)
                    expected_right = b2
                    for _ in range(r - threshold):
                        expected_right = expected_right.f(RD2, k)
                    assert current.factors == (expected_left, expected_right)
            checked += 1
    assert checked > 10


# every element of B(1,0), B(0,1) and B(1,1) on A2
A2_MODEL_POOL = [
    x
    for g in (generate_highest_weight_crystal(RD2, lam) for lam in ((1, 0), (0, 1), (1, 1)))
    for x in g.nodes
]
A2_FACTOR = st.one_of(
    st.builds(BkElement, st.integers(1, 2), st.integers(-2, 2)),
    st.builds(lambda lam: TElement(RD2.weight(lam)), st.tuples(st.integers(-1, 2),
                                                              st.integers(-1, 2))),
    st.just(S0Element()),
    st.sampled_from(A2_MODEL_POOL),
)


@settings(max_examples=60, deadline=None)
@given(
    ns=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    weights=st.lists(st.integers(0, 3), min_size=2, max_size=2),
    k=st.integers(1, 1),
    a2_factors=st.lists(A2_FACTOR, min_size=2, max_size=4),
    a2_k=st.integers(1, 2),
)
def test_binary_oracle_property_sl2(ns, weights, k, a2_factors, a2_k):
    factors = (BkElement(1, ns[0]), model_highest_weight(RD1, (weights[0],)))
    x = TensorElement(factors)
    assert binary_eps(RD1, x, k) == x.eps(RD1, k)
    assert binary_phi(RD1, x, k) == x.phi(RD1, k)
    assert binary_e(RD1, x, k) == x.e(RD1, k)
    assert binary_f(RD1, x, k) == x.f(RD1, k)
    # n-fold sites, where profiles tie or hold NEG_INF, against the binary
    # rule on every level of the left-nested bracketing ((a x b) x c) x d
    nested = a2_factors[0]
    for factor in a2_factors[1:]:
        nested = TensorElement((nested, factor))
        flat = TensorElement(flatten(nested))
        assert binary_eps(RD2, nested, a2_k) == flat.eps(RD2, a2_k)
        assert binary_phi(RD2, nested, a2_k) == flat.phi(RD2, a2_k)
        for op, rule in (("e", binary_e), ("f", binary_f)):
            moved, expected = rule(RD2, nested, a2_k), getattr(flat, op)(RD2, a2_k)
            if expected is None:
                assert moved is None
            else:
                assert moved is not None and flatten(moved) == expected.factors


def test_serialization_preserves_order():
    x = TensorElement((sl2_hw(), sl2_low()))
    data = x.serialize()
    assert list(data) == ["Tensor"]
    assert len(data["Tensor"]) == 2
    y = TensorElement((sl2_low(), sl2_hw()))
    assert x.key() != y.key()
