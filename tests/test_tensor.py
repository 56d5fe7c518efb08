"""The tensor rule against its independent two-factor oracle, plus the
structural properties: associativity under re-bracketing, normality
preservation, and the lowering-power split rule on eps = 0 elements."""

import dataclasses
import functools
import json
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from kmcrystals import (
    NEG_INF,
    BkElement,
    RootDatum,
    S0Element,
    TElement,
    TensorElement,
    build_root_datum,
    check_normal,
    closed_family_instance,
    embed_psi,
    flatten,
    generate,
    generate_highest_weight_crystal,
    model_highest_weight,
    tensor_product_graph,
    weyl_dim,
)
from kmcrystals.cli import main
from kmcrystals.crystal_core import ext_max, is_neg_inf, stats_record, trim_record
from kmcrystals.quiver_model import window
from kmcrystals.tensor import binary_e, binary_eps, binary_f, binary_phi

RD1 = build_root_datum("A1")
RD2 = build_root_datum("A2")
RD3 = build_root_datum("A3")
RDA = build_root_datum("affineA1")


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


def _formula_profiles(rd, x, k):
    """eps_k^p and phi_k^p of the module docstring, straight from the
    factors' readers with -inf arithmetic, not from the kept columns: an
    oracle for ``eps_profile`` and ``phi_profile``."""
    pairs = [rd.pairing(k, b.weight(rd)) for b in x.factors]
    eps = [b.eps(rd, k) - sum(pairs[:p]) for p, b in enumerate(x.factors)]
    phi = [b.phi(rd, k) + sum(pairs[p + 1:]) for p, b in enumerate(x.factors)]
    return eps, phi


# T and B_1 factors only: every entry at vertex 2 is -inf
A2_VERTEX_1_FACTOR = st.one_of(
    st.builds(BkElement, st.just(1), st.integers(-2, 2)),
    st.builds(lambda lam: TElement(RD2.weight(lam)), st.tuples(st.integers(-1, 2),
                                                              st.integers(-1, 2))),
)
# capped tensors of B(1,0), B(0,1), B(1,1) on A2 and of affineA1 B(1,1) to depth 3
CAPPED_POOL = [(rd, list(embed_psi(rd, x, window(x, margin=2)).factors))
               for rd, xs in ((RD2, A2_MODEL_POOL),
                              (RDA, generate_highest_weight_crystal(RDA, (1, 1), depth=3).nodes))
               for x in xs]
TENSOR_CASES = st.one_of(
    st.tuples(st.just(RD2), st.lists(A2_FACTOR, min_size=1, max_size=6)),
    st.tuples(st.just(RD2), st.lists(A2_VERTEX_1_FACTOR, min_size=1, max_size=4)),
    st.sampled_from(CAPPED_POOL),
)


@settings(max_examples=150, deadline=None)
@given(case=TENSOR_CASES)
@example(case=(RD1, [sl2_low()]))  # one factor
@example(case=(RD2, [BkElement(1, 2), TElement(RD2.weight((1, 0)))]))  # vertex 2 all -inf
@example(case=max(CAPPED_POOL, key=lambda case: len(case[1])))  # the longest capped tensor
# both profiles tie at both positions: e-site 0, f-site 1
@example(case=(RD1, [sl2_low(), sl2_hw()]))  # profiles [1, 1]
@example(case=(RD1, [S0Element(), S0Element()]))  # profiles [0, 0]
def test_record_is_the_profiles_maxima(case):
    # the one-pass record against its profiles: eps_k and phi_k are their
    # maxima, e_k acts at the first position attaining the eps maximum and
    # f_k at the last attaining the phi maximum, and a site is None exactly
    # where the statistic is -inf; the profiles follow the formula
    rd, factors = case
    x = TensorElement(tuple(factors))  # a fresh element, so its record is built here
    _, wt, eps, phi, e_sites, f_sites = stats_record(x, rd)
    assert wt == functools.reduce(operator.add, [b.weight(rd) for b in factors])
    for k in rd.vertices():
        profiles = (x.eps_profile(rd, k), x.phi_profile(rd, k))
        assert profiles == _formula_profiles(rd, x, k)
        for stat, site, profile, last in zip((eps, phi), (e_sites, f_sites), profiles,
                                             (False, True)):
            top = ext_max(profile)
            assert stat[k - 1] is top if is_neg_inf(top) else stat[k - 1] == top
            attaining = [p for p, c in enumerate(profile) if not is_neg_inf(c) and c == top]
            assert site[k - 1] == (attaining[-1 if last else 0] if attaining else None)
            assert (site[k - 1] is None) == is_neg_inf(stat[k - 1])


def test_serialization_preserves_order():
    x = TensorElement((sl2_hw(), sl2_low()))
    data = json.loads(x.key())
    assert list(data) == ["Tensor"]
    assert len(data["Tensor"]) == 2
    y = TensorElement((sl2_low(), sl2_hw()))
    assert x.key() != y.key()


@pytest.mark.parametrize("factors", [(), []], ids=["tuple", "list"])
def test_input_checks(factors):
    with pytest.raises(ValueError, match="^tensor element needs at least one factor$"):
        TensorElement(factors)


def _fresh(x):
    """A structurally equal copy of x that shares no instance with it, so
    none of x's records or columns is read through it."""
    if isinstance(x, TensorElement):
        return TensorElement(tuple(map(_fresh, x.factors)))
    return dataclasses.replace(x)


def _reads(rd, x):
    """x's record against rd and its position profiles at every vertex."""
    return (stats_record(x, rd)[:6],
            [(x.eps_profile(rd, k), x.phi_profile(rd, k)) for k in rd.vertices()])


def _column_is_the_record_fields(rd, b):
    """b keeps a column for rd that holds its record's objects and the
    weight's pairing vector, and nothing else."""
    _, wt, eps, phi = b.__dict__["_record"][:4]
    col = b.__dict__["_column"]
    return (len(col) == 5 and col[0] is rd and col[1] is eps and col[2] is phi
            and col[3] == rd.pairing_vector(wt) and col[4] is wt)


@pytest.mark.parametrize("nested", [False, True], ids=["flat", "nested"])
@pytest.mark.parametrize("trimmed", [False, True], ids=["kept", "trimmed"])
def test_kept_column_follows_the_datum(nested, trimmed):
    # one factor instance in tensors read against A2, then A3, then A2
    # again, alone or inside a tensor factor, with every factor's record
    # trimmed between reads or not: each tensor record and profile equals a
    # fresh instance's, the two-factor rule agrees with the n-fold one, and
    # each factor's column holds only its current record's fields
    shared = BkElement(1, -1)
    inner = TensorElement((shared, BkElement(2, 1))) if nested else shared
    for rd in (RD2, RD3, RD2):
        top = model_highest_weight(rd, (1,) * rd.n)
        for factors in ((inner, top), (top.f(rd, 1), inner), (inner, inner)):
            for _ in range(2):  # the second tensor reads the columns the first left
                x = TensorElement(factors)
                assert _reads(rd, x) == _reads(rd, _fresh(x))
                for k in rd.vertices():
                    assert binary_eps(rd, x, k) == x.eps(rd, k)
                    assert binary_phi(rd, x, k) == x.phi(rd, k)
                    assert binary_e(rd, x, k) == x.e(rd, k)
                    assert binary_f(rd, x, k) == x.f(rd, k)
                for b in factors:
                    assert _column_is_the_record_fields(rd, b)
                if trimmed:
                    for b in (*factors, *flatten(x)):
                        trim_record(b)


def test_generated_factors_keep_no_rows():
    # generate trims every shared factor; the column each factor keeps
    # holds the fields of its trimmed record, so no rank rows survive in it
    pair = TensorElement((model_highest_weight(RD3, (1, 1, 0)),
                          model_highest_weight(RD3, (0, 1, 1))))
    g = generate(RD3, [pair])
    factors = {id(b): b for x in g.nodes for b in x.factors}
    assert len(factors) == 20 + 20  # all of B(1,1,0) and B(0,1,1)
    for b in factors.values():
        assert len(b.__dict__["_record"]) == 6
        assert _column_is_the_record_fields(RD3, b)


def test_each_factor_instance_pairs_its_weight_once(monkeypatch, capsys):
    # a factor instance keeps its column, so the datum pairs a weight once
    # per distinct factor instance and once per full rank pass of a model
    # record, not once per factor of each tensor record: reading every
    # record's factors anew made 2,288 and 723 calls
    lam, mu = (0, 0, 1), (1, 2, 1)
    instances = weyl_dim(RD3, RD3.weight(lam)) + weyl_dim(RD3, RD3.weight(mu))
    calls = []
    original = RootDatum.pairing_vector

    def counting(self, wt):
        calls.append(wt)
        return original(self, wt)

    monkeypatch.setattr(RootDatum, "pairing_vector", counting)
    argv = ["verify", "embedding", "--preset", "affineA1", "--weight", "1,1", "--depth", "12"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "embedding: 0 mismatches on 263 elements\nPASS\n"
    assert 0 < len(calls) <= 15 + 1  # the profile's 15 embedding parts, the seed's rank pass
    calls.clear()
    assert closed_family_instance(RD3, lam, mu)[0]
    # every element of B(lam) and of B(mu) is a factor instance; the rank
    # passes are the two factor seeds' and B(lam + mu)'s
    assert 0 < len(calls) <= instances + 3
