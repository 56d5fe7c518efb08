"""Profile-model tests.  The expected values below were computed from the
rank formula by hand (rank tables for one- and two-vertex data) and every
operator fact is cross-checked against the capped tensor realization, which
is the model's independent oracle."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from kmcrystals import (
    BkElement,
    ModelElement,
    S0Element,
    TElement,
    TensorElement,
    WProfile,
    build_root_datum,
    embed_psi,
    embedding_mismatches,
    generate,
    generate_highest_weight_crystal,
    highest_weight_elements,
    model_element,
    model_highest_weight,
    rank_complex,
    wprofile,
)
from kmcrystals import quiver_model
from kmcrystals.crystal_core import stats_record
from kmcrystals.quiver_model import window
from kmcrystals.root_datum import Weight

RD1 = build_root_datum("A1")
RD2 = build_root_datum("A2")
RDA = build_root_datum("affineA1")


def eps_bar(rd, x, k, p):
    """-sum of the ranks over slots strictly above p (none above the window)."""
    _, hi = window(x)
    return -sum(rank_complex(rd, x, k, q) for q in range(p + 1, hi + 1))


def phi_bar(rd, x, k, p):
    """Sum of the ranks over slots at most p (none below the window)."""
    lo, _ = window(x)
    return sum(rank_complex(rd, x, k, q) for q in range(lo, p + 1))


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
    assert stats_record(hw2, RD2)[2] == (0, 0)
    assert stats_record(hw2, RD2)[3] == (1, 0)


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


def _fresh_embedding(rd, x, win):
    """embed_psi as it reads in its docstring, a new instance per factor."""
    lo, hi = win
    v, w = dict(x.v), dict(x.wp.slots)
    factors = [S0Element()]
    for p in range(hi, lo - 1, -1):
        factors.append(TElement(Weight(w.get(p, (0,) * rd.n), (0,) * rd.n)))
        factors += [BkElement(k, -v.get((k, p), 0)) for k in rd.vertices()]
    factors.append(S0Element())
    return TensorElement(tuple(factors))


@pytest.mark.parametrize("name, lam", [("A3", (1, 1, 1)), ("affineA1", (1, 1))])
def test_embed_psi_shares_equal_factors(name, lam):
    # sharing instances changes no value: the embedding equals, hashes and
    # keys like one with a fresh instance per factor, and so do its
    # statistics and operator images; only v's entries and the W slots get
    # factors of their own, besides the caps, t_0 and each b_k(0)
    rd = build_root_datum(name)
    for x in generate_highest_weight_crystal(rd, lam, depth=8).nodes:
        win = window(x, margin=2)
        emb, ref = embed_psi(rd, x, win), _fresh_embedding(rd, x, win)
        assert emb == ref and hash(emb) == hash(ref) and emb.key() == ref.key()
        assert stats_record(emb, rd)[1:4] == stats_record(ref, rd)[1:4]
        for k in rd.vertices():
            assert emb.e(rd, k) == ref.e(rd, k) and emb.f(rd, k) == ref.f(rd, k)
        distinct = len({id(b) for b in emb.factors})
        assert distinct <= len(x.v) + len(x.wp.slots) + rd.n + 2
        # the embedding of a model image over x's window is the same value,
        # and shares every factor instance with x's but the changed entry's
        images = [op(rd, k) for k in rd.vertices() for op in (x.e, x.f)]
        for y in filter(None, images):
            emb_y, ref_y = embed_psi(rd, y, win), _fresh_embedding(rd, y, win)
            assert emb_y == ref_y and hash(emb_y) == hash(ref_y) and emb_y.key() == ref_y.key()
            assert stats_record(emb_y, rd)[1:4] == stats_record(ref_y, rd)[1:4]
            changed = [i for i, (a, b) in enumerate(zip(emb.factors, emb_y.factors)) if a is not b]
            assert len(changed) == 1 and emb.factors[changed[0]] != emb_y.factors[changed[0]]


def test_embedding_parts_are_per_datum():
    # A2 and affineA1 have the same rank; a profile embedded against both
    # gets parts of its own for each, so no factor's record is read on the
    # other datum
    x = model_element(wprofile({0: (1, 1)}), {(1, 1): 1, (2, 1): 1, (2, 2): 1})
    win = window(x, margin=2)
    embs = {rd: embed_psi(rd, x, win) for rd in (RD2, RDA)}
    assert {id(b) for b in embs[RD2].factors}.isdisjoint({id(b) for b in embs[RDA].factors})
    for rd, emb in embs.items():
        ref = _fresh_embedding(rd, x, win)
        assert emb == ref
        assert stats_record(emb, rd)[2:4] == stats_record(ref, rd)[2:4]
        assert stats_record(emb, rd)[2:4] == stats_record(x, rd)[2:4]
    for rd, emb in embs.items():
        assert all(b.__dict__["_record"][0] is rd for b in emb.factors)
    assert stats_record(embs[RD2], RD2)[2] != stats_record(embs[RDA], RDA)[2]


def test_embed_psi_window_too_small():
    x = model_element(wprofile({0: (1,)}), {(1, 1): 1})
    with pytest.raises(ValueError, match="slot 1"):
        embed_psi(RD1, x, (-1, 1))
    with pytest.raises(ValueError, match="slot 0"):
        embed_psi(RD1, x, (0, 4))
    # a factor's position follows from its vertex, which must be one
    for k in (0, 2):
        y = model_element(wprofile({0: (1,)}), {(k, 1): 1})
        with pytest.raises(ValueError, match=f"vertex index {k} out of range 1..1"):
            embed_psi(RD1, y, (-1, 3))


def test_embed_preserves_weight():
    g = generate_highest_weight_crystal(RD2, (1, 1))
    for x in g.nodes:
        emb = embed_psi(RD2, x, window(x, margin=2))
        assert emb.weight(RD2) == x.weight(RD2)


def test_strict_embedding_on_adjoint_crystal():
    g = generate_highest_weight_crystal(RD2, (1, 1))
    assert g.node_count() == 8
    for x in g.nodes:
        assert embedding_mismatches(RD2, x) == []


def test_unique_source_element():
    g = generate_highest_weight_crystal(RD2, (2, 1))
    assert len(highest_weight_elements(g)) == 1
    assert highest_weight_elements(g) == [model_highest_weight(RD2, (2, 1))]


def test_multi_slot_component_matches_tensor():
    from kmcrystals import closed_family_instance, is_isomorphic

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
    for x in g.nodes:
        assert embedding_mismatches(RD2, x) == []


def test_embedding_is_strict_morphism_of_graphs():
    """Generate B(2L) and the capped tensor crystal from its embedded source;
    the slotwise embedding of nodes must validate as an injective strict
    morphism between the two explored graphs."""
    from kmcrystals import check_strict_morphism

    hw = model_highest_weight(RD1, (2,))
    win = window(hw, margin=4)  # roomy enough for the whole string
    g_model = generate(RD1, [hw])
    g_tensor = generate(RD1, [embed_psi(RD1, hw, win)])
    assert g_model.node_count() == g_tensor.node_count() == 3
    mapping = {x: embed_psi(RD1, x, win) for x in g_model.nodes}
    report = check_strict_morphism(g_model, g_tensor, mapping)
    assert report.ok() and report.checked == 3


def test_embedding_sees_a_wrong_f_tie_break(monkeypatch):
    # f_k adding its unit at the LARGEST slot attaining the maximum is the
    # plausible wrong choice; the capped tensor, whose factors are shared,
    # must still tell it from the model's smallest slot.  The nodes come
    # from the correct model (generating with the wrong one stops on a
    # RuntimeError), and each is checked as a fresh copy, which builds its
    # record with whichever tie-break is in force
    nodes = {rd: list(generate_highest_weight_crystal(rd, lam, depth=6).nodes)
             for rd, lam in ((RD2, (2, 1)), (RDA, (1, 0)))}
    for rd, xs in nodes.items():
        assert all(embedding_mismatches(rd, ModelElement(x.wp, x.v)) == [] for x in xs)
    original = quiver_model._row_stats

    def largest_f_site(x, k, lo, row, total):
        eps, phi, e_site, f_site = original(x, k, lo, row, total)
        if f_site is not None:
            pbar = list(itertools.accumulate(row))
            f_site = lo + len(pbar) - 1 - pbar[::-1].index(phi)
        return eps, phi, e_site, f_site

    monkeypatch.setattr(quiver_model, "_row_stats", largest_f_site)
    for rd, xs in nodes.items():
        found = [m for x in xs for m in embedding_mismatches(rd, ModelElement(x.wp, x.v))]
        assert found and all(m.startswith("f_") for m in found), rd


def test_embedding_sees_a_weight_error_no_pairing_shows(monkeypatch):
    # delta = alpha_1 + alpha_2 pairs to 0 with both coroots of affineA1, so
    # taking it off the W-slot factor t_{w^0} leaves every eps, phi and
    # operator of the capped tensor as it was; only the weights tell
    g = generate_highest_weight_crystal(RDA, (1, 0), depth=3)
    assert g.node_count() == 5
    original = TElement._build

    def shifted(self, rd):
        rec = original(self, rd)
        if not any(rec[1].lambda_part):  # t_0 of an empty slot
            return rec
        return (rec[0], rec[1].subtract_alpha(1).subtract_alpha(2), *rec[2:])

    monkeypatch.setattr(TElement, "_build", shifted)
    assert [embedding_mismatches(RDA, x) for x in g.nodes] == [
        [f"wt not preserved at {x.key()}"] for x in g.nodes]


def test_affine_strictness_at_depth():
    g = generate_highest_weight_crystal(RDA, (1, 0), depth=5)
    assert g.node_count() > 5
    for x in g.nodes:
        assert embedding_mismatches(RDA, x) == []


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
        lo, hi = window(x, margin=2)
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
    assert json.loads(x.key()) == {"Model": {"w": {"0": [1, 0]}, "v": {"1,1": 1, "2,1": 1}}}
    assert json.loads(model_highest_weight(RD2, (0, 0)).key()) == {"Model": {"w": {}, "v": {}}}


def test_profile_validation():
    with pytest.raises(ValueError, match="negative"):
        wprofile({0: (-1, 0)})
    with pytest.raises(ValueError, match="negative W entry at slot 2"):
        WProfile(((2, (1, -1)),))
    with pytest.raises(ValueError, match="duplicate W slot 0"):
        WProfile(((0, (1, 0)), (0, (0, 1))))
    with pytest.raises(ValueError, match="dominant"):
        model_highest_weight(RD2, (-1, 0))
    with pytest.raises(ValueError, match="length"):
        model_highest_weight(RD2, (1,))


def test_wprofile_has_one_form():
    # the form wprofile builds is the only one accepted, so equal profiles
    # compare equal and key alike
    canonical = wprofile({1: (0, 1), 0: (1, 0), 5: (0, 0)})
    assert canonical == WProfile(((0, (1, 0)), (1, (0, 1))))
    with pytest.raises(ValueError, match="W slot 0 follows slot 1"):
        WProfile(((1, (0, 1)), (0, (1, 0))))
    with pytest.raises(ValueError, match="all-zero W vector at slot 5"):
        WProfile(((0, (1, 0)), (5, (0, 0))))
    with pytest.raises(ValueError, match="all-zero W vector at slot 0"):
        WProfile(((0, ()),))


def test_model_element_has_one_form():
    # the form model_element builds is the only one accepted, so equal
    # elements compare equal and key alike
    wp = wprofile({0: (1, 1)})
    canonical = model_element(wp, {(2, 1): 1, (1, 1): 1})
    assert canonical == ModelElement(wp, (((1, 1), 1), ((2, 1), 1)))
    with pytest.raises(ValueError, match=r"entry \(1, 1\) follows entry \(2, 1\)"):
        ModelElement(wp, (((2, 1), 1), ((1, 1), 1)))
    with pytest.raises(ValueError, match=r"entry \(1, 1\) follows entry \(1, 1\)"):
        ModelElement(wp, (((1, 1), 1), ((1, 1), 2)))
    with pytest.raises(ValueError, match="strictly positive"):
        ModelElement(wp, (((1, 1), 0),))


@pytest.mark.parametrize("name, lam", [("A3", (1, 1, 1)), ("D4", (1, 1, 1, 1)),
                                       ("affineA1", (2, 1))])
def test_operator_images_keep_the_form(name, lam):
    # an image of e_k or f_k is spliced from its source's v, not validated;
    # along random walks, each must be the element model_element builds and
    # pass the validation of a direct construction, including where an
    # entry drops to 0 and where a new entry lands beyond the source's
    # support
    rd = build_root_datum(name)
    rng = random.Random(2201)
    moves = [(op, k) for op in ("e", "f", "f") for k in rd.vertices()]  # lowering twice as often
    dropped = beyond = 0
    for _ in range(12):
        x = model_highest_weight(rd, lam)
        for _ in range(30):
            rng.shuffle(moves)
            y = next(filter(None, (getattr(x, op)(rd, k) for op, k in moves)))
            rebuilt, direct = model_element(y.wp, dict(y.v)), ModelElement(y.wp, y.v)
            for z in (rebuilt, direct):
                assert y == z and hash(y) == hash(z) and y.key() == z.key()
            lo, hi = window(x, margin=0)
            dropped += len(y.v) < len(x.v)
            beyond += any(not lo <= p <= hi for (_, p), _ in set(y.v) - set(x.v))
            x = y
    assert dropped and beyond
    hw = model_highest_weight(rd, lam)
    with pytest.raises(RuntimeError, match=r"v\[1,1\] would become negative"):
        hw._move(rd, 1, 1, -1)
    with pytest.raises(RuntimeError, match=r"v\[1,1\] would become negative"):
        hw._move(rd, 1, 1, +1)._move(rd, 1, 1, -2)


def test_record_is_per_datum(monkeypatch):
    # A2 and affineA1 have the same rank; an element queried against both
    # must never read one datum's numbers on the other
    wp = wprofile({0: (1, 1)})
    v = {(1, 1): 1, (2, 1): 1, (2, 2): 1}
    expected = {
        RD2: ((0, 2), (1, 0), {(1, 1): 2, (2, 1): 1, (2, 2): 1}, {(1, 1): 1, (2, 2): 1}),
        RDA: ((0, 1), (3, 0), {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1},
              {(1, 1): 1, (2, 1): 1}),
    }
    for order in ((RD2, RDA, RD2), (RDA, RD2, RDA)):
        x = model_element(wp, v)
        y = model_highest_weight(RD2, (1, 0)).f(RD2, 1)
        for rd in order:
            eps, phi, f1, e2 = expected[rd]
            assert stats_record(x, rd)[2:4] == (eps, phi)
            assert x.f(rd, 1) == model_element(wp, f1)  # f_1 at this datum's slot
            assert x.e(rd, 2) == model_element(wp, e2)  # e_2 likewise
            assert stats_record(y, rd)[3] == ((0, 1) if rd is RD2 else (0, 2))
    # an image derives its record from its source's rows only when the
    # source is recorded against the datum asked about
    passes = []
    original = quiver_model._rank_rows

    def counting(rd, x):
        passes.append(x)
        return original(rd, x)

    monkeypatch.setattr(quiver_model, "_rank_rows", counting)
    hw = model_highest_weight(RD2, (1, 0))
    y = hw.f(RD2, 1)  # hw is recorded against A2
    assert stats_record(y, RDA)[3] == (0, 2) and passes == [hw, y]
    y = hw.f(RD2, 1)
    assert stats_record(hw, RDA)[3] == (1, 0)  # hw recorded again, now against affineA1
    del passes[:]
    assert stats_record(y, RDA)[3] == (0, 2) and passes == []


def test_derived_record_widens_the_window(monkeypatch):
    # a step at or past either edge of the source's window widens it, so the
    # derived record still equals a full pass; any single-entry step derives
    x = model_element(wprofile({0: (1, 1)}), {(1, 1): 1})
    x.weight(RD2)
    lo, rows = x.__dict__["_record"][6]
    hi = lo + len(rows[0]) - 1
    steps = [x._move(RD2, k, p, +1)
             for k, p in itertools.product((1, 2), (lo - 1, lo, hi, hi + 1))]
    full = [ModelElement(y.wp, y.v)._build(RD2)[:6] for y in steps]
    monkeypatch.setattr(quiver_model, "_rank_rows", None)  # no full pass from here on
    for y, record in zip(steps, full):
        y.weight(RD2)
        assert y.__dict__["_record"][:6] == record


def test_touched_rows_are_built_once_per_datum(monkeypatch):
    # which rows c units at vertex k move, and by how much, depends on the
    # datum alone: each (k, c) is probed once per datum and kept on it, and
    # each generation's row table only attaches its own moves dicts.  An
    # equal datum built anew probes again: nothing is kept in the process
    probes = []
    original = quiver_model._add_entry

    def counting(rows, split, l, i, c):
        probes.append((l, c))  # seeds have v empty: every call is a probe
        return original(rows, split, l, i, c)

    monkeypatch.setattr(quiver_model, "_add_entry", counting)
    every = [(1, 1), (2, 1), (3, 1)]  # e_k images equal known nodes and build no record
    for _ in range(2):
        rd = build_root_datum("A3")
        probes.clear()
        for lam in ((1, 1, 1), (1, 0, 1), (0, 2, 0)):
            generate_highest_weight_crystal(rd, lam)
        assert sorted(probes) == sorted(rd.__dict__["_row_moves"]) == every


def test_row_table_is_per_datum(monkeypatch):
    # A2 and affineA1 have the same rank but different edge multiplicities,
    # so their moves of one entry differ; a profile derived against one and
    # then the other must never read the first datum's table
    wp = wprofile({0: (1, 1)})
    v = {(1, 1): 1, (2, 1): 1, (2, 2): 1}
    full_pass = quiver_model._rank_rows
    for order in ((RD2, RDA, RD2), (RDA, RD2, RDA)):
        for rd in order:
            x = model_element(wp, v)
            x.weight(rd)
            images = [y for k in (1, 2) for y in (x.e(rd, k), x.f(rd, k)) if y is not None]
            expected = [ModelElement(y.wp, y.v)._build(rd)[:6] for y in images]
            monkeypatch.setattr(quiver_model, "_rank_rows", None)  # the images derive
            assert [y._build(rd)[:6] for y in images] == expected
            monkeypatch.setattr(quiver_model, "_rank_rows", full_pass)
            assert wp.__dict__["_rows"][0] is rd


def test_row_table_hits_keep_the_telescoping_check(monkeypatch):
    # a second image along a move already made reads the row table and
    # computes no row statistics; a stored row sum that disagrees with the
    # weight is still caught on such a hit
    calls = []
    original = quiver_model._row_stats

    def counting(*args):
        calls.append(args)
        return original(*args)

    x = model_highest_weight(RD2, (1, 1))
    x.f(RD2, 1).weight(RD2)
    monkeypatch.setattr(quiver_model, "_row_stats", counting)
    x.f(RD2, 1).weight(RD2)
    assert calls == []  # every touched row was a hit
    moves = x.wp.__dict__["_rows"][2]
    for trans in moves.values():
        for move, entry in trans.items():
            row, total, *stats = entry
            monkeypatch.setitem(trans, move, (row, total + 1, *stats))
    with pytest.raises(AssertionError, match="^telescoping identity failed at vertex 1 on "):
        x.f(RD2, 1).weight(RD2)
    assert calls == []


def test_zero_weight_crystal():
    hw = model_highest_weight(RD2, (0, 0))
    assert stats_record(hw, RD2)[2] == (0, 0)
    assert stats_record(hw, RD2)[3] == (0, 0)
    assert hw.f(RD2, 1) is None and hw.e(RD2, 2) is None
    g = generate(RD2, [hw])
    assert g.node_count() == 1


@pytest.mark.parametrize(
    "op, kind",
    [(op, kind) for kind in ("model", "tensor", "bk", "t", "s0") for op in ("eps", "phi", "e", "f")]
    + [("weight", "bk")],
)
@pytest.mark.parametrize("k", [0, 3])
def test_vertex_out_of_range(op, kind, k):
    if op == "weight":  # a string at a vertex the datum does not have
        with pytest.raises(ValueError, match="out of range"):
            BkElement(k, 1).weight(RD2)
        return
    b = {
        "model": model_highest_weight(RD2, (0, 1)),
        "tensor": TensorElement((model_highest_weight(RD2, (0, 1)),
                                 model_highest_weight(RD2, (1, 0)))),
        "bk": BkElement(1, 0),
        "t": TElement(RD2.weight((1, 0))),
        "s0": S0Element(),
    }[kind]
    b.f(RD2, 2)  # model and tensor elements now keep their statistics record
    with pytest.raises(ValueError, match="out of range"):
        getattr(b, op)(RD2, k)


@pytest.mark.parametrize("v", [{(0, 1): 1}, {(3, 1): 1}])
def test_profile_entry_at_a_non_vertex(v):
    # the one pass that reads v rejects it, whichever statistic asks first
    x = model_element(wprofile({0: (1, 1)}), v)
    reads = [
        lambda: x.weight(RD2),
        lambda: x.eps(RD2, 1),
        lambda: x.f(RD2, 1),
        lambda: rank_complex(RD2, x, 1, 1),
    ]
    for read in reads:
        with pytest.raises(ValueError, match=r"vertex index [03] out of range 1\.\.2"):
            read()


@pytest.mark.parametrize("read", [
    lambda x, rd: x.weight(rd),
    lambda x, rd: x.eps(rd, 1),
    lambda x, rd: x.f(rd, 1),
    lambda x, rd: rank_complex(rd, x, 1, 1),
], ids=["weight", "eps", "f", "rank_complex"])
def test_input_checks(read):
    # an A2 element queried against A3: its W vector has the wrong length
    x = model_highest_weight(RD2, (1, 0))
    message = "^W-profile vector length does not match root datum rank$"
    with pytest.raises(ValueError, match=message):
        read(x, build_root_datum("A3"))
