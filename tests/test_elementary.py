import itertools

import pytest

from kmcrystals import NEG_INF, BkElement, S0Element, TElement, build_root_datum
from kmcrystals.root_datum import Weight

RD = build_root_datum("A2")
RD1 = build_root_datum("A1")


def test_bk_lowering():
    assert BkElement(1, 0).f(RD1, 1) == BkElement(1, -1)


def test_bk_other_vertex_kills():
    b = BkElement(1, 5)
    assert b.e(RD, 2) is None
    assert b.f(RD, 2) is None


def test_bk_inverse_pair():
    for n in (-3, 0, 7):
        b = BkElement(1, n)
        assert b.f(RD1, 1).e(RD1, 1) == b
        assert b.e(RD1, 1).f(RD1, 1) == b


def test_bk_statistics():
    b = BkElement(1, 3)
    assert b.eps(RD, 1) == -3 and b.phi(RD, 1) == 3
    assert b.eps(RD, 2) is NEG_INF and b.phi(RD, 2) is NEG_INF
    # phi - eps = 2n = <h_k, wt>
    assert b.phi(RD, 1) - b.eps(RD, 1) == 2 * 3 == RD.pairing(1, b.weight(RD))
    assert b.weight(RD) == Weight((0, 0), (-3, 0))


def test_t_element_frozen():
    lam = Weight((1, 0), (0, 0))
    t = TElement(lam)
    assert t.e(RD, 1) is None and t.f(RD, 2) is None
    assert t.weight(RD) == lam
    assert t.eps(RD, 1) is NEG_INF and t.phi(RD, 1) is NEG_INF


def test_s0_caps():
    s = S0Element()
    assert s.e(RD, 1) is None and s.f(RD, 1) is None
    assert s.weight(RD) == RD.zero_weight()
    # the load-bearing difference from T_0: statistics are 0, not -inf
    assert s.eps(RD, 1) == 0 and s.phi(RD, 1) == 0
    t0 = TElement(RD.zero_weight())
    assert t0.phi(RD, 1) is NEG_INF


def test_serialization_forms():
    assert BkElement(1, -2).serialize() == {"Bk": {"k": 1, "n": -2}}
    assert TElement(Weight((1, 0), (0, 0))).serialize() == {"T": {"lambda": [1, 0], "root": [0, 0]}}
    assert S0Element().serialize() == {"S0": {}}


def test_keys_injective():
    elements = [BkElement(1, 0), BkElement(1, 1), BkElement(2, 0), S0Element(),
                TElement(RD.zero_weight()), TElement(Weight((1, 0), (0, 0)))]
    keys = {x.key() for x in elements}
    assert len(keys) == len(elements)


def test_t_element_of_the_wrong_rank():
    # a rank-1 weight is no weight of A2: every read and every operator says
    # so, naming both ranks, as a tensor containing it does
    t = TElement(Weight((1,), (0,)))
    for read in (lambda: t.weight(RD), lambda: t.eps_vector(RD), lambda: t.phi(RD, 1),
                 lambda: t.e(RD, 1), lambda: t.f(RD, 1)):
        with pytest.raises(ValueError, match="weight has rank 1, root datum has rank 2"):
            read()
    assert t.weight(RD1) == Weight((1,), (0,))


def test_records_are_per_datum():
    # an element queried against A2, then A3, then A2 reads each datum's
    # own record, never the other's
    rd3 = build_root_datum("A3")
    bk, t, s0 = BkElement(1, 2), TElement(Weight((1, 0), (0, 0))), S0Element()
    expected = {
        RD: {bk: (Weight((0, 0), (-2, 0)), (-2, NEG_INF), (2, NEG_INF)),
             t: (Weight((1, 0), (0, 0)), (NEG_INF,) * 2, (NEG_INF,) * 2),
             s0: (RD.zero_weight(), (0, 0), (0, 0))},
        rd3: {bk: (Weight((0, 0, 0), (-2, 0, 0)), (-2, NEG_INF, NEG_INF), (2, NEG_INF, NEG_INF)),
              s0: (rd3.zero_weight(), (0, 0, 0), (0, 0, 0))},
    }
    for rd in (RD, rd3, RD):
        for x, stats in expected[rd].items():
            assert (x.weight(rd), x.eps_vector(rd), x.phi_vector(rd)) == stats
        if rd is rd3:  # t's weight has rank 2
            with pytest.raises(ValueError, match="weight has rank 2, root datum has rank 3"):
                t.weight(rd3)
    # an out-of-range vertex raises the message it always did, and a string
    # at a vertex the datum lacks is no element of a crystal on it
    for read in (lambda: BkElement(3, 0).weight(RD), lambda: BkElement(3, 0).eps(RD, 1)):
        with pytest.raises(ValueError, match=r"^vertex index 3 out of range 1\.\.2$"):
            read()
    for x, k, op in itertools.product((bk, t, s0), (0, 3), ("eps", "phi", "e", "f")):
        with pytest.raises(ValueError, match=rf"^vertex index {k} out of range 1\.\.2$"):
            getattr(x, op)(RD, k)
