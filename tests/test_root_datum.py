import json

import pytest
from hypothesis import given, strategies as st

from kmcrystals import build_root_datum, load_root_datum
from kmcrystals.root_datum import RootDatum, Weight


def test_preset_a2_cartan():
    rd = build_root_datum("A2")
    assert rd.cartan == ((2, -1), (-1, 2))
    assert rd.edge_mult == ((0, 1), (1, 0))


def test_double_edge_adjacency():
    rd = build_root_datum([[0, 2], [2, 0]])
    assert rd.cartan == ((2, -2), (-2, 2))


def test_edge_loop_rejected():
    with pytest.raises(ValueError, match="edge loop at vertex 1"):
        build_root_datum([[1]])


def test_asymmetric_adjacency_rejected():
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        build_root_datum([[0, 1], [2, 0]])


def test_negative_adjacency_rejected():
    with pytest.raises(ValueError, match="negative"):
        build_root_datum([[0, -1], [-1, 0]])


def test_preset_dict_form():
    assert build_root_datum({"preset": "A3"}).n == 3
    assert build_root_datum({"adjacency": [[0, 1], [1, 0]]}).cartan == ((2, -1), (-1, 2))


@pytest.mark.parametrize("source", [5, [1, 2], {"preset": 5}, {"adjacency": 5}])
def test_malformed_source_rejected(source):
    with pytest.raises(ValueError, match="list of rows"):
        build_root_datum(source)


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        build_root_datum("Z9")


def test_d4_is_a_fork():
    rd = build_root_datum("D4")
    degrees = [sum(row) for row in rd.edge_mult]
    assert sorted(degrees) == [1, 1, 1, 3]
    assert degrees[1] == 3  # vertex 2 is the branch vertex


def test_e8_edge_count():
    rd = build_root_datum("E8")
    assert sum(sum(row) for row in rd.edge_mult) == 2 * 7


def test_pairing_fundamental():
    rd = build_root_datum("A1")
    assert rd.pairing(1, Weight((1,), (0,))) == 1
    assert rd.pairing(1, Weight((1,), (1,))) == -1
    rd2 = build_root_datum("A2")
    assert rd2.pairing(2, Weight((1, 0), (1, 0))) == 1


def test_pairing_delta_on_fundamentals():
    for name in ("A2", "A3", "D4"):
        rd = build_root_datum(name)
        for k in rd.vertices():
            for l in rd.vertices():
                unit = [int(l == m) for m in rd.vertices()]
                assert rd.pairing(k, rd.weight(unit)) == (1 if k == l else 0)


def test_pairing_vertex_out_of_range():
    rd = build_root_datum("A2")
    with pytest.raises(ValueError, match="out of range"):
        rd.pairing(3, rd.zero_weight())


def test_is_dominant():
    rd2 = build_root_datum("A2")
    assert rd2.is_dominant(Weight((1, 1), (0, 0)))
    assert rd2.is_dominant(rd2.zero_weight())
    rd1 = build_root_datum("A1")
    assert not rd1.is_dominant(Weight((1,), (1,)))


def test_alpha_shifts():
    wt = Weight((1,), (0,))
    assert wt.subtract_alpha(1) == Weight((1,), (1,))
    assert wt.add_alpha(1).subtract_alpha(1) == wt
    rd = build_root_datum("A2")
    wt2 = Weight((1, 0), (0, 0))
    # subtracting alpha_2 raises the pairing at vertex 1 by -C_12 = 1
    assert rd.pairing(1, wt2.subtract_alpha(2)) == rd.pairing(1, wt2) + 1


def test_cartan_from_edge_mult():
    for name in ("A3", "D4", "E6", "affineA1"):
        rd = build_root_datum(name)
        for i in range(rd.n):
            for j in range(rd.n):
                expected = 2 if i == j else -rd.edge_mult[i][j]
                assert rd.cartan[i][j] == expected


@given(
    lam=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    root=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    k=st.integers(1, 3),
    l=st.integers(1, 3),
)
def test_pairing_shift_property(lam, root, k, l):
    rd = build_root_datum("A3")
    wt = Weight(tuple(lam), tuple(root))
    shifted = wt.subtract_alpha(l)
    assert rd.pairing(k, shifted) == rd.pairing(k, wt) - rd.cartan[k - 1][l - 1]


def test_weight_rank_mismatch():
    with pytest.raises(ValueError):
        Weight((1,), (0, 0))
    rd = build_root_datum("A2")
    with pytest.raises(ValueError):
        rd.pairing(1, Weight((1,), (0,)))


def test_load_root_datum_json(tmp_path):
    path = tmp_path / "rd.json"
    path.write_text(json.dumps({"preset": "A3"}))
    assert load_root_datum(path).n == 3
    path2 = tmp_path / "rd2.json"
    path2.write_text(json.dumps({"adjacency": [[0, 2], [2, 0]]}))
    assert load_root_datum(path2).cartan == ((2, -2), (-2, 2))


def test_load_root_datum_toml(tmp_path):
    texts = ['preset = "D4"\n', "# affine A1\nadjacency = [\n  [0, 2],\n  [2, 0],\n]\n"]
    path = tmp_path / "rd.toml"
    path.write_text(texts[0])
    assert load_root_datum(path).n == 4
    path2 = tmp_path / "rd2.toml"
    path2.write_text(texts[1])
    assert load_root_datum(path2).cartan == ((2, -2), (-2, 2))


@pytest.mark.parametrize("build, message", [
    (lambda: Weight((1,), (0,)) + Weight((1, 0), (0, 0)), "cannot add weights of different rank"),
    (lambda: Weight((1, 0), (0, 0)).subtract_alpha(3), "vertex index 3 out of range 1..2"),
    (lambda: Weight((1, 0), (0, 0)).add_alpha(0), "vertex index 0 out of range 1..2"),
    (lambda: RootDatum(((2, -1), (-1,))), "Cartan matrix row 2 has length 1, expected 2"),
    (lambda: RootDatum(((2, 0), (0, 3))), r"Cartan diagonal entry \(2,2\) is 3, must be 2"),
    (lambda: RootDatum(((2, 1), (1, 2))), r"Cartan off-diagonal entry \(1,2\) is 1, must be <= 0"),
    (lambda: RootDatum(((2, -1), (-2, 2))), r"Cartan matrix not symmetric at \(1,2\): -1 != -2"),
    (lambda: build_root_datum("A2").weight((1,)), "weight coordinates must have length 2"),
    (lambda: build_root_datum("A2").weight((1, 0), (0,)), "weight coordinates must have length 2"),
    (lambda: build_root_datum([[0, 1], [1]]), "adjacency row 2 has length 1, expected 2"),
    (lambda: build_root_datum([[0, 1.0], [1.0, 0]]),
     r"adjacency entry \(1,2\) is not an integer: 1\.0"),
    (lambda: build_root_datum([[0, True], [True, 0]]),
     r"adjacency entry \(1,2\) is not an integer: True"),
    (lambda: build_root_datum("A0"), "preset rank must be positive: 'A0'"),
    (lambda: build_root_datum("A02"), "unknown preset 'A02'"),
    (lambda: build_root_datum("A1001"), "preset rank must be at most 1000: 'A1001'"),
    (lambda: build_root_datum("D2"), "D-series preset needs rank >= 3: 'D2'"),
    (lambda: build_root_datum("E5"), "E-series preset needs rank 6, 7 or 8: 'E5'"),
    (lambda: build_root_datum({"name": "A2"}),
     "root datum dict must contain 'preset' or 'adjacency'"),
])
def test_input_checks(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
