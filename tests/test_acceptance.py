"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
tolerances are exact; every expected value is either pinned from an
independent oracle (brute force enumeration, the dimension product formula,
the multiplicity recursion, the capped tensor realization) or is a direct
definitional fact.
"""

import contextlib
import random

from kmcrystals import (
    BkElement,
    build_root_datum,
    character,
    check_axioms,
    check_normal,
    closed_family_instance,
    decompose,
    embedding_mismatches,
    flatten,
    freudenthal_multiplicities,
    generate,
    generate_highest_weight_crystal,
    model_element,
    model_highest_weight,
    rank_complex,
    tensor_product_graph,
    weyl_dim,
    wprofile,
)
from kmcrystals.cli import main
from kmcrystals.quiver_model import window
from kmcrystals.root_datum import Weight
from kmcrystals.tensor import TensorElement, binary_e, binary_eps, binary_f, binary_phi

RD1 = build_root_datum("A1")
RD2 = build_root_datum("A2")
RD3 = build_root_datum("A3")
RD4 = build_root_datum("D4")
RDA = build_root_datum("affineA1")


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def all_dominant(n, bound):
    if n == 0:
        yield ()
        return
    for rest in all_dominant(n - 1, bound):
        for x in range(bound + 1):
            yield (x,) + rest


def test_criterion_1_sl2_exactness():
    with criterion("criterion 1 (sl2 exactness)"):
        for m in range(11):
            g = generate_highest_weight_crystal(RD1, (m,))
            assert g.node_count() == m + 1
            assert g.node_count() == weyl_dim(RD1, RD1.weight((m,)))
        for a in range(6):
            ga = generate_highest_weight_crystal(RD1, (a,))
            for b in range(6):
                gb = generate_highest_weight_crystal(RD1, (b,))
                table = decompose(tensor_product_graph(RD1, [ga, gb]))
                assert table.complete and not table.flagged
                expected = {
                    Weight((a + b,), (j,)): 1 for j in range(min(a, b) + 1)
                }
                assert table.entries == expected
                pairings = sorted(RD1.pairing_vector(wt)[0] for wt in table.entries)
                assert pairings == list(range(abs(a - b), a + b + 1, 2))
                # brute-force sum rule against the dimension oracle
                total = sum(weyl_dim(RD1, wt) for wt in table.entries)
                assert total == (a + 1) * (b + 1)


def test_criterion_2_finite_type_sizes_and_characters():
    with criterion("criterion 2 (finite-type sizes and characters)"):
        for rd in (RD2, RD3):
            for lam in all_dominant(rd.n, 2):
                g = generate_highest_weight_crystal(rd, lam)
                wt = rd.weight(lam)
                assert g.node_count() == weyl_dim(rd, wt)
                assert character(g) == freudenthal_multiplicities(rd, wt)
        for k in (1, 3, 4):
            lam = tuple(1 if i == k - 1 else 0 for i in range(4))
            g = generate_highest_weight_crystal(RD4, lam)
            wt = RD4.weight(lam)
            assert g.node_count() == 8 == weyl_dim(RD4, wt)
            assert character(g) == freudenthal_multiplicities(RD4, wt)


def test_criterion_3_closed_family():
    with criterion("criterion 3 (closed family)"):
        rng = random.Random(0)
        for rd in (RD2, RD3):
            for _ in range(20):
                lam = tuple(rng.randint(0, 2) for _ in range(rd.n))
                mu = tuple(rng.randint(0, 2) for _ in range(rd.n))
                iso, witness, reason = closed_family_instance(rd, lam, mu)
                assert iso, f"{lam} x {mu}: {reason}"
                assert witness
        iso, _, reason = closed_family_instance(RDA, (1, 0), (0, 1), depth=6)
        assert iso, reason


def test_criterion_4_strict_embedding():
    with criterion("criterion 4 (strict embedding)"):
        mismatches = []
        g = generate_highest_weight_crystal(RD2, (2, 1))
        assert g.node_count() == 15
        for x in g.nodes:
            mismatches += embedding_mismatches(RD2, x)
        ga = generate_highest_weight_crystal(RDA, (1, 0), depth=6)
        for x in ga.nodes:
            mismatches += embedding_mismatches(RDA, x)
        assert mismatches == []


def _pair_checks(rd, g1, g2):
    product = tensor_product_graph(rd, [g1, g2])
    assert check_normal(product).ok()
    count = 0
    for x in product.nodes:
        count += 1
        for k in rd.vertices():
            assert binary_eps(rd, x, k) == x.eps(rd, k)
            assert binary_phi(rd, x, k) == x.phi(rd, k)
            assert binary_e(rd, x, k) == x.e(rd, k)
            assert binary_f(rd, x, k) == x.f(rd, k)
            if x.eps(rd, k) == 0:
                _check_lowering_split(rd, x, k)
    return count


def _check_lowering_split(rd, x, k):
    b1, b2 = x.factors
    threshold = rd.pairing(k, b1.weight(rd)) - b2.eps(rd, k)
    assert threshold >= 0
    current = x
    for r in range(1, x.phi(rd, k) + 1):
        current = current.f(rd, k)
        assert current is not None
        left_steps = min(r, threshold)
        expected_left, expected_right = b1, b2
        for _ in range(left_steps):
            expected_left = expected_left.f(rd, k)
        for _ in range(r - left_steps):
            expected_right = expected_right.f(rd, k)
        assert current.factors == (expected_left, expected_right)


def _triple_checks(rd, graphs):
    product = tensor_product_graph(rd, graphs)
    assert check_normal(product).ok()
    count = 0
    for x in product.nodes:
        count += 1
        a, b, c = x.factors
        left, right = TensorElement((a, b)), TensorElement((b, c))
        for nested in (TensorElement((left, c)), TensorElement((a, right))):
            for k in rd.vertices():
                assert nested.eps(rd, k) == x.eps(rd, k)
                assert nested.phi(rd, k) == x.phi(rd, k)
                for op in ("e", "f"):
                    flat_image = getattr(x, op)(rd, k)
                    nested_image = getattr(nested, op)(rd, k)
                    if flat_image is None:
                        assert nested_image is None
                    else:
                        assert nested_image is not None
                        assert flatten(nested_image) == flat_image.factors
        # n-fold selection equals iterated binary application
        nested = TensorElement((TensorElement((a, b)), c))
        for k in rd.vertices():
            for op, binary_op in (("e", binary_e), ("f", binary_f)):
                flat_image = getattr(x, op)(rd, k)
                nested_image = binary_op(rd, nested, k)
                if flat_image is None:
                    assert nested_image is None
                else:
                    assert flatten(nested_image) == flat_image.factors
    return count


def test_criterion_5_tensor_calculus_properties():
    with criterion("criterion 5 (tensor calculus properties)"):
        sampled = 0
        b = {w: generate_highest_weight_crystal(RD2, w)
             for w in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1))}
        sampled += _pair_checks(RD2, b[(1, 1)], b[(1, 1)])
        sampled += _pair_checks(RD2, b[(2, 0)], b[(1, 1)])
        sampled += _pair_checks(RD2, b[(2, 1)], b[(1, 0)])
        sampled += _pair_checks(RD2, b[(1, 1)], b[(2, 1)])
        sampled += _pair_checks(RD2, b[(2, 0)], b[(0, 2)])
        a = {w: generate_highest_weight_crystal(RD1, (w,)) for w in (1, 2, 3)}
        sampled += _pair_checks(RD1, a[3], a[2])
        sampled += _pair_checks(RD1, a[2], a[2])
        g3 = {w: generate_highest_weight_crystal(RD3, w)
              for w in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
        sampled += _pair_checks(RD3, g3[(1, 0, 0)], g3[(0, 0, 1)])
        sampled += _pair_checks(RD3, g3[(0, 1, 0)], g3[(1, 0, 0)])
        sampled += _triple_checks(RD2, [b[(1, 0)], b[(0, 1)], b[(1, 0)]])
        sampled += _triple_checks(RD2, [b[(1, 1)], b[(1, 0)], b[(0, 1)]])
        sampled += _triple_checks(RD1, [a[1], a[1], a[1]])
        sampled += _triple_checks(RD1, [a[3], a[2], a[1]])
        assert sampled >= 500, f"only {sampled} elements sampled"


MODEL_GRAPH_SPECS = (
    (RD1, (3,), None),
    (RD2, (1, 0), None),
    (RD2, (1, 1), None),
    (RD2, (2, 1), None),
    (RD2, (2, 2), None),
    (RD3, (0, 1, 0), None),
    (RD3, (1, 0, 1), None),
    (RD4, (1, 0, 0, 0), None),
    (RDA, (1, 0), 6),
)


def _model_graphs():
    graphs = [
        generate_highest_weight_crystal(rd, lam, depth=depth)
        for rd, lam, depth in MODEL_GRAPH_SPECS
    ]
    multi = generate(RD2, [model_element(wprofile({0: (0, 1), 3: (1, 0)}))])
    graphs.append(multi)
    return graphs


def test_criterion_6_axiom_suites():
    with criterion("criterion 6 (axiom suites)"):
        skipped_total = 0
        for g in _model_graphs():
            assert check_axioms(g).violations == []
            report = check_normal(g)
            assert report.ok(), report.violations[:3]
            skipped_total += report.skipped
        pair_graphs = [
            tensor_product_graph(
                RD2,
                [generate_highest_weight_crystal(RD2, (1, 0)),
                 generate_highest_weight_crystal(RD2, (0, 1))],
            ),
            tensor_product_graph(
                RD1,
                [generate_highest_weight_crystal(RD1, (1,))] * 2,
            ),
            tensor_product_graph(
                RD1,
                [generate_highest_weight_crystal(RD1, (1,))] * 3,
            ),
        ]
        for g in pair_graphs:
            assert check_axioms(g).violations == []
            assert check_normal(g).ok()
        # negative control: the elementary string crystal is not normal
        bk = generate(RD1, [BkElement(1, 0)], depth=3)
        assert check_axioms(bk).violations == []
        report = check_normal(bk)
        assert report.violations, "B_k must fail the normality check"
        print(f"  (normality skips across truncations: {skipped_total})")


def test_criterion_7_telescoping_identity():
    with criterion("criterion 7 (telescoping identity)"):
        elements = 0
        for g in _model_graphs():
            rd = g.rd
            for x in g.nodes:
                lo, hi = window(x)
                wt = x.weight(rd)
                for k in rd.vertices():
                    total = sum(rank_complex(rd, x, k, p) for p in range(lo, hi + 1))
                    assert total == rd.pairing(k, wt)
                elements += 1
        assert elements > 100


def test_criterion_8_cli_golden_files(tmp_path, monkeypatch):
    with criterion("criterion 8 (CLI golden files and exit codes)"):
        dots = []
        for run in range(2):
            path = tmp_path / f"graph{run}.dot"
            assert main(["graph", "--preset", "A2", "--weight", "1,0",
                         "--depth", "10", "--dot", str(path)]) == 0
            dots.append(path.read_bytes())
        assert dots[0] == dots[1]
        tsvs = []
        for run in range(2):
            path = tmp_path / f"tensor{run}.tsv"
            assert main(["tensor", "--preset", "A2", "--weight", "1,0",
                         "--weight", "0,1", "--tsv", str(path)]) == 0
            tsvs.append(path.read_bytes())
        assert tsvs[0] == tsvs[1]
        # exit-code contract
        assert main(["graph", "--preset", "A2", "--weight=-1,0",
                     "--dot", str(tmp_path / "x.dot")]) == 2
        assert main(["verify", "nonsense", "--preset", "A2"]) == 2
        monkeypatch.setenv("CRYSTAL_NODE_BUDGET", "2")
        assert main(["graph", "--preset", "A2", "--weight", "1,0",
                     "--dot", str(tmp_path / "y.dot")]) == 3
        monkeypatch.delenv("CRYSTAL_NODE_BUDGET")
        assert main(["verify", "closed", "--preset", "A2", "--pairs", "3",
                     "--seed", "0"]) == 0
