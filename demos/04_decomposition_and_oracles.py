"""
Tensor decomposition against independent oracles
================================================

Decomposing products of highest-weight crystals, and cross-checking node
counts and characters with classical finite-type formulas that never touch
a crystal operator.
"""

from kmcrystals import (
    build_root_datum,
    character,
    closed_family_instance,
    decompose,
    decompose_tensor,
    generate_highest_weight_crystal,
    tensor_product_graph,
)
from kmcrystals.oracles import freudenthal_multiplicities, positive_roots, weyl_dim

rd = build_root_datum("A2")

# Clebsch-Gordan for A2: B(L1) (x) B(L2) = B(L1+L2) + B(0), sizes 8 + 1 = 9.
g1 = generate_highest_weight_crystal(rd, (1, 0))
g2 = generate_highest_weight_crystal(rd, (0, 1))
product = tensor_product_graph(rd, [g1, g2])
table = decompose(product)
for wt, mult in table.sorted_entries():
    print("component", rd.pairing_vector(wt), "multiplicity", mult)
print("product size:", product.node_count())

# The same table without building the product: the highest-weight elements
# of B(L1) (x) B(L2) are b_L1 (x) b with eps_k(b) <= <h_k, L1>, so the
# factors alone determine the decomposition.
fast = decompose_tensor(rd, [(1, 0), (0, 1)])
print("materialized route:\n" + table.to_tsv(), end="")
print("highest-weight rule:\n" + fast.to_tsv(), end="")
assert fast.to_tsv() == table.to_tsv()

# The dimension oracle: a product over positive roots.
print("positive roots of A2:", positive_roots(rd))
print("weyl_dim(1,1):", weyl_dim(rd, rd.weight((1, 1))))

# The character of the generated graph equals the multiplicity recursion:
adjoint = generate_highest_weight_crystal(rd, (1, 1))
print("character matches recursion:",
      character(adjoint) == freudenthal_multiplicities(rd, rd.weight((1, 1))))

# The closed-family property: the component of the highest-weight pair in
# B(lam) (x) B(mu) is a copy of B(lam + mu).
iso, witness, _ = closed_family_instance(rd, (2, 0), (0, 1))
print("component of b_(2,0) (x) b_(0,1) is B(2,1):", iso,
      "(witness maps", len(witness), "nodes)")

# sl2 sanity: the full ladder of Clebsch-Gordan tables.
r1 = build_root_datum("A1")
for a, b in ((2, 2), (3, 1)):
    ga = generate_highest_weight_crystal(r1, (a,))
    gb = generate_highest_weight_crystal(r1, (b,))
    t = decompose(tensor_product_graph(r1, [ga, gb]))
    print(f"{a} (x) {b} ->", sorted(r1.pairing_vector(w)[0] for w in t.entries))
