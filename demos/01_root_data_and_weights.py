"""
Root data and exact weights
===========================

A walkthrough of the bottom layer: symmetric generalized Cartan matrices,
the loop-free graphs they encode, and exact weight arithmetic.
"""

from kmcrystals import build_root_datum
from kmcrystals.oracles import finite_type_check
from kmcrystals.root_datum import Weight

# A root datum can come from a preset name ...
a2 = build_root_datum("A2")
print("A2 Cartan matrix:", a2.cartan)
print("A2 edge multiplicities:", a2.edge_mult)

# ... or from an explicit adjacency matrix.  Two vertices joined by a
# double edge give the affine A1 matrix (determinant zero):
affine = build_root_datum([[0, 2], [2, 0]])
print("affine A1 Cartan matrix:", affine.cartan)
print("finite type?", finite_type_check(a2), "vs", finite_type_check(affine))

# Weights are exact coordinate pairs: fundamental-weight coefficients and
# subtracted simple-root coefficients.  wt = Lambda_1 - alpha_1 looks like:
wt = Weight((1, 0), (1, 0))
print("pairings of Lambda_1 - alpha_1:", a2.pairing_vector(wt))

# Subtracting alpha_2 raises the pairing at vertex 1 by one (since C_12 = -1):
print("before:", a2.pairing(1, wt), " after:", a2.pairing(1, wt.subtract_alpha(2)))

# Dominance is just nonnegativity of all pairings:
print("dominant?", a2.is_dominant(wt), a2.is_dominant(Weight((2, 1), (0, 0))))

# Bourbaki numbering for the exceptional presets; vertex 2 is the D4 branch:
d4 = build_root_datum("D4")
print("D4 degrees:", [sum(row) for row in d4.edge_mult])
