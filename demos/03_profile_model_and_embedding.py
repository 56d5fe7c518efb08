"""
The profile model and its tensor realization
============================================

Elements of B(lambda) as finitely supported dimension tables, crystal
operators from Euler ranks of three-term complexes, and the capped tensor
embedding that pins every convention down.
"""

from kmcrystals import (
    build_root_datum,
    embed_psi,
    embedding_mismatches,
    eps_bar,
    generate,
    model_highest_weight,
    phi_bar,
    rank_complex,
)
from kmcrystals.quiver_model import window

rd = build_root_datum("A2")

# The source of B(Lambda_1): the framing sits on slot 0, the v-table is empty.
hw = model_highest_weight(rd, (1, 0))
print("source:", hw.serialize())

# rank tables drive everything: here only (k=1, p=1) is nonzero.
print("ranks at k=1:", {p: rank_complex(rd, hw, 1, p) for p in range(-1, 3)})
print("partial sums eps_bar / phi_bar at k=1:",
      {p: (eps_bar(rd, hw, 1, p), phi_bar(rd, hw, 1, p)) for p in range(-1, 3)})

# Lowering twice: note the second unit lands on slot 2, one above the first.
x = hw.f(rd, 1)
y = x.f(rd, 2)
print("after f_1:    ", x.serialize())
print("after f_2 f_1:", y.serialize())

# The embedding sends a profile to a capped tensor of elementary crystals,
# slots in decreasing order from left to right:
emb = embed_psi(rd, y, window(rd, y, margin=2))
print("embedded factors:", [f.serialize() for f in emb.factors])

# Statistics and operators computed in the model and through the embedding
# agree, element by element; an empty mismatch list is the whole point.
print("mismatches:", embedding_mismatches(rd, y))

# The same machinery generates the full crystal graph of B(2L1 + L2):
g = generate(rd, [model_highest_weight(rd, (2, 1))])
print("B(2L1+L2) has", g.node_count(), "elements and", len(g.edges), "edges")
