"""
Infinite crystals through finite windows
========================================

Affine crystals are infinite, so everything runs on depth-bounded
truncations with an explicit frontier.  Checkers skip what they cannot
see instead of failing; graphs export to DOT with frontier nodes dashed.
"""

from kmcrystals import (
    build_root_datum,
    check_axioms,
    check_normal,
    closed_family_instance,
    decompose,
    embedding_mismatches,
    generate_highest_weight_crystal,
    graph_to_dot,
)

rd = build_root_datum("affineA1")
print("affine A1 Cartan matrix:", rd.cartan)

# B(Lambda_0) to depth 6: the frontier marks unexpanded nodes.
g = generate_highest_weight_crystal(rd, (1, 0), depth=6)
print("nodes:", g.node_count(), " frontier:", g.frontier_count())

# Axioms hold on the interior; the normality check reports skips for
# strings that leave the window rather than guessing.
print("axiom violations:", len(check_axioms(g).violations))
report = check_normal(g)
print("normality violations:", len(report.violations), " skipped:", report.skipped)

# The profile model stays in lockstep with its tensor realization even in
# affine type; zero mismatches across the truncation.
total = sum(len(embedding_mismatches(rd, x)) for x in g.nodes)
print("embedding mismatches:", total)

# Truncated decomposition never invents multiplicities: components that
# touch the frontier are flagged, not counted.
table = decompose(g)
print("counted components:", dict(table.entries), " flagged:", len(table.flagged))

# The closed-family comparison also works at matched depth.
iso, _, reason = closed_family_instance(rd, (1, 0), (0, 1), depth=6)
print("component of the hw pair matches B(1,1) to depth 6:", iso)

# Frontier nodes are dashed in the DOT output.
dot = graph_to_dot(g)
print("dashed nodes in DOT:", dot.count("style=dashed"))
