"""Exact crystal-basis combinatorics for symmetric Kac-Moody algebras.

The pieces: root data and weights (:mod:`root_datum`), the abstract crystal
contract with graph exploration and axiom checkers (:mod:`crystal_core`),
the elementary crystals (:mod:`elementary`), the signed-max tensor product
rule (:mod:`tensor`), the quiver-profile model of highest-weight crystals
with its strict tensor embedding (:mod:`quiver_model`), graph generation
and analysis (:mod:`explorer`), and the independent representation-theoretic
oracles, which use no crystal (:mod:`oracles`).
"""

from .crystal_core import (
    NEG_INF,
    CrystalElement,
    CrystalGraph,
    check_axioms,
    check_normal,
    check_strict_morphism,
    graph_to_dot,
    graph_to_json,
)
from .elementary import BkElement, S0Element, TElement
from .explorer import (
    BudgetExceeded,
    DecompositionTable,
    character,
    closed_family_instance,
    decompose,
    decompose_tensor,
    generate,
    generate_highest_weight_crystal,
    highest_weight_elements,
    is_isomorphic,
    tensor_product_graph,
)
from .oracles import finite_type_check, freudenthal_multiplicities, positive_roots, weyl_dim
from .quiver_model import (
    ModelElement,
    WProfile,
    embed_psi,
    embedding_mismatches,
    model_element,
    model_highest_weight,
    rank_complex,
    wprofile,
)
from .root_datum import RootDatum, Weight, build_root_datum, load_root_datum
from .tensor import TensorElement, binary_e, binary_eps, binary_f, binary_phi, flatten

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "BkElement",
    "BudgetExceeded",
    "CrystalElement",
    "CrystalGraph",
    "DecompositionTable",
    "ModelElement",
    "RootDatum",
    "S0Element",
    "TElement",
    "TensorElement",
    "WProfile",
    "Weight",
    "binary_e",
    "binary_eps",
    "binary_f",
    "binary_phi",
    "build_root_datum",
    "character",
    "check_axioms",
    "check_normal",
    "check_strict_morphism",
    "closed_family_instance",
    "decompose",
    "decompose_tensor",
    "embed_psi",
    "embedding_mismatches",
    "finite_type_check",
    "flatten",
    "freudenthal_multiplicities",
    "generate",
    "generate_highest_weight_crystal",
    "graph_to_dot",
    "graph_to_json",
    "highest_weight_elements",
    "is_isomorphic",
    "load_root_datum",
    "model_element",
    "model_highest_weight",
    "positive_roots",
    "rank_complex",
    "tensor_product_graph",
    "weyl_dim",
    "wprofile",
]
