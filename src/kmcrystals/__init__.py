"""Exact crystal-basis combinatorics for symmetric Kac-Moody algebras.

The pieces: root data and weights (:mod:`root_datum`), the abstract crystal
contract with graph exploration and axiom checkers (:mod:`crystal_core`),
the elementary crystals (:mod:`elementary`), the signed-max tensor product
rule (:mod:`tensor`), the quiver-profile model of highest-weight crystals
with its strict tensor embedding (:mod:`quiver_model`), and graph analysis
with independent representation-theoretic oracles (:mod:`explorer`).
"""

from .crystal_core import (
    NEG_INF,
    CrystalElement,
    CrystalGraph,
    NegInfinity,
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
    finite_type_check,
    freudenthal_multiplicities,
    generate,
    generate_highest_weight_crystal,
    highest_weight_elements,
    is_isomorphic,
    positive_roots,
    tensor_product_graph,
    weyl_dim,
)
from .quiver_model import (
    ModelElement,
    WProfile,
    embed_psi,
    embedding_mismatches,
    eps_bar,
    model_element,
    model_highest_weight,
    phi_bar,
    rank_complex,
    wprofile,
)
from .root_datum import RootDatum, Weight, build_root_datum, load_root_datum
from .tensor import TensorElement, binary_e, binary_eps, binary_f, binary_phi, flatten, tensor

__version__ = "0.1.0"

__all__ = [
    "NEG_INF",
    "BkElement",
    "BudgetExceeded",
    "CrystalElement",
    "CrystalGraph",
    "DecompositionTable",
    "ModelElement",
    "NegInfinity",
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
    "eps_bar",
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
    "phi_bar",
    "positive_roots",
    "rank_complex",
    "tensor",
    "tensor_product_graph",
    "weyl_dim",
    "wprofile",
]
